"""End-to-end pipeline: tokenizer + context builder + vocabulary + model.

``NetFMPipeline`` is the library's highest-level entry point, used by the
examples and by NetGLUE: point it at an unlabeled trace to pre-train, then at
a labelled trace to fine-tune and evaluate.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from ..context.builders import Context, ContextBuilder, FlowContextBuilder
from ..net.packet import Packet
from ..nn.trainer import TrainingHistory
from ..tokenize.base import PacketTokenizer
from ..tokenize.field_aware import FieldAwareTokenizer
from ..tokenize.vocab import Vocabulary
from .config import NetFMConfig
from .fewshot import PrototypeClassifier
from .finetuning import FinetuneConfig, LabelEncoder, SequenceClassifier
from .model import NetFoundationModel
from .pretraining import Pretrainer, PretrainingConfig

__all__ = ["NetFMPipeline", "PipelineResult"]


@dataclasses.dataclass
class PipelineResult:
    """What a full pre-train / fine-tune / evaluate run produced."""

    pretrain_history: TrainingHistory | None
    finetune_history: TrainingHistory | None
    metrics: dict[str, float]
    classifier: SequenceClassifier | None = None


class NetFMPipeline:
    """Bundle of tokenizer, context builder, vocabulary and foundation model.

    Parameters
    ----------
    tokenizer:
        Any :class:`~repro.tokenize.base.PacketTokenizer`; defaults to the
        field-aware tokenizer.
    context_builder:
        Any :class:`~repro.context.builders.ContextBuilder`; defaults to
        flow-level contexts with the ``application`` label.
    model_config:
        Architecture of the foundation model.  ``vocab_size`` is overwritten
        once the vocabulary has been built.
    """

    def __init__(
        self,
        tokenizer: PacketTokenizer | None = None,
        context_builder: ContextBuilder | None = None,
        model_config: NetFMConfig | None = None,
        pretrain_config: PretrainingConfig | None = None,
        finetune_config: FinetuneConfig | None = None,
    ):
        self.tokenizer = tokenizer or FieldAwareTokenizer()
        self.context_builder = context_builder or FlowContextBuilder()
        self.model_config = model_config or NetFMConfig()
        self.pretrain_config = pretrain_config or PretrainingConfig()
        self.finetune_config = finetune_config or FinetuneConfig()
        self.vocabulary: Vocabulary | None = None
        self.model: NetFoundationModel | None = None
        self.label_encoder: LabelEncoder | None = None

    # ------------------------------------------------------------------
    # Building blocks
    # ------------------------------------------------------------------
    def build_contexts(self, packets: Sequence[Packet]) -> list[Context]:
        """Tokenize a trace into contexts with the configured strategy."""
        return self.context_builder.build(packets, self.tokenizer)

    def build_vocabulary(self, contexts: Sequence[Context], min_count: int = 1) -> Vocabulary:
        """Build (and store) the vocabulary from contexts, resizing the model config."""
        self.vocabulary = Vocabulary.build([c.tokens for c in contexts], min_count=min_count)
        self.model_config = dataclasses.replace(
            self.model_config, vocab_size=len(self.vocabulary)
        )
        return self.vocabulary

    def build_model(self) -> NetFoundationModel:
        """Instantiate the foundation model for the current vocabulary."""
        if self.vocabulary is None:
            raise RuntimeError("build_vocabulary() must be called before build_model()")
        self.model = NetFoundationModel(self.model_config)
        return self.model

    # ------------------------------------------------------------------
    # Stages
    # ------------------------------------------------------------------
    def pretrain(
        self, packets: Sequence[Packet], verbose: bool = False
    ) -> tuple[list[Context], TrainingHistory]:
        """Fit the tokenizer, build contexts/vocabulary/model and pre-train."""
        self.tokenizer.fit(packets)
        contexts = self.build_contexts(packets)
        self.build_vocabulary(contexts)
        self.build_model()
        pretrainer = Pretrainer(self.model, self.vocabulary, self.pretrain_config)
        history = pretrainer.pretrain(
            contexts, packets=packets, tokenizer=self.tokenizer, verbose=verbose
        )
        return contexts, history

    def encode_labelled(
        self, packets: Sequence[Packet]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Build labelled contexts from a trace and encode them for fine-tuning."""
        if self.vocabulary is None:
            raise RuntimeError("pretrain() (or build_vocabulary) must run first")
        contexts = [c for c in self.build_contexts(packets) if c.label is not None]
        if not contexts:
            raise ValueError("no labelled contexts were produced from the given packets")
        if self.label_encoder is None:
            self.label_encoder = LabelEncoder([c.label for c in contexts])
        ids, mask = _encode(contexts, self.vocabulary, self.model_config.max_len)
        labels = self.label_encoder.encode([c.label for c in contexts])
        return ids, mask, labels

    def finetune(
        self,
        train_packets: Sequence[Packet],
        eval_packets: Sequence[Packet] | None = None,
        verbose: bool = False,
    ) -> PipelineResult:
        """Fine-tune on a labelled trace and evaluate on another."""
        if self.model is None:
            raise RuntimeError("pretrain() must be called before finetune()")
        train = self.encode_labelled(train_packets)
        classifier = SequenceClassifier(
            self.model, self.label_encoder.num_classes, self.finetune_config
        )
        eval_data = None
        metrics: dict[str, float] = {}
        if eval_packets is not None:
            eval_data = self.encode_labelled(eval_packets)
        history = classifier.fit(*train, eval_data=eval_data, verbose=verbose)
        if eval_data is not None:
            metrics = classifier.evaluate(*eval_data)
        return PipelineResult(
            pretrain_history=None, finetune_history=history, metrics=metrics, classifier=classifier
        )

    def few_shot(
        self,
        support_packets: Sequence[Packet],
        query_packets: Sequence[Packet],
    ) -> dict[str, float]:
        """Prototype-based few-shot evaluation with the frozen encoder."""
        if self.model is None:
            raise RuntimeError("pretrain() must be called before few_shot()")
        support = self.encode_labelled(support_packets)
        query = self.encode_labelled(query_packets)
        classifier = PrototypeClassifier(self.model)
        classifier.fit(*support)
        return classifier.evaluate(*query)


def _encode(contexts: Sequence[Context], vocabulary: Vocabulary, max_len: int):
    from ..context.builders import encode_contexts

    return encode_contexts(contexts, vocabulary, max_len)
