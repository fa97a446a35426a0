"""Fine-tuning the pre-trained foundation model on labelled downstream tasks.

Mirrors BERT's recipe: a small classification head is added on top of the
``[CLS]`` embedding and the whole model is trained for a few epochs on the
labelled examples (Section 2 of the paper).
"""

from __future__ import annotations

import copy
import dataclasses
from typing import Sequence

import numpy as np

from ..nn.autograd import Tensor, no_grad
from ..nn.data import pack_batches
from ..nn.layers import Dropout, Linear
from ..nn.losses import cross_entropy
from ..nn.metrics import accuracy, macro_f1, weighted_f1
from ..nn.module import Module, Parameter
from ..nn.numeric import numeric_policy
from ..nn.optim import AdamW
from ..nn.schedules import WarmupLinearSchedule
from ..nn.trainer import Trainer, TrainingHistory
from .model import NetFoundationModel

__all__ = ["FinetuneConfig", "SequenceClassifier", "LabelEncoder"]


class LabelEncoder:
    """Map string labels to consecutive integer ids (deterministic order)."""

    def __init__(self, labels: Sequence[str]):
        self.classes: list[str] = sorted(set(str(label) for label in labels))
        self._to_id = {label: index for index, label in enumerate(self.classes)}

    def encode(self, labels: Sequence[str]) -> np.ndarray:
        unknown = [str(l) for l in labels if str(l) not in self._to_id]
        if unknown:
            raise KeyError(f"unknown labels {sorted(set(unknown))[:5]}")
        return np.array([self._to_id[str(label)] for label in labels], dtype=np.int64)

    def decode(self, ids: Sequence[int]) -> list[str]:
        return [self.classes[int(i)] for i in ids]

    @property
    def num_classes(self) -> int:
        return len(self.classes)


@dataclasses.dataclass
class FinetuneConfig:
    """Optimization settings for fine-tuning."""

    epochs: int = 4
    batch_size: int = 16
    learning_rate: float = 2e-3
    weight_decay: float = 0.01
    warmup_fraction: float = 0.1
    dropout: float = 0.1
    freeze_encoder: bool = False
    seed: int = 0
    #: Train on length-bucketed batches trimmed to their longest real
    #: sequence (the packed-batch fast path shared with pre-training).
    packed: bool = True


class SequenceClassifier(Module):
    """Foundation model + classification head over the ``[CLS]`` embedding."""

    def __init__(
        self,
        model: NetFoundationModel,
        num_classes: int,
        config: FinetuneConfig | None = None,
    ):
        super().__init__()
        self.config = config or FinetuneConfig()
        self.model = model
        rng = np.random.default_rng(self.config.seed + 7)
        self.dropout = Dropout(self.config.dropout, rng=rng)
        self.head = Linear(model.config.d_model, num_classes, rng=rng)
        self.num_classes = num_classes
        self._fastpath = None

    def forward(self, token_ids: np.ndarray, attention_mask: np.ndarray | None = None) -> Tensor:
        cls = self.model.encode_cls(token_ids, attention_mask=attention_mask)
        return self.head(self.dropout(cls))

    @property
    def model_dtype(self) -> str:
        """The build dtype (``"float64"`` / ``"float32"``) this model serves in."""
        return str(self.model.token_embedding.weight.data.dtype)

    def serving_build(self, dtype: str = "float32") -> "SequenceClassifier":
        """A serving replica of this classifier built in ``dtype``.

        The one place a model's dtype is chosen: every constructed model is
        the float64 reference, and each parameter is cast to ``dtype``
        once, into the replica's own array.  No second model is
        constructed, so nothing is randomly initialized only to be
        overwritten.  The replica carries the cast parameters, a copy of
        the model config and copies of this classifier's dropout generator
        states; it carries no gradients, no recorded attention maps, no eval
        fast path and no scratch buffers, and it starts in train mode like a
        fresh build.  The original keeps training in float64 as the
        reference; the replica's eval forwards take the packed float32
        kernels under the documented-ulp policy (:mod:`repro.nn.numeric`).
        ``serving_build("float64")`` is a plain replica (useful for
        symmetric comparisons).  A dtype with no numeric policy raises
        ``ValueError``.
        """
        numeric_policy(dtype)
        dtype = np.dtype(dtype)
        # deepcopy consults the memo before copying anything: every entry
        # below is the replica's value for that source object.  A parameter
        # maps to a fresh Parameter over its cast array (no gradient).
        memo = {
            id(self.config): self.config,
            id(self._fastpath): None,
        }
        for param in self.parameters():
            memo[id(param)] = Parameter(param.data.astype(dtype), name=param.name)
        for layer in self.model.encoder.layers:
            memo[id(layer.attention.last_attention)] = None
        replica = copy.deepcopy(self, memo)
        replica.train()
        return replica

    # ------------------------------------------------------------------
    # Training / inference over encoded arrays
    # ------------------------------------------------------------------
    def fit(
        self,
        token_ids: np.ndarray,
        attention_mask: np.ndarray,
        labels: np.ndarray,
        eval_data: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
        verbose: bool = False,
    ) -> TrainingHistory:
        """Fine-tune on encoded inputs; ``labels`` are integer class ids."""
        cfg = self.config
        labels = np.asarray(labels, dtype=np.int64)
        if cfg.freeze_encoder:
            parameters = self.head.parameters()
        else:
            parameters = self.parameters()
        optimizer = AdamW(parameters, lr=cfg.learning_rate, weight_decay=cfg.weight_decay)
        steps = max(len(labels) // cfg.batch_size, 1) * cfg.epochs
        schedule = WarmupLinearSchedule(
            optimizer, warmup_steps=max(int(cfg.warmup_fraction * steps), 1), total_steps=steps
        )
        trainer = Trainer(self, optimizer, schedule=schedule)
        rng = np.random.default_rng(cfg.seed)
        fused = self.model.config.fused

        def make_batches():
            closures = []
            if cfg.packed:
                for batch in pack_batches(token_ids, attention_mask, cfg.batch_size, rng=rng):
                    def loss_fn(batch=batch) -> Tensor:
                        logits = self(batch.token_ids, attention_mask=batch.attention_mask)
                        return cross_entropy(logits, labels[batch.indices], fused=fused)

                    loss_fn.num_tokens = batch.num_tokens
                    closures.append(loss_fn)
                return closures
            order = rng.permutation(len(labels))
            for start in range(0, len(order), cfg.batch_size):
                idx = order[start : start + cfg.batch_size]

                def loss_fn(idx=idx) -> Tensor:
                    logits = self(token_ids[idx], attention_mask=attention_mask[idx])
                    return cross_entropy(logits, labels[idx], fused=fused)

                loss_fn.num_tokens = int(np.asarray(attention_mask)[idx].sum())
                closures.append(loss_fn)
            return closures

        eval_fn = None
        if eval_data is not None:
            eval_ids, eval_mask, eval_labels = eval_data

            def eval_fn() -> dict[str, float]:
                return self.evaluate(eval_ids, eval_mask, eval_labels)

        return trainer.fit(make_batches, epochs=cfg.epochs, eval_fn=eval_fn, verbose=verbose)

    def predict(
        self, token_ids: np.ndarray, attention_mask: np.ndarray, batch_size: int = 64
    ) -> np.ndarray:
        """Predicted class ids."""
        return self.predict_proba(token_ids, attention_mask, batch_size).argmax(axis=-1)

    def predict_logits(
        self, token_ids: np.ndarray, attention_mask: np.ndarray, batch_size: int = 64
    ) -> np.ndarray:
        """Raw eval-mode logits (no dropout, no grad) for encoded inputs.

        The batched forward the serving engine micro-batches over.  Rows are
        computed independently (attention is masked per row, normalization
        and projections are row-wise): a row's logits are a function of its
        own tokens and the forward width only, not of what else is in the
        batch — which is what makes length-bucketed micro-batching
        deterministic (the same rows at the same width always produce the
        same logits) and lets it match per-flow predictions.  Padding-width
        changes can reorder BLAS accumulations at the last ulp, so class
        predictions are stable across widths while raw logits are exactly
        reproducible only at a fixed width.

        With a fused model (the default) this dispatches to the tape-free
        :class:`~repro.core.fastpath.EvalForward`, which is bit-identical
        to the module-graph loop below and additionally guarantees float64
        batch invariance: a float64 singleton chunk runs as a duplicated
        pair, so 1-row logits match the same row served inside any batch
        (float32 builds hold the ``logits`` ulp budget instead).  The fast
        path records no attention maps (``model.attention_maps()`` is then
        ``[]``); the composed reference loop, :meth:`predict_logits_reference`
        (also used when ``config.fused`` is off), records them.
        """
        if self.model.config.fused:
            if self._fastpath is None:
                from .fastpath import EvalForward

                self._fastpath = EvalForward()
            return self._fastpath(self, token_ids, attention_mask, batch_size=batch_size)
        return self.predict_logits_reference(token_ids, attention_mask, batch_size)

    def predict_logits_reference(
        self, token_ids: np.ndarray, attention_mask: np.ndarray, batch_size: int = 64
    ) -> np.ndarray:
        """The module-graph eval loop (the differential baseline for
        :class:`~repro.core.fastpath.EvalForward`).  It leaves each layer's
        attention weights for the last chunk in ``model.attention_maps()``,
        the input of :mod:`repro.interpret`'s attention tools."""
        token_ids = np.asarray(token_ids)
        if len(token_ids) == 0:
            return np.zeros((0, self.num_classes), dtype=self.model_dtype)
        outputs = []
        with self.eval_mode(), no_grad():
            for start in range(0, len(token_ids), batch_size):
                mask = attention_mask
                if mask is not None:
                    mask = mask[start : start + batch_size]
                logits = self(token_ids[start : start + batch_size], attention_mask=mask)
                outputs.append(logits.data)
        return np.concatenate(outputs, axis=0)

    def predict_proba(
        self, token_ids: np.ndarray, attention_mask: np.ndarray, batch_size: int = 64
    ) -> np.ndarray:
        """Predicted class probabilities (softmax over logits)."""
        logits = self.predict_logits(token_ids, attention_mask, batch_size)
        return Tensor(logits).softmax(axis=-1).data

    def evaluate(
        self, token_ids: np.ndarray, attention_mask: np.ndarray, labels: np.ndarray
    ) -> dict[str, float]:
        """Accuracy, macro-F1 and weighted-F1 on encoded data."""
        predictions = self.predict(token_ids, attention_mask)
        labels = np.asarray(labels, dtype=np.int64)
        return {
            "accuracy": accuracy(labels, predictions),
            "f1": weighted_f1(labels, predictions, self.num_classes),
            "macro_f1": macro_f1(labels, predictions, self.num_classes),
        }
