"""Reference solvers for NetGLUE tasks.

Two families are provided, matching the comparison the paper implies:

* :class:`FoundationModelSolver` — one foundation model pre-trained on the
  pooled unlabeled traffic of all packet tasks, then fine-tuned per task.
* :class:`GRUSolver` and :class:`FlowStatsSolver` — the per-task baselines
  (sequence model trained from scratch; hand-engineered flow statistics fed
  to logistic regression).

Array tasks (congestion prediction) are handled by flattening the window into
a feature vector for the classical solver and by a GRU over the time series
for the sequence solvers.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..baselines.classical import LogisticRegression, standardize_features
from ..baselines.gru import GRUClassifier, GRUClassifierConfig
from ..context.builders import ContextBuilder, FlowContextBuilder, encode_contexts
from ..core.config import NetFMConfig
from ..core.finetuning import FinetuneConfig, LabelEncoder, SequenceClassifier
from ..core.model import NetFoundationModel
from ..core.pretraining import Pretrainer, PretrainingConfig
from ..net.columns import PacketColumns
from ..net.flow_columns import FlowStatsColumns
from ..net.packet import Packet
from ..nn.metrics import accuracy, macro_f1, weighted_f1
from ..tasks.builders import ArrayTaskData, TaskData
from ..tokenize.field_aware import FieldAwareTokenizer
from ..tokenize.vocab import SPECIAL_TOKENS, Vocabulary
from .benchmark import NetGLUETask

__all__ = ["SolverSettings", "FoundationModelSolver", "GRUSolver", "FlowStatsSolver"]


@dataclasses.dataclass
class SolverSettings:
    """Shared knobs controlling how much compute the solvers spend."""

    max_tokens: int = 64
    max_train_contexts: int = 400
    max_eval_contexts: int = 400
    pretrain_epochs: int = 2
    finetune_epochs: int = 3
    gru_epochs: int = 4
    batch_size: int = 16
    d_model: int = 32
    num_layers: int = 2
    seed: int = 0


def _classification_metrics(labels: np.ndarray, predictions: np.ndarray) -> dict[str, float]:
    num_classes = int(max(labels.max(initial=0), predictions.max(initial=0))) + 1
    return {
        "accuracy": accuracy(labels, predictions),
        "f1": weighted_f1(labels, predictions, num_classes),
        "macro_f1": macro_f1(labels, predictions, num_classes),
    }


def _subsample(items: list, limit: int, rng: np.random.Generator) -> list:
    if len(items) <= limit:
        return items
    indices = rng.choice(len(items), size=limit, replace=False)
    return [items[i] for i in sorted(indices)]


class _GrowingVocabulary(Vocabulary):
    """A vocabulary that registers unknown tokens instead of mapping to UNK.

    Used to encode flow contexts columnar *before* the task vocabulary
    exists: the encode pass discovers the realized token inventory, whose
    counts then rebuild the exact frequency-ordered ``Vocabulary.build``
    result (see :meth:`_PacketTaskEncoder.encode_train_columns`).
    """

    def token_to_id(self, token: str) -> int:
        return self._add(token)


class _PacketTaskEncoder:
    """Shared tokenize -> group -> encode machinery for packet tasks.

    Packet tasks arrive as :class:`~repro.net.columns.PacketColumns`; the
    columnar entry points below reproduce the object pipeline (build flow
    contexts, drop unlabelled ones, subsample, build the vocabulary from the
    sampled training contexts, encode) bit-for-bit without materializing
    packets or :class:`~repro.context.builders.Context` objects.
    """

    def __init__(self, settings: SolverSettings, label_key: str):
        self.settings = settings
        self.tokenizer = FieldAwareTokenizer()
        self.builder: ContextBuilder = FlowContextBuilder(
            max_tokens=settings.max_tokens, label_key=label_key
        )
        self.vocabulary: Vocabulary | None = None
        self.label_encoder: LabelEncoder | None = None

    def contexts(self, packets: list[Packet], limit: int, rng: np.random.Generator):
        contexts = [c for c in self.builder.build(packets, self.tokenizer) if c.label is not None]
        return _subsample(contexts, limit, rng)

    def encode(self, contexts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        ids, mask = encode_contexts(contexts, self.vocabulary, self.settings.max_tokens)
        labels = self.label_encoder.encode([c.label for c in contexts])
        return ids, mask, labels

    # ------------------------------------------------------------------
    # Columnar path
    # ------------------------------------------------------------------
    def _sampled_contexts(
        self,
        columns,
        vocabulary: Vocabulary,
        limit: int,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray, list]:
        """Encode flow contexts, drop unlabelled ones, subsample to ``limit``."""
        ids, mask, labels = self.builder.encode_columns(
            columns, self.tokenizer, vocabulary, return_labels=True
        )
        keep = np.flatnonzero([label is not None for label in labels])
        if len(keep) > limit:
            keep = keep[np.sort(rng.choice(len(keep), size=limit, replace=False))]
        return ids[keep], mask[keep], [labels[i] for i in keep.tolist()]

    def encode_train_columns(
        self, columns, limit: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray, list]:
        """Encode the training split and derive ``self.vocabulary`` from it.

        The contexts are first encoded against a growing vocabulary (ids in
        discovery order), then re-mapped onto the frequency-ordered
        vocabulary that ``Vocabulary.build`` would produce over the sampled
        contexts' token lists — so downstream ids match the object path
        exactly.
        """
        growing = _GrowingVocabulary()
        ids, mask, labels = self._sampled_contexts(columns, growing, limit, rng)
        counts = np.bincount(ids[mask], minlength=len(growing))
        tokens = growing.tokens()
        specials = set(SPECIAL_TOKENS)
        realized = [
            (tokens[i], int(count))
            for i, count in enumerate(counts)
            if count > 0 and tokens[i] not in specials
        ]
        realized.sort(key=lambda kv: (-kv[1], kv[0]))
        self.vocabulary = Vocabulary(token for token, _ in realized)
        remap = np.fromiter(
            (self.vocabulary.token_to_id(t) for t in tokens), np.int64, len(tokens)
        )
        return remap[ids], mask, labels

    def encode_eval_columns(
        self, columns, limit: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray, list]:
        """Encode the evaluation split against the (fixed) task vocabulary."""
        return self._sampled_contexts(columns, self.vocabulary, limit, rng)


class FoundationModelSolver:
    """Pre-train once on pooled unlabeled traffic, fine-tune per task."""

    name = "foundation-model"

    def __init__(self, settings: SolverSettings | None = None):
        self.settings = settings or SolverSettings()

    def solve(self, task: NetGLUETask) -> dict[str, float]:
        if task.is_packet_task:
            return self._solve_packets(task.data)
        return self._solve_array(task.data)

    # ------------------------------------------------------------------
    def _solve_packets(self, data: TaskData) -> dict[str, float]:
        settings = self.settings
        rng = np.random.default_rng(settings.seed)
        encoder = _PacketTaskEncoder(settings, data.label_key)
        train_ids, train_mask, train_labels = encoder.encode_train_columns(
            data.train_columns, settings.max_train_contexts, rng
        )
        test_ids, test_mask, test_labels = encoder.encode_eval_columns(
            data.test_columns, settings.max_eval_contexts, rng
        )
        encoder.label_encoder = LabelEncoder(train_labels + test_labels)

        config = NetFMConfig(
            vocab_size=len(encoder.vocabulary),
            d_model=settings.d_model,
            num_layers=settings.num_layers,
            num_heads=4,
            d_ff=settings.d_model * 2,
            max_len=settings.max_tokens,
            dropout=0.0,
            seed=settings.seed,
        )
        model = NetFoundationModel(config)
        pretrainer = Pretrainer(
            model,
            encoder.vocabulary,
            PretrainingConfig(
                epochs=settings.pretrain_epochs,
                batch_size=settings.batch_size,
                seed=settings.seed,
            ),
        )
        pretrainer.pretrain_encoded(train_ids, train_mask)

        classifier = SequenceClassifier(
            model,
            encoder.label_encoder.num_classes,
            FinetuneConfig(
                epochs=settings.finetune_epochs,
                batch_size=settings.batch_size,
                seed=settings.seed,
            ),
        )
        classifier.fit(train_ids, train_mask, encoder.label_encoder.encode(train_labels))
        return classifier.evaluate(
            test_ids, test_mask, encoder.label_encoder.encode(test_labels)
        )

    # ------------------------------------------------------------------
    def _solve_array(self, data: ArrayTaskData) -> dict[str, float]:
        # Windowed time series: GRU over the raw window (the transformer
        # offers no pre-training signal for dense numeric series, so the
        # sequence model plays the foundation-model role here).
        solver = GRUSolver(self.settings)
        return solver._solve_array(data)


class GRUSolver:
    """GRU trained from scratch per task (random embeddings)."""

    name = "gru"

    def __init__(self, settings: SolverSettings | None = None):
        self.settings = settings or SolverSettings()

    def solve(self, task: NetGLUETask) -> dict[str, float]:
        if task.is_packet_task:
            return self._solve_packets(task.data)
        return self._solve_array(task.data)

    def _solve_packets(self, data: TaskData) -> dict[str, float]:
        settings = self.settings
        rng = np.random.default_rng(settings.seed)
        encoder = _PacketTaskEncoder(settings, data.label_key)
        train_ids, train_mask, train_labels = encoder.encode_train_columns(
            data.train_columns, settings.max_train_contexts, rng
        )
        test_ids, test_mask, test_labels = encoder.encode_eval_columns(
            data.test_columns, settings.max_eval_contexts, rng
        )
        encoder.label_encoder = LabelEncoder(train_labels + test_labels)
        classifier = GRUClassifier(
            vocab_size=len(encoder.vocabulary),
            num_classes=encoder.label_encoder.num_classes,
            config=GRUClassifierConfig(
                embedding_dim=settings.d_model,
                hidden_size=settings.d_model,
                epochs=settings.gru_epochs,
                batch_size=settings.batch_size,
                seed=settings.seed,
            ),
        )
        classifier.fit(train_ids, train_mask, encoder.label_encoder.encode(train_labels))
        return classifier.evaluate(
            test_ids, test_mask, encoder.label_encoder.encode(test_labels)
        )

    def _solve_array(self, data: ArrayTaskData) -> dict[str, float]:
        # Logistic regression over summary statistics of each window: a strong,
        # fast baseline for the dense numeric series.
        return FlowStatsSolver(self.settings)._solve_array(data)


class FlowStatsSolver:
    """Hand-engineered features + logistic regression (the classical approach)."""

    name = "flow-stats"

    def __init__(self, settings: SolverSettings | None = None):
        self.settings = settings or SolverSettings()

    def solve(self, task: NetGLUETask) -> dict[str, float]:
        if task.is_packet_task:
            return self._solve_packets(task.data)
        return self._solve_array(task.data)

    def _solve_packets(self, data: TaskData) -> dict[str, float]:
        train_x, train_y, encoder = self._flow_features(data.train_columns, data.label_key, None)
        test_x, test_y, _ = self._flow_features(data.test_columns, data.label_key, encoder)
        train_x, test_x = standardize_features(train_x, test_x)
        model = LogisticRegression().fit(train_x, train_y)
        predictions = model.predict(test_x)
        return _classification_metrics(test_y, predictions)

    def _flow_features(
        self,
        trace: "PacketColumns | list[Packet]",
        label_key: str,
        encoder: LabelEncoder | None,
    ) -> tuple[np.ndarray, np.ndarray, LabelEncoder]:
        """Per-flow feature matrix + encoded labels, columns-first.

        Accepts a :class:`PacketColumns` batch (the fast path the task
        builders provide) or a packet list (converted once); the flow table,
        per-flow statistics and majority labels are computed columnar with
        features and flow order bit-identical to the object pipeline.
        """
        if not isinstance(trace, PacketColumns):
            trace = PacketColumns.from_packets(trace)
        stats = FlowStatsColumns.from_columns(trace)
        flow_labels = stats.labels(trace, label_key)
        keep = [i for i, label in enumerate(flow_labels) if label is not None]
        features = stats.features[keep]
        labels = [str(flow_labels[i]) for i in keep]
        if encoder is None:
            encoder = LabelEncoder(labels)
        known = [i for i, label in enumerate(labels) if label in encoder.classes]
        features = features[known]
        encoded = encoder.encode([labels[i] for i in known])
        return features, encoded, encoder

    def _solve_array(self, data: ArrayTaskData) -> dict[str, float]:
        def summarize(windows: np.ndarray) -> np.ndarray:
            return np.concatenate(
                [windows.mean(axis=1), windows.std(axis=1), windows.max(axis=1), windows[:, -1, :]],
                axis=1,
            )

        train_x, test_x = standardize_features(
            summarize(data.train_features), summarize(data.test_features)
        )
        model = LogisticRegression().fit(train_x, data.train_targets.astype(np.int64))
        predictions = model.predict(test_x)
        return _classification_metrics(data.test_targets.astype(np.int64), predictions)
