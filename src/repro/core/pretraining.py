"""Self-supervised pre-training objectives (paper Sections 2 and 4.1.4).

Three objectives are implemented:

``mlm``
    Masked token modeling: 15% of tokens are selected; of those, 80% are
    replaced with ``[MASK]``, 10% with a random token and 10% left unchanged,
    and the model must reconstruct the originals (BERT's recipe).
``nsp``
    Next-segment prediction: the context is split at its middle separator; in
    half the examples the second part is replaced with a part from a random
    other context, and the model must tell the two cases apart (BERT's NSP
    transplanted to flows).
``qa``
    Query-answer prediction: a network-specific objective the paper proposes —
    pair a DNS query with either its true response or the response of another
    query and predict whether they match.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from ..context.builders import Context
from ..net.dns import DNSMessage
from ..net.packet import Packet
from ..nn.autograd import Tensor, no_grad
from ..nn.data import PackedBatch, pack_batches
from ..nn.losses import cross_entropy, masked_cross_entropy
from ..nn.module import Module
from ..nn.optim import AdamW
from ..nn.schedules import WarmupLinearSchedule
from ..nn.trainer import Trainer, TrainingHistory
from ..tokenize.base import PacketTokenizer
from ..tokenize.vocab import CLS, SEP, Vocabulary
from .config import NetFMConfig
from .model import MaskedTokenHead, NetFoundationModel, SegmentPairHead

__all__ = [
    "PretrainingConfig",
    "mask_tokens",
    "make_segment_pairs",
    "make_segment_pairs_ids",
    "make_query_answer_pairs",
    "Pretrainer",
]


@dataclasses.dataclass
class PretrainingConfig:
    """Optimization and objective settings for pre-training."""

    epochs: int = 3
    batch_size: int = 16
    learning_rate: float = 3e-3
    weight_decay: float = 0.01
    mask_probability: float = 0.15
    warmup_fraction: float = 0.1
    objectives: tuple[str, ...] = ("mlm",)
    pair_loss_weight: float = 0.5
    seed: int = 0
    #: Use the packed-batch fast path: length-bucketed batches trimmed to
    #: their longest real sequence, and NSP pairs built directly on the
    #: encoded id matrices.  Disable to reproduce the legacy per-sequence
    #: pipeline (the throughput benchmark compares the two).
    packed: bool = True

    def __post_init__(self) -> None:
        known = {"mlm", "nsp", "qa"}
        unknown = set(self.objectives) - known
        if unknown:
            raise ValueError(f"unknown objectives {sorted(unknown)}; known: {sorted(known)}")
        if not 0.0 < self.mask_probability < 1.0:
            raise ValueError("mask_probability must be in (0, 1)")


def mask_tokens(
    token_ids: np.ndarray,
    attention_mask: np.ndarray,
    vocabulary: Vocabulary,
    rng: np.random.Generator,
    mask_probability: float = 0.15,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Apply BERT-style masking.

    Returns ``(masked_ids, targets, loss_mask)`` where ``loss_mask`` marks the
    positions whose original token must be predicted.
    """
    token_ids = np.asarray(token_ids, dtype=np.int64)
    attention_mask = np.asarray(attention_mask, dtype=bool)
    special = np.isin(token_ids, list(vocabulary.special_ids))
    candidates = attention_mask & ~special
    selection = (rng.random(token_ids.shape) < mask_probability) & candidates
    # Guarantee at least one masked position per sequence that has candidates.
    # Only the (rare) starved rows are visited, and the RNG is consumed
    # exactly as the original per-row loop did, so seeded runs reproduce.
    starved = np.flatnonzero(candidates.any(axis=1) & ~selection.any(axis=1))
    for row in starved:
        selection[row, rng.choice(np.flatnonzero(candidates[row]))] = True

    masked = token_ids.copy()
    roll = rng.random(token_ids.shape)
    replace_mask = selection & (roll < 0.8)
    replace_random = selection & (roll >= 0.8) & (roll < 0.9)
    masked[replace_mask] = vocabulary.mask_id
    if replace_random.any():
        masked[replace_random] = rng.integers(
            len(vocabulary.special_ids), len(vocabulary), size=int(replace_random.sum())
        )
    return masked, token_ids, selection


def _split_context(tokens: list[str]) -> tuple[list[str], list[str]]:
    """Split a context's tokens at the separator closest to the middle."""
    positions = [i for i, t in enumerate(tokens) if t == SEP]
    if not positions:
        middle = len(tokens) // 2
        return tokens[:middle], tokens[middle:]
    middle = len(tokens) // 2
    split = min(positions, key=lambda p: abs(p - middle))
    return tokens[: split + 1], tokens[split + 1 :]


def make_segment_pairs(
    contexts: Sequence[Context],
    rng: np.random.Generator,
    negative_fraction: float = 0.5,
) -> list[tuple[list[str], int]]:
    """Build (token sequence, is-true-continuation) examples for NSP."""
    pairs: list[tuple[list[str], int]] = []
    usable = [c for c in contexts if len(c.tokens) >= 6]
    if len(usable) < 2:
        return pairs
    for index, context in enumerate(usable):
        first, second = _split_context(context.tokens)
        if rng.random() < negative_fraction:
            other = usable[int(rng.integers(0, len(usable)))]
            if other is context:
                other = usable[(index + 1) % len(usable)]
            _, second = _split_context(other.tokens)
            label = 0
        else:
            label = 1
        tokens = first + second
        if tokens and tokens[0] != CLS:
            tokens = [CLS] + tokens
        pairs.append((tokens, label))
    return pairs


def make_segment_pairs_ids(
    token_ids: np.ndarray,
    attention_mask: np.ndarray,
    vocabulary: Vocabulary,
    rng: np.random.Generator,
    negative_fraction: float = 0.5,
    max_len: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized NSP example construction over whole id matrices.

    The id-matrix counterpart of :func:`make_segment_pairs`: split points,
    negative sampling and partner choice are computed with batched NumPy RNG
    operations; only the final row assembly copies NumPy slices.  Returns
    ``(pair_ids, pair_mask, labels)`` where label 1 marks a true
    continuation.
    """
    ids = np.asarray(token_ids)
    mask = np.asarray(attention_mask, dtype=bool)
    lengths = mask.sum(axis=1)
    usable = np.flatnonzero(lengths >= 6)
    width = max_len if max_len is not None else ids.shape[1]
    if len(usable) < 2:
        empty = np.zeros((0, width), dtype=ids.dtype)
        return empty, np.zeros((0, width), dtype=bool), np.zeros(0, dtype=np.int64)
    ids = ids[usable]
    mask = mask[usable]
    lengths = lengths[usable]
    n = len(usable)

    # Split each context at the separator closest to its middle (falling
    # back to the literal middle when it has no separator).
    positions = np.arange(ids.shape[1])
    is_sep = (ids == vocabulary.sep_id) & mask
    middle = lengths // 2
    distance = np.abs(positions[None, :] - middle[:, None]).astype(float)
    distance[~is_sep] = np.inf
    split = np.where(is_sep.any(axis=1), distance.argmin(axis=1) + 1, middle)

    negative = rng.random(n) < negative_fraction
    partner = rng.integers(0, n, size=n)
    collision = negative & (partner == np.arange(n))
    partner[collision] = (np.flatnonzero(collision) + 1) % n
    source = np.where(negative, partner, np.arange(n))
    labels = (~negative).astype(np.int64)

    cls_id = vocabulary.cls_id
    needs_cls = ids[:, 0] != cls_id
    out_ids = np.full((n, width), vocabulary.pad_id, dtype=ids.dtype)
    out_lengths = np.zeros(n, dtype=np.int64)
    for row in range(n):
        src = int(source[row])
        first = ids[row, : split[row]]
        second = ids[src, split[src] : lengths[src]]
        offset = 0
        if needs_cls[row]:
            out_ids[row, 0] = cls_id
            offset = 1
        take_first = min(len(first), width - offset)
        out_ids[row, offset : offset + take_first] = first[:take_first]
        offset += take_first
        take_second = min(len(second), width - offset)
        out_ids[row, offset : offset + take_second] = second[:take_second]
        out_lengths[row] = offset + take_second
    out_mask = np.arange(width)[None, :] < out_lengths[:, None]
    return out_ids, out_mask, labels


def make_query_answer_pairs(
    packets: Sequence[Packet],
    tokenizer: PacketTokenizer,
    rng: np.random.Generator,
    negative_fraction: float = 0.5,
) -> list[tuple[list[str], int]]:
    """Build DNS (query, answer) pair examples for the ``qa`` objective."""
    queries: dict[object, Packet] = {}
    responses: dict[object, Packet] = {}
    for packet in packets:
        if not isinstance(packet.application, DNSMessage):
            continue
        connection = packet.metadata.get("connection_id")
        if connection is None:
            continue
        if packet.application.is_response:
            responses[connection] = packet
        else:
            queries[connection] = packet
    matched = [key for key in queries if key in responses]
    pairs: list[tuple[list[str], int]] = []
    if len(matched) < 2:
        return pairs
    for key in matched:
        query_tokens = tokenizer.tokenize_packet(queries[key])
        if rng.random() < negative_fraction:
            other = matched[int(rng.integers(0, len(matched)))]
            if other == key:
                other = matched[(matched.index(key) + 1) % len(matched)]
            answer_tokens = tokenizer.tokenize_packet(responses[other])
            label = 0
        else:
            answer_tokens = tokenizer.tokenize_packet(responses[key])
            label = 1
        tokens = [CLS] + query_tokens + [SEP] + answer_tokens + [SEP]
        pairs.append((tokens, label))
    return pairs


class Pretrainer:
    """Run self-supervised pre-training of a :class:`NetFoundationModel`."""

    def __init__(
        self,
        model: NetFoundationModel,
        vocabulary: Vocabulary,
        config: PretrainingConfig | None = None,
    ):
        self.model = model
        self.vocabulary = vocabulary
        self.config = config or PretrainingConfig()
        rng = np.random.default_rng(self.config.seed)
        self.mlm_head = MaskedTokenHead(model.config, rng=rng)
        self.pair_head = SegmentPairHead(model.config, rng=rng)
        self._rng = rng
        self._pair_buffers: tuple[np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------
    # Encoding helpers
    # ------------------------------------------------------------------
    def _encode(self, token_lists: Sequence[list[str]]) -> tuple[np.ndarray, np.ndarray]:
        return self.vocabulary.encode_ids_batch(
            token_lists, max_len=self.model.config.max_len, dtype=np.int64
        )

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def pretrain(
        self,
        contexts: Sequence[Context],
        packets: Sequence[Packet] | None = None,
        tokenizer: PacketTokenizer | None = None,
        verbose: bool = False,
    ) -> TrainingHistory:
        """Pre-train on ``contexts`` with the configured objectives.

        ``packets`` and ``tokenizer`` are only required when the ``qa``
        objective is enabled (query-answer pairs are built from raw packets).
        """
        cfg = self.config
        ids, mask = self._encode([c.tokens for c in contexts])

        pair_ids, pair_mask, pair_labels = None, None, None
        if cfg.packed and "nsp" in cfg.objectives:
            # Fast path: NSP pairs assembled directly on the id matrices.
            pair_ids, pair_mask, pair_labels = make_segment_pairs_ids(
                ids, mask, self.vocabulary, self._rng
            )
        pair_examples: list[tuple[list[str], int]] = []
        if not cfg.packed and "nsp" in cfg.objectives:
            pair_examples.extend(make_segment_pairs(contexts, self._rng))
        if "qa" in cfg.objectives:
            if packets is None or tokenizer is None:
                raise ValueError("the 'qa' objective requires packets and a tokenizer")
            pair_examples.extend(make_query_answer_pairs(packets, tokenizer, self._rng))
        if pair_examples:
            example_ids, example_mask = self._encode([tokens for tokens, _ in pair_examples])
            example_labels = np.array([label for _, label in pair_examples], dtype=np.int64)
            if pair_ids is None:
                pair_ids, pair_mask, pair_labels = example_ids, example_mask, example_labels
            else:
                pair_ids = np.concatenate([pair_ids, example_ids], axis=0)
                pair_mask = np.concatenate([pair_mask, example_mask], axis=0)
                pair_labels = np.concatenate([pair_labels, example_labels], axis=0)
        if pair_ids is not None and not len(pair_ids):
            pair_ids, pair_mask, pair_labels = None, None, None
        return self._fit_encoded(ids, mask, pair_ids, pair_mask, pair_labels, verbose=verbose)

    def pretrain_encoded(
        self,
        ids: np.ndarray,
        mask: np.ndarray,
        verbose: bool = False,
    ) -> TrainingHistory:
        """Pre-train directly on encoded id/mask matrices — no Context objects.

        This is the end of the columnar data path: a
        :class:`~repro.net.columns.PacketColumns` batch encoded through
        :meth:`~repro.context.builders.PacketContextBuilder.encode_columns`
        (or any tokenizer's ``encode_batch``) feeds packed training without
        per-packet Python objects ever being materialized.  The ``mlm``
        objective works unchanged; ``nsp`` pairs are assembled on the id
        matrices with :func:`make_segment_pairs_ids`; the ``qa`` objective
        needs raw packets and is only available through :meth:`pretrain`.
        """
        cfg = self.config
        if "qa" in cfg.objectives:
            raise ValueError("the 'qa' objective requires pretrain() with raw packets")
        ids = np.asarray(ids)
        mask = np.asarray(mask, dtype=bool)
        pair_ids, pair_mask, pair_labels = None, None, None
        if "nsp" in cfg.objectives:
            pair_ids, pair_mask, pair_labels = make_segment_pairs_ids(
                ids, mask, self.vocabulary, self._rng
            )
            if not len(pair_ids):
                pair_ids, pair_mask, pair_labels = None, None, None
        return self._fit_encoded(ids, mask, pair_ids, pair_mask, pair_labels, verbose=verbose)

    def _fit_encoded(
        self,
        ids: np.ndarray,
        mask: np.ndarray,
        pair_ids: np.ndarray | None,
        pair_mask: np.ndarray | None,
        pair_labels: np.ndarray | None,
        verbose: bool = False,
    ) -> TrainingHistory:
        """Shared optimization loop over encoded (and optional pair) matrices."""
        cfg = self.config
        # Reusable buffers for the per-step pair sampling: each sampled pair
        # batch is consumed fully within its train step, so the next step can
        # safely overwrite the same memory.
        self._pair_buffers = None
        if cfg.packed and pair_ids is not None:
            self._pair_buffers = (
                np.empty((cfg.batch_size, pair_ids.shape[1]), dtype=pair_ids.dtype),
                np.empty((cfg.batch_size, pair_ids.shape[1]), dtype=bool),
            )

        parameters = (
            self.model.parameters() + self.mlm_head.parameters() + self.pair_head.parameters()
        )
        optimizer = AdamW(parameters, lr=cfg.learning_rate, weight_decay=cfg.weight_decay)
        steps_per_epoch = max(len(ids) // cfg.batch_size, 1)
        total_steps = max(cfg.epochs * steps_per_epoch, 1)
        schedule = WarmupLinearSchedule(
            optimizer, warmup_steps=max(int(cfg.warmup_fraction * total_steps), 1),
            total_steps=total_steps,
        )

        class _Composite(Module):
            """Container so the Trainer can flip train/eval on all parts."""

            def __init__(self, parts):
                super().__init__()
                self.parts = parts

            def forward(self):  # pragma: no cover - never called
                raise RuntimeError

        composite = _Composite([self.model, self.mlm_head, self.pair_head])
        trainer = Trainer(composite, optimizer, schedule=schedule)

        def make_batches():
            closures = []
            if cfg.packed:
                # Length-bucketed batches trimmed to their longest member:
                # attention and MLM logits never touch all-padding columns.
                for batch in pack_batches(ids, mask, cfg.batch_size, rng=self._rng):
                    closure = self._make_loss(batch.token_ids, batch.attention_mask,
                                              pair_ids, pair_mask, pair_labels)
                    closure.num_tokens = batch.num_tokens
                    closures.append(closure)
            else:
                order = self._rng.permutation(len(ids))
                for start in range(0, len(order), cfg.batch_size):
                    batch_idx = order[start : start + cfg.batch_size]
                    closure = self._make_loss(ids[batch_idx], mask[batch_idx],
                                              pair_ids, pair_mask, pair_labels)
                    closure.num_tokens = int(mask[batch_idx].sum())
                    closures.append(closure)
            return closures

        return trainer.fit(make_batches, epochs=cfg.epochs, verbose=verbose)

    def _make_loss(self, batch_ids, batch_mask, pair_ids, pair_mask, pair_labels):
        cfg = self.config
        fused = self.model.config.fused

        def loss_fn() -> Tensor:
            loss = Tensor(np.zeros(()), requires_grad=False)
            if "mlm" in cfg.objectives:
                masked, targets, loss_mask = mask_tokens(
                    batch_ids, batch_mask, self.vocabulary, self._rng, cfg.mask_probability
                )
                hidden = self.model(masked, attention_mask=batch_mask)
                logits = self.mlm_head(hidden)
                loss = loss + masked_cross_entropy(logits, targets, loss_mask, fused=fused)
            if pair_ids is not None and len(pair_ids):
                sample = self._rng.choice(
                    len(pair_ids), size=min(cfg.batch_size, len(pair_ids)), replace=False
                )
                if cfg.packed:
                    pair_batch = PackedBatch.from_rows(
                        pair_ids, pair_mask, sample, out=self._pair_buffers
                    )
                    sample_ids, sample_mask = pair_batch.token_ids, pair_batch.attention_mask
                else:
                    sample_ids, sample_mask = pair_ids[sample], pair_mask[sample]
                cls = self.model.encode_cls(sample_ids, attention_mask=sample_mask)
                pair_logits = self.pair_head(cls)
                pair_loss = cross_entropy(pair_logits, pair_labels[sample], fused=fused)
                loss = loss + pair_loss * cfg.pair_loss_weight
            return loss

        return loss_fn

    # ------------------------------------------------------------------
    # Evaluation helpers used by the scaling experiment (E12)
    # ------------------------------------------------------------------
    def masked_token_accuracy(self, contexts: Sequence[Context], samples: int = 64) -> float:
        """Accuracy of MLM predictions on a held-out sample of contexts.

        The masks come from a generator seeded afresh from the config seed
        on every call, never from the training generator: a probe between
        :meth:`pretrain` calls leaves the next training run unchanged, and
        two probes of the same model on the same contexts agree.
        """
        if not contexts:
            return 0.0
        sample = list(contexts)[:samples]
        ids, mask = self._encode([c.tokens for c in sample])
        masked, targets, loss_mask = mask_tokens(
            ids, mask, self.vocabulary, np.random.default_rng(self.config.seed),
            self.config.mask_probability,
        )
        with self.model.eval_mode(), self.mlm_head.eval_mode(), no_grad():
            hidden = self.model(masked, attention_mask=mask)
            logits = self.mlm_head(hidden).data
        predictions = logits.argmax(axis=-1)
        if loss_mask.sum() == 0:
            return 0.0
        return float((predictions[loss_mask] == targets[loss_mask]).mean())
