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
from ..nn.kernels import RaggedLayout
from ..nn.layers import Dropout, Linear
from ..nn.losses import cross_entropy
from ..nn.metrics import accuracy, macro_f1, weighted_f1
from ..nn.module import Module, Parameter
from ..nn.numeric import numeric_policy
from ..nn.optim import AdamW
from ..nn.schedules import WarmupLinearSchedule
from ..nn.trainer import Trainer, TrainingHistory
from .fastpath import EvalForward, length_chunks, prefix_lengths
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

        The batched forward the serving engine runs.  ``attention_mask``
        must be a non-empty prefix mask per row (``None``: every row is
        full width), and each row is scored over its own valid prefix:
        rows are sorted by length (stably) and cut into ``batch_size``-row
        chunks, and a chunk mixes lengths without padding.  A row's logits
        are therefore a function of its own tokens, not of the width it
        was padded to or of what else is in the call — in float64 to the
        last bit (a 1-row float64 chunk runs its head on a duplicated
        pair, since a 1-row gemm takes another BLAS path), in float32
        within the ``logits`` ulp budget.  A mask row that is empty or not
        a prefix raises ``ValueError``.

        With a fused model (the default) this dispatches to the tape-free
        :class:`~repro.core.fastpath.EvalForward`, which is bit-identical
        to the module-graph loop below on chunks of two or more rows.  The
        fast path records no attention maps (``model.attention_maps()`` is
        then ``[]``); the module loop, :meth:`predict_logits_reference`
        (also used when ``config.fused`` is off), records them.
        """
        if self.model.config.fused:
            if self._fastpath is None:
                self._fastpath = EvalForward()
            return self._fastpath(self, token_ids, attention_mask, batch_size=batch_size)
        return self.predict_logits_reference(token_ids, attention_mask, batch_size)

    def predict_logits_reference(
        self, token_ids: np.ndarray, attention_mask: np.ndarray, batch_size: int = 64
    ) -> np.ndarray:
        """The module-graph eval loop (the differential baseline for
        :class:`~repro.core.fastpath.EvalForward`).

        It trims like the fast path: in each length-sorted chunk, every
        length group runs the module forward at its exact width with no
        mask, and the head runs once over the chunk's ``[CLS]`` rows.  It
        leaves each layer's attention weights for the last chunk in
        ``model.attention_maps()`` — ``(rows, heads, width, width)`` with
        the rows in input order and each row's map zero-padded from its
        length to the input width — the input of :mod:`repro.interpret`'s
        attention tools."""
        token_ids = np.asarray(token_ids)
        if len(token_ids) == 0:
            return np.zeros((0, self.num_classes), dtype=self.model_dtype)
        width = token_ids.shape[1]
        if width > self.model.config.max_len:
            raise ValueError(
                f"sequence length {width} exceeds max_len {self.model.config.max_len}"
            )
        lengths = prefix_lengths(attention_mask, token_ids.shape)
        layers = self.model.encoder.layers
        chunks = length_chunks(lengths, batch_size)
        out = np.empty((len(token_ids), self.num_classes), dtype=self.model_dtype)
        with self.eval_mode(), no_grad():
            for index, rows in enumerate(chunks):
                layout = RaggedLayout(lengths[rows], layers[0].attention.num_heads)
                last = index == len(chunks) - 1
                if last:
                    maps = [None] * len(layers)
                    slot = np.argsort(np.argsort(rows))  # input-order position
                cls = []
                for s, a, b, _, _ in layout.groups:
                    cls.append(self.model.encode_cls(token_ids[rows[a:b], :s]).data)
                    if not last:
                        continue
                    for i, layer in enumerate(layers):
                        weights = layer.attention.last_attention
                        if maps[i] is None:
                            maps[i] = np.zeros(
                                (len(rows), weights.shape[1], width, width),
                                dtype=weights.dtype,
                            )
                        maps[i][slot[a:b], :, :s, :s] = weights
                logits = self.head(self.dropout(Tensor(np.concatenate(cls))))
                out[rows] = logits.data
        for layer, weights in zip(layers, maps):
            layer.attention.last_attention = weights
        return out

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
