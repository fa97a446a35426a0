"""GRU sequence classifiers — the baseline architecture of NorBERT's comparison.

Two initialisations are provided, matching the paper's Section 3.4 account:
random embeddings and pretrained context-independent (GloVe / Word2Vec)
embeddings.  The classifier consumes exactly the same encoded contexts as the
foundation model, so experiment E1 isolates the effect of pre-training.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..nn.autograd import Tensor, no_grad
from ..nn.layers import Dropout, Embedding, Linear
from ..nn.losses import cross_entropy
from ..nn.metrics import accuracy, macro_f1, weighted_f1
from ..nn.module import Module
from ..nn.optim import Adam
from ..nn.recurrent import GRU
from ..nn.trainer import Trainer, TrainingHistory

__all__ = ["GRUClassifierConfig", "GRUClassifier"]


@dataclasses.dataclass
class GRUClassifierConfig:
    """Architecture and optimization settings of the GRU baseline."""

    embedding_dim: int = 48
    hidden_size: int = 48
    bidirectional: bool = False
    dropout: float = 0.1
    epochs: int = 6
    batch_size: int = 16
    learning_rate: float = 2e-3
    freeze_embeddings: bool = False
    seed: int = 0


class GRUClassifier(Module):
    """Embedding + GRU + linear head over token-id sequences."""

    def __init__(
        self,
        vocab_size: int,
        num_classes: int,
        config: GRUClassifierConfig | None = None,
        pretrained_embeddings: np.ndarray | None = None,
    ):
        super().__init__()
        self.config = config or GRUClassifierConfig()
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        self.embedding = Embedding(vocab_size, cfg.embedding_dim, rng=rng, std=0.1)
        if pretrained_embeddings is not None:
            if pretrained_embeddings.shape != (vocab_size, cfg.embedding_dim):
                raise ValueError(
                    "pretrained embedding shape "
                    f"{pretrained_embeddings.shape} != {(vocab_size, cfg.embedding_dim)}"
                )
            self.embedding.load_pretrained(pretrained_embeddings, freeze=cfg.freeze_embeddings)
        self.gru = GRU(cfg.embedding_dim, cfg.hidden_size, bidirectional=cfg.bidirectional, rng=rng)
        self.dropout = Dropout(cfg.dropout, rng=rng)
        self.head = Linear(self.gru.output_size, num_classes, rng=rng)
        self.num_classes = num_classes

    def forward(self, token_ids: np.ndarray, attention_mask: np.ndarray | None = None) -> Tensor:
        embedded = self.embedding(np.asarray(token_ids, dtype=np.int64))
        if attention_mask is not None:
            mask = np.asarray(attention_mask, dtype=float)[..., None]
            embedded = embedded * Tensor(mask)
        outputs, final = self.gru(embedded)
        if attention_mask is not None:
            # Mean over valid positions is more robust than the final state
            # when sequences are padded.
            mask = np.asarray(attention_mask, dtype=float)[..., None]
            summed = (outputs * Tensor(mask)).sum(axis=1)
            pooled = summed * Tensor(1.0 / np.maximum(mask.sum(axis=1), 1.0))
        else:
            pooled = final
        return self.head(self.dropout(pooled))

    # ------------------------------------------------------------------
    # Training / inference (same protocol as SequenceClassifier)
    # ------------------------------------------------------------------
    def fit(
        self,
        token_ids: np.ndarray,
        attention_mask: np.ndarray,
        labels: np.ndarray,
        eval_data: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
        verbose: bool = False,
    ) -> TrainingHistory:
        cfg = self.config
        labels = np.asarray(labels, dtype=np.int64)
        optimizer = Adam(self.parameters(), lr=cfg.learning_rate)
        trainer = Trainer(self, optimizer)
        rng = np.random.default_rng(cfg.seed)

        def make_batches():
            order = rng.permutation(len(labels))
            closures = []
            for start in range(0, len(order), cfg.batch_size):
                idx = order[start : start + cfg.batch_size]

                def loss_fn(idx=idx) -> Tensor:
                    logits = self(token_ids[idx], attention_mask=attention_mask[idx])
                    return cross_entropy(logits, labels[idx])

                closures.append(loss_fn)
            return closures

        eval_fn = None
        if eval_data is not None:
            eval_ids, eval_mask, eval_labels = eval_data

            def eval_fn() -> dict[str, float]:
                return self.evaluate(eval_ids, eval_mask, eval_labels)

        return trainer.fit(make_batches, epochs=cfg.epochs, eval_fn=eval_fn, verbose=verbose)

    def predict(self, token_ids: np.ndarray, attention_mask: np.ndarray, batch_size: int = 64) -> np.ndarray:
        outputs = []
        with self.eval_mode(), no_grad():
            for start in range(0, len(token_ids), batch_size):
                logits = self(
                    token_ids[start : start + batch_size],
                    attention_mask=attention_mask[start : start + batch_size],
                )
                outputs.append(logits.data.argmax(axis=-1))
        return np.concatenate(outputs, axis=0)

    def evaluate(
        self, token_ids: np.ndarray, attention_mask: np.ndarray, labels: np.ndarray
    ) -> dict[str, float]:
        predictions = self.predict(token_ids, attention_mask)
        labels = np.asarray(labels, dtype=np.int64)
        return {
            "accuracy": accuracy(labels, predictions),
            "f1": weighted_f1(labels, predictions, self.num_classes),
            "macro_f1": macro_f1(labels, predictions, self.num_classes),
        }
