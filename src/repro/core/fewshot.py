"""Few-shot adaptation without gradient updates (the GPT-3 analogy).

The paper recounts how GPT-3 reduced the labelled-data requirement to a
handful of examples with no fine-tuning.  At this library's scale the
corresponding mechanism is prototype (nearest-class-centroid) classification
over the frozen foundation model's embeddings: the "prompt" is the small
support set, and no parameter is updated.
"""

from __future__ import annotations

import numpy as np

from ..nn.autograd import no_grad
from ..nn.metrics import accuracy, macro_f1, weighted_f1
from .model import NetFoundationModel

__all__ = ["PrototypeClassifier", "few_shot_episode"]


class PrototypeClassifier:
    """Nearest-class-centroid classifier on frozen foundation-model embeddings."""

    def __init__(self, model: NetFoundationModel, metric: str = "cosine"):
        if metric not in ("cosine", "euclidean"):
            raise ValueError(f"unknown metric {metric!r}")
        self.model = model
        self.metric = metric
        self.prototypes: np.ndarray | None = None
        self.classes: np.ndarray | None = None

    def _embed(self, token_ids: np.ndarray, attention_mask: np.ndarray, batch_size: int = 64) -> np.ndarray:
        chunks = []
        with self.model.eval_mode(), no_grad():
            for start in range(0, len(token_ids), batch_size):
                cls = self.model.encode_cls(
                    token_ids[start : start + batch_size],
                    attention_mask=attention_mask[start : start + batch_size],
                )
                chunks.append(cls.data)
        return np.concatenate(chunks, axis=0)

    def fit(self, token_ids: np.ndarray, attention_mask: np.ndarray, labels: np.ndarray) -> "PrototypeClassifier":
        """Compute one prototype (mean embedding) per class from the support set."""
        labels = np.asarray(labels, dtype=np.int64)
        embeddings = self._embed(token_ids, attention_mask)
        self.classes = np.unique(labels)
        self.prototypes = np.stack(
            [embeddings[labels == c].mean(axis=0) for c in self.classes]
        )
        return self

    def predict(self, token_ids: np.ndarray, attention_mask: np.ndarray) -> np.ndarray:
        if self.prototypes is None or self.classes is None:
            raise RuntimeError("fit() must be called before predict()")
        embeddings = self._embed(token_ids, attention_mask)
        if self.metric == "cosine":
            normed_e = embeddings / (np.linalg.norm(embeddings, axis=1, keepdims=True) + 1e-12)
            normed_p = self.prototypes / (
                np.linalg.norm(self.prototypes, axis=1, keepdims=True) + 1e-12
            )
            scores = normed_e @ normed_p.T
            best = scores.argmax(axis=1)
        else:
            distances = ((embeddings[:, None, :] - self.prototypes[None, :, :]) ** 2).sum(axis=-1)
            best = distances.argmin(axis=1)
        return self.classes[best]

    def evaluate(
        self, token_ids: np.ndarray, attention_mask: np.ndarray, labels: np.ndarray
    ) -> dict[str, float]:
        predictions = self.predict(token_ids, attention_mask)
        labels = np.asarray(labels, dtype=np.int64)
        num_classes = int(max(labels.max(initial=0), predictions.max(initial=0))) + 1
        return {
            "accuracy": accuracy(labels, predictions),
            "f1": weighted_f1(labels, predictions, num_classes),
            "macro_f1": macro_f1(labels, predictions, num_classes),
        }


def few_shot_episode(
    labels: np.ndarray,
    shots: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample a support/query split with ``shots`` examples per class.

    Returns ``(support_indices, query_indices)``.  Classes with fewer than
    ``shots + 1`` examples contribute all but one example to the support set.
    """
    labels = np.asarray(labels, dtype=np.int64)
    support: list[int] = []
    query: list[int] = []
    for cls in np.unique(labels):
        indices = np.nonzero(labels == cls)[0]
        indices = rng.permutation(indices)
        take = min(shots, max(len(indices) - 1, 1))
        support.extend(indices[:take].tolist())
        query.extend(indices[take:].tolist())
    return np.array(support, dtype=np.int64), np.array(query, dtype=np.int64)
