"""Extracting token and sequence representations from the foundation model.

These are the embeddings the paper's Section 3.4 examples inspect: NorBERT's
nearest neighbour of token "80" being "443", ciphersuite 49199 neighbouring
49200, and the semantic clusters of Section 3.3.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Sequence

import numpy as np

from ..context.builders import Context, encode_contexts
from ..nn.autograd import no_grad
from ..tokenize.vocab import Vocabulary
from .model import NetFoundationModel

__all__ = [
    "input_token_embeddings",
    "contextual_token_embeddings",
    "sequence_embeddings",
]


def input_token_embeddings(
    model: NetFoundationModel, vocabulary: Vocabulary
) -> dict[str, np.ndarray]:
    """The static input-embedding vector of every vocabulary token."""
    matrix = model.input_embedding_matrix()
    return {vocabulary.id_to_token(i): matrix[i] for i in range(len(vocabulary))}


def contextual_token_embeddings(
    model: NetFoundationModel,
    contexts: Sequence[Context],
    vocabulary: Vocabulary,
    max_len: int | None = None,
    batch_size: int = 32,
) -> dict[str, np.ndarray]:
    """Average contextual (post-encoder) embedding of each token over a corpus.

    This matches how NorBERT-style analyses compute token vectors: run the
    pre-trained encoder over many contexts and average each token's hidden
    states across its occurrences.
    """
    max_len = max_len or model.config.max_len
    ids, mask = encode_contexts(contexts, vocabulary, max_len)
    sums: dict[int, np.ndarray] = defaultdict(lambda: np.zeros(model.config.d_model))
    counts: dict[int, int] = defaultdict(int)
    with model.eval_mode(), no_grad():
        for start in range(0, len(ids), batch_size):
            batch_ids = ids[start : start + batch_size]
            batch_mask = mask[start : start + batch_size]
            hidden = model(batch_ids, attention_mask=batch_mask).data
            for row in range(batch_ids.shape[0]):
                for position in range(batch_ids.shape[1]):
                    if not batch_mask[row, position]:
                        continue
                    token_id = int(batch_ids[row, position])
                    sums[token_id] += hidden[row, position]
                    counts[token_id] += 1
    return {
        vocabulary.id_to_token(token_id): sums[token_id] / counts[token_id]
        for token_id in sums
        if token_id not in vocabulary.special_ids
    }


def sequence_embeddings(
    model: NetFoundationModel,
    contexts: Sequence[Context],
    vocabulary: Vocabulary,
    max_len: int | None = None,
    pooling: str = "cls",
    batch_size: int = 64,
) -> np.ndarray:
    """One embedding per context (``[CLS]`` or mean pooling)."""
    if pooling not in ("cls", "mean"):
        raise ValueError(f"unknown pooling {pooling!r}")
    max_len = max_len or model.config.max_len
    ids, mask = encode_contexts(contexts, vocabulary, max_len)
    outputs = []
    with model.eval_mode(), no_grad():
        for start in range(0, len(ids), batch_size):
            batch_ids = ids[start : start + batch_size]
            batch_mask = mask[start : start + batch_size]
            if pooling == "cls":
                embedding = model.encode_cls(batch_ids, attention_mask=batch_mask)
            else:
                embedding = model.encode_mean(batch_ids, attention_mask=batch_mask)
            outputs.append(embedding.data)
    return np.concatenate(outputs, axis=0)
