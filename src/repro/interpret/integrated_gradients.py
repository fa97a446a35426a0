"""Integrated gradients on the foundation model's input embeddings.

Axiomatic attribution (Sundararajan et al.), one of the interpretation methods
the paper cites.  Gradients are taken with respect to the token embeddings
while interpolating between a zero baseline and the actual embeddings.
"""

from __future__ import annotations

import numpy as np

from ..core.finetuning import SequenceClassifier
from ..nn.autograd import Tensor

__all__ = ["integrated_gradients"]


def integrated_gradients(
    classifier: SequenceClassifier,
    token_ids: np.ndarray,
    attention_mask: np.ndarray,
    target_class: int,
    steps: int = 16,
) -> np.ndarray:
    """Per-token attribution for a single example.

    Returns an array of shape ``(seq,)`` with the integrated-gradient
    attribution of each input position toward ``target_class`` (the dot
    product of the accumulated embedding gradients with the embedding itself,
    i.e. the usual token-level reduction).
    """
    token_ids = np.asarray(token_ids, dtype=np.int64)
    attention_mask = np.asarray(attention_mask, dtype=bool)
    if token_ids.ndim != 1:
        raise ValueError("integrated_gradients expects a single (seq,) example")
    if steps < 1:
        raise ValueError("steps must be at least 1")

    model = classifier.model
    with classifier.eval_mode():
        full_embedding = model.embed_tokens(token_ids[None, :]).data
        accumulated = np.zeros_like(full_embedding)
        for step in range(1, steps + 1):
            alpha = step / steps
            scaled = Tensor(full_embedding * alpha, requires_grad=True)
            hidden = model(
                attention_mask=attention_mask[None, :],
                inputs_embeds=scaled,
            )
            cls = hidden[:, 0, :]
            logits = classifier.head(cls)
            log_probs = logits.log_softmax(axis=-1)
            objective = log_probs[:, int(target_class)].sum()
            objective.backward()
            if scaled.grad is not None:
                accumulated += scaled.grad

    average_gradient = accumulated / steps
    attributions = (average_gradient * full_embedding).sum(axis=-1)[0]
    attributions[~attention_mask] = 0.0
    return attributions
