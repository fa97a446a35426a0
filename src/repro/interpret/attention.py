"""Attention-based explanations: per-token attention and attention rollout."""

from __future__ import annotations

import numpy as np

__all__ = ["cls_attention", "attention_rollout"]


def cls_attention(attention_maps: list[np.ndarray], layer: int = -1) -> np.ndarray:
    """Attention paid by the ``[CLS]`` position, averaged over heads.

    Parameters
    ----------
    attention_maps:
        Per-layer arrays of shape ``(batch, heads, seq, seq)`` as returned by
        :meth:`repro.core.model.NetFoundationModel.attention_maps`.
    layer:
        Which layer to read (default: last).

    Returns
    -------
    Array of shape ``(batch, seq)``: how much CLS attends to each position.
    """
    if not attention_maps:
        raise ValueError("no attention maps recorded; run predict_logits_reference first")
    chosen = attention_maps[layer]
    return chosen.mean(axis=1)[:, 0, :]


def attention_rollout(attention_maps: list[np.ndarray], add_residual: bool = True) -> np.ndarray:
    """Attention rollout (Abnar & Zuidema): multiply per-layer attention.

    Accounts for residual connections by averaging each layer's attention with
    the identity before multiplying layers together.  Returns the rolled-out
    attention of the CLS position over input tokens, shape ``(batch, seq)``.
    Rows that attend nowhere — the padding rows of the zero-padded maps
    ``predict_logits_reference`` records — stay zero instead of dividing by
    zero.
    """
    if not attention_maps:
        raise ValueError("no attention maps recorded; run predict_logits_reference first")
    rollout = None
    for layer_map in attention_maps:
        averaged = layer_map.mean(axis=1)  # (batch, seq, seq)
        if add_residual:
            identity = np.eye(averaged.shape[-1])[None, :, :]
            averaged = 0.5 * averaged + 0.5 * identity
        sums = averaged.sum(axis=-1, keepdims=True)
        averaged = np.divide(
            averaged, sums, out=np.zeros_like(averaged), where=sums > 0
        )
        rollout = averaged if rollout is None else np.matmul(rollout, averaged)
    return rollout[:, 0, :]
