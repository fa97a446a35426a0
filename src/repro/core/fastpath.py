"""Tape-free eval forward for the fine-tuned classifier (the serving fast path).

:meth:`SequenceClassifier.predict_logits
<repro.core.finetuning.SequenceClassifier.predict_logits>` is the forward the
serving engine batches over.  Running it through the module graph pays
for a tape node, a Python dispatch and a fresh array per op even under
``no_grad``; :class:`EvalForward` instead runs the ragged no-tape kernels
of :mod:`repro.nn.kernels` (:class:`~repro.nn.kernels.RaggedLayout`,
:func:`~repro.nn.kernels.ragged_attention`,
:func:`~repro.nn.kernels.ragged_matmul`,
:func:`~repro.nn.kernels.eval_layer_norm`) over a
:class:`~repro.nn.kernels.ScratchPool` of reused activation buffers (one
per slot, sized by the largest chunk seen).  Those kernels pick the
numeric policy by dtype: float64 replays the composed op sequence, so
logits are bit-identical to the module path (asserted by
`tests/test_nn_fused_equivalence.py`); float32 serving builds run the
ragged float32 kernels and the packed layer norm under the relaxed
documented-ulp policy of :mod:`repro.nn.numeric`.  The only op replayed
here is gelu (the same multiply chain as ``Tensor.gelu``).

Five serving contracts live here rather than in the engine or the kernels:

* **Ragged rows.**  Every row is scored over its own valid prefix (the
  mask must be a non-empty prefix mask per row: :func:`prefix_lengths`).
  Rows are sorted by length (stably) and cut into ``batch_size``-row
  chunks (:func:`length_chunks`); a chunk lies end to end in a flat
  ``(tokens, d)`` layout with no padding, so one call serves a mix of
  lengths at the cost of their real tokens.  The module forward
  (:meth:`SequenceClassifier.predict_logits_reference
  <repro.core.finetuning.SequenceClassifier.predict_logits_reference>`)
  trims the same way.
* **Batch invariance (float64).**  Embeddings, norms, GELU and residuals
  are row-wise, and every float64 gemm and attention runs per length group
  as the 3-D per-item products an exact-width forward runs, so a float64
  row's logits depend only on its own tokens — never on the other rows of
  its call, the call's width or its chunking.  The one gemm that sees the
  chunk is the head's, and a 1-row gemm takes a different BLAS path (last
  ulp drift): a 1-row float64 chunk runs its head on a duplicated pair.
  Float32 packed gemms round differently per shape anyway, so a float32
  row's logits move in the last bits (within the ``logits`` ulp budget)
  with the rows it is batched with.
* **[CLS]-only last layer (float32).**  The head reads only ``[CLS]``, so
  a float32 forward projects the last layer's queries, scores and context
  for the ``[CLS]`` tokens alone (keys and values still cover every
  token) and carries only those rows through the rest of the layer, the
  final norm and the head, within the ``logits`` ulp budget.  Float64
  keeps the full forward: the cut would replace per-item ``(s, ·)``
  products by ``(b, ·)`` gemms, whose row bits depend on ``b`` at
  ``d_ff`` 512 on OpenBLAS (``docs/NN.md``).
* **Logits only.**  No attention map is recorded: every call clears each
  layer's ``last_attention``, so ``attention_maps()`` after a fast-path
  call (an empty one too) is ``[]``, never a previous forward's maps.
  Interpretability reads the maps the module forward records.
* **Live parameters.**  Parameter arrays are re-read from the modules on
  every call: fine-tune further and the fast path serves the new weights
  with no invalidation step.
"""

from __future__ import annotations

import numpy as np

from ..nn.autograd import _GELU_C
from ..nn.kernels import (
    RaggedLayout,
    ScratchPool,
    eval_layer_norm,
    ragged_attention,
    ragged_cls_attention,
    ragged_matmul,
)

__all__ = ["EvalForward", "prefix_lengths", "length_chunks"]


def prefix_lengths(attention_mask, shape: tuple[int, int]) -> np.ndarray:
    """Each row's valid length; ``None`` means every row is full width.

    Raises ``ValueError`` unless every mask row is a non-empty prefix mask
    (``True`` on its first ``length`` entries, ``False`` after), the shape
    every encoder in the library builds.
    """
    rows, width = shape
    if attention_mask is None:
        return np.full(rows, width, dtype=np.int64)
    valid = np.asarray(attention_mask, dtype=bool)
    if valid.shape != (rows, width):
        raise ValueError(
            f"attention_mask shape {valid.shape} != token_ids shape {(rows, width)}"
        )
    lengths = valid.sum(axis=1)
    if (lengths == 0).any() or not np.array_equal(
        valid, np.arange(width) < lengths[:, None]
    ):
        raise ValueError("every attention_mask row must be a non-empty prefix mask")
    return lengths


def length_chunks(lengths: np.ndarray, batch_size: int) -> list[np.ndarray]:
    """Row indices sorted by length (stably), cut into ``batch_size`` chunks."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be at least 1, got {batch_size}")
    order = np.argsort(lengths, kind="stable")
    return [order[i : i + batch_size] for i in range(0, len(order), batch_size)]


class EvalForward:
    """Batched eval-mode ``token_ids -> logits`` for a ``SequenceClassifier``.

    Drop-in for the module-graph ``predict_logits`` loop (same row order,
    same trimming, same range checks, same kernels, so bit-identical
    float64 logits) minus the autograd overhead and the attention maps.
    Not a Module: it owns no parameters, only scratch buffers sized by the
    largest chunk, and never touches the train/eval flags of the model it
    reads.  The classifier it serves is passed in on every call rather
    than stored, so the classifier that owns this object forms no
    reference cycle with it: dropping the classifier frees its scratch
    buffers at once, not at the next cyclic garbage collection.
    """

    def __init__(self):
        self._pool = ScratchPool()

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def __call__(
        self, classifier, token_ids: np.ndarray, attention_mask: np.ndarray | None,
        batch_size: int = 64,
    ) -> np.ndarray:
        model = classifier.model
        for layer in model.encoder.layers:
            layer.attention.last_attention = None
        token_ids = np.asarray(token_ids, dtype=np.int64)
        dtype = model.token_embedding.weight.data.dtype
        if len(token_ids) == 0:
            return np.zeros((0, classifier.num_classes), dtype=dtype)
        if token_ids.shape[1] > model.config.max_len:
            raise ValueError(
                f"sequence length {token_ids.shape[1]} exceeds max_len "
                f"{model.config.max_len}"
            )
        lengths = prefix_lengths(attention_mask, token_ids.shape)
        out = np.empty((len(token_ids), classifier.num_classes), dtype=dtype)
        for rows in length_chunks(lengths, batch_size):
            out[rows] = self._forward_chunk(classifier, token_ids[rows], lengths[rows])
        return out

    # ------------------------------------------------------------------
    # One length-sorted chunk
    # ------------------------------------------------------------------
    def _forward_chunk(
        self, classifier, ids: np.ndarray, lengths: np.ndarray
    ) -> np.ndarray:
        model = classifier.model
        pool = self._pool
        token_table = model.token_embedding.weight.data
        dtype = token_table.dtype
        layers = model.encoder.layers
        layout = RaggedLayout(lengths, layers[0].attention.num_heads)
        width = int(lengths[-1])
        flat_ids = ids[:, :width][np.arange(width) < lengths[:, None]]
        if flat_ids.min() < 0 or flat_ids.max() >= token_table.shape[0]:
            raise IndexError(
                f"token id out of range [0, {token_table.shape[0]}): "
                f"min={flat_ids.min()}, max={flat_ids.max()}"
            )
        tokens, d = layout.tokens, token_table.shape[1]

        # Embeddings: token gather plus position gather (the same operand
        # pairs as the composed path), then the embedding norm.  Dropout
        # layers are eval-mode no-ops and are skipped outright.
        x = pool.take("res0", (tokens, d), dtype)
        np.take(token_table, flat_ids, axis=0, out=x, mode="clip")
        y = pool.take("res1", (tokens, d), dtype)
        np.take(
            model.position_embedding.weight.data, layout.positions, axis=0,
            out=y, mode="clip",
        )
        x += y

        def layer_norm(norm, data, out):
            eval_layer_norm(data, norm.gamma.data, norm.beta.data, norm.eps, pool, out=out)

        layer_norm(model.embedding_norm, x, y)
        x, y = y, x

        blk = pool.take("blk", (tokens, d), dtype)
        # Float32 [CLS]-only tail: the last layer's queries are the [CLS]
        # tokens alone, and only their rows run the rest of the layer.
        cut = len(layers) - 1 if dtype == np.float32 else None
        for index, layer in enumerate(layers):
            # x = x + out_proj(attention(norm1(x)))
            layer_norm(layer.norm1, x, blk)
            att = layer.attention
            params = (
                att.q_proj.weight.data, att.q_proj.bias.data,
                att.k_proj.weight.data, att.k_proj.bias.data,
                att.v_proj.weight.data, att.v_proj.bias.data,
            )
            if index == cut:
                rows = layout.rows
                merged = pool.take("cls_merged", (rows, d), dtype)
                ragged_cls_attention(blk, *params, layout, pool, out=merged)
                cls_x = pool.take("cls_x", (rows, d), dtype)
                np.take(x, layout.cls, axis=0, out=cls_x, mode="clip")
                x = cls_x
                blk = pool.take("cls_blk", (rows, d), dtype)
                y = pool.take("cls_res", (rows, d), dtype)
            else:
                merged = pool.take("att_merged", (tokens, d), dtype)
                ragged_attention(blk, *params, layout, pool, out=merged)
            ragged_matmul(merged, att.out_proj.weight.data, blk, layout)
            blk += att.out_proj.bias.data
            np.add(x, blk, out=y)
            x, y = y, x
            # x = x + ff_out(gelu(ff_in(norm2(x))))
            layer_norm(layer.norm2, x, blk)
            hidden = self._feed_forward(blk, layer, layout)
            ragged_matmul(hidden, layer.ff_out.weight.data, blk, layout)
            blk += layer.ff_out.bias.data
            np.add(x, blk, out=y)
            x, y = y, x

        layer_norm(model.encoder.final_norm, x, y)
        cls = y if cut is not None else y[layout.cls]
        keep = layout.rows
        if keep == 1 and dtype == np.float64:
            # Batch invariance: a 1-row head gemm takes another BLAS path.
            cls = np.concatenate([cls, cls], axis=0)
        head = classifier.head
        logits = cls @ head.weight.data
        logits += head.bias.data
        return logits[:keep]

    # ------------------------------------------------------------------
    # Feed-forward: ff_in, then the gelu replay
    # ------------------------------------------------------------------
    def _feed_forward(self, data, layer, layout):
        """``gelu(ff_in(data))`` into a pooled hidden buffer."""
        pool = self._pool
        d_ff = layer.ff_in.weight.data.shape[1]
        hidden = pool.take("ff_hidden", (data.shape[0], d_ff), data.dtype)
        ragged_matmul(data, layer.ff_in.weight.data, hidden, layout)
        hidden += layer.ff_in.bias.data
        # gelu(x) = 0.5 x (1 + tanh(C (x + 0.044715 x^3))); the cube is the
        # same (x * x) * x multiply chain as ``Tensor.gelu`` (NumPy's pow
        # loop would differ bitwise *and* run ~80x slower), everything after
        # runs in place on it via commutative ufuncs.
        inner = pool.take("ff_inner", hidden.shape, data.dtype)
        np.multiply(hidden, hidden, out=inner)
        inner *= hidden
        inner *= 0.044715
        inner += hidden
        inner *= _GELU_C
        np.tanh(inner, out=inner)
        inner += 1.0
        np.multiply(hidden, 0.5, out=hidden)
        np.multiply(hidden, inner, out=hidden)
        return hidden
