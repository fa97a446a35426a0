"""Tape-free eval forward for the fine-tuned classifier (the serving fast path).

:meth:`SequenceClassifier.predict_logits
<repro.core.finetuning.SequenceClassifier.predict_logits>` is the forward the
serving engine micro-batches over.  Running it through the module graph pays
for a tape node, a Python dispatch and a fresh array per op even under
``no_grad``; :class:`EvalForward` instead calls the no-tape kernels the fused
modules themselves run (:func:`~repro.nn.kernels.eval_layer_norm`,
:func:`~repro.nn.kernels.eval_attention`,
:func:`~repro.nn.kernels.eval_matmul`) over a
:class:`~repro.nn.kernels.ScratchPool` of reused activation buffers (one
per slot, sized by the largest batch shape seen).  Those kernels pick
the numeric policy by dtype: float64 replays the composed op sequence, so
logits are bit-identical to the module path (asserted by
`tests/test_nn_fused_equivalence.py`); float32 serving builds run the
packed kernels under the relaxed documented-ulp policy of
:mod:`repro.nn.numeric`.  The only op replayed here is gelu (the same
multiply chain as ``Tensor.gelu``).

Four serving contracts live here rather than in the engine or the kernels:

* **Batch invariance (float64).**  A 1-row forward takes a different BLAS
  path than the same row inside a >=2-row batch (gemv-shaped kernels,
  last-ulp drift).  ``EvalForward`` runs float64 singleton chunks as a
  duplicated pair and keeps row 0, so a float64 row's logits depend only
  on its own tokens and the forward width — never on how a stream happened
  to fill a bucket or where a chunk boundary fell.  Float32 packed gemms
  round differently per batch shape anyway, so a float32 row's logits can
  move in the last bits (within the ``logits`` ulp budget) with the rows
  it is batched with; a float32 singleton runs as one row, since pairing
  it would buy no guarantee.
* **[CLS]-only last layer (float32).**  The head reads only ``[CLS]``, so
  a float32 forward runs the last layer's attention over every position
  and then carries only the ``[CLS]`` rows through the rest of the layer,
  the final norm and the head, within the ``logits`` ulp budget.  Float64
  keeps the full forward: the cut would replace per-item ``(s, ·)``
  products by ``(b, ·)`` gemms, whose row bits depend on ``b`` at
  ``d_ff`` 512 on OpenBLAS (``docs/NN.md``).
* **Attention recording.**  Each layer's ``last_attention`` is written
  exactly as the module forward would, so attention rollout and the other
  interpretability consumers see identical maps.
* **Live parameters.**  Parameter arrays are re-read from the modules on
  every call: fine-tune further and the fast path serves the new weights
  with no invalidation step.
"""

from __future__ import annotations

import numpy as np

from ..nn.autograd import _GELU_C
from ..nn.kernels import ScratchPool, eval_attention, eval_layer_norm, eval_matmul

__all__ = ["EvalForward"]


class EvalForward:
    """Batched eval-mode ``token_ids -> logits`` for a ``SequenceClassifier``.

    Drop-in for the module-graph ``predict_logits`` loop (same chunking, same
    range checks, same kernels, so bit-identical float64 logits) minus the
    autograd overhead.  Not a
    Module: it owns no parameters, only scratch buffers sized by the largest
    batch shape, and never touches the train/eval flags of the model it reads.
    The classifier it serves is passed in on every call rather than stored,
    so the classifier that owns this object forms no reference cycle with
    it: dropping the classifier frees its scratch buffers at once, not at
    the next cyclic garbage collection.
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
        token_ids = np.asarray(token_ids, dtype=np.int64)
        dtype = model.token_embedding.weight.data.dtype
        if len(token_ids) == 0:
            return np.zeros((0, classifier.num_classes), dtype=dtype)
        n, seq = token_ids.shape
        if seq > model.config.max_len:
            raise ValueError(
                f"sequence length {seq} exceeds max_len {model.config.max_len}"
            )
        valid = None
        if attention_mask is not None:
            valid = np.asarray(attention_mask, dtype=bool)
        out = np.empty((n, classifier.num_classes), dtype=dtype)
        for start in range(0, n, batch_size):
            stop = min(start + batch_size, n)
            chunk_valid = valid[start:stop] if valid is not None else None
            out[start:stop] = self._forward_chunk(
                classifier, token_ids[start:stop], chunk_valid
            )
        return out

    # ------------------------------------------------------------------
    # One micro-batch
    # ------------------------------------------------------------------
    def _forward_chunk(
        self, classifier, ids: np.ndarray, valid: np.ndarray | None
    ) -> np.ndarray:
        model = classifier.model
        pool = self._pool
        keep = ids.shape[0]
        token_table = model.token_embedding.weight.data
        dtype = token_table.dtype
        # Float64 batch invariance: run a lone row as a duplicated pair (see
        # module docstring) and return only the first row's logits.
        if keep == 1 and dtype == np.float64:
            ids = np.concatenate([ids, ids], axis=0)
            if valid is not None:
                valid = np.concatenate([valid, valid], axis=0)

        if ids.size and (ids.min() < 0 or ids.max() >= token_table.shape[0]):
            raise IndexError(
                f"token id out of range [0, {token_table.shape[0]}): "
                f"min={ids.min()}, max={ids.max()}"
            )
        b, s = ids.shape
        d = token_table.shape[1]

        # Embeddings: token gather + broadcast position add (same operand
        # pairs as the tiled-position composed path), then embedding norm.
        # Dropout layers are eval-mode no-ops and are skipped outright.
        x = pool.take("res0", (b, s, d), dtype)
        np.take(token_table, ids, axis=0, out=x)
        x += model.position_embedding.weight.data[:s]
        y = pool.take("res1", (b, s, d), dtype)

        def layer_norm(norm, data, out):
            eval_layer_norm(data, norm.gamma.data, norm.beta.data, norm.eps, pool, out=out)

        layer_norm(model.embedding_norm, x, y)
        x, y = y, x

        mask = None if valid is None else ~valid[:, None, None, :]

        # Attention-map recording costs a (batch, heads, seq, seq) copy per
        # layer — pure memcpy that serving never reads.  The classifier's
        # ``record_attention`` flag (default True, so interpretability
        # consumers keep working unchanged) lets a serving deployment skip
        # it; maps are then cleared, so a stale read fails loudly
        # (``attention_maps()`` returns ``[]``) instead of silently
        # returning a previous batch's weights.
        record = classifier.record_attention
        blk = pool.take("blk", (b, s, d), dtype)
        layers = model.encoder.layers
        # Float32 [CLS]-only tail: after the last layer's attention (queries
        # and recorded maps over every position, as before) only the [CLS]
        # rows reach the head, so only they run the rest of the layer.
        cut = len(layers) - 1 if dtype == np.float32 else None
        for index, layer in enumerate(layers):
            # x = x + out_proj(attention(norm1(x)))
            layer_norm(layer.norm1, x, blk)
            att = layer.attention
            merged, weights = eval_attention(
                blk,
                att.q_proj.weight.data, att.q_proj.bias.data,
                att.k_proj.weight.data, att.k_proj.bias.data,
                att.v_proj.weight.data, att.v_proj.bias.data,
                att.num_heads, mask, pool,
                out=pool.take("att_merged", (b, s, d), dtype),
                need_weights=record,
            )
            att.last_attention = weights[:keep].copy() if record else None
            if index == cut:
                # (b, 1, d) [CLS] views in, contiguous (b, 1, d) buffers out:
                # after the two residual swaps the final norm writes into
                # "cls_res", which the 2-D gemm reshapes can view.
                merged, x = merged[:, :1], x[:, :1]
                blk = pool.take("cls_blk", (b, 1, d), dtype)
                y = pool.take("cls_res", (b, 1, d), dtype)
            eval_matmul(merged, att.out_proj.weight.data, blk)
            blk += att.out_proj.bias.data
            np.add(x, blk, out=y)
            x, y = y, x
            # x = x + ff_out(gelu(ff_in(norm2(x))))
            layer_norm(layer.norm2, x, blk)
            hidden = self._feed_forward(blk, layer)
            eval_matmul(hidden, layer.ff_out.weight.data, blk)
            blk += layer.ff_out.bias.data
            np.add(x, blk, out=y)
            x, y = y, x

        layer_norm(model.encoder.final_norm, x, y)

        # [CLS] slice (a strided view, as in the module path) -> head.
        cls = y[:, 0, :]
        head = classifier.head
        logits = cls @ head.weight.data
        logits += head.bias.data
        return logits[:keep]

    # ------------------------------------------------------------------
    # Feed-forward: ff_in, then the gelu replay
    # ------------------------------------------------------------------
    def _feed_forward(self, data, layer):
        """``gelu(ff_in(data))`` into a pooled hidden buffer."""
        pool = self._pool
        b, s, _ = data.shape
        d_ff = layer.ff_in.weight.data.shape[1]
        hidden = pool.take("ff_hidden", (b, s, d_ff), data.dtype)
        eval_matmul(data, layer.ff_in.weight.data, hidden)
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
