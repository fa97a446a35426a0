"""Tape-free eval forward for the fine-tuned classifier (the serving fast path).

:meth:`SequenceClassifier.predict_logits
<repro.core.finetuning.SequenceClassifier.predict_logits>` is the forward the
serving engine micro-batches over.  Running it through the module graph pays
for a tape node, a Python dispatch and a fresh array per op even under
``no_grad``; :class:`EvalForward` instead replays the *exact* NumPy op
sequence of the fused eval forward — same functions, same evaluation order,
in-place only where IEEE semantics make it equivalent (``var ** 0.5`` stays
the literal operator; the gelu cube is the same multiply chain as
``Tensor.gelu``) — over a
:class:`~repro.nn.kernels.GrowingScratchPool` of reused activation buffers
(one per slot, sized by the largest batch shape seen).  Logits
are therefore bit-identical to the module path, which the differential
harness (`tests/test_nn_fused_equivalence.py`) asserts.

Two serving contracts live here rather than in the engine:

* **Batch invariance.**  A 1-row forward takes a different BLAS path than
  the same row inside a >=2-row batch (gemv-shaped kernels, last-ulp
  drift).  ``EvalForward`` runs singleton chunks as a duplicated pair and
  keeps row 0, so a row's logits depend only on its own tokens and the
  forward width — never on how a stream happened to fill a bucket or where
  a chunk boundary fell.  (Previously the engine duplicated lone rows
  itself; the workaround now lives at the kernel layer where every caller
  gets it.)
* **Attention recording.**  Each layer's ``last_attention`` is written
  exactly as the module forward would, so attention rollout and the other
  interpretability consumers see identical maps.

Parameter arrays are re-read from the live modules on every call: fine-tune
further and the fast path serves the new weights with no invalidation step.

**Float32 serving builds take a different forward.**  Bit-identical replay
pins the accumulation order, which pins the BLAS call shapes — so a float32
build (``NetFMConfig.serve_dtype="float32"``, governed by the relaxed
documented-ulp policy of :mod:`repro.nn.numeric`) dispatches per chunk to
the packed kernels instead: one ``(b*s, d) @ (d, 3d)`` QKV gemm,
head-packed contiguous ``(b*h, s, ·)`` score/context gemms,
gemv-against-ones softmax/layernorm reductions
(:func:`~repro.nn.kernels.eval_attention_packed`,
:func:`~repro.nn.kernels.eval_layer_norm_packed`), and every remaining
``(b, s, ·) @ (·, ·)`` projection reshaped to a single 2D gemm.  Attention
recording holds for that path too; batch invariance does not: packed gemms
round differently per batch shape, so a float32 row's logits can move in
the last bits with the rows it is batched with.  Every packing stays within
the ``logits`` ulp budget of the float64 reference, which is the float32
contract.  Float64 keeps the bit-exact replay unchanged.
"""

from __future__ import annotations

import numpy as np

from ..nn.autograd import _GELU_C
from ..nn.kernels import GrowingScratchPool, eval_attention_packed, eval_layer_norm_packed

__all__ = ["EvalForward"]


class EvalForward:
    """Batched eval-mode ``token_ids -> logits`` for a ``SequenceClassifier``.

    Drop-in for the module-graph ``predict_logits`` loop (same chunking, same
    range checks, bit-identical logits) minus the autograd overhead.  Not a
    Module: it owns no parameters, only scratch buffers sized by the largest
    batch shape, and never touches the train/eval flags of the model it reads.
    """

    def __init__(self, classifier):
        self.classifier = classifier
        self._pool = GrowingScratchPool()

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def __call__(
        self, token_ids: np.ndarray, attention_mask: np.ndarray | None, batch_size: int = 64
    ) -> np.ndarray:
        classifier = self.classifier
        model = classifier.model
        token_ids = np.asarray(token_ids, dtype=np.int64)
        if len(token_ids) == 0:
            return np.zeros(
                (0, classifier.num_classes),
                dtype=model.token_embedding.weight.data.dtype,
            )
        n, seq = token_ids.shape
        if seq > model.config.max_len:
            raise ValueError(
                f"sequence length {seq} exceeds max_len {model.config.max_len}"
            )
        valid = None
        if attention_mask is not None:
            valid = np.asarray(attention_mask, dtype=bool)
        dtype = model.token_embedding.weight.data.dtype
        out = np.empty((n, classifier.num_classes), dtype=dtype)
        for start in range(0, n, batch_size):
            stop = min(start + batch_size, n)
            chunk_valid = valid[start:stop] if valid is not None else None
            out[start:stop] = self._forward_chunk(token_ids[start:stop], chunk_valid)
        return out

    # ------------------------------------------------------------------
    # One micro-batch
    # ------------------------------------------------------------------
    def _forward_chunk(self, ids: np.ndarray, valid: np.ndarray | None) -> np.ndarray:
        model = self.classifier.model
        pool = self._pool
        keep = ids.shape[0]
        # Batch-invariance: run a lone row as a duplicated pair (see module
        # docstring) and return only the first row's logits.
        if keep == 1:
            ids = np.concatenate([ids, ids], axis=0)
            if valid is not None:
                valid = np.concatenate([valid, valid], axis=0)

        token_table = model.token_embedding.weight.data
        if ids.size and (ids.min() < 0 or ids.max() >= token_table.shape[0]):
            raise IndexError(
                f"token id out of range [0, {token_table.shape[0]}): "
                f"min={ids.min()}, max={ids.max()}"
            )
        b, s = ids.shape
        d = token_table.shape[1]
        dtype = token_table.dtype
        # Float32 serving builds run the packed-gemm forward under the
        # relaxed-ulp policy; float64 keeps the bit-exact replay.
        packed = dtype == np.float32
        layer_norm = self._layer_norm_packed if packed else self._layer_norm

        # Embeddings: token gather + broadcast position add (same operand
        # pairs as the tiled-position composed path), then embedding norm.
        # Dropout layers are eval-mode no-ops and are skipped outright.
        x = pool.take("res0", (b, s, d), dtype)
        np.take(token_table, ids, axis=0, out=x)
        x += model.position_embedding.weight.data[:s]
        y = pool.take("res1", (b, s, d), dtype)
        norm = model.embedding_norm
        layer_norm(x, norm.gamma.data, norm.beta.data, norm.eps, y)
        x, y = y, x

        mask = None
        if valid is not None:
            mask = ~valid[:, None, None, :]

        # Attention-map recording costs a (batch, heads, seq, seq) copy per
        # layer — pure memcpy that serving never reads.  The classifier's
        # ``record_attention`` flag (default True, so interpretability
        # consumers keep working unchanged) lets a serving deployment skip
        # it; maps are then cleared, so a stale read fails loudly
        # (``attention_maps()`` returns ``[]``) instead of silently
        # returning a previous batch's weights.
        record = getattr(self.classifier, "record_attention", True)
        blk = pool.take("blk", (b, s, d), dtype)
        for layer in model.encoder.layers:
            # x = x + out_proj(attention(norm1(x)))
            norm = layer.norm1
            layer_norm(x, norm.gamma.data, norm.beta.data, norm.eps, blk)
            att = layer.attention
            if packed:
                merged = pool.take("att_merged", (b, s, d), dtype)
                merged, weights = eval_attention_packed(
                    blk,
                    att.q_proj.weight.data, att.q_proj.bias.data,
                    att.k_proj.weight.data, att.k_proj.bias.data,
                    att.v_proj.weight.data, att.v_proj.bias.data,
                    att.num_heads, mask, pool, out=merged,
                    need_weights=record,
                )
            else:
                merged, weights = self._attention(blk, att, mask)
            att.last_attention = weights[:keep].copy() if record else None
            self._matmul(merged, att.out_proj.weight.data, blk, packed)
            blk += att.out_proj.bias.data
            np.add(x, blk, out=y)
            x, y = y, x
            # x = x + ff_out(gelu(ff_in(norm2(x))))
            norm = layer.norm2
            layer_norm(x, norm.gamma.data, norm.beta.data, norm.eps, blk)
            hidden = self._feed_forward(blk, layer, packed)
            self._matmul(hidden, layer.ff_out.weight.data, blk, packed)
            blk += layer.ff_out.bias.data
            np.add(x, blk, out=y)
            x, y = y, x

        norm = model.encoder.final_norm
        layer_norm(x, norm.gamma.data, norm.beta.data, norm.eps, y)

        # [CLS] slice (a strided view, as in the module path) -> head.
        cls = y[:, 0, :]
        head = self.classifier.head
        logits = cls @ head.weight.data
        logits += head.bias.data
        return logits[:keep]

    # ------------------------------------------------------------------
    # Op replays (each mirrors its fused kernel / composed op bit for bit)
    # ------------------------------------------------------------------
    @staticmethod
    def _matmul(src, weight, out, packed: bool) -> None:
        """``src @ weight -> out`` for ``(b, s, ·)`` activations.

        The packed (float32) mode folds the batch into the rows so BLAS
        runs one large gemm instead of ``b`` small ones; the float64 mode
        keeps the 3D matmul the composed path runs, bit for bit.
        """
        if packed:
            rows = src.shape[0] * src.shape[1]
            np.matmul(src.reshape(rows, -1), weight, out=out.reshape(rows, -1))
        else:
            np.matmul(src, weight, out=out)

    def _layer_norm_packed(self, data, gamma, beta, eps, out) -> None:
        eval_layer_norm_packed(data, gamma, beta, eps, self._pool, out=out)

    def _layer_norm(self, data, gamma, beta, eps, out) -> None:
        pool = self._pool
        d = data.shape[-1]
        inv_d = 1.0 / max(d, 1)
        stat_shape = data.shape[:-1] + (1,)
        mean = pool.take("ln_mean", stat_shape, data.dtype)
        np.sum(data, axis=-1, keepdims=True, out=mean)
        mean *= inv_d
        centered = pool.take("ln_centered", data.shape, data.dtype)
        np.subtract(data, mean, out=centered)
        sq = pool.take("ln_sq", data.shape, data.dtype)
        np.multiply(centered, centered, out=sq)
        var = pool.take("ln_var", stat_shape, data.dtype)
        np.sum(sq, axis=-1, keepdims=True, out=var)
        var *= inv_d
        var += eps
        denom = var ** 0.5
        np.divide(centered, denom, out=centered)
        np.multiply(centered, gamma, out=out)
        out += beta

    def _attention(self, data, att, mask):
        """QKV + SDPA replay; returns (merged context, attention weights)."""
        pool = self._pool
        b, s, d = data.shape
        h = att.num_heads
        dh = d // h
        scale = 1.0 / float(np.sqrt(dh))

        def _project(slot, linear):
            out = pool.take(slot, (b, s, d), data.dtype)
            np.matmul(data, linear.weight.data, out=out)
            out += linear.bias.data
            return out

        q4 = _project("att_q", att.q_proj).reshape(b, s, h, dh).transpose(0, 2, 1, 3)
        k4 = _project("att_k", att.k_proj).reshape(b, s, h, dh).transpose(0, 2, 1, 3)
        v4 = _project("att_v", att.v_proj).reshape(b, s, h, dh).transpose(0, 2, 1, 3)

        scores = pool.take("att_scores", (b, h, s, s), data.dtype)
        np.matmul(q4, np.swapaxes(k4, -1, -2), out=scores)
        scores *= scale
        if mask is not None:
            np.copyto(scores, -1e9, where=mask)
        stat_shape = (b, h, s, 1)
        mx = pool.take("att_max", stat_shape, data.dtype)
        np.max(scores, axis=-1, keepdims=True, out=mx)
        np.subtract(scores, mx, out=scores)
        np.exp(scores, out=scores)
        denom = pool.take("att_denom", stat_shape, data.dtype)
        np.sum(scores, axis=-1, keepdims=True, out=denom)
        np.divide(scores, denom, out=scores)

        ctx = pool.take("att_ctx", (b, h, s, dh), data.dtype)
        np.matmul(scores, v4, out=ctx)
        merged = pool.take("att_merged", (b, s, d), data.dtype)
        np.copyto(merged.reshape(b, s, h, dh), ctx.transpose(0, 2, 1, 3))
        return merged, scores

    def _feed_forward(self, data, layer, packed: bool = False):
        """``gelu(ff_in(data))`` into a pooled hidden buffer."""
        pool = self._pool
        b, s, _ = data.shape
        d_ff = layer.ff_in.weight.data.shape[1]
        hidden = pool.take("ff_hidden", (b, s, d_ff), data.dtype)
        self._matmul(data, layer.ff_in.weight.data, hidden, packed)
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
