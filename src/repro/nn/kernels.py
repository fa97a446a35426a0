"""Fused, allocation-disciplined kernels for the `repro.nn` hot loops.

The composed reference paths (``MultiHeadAttention`` as six Tensor ops plus
softmax, ``LayerNorm`` as nine, ``cross_entropy`` as seven) are correct but
dominated by Python/autograd overhead: every intermediate allocates a fresh
array and a tape node.  The kernels here compute the same mathematics as one
tape node each, with three properties the differential harness
(`tests/test_nn_fused_equivalence.py`) enforces:

* **Bit-identical forwards.**  Each fused forward replays the exact NumPy
  op sequence of the composed path (same functions, same evaluation order,
  in-place only where IEEE semantics make it equivalent), so float64
  outputs — including eval logits — are bit-identical to the reference,
  not merely close.  The taping and no-tape forwards share one body.
* **Analytic single-pass backwards.**  The backward is the closed-form VJP
  of the whole block.  It is mathematically exact (numeric gradcheck in
  `tests/test_gradcheck.py`) but may differ from the composed backward in
  the last ulp because additions associate differently; training curves
  remain loss-for-loss identical at ``assert_allclose`` default tolerance.
* **Scratch reuse.**  Temporaries that the backward never needs come from a
  :class:`ScratchPool`: one flat buffer per ``(slot, dtype)``, grown to the
  largest request and handed out as prefix views, so once the widest batch
  has run the pool stops allocating (``scratch_allocations()`` is sampled
  by the trainer per step and gated in E14).  Arrays that outlive the
  call — graph outputs and saved residuals — are always freshly allocated,
  so models that run forward more than once per step (e.g. MLM + NSP) can
  never clobber a pending backward.

Dtype discipline: every kernel computes in the dtype of its input (scalars
enter as Python floats, which NumPy treats as weak — no silent float64
upcast), so the same code path serves float64 and float32 models.

The no-tape forward kernels (:func:`eval_layer_norm`,
:func:`eval_attention`, :func:`eval_matmul`) are the one place the numeric
policy (:mod:`repro.nn.numeric`) picks a kernel by dtype; the fused modules
without a tape and the serving fast path (:mod:`repro.core.fastpath`) both
call them.  Float64 runs the bit-exact replay.  Bit-identical replay pins
the accumulation order, which also pins the BLAS call shapes — batched
attention dispatches ``batch * heads`` tiny gemms and last-axis ufunc
reductions run far slower than an equivalent gemv — so under the
relaxed-ulp policy float32 reassociates instead: the packed kernels
(:func:`eval_attention_packed`, :func:`eval_layer_norm_packed`) run one
``(b*s, d) @ (d, 3d)`` gemm for all three QKV projections, head-packed
contiguous ``(b*h, s, ·)`` 3D gemms for scores and context, and
gemv-against-ones for the softmax/layernorm reductions, and projections
fold the batch into one 2D gemm.
"""

from __future__ import annotations

import functools
import math
import time

import numpy as np

from .autograd import Tensor, is_grad_enabled

__all__ = [
    "ScratchPool",
    "scratch_allocations",
    "KernelProfiler",
    "enable_kernel_profiling",
    "disable_kernel_profiling",
    "kernel_profiler",
    "fused_layer_norm",
    "fused_attention",
    "fused_cross_entropy",
    "fused_masked_cross_entropy",
    "eval_layer_norm",
    "eval_attention",
    "eval_matmul",
    "eval_layer_norm_packed",
    "eval_attention_packed",
]


# ----------------------------------------------------------------------
# Kernel profiling hooks (process-global, off by default)
# ----------------------------------------------------------------------

# The active profiler, or None (the default).  Every hook site is one
# global load plus an `is not None` check, so the disabled state costs
# nothing measurable against the gemms the kernels dispatch — the
# zero-overhead-off invariant docs/OBSERVABILITY.md documents and the E14
# `train_step`/`forward_latency` gates enforce.
_PROFILER = None


class KernelProfiler:
    """Per-kernel call counts and wall time, plus scratch-pool accounting.

    Surfaces through a :class:`repro.obs.metrics.MetricsRegistry` (its own
    by default, or one passed in so serving/training metrics and kernel
    profiles share a single registry):

    * ``kernel.<name>.calls`` / ``kernel.<name>.wall_s`` — one counter pair
      per fused or packed kernel entry point; backward passes profile
      separately as ``<name>.backward``.  Nested kernels (the float32 eval
      dispatch runs ``eval_attention_packed`` inside ``fused_attention``)
      each record their own wall time.
    * ``kernel.pool.hits`` / ``misses`` / ``bytes_served`` /
      ``bytes_allocated`` — :class:`ScratchPool` behavior; a warmed-up
      steady state shows hits accumulating while misses stay flat.

    Profiling observes values only — it never changes what a kernel
    computes, so enabling it cannot perturb any bit-identity contract.
    """

    def __init__(self, registry=None, clock=time.perf_counter):
        if registry is None:
            from ..obs.metrics import MetricsRegistry

            registry = MetricsRegistry()
        self.registry = registry
        self.clock = clock
        self._pool_hits = registry.counter("kernel.pool.hits")
        self._pool_misses = registry.counter("kernel.pool.misses")
        self._pool_served = registry.counter("kernel.pool.bytes_served")
        self._pool_allocated = registry.counter("kernel.pool.bytes_allocated")

    def record(self, name: str, seconds: float) -> None:
        self.registry.counter(f"kernel.{name}.calls").inc()
        self.registry.counter(f"kernel.{name}.wall_s").inc(seconds)

    def pool_hit(self, nbytes: int) -> None:
        self._pool_hits.inc()
        self._pool_served.inc(nbytes)

    def pool_miss(self, nbytes: int) -> None:
        self._pool_misses.inc()
        self._pool_allocated.inc(nbytes)

    def snapshot(self) -> dict:
        """``{"pool": {...}, "kernels": {name: {calls, wall_ms}}}``."""
        kernels: dict[str, dict] = {}
        for name, metric in self.registry.select("kernel.").items():
            if name.startswith("kernel.pool."):
                continue
            base, field = name[len("kernel."):].rsplit(".", 1)
            entry = kernels.setdefault(base, {"calls": 0, "wall_ms": 0.0})
            if field == "calls":
                entry["calls"] = int(metric.value)
            elif field == "wall_s":
                entry["wall_ms"] = float(metric.value) * 1000.0
        return {
            "pool": {
                "hits": int(self._pool_hits.value),
                "misses": int(self._pool_misses.value),
                "bytes_served": int(self._pool_served.value),
                "bytes_allocated": int(self._pool_allocated.value),
            },
            "kernels": dict(sorted(kernels.items())),
        }


def enable_kernel_profiling(registry=None, clock=time.perf_counter) -> KernelProfiler:
    """Install (and return) a process-global :class:`KernelProfiler`."""
    global _PROFILER
    _PROFILER = KernelProfiler(registry=registry, clock=clock)
    return _PROFILER


def disable_kernel_profiling() -> "KernelProfiler | None":
    """Remove the active profiler; returns it (for a final snapshot)."""
    global _PROFILER
    profiler, _PROFILER = _PROFILER, None
    return profiler


def kernel_profiler() -> "KernelProfiler | None":
    """The active process-global profiler, or ``None`` (the default)."""
    return _PROFILER


def _profiled(name: str):
    """Wrap a kernel entry point with the (default-off) profiling hook."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            profiler = _PROFILER
            if profiler is None:
                return fn(*args, **kwargs)
            t0 = profiler.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                profiler.record(name, profiler.clock() - t0)

        return wrapper

    return decorate


# Count of scratch buffers allocated (pool misses) since process start.
# Steady-state training/serving stops incrementing this once each slot has
# served its largest request.
_POOL_ALLOCS = 0


def scratch_allocations() -> int:
    """Total number of scratch-pool buffer allocations so far."""
    return _POOL_ALLOCS


class ScratchPool:
    """Scratch buffers keyed by ``(slot, dtype)``, grown to the largest request.

    Each call site names its buffer with a ``slot`` string.  A slot owns one
    flat buffer; a request gets a reshaped view of its prefix, and a larger
    request replaces the buffer.  Memory is therefore the largest request's,
    not the sum over every shape the slot has served, so batches of many
    widths (packed training, serving length buckets) hold one set of
    temporaries.  A buffer handed out here is valid only until the next
    request of its slot on the same pool: it must never escape the kernel
    call that requested it (a VJP may return one, since ``backward()``
    copies every returned gradient before the next node runs).
    """

    __slots__ = ("_buffers",)

    def __init__(self) -> None:
        self._buffers: dict = {}

    def take(self, slot: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        global _POOL_ALLOCS
        dtype = np.dtype(dtype)
        size = math.prod(shape)
        key = (slot, dtype.char)
        buf = self._buffers.get(key)
        profiler = _PROFILER
        if buf is None or buf.size < size:
            _POOL_ALLOCS += 1
            buf = self._buffers[key] = np.empty(size, dtype=dtype)
            if profiler is not None:
                profiler.pool_miss(buf.nbytes)
        elif profiler is not None:
            profiler.pool_hit(size * dtype.itemsize)
        return buf[:size].reshape(shape)

    def __deepcopy__(self, memo):
        # Scratch contents are never reused across calls; deep-copied
        # models start with an empty pool.
        return type(self)()


# ----------------------------------------------------------------------
# Fused LayerNorm
# ----------------------------------------------------------------------

@_profiled("layer_norm.backward")
def _vjp_layer_norm(grad, parents, saved):
    # Backward temporaries come from the module's scratch pool (slots are
    # disjoint from the forward's, and ``_add_grad`` copies every returned
    # gradient before the next tape node runs, so pooled outputs are safe).
    # The op order matches the textbook expression exactly; in-place chaining
    # only, so values are bitwise unchanged.
    x, gamma, beta = parents
    xhat, rstd, pool = saved
    grad = np.asarray(grad)
    d = xhat.shape[-1]
    stat_shape = xhat.shape[:-1] + (1,)
    work = pool.take("lnb_work", xhat.shape, xhat.dtype)
    gx = None
    if x.requires_grad:
        gxhat = pool.take("lnb_gxhat", xhat.shape, xhat.dtype)
        np.multiply(grad, gamma.data, out=gxhat)
        m1 = pool.take("lnb_m1", stat_shape, xhat.dtype)
        np.mean(gxhat, axis=-1, keepdims=True, out=m1)
        np.multiply(gxhat, xhat, out=work)
        m2 = pool.take("lnb_m2", stat_shape, xhat.dtype)
        np.mean(work, axis=-1, keepdims=True, out=m2)
        np.subtract(gxhat, m1, out=gxhat)
        np.multiply(xhat, m2, out=work)
        np.subtract(gxhat, work, out=gxhat)
        np.multiply(rstd, gxhat, out=gxhat)
        gx = gxhat
    ggamma = None
    if gamma.requires_grad:
        np.multiply(grad, xhat, out=work)
        ggamma = work.reshape(-1, d).sum(axis=0)
    gbeta = None
    if beta.requires_grad:
        gbeta = grad.reshape(-1, d).sum(axis=0)
    return gx, ggamma, gbeta


def _layer_norm_stats(data: np.ndarray, eps: float, pool: ScratchPool) -> tuple:
    """The bit-exact LayerNorm statistics: ``(centered, (var + eps) ** 0.5)``.

    Replays the composed op order exactly — mean as ``sum * (1/d)``,
    variance of the centered values.  ``centered`` is a pooled buffer.
    """
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
    # ndarray ** 0.5, not np.power-with-out: the operator is what the
    # composed path runs, and NumPy's scalar-exponent fast paths may
    # round differently from the general power loop.
    return centered, var ** 0.5


@_profiled("layer_norm")
def fused_layer_norm(
    x: Tensor, gamma: Tensor, beta: Tensor, eps: float, pool: ScratchPool
) -> Tensor:
    """LayerNorm over the last axis as a single tape node.

    Forward replays the composed op order exactly (normalization by
    *division* with the ``(var + eps) ** 0.5`` of :func:`_layer_norm_stats`),
    so outputs are bit-identical to the reference ``LayerNorm``.  The
    inverse std is saved for the analytic backward.  Without a tape this is
    :func:`eval_layer_norm`.
    """
    taping = is_grad_enabled() and any(t.requires_grad for t in (x, gamma, beta))
    if not taping:
        out = eval_layer_norm(x.data, gamma.data, beta.data, eps, pool)
        return Tensor._make(out, False)
    centered, denom = _layer_norm_stats(x.data, eps, pool)
    xhat = centered / denom
    out = xhat * gamma.data
    out += beta.data
    rstd = 1.0 / denom
    return Tensor._result(out, (x, gamma, beta), _vjp_layer_norm, (xhat, rstd, pool))


# ----------------------------------------------------------------------
# Fused multi-head attention (QKV projection + SDPA + softmax)
# ----------------------------------------------------------------------

@_profiled("attention.backward")
def _vjp_attention(grad, parents, saved):
    # The backward is the hottest kernel in a train step and its
    # temporaries are (batch, heads, seq, seq)-sized, so they come from the
    # module's scratch pool ("attb_*" slots, disjoint from the forward's).
    # Pooled outputs are safe: ``_add_grad`` copies every returned gradient
    # before the next tape node can reuse the slot.  The op order matches
    # the original out-of-place expressions exactly, so values are bitwise
    # unchanged.
    x, wq, bq, wk, bk, wv, bv = parents
    q4, k4, v4, weights, scale, pool = saved
    b, h, s, dh = q4.shape
    d = h * dh
    dt = q4.dtype
    grad = np.asarray(grad)

    g4 = grad.reshape(b, s, h, dh).transpose(0, 2, 1, 3)
    gweights = pool.take("attb_gweights", (b, h, s, s), dt)
    np.matmul(g4, np.swapaxes(v4, -1, -2), out=gweights)
    gv4 = pool.take("attb_gv4", (b, h, s, dh), dt)
    np.matmul(np.swapaxes(weights, -1, -2), g4, out=gv4)
    # Softmax backward; rows fully masked out have weights == 0, so their
    # score gradient vanishes without consulting the mask.
    gscores = pool.take("attb_gscores", (b, h, s, s), dt)
    np.multiply(gweights, weights, out=gscores)
    gsum = pool.take("attb_gsum", (b, h, s, 1), dt)
    np.sum(gscores, axis=-1, keepdims=True, out=gsum)
    np.subtract(gweights, gsum, out=gweights)
    np.multiply(weights, gweights, out=gscores)
    gscores *= scale
    gq4 = pool.take("attb_gq4", (b, h, s, dh), dt)
    np.matmul(gscores, k4, out=gq4)
    gk4 = pool.take("attb_gk4", (b, h, s, dh), dt)
    np.matmul(np.swapaxes(gscores, -1, -2), q4, out=gk4)

    def merge(slot: str, batched: np.ndarray) -> np.ndarray:
        out = pool.take(slot, (b, s, d), dt)
        np.copyto(out.reshape(b, s, h, dh), batched.transpose(0, 2, 1, 3))
        return out

    gq = merge("attb_gq", gq4)
    gk = merge("attb_gk", gk4)
    gv = merge("attb_gv", gv4)

    gx = None
    if x.requires_grad:
        gx = pool.take("attb_gx", (b, s, d), dt)
        np.matmul(gq, wq.data.T, out=gx)
        addend = pool.take("attb_gx_addend", (b, s, d), dt)
        np.matmul(gk, wk.data.T, out=addend)
        gx += addend
        np.matmul(gv, wv.data.T, out=addend)
        gx += addend
    x2 = x.data.reshape(b * s, d)
    gwq = x2.T @ gq.reshape(b * s, d) if wq.requires_grad else None
    gwk = x2.T @ gk.reshape(b * s, d) if wk.requires_grad else None
    gwv = x2.T @ gv.reshape(b * s, d) if wv.requires_grad else None
    gbq = gq.sum(axis=(0, 1)) if bq.requires_grad else None
    gbk = gk.sum(axis=(0, 1)) if bk.requires_grad else None
    gbv = gv.sum(axis=(0, 1)) if bv.requires_grad else None
    return gx, gwq, gbq, gwk, gbk, gwv, gbv


def _attention_forward(data, params, num_heads, mask, pool, taping, out=None):
    """The bit-exact QKV + SDPA forward, mirroring the composed path op for op.

    ``params`` is the ``(wq, bq, wk, bk, wv, bv)`` arrays.  Returns
    ``(merged context, attention weights, saved)`` where ``saved`` is the
    backward's residual tuple.  When taping, the Q/K/V activations and
    softmax weights are freshly allocated (the backward keeps them);
    otherwise every intermediate lives in the scratch pool.
    """
    wq, bq, wk, bk, wv, bv = params
    b, s, d = data.shape
    h = num_heads
    dh = d // h
    scale = 1.0 / float(np.sqrt(dh))
    dt = data.dtype

    def take(slot: str, shape: tuple[int, ...]) -> np.ndarray:
        return np.empty(shape, dt) if taping else pool.take(slot, shape, dt)

    def project(slot: str, w: np.ndarray, bias: np.ndarray) -> np.ndarray:
        proj = take(slot, (b, s, d))
        np.matmul(data, w, out=proj)
        proj += bias
        return proj.reshape(b, s, h, dh).transpose(0, 2, 1, 3)

    q4 = project("att_q", wq, bq)
    k4 = project("att_k", wk, bk)
    v4 = project("att_v", wv, bv)

    scores = take("att_scores", (b, h, s, s))
    np.matmul(q4, np.swapaxes(k4, -1, -2), out=scores)
    scores *= scale
    if mask is not None:
        np.copyto(scores, -1e9, where=mask)

    stat_shape = (b, h, s, 1)
    mx = pool.take("att_max", stat_shape, dt)
    np.max(scores, axis=-1, keepdims=True, out=mx)
    np.subtract(scores, mx, out=scores)
    np.exp(scores, out=scores)
    denom = pool.take("att_denom", stat_shape, dt)
    np.sum(scores, axis=-1, keepdims=True, out=denom)
    np.divide(scores, denom, out=scores)
    weights = scores

    ctx = pool.take("att_ctx", (b, h, s, dh), dt)
    np.matmul(weights, v4, out=ctx)
    if out is None:
        out = np.empty((b, s, d), dt)
    np.copyto(out.reshape(b, s, h, dh), ctx.transpose(0, 2, 1, 3))
    return out, weights, (q4, k4, v4, weights, scale, pool)


@_profiled("attention")
def fused_attention(
    x: Tensor,
    wq: Tensor, bq: Tensor,
    wk: Tensor, bk: Tensor,
    wv: Tensor, bv: Tensor,
    num_heads: int,
    mask: np.ndarray | None,
    pool: ScratchPool,
) -> tuple[Tensor, np.ndarray]:
    """QKV projection + scaled dot-product attention as one tape node.

    Returns the merged ``(batch, seq, d_model)`` context (before the output
    projection, which stays a composed ``Linear``) and the attention
    weights array for recording.  The taping forward is
    :func:`_attention_forward`; without a tape this is
    :func:`eval_attention`.
    """
    parents = (x, wq, bq, wk, bk, wv, bv)
    params = tuple(t.data for t in parents[1:])
    if not (is_grad_enabled() and any(t.requires_grad for t in parents)):
        merged, weights = eval_attention(x.data, *params, num_heads, mask, pool)
        return Tensor._make(merged, False), weights
    merged, weights, saved = _attention_forward(x.data, params, num_heads, mask, pool, True)
    return Tensor._result(merged, parents, _vjp_attention, saved), weights


# ----------------------------------------------------------------------
# No-tape eval kernels: one dtype dispatch under the numeric policy
# ----------------------------------------------------------------------

def eval_layer_norm(
    data: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float,
    pool: ScratchPool, out: np.ndarray | None = None,
) -> np.ndarray:
    """No-tape LayerNorm over the last axis, into ``out`` (fresh if ``None``).

    Float32 runs :func:`eval_layer_norm_packed` (relaxed-ulp policy);
    float64 replays the composed op order bit for bit.
    """
    if data.dtype == np.float32:
        return eval_layer_norm_packed(data, gamma, beta, eps, pool, out=out)
    centered, denom = _layer_norm_stats(data, eps, pool)
    np.divide(centered, denom, out=centered)
    if out is None:
        out = np.empty(data.shape, data.dtype)
    np.multiply(centered, gamma, out=out)
    out += beta
    return out


def eval_attention(
    data: np.ndarray,
    wq: np.ndarray, bq: np.ndarray,
    wk: np.ndarray, bk: np.ndarray,
    wv: np.ndarray, bv: np.ndarray,
    num_heads: int,
    mask: np.ndarray | None,
    pool: ScratchPool,
    out: np.ndarray | None = None,
    need_weights: bool = True,
) -> tuple[np.ndarray, np.ndarray | None]:
    """No-tape QKV + SDPA: ``(merged context, attention weights)``.

    Float32 runs :func:`eval_attention_packed` (relaxed-ulp policy);
    float64 runs the bit-exact :func:`_attention_forward`, which always
    normalizes the score matrix (those bits are its contract), so there
    ``need_weights=False`` only drops the weights from the result.  The
    weights are a pooled view, valid until the next call on ``pool``.
    """
    if data.dtype == np.float32:
        return eval_attention_packed(
            data, wq, bq, wk, bk, wv, bv, num_heads, mask, pool,
            out=out, need_weights=need_weights,
        )
    params = (wq, bq, wk, bk, wv, bv)
    merged, weights, _ = _attention_forward(data, params, num_heads, mask, pool, False, out)
    return merged, weights if need_weights else None


def eval_matmul(src: np.ndarray, weight: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``src @ weight -> out`` for ``(b, s, ·)`` activations.

    Float32 folds the batch into the rows so BLAS runs one large gemm
    instead of ``b`` small ones; float64 keeps the 3D matmul the composed
    path runs, bit for bit.
    """
    if src.dtype == np.float32:
        rows = src.shape[0] * src.shape[1]
        np.matmul(src.reshape(rows, -1), weight, out=out.reshape(rows, -1))
    else:
        np.matmul(src, weight, out=out)
    return out


# ----------------------------------------------------------------------
# Packed eval kernels (the relaxed-ulp float32 serving path)
# ----------------------------------------------------------------------

def _ones(pool: ScratchPool, n: int, dtype) -> np.ndarray:
    """A pooled all-ones vector (the gemv reduction operand)."""
    ones = pool.take("ones", (n,), dtype)
    ones.fill(1.0)
    return ones


@_profiled("layer_norm_packed")
def eval_layer_norm_packed(
    data: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float,
    pool: ScratchPool, out: np.ndarray | None = None,
) -> np.ndarray:
    """LayerNorm with gemv-against-ones reductions (relaxed-ulp policy).

    Same mathematics as the composed path, but the mean and sum-of-squares
    reductions run as one ``(rows, d) @ (d,)`` gemv each — far faster than
    NumPy's last-axis pairwise sum, and associating differently, which is
    why this path is only reachable from float32 eval forwards where the
    documented-ulp contract (:mod:`repro.nn.numeric`) allows reassociation.
    """
    d = data.shape[-1]
    rows = data.size // max(d, 1)
    inv_d = 1.0 / max(d, 1)
    dt = data.dtype
    flat = data.reshape(rows, d)
    ones = _ones(pool, d, dt)
    stats = pool.take("lnp_stats", (2, rows), dt)
    mean, var = stats[0], stats[1]
    np.matmul(flat, ones, out=mean)
    mean *= inv_d
    centered = pool.take("lnp_centered", (rows, d), dt)
    np.subtract(flat, mean[:, None], out=centered)
    sq = pool.take("lnp_sq", (rows, d), dt)
    np.multiply(centered, centered, out=sq)
    np.matmul(sq, ones, out=var)
    var *= inv_d
    var += eps
    np.sqrt(var, out=var)
    if out is None:
        out = np.empty(data.shape, dt)
    flat_out = out.reshape(rows, d)
    np.divide(centered, var[:, None], out=centered)
    np.multiply(centered, gamma, out=flat_out)
    flat_out += beta
    return out


@_profiled("attention_packed")
def eval_attention_packed(
    data: np.ndarray,
    wq: np.ndarray, bq: np.ndarray,
    wk: np.ndarray, bk: np.ndarray,
    wv: np.ndarray, bv: np.ndarray,
    num_heads: int,
    mask: np.ndarray | None,
    pool: ScratchPool,
    out: np.ndarray | None = None,
    need_weights: bool = True,
) -> tuple[np.ndarray, np.ndarray | None]:
    """QKV + SDPA with head-packed gemms (relaxed-ulp policy).

    BLAS sees a few large matrices instead of ``3 + 2 * b * h`` tiny ones:
    the three projections run as ``(b*s, d) @ (d, d)`` gemms into one
    pooled buffer, Q/K/V are repacked head-major (the bias added in the
    same pass) so the score and context matmuls are contiguous
    ``(b*h, s, ·)`` batched gemms, and the softmax denominator is a single
    ``(b*h*s, s) @ (s,)`` gemv.  Three more reassociations keep the
    elementwise passes off the big ``(b*h, s, s)`` score matrix: the
    ``1/sqrt(dh)`` scale is folded into Q before the score gemm, the
    softmax stabilizer is a single flat max (NumPy's all-axes reduction is
    SIMD-vectorized while the per-row one is not) guarded by a spread
    check that falls back to exact per-row maxima, and with
    ``need_weights=False`` the softmax division moves to the 8x-smaller
    context matrix (``ctx / denom == (exp / denom) @ v`` in real
    arithmetic).  Returns ``(merged context, attention weights)``; the
    weights are a pooled ``(b, h, s, s)`` view, valid until the next call
    on the same pool — or ``None`` with ``need_weights=False``, where the
    normalized weights are never materialized.
    """
    b, s, d = data.shape
    h = num_heads
    dh = d // h
    scale = 1.0 / float(np.sqrt(dh))
    dt = data.dtype

    # Projections: three (b*s, d) gemms into one pooled buffer, reading
    # the live weight arrays (the fast path's no-invalidation contract).
    x2 = data.reshape(b * s, d)
    qkv = pool.take("attp_qkv", (3, b * s, d), dt)
    # Head-major repack with the bias add: (b, s, h, dh) -> (b*h, s, dh)
    # per projection, so the batched gemms below run over contiguous 2D
    # slices instead of the strided transpose views the bit-exact path
    # hands to matmul.
    packed = pool.take("attp_packed", (3, b * h, s, dh), dt)
    for i, (weight, bias) in enumerate(((wq, bq), (wk, bk), (wv, bv))):
        np.matmul(x2, weight, out=qkv[i])
        np.add(
            qkv[i].reshape(b, s, h, dh).transpose(0, 2, 1, 3),
            bias.reshape(h, 1, dh),
            out=packed[i].reshape(b, h, s, dh),
        )
    q3, k3, v3 = packed[0], packed[1], packed[2]
    q3 *= scale  # fold the score scale into Q: s*dh elements, not s*s

    scores = pool.take("attp_scores", (b * h, s, s), dt)
    np.matmul(q3, k3.transpose(0, 2, 1), out=scores)
    raw = scores.reshape(b, h, s, s)
    if mask is not None:
        np.copyto(raw, -1e9, where=mask)
    # Softmax stabilizer.  Softmax is shift-invariant, so any per-row-or-
    # larger shift near the maximum works; the flat all-axes max is ~17x
    # faster than NumPy's per-row reduction at serving shapes.  It is only
    # safe while every row's own maximum stays within exp's float range of
    # the global one — guarded by the spread check (rows further than 60
    # below the shift would push exp toward the subnormal floor), which
    # falls back to exact per-row maxima (always, under a mask: the -1e9
    # fill floors the global minimum).
    stable = False
    if mask is None:
        gmax = float(scores.max())
        gmin = float(scores.min())
        stable = gmax - gmin < 60.0  # False for NaN/inf spreads too
    if stable:
        scores -= dt.type(gmax)
    else:
        mx = pool.take("attp_max", (b * h, s, 1), dt)
        np.max(scores, axis=-1, keepdims=True, out=mx)
        np.subtract(scores, mx, out=scores)
    np.exp(scores, out=scores)
    denom = pool.take("attp_denom", (b * h * s,), dt)
    np.matmul(scores.reshape(b * h * s, s), _ones(pool, s, dt), out=denom)
    weights = None
    if need_weights:
        scores /= denom.reshape(b * h, s, 1)
        weights = scores.reshape(b, h, s, s)

    ctx = pool.take("attp_ctx", (b * h, s, dh), dt)
    np.matmul(scores, v3, out=ctx)
    if not need_weights:
        # Normalize the context instead of the score matrix: same real
        # arithmetic, dh columns instead of s.
        ctx /= denom.reshape(b * h, s, 1)
    if out is None:
        out = np.empty((b, s, d), dt)
    np.copyto(out.reshape(b, s, h, dh), ctx.reshape(b, h, s, dh).transpose(0, 2, 1, 3))
    return out, weights


# ----------------------------------------------------------------------
# Fused cross-entropy (log-softmax + NLL in one node)
# ----------------------------------------------------------------------

def _softmax_from_saved(exp_shifted: np.ndarray, sum_exp: np.ndarray) -> np.ndarray:
    return exp_shifted / sum_exp


@_profiled("cross_entropy.backward")
def _vjp_cross_entropy(grad, parents, saved):
    (logits,) = parents
    exp_shifted, sum_exp, targets, label_smoothing = saved
    n, c = exp_shifted.shape
    scale = float(np.asarray(grad)) * (1.0 / max(n, 1))
    glogits = _softmax_from_saved(exp_shifted, sum_exp)
    glogits *= scale
    if label_smoothing > 0.0:
        glogits -= scale * (label_smoothing / c)
        glogits[np.arange(n), targets] -= scale * (1.0 - label_smoothing)
    else:
        glogits[np.arange(n), targets] -= scale
    return (glogits,)


def _cross_entropy_forward(
    logits_data: np.ndarray, targets: np.ndarray, label_smoothing: float
):
    """Shared forward: returns (loss value, exp_shifted, sum_exp)."""
    n, c = logits_data.shape
    mx = logits_data.max(axis=-1, keepdims=True)
    shifted = logits_data - mx
    exp_shifted = np.exp(shifted)
    sum_exp = exp_shifted.sum(axis=-1, keepdims=True)
    log_probs = shifted - np.log(sum_exp)
    if label_smoothing > 0.0:
        one_hot = np.zeros((n, c), dtype=logits_data.dtype)
        one_hot[np.arange(n), targets] = 1.0
        one_hot = one_hot * (1.0 - label_smoothing) + label_smoothing / c
        per_example = (log_probs * one_hot).sum(axis=-1)
    else:
        per_example = log_probs[np.arange(n), targets]
    loss = -(per_example.sum() * (1.0 / max(n, 1)))
    return loss, exp_shifted, sum_exp


@_profiled("cross_entropy")
def fused_cross_entropy(
    logits, targets: np.ndarray, label_smoothing: float = 0.0
) -> Tensor:
    """Drop-in fused variant of :func:`repro.nn.losses.cross_entropy`.

    The loss value is bit-identical to the composed path (the mostly-zero
    one-hot reduction collapses to an exact gather); the backward writes
    ``(softmax - target)/n`` directly instead of walking seven nodes.
    """
    from .autograd import as_tensor

    logits = as_tensor(logits)
    targets = np.asarray(targets, dtype=np.int64)
    if logits.ndim != 2:
        raise ValueError(f"expected logits of shape (N, C), got {logits.shape}")
    if targets.shape[0] != logits.shape[0]:
        raise ValueError("logits and targets disagree on batch size")
    loss, exp_shifted, sum_exp = _cross_entropy_forward(
        logits.data, targets, label_smoothing
    )
    return Tensor._result(
        np.asarray(loss),
        (logits,),
        _vjp_cross_entropy,
        (exp_shifted, sum_exp, targets, label_smoothing),
    )


@_profiled("masked_cross_entropy.backward")
def _vjp_masked_cross_entropy(grad, parents, saved):
    (logits,) = parents
    exp_shifted, sum_exp, targets, indices, shape = saved
    n = exp_shifted.shape[0]
    scale = float(np.asarray(grad)) * (1.0 / max(n, 1))
    gsel = _softmax_from_saved(exp_shifted, sum_exp)
    gsel *= scale
    gsel[np.arange(n), targets] -= scale
    full = np.zeros(shape, dtype=exp_shifted.dtype)
    # Masked positions are unique, so a direct scatter replaces the
    # composed path's np.add.at over the full (batch*seq, vocab) buffer.
    full.reshape(-1, shape[-1])[indices] = gsel
    return (full,)


@_profiled("masked_cross_entropy")
def fused_masked_cross_entropy(logits, targets: np.ndarray, mask: np.ndarray) -> Tensor:
    """Drop-in fused variant of :func:`repro.nn.losses.masked_cross_entropy`."""
    from .autograd import as_tensor

    logits = as_tensor(logits)
    targets = np.asarray(targets, dtype=np.int64)
    mask = np.asarray(mask, dtype=bool)
    if mask.sum() == 0:
        return Tensor(np.zeros(()), requires_grad=False)
    batch, seq, vocab = logits.shape
    flat_mask = mask.reshape(-1)
    indices = np.nonzero(flat_mask)[0]
    selected = logits.data.reshape(batch * seq, vocab)[indices]
    selected_targets = targets.reshape(-1)[indices]
    loss, exp_shifted, sum_exp = _cross_entropy_forward(selected, selected_targets, 0.0)
    return Tensor._result(
        np.asarray(loss),
        (logits,),
        _vjp_masked_cross_entropy,
        (exp_shifted, sum_exp, selected_targets, indices, logits.shape),
    )
