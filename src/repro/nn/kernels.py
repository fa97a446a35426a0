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

Without a tape, fused attention runs the same exact forward body with
every intermediate pooled, so module attention is bit-identical to the
composed path in float32 too.  The numeric policy
(:mod:`repro.nn.numeric`) picks a kernel by dtype in one place: the no-tape
layer norm (:func:`eval_layer_norm`) and the ragged serving kernels
(:func:`ragged_matmul`, :func:`ragged_attention`) that the serving fast
path (:mod:`repro.core.fastpath`) calls.  Float64 runs the bit-exact
replay.  Bit-identical replay pins the accumulation order, which also
pins the BLAS call shapes — batched attention dispatches ``batch * heads``
tiny gemms and last-axis ufunc reductions run far slower than an
equivalent gemv — so under the relaxed-ulp policy float32 reassociates
instead: :func:`eval_layer_norm_packed` reduces by gemv-against-ones, and
the ragged forward runs its projections as flat 2D gemms over every
token, in row blocks that keep a small model's gemms on the calling
thread, and its attention as head-packed score and context gemms with
one softmax pass over all of them.
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
    "eval_layer_norm_packed",
    "RaggedLayout",
    "ragged_matmul",
    "ragged_attention",
    "ragged_cls_attention",
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
      dispatch runs ``eval_layer_norm_packed`` inside ``fused_layer_norm``)
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
    weights array for recording.  Taped or not, and in every dtype, the
    forward is the exact replay :func:`_attention_forward` (its
    intermediates pooled without a tape), so the outputs are bit-identical
    to the composed path's.  The relaxed-ulp float32 attention is the
    ragged serving kernel's alone.
    """
    parents = (x, wq, bq, wk, bk, wv, bv)
    params = tuple(t.data for t in parents[1:])
    taping = is_grad_enabled() and any(t.requires_grad for t in parents)
    merged, weights, saved = _attention_forward(x.data, params, num_heads, mask, pool, taping)
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


# ----------------------------------------------------------------------
# Packed eval layer norm (the relaxed-ulp float32 path)
# ----------------------------------------------------------------------

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
    ones = pool.take("ones", (d,), dt)  # the gemv reduction operand
    ones.fill(1.0)
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


# ----------------------------------------------------------------------
# Ragged eval kernels (the serving forward over rows of mixed length)
# ----------------------------------------------------------------------

#: Multiply-adds per float32 gemm block in the ragged forward (see
#: :func:`_blocked_matmul`): under the size at which OpenBLAS 0.3.31
#: splits a gemm across threads, measured between 2^19 and 2^20.
_BLOCK_MACS = 1 << 19
#: Fewest rows worth a block: a weight too large for this many rows per
#: block runs one flat gemm (its gemms are threaded at every call size).
_BLOCK_MIN_ROWS = 64


def _blocked_matmul(src: np.ndarray, weight: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``src @ weight -> out`` for 2-D float32, in blocks of whole rows.

    A small model's gemms are single-threaded at tick sizes, and a flat
    gemm over a large chunk (the end-of-stream flush) is the first to
    cross the BLAS threading threshold.  That first threaded gemm can
    wake the BLAS worker onto the caller's core, and while the two share
    it every gemm costs a scheduler slice (7 ms instead of 0.05 ms:
    240 ms over the E14 flush forward, against 15 ms).  Blocks of at most
    :data:`_BLOCK_MACS` multiply-adds keep every call the size of a tick's,
    so a burst costs what its rows cost.  Rows are independent, so the
    blocks compute the flat gemm's rows, up to rounding (relaxed-ulp
    policy).
    """
    k, n = weight.shape
    step = _BLOCK_MACS // max(k * n, 1)
    if step < _BLOCK_MIN_ROWS or step >= len(src):
        return np.matmul(src, weight, out=out)
    for start in range(0, len(src), step):
        np.matmul(src[start : start + step], weight, out=out[start : start + step])
    return out


class RaggedLayout:
    """The flat token layout of one chunk of rows of mixed length.

    Rows come sorted by length and lie end to end in a ``(tokens, d)``
    activation: row ``i`` owns tokens ``offsets[i]:offsets[i + 1]``, its
    ``[CLS]`` token first (``cls`` holds those first tokens).  Rows of one
    length form a *group* ``(length, first row, stop row, first token,
    stop token)``; its tokens are contiguous, so they view as the
    ``(rows, length, d)`` batch an exact-width forward of just those rows
    would run.  Nothing is padded.

    Float32 attention also needs head-major index tables; they depend only
    on the layout and the head count, so they are built once per chunk, on
    first use, and shared by every layer.
    """

    __slots__ = (
        "lengths", "rows", "tokens", "offsets", "cls", "positions", "groups",
        "num_heads", "_tables",
    )

    def __init__(self, lengths, num_heads: int):
        lengths = np.asarray(lengths, dtype=np.int64)
        if (lengths < 1).any() or (np.diff(lengths) < 0).any():
            raise ValueError("row lengths must be positive and sorted")
        self.lengths = lengths
        self.rows = len(lengths)
        self.offsets = np.zeros(self.rows + 1, dtype=np.int64)
        np.cumsum(lengths, out=self.offsets[1:])
        self.tokens = int(self.offsets[-1])
        self.cls = self.offsets[:-1]
        self.positions = np.arange(self.tokens) - np.repeat(self.cls, lengths)
        bounds = [0, *(np.flatnonzero(np.diff(lengths)) + 1).tolist(), self.rows]
        self.groups = [
            (int(lengths[a]), a, b, int(self.offsets[a]), int(self.offsets[b]))
            for a, b in zip(bounds, bounds[1:]) if b > a
        ]
        self.num_heads = num_heads
        self._tables = None

    def tables(self) -> dict:
        """The float32 attention index tables (built once per layout).

        With ``h`` heads, a ``(tokens, d)`` projection is ``tokens * h``
        head rows of ``d / h`` values in token-major order.  ``head_major``
        gathers them so that each group reads as ``(rows * h, length, ·)``
        (the layout of the batched score and context gemms) and
        ``token_major`` gathers them back.  ``score_starts`` holds where
        each query's score row starts in the flat score buffer, with
        ``score_spans`` each group's slice of it; ``cls_starts`` and
        ``cls_spans`` are the same for ``[CLS]``-only queries.
        """
        if self._tables is not None:
            return self._tables
        h = self.num_heads
        head_major = np.empty(self.tokens * h, dtype=np.int64)
        score_starts = np.empty(self.tokens * h, dtype=np.int64)
        cls_starts = np.empty(self.rows * h, dtype=np.int64)
        score_spans, cls_spans = [], []
        heads = np.arange(h)[None, :, None]
        score, cls_score = 0, 0
        for s, a, b, t0, t1 in self.groups:
            g = b - a
            tokens = t0 + np.arange(g)[:, None, None] * s + np.arange(s)
            head_major[t0 * h : t1 * h] = (tokens * h + heads).ravel()
            queries = g * h * s
            score_starts[t0 * h : t1 * h] = score + np.arange(queries) * s
            score_spans.append((score, score + queries * s))
            score += queries * s
            cls_starts[a * h : b * h] = cls_score + np.arange(g * h) * s
            cls_spans.append((cls_score, cls_score + queries))
            cls_score += queries
        token_major = np.empty_like(head_major)
        token_major[head_major] = np.arange(head_major.size)
        self._tables = {
            "head_major": head_major, "token_major": token_major,
            "score_starts": score_starts, "score_spans": score_spans,
            "score_size": score,
            "cls_starts": cls_starts, "cls_spans": cls_spans,
        }
        return self._tables


def ragged_matmul(
    src: np.ndarray, weight: np.ndarray, out: np.ndarray, layout: RaggedLayout
) -> np.ndarray:
    """``src @ weight -> out`` over a ``(tokens, ·)`` ragged activation.

    Float32 runs flat 2-D gemms in row blocks (:func:`_blocked_matmul`;
    rows are independent, so any ``(rows, ·)`` activation works, such as
    the ``[CLS]`` rows alone).
    Float64 runs each group as the 3-D per-item product the composed path
    runs on those rows at their exact width, so every row keeps its
    exact-width bits.
    """
    if src.dtype == np.float32:
        return _blocked_matmul(src, weight, out)
    for s, a, b, t0, t1 in layout.groups:
        np.matmul(
            src[t0:t1].reshape(b - a, s, -1), weight,
            out=out[t0:t1].reshape(b - a, s, -1),
        )
    return out


def ragged_attention(
    data: np.ndarray,
    wq: np.ndarray, bq: np.ndarray,
    wk: np.ndarray, bk: np.ndarray,
    wv: np.ndarray, bv: np.ndarray,
    layout: RaggedLayout,
    pool: ScratchPool,
    out: np.ndarray,
) -> np.ndarray:
    """Self-attention of each row over its own tokens, into ``out``.

    ``data`` and ``out`` are ``(tokens, d)`` in the layout's order; no row
    attends outside itself, so no mask exists.  Float64 runs each group
    through the bit-exact :func:`_attention_forward`: a row's bits are
    those of an exact-width unmasked forward of its own tokens.  Float32
    runs :func:`_ragged_attention_packed` (relaxed-ulp policy).
    """
    params = (wq, bq, wk, bk, wv, bv)
    if data.dtype == np.float32:
        return _ragged_attention_packed(data, params, layout, pool, out, False)
    d = data.shape[1]
    for s, a, b, t0, t1 in layout.groups:
        _attention_forward(
            data[t0:t1].reshape(b - a, s, d), params, layout.num_heads, None,
            pool, False, out[t0:t1].reshape(b - a, s, d),
        )
    return out


def ragged_cls_attention(
    data: np.ndarray,
    wq: np.ndarray, bq: np.ndarray,
    wk: np.ndarray, bk: np.ndarray,
    wv: np.ndarray, bv: np.ndarray,
    layout: RaggedLayout,
    pool: ScratchPool,
    out: np.ndarray,
) -> np.ndarray:
    """Attention of each row's ``[CLS]`` query over its tokens: ``(rows, d)``.

    Float32 only (relaxed-ulp policy): the last layer of a logits-only
    forward needs no other query, so Q is projected for the ``[CLS]`` tokens
    alone, while K and V still cover every token.
    """
    if data.dtype != np.float32:
        raise TypeError("ragged_cls_attention is a float32 kernel")
    return _ragged_attention_packed(
        data, (wq, bq, wk, bk, wv, bv), layout, pool, out, True
    )


@_profiled("attention_ragged")
def _ragged_attention_packed(data, params, layout, pool, out, cls_only):
    """The float32 ragged attention: flat gemms and one softmax pass.

    The projections run as ``(tokens, d) @ (d, d)`` gemms (in row blocks,
    :func:`_blocked_matmul`); one gather
    repacks them head-major (:meth:`RaggedLayout.tables`), so each group's
    score and context products are contiguous ``(rows * h, length, ·)``
    batched gemms writing into one flat score buffer.  The softmax runs
    once over that buffer: one ``exp``, and ``np.add.reduceat`` row sums
    that normalize the context, not the scores.  Its stabilizer subtracts
    the buffer's flat maximum, which is far cheaper than per-row maxima,
    while the spread between the buffer's largest and smallest score stays
    under 60 (no row's exponentials then sink toward float32's subnormal
    floor); a wider spread, or a NaN, falls back to per-row maxima.  With ``cls_only`` the queries are the ``[CLS]``
    tokens alone and the result is ``(rows, d)``.
    """
    wq, bq, wk, bk, wv, bv = params
    tokens, d = data.shape
    h = layout.num_heads
    dh = d // h
    dt = data.dtype
    scale = dt.type(1.0 / float(np.sqrt(dh)))
    tables = layout.tables()
    weights = ((wk, bk), (wv, bv)) if cls_only else ((wq, bq), (wk, bk), (wv, bv))
    n = len(weights)
    proj = pool.take("rag_proj", (n, tokens, d), dt)
    for i, (weight, bias) in enumerate(weights):
        _blocked_matmul(data, weight, proj[i])
        proj[i] += bias
    packed = pool.take("rag_packed", (n, tokens * h, dh), dt)
    np.take(
        proj.reshape(n, tokens * h, dh), tables["head_major"], axis=1,
        out=packed, mode="clip",
    )
    k_all, v_all = packed[n - 2], packed[n - 1]
    if cls_only:
        q_all = pool.take("rag_q_cls", (layout.rows, d), dt)
        np.matmul(data[layout.cls], wq, out=q_all)
        q_all += bq
        starts, spans = tables["cls_starts"], tables["cls_spans"]
        scores = pool.take("rag_scores", (tokens * h,), dt)
        ctx = out.reshape(layout.rows * h, dh)
    else:
        q_all = packed[0]
        starts, spans = tables["score_starts"], tables["score_spans"]
        scores = pool.take("rag_scores", (tables["score_size"],), dt)
        ctx = pool.take("rag_ctx", (tokens * h, dh), dt)
    q_all *= scale  # fold the score scale into Q
    for (s, a, b, t0, t1), (lo, hi) in zip(layout.groups, spans):
        g, queries = b - a, 1 if cls_only else s
        q = q_all[a:b] if cls_only else q_all[t0 * h : t1 * h]
        k3 = k_all[t0 * h : t1 * h].reshape(g * h, s, dh)
        np.matmul(
            q.reshape(g * h, queries, dh), k3.transpose(0, 2, 1),
            out=scores[lo:hi].reshape(g * h, queries, s),
        )
    # Softmax stabilizer: any shift near each row's maximum works, and the
    # flat max is far cheaper than per-row maxima while every row stays
    # within exp's range of it (the spread guard; NaN spreads fail it).
    gmax, gmin = float(scores.max()), float(scores.min())
    if gmax - gmin < 60.0:
        scores -= dt.type(gmax)
    else:
        row_max = np.maximum.reduceat(scores, starts)
        scores -= np.repeat(row_max, np.diff(starts, append=scores.size))
    np.exp(scores, out=scores)
    denom = pool.take("rag_denom", (len(starts),), dt)
    np.add.reduceat(scores, starts, out=denom)
    for (s, a, b, t0, t1), (lo, hi) in zip(layout.groups, spans):
        g, queries = b - a, 1 if cls_only else s
        rows = slice(a * h, b * h) if cls_only else slice(t0 * h, t1 * h)
        np.matmul(
            scores[lo:hi].reshape(g * h, queries, s),
            v_all[t0 * h : t1 * h].reshape(g * h, s, dh),
            out=ctx[rows].reshape(g * h, queries, dh),
        )
    ctx /= denom[:, None]
    if not cls_only:
        np.take(
            ctx, tables["token_major"], axis=0,
            out=out.reshape(tokens * h, dh), mode="clip",
        )
    return out


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
