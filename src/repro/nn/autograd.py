"""Reverse-mode automatic differentiation on NumPy arrays.

This module is the foundation of the ``repro.nn`` substrate.  The paper's
envisioned system ("a BERT for packets") assumes a deep-learning framework;
none is available offline, so we implement a small but complete reverse-mode
autograd engine from scratch.  The design mirrors the familiar
define-by-run model:

* :class:`Tensor` wraps a ``numpy.ndarray`` together with an optional
  gradient and a tape node that knows how to propagate gradients to its
  parents.
* Every differentiable operation builds a node in an implicit DAG.
* :meth:`Tensor.backward` performs a topological sort of the DAG and runs
  each node's VJP exactly once, accumulating gradients into every tensor
  that has ``requires_grad`` set.

Tape nodes are slot-based records pointing at module-level VJP functions
(rather than per-op closures), which keeps graph construction cheap: no
closure cells are allocated on the hot path, and the per-op Python overhead
is one small object plus a tuple.  Gradient accumulation is in-place after
the first contribution (``np.add(..., out=...)``), and parameters can keep a
preallocated gradient buffer alive across steps via
``zero_grad(set_to_none=False)`` so that steady-state training performs no
gradient allocations at all (see :data:`Tensor.has_grad`).

Only the operations needed by the library (transformers, GRUs, embedding
models, classifiers) are implemented, but each handles NumPy broadcasting
correctly so that the layers above can be written naturally.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable

import numpy as np

__all__ = ["Tensor", "no_grad", "is_grad_enabled", "as_tensor", "tensor_allocations"]


# Grad mode is per-thread (like torch): concurrent no_grad() windows in
# different threads must not race on one flag, where interleaved
# save/restores can strand the process with gradients disabled.
_GRAD_STATE = threading.local()


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph construction.

    Used for evaluation and for in-place parameter updates inside
    optimizers, exactly like ``torch.no_grad()``.  The flag is thread-local,
    so a window opened in one thread never affects another.
    """
    previous = is_grad_enabled()
    _GRAD_STATE.enabled = False
    try:
        yield
    finally:
        _GRAD_STATE.enabled = previous


def is_grad_enabled() -> bool:
    """Return whether operations in this thread record gradients."""
    return getattr(_GRAD_STATE, "enabled", True)


# Count of Tensor objects created since process start.  The trainer samples
# this around each step so the E14 ``train_step`` gate can assert that the
# per-step graph size is stable (no accidental graph growth / leaks).
_TENSOR_ALLOCS = 0


def tensor_allocations() -> int:
    """Total number of :class:`Tensor` objects constructed so far."""
    return _TENSOR_ALLOCS


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it matches ``shape``.

    NumPy broadcasting can expand operands along new leading axes or along
    axes of size one; the gradient of a broadcast operand is the sum over
    the broadcast axes.
    """
    grad = np.asarray(grad)
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def as_tensor(value, requires_grad: bool = False) -> "Tensor":
    """Coerce ``value`` (Tensor, ndarray, scalar, nested list) to a Tensor."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value, requires_grad=requires_grad)


class _Node:
    """One tape entry: a VJP function plus everything it needs.

    ``fn(grad, parents, saved)`` returns a tuple of gradients aligned with
    ``parents`` (entries may be ``None`` for parents that do not require
    grad).  ``saved`` is an opaque tuple of forward-pass residuals.
    """

    __slots__ = ("fn", "parents", "saved")

    def __init__(self, fn, parents, saved):
        self.fn = fn
        self.parents = parents
        self.saved = saved


# ----------------------------------------------------------------------
# Module-level VJP functions (no closures: one shared function per op)
# ----------------------------------------------------------------------

def _vjp_add(grad, parents, saved):
    return grad, grad


def _vjp_sub(grad, parents, saved):
    return grad, -grad


def _vjp_first(grad, parents, saved):
    # tensor (+|-) python-scalar: the scalar is a constant, grad passes through.
    return (grad,)


def _vjp_scalar_mul(grad, parents, saved):
    (scalar,) = saved
    return (grad * scalar,)


def _vjp_scalar_div(grad, parents, saved):
    (scalar,) = saved
    return (grad / scalar,)


def _vjp_scalar_rdiv(grad, parents, saved):
    (scalar,) = saved
    (a,) = parents
    return (-grad * scalar / (a.data ** 2),)


def _vjp_neg(grad, parents, saved):
    return (-grad,)


def _vjp_mul(grad, parents, saved):
    a, b = parents
    ga = grad * b.data if a.requires_grad else None
    gb = grad * a.data if b.requires_grad else None
    return ga, gb


def _vjp_div(grad, parents, saved):
    a, b = parents
    ga = grad / b.data if a.requires_grad else None
    gb = -grad * a.data / (b.data ** 2) if b.requires_grad else None
    return ga, gb


def _vjp_pow(grad, parents, saved):
    (a,) = parents
    (exponent,) = saved
    return (grad * exponent * a.data ** (exponent - 1),)


def _vjp_matmul(grad, parents, saved):
    at, bt = parents
    a, b = at.data, bt.data
    if a.ndim == 1 and b.ndim == 1:
        return grad * b, grad * a
    if a.ndim == 1:
        a2 = a.reshape(1, -1)
        grad2 = np.expand_dims(grad, -2)
        ga = (grad2 @ np.swapaxes(b, -1, -2)).reshape(a.shape) if at.requires_grad else None
        gb = np.swapaxes(a2, -1, -2) @ grad2 if bt.requires_grad else None
        return ga, gb
    if b.ndim == 1:
        b2 = b.reshape(-1, 1)
        grad2 = np.expand_dims(grad, -1)
        ga = grad2 @ b2.T if at.requires_grad else None
        gb = (np.swapaxes(a, -1, -2) @ grad2).reshape(b.shape) if bt.requires_grad else None
        return ga, gb
    ga = grad @ np.swapaxes(b, -1, -2) if at.requires_grad else None
    gb = np.swapaxes(a, -1, -2) @ grad if bt.requires_grad else None
    return ga, gb


def _vjp_exp(grad, parents, saved):
    (out_data,) = saved
    return (grad * out_data,)


def _vjp_log(grad, parents, saved):
    (a,) = parents
    return (grad / a.data,)


def _vjp_tanh(grad, parents, saved):
    (out_data,) = saved
    return (grad * (1.0 - out_data ** 2),)


def _vjp_sigmoid(grad, parents, saved):
    (out_data,) = saved
    return (grad * out_data * (1.0 - out_data),)


def _vjp_mask(grad, parents, saved):
    # Shared by relu / clip / abs / masked_fill: local gradient is a saved
    # elementwise factor.
    (factor,) = saved
    return (grad * factor,)


_GELU_C = float(np.sqrt(2.0 / np.pi))


def _vjp_gelu(grad, parents, saved):
    # In-place chaining of the closed-form derivative
    #   0.5 (1 + tanh) + 0.5 x sech^2 * C (1 + 3 * 0.044715 x^2)
    # with the original evaluation order preserved (commutative ufuncs
    # only), so values are bitwise unchanged while temporaries drop from
    # eight arrays to four.
    (a,) = parents
    (tanh_inner,) = saved
    x = a.data
    d_inner = x ** 2
    d_inner *= 3 * 0.044715
    d_inner += 1.0
    d_inner *= _GELU_C
    sech2 = tanh_inner ** 2
    np.subtract(1.0, sech2, out=sech2)
    local = x * 0.5
    local *= sech2
    local *= d_inner
    out = tanh_inner + 1.0
    out *= 0.5
    out += local
    np.multiply(grad, out, out=out)
    return (out,)


def _expand_reduced(grad, axis, ndim):
    """Re-insert reduced axes so ``grad`` broadcasts against the input."""
    g = np.asarray(grad)
    axes = axis if isinstance(axis, tuple) else (axis,)
    for ax in sorted(a % ndim for a in axes):
        g = np.expand_dims(g, ax)
    return g


def _vjp_sum(grad, parents, saved):
    (a,) = parents
    axis, keepdims = saved
    g = np.asarray(grad)
    if axis is not None and not keepdims:
        g = _expand_reduced(g, axis, a.data.ndim)
    return (np.broadcast_to(g, a.data.shape),)


def _vjp_max(grad, parents, saved):
    (a,) = parents
    axis, keepdims = saved
    g = np.asarray(grad)
    expanded = a.data.max(axis=axis, keepdims=True)
    if axis is not None and not keepdims:
        g = _expand_reduced(g, axis, a.data.ndim)
    mask = (a.data == expanded).astype(a.data.dtype)
    mask = mask / np.maximum(mask.sum(axis=axis, keepdims=True), 1.0)
    return (mask * g,)


def _vjp_reshape(grad, parents, saved):
    (a,) = parents
    return (np.asarray(grad).reshape(a.data.shape),)


def _vjp_transpose(grad, parents, saved):
    (inverse,) = saved
    return (np.asarray(grad).transpose(inverse),)


def _vjp_getitem(grad, parents, saved):
    (a,) = parents
    (index,) = saved
    full = np.zeros_like(a.data)
    np.add.at(full, index, np.asarray(grad))
    return (full,)


def _vjp_concatenate(grad, parents, saved):
    axis, offsets = saved
    grad = np.asarray(grad)
    grads = []
    slicer = [slice(None)] * grad.ndim
    for tensor, start, stop in zip(parents, offsets[:-1], offsets[1:]):
        if tensor.requires_grad:
            slicer[axis] = slice(int(start), int(stop))
            grads.append(grad[tuple(slicer)])
        else:
            grads.append(None)
    return tuple(grads)


def _vjp_take_rows(grad, parents, saved):
    (table,) = parents
    (indices,) = saved
    full = np.zeros_like(table.data)
    np.add.at(
        full,
        indices.reshape(-1),
        np.asarray(grad).reshape(-1, table.data.shape[-1]),
    )
    return (full,)


class Tensor:
    """A NumPy-backed tensor that records operations for backpropagation.

    Parameters
    ----------
    data:
        Anything ``numpy.asarray`` accepts.  Integer inputs are promoted to
        ``float64`` so that gradients are always well defined.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` during
        :meth:`backward`.
    name:
        Optional human-readable label, useful when debugging parameter
        collections.
    """

    __slots__ = ("data", "grad", "requires_grad", "name", "_node", "_grad_stale")

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        global _TENSOR_ALLOCS
        _TENSOR_ALLOCS += 1
        if isinstance(data, Tensor):
            data = data.data
        array = np.asarray(data)
        if array.dtype == object:
            raise TypeError("Tensor data must be numeric, got object dtype")
        if not np.issubdtype(array.dtype, np.floating):
            array = array.astype(np.float64)
        self.data: np.ndarray = array
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self.grad: np.ndarray | None = None
        self.name = name
        self._node: _Node | None = None
        self._grad_stale = False

    @classmethod
    def _make(cls, data: np.ndarray, requires_grad: bool) -> "Tensor":
        """Fast construction for op results: ``data`` is already a float array."""
        global _TENSOR_ALLOCS
        _TENSOR_ALLOCS += 1
        out = cls.__new__(cls)
        out.data = data
        out.requires_grad = requires_grad
        out.grad = None
        out.name = ""
        out._node = None
        out._grad_stale = False
        return out

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        label = f", name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}{grad_flag}{label})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python float."""
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but detached from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        """Return a detached copy of this tensor."""
        return Tensor(self.data.copy(), requires_grad=False)

    @property
    def has_grad(self) -> bool:
        """Whether a gradient has actually been accumulated.

        With preallocated gradient buffers (``zero_grad(set_to_none=False)``)
        ``grad`` stays a zero-filled array between steps; ``has_grad``
        distinguishes "zero buffer, untouched this step" from "a backward
        pass contributed here", so optimizers can skip parameters that did
        not participate in the loss exactly as they do when ``grad is None``.
        """
        return self.grad is not None and not self._grad_stale

    def zero_grad(self, set_to_none: bool = True) -> None:
        """Clear the accumulated gradient.

        With ``set_to_none=False`` the gradient buffer is kept and filled
        with zeros in place, so steady-state training reuses one buffer per
        parameter instead of reallocating each step.
        """
        if set_to_none:
            self.grad = None
            self._grad_stale = False
        elif self.grad is not None:
            self.grad.fill(0.0)
            self._grad_stale = True

    # ------------------------------------------------------------------
    # Graph construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def _result(
        cls,
        data: np.ndarray,
        parents: tuple["Tensor", ...],
        fn: Callable | None = None,
        saved: tuple = (),
    ) -> "Tensor":
        requires = False
        if is_grad_enabled():
            for p in parents:
                if p.requires_grad:
                    requires = True
                    break
        out = cls._make(np.asarray(data), requires)
        if requires and fn is not None:
            out._node = _Node(fn, parents, saved)
        return out

    def _add_grad(self, grad: np.ndarray) -> None:
        """Accumulate ``grad`` (unbroadcast to this tensor's shape)."""
        if not self.requires_grad:
            return
        data = self.data
        grad = _unbroadcast(grad, data.shape).astype(data.dtype, copy=False)
        if self.grad is None:
            self.grad = grad.copy()
        elif self._grad_stale and self.grad.shape == grad.shape:
            # Preallocated buffer, first contribution this step: overwrite.
            np.copyto(self.grad, grad)
        else:
            np.add(self.grad, grad, out=self.grad)
        self._grad_stale = False

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate through the graph rooted at this tensor.

        Parameters
        ----------
        grad:
            Gradient of some scalar objective with respect to this tensor.
            Defaults to ones, which is only valid for scalar tensors
            (matching the usual ``loss.backward()`` idiom).
        """
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient requires a scalar tensor"
                )
            grad = np.ones_like(self.data)
        self._add_grad(np.asarray(grad, dtype=self.data.dtype))

        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            tape = node._node
            if tape is not None:
                for parent in tape.parents:
                    if parent.requires_grad and id(parent) not in visited:
                        stack.append((parent, False))

        for tensor in reversed(order):
            tape = tensor._node
            if tape is None or tensor.grad is None:
                continue
            grads = tape.fn(tensor.grad, tape.parents, tape.saved)
            for parent, g in zip(tape.parents, grads):
                if g is not None:
                    parent._add_grad(g)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    # Python scalars in arithmetic stay *Python* scalars (NEP 50 weak
    # promotion) instead of being wrapped as 0-d float64 tensors: a float64
    # wrapper would silently upcast every float32 activation it touches,
    # and the wrapper Tensor is pure overhead on the composed hot path.
    # float64 results are bit-identical either way (same ufunc, same
    # double value); float32 results now *stay* float32, matching the
    # fused kernels' dtype discipline.
    def __add__(self, other) -> "Tensor":
        if isinstance(other, (int, float)):
            return Tensor._result(self.data + other, (self,), _vjp_first)
        other = as_tensor(other)
        return Tensor._result(self.data + other.data, (self, other), _vjp_add)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return Tensor._result(-self.data, (self,), _vjp_neg)

    def __sub__(self, other) -> "Tensor":
        if isinstance(other, (int, float)):
            return Tensor._result(self.data - other, (self,), _vjp_first)
        other = as_tensor(other)
        return Tensor._result(self.data - other.data, (self, other), _vjp_sub)

    def __rsub__(self, other) -> "Tensor":
        if isinstance(other, (int, float)):
            return Tensor._result(other - self.data, (self,), _vjp_neg)
        return as_tensor(other) - self

    def __mul__(self, other) -> "Tensor":
        if isinstance(other, (int, float)):
            return Tensor._result(
                self.data * other, (self,), _vjp_scalar_mul, (other,)
            )
        other = as_tensor(other)
        return Tensor._result(self.data * other.data, (self, other), _vjp_mul)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        if isinstance(other, (int, float)):
            return Tensor._result(
                self.data / other, (self,), _vjp_scalar_div, (other,)
            )
        other = as_tensor(other)
        return Tensor._result(self.data / other.data, (self, other), _vjp_div)

    def __rtruediv__(self, other) -> "Tensor":
        if isinstance(other, (int, float)):
            return Tensor._result(
                other / self.data, (self,), _vjp_scalar_rdiv, (other,)
            )
        return as_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        return Tensor._result(self.data ** exponent, (self,), _vjp_pow, (exponent,))

    def __matmul__(self, other) -> "Tensor":
        other = as_tensor(other)
        return Tensor._result(self.data @ other.data, (self, other), _vjp_matmul)

    def __rmatmul__(self, other) -> "Tensor":
        return as_tensor(other) @ self

    # ------------------------------------------------------------------
    # Elementwise functions
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)
        return Tensor._result(out_data, (self,), _vjp_exp, (out_data,))

    def log(self) -> "Tensor":
        return Tensor._result(np.log(self.data), (self,), _vjp_log)

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)
        return Tensor._result(out_data, (self,), _vjp_tanh, (out_data,))

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))
        return Tensor._result(out_data, (self,), _vjp_sigmoid, (out_data,))

    def relu(self) -> "Tensor":
        mask = self.data > 0
        return Tensor._result(self.data * mask, (self,), _vjp_mask, (mask,))

    def gelu(self) -> "Tensor":
        """Gaussian error linear unit (tanh approximation, as used by BERT)."""
        x = self.data
        # x * x * x, not x ** 3: NumPy's general power loop is ~80x slower
        # than two multiplies and this runs on every feed-forward hidden
        # activation — the single hottest elementwise op in the model.
        inner = _GELU_C * (x + 0.044715 * (x * x * x))
        tanh_inner = np.tanh(inner)
        return Tensor._result(
            0.5 * x * (1.0 + tanh_inner), (self,), _vjp_gelu, (tanh_inner,)
        )

    def clip(self, low: float, high: float) -> "Tensor":
        mask = (self.data >= low) & (self.data <= high)
        return Tensor._result(np.clip(self.data, low, high), (self,), _vjp_mask, (mask,))

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)
        return Tensor._result(np.abs(self.data), (self,), _vjp_mask, (sign,))

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return Tensor._result(
            self.data.sum(axis=axis, keepdims=keepdims),
            (self,),
            _vjp_sum,
            (axis, keepdims),
        )

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / max(count, 1))

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        mu = self.mean(axis=axis, keepdims=True)
        centered = self - mu
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        return Tensor._result(
            self.data.max(axis=axis, keepdims=keepdims),
            (self,),
            _vjp_max,
            (axis, keepdims),
        )

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        return -((-self).max(axis=axis, keepdims=keepdims))

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return Tensor._result(self.data.reshape(shape), (self,), _vjp_reshape)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        inverse = tuple(np.argsort(axes))
        return Tensor._result(
            self.data.transpose(axes), (self,), _vjp_transpose, (inverse,)
        )

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        axes = list(range(self.data.ndim))
        axes[axis1], axes[axis2] = axes[axis2], axes[axis1]
        return self.transpose(tuple(axes))

    def __getitem__(self, index) -> "Tensor":
        return Tensor._result(self.data[index], (self,), _vjp_getitem, (index,))

    def expand_dims(self, axis: int) -> "Tensor":
        return Tensor._result(np.expand_dims(self.data, axis), (self,), _vjp_reshape)

    def squeeze(self, axis: int | None = None) -> "Tensor":
        return Tensor._result(np.squeeze(self.data, axis=axis), (self,), _vjp_reshape)

    # ------------------------------------------------------------------
    # Composite ops used by layers
    # ------------------------------------------------------------------
    def softmax(self, axis: int = -1) -> "Tensor":
        shifted = self - Tensor(self.data.max(axis=axis, keepdims=True))
        exp = shifted.exp()
        return exp / exp.sum(axis=axis, keepdims=True)

    def log_softmax(self, axis: int = -1) -> "Tensor":
        shifted = self - Tensor(self.data.max(axis=axis, keepdims=True))
        return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()

    def masked_fill(self, mask: np.ndarray, value: float) -> "Tensor":
        """Return a tensor where positions with ``mask`` True are set to ``value``."""
        mask = np.asarray(mask, dtype=bool)
        keep = (~mask).astype(self.data.dtype)
        return Tensor._result(
            np.where(mask, value, self.data), (self,), _vjp_mask, (keep,)
        )

    @staticmethod
    def concatenate(tensors: Iterable["Tensor"], axis: int = 0) -> "Tensor":
        tensors = tuple(as_tensor(t) for t in tensors)
        out_data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.data.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)
        return Tensor._result(out_data, tensors, _vjp_concatenate, (axis, offsets))

    @staticmethod
    def stack(tensors: Iterable["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [as_tensor(t) for t in tensors]
        expanded = [t.expand_dims(axis) for t in tensors]
        return Tensor.concatenate(expanded, axis=axis)

    @staticmethod
    def take_rows(table: "Tensor", indices: np.ndarray) -> "Tensor":
        """Differentiable row lookup ``table[indices]`` used by embeddings."""
        indices = np.asarray(indices, dtype=np.int64)
        return Tensor._result(table.data[indices], (table,), _vjp_take_rows, (indices,))
