"""The eval numeric policy, as an executable contract.

Two numeric regimes coexist in this codebase:

* **Bit-exact (float64).**  The fused kernels and the serving fast path
  replay the composed op sequence exactly; logits are bit-identical to the
  reference and the differential harness asserts ``np.array_equal``.
* **Relaxed-ulp (float32 serving builds).**  The accelerated serving path
  repacks the hot gemms (flat 2D projection gemms over every token,
  head-packed 3D score/context gemms, gemv-against-ones layer-norm
  reductions) so BLAS sees a few large matrices instead of many tiny ones.  Repacking reassociates floating-point
  accumulation, so bitwise equality is off the table — instead the contract
  is a **documented per-layer budget** against the float64 reference, plus
  *identical* class predictions and cache-hit patterns on the serving
  corpus.  This module is the harness that makes that contract falsifiable.

Distances are measured in **units in the last place** of the comparison
dtype: both arrays are viewed as IEEE-754 bit patterns, mapped to a
monotone integer ordering (negative floats reflect below zero, so the
distance across zero counts every representable value in between), and
differenced.  ``max_ulp_diff(a, b) == 0`` iff the arrays are bit-identical
up to the sign of zero; ``1`` means adjacent representable values.

Each layer's budget is a :class:`Budget` — an ulp bound paired with an
absolute floor.  The floor exists because elementwise ulps lose meaning
under cancellation: when a centered activation lands near zero, a harmless
``~1e-7`` absolute float32 rounding error spans astronomically many ulps of
the tiny value.  The contract is therefore two-sided: elements whose
absolute deviation is at or below the floor are within policy outright;
every element above it must meet the ulp bound.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "POLICY_BIT_EXACT_F64",
    "POLICY_RELAXED_ULP_F32",
    "Budget",
    "ULP_BUDGETS",
    "numeric_policy",
    "ulp_budget",
    "ulp_diff",
    "max_ulp_diff",
    "assert_within_ulp",
]

#: Policy identifier for float64 builds: fused forwards replay the composed
#: op order and outputs are bit-identical to the reference (budget 0 ulp).
POLICY_BIT_EXACT_F64 = "bit-exact-f64"

#: Policy identifier for float32 serving builds: accelerated packed-gemm
#: forwards stay within the per-layer :data:`ULP_BUDGETS` of the float64
#: reference (compared in float32 ulps after casting the reference down).
POLICY_RELAXED_ULP_F32 = "relaxed-ulp-f32"


class Budget(NamedTuple):
    """One layer's tolerance: an ulp bound plus an absolute floor.

    ``atol`` exempts cancellation-dominated elements (see module
    docstring); ``ulp`` binds everything above it.  The float64 policy is
    ``Budget(0, 0.0)`` — bit-exact.
    """

    ulp: int
    atol: float = 0.0


#: Per-layer float32 budgets for the relaxed policy, measured against the
#: float64 reference cast to float32.  Set from seeded sweeps at serving
#: shapes (see ``tests/test_nn_numeric.py``) with generous headroom over
#: the observed maxima; they bound *reassociation* error (packed gemms,
#: gemv reductions) on top of the irreducible f64->f32 rounding of weights
#: and activations.  Keys follow the kernel names; ``logits`` is the
#: end-to-end budget the serving gate enforces.
ULP_BUDGETS: dict[str, Budget] = {
    "layer_norm": Budget(ulp=256, atol=5e-7),
    "softmax": Budget(ulp=64, atol=5e-7),
    "attention": Budget(ulp=256, atol=1e-6),
    "cross_entropy": Budget(ulp=16, atol=0.0),
    "logits": Budget(ulp=4096, atol=1e-6),
}


def numeric_policy(dtype) -> str:
    """The policy identifier governing a model built in ``dtype``."""
    dt = np.dtype(dtype)
    if dt == np.float64:
        return POLICY_BIT_EXACT_F64
    if dt == np.float32:
        return POLICY_RELAXED_ULP_F32
    raise ValueError(f"no numeric policy for dtype {dt.name!r}")


def ulp_budget(layer: str, dtype="float32") -> Budget:
    """The documented :class:`Budget` for ``layer`` under ``dtype``'s policy.

    Float64 is governed by the bit-exact policy, so every layer's budget is
    ``Budget(0, 0.0)``; float32 looks the layer up in :data:`ULP_BUDGETS`.
    """
    if numeric_policy(dtype) == POLICY_BIT_EXACT_F64:
        return Budget(0, 0.0)
    try:
        return ULP_BUDGETS[layer]
    except KeyError:
        raise KeyError(
            f"no ulp budget documented for layer {layer!r} "
            f"(known: {sorted(ULP_BUDGETS)})"
        ) from None


def _ordered_ints(values: np.ndarray) -> np.ndarray:
    """Map float bit patterns to a monotone int64 ordering.

    IEEE-754 floats of one sign are ordered like their bit patterns;
    reflecting the negative half below zero makes the whole line monotone,
    so ulp distance is plain integer subtraction.  Both zeros map to 0.
    """
    if values.dtype == np.float32:
        bits = values.view(np.int32).astype(np.int64)
        return np.where(bits >= 0, bits, np.int64(-(2**31)) - bits)
    if values.dtype == np.float64:
        bits = values.view(np.int64)
        return np.where(bits >= 0, bits, np.int64(-(2**63)) - bits)
    raise TypeError(f"ulp distance is defined for float32/float64, got {values.dtype}")


def ulp_diff(actual, reference) -> np.ndarray:
    """Elementwise ulp distance between two same-shape float arrays.

    The comparison dtype is the *narrower* of the two: a float64 reference
    is cast down once, so the distance is measured in the serving dtype's
    ulps (casting f64->f32 rounds correctly, costing at most half an ulp).
    Returns float64 so special cases fit: NaN-vs-NaN compares equal (0),
    NaN against anything else and infinities of unequal value are ``inf``.
    """
    a = np.asarray(actual)
    b = np.asarray(reference)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    dtype = np.promote_types(a.dtype, b.dtype)
    if dtype == np.float64 and (a.dtype == np.float32 or b.dtype == np.float32):
        dtype = np.dtype(np.float32)
    a = a.astype(dtype, copy=False)
    b = b.astype(dtype, copy=False)

    oa = _ordered_ints(a)
    ob = _ordered_ints(b)
    # Same-sign orderings differ by < 2**63, so int64 subtraction is exact;
    # opposite-sign pairs can overflow and are rewritten from the absolute
    # orderings in float64 (only their magnitude matters at that distance).
    with np.errstate(over="ignore"):
        diff = np.abs(oa - ob).astype(np.float64)
    opposite = (oa < 0) != (ob < 0)
    if np.any(opposite):
        diff = np.where(
            opposite,
            np.abs(oa.astype(np.float64)) + np.abs(ob.astype(np.float64)),
            diff,
        )

    a_nan, b_nan = np.isnan(a), np.isnan(b)
    special = a_nan | b_nan | np.isinf(a) | np.isinf(b)
    if np.any(special):
        equal = (a == b) | (a_nan & b_nan)
        diff = np.where(special, np.where(equal, 0.0, np.inf), diff)
    return diff


def max_ulp_diff(actual, reference) -> float:
    """The largest elementwise ulp distance (0.0 for empty arrays)."""
    diff = ulp_diff(actual, reference)
    return float(diff.max()) if diff.size else 0.0


def assert_within_ulp(actual, reference, budget, what: str = "values") -> float:
    """Assert ``actual`` stays within ``budget`` of ``reference``.

    ``budget`` is a :class:`Budget` (or bare ulp count): elements whose
    absolute deviation is at or below ``budget.atol`` are within policy
    outright; every other element must be within ``budget.ulp`` ulps.
    Returns the measured maximum ulp distance over the binding elements
    (so callers can log headroom).  On failure the error names the worst
    element, its values in both arrays, and measured vs budgeted distance.
    """
    if isinstance(budget, tuple):
        ulp_max, atol = budget
    else:
        ulp_max, atol = budget, 0.0
    diff = ulp_diff(actual, reference)
    if atol > 0.0 and diff.size:
        a64 = np.asarray(actual, dtype=np.float64)
        b64 = np.asarray(reference, dtype=np.float64)
        with np.errstate(invalid="ignore"):
            diff = np.where(np.abs(a64 - b64) <= atol, 0.0, diff)
    worst = float(diff.max()) if diff.size else 0.0
    if worst > ulp_max:
        index = np.unravel_index(int(np.argmax(diff)), diff.shape)
        a = np.asarray(actual)[index]
        b = np.asarray(reference)[index]
        raise AssertionError(
            f"{what}: max ulp distance {worst:g} exceeds budget {ulp_max:g} "
            f"(atol floor {atol:g}) at index {tuple(int(i) for i in index)}: "
            f"actual={a!r} reference={b!r}"
        )
    return worst
