"""Bounded-memory metrics: counters, gauges, histograms.

The O&M-metrics operating model (PAPERS.md: operators localize hotspots
from per-stage operational counters, not packet inspection) needs two
properties from the telemetry substrate that ad-hoc Python lists do not
have:

* **Bounded memory.**  A serving stream observes one latency per flow for
  the life of the process; the accounting must be O(buckets), never
  O(observations).  The :class:`Histogram` here is a fixed-bucket log-scale
  histogram — a few hundred int64 bucket counts plus exact count/sum/min/max
  — so a million observations costs the same memory as ten.
* **JSON export.**  Every metric snapshots to a plain-JSON dict
  (:meth:`MetricsRegistry.to_dict` / :meth:`MetricsRegistry.to_json`), the
  machine surface ``BENCH_e14.json`` and the trace tooling consume.

What is exact and what is approximate: counts, sums, means, minima and
maxima are **exact** (tracked outside the buckets).  Only histogram
*percentiles* are estimates, with relative error bounded by the bucket
width — ``2 ** (1 / bins_per_octave)`` per bucket, under 9% at the default
8 bins per octave, tightened further by geometric interpolation inside the
bucket and clamping to the exact observed min/max.
"""

from __future__ import annotations

import json
import math

import numpy as np

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


class Counter:
    """A monotonically accumulating value (int or float)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n=1) -> None:
        self.value += n

    def snapshot(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A point-in-time level with exact min/max envelope.

    ``set`` records the latest level; the envelope (``min``/``max``) and the
    sample count are exact.
    """

    __slots__ = ("name", "value", "min", "max", "samples")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.samples = 0

    def set(self, value) -> None:
        value = float(value)
        self.value = value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.samples += 1

    def snapshot(self) -> dict:
        return {
            "type": "gauge",
            "value": self.value,
            "min": self.min if self.samples else None,
            "max": self.max if self.samples else None,
            "samples": self.samples,
        }


class Histogram:
    """Fixed-bucket log-scale histogram: O(buckets) memory.

    Buckets are geometric with ``bins_per_octave`` bins per factor of two,
    spanning ``[lo, hi)`` plus an underflow bucket (values below ``lo``,
    including zero and negatives) and an overflow bucket (values at or above
    ``hi``) — the layout is fixed at construction.
    ``count``/``sum``/``min``/``max`` are tracked exactly alongside the
    buckets, so :attr:`mean` is exact; :meth:`percentile` interpolates
    geometrically inside its bucket and clamps to the observed ``[min,
    max]``, bounding the relative error by one bucket width.
    """

    __slots__ = (
        "name", "lo", "hi", "bins_per_octave", "counts",
        "count", "total", "min", "max",
    )

    def __init__(
        self, name: str, lo: float, hi: float, bins_per_octave: int = 8
    ):
        if not (0 < lo < hi):
            raise ValueError("need 0 < lo < hi")
        if bins_per_octave <= 0:
            raise ValueError("bins_per_octave must be positive")
        self.name = name
        self.lo = float(lo)
        self.hi = float(hi)
        self.bins_per_octave = int(bins_per_octave)
        bins = int(math.ceil(math.log2(self.hi / self.lo) * bins_per_octave))
        # counts[0] is underflow, counts[-1] overflow, bins in between.
        self.counts = np.zeros(bins + 2, dtype=np.int64)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def _index(self, value: float) -> int:
        if value < self.lo:
            return 0
        if value >= self.hi:
            return len(self.counts) - 1
        k = 1 + int(math.log2(value / self.lo) * self.bins_per_octave)
        # Guard float rounding at the top edge.
        return min(k, len(self.counts) - 2)

    def observe(self, value) -> None:
        value = float(value)
        self.counts[self._index(value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def observe_many(self, values) -> None:
        """Vectorized :meth:`observe` over an array of values.

        Equal to calling :meth:`observe` on each value in order: the same
        buckets, and the sum accumulated left to right, so even ``sum``
        keeps its bits.
        """
        v = np.asarray(values, dtype=float).ravel()
        if v.size == 0:
            return
        idx = np.zeros(v.size, dtype=np.int64)
        pos = v >= self.lo
        if pos.any():
            with np.errstate(divide="ignore"):
                idx[pos] = 1 + np.floor(
                    np.log2(v[pos] / self.lo) * self.bins_per_octave
                ).astype(np.int64)
        np.clip(idx, 0, len(self.counts) - 2, out=idx)
        idx[v >= self.hi] = len(self.counts) - 1
        self.counts += np.bincount(idx, minlength=len(self.counts))
        self.count += int(v.size)
        self.total = float(np.add.accumulate(np.append(self.total, v))[-1])
        self.min = min(self.min, float(v.min()))
        self.max = max(self.max, float(v.max()))

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    @property
    def mean(self) -> float:
        """Exact mean (sum and count are tracked outside the buckets)."""
        return self.total / self.count if self.count else 0.0

    def _edges(self, bucket: int) -> tuple[float, float]:
        """The value range bucket ``bucket`` covers (finite for clamping)."""
        if bucket == 0:
            return (max(self.min, 0.0), self.lo)
        if bucket == len(self.counts) - 1:
            last = self.lo * 2.0 ** (
                (len(self.counts) - 2) / self.bins_per_octave
            )
            return (last, max(self.max, last))
        return (
            self.lo * 2.0 ** ((bucket - 1) / self.bins_per_octave),
            self.lo * 2.0 ** (bucket / self.bins_per_octave),
        )

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-th percentile from the bucket counts.

        Nearest-rank bucket lookup with geometric interpolation inside the
        bucket, clamped to the exact observed ``[min, max]`` — monotone in
        ``q`` and within one bucket width (relative) of the true value.
        """
        if self.count == 0:
            return 0.0
        target = max(1, int(math.ceil((q / 100.0) * self.count)))
        cum = np.cumsum(self.counts)
        bucket = int(np.searchsorted(cum, target))
        in_bucket = int(self.counts[bucket])
        before = int(cum[bucket]) - in_bucket
        fraction = (target - before) / in_bucket if in_bucket else 0.0
        edge_lo, edge_hi = self._edges(bucket)
        if edge_lo <= 0.0 or edge_hi <= 0.0:
            value = edge_lo + (edge_hi - edge_lo) * fraction
        else:
            value = edge_lo * (edge_hi / edge_lo) ** fraction
        return float(min(max(value, self.min), self.max))

    # ------------------------------------------------------------------
    # Layout / export
    # ------------------------------------------------------------------
    def _layout(self) -> tuple:
        return (self.lo, self.hi, self.bins_per_octave)

    def snapshot(self) -> dict:
        nonzero = np.flatnonzero(self.counts)
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "p50": self.percentile(50) if self.count else None,
            "p99": self.percentile(99) if self.count else None,
            "layout": {
                "lo": self.lo,
                "hi": self.hi,
                "bins_per_octave": self.bins_per_octave,
            },
            # Sparse bucket export: {bucket index: count}, bounded by the
            # fixed layout regardless of how many values were observed.
            "buckets": {int(i): int(self.counts[i]) for i in nonzero},
        }


class MetricsRegistry:
    """A named collection of metrics.

    Metric constructors are idempotent: asking for an existing name returns
    the existing metric (configuration must match for histograms), so
    instrumented layers can share one registry without coordination.
    """

    def __init__(self):
        self._metrics: dict[str, object] = {}

    # ------------------------------------------------------------------
    # Constructors (idempotent)
    # ------------------------------------------------------------------
    def _named(self, name: str, factory, kind):
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
        elif not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._named(name, lambda: Counter(name), Counter)

    def gauge(self, name: str) -> Gauge:
        return self._named(name, lambda: Gauge(name), Gauge)

    def histogram(
        self, name: str, lo: float, hi: float, bins_per_octave: int = 8
    ) -> Histogram:
        metric = self._named(
            name, lambda: Histogram(name, lo, hi, bins_per_octave), Histogram
        )
        if metric._layout() != (float(lo), float(hi), int(bins_per_octave)):
            raise ValueError(
                f"histogram {name!r} already registered with layout "
                f"{metric._layout()}"
            )
        return metric

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def get(self, name: str):
        return self._metrics.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def select(self, prefix: str) -> dict[str, object]:
        """All metrics whose name starts with ``prefix``, by name."""
        return {
            name: metric
            for name, metric in self._metrics.items()
            if name.startswith(prefix)
        }

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            name: self._metrics[name].snapshot() for name in self.names()
        }

    def to_json(self, indent: "int | None" = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)
