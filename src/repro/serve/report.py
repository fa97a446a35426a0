"""Serving accounting: throughput, latency percentiles, batch shapes.

The :class:`ServingReport` is the measurement surface the ROADMAP's "serves
heavy traffic" goal is tracked by: every completed prediction is observed
with its submit-to-completion latency, and :meth:`summary` folds the stream
into the numbers ``tools/bench_report.py`` publishes in ``BENCH_e14.json``
(flows/s, packets/s, p50/p99 latency, cache hit rate, batch shapes).

Since the observability layer landed, the report is backed by a
:class:`repro.obs.metrics.MetricsRegistry` rather than raw Python lists:

* **Bounded memory.**  Latency and batch-size series are
  fixed-bucket log-scale histograms — a million observations costs the
  same memory as ten (regression-tested in ``tests/test_obs.py``).
* **Same scorecard.**  :meth:`summary` keeps its key shape; counts, sums,
  means and maxima are exact, and the p50/p99 latency estimates carry at
  most one histogram-bucket width (< 9%) of relative error — well inside
  the E14 gates' trailing-margin tolerance, and these percentiles are
  published, not gated.

The raw registry is reachable as :attr:`ServingReport.metrics` (e.g. for
JSON export via ``report.metrics.to_json()``).
"""

from __future__ import annotations

import time

from ..obs.metrics import MetricsRegistry

__all__ = ["ServingReport"]

#: Resilience counters every report carries (see :meth:`ServingReport.count`).
_COUNTERS = ("errors", "retries", "quarantined", "degraded", "restarts")

#: Why a micro-batch ran: its bucket filled, its oldest flow hit the
#: max-wait deadline, backpressure picked it, or the stream ended.
_TRIGGERS = ("full", "deadline", "backpressure", "flush")

#: Latency histogram layout: 100 ns to 1000 s at 8 bins/octave (~270 buckets).
_LATENCY_LAYOUT = (1e-7, 1e3)
#: Batch-size histogram layout: 1 to 65536 at 8 bins/octave (130 buckets).
_SIZE_LAYOUT = (1.0, 65536.0)


class ServingReport:
    """Accumulates per-prediction latencies and stream counters."""

    def __init__(self):
        self.metrics = MetricsRegistry()
        self._latency = self.metrics.histogram("serve.latency_s", *_LATENCY_LAYOUT)
        self._batch = self.metrics.histogram("serve.batch_size", *_SIZE_LAYOUT)
        self._flows = self.metrics.counter("serve.flows")
        self._packets = self.metrics.counter("serve.packets")
        self._cached = self.metrics.counter("serve.cached")
        self._coalesced = self.metrics.counter("serve.coalesced")
        for name in _COUNTERS:
            self.metrics.counter(f"serve.resilience.{name}")
        self._triggers = {
            name: self.metrics.counter(f"serve.batches.{name}")
            for name in _TRIGGERS
        }
        self._oldest_pending = self.metrics.gauge("serve.oldest_pending_s")
        #: Build dtype of the serving model (stamped by the engine at
        #: construction; ``None`` until a report belongs to an engine).
        self.model_dtype: str | None = None
        #: Numeric-policy identifier governing the served logits
        #: (:func:`repro.nn.numeric.numeric_policy` of the build dtype).
        self.numeric_policy: str | None = None
        self._first_submit: float | None = None
        self._last_completion: float | None = None

    # ------------------------------------------------------------------
    # Registry views
    # ------------------------------------------------------------------
    @property
    def flows(self) -> int:
        """Completed predictions observed."""
        return int(self._flows.value)

    @property
    def packets(self) -> int:
        """Packets across all observed flows."""
        return int(self._packets.value)

    @property
    def cached(self) -> int:
        """Predictions served from the cache."""
        return int(self._cached.value)

    @property
    def coalesced(self) -> int:
        """Predictions served from another pending flow's forward row."""
        return int(self._coalesced.value)

    @property
    def batches(self) -> int:
        """Model forwards observed (micro-batches run)."""
        return int(self._batch.count)

    @property
    def batches_by_trigger(self) -> dict[str, int]:
        """Micro-batches run, by what triggered them: ``full``,
        ``deadline``, ``backpressure`` or ``flush``."""
        return {name: int(c.value) for name, c in self._triggers.items()}

    @property
    def counters(self) -> dict[str, int]:
        """The resilience counters as a plain dict (a snapshot, not a view)."""
        return {
            name: int(self.metrics.get(f"serve.resilience.{name}").value)
            for name in _COUNTERS
        }

    # ------------------------------------------------------------------
    # Observation (driven by the engine)
    # ------------------------------------------------------------------
    def mark_submit(self) -> float:
        """Stamp a submission; returns the timestamp used for its latency."""
        now = time.perf_counter()
        if self._first_submit is None:
            self._first_submit = now
        return now

    def observe(self, prediction) -> None:
        """Record one completed :class:`~repro.serve.engine.FlowPrediction`."""
        self._latency.observe(prediction.latency)
        self._flows.inc()
        self._packets.inc(prediction.record.packet_count)
        if prediction.cached:
            self._cached.inc()
        self._last_completion = time.perf_counter()

    def observe_batch(self, size: int, trigger: str = "full", coalesced: int = 0) -> None:
        """Record one model forward of ``size`` flows, run because of
        ``trigger`` (see :attr:`batches_by_trigger`); ``coalesced`` of them
        were served from another flow's forward row (see :attr:`coalesced`)."""
        self._batch.observe(size)
        self._triggers[trigger].inc()
        self._coalesced.inc(coalesced)

    def observe_oldest_pending(self, age: float) -> None:
        """Record the oldest pending flow's age, in stream-seconds, at one
        advance of the engine's stream clock."""
        self._oldest_pending.set(age)

    def count(self, name: str, n: int = 1) -> None:
        """Bump one resilience counter (``errors``, ``retries``,
        ``quarantined``, ``degraded``, ``restarts``)."""
        if name not in _COUNTERS:
            raise ValueError(
                f"unknown counter {name!r} (choose from {_COUNTERS})"
            )
        self.metrics.counter(f"serve.resilience.{name}").inc(n)

    # ------------------------------------------------------------------
    # Summary
    # ------------------------------------------------------------------
    @property
    def wall_time(self) -> float:
        """Seconds from the first submission to the last completion."""
        if self._first_submit is None or self._last_completion is None:
            return 0.0
        return self._last_completion - self._first_submit

    def summary(self, cache=None) -> dict:
        """The serving scorecard (the ``BENCH_e14.json`` ``serving`` shape).

        ``cache`` is the engine's :class:`~repro.serve.engine.PredictionCache`
        (or ``None``); its hit counters become ``cache_hit_rate``.
        ``coalesced`` counts flows served from another pending flow's
        forward row (see :class:`~repro.serve.engine.InferenceEngine`),
        ``batches_by_trigger`` splits ``batches`` by trigger, and
        ``oldest_pending_s`` is the largest oldest-pending-flow age recorded
        at any stream-clock advance (``None`` when the clock never moved).
        """
        wall = self.wall_time
        flows = self.flows

        def percentile(q: float) -> float:
            if not self._latency.count:
                return 0.0
            return self._latency.percentile(q) * 1000.0

        return {
            "flows": flows,
            "packets": self.packets,
            "wall_s": wall,
            "flows_per_s": flows / wall if wall > 0 else 0.0,
            "packets_per_s": self.packets / wall if wall > 0 else 0.0,
            "p50_ms": percentile(50),
            "p99_ms": percentile(99),
            "batches": self.batches,
            "mean_batch": self._batch.mean,
            "batches_by_trigger": self.batches_by_trigger,
            "oldest_pending_s": (
                self._oldest_pending.max if self._oldest_pending.samples
                else None
            ),
            "coalesced": self.coalesced,
            "cache_hit_rate": cache.hit_rate if cache is not None else None,
            "model_dtype": self.model_dtype,
            "numeric_policy": self.numeric_policy,
            "resilience": self.counters,
        }
