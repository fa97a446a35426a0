"""Serving accounting: throughput, latency percentiles, batch shapes.

The :class:`ServingReport` is the measurement surface the ROADMAP's "serves
heavy traffic" goal is tracked by: every completed prediction is observed
with its submit-to-completion latency and its last-packet-to-emit lag, and
:meth:`summary` folds the stream into the numbers ``tools/bench_report.py``
publishes in ``BENCH_e14.json`` (flows/s, packets/s, p50/p99 latency, cache
hit rate, batch shapes).  Accounting is per run, never per flow: the flows
one forward served are recorded with one histogram update and one counter
update each (:meth:`ServingReport.observe_run`); only cache hits, emitted
one per submission, are recorded one at a time.

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

import math
import time

import numpy as np

from ..obs.metrics import MetricsRegistry

__all__ = ["ServingReport"]

#: Resilience counters every report carries (see :meth:`ServingReport.count`).
_COUNTERS = ("errors", "retries", "quarantined", "degraded", "restarts")

#: Why a run served the pending flows: the stream clock advanced,
#: ``max_pending`` flows waited, or the stream ended.
_TRIGGERS = ("clock", "full", "flush")

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
        self._emit_lag = self.metrics.histogram(
            "serve.last_packet_to_emit_s", *_LATENCY_LAYOUT
        )
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
        """Runs, by what triggered them: ``clock``, ``full`` or ``flush``."""
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

    def observe(self, prediction, clock: float = -math.inf) -> None:
        """Record one completed :class:`~repro.serve.engine.FlowPrediction`
        emitted on its own (a cache hit) at engine clock ``clock``."""
        self._latency.observe(prediction.latency)
        self._flows.inc()
        self._packets.inc(prediction.record.packet_count)
        if prediction.cached:
            self._cached.inc()
        if clock > -math.inf:
            self._emit_lag.observe(max(clock - prediction.record.end_time, 0.0))
        self._last_completion = time.perf_counter()

    def observe_run(
        self, predictions, size: int, trigger: str, coalesced: int = 0,
        clock: float = -math.inf,
    ) -> None:
        """Record one model forward over ``size`` pending flows.

        ``predictions`` are the flows it emitted (dropped flows are not
        among them), ``trigger`` is why it ran (see
        :attr:`batches_by_trigger`) and ``coalesced`` of the flows were
        served from another flow's forward row (see :attr:`coalesced`).
        At engine clock ``clock`` (``-inf``: never advanced, and the lag is
        not recorded) each flow's last-packet-to-emit lag is ``clock`` minus
        its ``end_time``, floored at 0: a flow emitted before the clock
        reaches its last packet counts 0.  One histogram update and one
        counter update per metric, whatever the run's size.
        """
        self._batch.observe(size)
        self._triggers[trigger].inc()
        self._coalesced.inc(coalesced)
        if not predictions:
            return
        self._latency.observe_many([p.latency for p in predictions])
        self._flows.inc(len(predictions))
        self._packets.inc(sum(p.record.packet_count for p in predictions))
        if clock > -math.inf:
            ends = np.array([p.record.end_time for p in predictions], dtype=float)
            self._emit_lag.observe_many(np.maximum(clock - ends, 0.0))
        self._last_completion = time.perf_counter()

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
        ``last_packet_to_emit_p50_s``/``_p99_s`` are percentiles of the
        capture-seconds lag from each flow's last packet to its emission,
        by the engine clock (``None`` when the clock never moved).
        """
        wall = self.wall_time
        flows = self.flows

        def percentile(q: float) -> float:
            if not self._latency.count:
                return 0.0
            return self._latency.percentile(q) * 1000.0

        def lag(q: float) -> "float | None":
            if not self._emit_lag.count:
                return None
            return self._emit_lag.percentile(q)

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
            "last_packet_to_emit_p50_s": lag(50),
            "last_packet_to_emit_p99_s": lag(99),
            "coalesced": self.coalesced,
            "cache_hit_rate": cache.hit_rate if cache is not None else None,
            "model_dtype": self.model_dtype,
            "numeric_policy": self.numeric_policy,
            "resilience": self.counters,
        }
