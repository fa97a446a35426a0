"""Unified observability: bounded metrics, per-flow traces, kernel profiles.

Three surfaces, one substrate:

* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` of counters, gauges
  and fixed-bucket log-scale histograms.  Bounded memory (O(buckets), never
  O(observations)), exportable as JSON.
  :class:`repro.serve.report.ServingReport` and
  :class:`repro.nn.trainer.TrainingHistory` are both expressed over it.
* :mod:`repro.obs.trace` — :class:`TraceRecorder` collecting per-flow spans
  (first_packet → flow_closed → encode → batched → inferred → emitted, plus
  resilience events) from the serving stack, with a JSONL exporter and the
  analysis helpers ``tools/trace_report.py`` renders.
* Kernel profiling — :func:`enable_kernel_profiling` (re-exported from
  :mod:`repro.nn.kernels`) surfaces per-fused-kernel call counts/wall time
  and :class:`~repro.nn.kernels.ScratchPool` hit/miss/bytes through the
  same registry, behind a process-global default-off switch.

Two invariants hold everywhere: **off is free** (every hook site is a
single ``is not None`` check; with no recorder or profiler installed the
instrumented code paths are behaviorally identical to uninstrumented), and
**on observes only** (tracing/profiling never reorders, drops or perturbs
the data — served records and logits stay bit-identical).  See
``docs/OBSERVABILITY.md``.
"""

from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .trace import (
    STAGE_ORDER,
    Span,
    TraceRecorder,
    critical_paths,
    load_trace,
    stage_breakdown,
)

# Kernel profiling lives in repro.nn.kernels (next to the kernels it
# instruments; kernels.py never imports obs at module level, so this
# re-export cannot form a cycle).
from ..nn.kernels import (
    KernelProfiler,
    disable_kernel_profiling,
    enable_kernel_profiling,
    kernel_profiler,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "STAGE_ORDER",
    "Span",
    "TraceRecorder",
    "load_trace",
    "stage_breakdown",
    "critical_paths",
    "KernelProfiler",
    "enable_kernel_profiling",
    "disable_kernel_profiling",
    "kernel_profiler",
]
