"""``repro.serve`` — streaming inference over live packet streams.

The offline pipeline (generate/parse -> group -> encode -> train) assumes
the whole trace is in memory; this subsystem turns the same columnar
substrate into an *online* engine, the system shape the paper's
"foundation model that downstream tasks query on live traffic" implies:

* :mod:`repro.serve.stream` — packet sources yielding bounded
  :class:`~repro.net.columns.PacketColumns` chunks (pcap replay with
  optional timestamp pacing and lazy application decode, in-memory replay,
  live-simulator wrapping of any traffic generator);
* :mod:`repro.serve.assembler` — :class:`StreamingFlowAssembler`,
  incremental flow/session grouping across chunk boundaries with
  NetFlow-style idle/active timeouts, emitting closed flows whose encoded
  contexts are bit-identical to the offline
  :meth:`~repro.context.builders.FlowContextBuilder.encode_columns`;
* :mod:`repro.serve.engine` — :class:`InferenceEngine`, continuous
  batching over a classifier's eval-mode forward: every pending flow runs
  in one length-sorted ragged forward at each stream-clock tick (or when
  ``max_pending`` flows wait), with a :class:`PredictionCache` keyed by
  the encoded context;
* :mod:`repro.serve.report` — :class:`ServingReport`, the
  throughput/latency/cache scorecard published in ``BENCH_e14.json``,
  backed by the bounded :class:`repro.obs.metrics.MetricsRegistry`; the
  assembler, engine and resilience layer also accept a
  :class:`repro.obs.trace.TraceRecorder` for per-flow trace spans (see
  ``docs/OBSERVABILITY.md``);
* :mod:`repro.serve.faults` — :class:`FaultPlan`, the deterministic seeded
  fault injector (corrupt chunks, stage raises, NaN logits) the chaos
  harness drives;
* :mod:`repro.serve.resilience` — per-stage error policies
  (``fail_fast``/``quarantine``/``degrade``), the :class:`DeadLetterQueue`
  with full drop provenance, :class:`SupervisedForward` (a crashed
  forward retried in place, with bounded restarts and backoff), and
  assembler checkpoint/restore helpers.

``serve_stream(source, assembler, engine)`` wires the three stages into a
single generator of :class:`FlowPrediction` objects, in one loop in the
calling thread; its resilience options swap guarded stand-ins in for the
stages and run the same loop.  See ``docs/SERVING.md`` and
``examples/streaming_inference.py``.
"""

from .assembler import FlowRecord, StreamingFlowAssembler
from .engine import FlowPrediction, InferenceEngine, PredictionCache, serve_stream
from .faults import (
    FAULT_SITES,
    AssemblyFaultError,
    EngineCrashError,
    FaultPlan,
    FaultSpec,
    ServingFaultError,
    SourceFaultError,
    wrap_classifier,
    wrap_source,
)
from .report import ServingReport
from .resilience import (
    POLICIES,
    AssemblyGuard,
    ChunkIntegrityError,
    DeadLetter,
    DeadLetterQueue,
    LogitGuard,
    PoisonedLogitsError,
    SupervisedForward,
    load_checkpoint,
    save_checkpoint,
)
from .stream import (
    ColumnsSource,
    PacketSource,
    PcapReplaySource,
    ScenarioSource,
    burst_chunks,
    chunk_clock,
    chunk_columns,
    interleave_columns,
)

__all__ = [
    "chunk_columns",
    "chunk_clock",
    "burst_chunks",
    "interleave_columns",
    "PacketSource",
    "ColumnsSource",
    "PcapReplaySource",
    "ScenarioSource",
    "FlowRecord",
    "StreamingFlowAssembler",
    "PredictionCache",
    "FlowPrediction",
    "InferenceEngine",
    "ServingReport",
    "serve_stream",
    # Fault injection
    "FAULT_SITES",
    "FaultPlan",
    "FaultSpec",
    "ServingFaultError",
    "SourceFaultError",
    "AssemblyFaultError",
    "EngineCrashError",
    "wrap_source",
    "wrap_classifier",
    # Resilience
    "POLICIES",
    "AssemblyGuard",
    "LogitGuard",
    "ChunkIntegrityError",
    "PoisonedLogitsError",
    "DeadLetter",
    "DeadLetterQueue",
    "SupervisedForward",
    "save_checkpoint",
    "load_checkpoint",
]
