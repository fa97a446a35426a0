"""Per-flow trace spans: where did this flow's 40 ms go?

A *trace* is the sequence of spans and events one flow passes through on
its way from first packet to emitted prediction:

====================  ======  ==============================================
stage                 kind    recorded by
====================  ======  ==============================================
``first_packet``      event   :class:`~repro.serve.assembler.StreamingFlowAssembler`
                              when a flow opens (``packet_ts`` attr carries
                              the capture timestamp)
``flow_closed``       event   the assembler when the flow closes
                              (``reason``/``packet_count`` attrs)
``encode``            span    the assembler, around the offline-identical
                              ``encode_columns`` of the closed flow
``batched``           span    :class:`~repro.serve.engine.InferenceEngine`,
                              submit until the flow's micro-batch ran
                              (queue-wait)
``inferred``          span    the engine, around the model forward (shared
                              start/end for every row of the batch)
``emitted``           event   the engine when the prediction is handed to
                              the caller (``cached``/``degraded`` attrs)
``cache_hit``         event   the engine on a prediction-cache hit
``dead_letter``       event   :class:`~repro.serve.resilience.DeadLetterQueue`
                              with full drop provenance
``worker_restart``    event   :class:`~repro.serve.resilience.SupervisedForward`
                              when it retries a crashed forward
                              (``error``/``rows`` attrs)
====================  ======  ==============================================

Two invariants make tracing safe to leave wired into the serving stack:

* **Zero overhead off.**  Every hook site is guarded by a single
  ``if tracer is not None`` attribute check; with no recorder installed the
  serving code path is byte-for-byte the pre-tracing behavior.
* **Observation only.**  The recorder never reorders, drops or copies the
  data it observes — tracing on serves the bit-identical multiset of
  records and logits as tracing off (gated differentially in
  ``tests/test_obs_serving.py``).

Time comes from an **injectable clock** (default
:func:`time.perf_counter`).  Stream-domain facts (capture timestamps, close
reasons) ride in span attrs, so the clock only orders pipeline work; tests
inject a counting clock to make whole traces deterministic.

Export is JSONL, one span or event per line::

    {"flow": "conn-3", "generation": 0, "stage": "inferred",
     "kind": "span", "start": 1.25, "end": 1.31, "attrs": {"batch": 8}}

``tools/trace_report.py`` renders the per-stage latency breakdown and
critical-path summary from such a file; the analysis helpers it uses
(:func:`stage_breakdown`, :func:`critical_paths`) live here so benchmarks
and tests share one implementation.
"""

from __future__ import annotations

import dataclasses
import json
import time

import numpy as np

__all__ = [
    "Span",
    "TraceRecorder",
    "load_trace",
    "stage_breakdown",
    "critical_paths",
]

#: Pipeline stage order, for rendering (unknown stages sort after these).
STAGE_ORDER = (
    "first_packet",
    "flow_closed",
    "encode",
    "batched",
    "inferred",
    "emitted",
    "cache_hit",
    "dead_letter",
    "worker_restart",
)


@dataclasses.dataclass
class Span:
    """One traced span (``start < end``) or point event (``start == end``)."""

    flow: str
    generation: int
    stage: str
    kind: str  # "span" | "event"
    start: float
    end: float
    attrs: dict

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_row(self) -> dict:
        return {
            "flow": self.flow,
            "generation": self.generation,
            "stage": self.stage,
            "kind": self.kind,
            "start": self.start,
            "end": self.end,
            "attrs": self.attrs,
        }


class TraceRecorder:
    """Collect :class:`Span` rows from the serving stages.

    Parameters
    ----------
    clock:
        Zero-arg callable returning the current time as a float.  Defaults
        to :func:`time.perf_counter` (wall latency).  Tests inject a
        deterministic counter so traces are reproducible run to run.
    max_spans:
        Optional bound on retained spans.  When reached, further spans are
        dropped (counted in :attr:`dropped`) — the recorder never grows
        without limit on an unbounded stream.
    """

    def __init__(self, clock=time.perf_counter, max_spans: "int | None" = None):
        if max_spans is not None and max_spans <= 0:
            raise ValueError("max_spans must be positive (or None)")
        self.clock = clock
        self.max_spans = max_spans
        self.spans: list[Span] = []
        self.dropped = 0

    def __len__(self) -> int:
        return len(self.spans)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _append(self, span: Span) -> None:
        if self.max_spans is not None and len(self.spans) >= self.max_spans:
            self.dropped += 1
            return
        self.spans.append(span)

    def record_span(
        self, flow_key, generation: int, stage: str,
        start: float, end: float, **attrs
    ) -> None:
        """Record one completed span of ``stage`` for a flow."""
        self._append(Span(
            flow=str(flow_key), generation=int(generation), stage=stage,
            kind="span", start=float(start), end=float(end), attrs=attrs,
        ))

    def annotate(
        self, flow_key, generation: int, stage: str,
        t: "float | None" = None, **attrs
    ) -> None:
        """Record a point event (``t`` defaults to the recorder clock)."""
        t = float(self.clock() if t is None else t)
        self._append(Span(
            flow=str(flow_key), generation=int(generation), stage=stage,
            kind="event", start=t, end=t, attrs=attrs,
        ))

    # ------------------------------------------------------------------
    # Reading / export
    # ------------------------------------------------------------------
    def spans_for(self, flow_key, generation: "int | None" = None) -> list[Span]:
        """Every span/event of one flow (optionally one generation)."""
        flow = str(flow_key)
        return [
            span for span in self.spans
            if span.flow == flow
            and (generation is None or span.generation == generation)
        ]

    def to_rows(self) -> list[dict]:
        return [span.to_row() for span in self.spans]

    def export_jsonl(self, path) -> int:
        """Write one JSON object per span to ``path``; returns the count."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_row(), sort_keys=True) + "\n")
        return len(self.spans)

    def stage_breakdown(self) -> dict:
        """Per-stage latency aggregates over the recorded spans."""
        return stage_breakdown(self.to_rows())

    def critical_paths(self) -> list[dict]:
        """Per-flow end-to-end paths over the recorded spans."""
        return critical_paths(self.to_rows())


# ----------------------------------------------------------------------
# Trace analysis (shared by tools/trace_report.py, benchmarks and tests)
# ----------------------------------------------------------------------
def load_trace(path) -> list[dict]:
    """Read a JSONL trace file back into span rows."""
    rows = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows


def _stage_rank(stage: str) -> tuple[int, str]:
    try:
        return (STAGE_ORDER.index(stage), stage)
    except ValueError:
        return (len(STAGE_ORDER), stage)


def stage_breakdown(rows: list[dict]) -> dict:
    """Aggregate span durations per stage.

    Returns ``{stage: {count, total_ms, mean_ms, p50_ms, p99_ms}}`` over the
    ``kind == "span"`` rows, in pipeline order.  Events (zero-duration) are
    reported with their count only.
    """
    durations: dict[str, list[float]] = {}
    events: dict[str, int] = {}
    for row in rows:
        if row["kind"] == "span":
            durations.setdefault(row["stage"], []).append(
                row["end"] - row["start"]
            )
        else:
            events[row["stage"]] = events.get(row["stage"], 0) + 1
    breakdown: dict[str, dict] = {}
    for stage in sorted(set(durations) | set(events), key=_stage_rank):
        if stage in durations:
            values = np.asarray(durations[stage], dtype=float) * 1000.0
            breakdown[stage] = {
                "kind": "span",
                "count": int(values.size),
                "total_ms": float(values.sum()),
                "mean_ms": float(values.mean()),
                "p50_ms": float(np.percentile(values, 50)),
                "p99_ms": float(np.percentile(values, 99)),
            }
        else:
            breakdown[stage] = {"kind": "event", "count": events[stage]}
    return breakdown


def critical_paths(rows: list[dict]) -> list[dict]:
    """Per-flow end-to-end latency with per-stage attribution.

    For every ``(flow, generation)`` that was emitted (or dead-lettered),
    the end-to-end duration runs from its earliest recorded time to its
    latest; each span stage contributes its summed duration, and whatever
    the spans do not cover is reported as ``unattributed`` (inter-stage
    hand-off).  Sorted by end-to-end duration, longest first — the flows an
    operator asks about.
    """
    flows: dict[tuple[str, int], list[dict]] = {}
    for row in rows:
        flows.setdefault((row["flow"], row["generation"]), []).append(row)
    paths = []
    for (flow, generation), flow_rows in flows.items():
        start = min(row["start"] for row in flow_rows)
        end = max(row["end"] for row in flow_rows)
        stages: dict[str, float] = {}
        for row in flow_rows:
            if row["kind"] == "span":
                stages[row["stage"]] = (
                    stages.get(row["stage"], 0.0) + row["end"] - row["start"]
                )
        total = end - start
        covered = sum(stages.values())
        events = sorted(
            {row["stage"] for row in flow_rows if row["kind"] == "event"},
            key=_stage_rank,
        )
        paths.append({
            "flow": flow,
            "generation": generation,
            "end_to_end_ms": total * 1000.0,
            "stages_ms": {
                stage: stages[stage] * 1000.0
                for stage in sorted(stages, key=_stage_rank)
            },
            "unattributed_ms": max(total - covered, 0.0) * 1000.0,
            "events": events,
        })
    paths.sort(key=lambda p: (-p["end_to_end_ms"], p["flow"], p["generation"]))
    return paths
