"""Tracing is observation-only — the serving differential, tracing on vs off.

The observability hard constraint (``docs/OBSERVABILITY.md``): attaching a
:class:`~repro.obs.trace.TraceRecorder` to the assembler and engine must not
perturb a single served bit.  This suite runs every E14 traffic scenario
through the serving loop at several chunk sizes, with and without idle
eviction, once without a tracer and once with, and asserts
the served flow-record multiset *and* logits are bit-identical (the same
``prediction_key`` comparison the scenario suite uses).  It also
sanity-checks the traces themselves: every served flow has its full span
lifecycle.  CI runs this as the dedicated observability step.
"""

from __future__ import annotations

import pytest

from repro.obs import TraceRecorder
from repro.serve import ColumnsSource, serve_stream

from test_serve_scenarios import (
    SCENARIOS,
    make_assembler,
    make_engine,
    prediction_key,
    run_serve,
    scenario,  # noqa: F401  (module-scoped fixture, reused here)
)

CHUNK_ROWS = 13
#: Scenarios whose trace repeats a context inside one 64-flow bucket.
REPEATING = ("attack", "enterprise")

# Tracing-off references, computed once per scenario — against THIS module's
# fixture instances.  Deliberately not test_serve_scenarios' shared cache:
# flow keys carry process-global connection ids, so each module's regenerated
# captures differ by key and the caches must not cross-pollinate.
_REFERENCE: dict = {}


def reference(scn, chunk_rows=CHUNK_ROWS, idle_timeout=0.0):
    cache_key = (scn["name"], chunk_rows, idle_timeout)
    if cache_key not in _REFERENCE:
        predictions = run_serve(
            scn, ColumnsSource(scn["columns"], chunk_rows=chunk_rows),
            idle_timeout=idle_timeout,
        )
        _REFERENCE[cache_key] = sorted(prediction_key(p) for p in predictions)
    return _REFERENCE[cache_key]


def traced_serve(scn, chunk_rows=CHUNK_ROWS, idle_timeout=0.0):
    """One full serve of the scenario with tracing on; returns (keys, tracer)."""
    tracer = TraceRecorder()
    assembler = make_assembler(scn, idle_timeout=idle_timeout, tracer=tracer)
    engine = make_engine(scn, tracer=tracer)
    predictions = list(serve_stream(
        ColumnsSource(scn["columns"], chunk_rows=chunk_rows), assembler, engine,
    ))
    return sorted(prediction_key(p) for p in predictions), tracer, predictions


def check_lifecycle(tracer, predictions):
    """Every served flow is emitted once, with its spans in pipeline order."""
    # In-flow recording order: cache hits are announced just before the
    # cached result is emitted, hence cache_hit slots in ahead of emitted.
    rank = {stage: i for i, stage in enumerate((
        "first_packet", "flow_closed", "encode", "batched", "inferred",
        "cache_hit", "emitted",
    ))}
    # Each served flow is emitted exactly once.
    emitted = [s for s in tracer.spans if s.stage == "emitted"]
    assert sorted((s.flow, s.generation) for s in emitted) == sorted(
        (str(p.record.key), p.record.generation) for p in predictions
    )
    for p in predictions:
        spans = tracer.spans_for(p.record.key, p.record.generation)
        stages = [s.stage for s in spans]
        assert stages[0] == "first_packet"
        assert "flow_closed" in stages and "encode" in stages
        assert stages[-1] == "emitted"
        if p.cached:
            assert "cache_hit" in stages
        else:
            assert "batched" in stages and "inferred" in stages
        # Pipeline order holds within a flow (sync path, single clock).
        assert [rank[s] for s in stages if s in rank] == sorted(
            rank[s] for s in stages if s in rank
        )


class TestTracingIsObservationOnly:
    """Served multiset + logits bit-identical, tracing on vs tracing off."""

    def test_sync_bit_identical(self, scenario):
        expected = reference(scenario)
        traced, _, _ = traced_serve(scenario)
        assert traced == expected

    @pytest.mark.parametrize("chunk_rows", [1, 50, None])
    def test_bit_identical_across_chunking(self, scenario, chunk_rows):
        # Chunk boundaries decide when encode spans open and close; the
        # served bits must not notice, down to one packet per chunk.
        chunk_rows = chunk_rows or len(scenario["columns"])
        traced, _, _ = traced_serve(scenario, chunk_rows=chunk_rows)
        assert traced == reference(scenario, chunk_rows)


    def test_bit_identical_with_in_bucket_repeats(self, scenario):
        # No cache and 64-flow buckets: repeated contexts wait in the same
        # bucket and share one forward row (coalescing).  Tracing must not
        # change which flows share a row, nor a bit of what each is served.
        def serve(tracer):
            engine = make_engine(scenario, cache=None, batch_size=64, tracer=tracer)
            predictions = list(serve_stream(
                ColumnsSource(scenario["columns"], chunk_rows=CHUNK_ROWS),
                make_assembler(scenario, tracer=tracer), engine,
            ))
            keys = sorted(prediction_key(p) for p in predictions)
            return keys, engine.summary()["coalesced"]

        plain, coalesced = serve(None)
        tracer = TraceRecorder()
        assert serve(tracer) == (plain, coalesced)
        assert len(plain) == len(reference(scenario))
        if scenario["name"] in REPEATING:
            assert coalesced > 0


    def test_clock_accounting_identical(self, scenario):
        # The run triggers and the last-packet-to-emit histogram follow the
        # capture-time clock, so tracing cannot move a count or a bucket.
        def serve(tracer):
            engine = make_engine(scenario, tracer=tracer)
            list(serve_stream(
                ColumnsSource(scenario["columns"], chunk_rows=CHUNK_ROWS),
                make_assembler(scenario, idle_timeout=0.2, tracer=tracer),
                engine,
            ))
            lag = engine.report.metrics.get("serve.last_packet_to_emit_s")
            summary = engine.summary()
            return (
                summary["batches_by_trigger"], summary["coalesced"],
                summary["last_packet_to_emit_p50_s"],
                summary["last_packet_to_emit_p99_s"],
                lag.counts.tolist(), lag.count, lag.total,
            )

        plain = serve(None)
        assert plain[0]["clock"] > 0 and plain[5] > 0
        assert serve(TraceRecorder()) == plain


class TestTraceCoversTheServedFlows:
    """The trace is complete and well-formed for every served flow."""

    def test_sync_lifecycle_per_flow(self, scenario):
        _, tracer, predictions = traced_serve(scenario)
        check_lifecycle(tracer, predictions)

    def test_idle_timeout_lifecycle_per_flow(self, scenario):
        # With idle eviction flows close mid-stream and one key serves
        # several generations: each generation keeps its own lifecycle, and
        # the traced run still serves the untraced bits.
        traced, tracer, predictions = traced_serve(scenario, idle_timeout=0.2)
        assert traced == reference(scenario, idle_timeout=0.2)
        check_lifecycle(tracer, predictions)


def test_all_scenarios_present():
    """The sweep really covers the five E14 scenarios."""
    assert sorted(SCENARIOS) == ["attack", "dns", "enterprise", "http", "tls"]
