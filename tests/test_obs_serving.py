"""Tracing is observation-only — the serving differential, tracing on vs off.

The observability hard constraint (``docs/OBSERVABILITY.md``): attaching a
:class:`~repro.obs.trace.TraceRecorder` to the assembler and engine must not
perturb a single served bit.  This suite runs every E14 traffic scenario
through the serving loop, once without a tracer and once with (unsharded,
and through sharded assemblers whose shards share the tracer), and asserts
the served flow-record multiset *and* logits are bit-identical (the same
``prediction_key`` comparison the sharded bit-identity suite uses).  It also
sanity-checks the traces themselves: every served flow has its full span
lifecycle.  CI runs this as the dedicated observability step.
"""

from __future__ import annotations

import pytest

from repro.obs import TraceRecorder
from repro.serve import ColumnsSource, ShardedAssembler, serve_stream

from test_serve_sharded import (
    SCENARIOS,
    make_assembler,
    make_engine,
    prediction_key,
    run_serve,
    scenario,  # noqa: F401  (module-scoped fixture, reused here)
)

CHUNK_ROWS = 13

# Tracing-off references, computed once per scenario — against THIS module's
# fixture instances.  Deliberately not test_serve_sharded's shared sync cache:
# flow keys carry process-global connection ids, so each module's regenerated
# captures differ by key and the caches must not cross-pollinate.
_REFERENCE: dict = {}


def reference(scn):
    if scn["name"] not in _REFERENCE:
        predictions = run_serve(
            scn, ColumnsSource(scn["columns"], chunk_rows=CHUNK_ROWS)
        )
        _REFERENCE[scn["name"]] = sorted(prediction_key(p) for p in predictions)
    return _REFERENCE[scn["name"]]


def traced_serve(scn, shards=None):
    """One full serve of the scenario with tracing on; returns (keys, tracer).

    ``shards=k`` serves through a k-way sharded assembler whose shards share
    the tracer.
    """
    tracer = TraceRecorder()
    assembler = make_assembler(scn, idle_timeout=0.0, tracer=tracer)
    if shards is not None:
        assembler = ShardedAssembler.from_template(assembler, shards)
    engine = make_engine(scn, tracer=tracer)
    predictions = list(serve_stream(
        ColumnsSource(scn["columns"], chunk_rows=CHUNK_ROWS), assembler, engine,
    ))
    return sorted(prediction_key(p) for p in predictions), tracer, predictions


class TestTracingIsObservationOnly:
    """Served multiset + logits bit-identical, tracing on vs tracing off."""

    def test_sync_bit_identical(self, scenario):
        expected = reference(scenario)
        traced, _, _ = traced_serve(scenario)
        assert traced == expected

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_sharded_bit_identical(self, scenario, shards):
        # Traced sharded assembly vs the untraced unsharded reference.
        expected = reference(scenario)
        traced, _, _ = traced_serve(scenario, shards=shards)
        assert traced == expected


class TestTraceCoversTheServedFlows:
    """The trace is complete and well-formed for every served flow."""

    def test_sync_lifecycle_per_flow(self, scenario):
        _, tracer, predictions = traced_serve(scenario)
        # In-flow recording order: cache hits are announced just before the
        # cached result is emitted, hence cache_hit slots in ahead of emitted.
        rank = {stage: i for i, stage in enumerate((
            "first_packet", "flow_closed", "encode", "batched", "inferred",
            "cache_hit", "emitted",
        ))}
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

    @pytest.mark.parametrize("shards", [2])
    def test_sharded_spans_cover_every_flow(self, scenario, shards):
        # Shards share one recorder: each served flow is emitted exactly
        # once and keeps its assembly-side spans, whichever shard held it.
        _, tracer, predictions = traced_serve(scenario, shards=shards)
        emitted = [s for s in tracer.spans if s.stage == "emitted"]
        assert len(emitted) == len(predictions)
        assert sorted((s.flow, s.generation) for s in emitted) == sorted(
            (str(p.record.key), p.record.generation) for p in predictions
        )
        for p in predictions:
            stages = {
                s.stage
                for s in tracer.spans_for(p.record.key, p.record.generation)
            }
            assert {"first_packet", "flow_closed", "encode", "emitted"} <= stages


def test_all_scenarios_present():
    """The sweep really covers the five E14 scenarios."""
    assert sorted(SCENARIOS) == ["attack", "dns", "enterprise", "http", "tls"]
