"""Fault-tolerant serving (`repro.serve.faults` / `repro.serve.resilience`).

The chaos harness: seeded fault plans are driven through the serving
pipeline across traffic scenarios × fault sites × policies, and every run
is checked against the load-bearing *conservation invariant* — under
``quarantine``, the served multiset equals the fault-free sync multiset
minus exactly the dead-lettered flows, and every input packet is either
served or accounted for in the dead-letter queue.  ``fail_fast`` (the
default) must re-raise each fault exactly as the pre-resilience pipeline
would, ``degrade`` serves flagged fallbacks where only the model failed.

The recovery half gates bit-identity: a crashed forward retried in place
must serve the exact fault-free multiset (loses nothing, double-serves
nothing) at the same point of the stream, and an assembler restored from a
checkpoint must emit the exact records of the uninterrupted run.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.context import FlowContextBuilder
from repro.core import NetFMConfig, NetFoundationModel, SequenceClassifier
from repro.obs import TraceRecorder
from repro.serve import (
    AssemblyFaultError,
    ChunkIntegrityError,
    ColumnsSource,
    DeadLetterQueue,
    EngineCrashError,
    FaultPlan,
    FaultSpec,
    InferenceEngine,
    PoisonedLogitsError,
    PredictionCache,
    ServingReport,
    SourceFaultError,
    StreamingFlowAssembler,
    SupervisedForward,
    chunk_clock,
    chunk_columns,
    load_checkpoint,
    save_checkpoint,
    serve_stream,
)
from repro.serve.resilience import POLICIES
from repro.tokenize import FieldAwareTokenizer, Vocabulary
from repro.traffic import (
    AttackConfig,
    AttackGenerator,
    DNSWorkloadConfig,
    DNSWorkloadGenerator,
    EnterpriseScenarioConfig,
    EnterpriseScenario,
    HTTPWorkloadConfig,
    HTTPWorkloadGenerator,
    TLSWorkloadConfig,
    TLSWorkloadGenerator,
)

MAX_TOKENS = 64
CHUNK_ROWS = 13

SCENARIOS = {
    "dns": lambda: DNSWorkloadGenerator(
        DNSWorkloadConfig(seed=1, duration=8.0, num_clients=5, queries_per_client=6)
    ),
    "http": lambda: HTTPWorkloadGenerator(
        HTTPWorkloadConfig(seed=2, duration=8.0, num_sessions=8, requests_per_session=2)
    ),
    "tls": lambda: TLSWorkloadGenerator(
        TLSWorkloadConfig(seed=3, duration=8.0, num_sessions=10)
    ),
    "attack": lambda: AttackGenerator(
        AttackConfig(
            seed=4, duration=8.0, scan_ports=20, flood_packets=25,
            tunnel_queries=12, beacon_count=10, brute_force_attempts=15,
        )
    ),
    "enterprise": lambda: EnterpriseScenario(
        EnterpriseScenarioConfig(
            seed=6, duration=12.0, dns_clients=4, dns_queries_per_client=5,
            http_sessions=6, tls_sessions=6, iot_devices_per_type=1,
        )
    ),
}


@pytest.fixture(scope="module", params=sorted(SCENARIOS))
def scenario(request):
    """One scenario's capture plus a tiny trained-shape classifier."""
    columns = SCENARIOS[request.param]().generate_columns()
    tokenizer = FieldAwareTokenizer()
    builder = FlowContextBuilder(max_tokens=MAX_TOKENS)
    contexts = builder.build(columns.to_packets(), tokenizer)
    vocabulary = Vocabulary.build([c.tokens for c in contexts])
    config = NetFMConfig(
        vocab_size=len(vocabulary), d_model=32, num_layers=2, num_heads=4,
        d_ff=64, max_len=MAX_TOKENS, dropout=0.0, seed=0,
    )
    classifier = SequenceClassifier(NetFoundationModel(config), num_classes=4)
    return {
        "name": request.param,
        "columns": columns,
        "tokenizer": tokenizer,
        "vocabulary": vocabulary,
        "classifier": classifier,
    }


def make_assembler(scn, **kwargs):
    return StreamingFlowAssembler(
        scn["tokenizer"], scn["vocabulary"],
        builder=FlowContextBuilder(max_tokens=MAX_TOKENS), **kwargs,
    )


def make_engine(scn, classifier=None, **kwargs):
    kwargs.setdefault("batch_size", 8)
    kwargs.setdefault("cache", PredictionCache())
    return InferenceEngine(classifier or scn["classifier"], **kwargs)


def run_resilient(scn, chunk_rows=CHUNK_ROWS, idle_timeout=0.0, engine=None,
                  **options):
    """Serve the scenario's stream; return (predictions, engine)."""
    assembler = make_assembler(scn, idle_timeout=idle_timeout)
    engine = engine or make_engine(scn)
    source = ColumnsSource(scn["columns"], chunk_rows=chunk_rows)
    predictions = list(serve_stream(source, assembler, engine, **options))
    return predictions, engine


def prediction_key(p):
    """Everything the bit-identity contract covers, hashable."""
    return (
        str(p.record.key), p.record.generation,
        p.record.token_ids.tobytes(), p.record.attention_mask.tobytes(),
        p.record.label, p.record.packet_count,
        p.record.start_time, p.record.end_time, p.record.closed_by,
        p.logits.tobytes(),
    )


def record_key(r):
    return (
        str(r.key), r.generation, r.token_ids.tobytes(),
        r.attention_mask.tobytes(), r.label, r.packet_count,
        r.start_time, r.end_time, r.closed_by,
    )


def sync_predictions(scn, chunk_rows=CHUNK_ROWS, idle_timeout=0.0):
    """Fault-free sync reference, memoized per (chunk, idle) on the scenario
    instance itself: flow keys carry process-global connection ids, so a
    regenerated scenario must never reuse another instance's reference."""
    memo = scn.setdefault("sync_predictions", {})
    key = (chunk_rows, idle_timeout)
    if key not in memo:
        memo[key], _ = run_resilient(
            scn, chunk_rows=chunk_rows, idle_timeout=idle_timeout
        )
    return memo[key]


def check_conservation(scn, predictions, dead_letters, chunk_rows=CHUNK_ROWS,
                       idle_timeout=0.0):
    """The load-bearing invariant: served == sync minus the dead-lettered.

    Chunk-level entries (stage ``source``/``assembly``) poison a flow key
    from their generation onward; record-level entries (stage
    ``inference``/``output``) remove exactly one sync record each.  After
    removing both, the served (non-degraded) multiset must equal what is
    left of the fault-free sync multiset bit for bit, and the packet totals
    must balance.
    """
    sync = sync_predictions(scn, chunk_rows, idle_timeout)
    poisoned: dict[str, int] = {}
    record_level: list[tuple[str, int]] = []
    for entry in dead_letters:
        if entry.stage in ("source", "assembly"):
            key = str(entry.flow_key)
            poisoned[key] = min(poisoned.get(key, entry.generation), entry.generation)
        else:
            record_level.append((str(entry.flow_key), entry.generation))
    remaining = []
    unmatched = list(record_level)
    for p in sync:
        key = str(p.record.key)
        if key in poisoned and p.record.generation >= poisoned[key]:
            continue  # a poisoned flow's packets live in its chunk-level entry
        ident = (key, p.record.generation)
        if ident in unmatched:
            unmatched.remove(ident)
            continue
        remaining.append(prediction_key(p))
    # Every record-level dead letter names a record the sync path served.
    assert unmatched == []
    served = sorted(prediction_key(p) for p in predictions if not p.degraded)
    assert served == sorted(remaining)
    # Packet conservation: served + dead-lettered == every input packet.
    served_packets = sum(
        p.record.packet_count for p in predictions if not p.degraded
    )
    assert served_packets + dead_letters.packets == len(scn["columns"])
    # Degraded fallbacks are exactly the ``degraded`` dead letters.
    degraded = [p for p in predictions if p.degraded]
    assert len(degraded) == sum(
        1 for e in dead_letters if e.action == "degraded"
    )
    for p in degraded:
        assert not np.isfinite(p.logits).all() or not p.logits.any()


# ----------------------------------------------------------------------
# The chaos matrix: scenarios × fault sites × policies
# ----------------------------------------------------------------------
FAULT_CASES = {
    # name -> (plan factory, exception fail_fast must surface)
    "source-raise": (
        lambda: FaultPlan((FaultSpec("source", 1, "raise"),)), SourceFaultError,
    ),
    "source-corrupt": (
        lambda: FaultPlan((FaultSpec("source", 1, "corrupt"),)),
        ChunkIntegrityError,
    ),
    "assembly-raise": (
        lambda: FaultPlan((FaultSpec("assembly", 1, "raise"),)),
        AssemblyFaultError,
    ),
    "forward-crash": (
        lambda: FaultPlan((FaultSpec("forward", 0, "raise"),)), EngineCrashError,
    ),
    "logits-nan": (
        lambda: FaultPlan((FaultSpec("logits", 0, "nan"),)), PoisonedLogitsError,
    ),
}


class TestChaosMatrix:
    """Every (scenario, fault site, policy) cell honors its contract."""

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("case", sorted(FAULT_CASES))
    def test_policy_contract(self, scenario, case, policy):
        make_plan, failfast_error = FAULT_CASES[case]
        plan = make_plan()
        dlq = DeadLetterQueue()
        if policy == "fail_fast":
            with pytest.raises(failfast_error):
                run_resilient(scenario, fault_plan=plan, dead_letters=dlq)
            assert plan.fired  # the scheduled fault is what raised
            return
        predictions, engine = run_resilient(
            scenario, policy=policy, fault_plan=plan, dead_letters=dlq
        )
        assert plan.fired
        assert len(dlq) > 0
        check_conservation(scenario, predictions, dlq)
        counters = engine.report.summary()["resilience"]
        assert counters["errors"] >= 1
        if policy == "quarantine":
            assert counters["quarantined"] == len(dlq)
            assert not any(p.degraded for p in predictions)
        if policy == "degrade" and case in ("forward-crash", "logits-nan"):
            # Only the model failed: fallbacks are served, flagged.
            assert any(p.degraded for p in predictions)
            assert counters["degraded"] >= 1

    def test_dead_letters_carry_full_provenance(self, scenario):
        plan = FaultPlan((FaultSpec("source", 1, "raise"),))
        dlq = DeadLetterQueue()
        run_resilient(
            scenario, policy="quarantine", fault_plan=plan, dead_letters=dlq
        )
        assert len(dlq) > 0
        for entry in dlq:
            assert entry.stage == "source"
            assert entry.action == "dropped"
            assert entry.chunk_index == 1
            assert entry.flow_key is not None
            assert entry.generation >= 0
            assert entry.packet_count >= 1
            assert "SourceFaultError" in entry.error
        summary = dlq.summary()
        assert summary["entries"] == len(dlq)
        assert summary["packets"] == dlq.packets
        assert summary["by_stage"] == {"source": len(dlq)}
        assert summary["by_action"] == {"dropped": len(dlq)}

    def test_quarantine_keeps_eviction_schedule(self, scenario):
        # Timeout evictions depend on the stream clock; losing a chunk must
        # not stall time for the surviving flows (closed_by is part of the
        # bit-identity key the conservation check compares).
        plan = FaultPlan((FaultSpec("source", 1, "raise"),))
        dlq = DeadLetterQueue()
        predictions, _ = run_resilient(
            scenario, idle_timeout=0.2, policy="quarantine",
            fault_plan=plan, dead_letters=dlq,
        )
        assert plan.fired
        check_conservation(scenario, predictions, dlq, idle_timeout=0.2)

    @pytest.mark.parametrize("case", sorted(FAULT_CASES))
    def test_quarantine_conserves_on_small_chunks(self, scenario, case):
        # The same fault ordinals land on other flows when chunks are 4
        # rows, not 13: the invariant must not depend on where the chunk
        # boundaries fall.
        make_plan, _ = FAULT_CASES[case]
        plan = make_plan()
        dlq = DeadLetterQueue()
        predictions, _ = run_resilient(
            scenario, chunk_rows=4, policy="quarantine",
            fault_plan=plan, dead_letters=dlq,
        )
        assert plan.fired
        check_conservation(scenario, predictions, dlq, chunk_rows=4)

    def test_failed_read_advances_the_engine_clock(self, scenario):
        # The last read fails, but its lost chunk is known: the engine's
        # clock still reaches that chunk's time, so pending flows keep
        # ageing across the failure.
        chunks = list(chunk_columns(scenario["columns"], CHUNK_ROWS))
        plan = FaultPlan((FaultSpec("source", len(chunks) - 1, "raise"),))
        _, engine = run_resilient(
            scenario, policy="quarantine", fault_plan=plan,
        )
        assert plan.fired
        assert engine.clock == chunk_clock(chunks[-1])
        assert engine.clock > chunk_clock(chunks[-2])

    @pytest.mark.parametrize("scenario", ["dns"], indirect=True)
    def test_chunk_index_counts_failed_reads(self, scenario):
        # Read 2 fails at the source, so the sixth assembled chunk (assembly
        # ordinal 5) is read 6: provenance must number every read, failed
        # or not.
        plan = FaultPlan((
            FaultSpec("source", 2, "raise"), FaultSpec("assembly", 5, "raise"),
        ))
        dlq = DeadLetterQueue()
        predictions, _ = run_resilient(
            scenario, chunk_rows=4, policy="quarantine",
            fault_plan=plan, dead_letters=dlq,
        )
        indices = {}
        for entry in dlq:
            indices.setdefault(entry.stage, set()).add(entry.chunk_index)
        assert indices == {"source": {2}, "assembly": {6}}
        check_conservation(scenario, predictions, dlq, chunk_rows=4)


class TestRandomChaosSweep:
    """Seeded random plans (the CI chaos job sweeps CHAOS_SEED)."""

    SEED = int(os.environ.get("CHAOS_SEED", "0"))

    @pytest.mark.parametrize("policy", ["quarantine", "degrade"])
    @pytest.mark.parametrize("draw", [0, 1])
    def test_random_plan_conserves(self, scenario, policy, draw):
        plan = FaultPlan.random(self.SEED * 100 + draw, faults=3, max_index=8)
        dlq = DeadLetterQueue()
        predictions, _ = run_resilient(
            scenario, policy=policy, fault_plan=plan, dead_letters=dlq,
            max_restarts=3, restart_backoff=0.005,
        )
        check_conservation(scenario, predictions, dlq)

    @pytest.mark.parametrize("policy", ["quarantine", "degrade"])
    @pytest.mark.parametrize("draw", [0, 1])
    def test_random_plan_conserves_with_idle_timeout(self, scenario, policy, draw):
        # The same seeded plans while idle eviction closes flows mid-stream.
        plan = FaultPlan.random(self.SEED * 100 + draw, faults=3, max_index=8)
        dlq = DeadLetterQueue()
        predictions, _ = run_resilient(
            scenario, idle_timeout=0.2, policy=policy, fault_plan=plan,
            dead_letters=dlq, max_restarts=3, restart_backoff=0.005,
        )
        check_conservation(scenario, predictions, dlq, idle_timeout=0.2)


# ----------------------------------------------------------------------
# Worker supervision: a crashed forward is retried in place
# ----------------------------------------------------------------------
def float32_engine(scn):
    """An engine over the float32 serving build: batches of 4, no cache."""
    build = scn.get("float32")
    if build is None:
        build = scn["float32"] = scn["classifier"].serving_build("float32")
    return make_engine(scn, build, batch_size=4, cache=None)


class _AlwaysCrash:
    num_classes = 4

    def predict_logits(self, ids, mask=None, **kwargs):
        raise RuntimeError("crash")


class TestWorkerSupervision:
    @pytest.mark.parametrize("policy", ["fail_fast", "quarantine"])
    @pytest.mark.parametrize("build, crash", [
        ("float64", 0), ("float32", 0), ("float32", 1), ("float32", 2),
    ])
    def test_restart_recovery_is_bit_identical(self, scenario, policy, build,
                                               crash):
        # A crash with restart budget left must lose nothing: the retried
        # forward serves the exact fault-free multiset, logits to the last
        # bit.  The float64 run crashes at ordinal 0 so the fault fires for
        # every scenario (without timeouts every flow closes at flush, in a
        # single forward).  The float32 runs close flows on idle and make at
        # least three forwards in every scenario.  They hold no
        # batch-invariance guarantee, so they are bit-identical only because
        # the retry runs the same batch.
        plan = FaultPlan((FaultSpec("forward", crash, "raise"),))
        dlq = DeadLetterQueue()
        if build == "float64":
            engine, idle_timeout = make_engine(scenario), 0.0
            reference = sync_predictions(scenario)
        else:
            engine, idle_timeout = float32_engine(scenario), 0.2
            reference, _ = run_resilient(
                scenario, idle_timeout=0.2, engine=float32_engine(scenario)
            )
        predictions, engine = run_resilient(
            scenario, idle_timeout=idle_timeout, engine=engine, policy=policy,
            fault_plan=plan, dead_letters=dlq, max_restarts=2,
            restart_backoff=0.005,
        )
        reference = sorted(prediction_key(p) for p in reference)
        assert sorted(prediction_key(p) for p in predictions) == reference
        assert plan.fired
        assert len(dlq) == 0
        counters = engine.report.summary()["resilience"]
        assert counters["restarts"] >= 1
        assert counters["retries"] >= 1

    def test_restart_recovery_with_idle_timeout(self, scenario):
        # A retry while idle eviction closes flows mid-stream serves the
        # fault-free multiset of the same timeout, close reasons included.
        plan = FaultPlan((FaultSpec("forward", 0, "raise"),))
        dlq = DeadLetterQueue()
        predictions, engine = run_resilient(
            scenario, idle_timeout=0.2, policy="quarantine", fault_plan=plan,
            dead_letters=dlq, max_restarts=2, restart_backoff=0.005,
        )
        reference = sorted(
            prediction_key(p)
            for p in sync_predictions(scenario, idle_timeout=0.2)
        )
        assert sorted(prediction_key(p) for p in predictions) == reference
        assert plan.fired
        assert len(dlq) == 0
        assert engine.report.summary()["resilience"]["restarts"] >= 1

    def test_tick_crash_recovery_is_bit_identical(self, scenario):
        # Idle eviction closes flows mid-stream and every chunk's clock tick
        # runs them, so the first forward crashes inside advance_clock: the
        # retry runs the same rows in the same call, and the run still
        # serves the fault-free multiset to the last bit.
        plan = FaultPlan((FaultSpec("forward", 0, "raise"),))
        dlq = DeadLetterQueue()
        predictions, engine = run_resilient(
            scenario, idle_timeout=0.2, policy="quarantine", fault_plan=plan,
            dead_letters=dlq, max_restarts=2, restart_backoff=0.0,
        )
        reference = sorted(
            prediction_key(p)
            for p in sync_predictions(scenario, idle_timeout=0.2)
        )
        assert sorted(prediction_key(p) for p in predictions) == reference
        assert plan.fired
        assert len(dlq) == 0
        summary = engine.summary()
        assert summary["resilience"]["restarts"] == 1
        assert summary["batches_by_trigger"]["clock"] >= 1

    @pytest.mark.parametrize("max_pending", [4, 256])
    @pytest.mark.parametrize("crash", [0, 1, 2])
    def test_crash_keeps_every_flow_on_its_tick(self, scenario, max_pending,
                                                crash):
        # A recovered crash must not delay anyone: every flow is yielded
        # while the same source chunk is served as in the fault-free run,
        # whether ticks or the pending bound run the forwards.
        def chunk_served(**options):
            reads = []

            def source():
                for chunk in chunk_columns(scenario["columns"], CHUNK_ROWS):
                    reads.append(chunk)
                    yield chunk

            stream = serve_stream(
                source(), make_assembler(scenario, idle_timeout=0.2),
                make_engine(scenario, max_pending=max_pending), **options,
            )
            return {
                (str(p.record.key), p.record.generation): len(reads)
                for p in stream
            }

        plan = FaultPlan((FaultSpec("forward", crash, "raise"),))
        recovered = chunk_served(
            policy="quarantine", fault_plan=plan, max_restarts=2,
            restart_backoff=0.0,
        )
        assert plan.fired
        assert recovered == chunk_served()

    @pytest.mark.parametrize("cache, idle_timeout", [
        ("cold", 0.0), ("warm", 0.2),
    ])
    def test_exhausted_restarts_condemn_the_worker(self, scenario, cache,
                                                   idle_timeout):
        # Two crashes against a budget of one: the worker is condemned and
        # every flow it would have forwarded is dead-lettered — conservation
        # still holds exactly.  Cache hits need no forward, so with a warm
        # cache a condemned worker still serves every one of them (idle
        # eviction spreads the hits across the stream, after the crash).
        plan = FaultPlan((FaultSpec("forward", 0, "raise", count=2),))
        dlq = DeadLetterQueue()
        engine = make_engine(scenario)
        records = stream_records(scenario, idle_timeout=idle_timeout)
        warmed = records[len(records) // 2:] if cache == "warm" else []
        warmer = make_engine(scenario, cache=engine.cache)
        for record in warmed:
            warmer.submit(record)
        warmer.flush()
        predictions, engine = run_resilient(
            scenario, idle_timeout=idle_timeout, engine=engine,
            policy="quarantine", fault_plan=plan, dead_letters=dlq,
            max_restarts=1, restart_backoff=0.005,
        )
        assert plan.fired
        assert len(dlq) > 0
        assert all(e.stage == "inference" for e in dlq)
        assert all("EngineCrashError" in e.error for e in dlq)
        check_conservation(scenario, predictions, dlq, idle_timeout=idle_timeout)
        assert engine.report.summary()["resilience"]["restarts"] == 1
        # No forward ever succeeded, so everything served is a cache hit.
        keys = {r.cache_key for r in warmed}
        assert all(p.cached for p in predictions)
        assert sorted(record_key(p.record) for p in predictions) == sorted(
            record_key(r) for r in records if r.cache_key in keys
        )

    @pytest.mark.parametrize("build", ["float64", "float32"])
    def test_degraded_logits_keep_the_build_dtype(self, scenario, build):
        # A condemned worker's stand-in rows are built in the served dtype,
        # so a float32 engine under degrade emits float32 zero logits.
        plan = FaultPlan((FaultSpec("forward", 0, "raise", count=2),))
        engine = make_engine(
            scenario, scenario["classifier"].serving_build(build), cache=None
        )
        predictions, _ = run_resilient(
            scenario, engine=engine, policy="degrade", fault_plan=plan,
            max_restarts=1, restart_backoff=0.0,
        )
        assert plan.fired
        assert predictions and all(p.degraded for p in predictions)
        for p in predictions:
            assert p.logits.dtype == np.dtype(build)
            assert not p.logits.any()

    def test_backoff_is_exponential(self):
        sleeps = []
        report = ServingReport()
        tracer = TraceRecorder(clock=lambda: 0.0)
        forward = SupervisedForward(
            _AlwaysCrash(), "quarantine", report,
            max_restarts=3, backoff=0.05, tracer=tracer, sleep=sleeps.append,
        )
        ids = np.zeros((2, 5), dtype=np.int64)
        logits = forward.predict_logits(ids, None, batch_size=2)
        assert sleeps == [0.05, 0.1, 0.2]
        assert forward.condemned == repr(RuntimeError("crash"))
        assert logits.shape == (2, 4)
        assert np.isnan(logits).all()
        counters = report.summary()["resilience"]
        assert counters["restarts"] == 3
        assert counters["retries"] == 6  # rows re-run: 3 retries x 2 rows
        assert [
            (e.stage, e.generation, e.attrs["rows"])
            for e in tracer.spans_for("worker")
        ] == [("worker_restart", n, 2) for n in (1, 2, 3)]
        # A condemned worker never calls the model (or sleeps) again.
        assert np.isnan(forward.predict_logits(ids, None, batch_size=2)).all()
        assert sleeps == [0.05, 0.1, 0.2]

    def test_fail_fast_reraises_after_the_last_retry(self):
        sleeps = []
        forward = SupervisedForward(
            _AlwaysCrash(), "fail_fast", ServingReport(),
            max_restarts=2, backoff=0.05, sleep=sleeps.append,
        )
        with pytest.raises(RuntimeError, match="crash"):
            forward.predict_logits(np.zeros((1, 5), dtype=np.int64))
        assert sleeps == [0.05, 0.1]
        assert forward.condemned is None


# ----------------------------------------------------------------------
# Checkpoint / restore: interrupted assembly resumes bit-identically
# ----------------------------------------------------------------------
class TestCheckpointRestore:
    @pytest.mark.parametrize("cut", [0.25, 0.5, 0.75])
    def test_resume_is_bit_identical(self, scenario, tmp_path, cut):
        # Wherever the stream is interrupted, the resumed records equal the
        # uninterrupted run's, in order.
        chunks = list(chunk_columns(scenario["columns"], CHUNK_ROWS))
        half = max(1, int(len(chunks) * cut))

        full = make_assembler(scenario, idle_timeout=0.2)
        uninterrupted = []
        for chunk in chunks:
            uninterrupted.extend(full.push(chunk))
        uninterrupted.extend(full.flush())

        head = make_assembler(scenario, idle_timeout=0.2)
        resumed = []
        for chunk in chunks[:half]:
            resumed.extend(head.push(chunk))
        state = save_checkpoint(head, tmp_path / "assembler.ckpt")
        assert state["format"] == type(head).CHECKPOINT_FORMAT
        tail = load_checkpoint(
            make_assembler(scenario, idle_timeout=0.2), tmp_path / "assembler.ckpt"
        )
        for chunk in chunks[half:]:
            resumed.extend(tail.push(chunk))
        resumed.extend(tail.flush())

        assert [record_key(r) for r in resumed] == [
            record_key(r) for r in uninterrupted
        ]

    def test_resumed_serving_matches_end_to_end(self, scenario, tmp_path):
        # Checkpoint mid-stream, serve the tail on a restored assembler and a
        # fresh engine: records and logits equal the uninterrupted run.
        chunks = list(chunk_columns(scenario["columns"], CHUNK_ROWS))
        half = max(1, len(chunks) // 2)
        reference = sync_predictions(scenario, idle_timeout=0.2)

        head = make_assembler(scenario, idle_timeout=0.2)
        engine = make_engine(scenario)
        served = []
        for chunk in chunks[:half]:
            for record in head.push(chunk):
                served.extend(engine.submit(record))
        served.extend(engine.flush())
        save_checkpoint(head, tmp_path / "mid.ckpt")

        tail = load_checkpoint(
            make_assembler(scenario, idle_timeout=0.2), tmp_path / "mid.ckpt"
        )
        resumed_engine = make_engine(scenario)
        for chunk in chunks[half:]:
            for record in tail.push(chunk):
                served.extend(resumed_engine.submit(record))
        for record in tail.flush():
            served.extend(resumed_engine.submit(record))
        served.extend(resumed_engine.flush())

        assert sorted(prediction_key(p) for p in served) == sorted(
            prediction_key(p) for p in reference
        )

    def test_restore_rejects_foreign_format(self, scenario, tmp_path):
        assembler = make_assembler(scenario)
        state = assembler.checkpoint()
        state["format"] = "something/else"
        with pytest.raises(ValueError, match="not an assembler checkpoint"):
            assembler.restore(state)

    def test_restore_rejects_mismatched_timeouts(self, scenario):
        state = make_assembler(scenario, idle_timeout=0.5).checkpoint()
        with pytest.raises(ValueError, match="idle_timeout"):
            make_assembler(scenario, idle_timeout=0.2).restore(state)

    def test_restore_rejects_mismatched_active_timeout(self, scenario):
        state = make_assembler(scenario, active_timeout=1.0).checkpoint()
        with pytest.raises(ValueError, match="active_timeout"):
            make_assembler(scenario, active_timeout=2.0).restore(state)

    def test_restore_replaces_open_state(self, scenario):
        # Restoring drops whatever the target had open: it holds exactly the
        # checkpointed flows and flushes exactly their records.
        chunks = list(chunk_columns(scenario["columns"], CHUNK_ROWS))
        source = make_assembler(scenario)
        source.push(chunks[0])
        state = source.checkpoint()
        target = make_assembler(scenario)
        for chunk in chunks:
            target.push(chunk)
        target.restore(state)
        assert len(target) == len(source)
        assert [record_key(r) for r in target.flush()] == [
            record_key(r) for r in source.flush()
        ]


# ----------------------------------------------------------------------
# Engine state after a mid-batch crash (no poisoned cache, no loss)
# ----------------------------------------------------------------------
def stream_records(scn, chunk_rows=CHUNK_ROWS, idle_timeout=0.0):
    assembler = make_assembler(scn, idle_timeout=idle_timeout)
    records = []
    for chunk in chunk_columns(scn["columns"], chunk_rows):
        records.extend(assembler.push(chunk))
    records.extend(assembler.flush())
    return records


class _FlakyOnce:
    """Crashes the first forward, then delegates to the real classifier."""

    def __init__(self, classifier):
        self._inner = classifier
        self.crashes_left = 1

    def predict_logits(self, token_ids, attention_mask=None, **kwargs):
        if self.crashes_left:
            self.crashes_left -= 1
            raise RuntimeError("flaky forward")
        return self._inner.predict_logits(token_ids, attention_mask, **kwargs)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestEngineCrashHygiene:
    def test_crash_poisons_no_cache_entries(self, scenario):
        records = stream_records(scenario)[:8]
        cache = PredictionCache()
        engine = InferenceEngine(
            _FlakyOnce(scenario["classifier"]), batch_size=64, cache=cache
        )
        for record in records:
            assert engine.submit(record) == []
        with pytest.raises(RuntimeError, match="flaky forward"):
            engine.flush()
        # Nothing was served, so nothing may be cached — a retry must never
        # hit a logits entry the crashed batch half-wrote.
        assert len(cache) == 0
        hits_before = cache.hits
        # The pending flows survived the crash: a retry on the same engine serves
        # every record, bit-identical to a clean engine.
        retried = engine.flush()
        clean = make_engine(scenario, batch_size=64)
        expected = []
        for record in records:
            expected.extend(clean.submit(record))
        expected.extend(clean.flush())
        assert sorted(prediction_key(p) for p in retried) == sorted(
            prediction_key(p) for p in expected
        )
        # The retry forwards fresh logits; no stale hit was involved.
        assert cache.hits == hits_before

    def test_cached_serving_unaffected_by_prior_crash(self, scenario):
        # Serve once through a crash-then-retry engine, then re-serve the
        # same records: every repeat must be a cache hit with exact logits.
        records = stream_records(scenario)[:8]
        cache = PredictionCache()
        engine = InferenceEngine(
            _FlakyOnce(scenario["classifier"]), batch_size=4, cache=cache
        )
        first: list = []
        for record in records:
            try:
                first.extend(engine.submit(record))
            except RuntimeError:
                first.extend(engine.flush())  # retry the pending flows
        try:
            first.extend(engine.flush())
        except RuntimeError:
            first.extend(engine.flush())  # the crash waited for the flush
        assert sorted(record_key(p.record) for p in first) == sorted(
            record_key(r) for r in records
        )
        by_key = {p.record.cache_key: p.logits for p in first}
        for record in records:
            # Engine entries live under the dtype-namespaced key (the
            # cache-key dtype rule, docs/SERVING.md).
            hit = cache.get(engine.cache_key_for(record))
            assert hit is not None
            np.testing.assert_array_equal(hit, by_key[record.cache_key])
