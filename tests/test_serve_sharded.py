"""Sharded flow assembly under the one serving loop — differential validation.

A :class:`~repro.serve.assembler.ShardedAssembler` hash-partitions open-flow
state by flow key.  Its contract is *bit-identity as a multiset*: for any
chunk size and shard count, ``serve_stream`` over a sharded assembler must
serve exactly the flows the unsharded path serves — same encoded contexts,
labels, generations, timestamps and close reasons, and logits identical to
the last bit — only the arrival order may differ.  The harness checks that
differentially, per scenario: every sharded run is compared against the
unsharded path on the same stream *and* against the offline reference
(:meth:`~repro.context.builders.FlowContextBuilder.encode_columns` plus the
batched solver forward), over a sweep of chunk sizes {1, k, n} × shards
{1, 2, 4} × idle timeouts × traffic scenarios (DNS, HTTP, TLS, attack,
enterprise mix), plus a seeded out-of-order/burst arrival case.

The interface half pins what the driver needs: with resilience off,
``serve_stream`` touches only ``push``/``flush`` on the assembler and
``submit``/``flush`` on the engine, and with it on, the caller's engine gets
its classifier and output guard back however the run ends.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.context import FlowContextBuilder
from repro.core import NetFMConfig, NetFoundationModel, SequenceClassifier
from repro.net import PacketColumns, build_packet
from repro.serve import (
    ColumnsSource,
    FaultPlan,
    FaultSpec,
    InferenceEngine,
    PredictionCache,
    ShardedAssembler,
    StreamingFlowAssembler,
    burst_chunks,
    chunk_columns,
    interleave_columns,
    serve_stream,
)
from repro.nn.numeric import assert_within_ulp, ulp_budget
from repro.tokenize import FieldAwareTokenizer, Vocabulary
from repro.traffic import (
    AttackConfig,
    AttackGenerator,
    DNSWorkloadConfig,
    DNSWorkloadGenerator,
    EnterpriseScenario,
    EnterpriseScenarioConfig,
    HTTPWorkloadConfig,
    HTTPWorkloadGenerator,
    TLSWorkloadConfig,
    TLSWorkloadGenerator,
)

MAX_TOKENS = 64

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
    """One scenario's capture plus its full offline reference."""
    columns = SCENARIOS[request.param]().generate_columns()
    tokenizer = FieldAwareTokenizer()
    builder = FlowContextBuilder(max_tokens=MAX_TOKENS)
    contexts = builder.build(columns.to_packets(), tokenizer)
    vocabulary = Vocabulary.build([c.tokens for c in contexts])
    ids, mask, labels = builder.encode_columns(
        columns, tokenizer, vocabulary, return_labels=True
    )
    config = NetFMConfig(
        vocab_size=len(vocabulary), d_model=32, num_layers=2, num_heads=4,
        d_ff=64, max_len=MAX_TOKENS, dropout=0.0, seed=0,
    )
    classifier = SequenceClassifier(NetFoundationModel(config), num_classes=4)
    offline_logits = classifier.predict_logits(ids, mask)
    return {
        "name": request.param,
        "columns": columns,
        "tokenizer": tokenizer,
        "vocabulary": vocabulary,
        "ids": ids,
        "mask": mask,
        "labels": labels,
        "classifier": classifier,
        "offline_logits": offline_logits,
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


def run_serve(scn, source, shards=None, idle_timeout=0.0, engine=None, **options):
    """Serve ``source``; ``shards=k`` swaps in a k-way sharded assembler."""
    assembler = make_assembler(scn, idle_timeout=idle_timeout)
    if shards is not None:
        assembler = ShardedAssembler.from_template(assembler, shards)
    engine = engine or make_engine(scn)
    return list(serve_stream(source, assembler, engine, **options))


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


# Unsharded references are deterministic per (scenario, chunk, idle) —
# computed once and shared across the shard-count sweep.
_SYNC_CACHE: dict = {}


def sync_reference(scn, chunk_rows, idle_timeout=0.0):
    cache_key = (scn["name"], chunk_rows, idle_timeout)
    if cache_key not in _SYNC_CACHE:
        predictions = run_serve(
            scn, ColumnsSource(scn["columns"], chunk_rows=chunk_rows),
            idle_timeout=idle_timeout,
        )
        _SYNC_CACHE[cache_key] = sorted(prediction_key(p) for p in predictions)
    return _SYNC_CACHE[cache_key]


class TestDifferentialScenarioSweep:
    """Sharded == unsharded == offline reference, per scenario."""

    @pytest.mark.parametrize("idle_timeout", [0.0, 0.2])
    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("chunk_rows", [1, 13, None])
    def test_sharded_matches_unsharded_bitwise(
        self, scenario, chunk_rows, shards, idle_timeout
    ):
        # With an idle timeout, eviction happens mid-stream, across the
        # per-chunk clock broadcast.
        columns = scenario["columns"]
        chunk_rows = chunk_rows or len(columns)
        reference = sync_reference(scenario, chunk_rows, idle_timeout)
        predictions = run_serve(
            scenario, ColumnsSource(columns, chunk_rows=chunk_rows),
            shards=shards, idle_timeout=idle_timeout,
        )
        assert sorted(prediction_key(p) for p in predictions) == reference

    @pytest.mark.parametrize("shards", [2, 4])
    def test_sharded_matches_offline_reference(self, scenario, shards):
        # Without timeouts every flow closes at flush, so the served multiset
        # must be exactly the offline encode_columns rows — and each row's
        # logits must match the offline batched solver forward.
        ids, mask, labels = scenario["ids"], scenario["mask"], scenario["labels"]
        offline = sorted(
            (ids[row].tobytes(), mask[row].tobytes(), labels[row])
            for row in range(len(ids))
        )
        by_content = {}
        for row in range(len(ids)):
            by_content.setdefault(
                (ids[row].tobytes(), mask[row].tobytes(), labels[row]),
                scenario["offline_logits"][row],
            )
        predictions = run_serve(
            scenario, ColumnsSource(scenario["columns"], chunk_rows=13),
            shards=shards,
        )
        served = sorted(
            (p.record.token_ids.tobytes(), p.record.attention_mask.tobytes(),
             p.record.label)
            for p in predictions
        )
        assert served == offline
        for p in predictions:
            content = (
                p.record.token_ids.tobytes(),
                p.record.attention_mask.tobytes(), p.record.label,
            )
            np.testing.assert_allclose(
                p.logits, by_content[content], rtol=0, atol=1e-10
            )

    @pytest.mark.parametrize("shards", [2, 4])
    def test_out_of_order_burst_arrival(self, scenario, shards):
        # Seeded multi-queue-tap shape: flows interleaved out of global
        # capture order (per-flow order kept), delivered in variable-size
        # bursts.  The sharded path must still match both the unsharded path
        # on the same arrival and the offline reference for the arrived
        # stream.
        shuffled = interleave_columns(scenario["columns"], seed=7)
        bursts = list(burst_chunks(shuffled, 17, seed=3))
        reference = run_serve(scenario, bursts)
        predictions = run_serve(scenario, bursts, shards=shards)
        assert (
            sorted(prediction_key(p) for p in predictions)
            == sorted(prediction_key(p) for p in reference)
        )
        ids, mask, labels = FlowContextBuilder(max_tokens=MAX_TOKENS).encode_columns(
            shuffled, scenario["tokenizer"], scenario["vocabulary"],
            return_labels=True,
        )
        assert (
            sorted((p.record.token_ids.tobytes(), p.record.label)
                   for p in predictions)
            == sorted((ids[row].tobytes(), labels[row]) for row in range(len(ids)))
        )

    def test_cacheless_engine_matches_unsharded(self, scenario):
        sync = run_serve(
            scenario, ColumnsSource(scenario["columns"], chunk_rows=13),
            engine=make_engine(scenario, cache=None),
        )
        predictions = run_serve(
            scenario, ColumnsSource(scenario["columns"], chunk_rows=13),
            shards=3, engine=make_engine(scenario, cache=None),
        )
        assert (
            sorted(prediction_key(p) for p in predictions)
            == sorted(prediction_key(p) for p in sync)
        )


class TestFloat32ServingParity:
    """The float32 serving build vs the float64 reference, per scenario.

    The relaxed-ulp policy's serving acceptance (repro.nn.numeric): on
    every E14 scenario the f32 engine must produce *identical* class
    predictions and an *identical* cache-hit pattern, with logits inside
    the documented ``logits`` ulp budget of the f64 reference.
    """

    def test_f32_engine_matches_f64_reference(self, scenario):
        source = lambda: ColumnsSource(scenario["columns"], chunk_rows=13)
        p64 = run_serve(scenario, source(), engine=make_engine(scenario))
        p32 = run_serve(
            scenario, source(),
            engine=make_engine(scenario, serve_dtype="float32"),
        )
        identity = lambda p: (str(p.record.key), p.record.generation)
        assert [identity(p) for p in p32] == [identity(p) for p in p64]
        assert [p.class_id for p in p32] == [p.class_id for p in p64]
        assert [p.cached for p in p32] == [p.cached for p in p64]
        budget = ulp_budget("logits")
        for ours, theirs in zip(p32, p64):
            assert ours.logits.dtype == np.float32
            assert_within_ulp(
                ours.logits, theirs.logits, budget,
                f"{scenario['name']} logits for flow {ours.record.key}",
            )


class TestShardedAssembler:
    """The hash-bucketing stage on its own, outside the serving loop."""

    def test_shard_assignment_is_chunk_invariant(self, scenario):
        # The shard of a row is a pure function of its flow key, so the
        # assignment cannot depend on how the stream was chunked.
        template = make_assembler(scenario)
        sharded = ShardedAssembler.from_template(template, 4)
        columns = scenario["columns"]
        whole = sharded.shard_rows(columns)
        for chunk_rows in (1, 13, 50):
            parts = [
                sharded.shard_rows(chunk)
                for chunk in chunk_columns(columns, chunk_rows)
            ]
            assert np.array_equal(np.concatenate(parts), whole)

    def test_int_and_digit_string_ids_share_a_shard(self, scenario):
        # connection_id 5 and connection_id "5" group under the same key
        # ("conn-5"), so they must land on the same shard — one key can
        # never hash through two domains.
        sharded = ShardedAssembler.from_template(make_assembler(scenario), 4)
        packets = [
            build_packet(0.0, "10.0.0.1", "10.0.0.2", "TCP", 1111, 80,
                         metadata={"connection_id": 5}),
            build_packet(0.1, "10.0.0.1", "10.0.0.2", "TCP", 1111, 80,
                         metadata={"connection_id": "5"}),
            build_packet(0.2, "10.0.0.3", "10.0.0.4", "UDP", 2222, 53,
                         metadata={"connection_id": "05"}),
            build_packet(0.3, "10.0.0.5", "10.0.0.6", "UDP", 2223, 53),
        ]
        shards = sharded.shard_rows(PacketColumns.from_packets(packets))
        assert shards[0] == shards[1]
        assert all(0 <= s < 4 for s in shards)

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_eviction_parity_with_single_assembler(self, scenario, shards):
        # Same records, same generations, same closed_by reasons: the
        # stream-clock broadcast keeps every shard's idle eviction on the
        # global clock, not its own sub-stream's.
        columns = scenario["columns"]
        single = make_assembler(scenario, idle_timeout=0.2)
        sharded = ShardedAssembler.from_template(
            make_assembler(scenario, idle_timeout=0.2), shards
        )
        reference, records = [], []
        for chunk in chunk_columns(columns, 13):
            reference.extend(single.push(chunk))
            records.extend(sharded.push(chunk))
        reference.extend(single.flush())
        records.extend(sharded.flush())
        assert sorted(map(record_key, records)) == sorted(map(record_key, reference))
        assert len(sharded) == 0

    def test_open_flow_accounting(self, scenario):
        columns = scenario["columns"]
        single = make_assembler(scenario)
        sharded = ShardedAssembler.from_template(make_assembler(scenario), 4)
        for chunk in chunk_columns(columns, 50):
            single.push(chunk)
            sharded.push(chunk)
            assert len(sharded) == len(single)
        sharded.flush()
        assert len(sharded) == 0

    def test_validation(self, scenario):
        with pytest.raises(ValueError):
            ShardedAssembler([])
        with pytest.raises(ValueError):
            ShardedAssembler.from_template(make_assembler(scenario), 0)


class _OnlyIter:
    """A source the driver can do nothing with but iterate."""

    __slots__ = ("_chunks",)

    def __init__(self, chunks):
        self._chunks = chunks

    def __iter__(self):
        return iter(self._chunks)


class _OnlyPushFlush:
    """An assembler exposing only what the unarmed driver may call."""

    __slots__ = ("_inner",)

    def __init__(self, inner):
        self._inner = inner

    def push(self, chunk):
        return self._inner.push(chunk)

    def flush(self):
        return self._inner.flush()


class _OnlySubmitFlush:
    """An engine exposing only what the unarmed driver may call."""

    __slots__ = ("_inner",)

    def __init__(self, inner):
        self._inner = inner

    def submit(self, record):
        return self._inner.submit(record)

    def flush(self):
        return self._inner.flush()


class TestDriverInterface:
    """The one serving loop's contract with the objects it drives."""

    @pytest.mark.parametrize("shards", [None, 2])
    @pytest.mark.parametrize("idle_timeout", [0.0, 0.2])
    def test_unarmed_loop_needs_only_push_submit_flush(
        self, scenario, shards, idle_timeout
    ):
        # The same narrow surface the benchmark's delegating probes expose.
        assembler = make_assembler(scenario, idle_timeout=idle_timeout)
        if shards is not None:
            assembler = ShardedAssembler.from_template(assembler, shards)
        chunks = list(chunk_columns(scenario["columns"], 13))
        predictions = list(serve_stream(
            _OnlyIter(chunks), _OnlyPushFlush(assembler),
            _OnlySubmitFlush(make_engine(scenario)),
        ))
        reference = sync_reference(scenario, 13, idle_timeout)
        assert sorted(prediction_key(p) for p in predictions) == reference

    @pytest.mark.parametrize("close_early", [False, True])
    def test_armed_run_hands_back_the_callers_engine(self, scenario, close_early):
        # A restart swaps the serving engine mid-run; the caller's engine
        # still ends with its own classifier and output guard.
        engine = make_engine(scenario, batch_size=1)
        classifier, output_guard = engine.classifier, engine.output_guard
        stream = serve_stream(
            ColumnsSource(scenario["columns"], chunk_rows=13),
            ShardedAssembler.from_template(
                make_assembler(scenario, idle_timeout=0.2), 2
            ),
            engine,
            policy="quarantine",
            fault_plan=FaultPlan((FaultSpec("forward", 0, "raise"),)),
            max_restarts=1, restart_backoff=0.0,
        )
        if close_early:
            next(stream)
            assert engine.classifier is not classifier
            assert engine.output_guard is not output_guard
            stream.close()
        else:
            predictions = list(stream)
            reference = sync_reference(scenario, 13, 0.2)
            assert sorted(prediction_key(p) for p in predictions) == reference
            # The restarted engine's work is folded into the caller's report.
            assert engine.report.flows == len(predictions)
        assert engine.classifier is classifier
        assert engine.output_guard is output_guard
