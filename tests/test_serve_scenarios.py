"""The one serving loop over the five E14 scenarios — differential validation.

``serve_stream`` over a :class:`~repro.serve.assembler.StreamingFlowAssembler`
must serve exactly the flows the offline pipeline builds — same encoded
contexts and labels, with logits matching the batched solver forward — for
any chunk size, and an idle timeout must close the same flows (generations,
timestamps and logits, to the last bit) whatever the chunking.  The
harness checks that per scenario (DNS, HTTP, TLS, attack, enterprise mix)
against the offline reference
(:meth:`~repro.context.builders.FlowContextBuilder.encode_columns` plus the
batched solver forward), over chunk sizes {1, k, n} × engine micro-batch
sizes × idle timeouts, plus seeded out-of-order/burst arrival cases.  The
assembler is also checked on its own: per-row flow keys, open-flow
accounting and active-timeout closure must not depend on the chunking.

The engine's schedule is swept as a property: over random chunk splits
(each read is a clock tick), pending bounds and forward chunk sizes, it may
change only *when* a flow is served — float64 rows and logits stay
bit-identical, float32 logits stay inside the ``logits`` ulp budget with
the same argmax.

The interface half pins what the driver needs: with resilience off,
``serve_stream`` touches only ``push``/``flush`` on the assembler and
``submit``/``flush`` on the engine (plus ``advance_clock`` when the engine
has it), and with it on, the caller's engine gets its classifier and output
guard back however the run ends.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.context import FlowContextBuilder
from repro.core import NetFMConfig, NetFoundationModel, SequenceClassifier
from repro.serve import (
    ColumnsSource,
    FaultPlan,
    FaultSpec,
    InferenceEngine,
    PredictionCache,
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


def run_serve(scn, source, idle_timeout=0.0, engine=None, **options):
    """Serve ``source`` through a fresh assembler and (default) engine."""
    assembler = make_assembler(scn, idle_timeout=idle_timeout)
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


# References are deterministic per (scenario, chunk, idle) — computed once
# and shared by every test that compares against them.
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


def offline_rows(ids, mask, labels):
    """The offline rows as a sorted multiset of (ids, mask, label) bytes."""
    return sorted(
        (ids[row].tobytes(), mask[row].tobytes(), labels[row])
        for row in range(len(ids))
    )


def served_rows(predictions):
    return sorted(
        (p.record.token_ids.tobytes(), p.record.attention_mask.tobytes(),
         p.record.label)
        for p in predictions
    )


class TestDifferentialScenarioSweep:
    """Streamed == offline reference, per scenario and chunking."""

    @pytest.mark.parametrize("chunk_rows", [1, 13, None])
    def test_chunked_matches_offline_reference(self, scenario, chunk_rows):
        # Without timeouts every flow closes at flush, so the served multiset
        # must be exactly the offline encode_columns rows — and each row's
        # logits must match the offline batched solver forward.
        columns = scenario["columns"]
        ids, mask, labels = scenario["ids"], scenario["mask"], scenario["labels"]
        by_content = {}
        for row in range(len(ids)):
            by_content.setdefault(
                (ids[row].tobytes(), mask[row].tobytes(), labels[row]),
                scenario["offline_logits"][row],
            )
        predictions = run_serve(
            scenario,
            ColumnsSource(columns, chunk_rows=chunk_rows or len(columns)),
        )
        assert served_rows(predictions) == offline_rows(ids, mask, labels)
        for p in predictions:
            content = (
                p.record.token_ids.tobytes(),
                p.record.attention_mask.tobytes(), p.record.label,
            )
            np.testing.assert_allclose(
                p.logits, by_content[content], rtol=0, atol=1e-10
            )

    @pytest.mark.parametrize("chunk_rows", [1, 13])
    def test_idle_timeout_is_chunk_invariant(self, scenario, chunk_rows):
        # With an idle timeout, eviction happens mid-stream against the
        # stream clock; the flows it closes must not depend on the chunking.
        # Only the close reason may: an idle gap is seen either by the
        # stream clock at a chunk boundary ("evict") or by the flow's next
        # packet inside one chunk ("idle").
        def same_gap(fields):
            reason = "idle" if fields[-2] == "evict" else fields[-2]
            return fields[:-2] + (reason, fields[-1])

        whole = len(scenario["columns"])
        predictions = run_serve(
            scenario, ColumnsSource(scenario["columns"], chunk_rows=chunk_rows),
            idle_timeout=0.2,
        )
        assert sorted(same_gap(prediction_key(p)) for p in predictions) == sorted(
            map(same_gap, sync_reference(scenario, whole, 0.2))
        )

    @pytest.mark.parametrize("idle_timeout", [0.0, 0.2])
    @pytest.mark.parametrize("batch_size", [1, 4, 32])
    @pytest.mark.parametrize("chunk_rows", [1, 13, None])
    def test_micro_batching_is_bit_identical(
        self, scenario, chunk_rows, batch_size, idle_timeout
    ):
        # The engine's batch size decides which rows share a forward
        # chunk; on the f64 build that must not move a served bit —
        # records, close reasons and logits all equal the batch-8 run on
        # the same chunking.
        columns = scenario["columns"]
        chunk_rows = chunk_rows or len(columns)
        predictions = run_serve(
            scenario, ColumnsSource(columns, chunk_rows=chunk_rows),
            idle_timeout=idle_timeout,
            engine=make_engine(scenario, batch_size=batch_size),
        )
        assert sorted(prediction_key(p) for p in predictions) == sync_reference(
            scenario, chunk_rows, idle_timeout
        )

    @pytest.mark.parametrize("burst", [5, 17])
    def test_out_of_order_burst_arrival(self, scenario, burst):
        # Seeded multi-queue-tap shape: flows interleaved out of global
        # capture order (per-flow order kept), delivered in variable-size
        # bursts.  The served multiset must match the offline reference for
        # the arrived stream.
        shuffled = interleave_columns(scenario["columns"], seed=7)
        predictions = run_serve(
            scenario, list(burst_chunks(shuffled, burst, seed=3))
        )
        ids, mask, labels = FlowContextBuilder(max_tokens=MAX_TOKENS).encode_columns(
            shuffled, scenario["tokenizer"], scenario["vocabulary"],
            return_labels=True,
        )
        assert served_rows(predictions) == offline_rows(ids, mask, labels)

    def test_cacheless_engine_matches_cached(self, scenario):
        source = lambda: ColumnsSource(scenario["columns"], chunk_rows=13)
        cached = run_serve(scenario, source())
        cacheless = run_serve(
            scenario, source(), engine=make_engine(scenario, cache=None)
        )
        assert (
            sorted(prediction_key(p) for p in cacheless)
            == sorted(prediction_key(p) for p in cached)
        )


def exact_length_logits(classifier, records):
    """The offline reference forward: each row trimmed to its own length,
    rows of one length in one batch, no mask — what the engine's ragged
    forward computes per row, with none of its scheduling."""
    by_length: dict[int, list] = {}
    for record in records:
        by_length.setdefault(len(record), []).append(record)
    logits = {}
    for width, group in by_length.items():
        ids = np.stack([r.token_ids[:width] for r in group])
        rows = classifier.predict_logits(ids, None, batch_size=len(ids))
        for record, row in zip(group, rows):
            logits[(str(record.key), record.generation)] = row
    return logits


def gap_rows(keys):
    """:func:`prediction_key` tuples without the logits, an eviction counted
    as an idle close (whether an idle gap is seen at a chunk boundary or
    inside one depends on the chunking)."""
    return sorted(
        k[:-2] + ("idle" if k[-2] == "evict" else k[-2],) for k in keys
    )


def random_chunks(columns, cuts):
    """``columns`` split at the sorted, de-duplicated row indices ``cuts``."""
    bounds = [0, *sorted(set(cuts)), len(columns)]
    return [columns[a:b] for a, b in zip(bounds, bounds[1:]) if b > a]


class TestSchedule:
    """The schedule moves only *when* a flow is served, never what."""

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(
        data=st.data(),
        max_pending=st.sampled_from([1, 3, 256]),
        batch_size=st.sampled_from([1, 4, 32]),
    )
    def test_schedule_keeps_rows_and_logits(
        self, scenario, data, max_pending, batch_size
    ):
        # An idle timeout closes flows mid-stream, so every chunk's clock
        # tick has pending flows to run, and a small pending bound runs
        # them between ticks too.  Rows are checked against the
        # whole-capture run, logits against the exact-length offline
        # forward of each row.
        columns = scenario["columns"]
        cuts = data.draw(st.lists(
            st.integers(1, max(1, len(columns) - 1)), max_size=40,
        ))
        chunks = random_chunks(columns, cuts)

        classifier = scenario["classifier"]
        served = {}
        for build in (classifier, classifier.serving_build("float32")):
            engine = make_engine(
                scenario, build, batch_size=batch_size, max_pending=max_pending,
            )
            served[build.model_dtype] = run_serve(
                scenario, chunks, idle_timeout=0.2, engine=engine,
            )
        p64, p32 = served["float64"], served["float32"]
        whole = gap_rows(sync_reference(scenario, len(columns), 0.2))
        assert gap_rows(map(prediction_key, p64)) == whole
        assert gap_rows(map(prediction_key, p32)) == whole
        reference = exact_length_logits(classifier, [p.record for p in p64])
        for p in p64:
            ident = (str(p.record.key), p.record.generation)
            assert p.logits.tobytes() == reference[ident].tobytes()
        budget = ulp_budget("logits")
        for p in p32:
            expected = reference[(str(p.record.key), p.record.generation)]
            assert p.logits.dtype == np.float32
            assert p.class_id == int(np.argmax(expected))
            assert_within_ulp(
                p.logits, expected, budget,
                f"{scenario['name']} f32 logits for flow {p.record.key}",
            )


def record_key(r):
    return (
        str(r.key), r.generation, r.token_ids.tobytes(),
        r.attention_mask.tobytes(), r.label, r.packet_count,
        r.start_time, r.end_time, r.closed_by,
    )


def assemble(scn, chunk_rows, **kwargs):
    """Every record the assembler alone emits for the chunked capture."""
    assembler = make_assembler(scn, **kwargs)
    records = []
    for chunk in chunk_columns(scn["columns"], chunk_rows):
        records.extend(assembler.push(chunk))
    records.extend(assembler.flush())
    return records


class TestStreamingFlowAssembler:
    """The assembly stage on its own, outside the serving loop."""

    def test_row_keys_are_chunk_invariant(self, scenario):
        # A row's flow key is a pure function of the row, so keying the
        # capture chunk by chunk gives the whole-capture keys, whatever the
        # chunking.
        assembler = make_assembler(scenario)
        columns = scenario["columns"]
        whole = assembler.row_keys(columns)
        assert len(whole) == len(columns)
        for chunk_rows in (1, 13, 50):
            keys = [
                key
                for chunk in chunk_columns(columns, chunk_rows)
                for key in assembler.row_keys(chunk)
            ]
            assert keys == whole

    def test_row_keys_name_the_offline_flows(self, scenario):
        # Without timeouts each distinct key is one flow: as many as the
        # offline encode has rows, and exactly the keys flush emits.
        assembler = make_assembler(scenario)
        keys = set(assembler.row_keys(scenario["columns"]))
        assert len(keys) == len(scenario["ids"])
        records = assembler.push(scenario["columns"]) + assembler.flush()
        assert sorted(str(r.key) for r in records) == sorted(map(str, keys))

    @pytest.mark.parametrize("chunk_rows", [1, 13, 50])
    def test_open_flow_accounting(self, scenario, chunk_rows):
        # With no timeouts nothing closes before flush: the open-flow count
        # is the number of distinct keys seen so far, and flush empties it.
        assembler = make_assembler(scenario)
        seen = set()
        for chunk in chunk_columns(scenario["columns"], chunk_rows):
            assert assembler.push(chunk) == []
            seen.update(assembler.row_keys(chunk))
            assert len(assembler) == len(seen)
        assert len(assembler.flush()) == len(seen)
        assert len(assembler) == 0

    @pytest.mark.parametrize("chunk_rows", [1, 13, 50])
    def test_active_timeout_is_chunk_invariant(self, scenario, chunk_rows):
        # Active-timeout closure depends only on each flow's own packets, so
        # without idle eviction the records — close reasons included — are
        # the whole-capture records bit for bit.
        whole_rows = len(scenario["columns"])
        whole = assemble(scenario, whole_rows, active_timeout=0.01)
        chunked = assemble(scenario, chunk_rows, active_timeout=0.01)
        assert sorted(map(record_key, chunked)) == sorted(map(record_key, whole))
        assert any(r.closed_by == "active" for r in whole)


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
            engine=make_engine(
                scenario, scenario["classifier"].serving_build("float32")
            ),
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

    @pytest.mark.parametrize("idle_timeout", [0.0, 0.2])
    def test_unarmed_loop_needs_only_push_submit_flush(
        self, scenario, idle_timeout
    ):
        # The same narrow surface the benchmark's delegating probes expose.
        assembler = make_assembler(scenario, idle_timeout=idle_timeout)
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
            make_assembler(scenario, idle_timeout=0.2),
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
