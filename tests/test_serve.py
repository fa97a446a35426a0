"""The streaming inference subsystem (`repro.serve`).

The serving layer's contract is equivalence with the offline pipeline: for
every closed flow, the :class:`~repro.serve.assembler.StreamingFlowAssembler`
must reproduce the offline
:meth:`~repro.context.builders.FlowContextBuilder.encode_columns` context
row bit-identically — for any chunk size — and the micro-batched
:class:`~repro.serve.engine.InferenceEngine` must reproduce the offline
solver path's predictions.  Timeout splitting must match
``FlowTable(idle_timeout=...)`` (the rule is shared through
:func:`repro.net.flow_columns.is_idle_split`), and the prediction cache must
return logits identical to the forward pass a hit replaces.  The engine
must serve every pending flow, whatever its length, at the next
stream-clock tick, in one forward per tick.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.context import FlowContextBuilder, SessionContextBuilder
from repro.core import NetFMConfig, NetFoundationModel, SequenceClassifier
from repro.net import FlowTable, PacketColumns, build_packet, read_pcap_columns, write_pcap
from repro.serve import (
    ColumnsSource,
    FlowRecord,
    InferenceEngine,
    PcapReplaySource,
    PredictionCache,
    ScenarioSource,
    StreamingFlowAssembler,
    chunk_columns,
    serve_stream,
)
from repro.tokenize import ByteTokenizer, FieldAwareTokenizer, Vocabulary
from repro.traffic import EnterpriseScenario, EnterpriseScenarioConfig

MAX_TOKENS = 64


@pytest.fixture(scope="module")
def capture():
    columns = EnterpriseScenario(
        EnterpriseScenarioConfig(
            seed=6, duration=12.0, dns_clients=4, dns_queries_per_client=5,
            http_sessions=6, tls_sessions=6, iot_devices_per_type=1,
        )
    ).generate_columns()
    return columns, columns.to_packets()


@pytest.fixture(scope="module")
def encoded(capture):
    """Offline reference: tokenizer, vocabulary and the encoded flow rows."""
    columns, packets = capture
    tokenizer = FieldAwareTokenizer()
    builder = FlowContextBuilder(max_tokens=MAX_TOKENS)
    contexts = builder.build(packets, tokenizer)
    vocabulary = Vocabulary.build([c.tokens for c in contexts])
    ids, mask, labels = builder.encode_columns(
        columns, tokenizer, vocabulary, return_labels=True
    )
    return tokenizer, vocabulary, ids, mask, labels


@pytest.fixture(scope="module")
def classifier(encoded):
    _, vocabulary, *_ = encoded
    config = NetFMConfig(
        vocab_size=len(vocabulary), d_model=32, num_layers=2, num_heads=4,
        d_ff=64, max_len=MAX_TOKENS, dropout=0.0, seed=0,
    )
    return SequenceClassifier(NetFoundationModel(config), num_classes=4)


def stream_records(columns, tokenizer, vocabulary, chunk_rows, **assembler_kwargs):
    assembler = StreamingFlowAssembler(
        tokenizer, vocabulary,
        builder=assembler_kwargs.pop(
            "builder", FlowContextBuilder(max_tokens=MAX_TOKENS)
        ),
        **assembler_kwargs,
    )
    records = []
    for chunk in chunk_columns(columns, chunk_rows):
        records.extend(assembler.push(chunk))
    records.extend(assembler.flush())
    return records


class TestStreamingEquivalence:
    """Streamed closed-flow contexts == offline encode_columns, bit for bit."""

    @pytest.mark.parametrize("chunk_rows", [1, 13, None])
    def test_flow_contexts_match_offline(self, capture, encoded, chunk_rows):
        columns, _ = capture
        tokenizer, vocabulary, ids, mask, labels = encoded
        records = stream_records(
            columns, tokenizer, vocabulary, chunk_rows or len(columns)
        )
        # With no timeouts every flow closes at flush, in first-arrival
        # order — exactly the offline first-appearance group order.
        assert len(records) == len(ids)
        for row, record in enumerate(records):
            assert np.array_equal(record.token_ids, ids[row])
            assert np.array_equal(record.attention_mask, mask[row])
            assert record.label == labels[row]
            assert record.generation == 0

    @pytest.mark.parametrize("chunk_rows", [1, 13, None])
    def test_session_contexts_match_offline(self, capture, chunk_rows):
        columns, packets = capture
        tokenizer = FieldAwareTokenizer()
        builder = SessionContextBuilder(max_tokens=MAX_TOKENS)
        contexts = builder.build(packets, tokenizer)
        vocabulary = Vocabulary.build([c.tokens for c in contexts])
        ids, mask, labels = builder.encode_columns(
            columns, tokenizer, vocabulary, return_labels=True
        )
        records = stream_records(
            columns, tokenizer, vocabulary, chunk_rows or len(columns),
            builder=SessionContextBuilder(max_tokens=MAX_TOKENS),
        )
        assert len(records) == len(ids)
        for row, record in enumerate(records):
            assert np.array_equal(record.token_ids, ids[row])
            assert np.array_equal(record.attention_mask, mask[row])
            assert record.label == labels[row]

    def test_byte_tokenizer_contexts_match_offline(self, capture):
        columns, packets = capture
        tokenizer = ByteTokenizer()
        builder = FlowContextBuilder(max_tokens=48)
        contexts = builder.build(packets, tokenizer)
        vocabulary = Vocabulary.build([c.tokens for c in contexts])
        ids, mask = builder.encode_columns(columns, tokenizer, vocabulary)
        assembler = StreamingFlowAssembler(
            tokenizer, vocabulary, builder=FlowContextBuilder(max_tokens=48)
        )
        records = []
        for chunk in chunk_columns(columns, 17):
            records.extend(assembler.push(chunk))
        records.extend(assembler.flush())
        assert len(records) == len(ids)
        for row, record in enumerate(records):
            assert np.array_equal(record.token_ids, ids[row])

    def test_fallback_keys_without_metadata_ids(self, encoded):
        # Parsed-pcap shape: no connection ids -> 5-tuple fallback keys.
        packets = [
            build_packet(0.0, "10.0.0.1", "10.0.0.2", "TCP", 1111, 80),
            build_packet(0.1, "10.0.0.2", "10.0.0.1", "TCP", 80, 1111),
            build_packet(0.2, "10.0.0.3", "10.0.0.2", "UDP", 2222, 53),
            build_packet(0.3, "10.0.0.1", "10.0.0.2", "TCP", 1111, 80),
        ]
        columns = PacketColumns.from_packets(packets)
        tokenizer = FieldAwareTokenizer()
        builder = FlowContextBuilder(max_tokens=32, label_key=None)
        contexts = builder.build(packets, tokenizer)
        vocabulary = Vocabulary.build([c.tokens for c in contexts])
        ids, _ = builder.encode_columns(columns, tokenizer, vocabulary)
        records = stream_records(
            columns, tokenizer, vocabulary, 1,
            builder=FlowContextBuilder(max_tokens=32, label_key=None),
        )
        assert len(records) == len(ids) == 2
        for row, record in enumerate(records):
            assert np.array_equal(record.token_ids, ids[row])

    def test_record_metadata(self, capture, encoded):
        columns, _ = capture
        tokenizer, vocabulary, ids, *_ = encoded
        records = stream_records(columns, tokenizer, vocabulary, 32)
        assert sum(r.packet_count for r in records) == len(columns)
        for record in records:
            assert record.closed_by == "flush"
            assert record.end_time >= record.start_time
            assert len(record) == int(record.attention_mask.sum())


class TestTimeouts:
    """Idle/active splitting: FlowTable semantics, chunk-size invariant."""

    @pytest.mark.parametrize("idle_timeout", [0.05, 0.2, 1.0])
    def test_idle_partition_matches_flowtable(self, capture, encoded, idle_timeout):
        columns, packets = capture
        tokenizer, vocabulary, *_ = encoded
        table = FlowTable(idle_timeout=idle_timeout)
        table.extend(packets)
        flows = table.flows()
        records = stream_records(
            columns, tokenizer, vocabulary, 13, idle_timeout=idle_timeout
        )
        assert len(records) == len(flows)
        assert sorted(r.packet_count for r in records) == sorted(
            f.packet_count for f in flows
        )

    @pytest.mark.parametrize("idle_timeout,active_timeout", [(0.2, 0.0), (0.0, 0.5), (0.2, 1.0)])
    def test_chunk_size_invariance(self, capture, encoded, idle_timeout, active_timeout):
        columns, _ = capture
        tokenizer, vocabulary, *_ = encoded
        reference = None
        for chunk_rows in (1, 13, len(columns)):
            records = stream_records(
                columns, tokenizer, vocabulary, chunk_rows,
                idle_timeout=idle_timeout, active_timeout=active_timeout,
            )
            snapshot = {
                (r.key, r.generation): (
                    r.packet_count, r.label, r.token_ids.tobytes(),
                    r.attention_mask.tobytes(),
                )
                for r in records
            }
            assert len(snapshot) == len(records)
            if reference is None:
                reference = snapshot
            else:
                assert snapshot == reference

    def test_idle_eviction_emits_mid_stream(self, capture, encoded):
        columns, _ = capture
        tokenizer, vocabulary, *_ = encoded
        assembler = StreamingFlowAssembler(
            tokenizer, vocabulary,
            builder=FlowContextBuilder(max_tokens=MAX_TOKENS), idle_timeout=0.2,
        )
        pushed = []
        for chunk in chunk_columns(columns, 16):
            pushed.extend(assembler.push(chunk))
        flushed = assembler.flush()
        # Idle flows close while the stream runs, not all at flush.
        assert len(pushed) > 0
        assert {r.closed_by for r in pushed} <= {"idle", "active", "evict"}
        assert all(r.closed_by == "flush" for r in flushed)
        # Eviction bounds the open-flow state.
        assert len(assembler) == 0

    def test_generations_of_a_reappearing_flow(self, encoded):
        tokenizer, vocabulary, *_ = encoded
        packets = [
            build_packet(t, "10.0.0.1", "10.0.0.2", "TCP", 1111, 80,
                         metadata={"connection_id": 0})
            for t in (0.0, 0.1, 5.0, 5.1, 10.0)
        ]
        columns = PacketColumns.from_packets(packets)
        records = stream_records(
            columns, tokenizer, vocabulary, 1, idle_timeout=1.0,
        )
        assert [r.generation for r in records] == [0, 1, 2]
        assert [r.packet_count for r in records] == [2, 2, 1]
        assert [r.key for r in records] == ["conn-0"] * 3


class TestInferenceEngine:
    def _streamed(self, columns, encoded, classifier, chunk_rows, **engine_kwargs):
        tokenizer, vocabulary, *_ = encoded
        assembler = StreamingFlowAssembler(
            tokenizer, vocabulary, builder=FlowContextBuilder(max_tokens=MAX_TOKENS)
        )
        engine = InferenceEngine(classifier, **engine_kwargs)
        predictions = list(
            serve_stream(ColumnsSource(columns, chunk_rows=chunk_rows), assembler, engine)
        )
        return predictions, engine

    def test_streamed_predictions_match_offline_solver_path(
        self, capture, encoded, classifier
    ):
        columns, _ = capture
        _, _, ids, mask, _ = encoded
        offline_classes = classifier.predict(ids, mask)
        offline_logits = classifier.predict_logits(ids, mask)
        predictions, _ = self._streamed(
            columns, encoded, classifier, chunk_rows=32, batch_size=8
        )
        assert len(predictions) == len(ids)
        for prediction in predictions:
            row = int(np.flatnonzero(
                (ids == prediction.record.token_ids).all(axis=1)
            )[0])
            assert prediction.class_id == offline_classes[row]
            np.testing.assert_allclose(
                prediction.logits, offline_logits[row], rtol=0, atol=1e-10
            )

    @pytest.mark.parametrize("chunk_rows", [1, 13, None])
    def test_streamed_logits_chunk_size_invariant(
        self, capture, encoded, classifier, chunk_rows
    ):
        columns, _ = capture
        reference, _ = self._streamed(
            columns, encoded, classifier, chunk_rows=7, batch_size=8
        )
        predictions, _ = self._streamed(
            columns, encoded, classifier,
            chunk_rows=chunk_rows or len(columns), batch_size=8,
        )
        assert len(predictions) == len(reference)
        for a, b in zip(reference, predictions):
            assert a.record.key == b.record.key
            assert np.array_equal(a.logits, b.logits)

    def test_cache_hit_returns_identical_logits(self, capture, encoded, classifier):
        # Without timeouts every flow closes at flush; a pending bound of 8
        # runs them 8 at a time, so repeats of an earlier run's contexts
        # are cache hits rather than coalesced rows.
        columns, _ = capture
        predictions, engine = self._streamed(
            columns, encoded, classifier, chunk_rows=32,
            batch_size=8, max_pending=8, cache=PredictionCache(),
        )
        fresh = {
            p.record.cache_key: p.logits for p in predictions if not p.cached
        }
        hits = [p for p in predictions if p.cached]
        assert hits, "expected repeated contexts in the DNS-heavy capture"
        for prediction in hits:
            assert np.array_equal(
                prediction.logits, fresh[prediction.record.cache_key]
            )
        assert engine.cache.hits == len(hits)
        assert engine.cache.hit_rate == pytest.approx(
            len(hits) / len(predictions)
        )

    def test_cache_keys_are_dtype_namespaced(self, capture, encoded, classifier):
        # A float64 and a float32 engine sharing one PredictionCache must
        # never serve each other's logits: engine keys carry a dtype prefix
        # (see InferenceEngine.cache_key_for), so the f32 pass below runs
        # against a cache already warm with f64 rows and hits none of them.
        columns, _ = capture
        cache = PredictionCache()
        predictions64, engine64 = self._streamed(
            columns, encoded, classifier, chunk_rows=32, batch_size=8,
            cache=cache,
        )
        hits64 = cache.hits
        predictions32, engine32 = self._streamed(
            columns, encoded, classifier.serving_build("float32"),
            chunk_rows=32, batch_size=8, cache=cache,
        )
        assert engine64.model_dtype == "float64"
        assert engine32.model_dtype == "float32"
        record = predictions64[0].record
        assert engine64.cache_key_for(record).startswith(b"float64:")
        assert engine32.cache_key_for(record).startswith(b"float32:")
        assert engine64.cache_key_for(record) != engine32.cache_key_for(record)
        assert all(p.logits.dtype == np.float64 for p in predictions64)
        assert all(p.logits.dtype == np.float32 for p in predictions32)
        # Identical hit pattern within each dtype (keys ignore logits), but
        # zero cross-dtype hits: the second pass earns exactly as many hits
        # again as the first did, all against its own float32 entries.
        assert [p.cached for p in predictions32] == [
            p.cached for p in predictions64
        ]
        assert cache.hits == 2 * hits64
        assert [p.class_id for p in predictions32] == [
            p.class_id for p in predictions64
        ]

    def test_report_stamps_dtype_and_policy(self, capture, encoded, classifier):
        columns, _ = capture
        _, engine64 = self._streamed(
            columns, encoded, classifier, chunk_rows=32, batch_size=8
        )
        _, engine32 = self._streamed(
            columns, encoded, classifier.serving_build("float32"),
            chunk_rows=32, batch_size=8,
        )
        assert engine64.summary()["model_dtype"] == "float64"
        assert engine64.summary()["numeric_policy"] == "bit-exact-f64"
        assert engine32.summary()["model_dtype"] == "float32"
        assert engine32.summary()["numeric_policy"] == "relaxed-ulp-f32"

    def test_cache_key_ignores_cache_exempt_bytes(self, encoded):
        # Two DNS transactions identical modulo the transaction id — the
        # byte PR 4's decode cache is keyed modulo — produce identical
        # field-aware contexts, hence one cache entry.
        from repro.net import DNSMessage, DNSQuestion

        tokenizer, vocabulary, *_ = encoded

        def query(t, txid, conn):
            message = DNSMessage(
                transaction_id=txid,
                questions=[DNSQuestion("printer.local")],
            )
            return build_packet(
                t, "10.0.0.9", "10.0.0.53", "UDP", 5353, 53,
                application=message, metadata={"connection_id": conn},
            )

        columns = PacketColumns.from_packets(
            [query(0.0, 0x1111, 0), query(1.0, 0x2222, 1)]
        )
        records = stream_records(columns, tokenizer, vocabulary, 1)
        assert len(records) == 2
        assert records[0].cache_key == records[1].cache_key

    def test_max_pending_bounds_pending(self, capture, encoded, classifier):
        columns, _ = capture
        tokenizer, vocabulary, *_ = encoded
        assembler = StreamingFlowAssembler(
            tokenizer, vocabulary, builder=FlowContextBuilder(max_tokens=MAX_TOKENS)
        )
        engine = InferenceEngine(classifier, batch_size=4, max_pending=6)
        completed = 0
        for chunk in chunk_columns(columns, 64):
            for record in assembler.push(chunk):
                completed += len(engine.submit(record))
                assert engine.pending <= engine.max_pending
        for record in assembler.flush():
            completed += len(engine.submit(record))
            assert engine.pending <= engine.max_pending
        completed += len(engine.flush())
        assert engine.pending == 0
        assert completed == len(
            FlowContextBuilder(max_tokens=MAX_TOKENS).group_columns(columns)[1]
        ) - 1

    def test_report_summary(self, capture, encoded, classifier):
        columns, _ = capture
        predictions, engine = self._streamed(
            columns, encoded, classifier, chunk_rows=32,
            batch_size=8, cache=PredictionCache(),
        )
        summary = engine.summary()
        assert summary["flows"] == len(predictions)
        assert summary["packets"] == len(columns)
        assert summary["flows_per_s"] > 0
        assert summary["packets_per_s"] > 0
        assert summary["p99_ms"] >= summary["p50_ms"] >= 0
        assert summary["batches"] == engine.report.batches
        assert 0.0 <= summary["cache_hit_rate"] <= 1.0

    def test_prediction_cache_lru_bound(self):
        cache = PredictionCache(max_entries=2)
        for key in (b"a", b"b", b"c"):
            cache.put(key, np.zeros(2))
        assert len(cache) == 2
        assert cache.get(b"a") is None  # evicted, counted as a miss
        assert cache.get(b"c") is not None


def length_record(key, length, t, vocab_size, variant=0):
    """A closed flow of exactly ``length`` tokens, closed at stream time ``t``;
    records of one length share their context unless ``variant`` differs."""
    ids = np.zeros(MAX_TOKENS, dtype=np.int64)
    ids[:length] = 5 + (np.arange(length) + variant) % (vocab_size - 5)
    mask = np.zeros(MAX_TOKENS, dtype=bool)
    mask[:length] = True
    return FlowRecord(
        key=key, generation=0, token_ids=ids, attention_mask=mask,
        label=None, packet_count=1, start_time=t, end_time=t, closed_by="idle",
    )


class _Tick:
    """A source read that carries only a capture time and the flows it
    closes — all the serving loop needs of a chunk to drive the engine."""

    def __init__(self, t, records):
        self.timestamps = np.array([t])
        self.records = records

    def __len__(self):
        return 1


class _ScriptedAssembler:
    """Closes each tick's scripted flows; notes when the stream ends."""

    def __init__(self):
        self.flushed = False

    def push(self, tick):
        return tick.records

    def flush(self):
        self.flushed = True
        return []


class TestClockTicks:
    """Each stream-clock tick serves every pending flow in one forward."""

    @pytest.mark.parametrize("ticks", [True, False])
    def test_rare_length_flow_is_served_at_its_tick(self, classifier, ticks):
        # One 5-token flow closes at t=3 among flows of lengths 10 and 11.
        # No flow waits for traffic of its own length: the tick at t=3
        # serves it.  An engine without a clock (a delegating wrapper that
        # hides advance_clock) runs only at max_pending and at flush.
        vocab_size = classifier.model.config.vocab_size
        ticks_, now = [], [0.0]
        for step in range(60):
            t = 0.5 * step
            records = [
                length_record(("bulk", step, i), 10 + i % 2, t, vocab_size)
                for i in range(16)
            ]
            if t == 3.0:
                records.insert(8, length_record("rare", 5, t, vocab_size))
            ticks_.append(_Tick(t, records))

        def source():
            for tick in ticks_:
                now[0] = float(tick.timestamps[0])
                yield tick

        class NoClock:
            def __init__(self, engine):
                self.submit, self.flush = engine.submit, engine.flush

        assembler = _ScriptedAssembler()
        engine = InferenceEngine(classifier, batch_size=64, max_pending=512)
        served = {}
        driven = engine if ticks else NoClock(engine)
        for prediction in serve_stream(source(), assembler, driven):
            served[prediction.record.key] = (now[0], assembler.flushed)
        assert len(served) == 60 * 16 + 1
        summary = engine.summary()
        by_trigger = summary["batches_by_trigger"]
        assert summary["batches"] == sum(by_trigger.values())
        if ticks:
            assert served["rare"] == (3.0, False)
            assert by_trigger == {"clock": 60, "full": 0, "flush": 0}
            # Every flow is emitted at its own close's tick.
            assert summary["last_packet_to_emit_p99_s"] == 0.0
        else:
            # 16 flows per read: the pending bound fills every 32 reads.
            assert served["rare"] == (15.5, False)
            assert by_trigger == {"clock": 0, "full": 1, "flush": 1}
            assert summary["last_packet_to_emit_p50_s"] is None

    def test_each_tick_runs_every_pending_flow_in_order(self, classifier):
        vocab_size = classifier.model.config.vocab_size
        engine = InferenceEngine(classifier, batch_size=2)
        assert engine.advance_clock(0.0) == []  # nothing pending: no run
        for key, length in (("a", 7), ("b", 9), ("c", 6)):
            assert engine.submit(length_record(key, length, 0.5, vocab_size)) == []
        assert engine.pending == 3
        assert [p.record.key for p in engine.advance_clock(1.0)] == ["a", "b", "c"]
        assert engine.pending == 0
        engine.submit(length_record("d", 7, 1.0, vocab_size))
        assert [p.record.key for p in engine.advance_clock(0.5)] == ["d"]
        assert engine.clock == 1.0  # the clock never moves back
        summary = engine.summary()
        assert summary["batches_by_trigger"] == {"clock": 2, "full": 0, "flush": 0}
        # Lags of 0.5 (a, b, c) and 0 (d), in capture seconds.
        assert summary["last_packet_to_emit_p99_s"] == pytest.approx(0.5)
        lag = engine.report.metrics.get("serve.last_packet_to_emit_s")
        assert lag.count == 4 and lag.total == pytest.approx(1.5)

    @pytest.mark.parametrize("batch_size", [2, 64])
    def test_one_forward_per_tick_over_every_distinct_context(
        self, classifier, batch_size
    ):
        # Three reads close flows of mixed lengths, repeats included.  Each
        # tick makes exactly one predict_logits call carrying every distinct
        # context pending at that tick (padded to the widest, with its
        # prefix mask), whatever batch_size cuts the forward into.
        vocab_size = classifier.model.config.vocab_size
        plan = [
            [("a", 6, 0), ("b", 9, 0), ("c", 6, 0), ("d", 4, 1)],
            [("e", 12, 0)],
            [("f", 9, 0), ("g", 9, 1), ("h", 6, 0), ("i", 3, 0)],
        ]
        ticks = [
            _Tick(float(t), [
                length_record(key, length, float(t), vocab_size, variant)
                for key, length, variant in flows
            ])
            for t, flows in enumerate(plan)
        ]
        stub = CountingClassifier(classifier)
        engine = InferenceEngine(stub, batch_size=batch_size)
        served = [
            p.record.key
            for p in serve_stream(iter(ticks), _ScriptedAssembler(), engine)
        ]
        assert served == [key for flows in plan for key, _, _ in flows]
        assert [call.shape for call in stub.calls] == [(3, 9), (1, 12), (4, 9)]
        for call, mask, flows in zip(stub.calls, stub.masks, plan):
            contexts = {(length, variant) for _, length, variant in flows}
            assert len({row.tobytes() for row in call}) == len(contexts)
            assert sorted(mask.sum(axis=1)) == sorted(l for l, _ in contexts)
        summary = engine.summary()
        assert summary["batches_by_trigger"] == {"clock": 3, "full": 0, "flush": 0}
        assert summary["coalesced"] == 1

    @pytest.mark.parametrize("max_pending", [0, -1])
    def test_rejects_nonpositive_max_pending(self, classifier, max_pending):
        with pytest.raises(ValueError, match="max_pending"):
            InferenceEngine(classifier, max_pending=max_pending)


class TestRunAccounting:
    """Forward-served flows are accounted once per run, never per flow,
    with exactly the values per-flow accounting would record."""

    def _predictions(self, classifier, n=40):
        from repro.serve import FlowPrediction

        vocab_size = classifier.model.config.vocab_size
        rng = np.random.default_rng(0)
        predictions = []
        for i in range(n):
            record = length_record(i, 4 + i % 9, float(rng.uniform(0, 9)), vocab_size)
            record.packet_count = int(rng.integers(1, 20))
            predictions.append(FlowPrediction(
                record=record, logits=np.zeros(4), cached=False,
                latency=float(rng.lognormal(-6, 2)),
            ))
        return predictions

    def test_run_records_what_per_flow_observation_records(self, classifier):
        from repro.serve import ServingReport

        predictions = self._predictions(classifier)
        per_flow, per_run = ServingReport(), ServingReport()
        for prediction in predictions:
            per_flow.observe(prediction, 10.0)
        per_run.observe_run(predictions, len(predictions), "clock", 0, 10.0)
        for name in (
            "serve.latency_s", "serve.last_packet_to_emit_s", "serve.flows",
            "serve.packets", "serve.cached",
        ):
            assert per_run.metrics.get(name).snapshot() == (
                per_flow.metrics.get(name).snapshot()
            ), name
        ours, theirs = per_run.summary(), per_flow.summary()
        for key in (
            "flows", "packets", "p50_ms", "p99_ms",
            "last_packet_to_emit_p50_s", "last_packet_to_emit_p99_s",
        ):
            assert ours[key] == theirs[key], key

    def test_forward_served_flows_cost_no_per_flow_observation(
        self, classifier, monkeypatch
    ):
        from repro.obs.metrics import Counter, Histogram

        calls = {"observe": 0, "observe_many": 0, "inc": 0}
        for cls, name in ((Histogram, "observe"), (Histogram, "observe_many"),
                          (Counter, "inc")):
            original = getattr(cls, name)

            def counting(self, *args, _original=original, _name=name):
                calls[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(cls, name, counting)
        vocab_size = classifier.model.config.vocab_size
        engine = InferenceEngine(classifier, batch_size=4)
        for i in range(30):
            engine.submit(length_record(i, 3 + i % 7, 0.0, vocab_size))
        engine.advance_clock(1.0)
        assert engine.summary()["flows"] == 30
        # One run: the batch size, the latency and the lag histograms; the
        # trigger, coalesced, flows and packets counters.
        assert calls == {"observe": 1, "observe_many": 2, "inc": 4}


class CountingClassifier:
    """Delegates ``predict_logits``; keeps the token rows and the mask of
    every call."""

    def __init__(self, classifier):
        self.classifier = classifier
        self.calls: list[np.ndarray] = []
        self.masks: list[np.ndarray] = []

    def predict_logits(self, token_ids, attention_mask, batch_size=64):
        self.calls.append(np.array(token_ids))
        self.masks.append(np.array(attention_mask))
        return self.classifier.predict_logits(
            token_ids, attention_mask, batch_size=batch_size
        )


def dns_query(t, name, txid, conn):
    """One DNS query packet; queries differing only in ``txid`` and ``conn``
    are separate flows with the same encoded context."""
    from repro.net import DNSMessage, DNSQuestion

    message = DNSMessage(transaction_id=txid, questions=[DNSQuestion(name)])
    return build_packet(
        t, "10.0.0.9", "10.0.0.53", "UDP", 5353, 53,
        application=message, metadata={"connection_id": conn},
    )


class TestCoalescing:
    """Pending flows with equal contexts share one forward row."""

    # (length, variant) per flow: length 6 carries contexts 0, 1, 2 three,
    # two and one time(s); length 9 carries one context twice.
    PLAN = [(6, 0), (6, 1), (6, 0), (6, 2), (6, 0), (6, 1), (9, 0), (9, 0)]

    def _records(self, classifier):
        vocab_size = classifier.model.config.vocab_size
        return [
            length_record(("flow", i), length, 0.0, vocab_size, variant)
            for i, (length, variant) in enumerate(self.PLAN)
        ]

    def _serve(self, engine, records):
        predictions = []
        for record in records:
            predictions.extend(engine.submit(record))
        predictions.extend(engine.flush())
        return predictions

    def test_one_row_per_distinct_context(self, classifier):
        stub = CountingClassifier(classifier)
        engine = InferenceEngine(stub, batch_size=2)
        records = self._records(classifier)
        predictions = self._serve(engine, records)
        # Every flow gets exactly one uncached prediction, in FIFO order ...
        assert [p.record.key for p in predictions] == [r.key for r in records]
        assert not any(p.cached for p in predictions)
        # ... from one forward over every distinct context, both lengths
        # in one call (batch_size only cuts that call into chunks).
        assert [call.shape for call in stub.calls] == [(4, 9)]
        assert len({row.tobytes() for row in stub.calls[0]}) == 4
        assert sorted(stub.masks[0].sum(axis=1)) == [6, 6, 6, 9]
        summary = engine.summary()
        assert summary["flows"] == len(records)
        assert summary["coalesced"] == len(records) - 4
        assert summary["batches_by_trigger"] == {"clock": 0, "full": 0, "flush": 1}

    def test_max_pending_counts_flows(self, classifier):
        # max_pending counts flows: four flows of one context fill a
        # pending list of four, and its forward stacks a single row.
        stub = CountingClassifier(classifier)
        engine = InferenceEngine(stub, batch_size=2, max_pending=4)
        vocab_size = classifier.model.config.vocab_size
        served = []
        for i in range(4):
            served.extend(engine.submit(length_record(i, 7, 0.0, vocab_size)))
        assert [p.record.key for p in served] == [0, 1, 2, 3]
        assert [len(call) for call in stub.calls] == [1]
        assert engine.summary()["batches_by_trigger"]["full"] == 1
        assert engine.summary()["coalesced"] == 3

    @pytest.mark.parametrize("cached", [False, True])
    def test_each_flow_is_keyed_and_measured_once(self, classifier, monkeypatch, cached):
        # The flow's cache key rides in its pending entry: it is not
        # recomputed per lookup, coalescing pass or cache put.  No flow is
        # asked its length: the stacked masks give the forward's width.
        records = self._records(classifier)
        calls = {"len": 0, "cache_key": 0}
        length, cache_key = FlowRecord.__len__, FlowRecord.cache_key.fget

        def counting_len(record):
            calls["len"] += 1
            return length(record)

        def counting_key(record):
            calls["cache_key"] += 1
            return cache_key(record)

        monkeypatch.setattr(FlowRecord, "__len__", counting_len)
        monkeypatch.setattr(FlowRecord, "cache_key", property(counting_key))
        engine = InferenceEngine(
            classifier, batch_size=4, max_pending=4,
            cache=PredictionCache() if cached else None,
        )
        # A second pass over a warm cache serves every flow as a hit.
        hits = 0
        for _ in range(1 + cached):
            predictions = self._serve(engine, records)
            assert sorted(p.record.key for p in predictions) == [r.key for r in records]
            hits += sum(p.cached for p in predictions)
        served = len(records) * (1 + cached)
        assert hits >= (len(records) if cached else 0)
        # One cache key per flow; no length.
        assert calls == {"len": 0, "cache_key": served}

    def test_float64_logits_equal_each_flow_served_alone(self, classifier):
        predictions = self._serve(
            InferenceEngine(classifier, batch_size=64), self._records(classifier)
        )
        for prediction in predictions:
            alone = InferenceEngine(classifier, batch_size=64)
            alone.submit(prediction.record)
            (expected,) = alone.flush()
            assert prediction.logits.dtype == np.float64
            assert np.array_equal(prediction.logits, expected.logits)

    def test_each_flow_owns_its_logits(self, classifier):
        cache = PredictionCache()
        engine = InferenceEngine(classifier, batch_size=64, cache=cache)
        predictions = self._serve(engine, self._records(classifier))
        by_key = {p.record.key: p for p in predictions}
        first, twin = by_key[("flow", 0)], by_key[("flow", 2)]
        before = twin.logits.copy()
        assert np.array_equal(first.logits, before)
        first.logits += 1.0
        assert np.array_equal(twin.logits, before)
        assert np.array_equal(cache.get(engine.cache_key_for(twin.record)), before)

    @pytest.mark.parametrize("policy", ["quarantine", "degrade"])
    def test_poisoned_row_reaches_every_flow_on_it(self, policy):
        from repro.serve import DeadLetterQueue, FaultPlan, FaultSpec

        # Five flows share the first flow's context; three others differ in
        # one name label.  Every flow closes at flush, so one run serves all
        # eight.
        names = ["printer.local"] * 3 + ["scanner.local", "printer.local"]
        names += ["storage.local", "printer.local", "scanner.local"]
        packets = [dns_query(0.1 * i, name, 0x1000 + i, i) for i, name in enumerate(names)]
        columns = PacketColumns.from_packets(packets)
        tokenizer = FieldAwareTokenizer()
        builder = FlowContextBuilder(max_tokens=MAX_TOKENS)
        vocabulary = Vocabulary.build(
            [c.tokens for c in builder.build(packets, tokenizer)]
        )
        clf = SequenceClassifier(NetFoundationModel(NetFMConfig(
            vocab_size=len(vocabulary), d_model=16, num_layers=1, num_heads=2,
            d_ff=32, max_len=MAX_TOKENS, dropout=0.0, seed=0,
        )), num_classes=3)
        records = stream_records(columns, tokenizer, vocabulary, 2)
        twins = {r.key for r in records if r.cache_key == records[0].cache_key}
        assert len(twins) == 5 and len({r.cache_key for r in records}) == 3

        engine = InferenceEngine(clf, batch_size=64)
        dlq = DeadLetterQueue()
        predictions = list(serve_stream(
            ColumnsSource(columns, chunk_rows=2),
            StreamingFlowAssembler(tokenizer, vocabulary, builder=builder),
            engine, policy=policy, dead_letters=dlq,
            fault_plan=FaultPlan((FaultSpec("logits", 0, "nan"),)),
        ))
        assert engine.summary()["batches"] == 1
        # One dead letter per flow on the poisoned row.
        assert sorted(entry.flow_key for entry in dlq) == sorted(twins)
        healthy = [p for p in predictions if not p.degraded]
        assert {p.record.key for p in healthy} == {r.key for r in records} - twins
        assert all(np.isfinite(p.logits).all() for p in healthy)
        if policy == "degrade":
            degraded = [p for p in predictions if p.degraded]
            assert {p.record.key for p in degraded} == twins
            assert all(not p.logits.any() for p in degraded)
        else:
            assert len(predictions) == len(records) - len(twins)
        # Packet conservation: served + dead-lettered == every input packet.
        served_packets = sum(p.record.packet_count for p in healthy)
        assert served_packets + dlq.packets == len(columns)



class CrashingClassifier(CountingClassifier):
    """Raises instead of running its ``crash_at``-th forward (1-based)."""

    def __init__(self, classifier, crash_at):
        super().__init__(classifier)
        self.crash_at = crash_at
        self.forwards = 0

    def predict_logits(self, token_ids, attention_mask, batch_size=64):
        self.forwards += 1
        if self.forwards == self.crash_at:
            raise RuntimeError("injected forward crash")
        return super().predict_logits(token_ids, attention_mask, batch_size)


class TestCrashedRun:
    """A forward that crashes inside a run leaves every pending flow
    pending, with nothing emitted, cached or observed: the next call
    serves every record exactly once."""

    LENGTHS = {"a0": 4, "a1": 4, "b0": 6, "b1": 6, "c0": 9}

    @pytest.mark.parametrize("call", ["flush", "advance_clock"])
    def test_crash_then_retry(self, classifier, call):
        vocab_size = classifier.model.config.vocab_size
        records = [
            length_record(key, length, 0.0, vocab_size, variant=i)
            for i, (key, length) in enumerate(self.LENGTHS.items())
        ]
        cache = PredictionCache()
        stub = CrashingClassifier(classifier, crash_at=1)
        engine = InferenceEngine(stub, batch_size=2, cache=cache)
        for record in records:
            assert engine.submit(record) == []

        def run():
            if call == "advance_clock":
                return engine.advance_clock(1.0)
            return engine.flush()

        with pytest.raises(RuntimeError, match="injected forward crash"):
            run()
        assert engine.pending == len(records)
        assert len(cache) == 0 and engine.summary()["flows"] == 0
        served = run()
        assert [p.record.key for p in served] == list(self.LENGTHS)
        assert engine.pending == 0
        assert engine.summary()["flows"] == len(records)
        assert engine.summary()["batches"] == 1
        # The retried run serves the logits an uncrashed engine serves.
        clean = InferenceEngine(classifier, batch_size=2)
        for record in records:
            clean.submit(record)
        expected = {p.record.key: p.logits for p in clean.flush()}
        for prediction in served:
            assert np.array_equal(prediction.logits, expected[prediction.record.key])


class TestSources:
    def test_chunk_columns_covers_all_rows(self, capture):
        columns, _ = capture
        chunks = list(chunk_columns(columns, 17))
        assert sum(len(c) for c in chunks) == len(columns)
        assert all(len(c) <= 17 for c in chunks)
        restored = np.concatenate([c.timestamps for c in chunks])
        assert np.array_equal(restored, columns.timestamps)

    def test_chunk_columns_rejects_nonpositive(self, capture):
        columns, _ = capture
        with pytest.raises(ValueError):
            list(chunk_columns(columns, 0))

    def test_pcap_replay_source_is_lazy_and_equivalent(self, capture, tmp_path):
        columns, packets = capture
        path = tmp_path / "capture.pcap"
        write_pcap(path, packets)
        chunks = list(PcapReplaySource(path, chunk_rows=64))
        assert sum(len(c) for c in chunks) == len(columns)
        # Lazy decode: chunks keep the pending state until apps are touched.
        assert all(getattr(c, "decode_pending", False) for c in chunks)
        eager = list(chunk_columns(read_pcap_columns(path), 64))
        for lazy, plain in zip(chunks, eager):
            assert np.array_equal(lazy.app_kind, plain.app_kind)
            assert lazy.applications == plain.applications

    def test_byte_level_serving_is_decode_free(self, capture, tmp_path):
        # The serving fast path: a byte-level pipeline over a lazily parsed
        # capture never touches the application layer at all.
        columns, packets = capture
        path = tmp_path / "capture.pcap"
        write_pcap(path, packets)
        tokenizer = ByteTokenizer()
        builder = FlowContextBuilder(max_tokens=48, label_key=None)
        contexts = builder.build(packets, tokenizer)
        vocabulary = Vocabulary.build([c.tokens for c in contexts])
        assembler = StreamingFlowAssembler(
            tokenizer, vocabulary,
            builder=FlowContextBuilder(max_tokens=48, label_key=None),
        )
        chunks = list(PcapReplaySource(path, chunk_rows=64))
        records = []
        for chunk in chunks:
            records.extend(assembler.push(chunk))
        records.extend(assembler.flush())
        assert records
        assert all(chunk.decode_pending for chunk in chunks)

    def test_scenario_source_matches_generator(self):
        scenario = EnterpriseScenario(
            EnterpriseScenarioConfig(
                seed=3, duration=5.0, dns_clients=2, dns_queries_per_client=3,
                http_sessions=2, tls_sessions=2, iot_devices_per_type=1,
            )
        )
        chunks = list(ScenarioSource(scenario, chunk_rows=32))
        reference = scenario.generate_columns()
        assert sum(len(c) for c in chunks) == len(reference)
        assert np.array_equal(
            np.concatenate([c.timestamps for c in chunks]), reference.timestamps
        )

    def test_paced_replay_sleeps(self, capture, monkeypatch):
        columns, _ = capture
        naps = []
        import repro.serve.stream as stream_module

        monkeypatch.setattr(stream_module.time, "sleep", naps.append)
        list(ColumnsSource(columns, chunk_rows=64, pace=1000.0))
        assert naps and all(delay >= 0 for delay in naps)


# ----------------------------------------------------------------------
# Batched flow closure
# ----------------------------------------------------------------------
BATCH_IDLE = 0.5
BATCH_ACTIVE = 0.3
BATCH_MAX_PACKETS = 3


def per_flow_reference(columns, chunk_rows, builder, tokenizer, vocabulary,
                       idle_timeout=0.0, active_timeout=0.0):
    """Closure rules applied one flow at a time, one encode per closed flow.

    Mirrors the assembler's contract directly: rows grouped per chunk in key
    first-appearance order, idle/active splits as rows arrive, evictions in
    open order against the chunk clock, flush in first-arrival order — and
    each closed flow encoded by itself from its first ``max_packets`` rows.
    """
    keyer = StreamingFlowAssembler(tokenizer, vocabulary, builder=builder)
    flows: dict = {}  # key -> [generation, seq, rows, count, start, last]
    next_generation: dict = {}
    seq = 0
    out = []

    def close(key, reason):
        generation, _, rows, count, start, last = flows.pop(key)
        next_generation[key] = generation + 1
        ids, mask, labels = builder.encode_columns(
            columns[np.asarray(rows[: builder.max_packets])], tokenizer,
            vocabulary, return_labels=True,
        )
        out.append((key, generation, ids[0].tobytes(), mask[0].tobytes(),
                    labels[0], count, start, last, reason))

    for first in range(0, len(columns), chunk_rows):
        rows = np.arange(first, min(first + chunk_rows, len(columns)))
        per_key: dict = {}
        for row, key in zip(rows.tolist(), keyer.row_keys(columns[rows])):
            per_key.setdefault(key, []).append(row)
        for key, key_rows in per_key.items():
            for row in key_rows:
                t = float(columns.timestamps[row])
                state = flows.get(key)
                if state is not None:
                    idle = idle_timeout > 0 and t - state[5] > idle_timeout
                    active = active_timeout > 0 and t - state[4] > active_timeout
                    if idle or active:
                        close(key, "idle" if idle else "active")
                        flows[key] = [state[0] + 1, seq, [], 0, t, t]
                        seq += 1
                if key not in flows:
                    flows[key] = [next_generation.get(key, 0), seq, [], 0, t, t]
                    seq += 1
                state = flows[key]
                state[2].append(row)
                state[3] += 1
                state[5] = t
        clock = float(columns.timestamps[rows].max())
        if idle_timeout > 0:
            for key in [k for k, s in flows.items() if clock - s[5] > idle_timeout]:
                close(key, "evict")
    for key in sorted(flows, key=lambda k: flows[k][1]):
        close(key, "flush")
    return out


def record_tuple(record):
    return (record.key, record.generation, record.token_ids.tobytes(),
            record.attention_mask.tobytes(), record.label, record.packet_count,
            record.start_time, record.end_time, record.closed_by)


class CountingBuilder:
    """Delegating builder counting ``encode_columns`` calls and flows."""

    def __init__(self, builder):
        self._builder = builder
        self.calls: list[int] = []

    def __getattr__(self, name):
        return getattr(self._builder, name)

    def encode_columns(self, columns, tokenizer, vocabulary, return_labels=False):
        out = self._builder.encode_columns(
            columns, tokenizer, vocabulary, return_labels=return_labels
        )
        self.calls.append(len(out[0]))
        return out


@pytest.fixture(scope="module")
def parsed_capture(capture, tmp_path_factory):
    """The capture written to pcap and read back lazily: no metadata ids."""
    _, packets = capture
    path = tmp_path_factory.mktemp("batched") / "capture.pcap"
    write_pcap(path, packets)
    return read_pcap_columns(path, lazy_decode=True)


class TestBatchedClosure:
    """One gather per chunk and one encode per call, same records as per-flow."""

    @pytest.mark.parametrize("chunk_rows", [1, 7, 256, None])
    @pytest.mark.parametrize("builder_cls", [FlowContextBuilder, SessionContextBuilder])
    def test_records_match_per_flow_reference(
        self, capture, encoded, chunk_rows, builder_cls
    ):
        columns, _ = capture
        tokenizer, vocabulary, *_ = encoded
        chunk_rows = chunk_rows or len(columns)
        builder = builder_cls(max_tokens=MAX_TOKENS, max_packets=BATCH_MAX_PACKETS)
        expected = per_flow_reference(
            columns, chunk_rows, builder, tokenizer, vocabulary,
            idle_timeout=BATCH_IDLE, active_timeout=BATCH_ACTIVE,
        )
        records = stream_records(
            columns, tokenizer, vocabulary, chunk_rows, builder=builder,
            idle_timeout=BATCH_IDLE, active_timeout=BATCH_ACTIVE,
        )
        assert [record_tuple(r) for r in records] == expected
        assert {r.closed_by for r in records} == {"idle", "active", "evict", "flush"}
        longest = max(r.packet_count for r in records)
        assert longest > BATCH_MAX_PACKETS
        if chunk_rows < len(columns):
            # Some flows stay open across several chunks before they close.
            assert longest > chunk_rows

    @pytest.mark.parametrize("chunk_rows", [1, 7, 256, None])
    def test_pcap_columns_without_ids_match_per_flow_reference(
        self, parsed_capture, encoded, chunk_rows
    ):
        columns = parsed_capture
        assert (columns.connection_ids < 0).all()
        tokenizer, vocabulary, *_ = encoded
        chunk_rows = chunk_rows or len(columns)
        builder = FlowContextBuilder(
            max_tokens=MAX_TOKENS, label_key=None, max_packets=BATCH_MAX_PACKETS
        )
        expected = per_flow_reference(
            columns, chunk_rows, builder, tokenizer, vocabulary,
            idle_timeout=BATCH_IDLE, active_timeout=BATCH_ACTIVE,
        )
        records = stream_records(
            columns, tokenizer, vocabulary, chunk_rows, builder=builder,
            idle_timeout=BATCH_IDLE, active_timeout=BATCH_ACTIVE,
        )
        assert [record_tuple(r) for r in records] == expected
        assert all(r.key.startswith("FlowKey(") for r in records)  # 5-tuple keys

    def test_one_encode_per_closing_call(self, capture, encoded):
        columns, _ = capture
        tokenizer, vocabulary, *_ = encoded
        builder = CountingBuilder(FlowContextBuilder(max_tokens=MAX_TOKENS))
        assembler = StreamingFlowAssembler(
            tokenizer, vocabulary, builder=builder,
            idle_timeout=BATCH_IDLE, active_timeout=BATCH_ACTIVE,
        )
        flows = 0
        for chunk in chunk_columns(columns, 32):
            before = len(builder.calls)
            closed = assembler.push(chunk)
            assert len(builder.calls) - before == (1 if closed else 0)
            if closed:
                assert builder.calls[-1] == len(closed)
            flows += len(closed)
        # A clock jump past every idle deadline evicts all open flows at once.
        end = float(columns.timestamps.max())
        before = len(builder.calls)
        evicted = assembler.advance_clock(end + 10)
        assert len(evicted) > 1 and len(builder.calls) - before == 1
        assert builder.calls[-1] == len(evicted)
        assert assembler.advance_clock(end + 20) == []
        assert assembler.flush() == []
        assert len(builder.calls) - before == 1
        flows += len(evicted)
        # Far fewer calls than flows: encode is batched.
        assert len(builder.calls) < flows / 2

        # Without timeouts every flow closes at flush, in one call.
        builder = CountingBuilder(FlowContextBuilder(max_tokens=MAX_TOKENS))
        assembler = StreamingFlowAssembler(tokenizer, vocabulary, builder=builder)
        for chunk in chunk_columns(columns, 32):
            assert assembler.push(chunk) == []
        assert builder.calls == []
        flushed = assembler.flush()
        assert builder.calls == [len(flushed)] and len(flushed) > 1

    def test_checkpoint_holds_real_columns_and_resumes(self, capture, encoded):
        import pickle

        columns, _ = capture
        tokenizer, vocabulary, *_ = encoded

        def make():
            return StreamingFlowAssembler(
                tokenizer, vocabulary,
                builder=FlowContextBuilder(
                    max_tokens=MAX_TOKENS, max_packets=BATCH_MAX_PACKETS
                ),
                idle_timeout=BATCH_IDLE, active_timeout=BATCH_ACTIVE,
            )

        chunks = list(chunk_columns(columns, 7))
        reference = make()
        expected = []
        for chunk in chunks:
            expected.extend(reference.push(chunk))
        expected.extend(reference.flush())

        head = make()
        records = []
        cut = len(chunks) // 2
        for chunk in chunks[:cut]:
            records.extend(head.push(chunk))
        state = head.checkpoint()
        assert state["format"] == StreamingFlowAssembler.CHECKPOINT_FORMAT
        assert state["version"] == 1
        assert state["flows"]
        for flow in state["flows"]:
            assert set(flow) == {
                "key", "generation", "seq", "kept", "count", "start", "last",
                "columns",
            }
            assert type(flow["columns"]) is PacketColumns
            # Exactly the flow's kept rows: no shared per-chunk gather leaks.
            assert len(flow["columns"]) == flow["kept"] <= BATCH_MAX_PACKETS
        tail = make()
        tail.restore(pickle.loads(pickle.dumps(state)))
        for chunk in chunks[cut:]:
            records.extend(tail.push(chunk))
        records.extend(tail.flush())
        assert [record_tuple(r) for r in records] == [
            record_tuple(r) for r in expected
        ]


class TestArmedServeRestoresEngine:
    """An armed run never leaves its guard or fault plan on the engine."""

    def _run(self, capture, encoded, classifier, close_early):
        from repro.serve import FaultPlan, FaultSpec

        columns, _ = capture
        tokenizer, vocabulary, *_ = encoded
        assembler = StreamingFlowAssembler(
            tokenizer, vocabulary, builder=FlowContextBuilder(max_tokens=MAX_TOKENS)
        )
        engine = InferenceEngine(classifier, batch_size=4)
        original = engine.classifier
        plan = FaultPlan((FaultSpec("logits", 0, "nan"),))
        stream = serve_stream(
            ColumnsSource(columns, chunk_rows=32), assembler, engine,
            policy="quarantine", fault_plan=plan,
        )
        if close_early:
            next(stream)
            assert engine.output_guard is not None
            assert engine.classifier is not original
            stream.close()
        else:
            assert list(stream)
        assert engine.output_guard is None
        assert engine.classifier is original

    def test_completed_run(self, capture, encoded, classifier):
        self._run(capture, encoded, classifier, close_early=False)

    def test_generator_closed_early(self, capture, encoded, classifier):
        self._run(capture, encoded, classifier, close_early=True)
