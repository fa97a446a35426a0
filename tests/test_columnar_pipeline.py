"""Columnar grouping / training equivalences: flow contexts and BPE fit.

The columnar fast paths must be drop-in: flow/session context encoding from
a :class:`~repro.net.columns.PacketColumns` batch has to reproduce the
object pipeline's id matrices and labels exactly, and the incremental BPE
``fit`` has to learn the identical merge list as the reference ``Counter``
loop — including on tie-heavy corpora, where the tie-break is now explicit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.context import FlowContextBuilder, SessionContextBuilder
from repro.context.builders import encode_contexts
from repro.net import PacketColumns, build_packet
from repro.netglue.solvers import _PacketTaskEncoder, SolverSettings, _subsample
from repro.tokenize import BPETokenizer, ByteTokenizer, FieldAwareTokenizer, Vocabulary
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

GENERATED_TRAFFIC = {
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


@pytest.fixture(scope="module")
def capture():
    columns = EnterpriseScenario(
        EnterpriseScenarioConfig(
            seed=6, duration=12.0, dns_clients=4, dns_queries_per_client=5,
            http_sessions=6, tls_sessions=6, iot_devices_per_type=1,
        )
    ).generate_columns()
    return columns, columns.to_packets()


class TestColumnarFlowContexts:
    @pytest.mark.parametrize("builder_class", [FlowContextBuilder, SessionContextBuilder])
    @pytest.mark.parametrize("max_tokens", [32, 96])
    def test_encode_columns_matches_object_path(self, capture, builder_class, max_tokens):
        columns, packets = capture
        builder = builder_class(max_tokens=max_tokens)
        tokenizer = FieldAwareTokenizer()
        contexts = builder.build(packets, tokenizer)
        vocabulary = Vocabulary.build([c.tokens for c in contexts])
        expected_ids, expected_mask = encode_contexts(contexts, vocabulary, max_tokens)
        ids, mask, labels = builder.encode_columns(
            columns, tokenizer, vocabulary, return_labels=True
        )
        assert np.array_equal(ids, expected_ids)
        assert np.array_equal(mask, expected_mask)
        assert labels == [c.label for c in contexts]

    def test_encode_columns_byte_tokenizer(self, capture):
        columns, packets = capture
        builder = FlowContextBuilder(max_tokens=48)
        tokenizer = ByteTokenizer()
        contexts = builder.build(packets, tokenizer)
        vocabulary = Vocabulary.build([c.tokens for c in contexts])
        ids, mask = builder.encode_columns(columns, tokenizer, vocabulary)
        expected_ids, expected_mask = encode_contexts(contexts, vocabulary, 48)
        assert np.array_equal(ids, expected_ids)
        assert np.array_equal(mask, expected_mask)

    def test_group_columns_matches_object_grouping(self, capture):
        columns, packets = capture
        builder = FlowContextBuilder()
        order, bounds = builder.group_columns(columns)
        object_groups = [
            sorted(group, key=lambda p: p.timestamp)
            for group in builder._group(packets).values()
        ]
        assert len(bounds) - 1 == len(object_groups)
        for index, group in enumerate(object_groups):
            rows = order[bounds[index] : bounds[index + 1]]
            assert [packets[r] for r in rows] == group

    @pytest.mark.parametrize("builder_class", [FlowContextBuilder, SessionContextBuilder])
    def test_row_keys_match_object_grouping_keys(self, builder_class):
        # row_keys is the one per-row flow-key rule (the streaming assembler
        # and the columnar grouping both use it): every packet gets the key
        # the object path's _group files it under, on a batch mixing integer
        # and digit-string metadata ids with rows that take the fallback.
        packets = [
            build_packet(0.0, "10.0.0.1", "10.0.0.2", "TCP", 1111, 80,
                         metadata={"connection_id": 5, "session_id": 1}),
            build_packet(0.1, "10.0.0.2", "10.0.0.1", "TCP", 80, 1111,
                         metadata={"connection_id": "5", "session_id": "1"}),
            build_packet(0.2, "10.0.0.3", "10.0.0.2", "UDP", 2222, 53),
            build_packet(0.3, "10.0.0.2", "10.0.0.3", "UDP", 53, 2222),
            build_packet(0.4, "10.0.0.4", "10.0.0.2", "TCP", 3333, 443,
                         metadata={"connection_id": 7, "session_id": 2}),
        ]
        builder = builder_class()
        expected = {
            id(packet): key
            for key, group in builder._group(packets).items()
            for packet in group
        }
        columns = PacketColumns.from_packets(packets)
        keys = builder.row_keys(columns)
        assert keys == [expected[id(packet)] for packet in packets]
        assert keys[0] == keys[1]
        _, bounds = builder.group_columns(columns)
        assert len(bounds) - 1 == len(set(keys))

    @pytest.mark.parametrize("builder_class", [FlowContextBuilder, SessionContextBuilder])
    @pytest.mark.parametrize("generator", sorted(GENERATED_TRAFFIC))
    def test_row_keys_match_object_grouping_on_generated_traffic(
        self, generator, builder_class
    ):
        # The same agreement on every traffic generator's own mix of ids
        # and fallback rows.
        columns = GENERATED_TRAFFIC[generator]().generate_columns()
        packets = columns.to_packets()
        builder = builder_class()
        expected = {
            id(packet): key
            for key, group in builder._group(packets).items()
            for packet in group
        }
        keys = builder.row_keys(columns)
        assert keys == [expected[id(packet)] for packet in packets]
        _, bounds = builder.group_columns(columns)
        assert len(bounds) - 1 == len(set(keys))

    def test_fallback_keys_without_metadata_ids(self):
        # Packets with no connection/session ids group by 5-tuple / source ip.
        packets = [
            build_packet(0.0, "10.0.0.1", "10.0.0.2", "TCP", 1111, 80),
            build_packet(0.1, "10.0.0.2", "10.0.0.1", "TCP", 80, 1111),
            build_packet(0.2, "10.0.0.3", "10.0.0.2", "UDP", 2222, 53),
        ]
        columns = PacketColumns.from_packets(packets)
        builder = FlowContextBuilder(max_tokens=32)
        tokenizer = FieldAwareTokenizer()
        contexts = builder.build(packets, tokenizer)
        vocabulary = Vocabulary.build([c.tokens for c in contexts])
        ids, mask = builder.encode_columns(columns, tokenizer, vocabulary)
        expected_ids, expected_mask = encode_contexts(contexts, vocabulary, 32)
        assert np.array_equal(ids, expected_ids)
        assert np.array_equal(mask, expected_mask)
        session_builder = SessionContextBuilder(max_tokens=32)
        session_contexts = session_builder.build(packets, tokenizer)
        session_ids, _ = session_builder.encode_columns(columns, tokenizer, vocabulary)
        expected_session_ids, _ = encode_contexts(session_contexts, vocabulary, 32)
        assert np.array_equal(session_ids, expected_session_ids)

    def test_empty_batch(self):
        columns = PacketColumns.from_packets([])
        builder = FlowContextBuilder(max_tokens=16)
        ids, mask, labels = builder.encode_columns(
            columns, FieldAwareTokenizer(), Vocabulary(), return_labels=True
        )
        assert ids.shape == (0, 16) and mask.shape == (0, 16) and labels == []


class TestSolverColumnarParity:
    def test_encoder_reproduces_object_pipeline(self, capture):
        columns, packets = capture
        settings = SolverSettings(max_train_contexts=60, max_eval_contexts=60)

        rng = np.random.default_rng(settings.seed)
        object_encoder = _PacketTaskEncoder(settings, "application")
        contexts = object_encoder.contexts(packets, settings.max_train_contexts, rng)
        vocabulary = Vocabulary.build([c.tokens for c in contexts])
        expected_ids, expected_mask = encode_contexts(
            contexts, vocabulary, settings.max_tokens
        )

        rng = np.random.default_rng(settings.seed)
        columnar_encoder = _PacketTaskEncoder(settings, "application")
        ids, mask, labels = columnar_encoder.encode_train_columns(
            columns, settings.max_train_contexts, rng
        )
        assert columnar_encoder.vocabulary.tokens() == vocabulary.tokens()
        assert np.array_equal(ids, expected_ids)
        assert np.array_equal(mask, expected_mask)
        assert labels == [c.label for c in contexts]


class TestIncrementalBPEFit:
    def _trace(self, seed=5):
        return EnterpriseScenario(
            EnterpriseScenarioConfig(
                seed=seed, duration=8.0, dns_clients=3, dns_queries_per_client=4,
                http_sessions=4, tls_sessions=4, iot_devices_per_type=1,
            )
        ).generate()

    @pytest.mark.parametrize("num_merges", [8, 60])
    def test_fit_matches_reference(self, num_merges):
        packets = self._trace()
        fast = BPETokenizer(num_merges=num_merges).fit(packets)
        reference = BPETokenizer(num_merges=num_merges).fit_reference(packets)
        assert fast.merges == reference.merges
        assert len(fast.merges) == num_merges
        assert fast._merge_ranks == reference._merge_ranks

    def test_fit_accepts_columns(self):
        packets = self._trace(seed=9)
        columns = PacketColumns.from_packets(packets)
        assert (
            BPETokenizer(num_merges=24).fit(columns).merges
            == BPETokenizer(num_merges=24).fit_reference(packets).merges
        )

    def test_tie_break_is_deterministic(self):
        # Near-identical packets produce many equal pair counts; the
        # incremental fit must break ties exactly as the Counter loop does
        # (earliest first occurrence in the current corpus).
        trace = [
            build_packet(0.0, "10.0.0.1", "10.0.0.2", "TCP", 1000 + (i % 3), 443)
            for i in range(20)
        ]
        fast = BPETokenizer(num_merges=50, max_bytes=32).fit(trace)
        reference = BPETokenizer(num_merges=50, max_bytes=32).fit_reference(trace)
        assert fast.merges == reference.merges
        # Exhaustion: both stop once no pair occurs twice.
        assert len(fast.merges) < 50

    def test_fit_tokenization_round_trip(self):
        packets = self._trace(seed=2)
        tokenizer = BPETokenizer(num_merges=32).fit(packets)
        assert tokenizer.is_fitted
        tokens = tokenizer.tokenize_packet(packets[0])
        assert tokenizer.tokenize_trace(packets)[0] == tokens

    def test_empty_and_tiny_corpora(self):
        assert BPETokenizer(num_merges=8).fit([]).merges == []
        single = [build_packet(0.0, "10.0.0.1", "10.0.0.2", "TCP", 1, 2)]
        assert (
            BPETokenizer(num_merges=8).fit(single).merges
            == BPETokenizer(num_merges=8).fit_reference(single).merges
        )


def test_subsample_keeps_order():
    rng = np.random.default_rng(0)
    items = list(range(100))
    sample = _subsample(items, 10, rng)
    assert sample == sorted(sample) and len(sample) == 10
    assert _subsample(items, 200, rng) == items
