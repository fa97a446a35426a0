"""Columnar capture & flow-statistics layer: bit-identity with the object path.

``read_pcap_columns(path)`` must equal ``PacketColumns.from_packets(
read_pcap(path))`` field for field — including the decoded application
objects, the name dicts and the error behavior for malformed records — and
``write_pcap_columns`` must produce byte-for-byte the file ``write_pcap``
writes.  ``FlowStatsColumns`` must reproduce the ``FlowTable`` +
``flow_statistics`` feature table bit-for-bit (feature order, flow order,
float rounding) along with the per-flow majority labels.
"""

from __future__ import annotations

import dataclasses
import struct

import numpy as np
import pytest

from repro.net import (
    DNSMessage,
    DNSQuestion,
    FlowTable,
    PacketColumns,
    build_packet,
    flow_feature_matrix,
    flow_statistics,
    read_pcap,
    read_pcap_columns,
    write_pcap,
    write_pcap_columns,
)
from repro.net.flow_columns import FLOW_FEATURE_NAMES, FlowStatsColumns
from repro.traffic import EnterpriseScenario, EnterpriseScenarioConfig


def assert_columns_equal(reference: PacketColumns, columns: PacketColumns) -> None:
    for field in dataclasses.fields(PacketColumns):
        actual = getattr(columns, field.name)
        expected = getattr(reference, field.name)
        if isinstance(expected, np.ndarray):
            assert actual.shape == expected.shape, field.name
            assert np.array_equal(actual, expected), field.name
        else:
            assert actual == expected, field.name


@pytest.fixture(scope="module")
def trace():
    config = EnterpriseScenarioConfig(
        seed=11, duration=25.0, dns_clients=6, dns_queries_per_client=5,
        http_sessions=8, tls_sessions=8, iot_devices_per_type=2,
        include_attacks=True,
    )
    return EnterpriseScenario(config).generate()


@pytest.fixture(scope="module")
def capture_path(trace, tmp_path_factory):
    return write_pcap(tmp_path_factory.mktemp("pcap") / "capture.pcap", trace)


class TestReadPcapColumns:
    def test_bit_identical_to_object_reader(self, capture_path):
        reference = PacketColumns.from_packets(read_pcap(capture_path))
        assert_columns_equal(reference, read_pcap_columns(capture_path))

    def test_reused_decode_cache_is_exact(self, capture_path):
        reference = PacketColumns.from_packets(read_pcap(capture_path))
        cache: dict = {}
        for _ in range(2):  # second read runs fully warm
            assert_columns_equal(
                reference, read_pcap_columns(capture_path, decode_cache=cache)
            )

    def test_empty_capture(self, tmp_path):
        path = write_pcap(tmp_path / "empty.pcap", [])
        assert_columns_equal(PacketColumns.from_packets([]), read_pcap_columns(path))

    def test_big_endian_capture(self, tmp_path):
        packets = [
            build_packet(2.25, "10.0.0.1", "8.8.8.8", "UDP", 40000, 53,
                         application=DNSMessage(transaction_id=3,
                                                questions=[DNSQuestion("a.example")])),
            build_packet(2.5, "10.0.0.1", "10.0.0.9", "ICMP", seq=1),
        ]
        blob = struct.pack(">IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)
        for packet in packets:
            data = packet.to_bytes()
            seconds = int(packet.timestamp)
            micros = int(round((packet.timestamp - seconds) * 1_000_000))
            blob += struct.pack(">IIII", seconds, micros, len(data), len(data)) + data
        path = tmp_path / "be.pcap"
        path.write_bytes(blob)
        assert_columns_equal(
            PacketColumns.from_packets(read_pcap(path)), read_pcap_columns(path)
        )

    def test_snaplen_truncated_records(self, trace, tmp_path):
        # snaplen cuts payloads (captured < orig_len) but leaves the fixed
        # headers intact: both readers agree on the degraded parse.
        path = write_pcap(tmp_path / "cut.pcap", trace[:200], snaplen=60)
        assert_columns_equal(
            PacketColumns.from_packets(read_pcap(path)), read_pcap_columns(path)
        )

    def test_truncation_errors_match_object_reader(self, trace, tmp_path):
        full = write_pcap(tmp_path / "full.pcap", trace[:4]).read_bytes()
        mid = tmp_path / "mid.pcap"
        mid.write_bytes(full[:-5])
        with pytest.raises(ValueError, match="truncated mid-record"):
            read_pcap(mid)
        with pytest.raises(ValueError, match="truncated mid-record"):
            read_pcap_columns(mid)

    def test_unparseable_row_raises_like_parse_packet(self, tmp_path):
        # A record too short for Ethernet+IPv4 goes through the per-packet
        # fallback and raises exactly what the object reader raises.
        blob = struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)
        blob += struct.pack("<IIII", 0, 0, 10, 10) + b"\x00" * 10
        path = tmp_path / "short_record.pcap"
        path.write_bytes(blob)
        with pytest.raises(ValueError) as object_error:
            read_pcap(path)
        with pytest.raises(ValueError) as columnar_error:
            read_pcap_columns(path)
        assert str(object_error.value) == str(columnar_error.value)

    def test_tls_branch_ntp_fallback_not_cached_across_port_pairs(self, tmp_path):
        # Identical non-handshake payloads on the TLS ports decode
        # differently depending on whether a port is 123 (the NTP
        # fallback), so the memoization must not reuse one row's result
        # for the other — in either order.
        from repro.net import NTPPacket

        ntp_bytes = NTPPacket().pack()
        for ports in [((5000, 443), (123, 443)), ((123, 443), (5000, 443))]:
            packets = [
                build_packet(float(i), "10.0.0.1", "10.0.0.2", "UDP", src, dst,
                             application=ntp_bytes)
                for i, (src, dst) in enumerate(ports)
            ]
            path = write_pcap(tmp_path / "tlsntp.pcap", packets)
            assert_columns_equal(
                PacketColumns.from_packets(read_pcap(path)), read_pcap_columns(path)
            )

    def test_non_ipv4_row_raises_like_parse_packet(self, tmp_path):
        data = b"\xff" * 60  # version nibble 0xf != 4
        blob = struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)
        blob += struct.pack("<IIII", 0, 0, len(data), len(data)) + data
        path = tmp_path / "notip.pcap"
        path.write_bytes(blob)
        with pytest.raises(ValueError) as object_error:
            read_pcap(path)
        with pytest.raises(ValueError) as columnar_error:
            read_pcap_columns(path)
        assert str(object_error.value) == str(columnar_error.value)


class TestWritePcapColumns:
    def test_byte_identical_to_object_writer(self, trace, tmp_path):
        columns = PacketColumns.from_packets(trace)
        object_path = write_pcap(tmp_path / "obj.pcap", columns.to_packets())
        columnar_path = write_pcap_columns(tmp_path / "col.pcap", columns)
        assert object_path.read_bytes() == columnar_path.read_bytes()

    def test_snaplen_byte_identical(self, trace, tmp_path):
        columns = PacketColumns.from_packets(trace[:100])
        object_path = write_pcap(tmp_path / "obj.pcap", columns.to_packets(), snaplen=70)
        columnar_path = write_pcap_columns(tmp_path / "col.pcap", columns, snaplen=70)
        assert object_path.read_bytes() == columnar_path.read_bytes()

    def test_round_trip_through_columns(self, trace, tmp_path):
        # generate → write_pcap_columns → read_pcap_columns: the no-object
        # capture path reproduces what the object pipeline would parse.
        columns = PacketColumns.from_packets(trace[:150])
        path = write_pcap_columns(tmp_path / "rt.pcap", columns)
        assert_columns_equal(
            PacketColumns.from_packets(read_pcap(path)), read_pcap_columns(path)
        )


class TestFlowStatsColumns:
    def _object_table(self, packets, label_key=None):
        table = FlowTable()
        table.extend(packets)
        flows = table.flows()
        features = np.stack([
            np.array(list(flow_statistics(flow).values()), dtype=float)
            for flow in flows
        ])
        if label_key is None:
            return features
        return features, [flow.label(label_key) for flow in flows]

    def test_feature_names_match_flow_statistics(self):
        packet = build_packet(0.0, "10.0.0.1", "10.0.0.2", "TCP", 1, 2)
        table = FlowTable()
        table.add(packet)
        assert tuple(flow_statistics(table.flows()[0])) == FLOW_FEATURE_NAMES

    def test_features_bit_identical(self, trace):
        columns = PacketColumns.from_packets(trace)
        expected, expected_labels = self._object_table(trace, "application")
        actual, labels = flow_feature_matrix(columns, label_key="application")
        assert actual.shape == expected.shape
        assert np.array_equal(actual, expected)
        assert labels == expected_labels

    def test_features_from_parsed_pcap(self, capture_path):
        # Parsed captures have no metadata, exercise the 5-tuple-only path.
        columns = read_pcap_columns(capture_path)
        expected = self._object_table(read_pcap(capture_path))
        assert np.array_equal(flow_feature_matrix(columns), expected)

    def test_packet_list_input(self, trace):
        expected = self._object_table(trace[:300])
        assert np.array_equal(flow_feature_matrix(trace[:300]), expected)

    def test_grouping_slices_cover_all_rows(self, trace):
        columns = PacketColumns.from_packets(trace)
        stats = FlowStatsColumns.from_columns(columns)
        assert stats.bounds[0] == 0 and stats.bounds[-1] == len(columns)
        assert sorted(stats.order.tolist()) == list(range(len(columns)))
        # rows within each flow are in timestamp order
        for g in range(len(stats)):
            rows = stats.order[stats.bounds[g]:stats.bounds[g + 1]]
            times = columns.timestamps[rows]
            assert (np.diff(times) >= 0).all()

    def test_empty_batch(self):
        columns = PacketColumns.from_packets([])
        stats = FlowStatsColumns.from_columns(columns)
        assert stats.features.shape == (0, len(FLOW_FEATURE_NAMES))

    def test_no_ip_rows_group_like_objects(self):
        # Packets without an IP layer (src_ip == "") still group and
        # featurize exactly like the object path.
        from repro.net import EthernetHeader, Packet

        bare = [
            Packet(timestamp=float(i), ethernet=EthernetHeader(), payload=b"xy")
            for i in range(3)
        ]
        mixed = bare + [build_packet(0.5, "10.0.0.1", "10.0.0.2", "TCP", 5, 6)]
        expected = self._object_table(mixed)
        actual = flow_feature_matrix(PacketColumns.from_packets(mixed))
        assert np.array_equal(actual, expected)


class TestFlowStatsSolverColumnar:
    def test_solver_matches_object_feature_pipeline(self):
        from repro.core.finetuning import LabelEncoder
        from repro.netglue.solvers import FlowStatsSolver

        config = EnterpriseScenarioConfig(seed=5, duration=15.0, include_attacks=False)
        columns = EnterpriseScenario(config).generate_columns()
        packets = columns.to_packets()

        table = FlowTable()
        table.extend(packets)
        flows = [f for f in table.flows() if f.label("application") is not None]
        expected = np.stack([
            np.array(list(flow_statistics(flow).values()), dtype=float)
            for flow in flows
        ])
        labels = [str(flow.label("application")) for flow in flows]

        solver = FlowStatsSolver()
        features, encoded, encoder = solver._flow_features(columns, "application", None)
        assert np.array_equal(features, expected)
        assert encoder.decode(encoded) == labels

    def test_solver_accepts_packet_lists(self):
        from repro.netglue.solvers import FlowStatsSolver

        config = EnterpriseScenarioConfig(seed=6, duration=10.0, include_attacks=False)
        columns = EnterpriseScenario(config).generate_columns()
        solver = FlowStatsSolver()
        from_columns = solver._flow_features(columns, "application", None)
        from_packets = solver._flow_features(columns.to_packets(), "application", None)
        assert np.array_equal(from_columns[0], from_packets[0])
        assert np.array_equal(from_columns[1], from_packets[1])


class TestLazyDecode:
    """``read_pcap_columns(lazy_decode=True)``: decode-free cold parse,
    bit-identical materialization on first ``app_kind``/``applications``
    access, pending-state propagation through select/concat."""

    def test_materialized_lazy_equals_eager(self, capture_path):
        eager = read_pcap_columns(capture_path)
        lazy = read_pcap_columns(capture_path, lazy_decode=True)
        assert lazy.decode_pending
        assert_columns_equal(eager, lazy)  # field access triggers the decode
        assert not lazy.decode_pending

    def test_cold_parse_is_decode_free(self, capture_path):
        lazy = read_pcap_columns(capture_path, lazy_decode=True)
        # Byte-level consumption: wire serialization, header columns and
        # row selection never touch the application layer.
        matrix, lengths = lazy.wire_matrix()
        assert matrix.shape[0] == len(lazy) and lengths.sum() > 0
        subset = lazy[5:40]
        assert lazy.decode_pending and subset.decode_pending

    def test_app_kind_access_triggers_decode(self, capture_path):
        eager = read_pcap_columns(capture_path)
        lazy = read_pcap_columns(capture_path, lazy_decode=True)
        assert np.array_equal(lazy.app_kind, eager.app_kind)
        assert not lazy.decode_pending
        assert lazy.applications == eager.applications

    def test_select_and_concat_propagate_pending(self, capture_path):
        eager = read_pcap_columns(capture_path)
        lazy = read_pcap_columns(capture_path, lazy_decode=True)
        parts = [lazy[0:25], lazy[25:60], lazy[60 : len(lazy)]]
        assert all(part.decode_pending for part in parts)
        merged = type(parts[0]).concat(parts)
        assert merged.decode_pending and lazy.decode_pending
        assert np.array_equal(merged.app_kind, eager.app_kind)
        assert merged.applications == eager.applications

    def test_lazy_decode_uses_shared_cache(self, capture_path):
        cache: dict = {}
        eager = read_pcap_columns(capture_path, decode_cache=cache)
        lazy = read_pcap_columns(
            capture_path, decode_cache=cache, lazy_decode=True
        )
        assert_columns_equal(eager, lazy)

    def test_to_packets_matches_object_reader(self, capture_path):
        lazy = read_pcap_columns(capture_path, lazy_decode=True)
        assert lazy.to_packets() == read_pcap(capture_path)

    def test_shard_writes_over_lazy_corpus(self, capture_path, tmp_path):
        from repro.corpus import PacketTraceCorpus

        eager = read_pcap_columns(capture_path)
        corpus = PacketTraceCorpus(
            read_pcap_columns(capture_path, lazy_decode=True)
        )
        corpus.save_shards(tmp_path / "lazy", shard_rows=40)
        restored = PacketTraceCorpus.open_shards(tmp_path / "lazy")
        assert_columns_equal(eager, restored.columns())


class TestFlowStatsIdleTimeout:
    """``FlowStatsColumns`` with ``idle_timeout`` splits flows bit-identically
    to ``FlowTable(idle_timeout=...)`` (the shared expiry rule)."""

    def _object_reference(self, packets, idle_timeout, label_key=None):
        table = FlowTable(idle_timeout=idle_timeout)
        table.extend(packets)
        flows = table.flows()
        features = np.stack([
            np.array(list(flow_statistics(flow).values()), dtype=float)
            for flow in flows
        ])
        if label_key is None:
            return features
        return features, [flow.label(label_key) for flow in flows]

    @pytest.mark.parametrize("idle_timeout", [0.05, 0.2, 1.0, 30.0])
    def test_features_bit_identical(self, trace, idle_timeout):
        columns = PacketColumns.from_packets(trace)
        expected = self._object_reference(trace, idle_timeout)
        actual = flow_feature_matrix(columns, idle_timeout=idle_timeout)
        assert actual.shape == expected.shape
        assert np.array_equal(actual, expected)

    def test_labels_follow_the_split_flows(self, trace):
        columns = PacketColumns.from_packets(trace)
        expected, labels = self._object_reference(
            trace, 0.2, label_key="application"
        )
        actual, actual_labels = flow_feature_matrix(
            columns, label_key="application", idle_timeout=0.2
        )
        assert np.array_equal(actual, expected)
        assert actual_labels == labels

    def test_zero_timeout_unchanged(self, trace):
        columns = PacketColumns.from_packets(trace)
        assert np.array_equal(
            flow_feature_matrix(columns, idle_timeout=0.0),
            flow_feature_matrix(columns),
        )

    def test_grouping_slices_respect_generations(self, trace):
        columns = PacketColumns.from_packets(trace)
        stats = FlowStatsColumns.from_columns(columns, idle_timeout=0.2)
        # Every row appears exactly once, and each flow's slice is
        # timestamp-ordered with intra-flow gaps within the timeout.
        assert sorted(stats.order.tolist()) == list(range(len(columns)))
        for g in range(len(stats)):
            rows = stats.order[stats.bounds[g] : stats.bounds[g + 1]]
            times = columns.timestamps[rows]
            assert np.all(np.diff(times) >= 0)

    def test_packet_list_input_with_timeout(self, trace):
        columns = PacketColumns.from_packets(trace)
        assert np.array_equal(
            flow_feature_matrix(columns, idle_timeout=0.5),
            flow_feature_matrix(trace, idle_timeout=0.5),
        )


class TestTolerantRead:
    """``read_pcap_columns(errors="quarantine")`` — damaged captures.

    The tolerant mode's contract: the returned columns are bit-identical to
    a strict read of the clean prefix with the bad records excised, and every
    skipped record is reported as a :class:`PcapReadError` with its kind,
    record index and byte offset.  The strict default must raise exactly as
    before.
    """

    def test_errors_param_is_validated(self, capture_path):
        with pytest.raises(ValueError, match="errors must be"):
            read_pcap_columns(capture_path, errors="ignore")

    def test_clean_capture_round_trips_with_no_errors(self, capture_path):
        reference = read_pcap_columns(capture_path)
        columns, errors = read_pcap_columns(capture_path, errors="quarantine")
        assert errors == []
        assert_columns_equal(reference, columns)

    def test_truncated_record_yields_clean_prefix(self, capture_path, tmp_path):
        from repro.net import PcapReadError

        raw = capture_path.read_bytes()
        damaged = tmp_path / "cut.pcap"
        damaged.write_bytes(raw[:-5])  # the last record loses payload bytes
        with pytest.raises(ValueError, match="truncated mid-record"):
            read_pcap_columns(damaged)
        columns, errors = read_pcap_columns(damaged, errors="quarantine")
        full = read_pcap_columns(capture_path)
        assert_columns_equal(full[np.arange(len(full) - 1)], columns)
        assert len(errors) == 1
        assert isinstance(errors[0], PcapReadError)
        assert errors[0].kind == "truncated-record"
        assert errors[0].index == len(full) - 1

    def test_truncated_header_yields_all_records(self, capture_path, tmp_path):
        raw = capture_path.read_bytes()
        damaged = tmp_path / "tail.pcap"
        damaged.write_bytes(raw + b"\x07" * 8)  # a partial next record header
        with pytest.raises(ValueError, match="truncated record header"):
            read_pcap_columns(damaged)
        columns, errors = read_pcap_columns(damaged, errors="quarantine")
        assert_columns_equal(read_pcap_columns(capture_path), columns)
        assert [e.kind for e in errors] == ["truncated-header"]
        assert errors[0].offset == len(raw)

    @staticmethod
    def _splice_bad_record(raw: bytes, after_records: int) -> tuple[bytes, int]:
        """Insert an unparseable record after ``after_records`` records."""
        header = struct.Struct("<IHHiIII")
        record = struct.Struct("<IIII")
        pos = header.size
        for _ in range(after_records):
            captured = record.unpack_from(raw, pos)[2]
            pos += record.size + captured
        bad = record.pack(0, 0, 4, 4) + b"\xde\xad\xbe\xef"  # < Ethernet size
        return raw[:pos] + bad + raw[pos:], pos

    def test_bad_record_is_excised(self, capture_path, tmp_path):
        raw = capture_path.read_bytes()
        spliced, offset = self._splice_bad_record(raw, after_records=3)
        damaged = tmp_path / "bad.pcap"
        damaged.write_bytes(spliced)
        with pytest.raises(ValueError):  # the fallback parser's error
            read_pcap_columns(damaged)
        columns, errors = read_pcap_columns(damaged, errors="quarantine")
        assert_columns_equal(read_pcap_columns(capture_path), columns)
        assert [e.kind for e in errors] == ["bad-record"]
        assert errors[0].index == 3
        assert errors[0].offset == offset

    def test_lazy_tolerant_read_matches_eager(self, capture_path, tmp_path):
        raw = capture_path.read_bytes()
        spliced, _ = self._splice_bad_record(raw, after_records=2)
        damaged = tmp_path / "bad_lazy.pcap"
        damaged.write_bytes(spliced)
        eager, _ = read_pcap_columns(damaged, errors="quarantine")
        lazy, errors = read_pcap_columns(
            damaged, errors="quarantine", lazy_decode=True
        )
        assert [e.kind for e in errors] == ["bad-record"]
        assert_columns_equal(eager, lazy)

    def test_replay_source_quarantine_mode(self, capture_path, tmp_path):
        from repro.serve import PcapReplaySource, chunk_columns

        raw = capture_path.read_bytes()
        damaged = tmp_path / "cut_replay.pcap"
        damaged.write_bytes(raw[:-5])
        source = PcapReplaySource(damaged, chunk_rows=7, errors="quarantine")
        chunks = list(source)
        assert [e.kind for e in source.errors] == ["truncated-record"]
        reference = read_pcap_columns(capture_path)
        clean = reference[np.arange(len(reference) - 1)]
        expected = list(chunk_columns(clean, 7))
        assert len(chunks) == len(expected)
        for got, want in zip(chunks, expected):
            assert np.array_equal(got.timestamps, want.timestamps)
            assert np.array_equal(got.payload_lengths, want.payload_lengths)
        strict = PcapReplaySource(damaged, chunk_rows=7)
        with pytest.raises(ValueError, match="truncated mid-record"):
            list(strict)

    def test_replay_source_rejects_unknown_errors_mode(self, capture_path):
        from repro.serve import PcapReplaySource

        # A misspelt mode must fail at construction, not replay strictly.
        with pytest.raises(ValueError, match="errors must be 'strict' or "
                           "'quarantine', got 'quarantin'"):
            PcapReplaySource(capture_path, errors="quarantin")



RECORD_HEADER = struct.Struct("<IIII")


def damaged_copies(raw: bytes, count: int, seed: int):
    """Yield ``count`` copies of a capture, each with one record damaged:
    1-3 of its bytes flipped, or its captured bytes cut short."""
    spans, pos = [], 24  # (record offset, captured length)
    while pos < len(raw):
        captured = RECORD_HEADER.unpack_from(raw, pos)[2]
        spans.append((pos, captured))
        pos += RECORD_HEADER.size + captured
    rng = np.random.default_rng(seed)
    for _ in range(count):
        data = bytearray(raw)
        pos, captured = spans[rng.integers(len(spans))]
        body = pos + RECORD_HEADER.size
        if rng.random() < 0.5:
            flips = rng.integers(body, body + captured, size=rng.integers(1, 4))
            for at in flips.tolist():
                data[at] ^= int(rng.integers(1, 256))
        else:
            keep = int(rng.integers(0, captured))
            struct.pack_into("<I", data, pos + 8, keep)
            del data[body + keep : body + captured]
        yield bytes(data)


@pytest.fixture(scope="module")
def mutated_paths(trace, tmp_path_factory):
    # Every 8th packet keeps each protocol of the scenario (29 DNS and 19
    # TLS hellos among 93 records) while a read stays ~2 ms.
    directory = tmp_path_factory.mktemp("mutated")
    raw = write_pcap(directory / "small.pcap", trace[::8]).read_bytes()
    paths = []
    for i, mutant in enumerate(damaged_copies(raw, count=240, seed=0)):
        path = directory / f"mutant-{i:03d}.pcap"
        path.write_bytes(mutant)
        paths.append(path)
    return paths


class TestMutatedCaptures:
    """Seeded byte flips and record truncations of the capture.

    A malformed application payload (a DNS question cut short, a TLS hello
    with a bad length) must never crash a read: the decode turns it into
    "no application layer", whichever reader and decode timing runs it.
    """

    def test_quarantine_read_returns(self, mutated_paths):
        for path in mutated_paths:
            columns, _ = read_pcap_columns(path, errors="quarantine")
            assert len(columns.app_kind) == len(columns)

    def test_lazy_decode_equals_eager(self, mutated_paths):
        for path in mutated_paths:
            eager, _ = read_pcap_columns(path, errors="quarantine")
            lazy, _ = read_pcap_columns(
                path, errors="quarantine", lazy_decode=True
            )
            assert_columns_equal(eager, lazy)

    def test_strict_read_matches_object_reader(self, mutated_paths):
        for path in mutated_paths:
            try:
                expected = PacketColumns.from_packets(read_pcap(path))
            except Exception as error:
                with pytest.raises(type(error)):
                    read_pcap_columns(path)
            else:
                assert_columns_equal(expected, read_pcap_columns(path))
