"""Native columnar traffic synthesis: bit-identity with the object path.

Every generator's ``generate_columns()`` must be field-for-field identical
(same seed) to ``PacketColumns.from_packets(generate())`` — the contract
that lets the rest of the pipeline consume columns without ever checking
which path produced them.  The global connection/session counters are reset
between the two runs so metadata ids line up.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.net import PacketColumns
from repro.traffic import (
    AttackConfig,
    AttackGenerator,
    DNSWorkloadConfig,
    DNSWorkloadGenerator,
    EnterpriseScenario,
    EnterpriseScenarioConfig,
    HTTPWorkloadConfig,
    HTTPWorkloadGenerator,
    IoTWorkloadConfig,
    IoTWorkloadGenerator,
    TLSWorkloadConfig,
    TLSWorkloadGenerator,
    apply_jitter,
    drop_packets,
    interleave_at_capture_point,
    merge_traces,
    reorder_within_window,
    shifted_dns_config,
)
from repro.traffic.base import TrafficGenerator, _reset_id_counters


def assert_columns_equal(reference: PacketColumns, columns: PacketColumns) -> None:
    """Field-for-field equality of two column batches."""
    for field in dataclasses.fields(PacketColumns):
        actual = getattr(columns, field.name)
        expected = getattr(reference, field.name)
        if isinstance(expected, np.ndarray):
            assert actual.shape == expected.shape, field.name
            assert np.array_equal(actual, expected), field.name
        else:
            assert actual == expected, field.name


def assert_generator_equivalent(make_generator) -> None:
    """``generate_columns()`` equals ``from_packets(generate())`` bit-for-bit."""
    _reset_id_counters()
    reference = PacketColumns.from_packets(make_generator().generate())
    _reset_id_counters()
    columns = make_generator().generate_columns()
    assert_columns_equal(reference, columns)


GENERATORS = {
    "dns": lambda seed: DNSWorkloadGenerator(
        DNSWorkloadConfig(seed=seed, num_clients=5, queries_per_client=6, duration=15.0)
    ),
    "dns-shifted": lambda seed: DNSWorkloadGenerator(
        shifted_dns_config(DNSWorkloadConfig(seed=seed, num_clients=4, queries_per_client=5))
    ),
    "http": lambda seed: HTTPWorkloadGenerator(
        HTTPWorkloadConfig(seed=seed, num_sessions=8, duration=12.0)
    ),
    "tls": lambda seed: TLSWorkloadGenerator(
        TLSWorkloadConfig(seed=seed, num_sessions=10, duration=12.0)
    ),
    "iot": lambda seed: IoTWorkloadGenerator(
        IoTWorkloadConfig(seed=seed, devices_per_type=2, duration=20.0)
    ),
    "attack": lambda seed: AttackGenerator(AttackConfig(seed=seed, duration=10.0)),
    "scenario": lambda seed: EnterpriseScenario(
        EnterpriseScenarioConfig(
            seed=seed, duration=10.0, dns_clients=3, dns_queries_per_client=4,
            http_sessions=4, tls_sessions=4, iot_devices_per_type=1,
        )
    ),
    "scenario-attacks-loss-jitter": lambda seed: EnterpriseScenario(
        EnterpriseScenarioConfig(
            seed=seed, duration=10.0, dns_clients=3, dns_queries_per_client=4,
            http_sessions=4, tls_sessions=4, iot_devices_per_type=1,
            include_attacks=True, capture_jitter_std=0.002, capture_loss_rate=0.05,
        )
    ),
}


class TestGeneratorColumnEquivalence:
    @pytest.mark.parametrize("name", sorted(GENERATORS))
    @pytest.mark.parametrize("seed", [0, 7, 23])
    def test_columns_match_object_path(self, name, seed):
        assert_generator_equivalent(lambda: GENERATORS[name](seed))

    def test_wire_bytes_match(self):
        _reset_id_counters()
        packets = GENERATORS["scenario"](3).generate()
        _reset_id_counters()
        columns = GENERATORS["scenario"](3).generate_columns()
        matrix, lengths = columns.wire_matrix()
        for row, packet in enumerate(packets):
            assert matrix[row, : lengths[row]].tobytes() == packet.to_bytes()

    def test_every_generator_is_plan_based(self):
        # Both materializers build from ``_plan``; the base class has none.
        library = [
            cls for cls in TrafficGenerator.__subclasses__()
            if cls.__module__.startswith("repro.")
        ]
        assert len(library) >= 5
        assert all("_plan" in vars(cls) for cls in library)
        with pytest.raises(NotImplementedError):
            TrafficGenerator().generate()
        with pytest.raises(NotImplementedError):
            TrafficGenerator().generate_columns()


class TestColumnarCaptureEffects:
    def _columns(self, seed=5):
        return DNSWorkloadGenerator(
            DNSWorkloadConfig(seed=seed, num_clients=3, queries_per_client=5)
        ).generate_columns()

    def test_merge_traces_columnar(self):
        a, b = self._columns(1), self._columns(2)
        merged = merge_traces(a, b)
        assert isinstance(merged, PacketColumns)
        assert len(merged) == len(a) + len(b)
        times = merged.timestamps
        assert (times[1:] >= times[:-1]).all()

    def test_jitter_matches_object_path(self):
        columns = self._columns()
        packets = columns.to_packets()
        jittered_objects = apply_jitter(packets, 0.01, np.random.default_rng(0))
        jittered_columns = apply_jitter(columns, 0.01, np.random.default_rng(0))
        assert_columns_equal(
            PacketColumns.from_packets(jittered_objects), jittered_columns
        )

    def test_drop_matches_object_path(self):
        columns = self._columns()
        packets = columns.to_packets()
        kept_objects = drop_packets(packets, 0.3, np.random.default_rng(4))
        kept_columns = drop_packets(columns, 0.3, np.random.default_rng(4))
        assert_columns_equal(PacketColumns.from_packets(kept_objects), kept_columns)
        with pytest.raises(ValueError):
            drop_packets(columns, 1.2, np.random.default_rng(0))

    def test_interleave_columnar_matches_object_path(self):
        a, b = self._columns(1), self._columns(2)
        object_capture = interleave_at_capture_point(
            a.to_packets(), b.to_packets(),
            rng=np.random.default_rng(9), jitter_std=0.001, loss_rate=0.1,
        )
        column_capture = interleave_at_capture_point(
            a, b, rng=np.random.default_rng(9), jitter_std=0.001, loss_rate=0.1
        )
        assert isinstance(column_capture, PacketColumns)
        assert_columns_equal(PacketColumns.from_packets(object_capture), column_capture)

    def test_reorder_within_window_columnar(self):
        columns = self._columns()
        packets = columns.to_packets()
        reference = reorder_within_window(packets, 4, np.random.default_rng(2))
        reordered = reorder_within_window(columns, 4, np.random.default_rng(2))
        assert reordered.to_packets() == reference


class TestColumnsRowAccess:
    def _columns(self):
        return EnterpriseScenario(
            EnterpriseScenarioConfig(
                seed=11, duration=8.0, dns_clients=2, dns_queries_per_client=3,
                http_sessions=3, tls_sessions=3, iot_devices_per_type=1,
            )
        ).generate_columns()

    def test_int_index_materializes_packet(self):
        columns = self._columns()
        packets = columns.to_packets()
        assert columns[0] == packets[0]
        assert columns[-1] == packets[-1]
        with pytest.raises(IndexError):
            columns[len(columns)]

    def test_slice_round_trip(self):
        columns = self._columns()
        packets = columns.to_packets()
        window = columns[5:20]
        assert isinstance(window, PacketColumns)
        assert window.to_packets() == packets[5:20]
        assert_columns_equal(PacketColumns.from_packets(packets[5:20]), window)

    def test_index_array_round_trip_with_repeats(self):
        columns = self._columns()
        packets = columns.to_packets()
        rows = np.array([3, 1, 1, 10, -1])
        selected = columns[rows]
        expected = [packets[i] for i in [3, 1, 1, 10, len(packets) - 1]]
        assert selected.to_packets() == expected
        assert_columns_equal(PacketColumns.from_packets(expected), selected)

    def test_boolean_mask_round_trip(self):
        columns = self._columns()
        packets = columns.to_packets()
        mask = np.zeros(len(columns), dtype=bool)
        mask[::3] = True
        assert columns[mask].to_packets() == [p for p, m in zip(packets, mask) if m]
        with pytest.raises(IndexError):
            columns[mask[:-1]]
        with pytest.raises(IndexError):
            columns[np.array([0, len(columns)])]

    def test_concat_round_trip(self):
        columns = self._columns()
        left, right = columns[: len(columns) // 2], columns[len(columns) // 2 :]
        rejoined = PacketColumns.concat([left, right])
        assert_columns_equal(
            PacketColumns.from_packets(columns.to_packets()), rejoined
        )
        assert len(PacketColumns.concat([])) == 0

    def test_grouping_id_columns_match_metadata(self):
        columns = self._columns()
        for row, metadata in enumerate(columns.metadata):
            assert columns.connection_ids[row] == metadata.get("connection_id", -1)
            assert columns.session_ids[row] == metadata.get("session_id", -1)


def test_datacenter_dataset_matches_flow_features():
    """The columnar dataset() must equal the per-flow feature_vector path."""
    from repro.traffic import DatacenterConfig, DatacenterFlowGenerator

    generator = DatacenterFlowGenerator(DatacenterConfig(seed=4, num_flows=150))
    features, targets = generator.dataset()
    flows = generator.generate()
    assert np.allclose(features, np.stack([f.feature_vector() for f in flows]))
    assert np.allclose(targets, [f.completion_time for f in flows])
