"""Shared infrastructure for synthetic traffic generators.

Every generator in this package produces ``list[Packet]`` with ground-truth
labels stored in ``Packet.metadata``.  The common metadata keys are:

``application``
    Application category ("dns", "http", "video", "mail", ...), used by the
    flow-classification tasks.
``domain_category``
    For DNS traffic, the semantic category of the queried domain.
``device``
    IoT device type, used by device classification.
``anomaly`` / ``attack_type``
    Whether the packet belongs to attack traffic and which kind.
``connection_id`` / ``session_id``
    Identifiers linking packets of one connection / one user-level session,
    used by the context builders (Section 4.1.3).
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Iterable

import numpy as np

from ..net.columns import PacketColumns
from ..net.packet import Packet

__all__ = ["TraceConfig", "TrafficGenerator", "merge_traces", "split_by_label"]

_connection_counter = itertools.count(1)
_session_counter = itertools.count(1)


def next_connection_id() -> int:
    """Globally unique connection identifier (monotonically increasing)."""
    return next(_connection_counter)


def next_session_id() -> int:
    """Globally unique session identifier (monotonically increasing)."""
    return next(_session_counter)


def _reset_id_counters() -> None:
    """Restart the global connection/session counters (tests only).

    The counters make connection ids unique across generator *instances* (a
    merged capture must not collide ids between its DNS and HTTP halves), so
    two runs of the same generator never repeat ids.  Equivalence tests that
    compare ``generate()`` against ``generate_columns()`` reset the counters
    between the two calls so metadata ids line up.
    """
    global _connection_counter, _session_counter
    _connection_counter = itertools.count(1)
    _session_counter = itertools.count(1)


@dataclasses.dataclass
class TraceConfig:
    """Parameters shared by all generators.

    Attributes
    ----------
    seed:
        Seed for the generator's private RNG; two generators built with the
        same configuration produce identical traces.
    start_time:
        Timestamp of the first packet in seconds.
    duration:
        Length of the simulated capture window in seconds.
    client_subnet:
        CIDR from which client addresses are drawn.
    """

    seed: int = 0
    start_time: float = 0.0
    duration: float = 60.0
    client_subnet: str = "10.0.0.0/16"

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)


class TrafficGenerator:
    """Base class: subclasses implement :meth:`_plan` (or legacy :meth:`generate`).

    Plan-based generators describe one run as a
    :class:`~repro.traffic.columnar.TracePlan` of vectorized draws;
    :meth:`generate` materializes it as ``Packet`` objects and
    :meth:`generate_columns` as a native
    :class:`~repro.net.columns.PacketColumns` batch — bit-identical results
    (same seed), with the columnar side skipping per-packet objects entirely.
    Subclasses that only implement :meth:`generate` still get
    :meth:`generate_columns` through a one-shot conversion.
    """

    def __init__(self, config: TraceConfig | None = None):
        self.config = config or TraceConfig()

    def _plan(self):
        """Build this run's :class:`~repro.traffic.columnar.TracePlan` (or None)."""
        return None

    def generate(self) -> list[Packet]:
        plan = self._plan()
        if plan is None:
            raise NotImplementedError
        return plan.to_packets()

    def generate_columns(self) -> PacketColumns:
        """The trace as a native columnar batch (no ``Packet`` objects)."""
        plan = self._plan()
        if plan is None:
            return PacketColumns.from_packets(self.generate())
        return plan.to_columns()


def merge_traces(*traces) -> "list[Packet] | PacketColumns":
    """Merge traces from several generators into one time-ordered capture.

    This models the capture point (e.g. a border router) where packets from
    different endpoints and connections are interleaved — the complication
    Section 4.1.3 highlights for context construction.  If any input is a
    :class:`~repro.net.columns.PacketColumns` batch the merge runs (and
    returns) columnar: one concatenation plus a stable timestamp argsort.
    """
    if any(isinstance(trace, PacketColumns) for trace in traces):
        parts = [
            trace if isinstance(trace, PacketColumns) else PacketColumns.from_packets(trace)
            for trace in traces
        ]
        merged = PacketColumns.concat(parts)
        return merged.select(np.argsort(merged.timestamps, kind="stable"))
    merged: list[Packet] = []
    for trace in traces:
        merged.extend(trace)
    merged.sort(key=lambda p: p.timestamp)
    return merged


def split_by_label(packets: Iterable[Packet], key: str) -> dict[str, list[Packet]]:
    """Group packets by a metadata label value."""
    groups: dict[str, list[Packet]] = {}
    for packet in packets:
        value = str(packet.metadata.get(key, "unknown"))
        groups.setdefault(value, []).append(packet)
    return groups
