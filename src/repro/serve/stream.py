"""Packet sources: bounded columnar chunks for the streaming pipeline.

A *source* is anything iterable that yields
:class:`~repro.net.columns.PacketColumns` chunks in capture-time order.  The
serving layer never sees a whole trace at once: every downstream stage
(:class:`~repro.serve.assembler.StreamingFlowAssembler`,
:class:`~repro.serve.engine.InferenceEngine`) consumes one bounded chunk at a
time, so memory stays proportional to the chunk size plus the open-flow
state, not to the capture length.

Three sources cover the deployment shapes the paper cares about:

* :class:`ColumnsSource` — replay an in-memory batch (the testing and
  benchmarking workhorse);
* :class:`PcapReplaySource` — replay a capture file through the columnar
  reader, always with :class:`lazy application decode
  <repro.net.pcap.LazyDecodeColumns>` so byte-level serving never pays for
  DNS/HTTP/TLS parsing;
* :class:`ScenarioSource` — wrap any traffic generator with a
  ``generate_columns()`` method as a live-traffic simulator.

All three share optional timestamp pacing: ``pace=1.0`` replays at capture
speed (sleeping between chunks), ``pace=10.0`` at 10x, ``pace=None`` (the
default) as fast as the consumer can drain.

Every read also carries the *stream clock*: :func:`chunk_clock` is the
capture time a read reaches, the one time base the assembler's idle
eviction and the engine's serving ticks both run on.
"""

from __future__ import annotations

import time
from typing import Iterator

import numpy as np

from ..net.columns import PacketColumns
from ..net.pcap import check_errors_mode, read_pcap_columns

__all__ = [
    "chunk_columns",
    "chunk_clock",
    "SourceFailure",
    "burst_chunks",
    "interleave_columns",
    "PacketSource",
    "ColumnsSource",
    "PcapReplaySource",
    "ScenarioSource",
]


def chunk_columns(
    columns: PacketColumns, chunk_rows: int
) -> Iterator[PacketColumns]:
    """Slice a column batch into consecutive chunks of ``chunk_rows`` rows.

    Row order is preserved and every row appears in exactly one chunk, so
    feeding the chunks through the streaming assembler reproduces the
    offline pipeline for any chunk size (the equivalence the serving tests
    gate for sizes 1, k and n).
    """
    if chunk_rows <= 0:
        raise ValueError("chunk_rows must be positive")
    for start in range(0, len(columns), chunk_rows):
        yield columns[start : start + chunk_rows]


class SourceFailure:
    """A failed source read, delivered in-band in place of its chunk.

    Under a non-``fail_fast`` resilience policy the armed source yields one
    of these instead of raising, so the serving loop stays one loop and
    :class:`~repro.serve.resilience.AssemblyGuard` numbers every read,
    failed or not.
    """

    __slots__ = ("error",)

    def __init__(self, error: BaseException):
        self.error = error


def chunk_clock(read) -> "float | None":
    """The stream time a source read reaches: its largest capture timestamp.

    ``read`` is a chunk or a :class:`SourceFailure`.  A failed read reaches
    the time of the chunk it lost when the error carries that chunk
    (:class:`~repro.serve.faults.SourceFaultError` does), so pending work
    still ages across a failure.  An empty chunk, an opaque failure or a
    chunk without a single timestamp reaches no time: ``None``.
    """
    if isinstance(read, SourceFailure):
        read = getattr(read.error, "chunk", None)
    if read is None or len(read) == 0:
        return None
    clock = float(np.nanmax(read.timestamps))
    return None if np.isnan(clock) else clock


def burst_chunks(
    columns: PacketColumns, max_rows: int, seed: int = 0
) -> Iterator[PacketColumns]:
    """Slice a column batch into seeded *variable*-size chunks.

    A live tap does not deliver fixed-size reads: interrupt coalescing and
    ring-buffer drains produce bursts from a single packet up to the read
    budget.  This iterator replays that shape — chunk sizes are drawn
    uniformly from ``[1, max_rows]`` by a seeded generator, so a given seed
    reproduces the exact burst pattern.  Row order is preserved and every
    row appears in exactly one chunk, so any downstream equivalence that
    holds per chunk size also holds for every burst pattern.
    """
    if max_rows <= 0:
        raise ValueError("max_rows must be positive")
    rng = np.random.default_rng(seed)
    start = 0
    while start < len(columns):
        stop = start + int(rng.integers(1, max_rows + 1))
        yield columns[start : min(stop, len(columns))]
        start = stop


def interleave_columns(
    columns: PacketColumns, group_ids=None, seed: int = 0
) -> PacketColumns:
    """Seeded out-of-order arrival: shuffle flows, keep each flow in order.

    Multi-queue NICs and load-balanced taps deliver flows interleaved in an
    order that has little to do with global capture time, while packets
    *within* one flow still arrive in flow order (they rode one queue).
    This returns the batch with rows permuted to that shape: the relative
    order of rows sharing a group id is preserved, the interleaving across
    groups is a seeded random draw.

    ``group_ids`` defaults to ``columns.connection_ids`` — pass session ids
    (or any per-row grouping array) to preserve a different unit's order.
    """
    ids = np.asarray(
        columns.connection_ids if group_ids is None else group_ids
    )
    n = len(ids)
    if n != len(columns):
        raise ValueError("group_ids must have one entry per row")
    if n == 0:
        return columns
    rng = np.random.default_rng(seed)
    keys = rng.random(n)
    # Both index lists enumerate the groups in the same (id-sorted) order:
    # `by_row` walks each group's rows in arrival order, `by_key` walks its
    # random keys ascending.  Pairing them hands earlier rows smaller keys,
    # so sorting by assigned key interleaves groups at random while keeping
    # every group's internal order intact.
    by_row = np.lexsort((np.arange(n), ids))
    by_key = np.lexsort((keys, ids))
    assigned = np.empty(n)
    assigned[by_row] = keys[by_key]
    return columns[np.argsort(assigned, kind="stable")]


class PacketSource:
    """Base source: materialize columns once, then chunk (and pace) them.

    Subclasses implement :meth:`_columns`; iteration yields bounded
    :class:`~repro.net.columns.PacketColumns` chunks in row order.
    """

    def __init__(self, chunk_rows: int = 256, pace: float | None = None):
        if chunk_rows <= 0:
            raise ValueError("chunk_rows must be positive")
        if pace is not None and pace <= 0:
            raise ValueError("pace must be positive (or None for unpaced replay)")
        self.chunk_rows = chunk_rows
        self.pace = pace

    def _columns(self) -> PacketColumns:
        raise NotImplementedError

    def __iter__(self) -> Iterator[PacketColumns]:
        columns = self._columns()
        if self.pace is None or len(columns) == 0:
            yield from chunk_columns(columns, self.chunk_rows)
            return
        base = float(columns.timestamps[0])
        started = time.monotonic()
        for chunk in chunk_columns(columns, self.chunk_rows):
            # Deliver each chunk no earlier than its last packet's capture
            # offset (scaled by the replay speed), like a live tap would.
            due = (float(chunk.timestamps[-1]) - base) / self.pace
            delay = due - (time.monotonic() - started)
            if delay > 0:
                time.sleep(delay)
            yield chunk


class ColumnsSource(PacketSource):
    """Replay an in-memory :class:`~repro.net.columns.PacketColumns` batch."""

    def __init__(
        self,
        columns: PacketColumns,
        chunk_rows: int = 256,
        pace: float | None = None,
    ):
        super().__init__(chunk_rows=chunk_rows, pace=pace)
        self.columns = columns

    def _columns(self) -> PacketColumns:
        return self.columns


class PcapReplaySource(PacketSource):
    """Replay a pcap capture through :func:`~repro.net.pcap.read_pcap_columns`.

    The read is always lazy: chunks propagate the pending application
    decode, so a byte-level serving pipeline parses the capture without
    ever decoding DNS/HTTP/TLS payloads, while a field-aware pipeline
    materializes them on first ``app_kind`` access.  Each replay pass
    memoizes decodes in a cache of its own.

    ``errors="quarantine"`` reads damaged captures tolerantly
    (:func:`read_pcap_columns`'s tolerant mode): the clean prefix streams
    normally and every skipped record is appended to :attr:`errors` (a list
    of :class:`~repro.net.pcap.PcapReadError`, reset at each replay pass).
    The default ``"strict"`` raises exactly as before; any other mode is
    rejected at construction.
    """

    def __init__(
        self,
        path,
        chunk_rows: int = 256,
        pace: float | None = None,
        errors: str = "strict",
    ):
        check_errors_mode(errors)
        super().__init__(chunk_rows=chunk_rows, pace=pace)
        self.path = path
        self.errors_mode = errors
        #: Skipped-record provenance from the most recent replay pass.
        self.errors: list = []

    def _columns(self) -> PacketColumns:
        columns = read_pcap_columns(
            self.path, lazy_decode=True, errors=self.errors_mode
        )
        if self.errors_mode == "quarantine":
            columns, self.errors = columns
        return columns


class ScenarioSource(PacketSource):
    """Simulate live traffic by replaying a generator's columnar trace.

    Accepts any of :mod:`repro.traffic`'s scenario/workload generators —
    any object with ``generate_columns()``.  Each iteration regenerates the
    scenario, so a seeded generator replays the identical trace and an
    unseeded one streams fresh traffic per pass.
    """

    def __init__(
        self,
        scenario,
        chunk_rows: int = 256,
        pace: float | None = None,
    ):
        super().__init__(chunk_rows=chunk_rows, pace=pace)
        self.scenario = scenario

    def _columns(self) -> PacketColumns:
        return self.scenario.generate_columns()
