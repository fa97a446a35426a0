"""A libpcap-compatible trace container.

Traces produced by the synthetic generators can be written to standard pcap
files (magic 0xA1B2C3D4, microsecond resolution, LINKTYPE_ETHERNET) and read
back, so they can also be inspected with external tools if desired.

Two pairs of entry points are provided:

* :func:`write_pcap` / :func:`read_pcap` — the per-packet object path
  (``list[Packet]`` in, ``list[Packet]`` out);
* :func:`write_pcap_columns` / :func:`read_pcap_columns` — the columnar path:
  a :class:`~repro.net.columns.PacketColumns` batch is serialized from its
  vectorized ``wire_matrix`` and parsed back with one ``np.frombuffer`` over
  the whole file plus whole-column header-field gathers, so a capture never
  materializes per-packet Python objects on its way into the pipeline.
  ``read_pcap_columns(path)`` is bit-identical to
  ``PacketColumns.from_packets(read_pcap(path))`` — field for field,
  including the decoded application objects and the error behavior for
  malformed records.

Truncated files are handled explicitly on both paths: a record whose payload
bytes are cut short raises ``ValueError("... truncated mid-record")``, and a
trailing partial record *header* (1–15 bytes after the last complete record)
raises ``ValueError("... truncated record header")`` instead of being
silently dropped.  Only a file ending exactly on a record boundary is a clean
EOF.
"""

from __future__ import annotations

import dataclasses
import struct
from pathlib import Path
from typing import Iterable

import numpy as np

from .addresses import int_to_ipv4
from .columns import (
    APP_DNS,
    APP_HTTP_REQUEST,
    APP_HTTP_RESPONSE,
    APP_NTP,
    APP_TLS_CLIENT,
    APP_TLS_SERVER,
    PacketColumns,
    TRANSPORT_ICMP,
    TRANSPORT_TCP,
    TRANSPORT_UDP,
)
from .dns import DNSMessage, unpack_message_cached
from .http import HTTPRequest, HTTPResponse
from .ntp import NTPPacket
from .packet import MALFORMED_PAYLOAD_ERRORS, Packet, parse_packet
from .tls import TLSClientHello, TLSServerHello, unpack_hello_cached

__all__ = [
    "write_pcap",
    "read_pcap",
    "write_pcap_columns",
    "read_pcap_columns",
    "LazyDecodeColumns",
    "PcapReadError",
    "PCAP_MAGIC",
    "LINKTYPE_ETHERNET",
]


@dataclasses.dataclass(frozen=True)
class PcapReadError:
    """One record :func:`read_pcap_columns` skipped in tolerant mode.

    ``kind`` is ``"truncated-record"`` (payload bytes cut short),
    ``"truncated-header"`` (a 1–15 byte partial record header at EOF) or
    ``"bad-record"`` (a record the per-packet fallback parser rejected);
    ``index`` is the record's position in the file (-1 for a trailing
    partial header), ``offset`` its record-header byte offset.
    """

    kind: str
    index: int
    offset: int
    message: str

PCAP_MAGIC = 0xA1B2C3D4
LINKTYPE_ETHERNET = 1
_GLOBAL_HEADER = struct.Struct("<IHHiIII")
_RECORD_HEADER = struct.Struct("<IIII")

#: Ethernet + IPv4 fixed header bytes (the minimum a vectorizable row needs).
_ETH_LEN = 14
_IP_END = _ETH_LEN + 20


def write_pcap(path: str | Path, packets: Iterable[Packet], snaplen: int = 65535) -> Path:
    """Write packets to a classic little-endian pcap file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as handle:
        handle.write(
            _GLOBAL_HEADER.pack(PCAP_MAGIC, 2, 4, 0, 0, snaplen, LINKTYPE_ETHERNET)
        )
        for packet in packets:
            data = packet.to_bytes()
            seconds = int(packet.timestamp)
            micros = int(round((packet.timestamp - seconds) * 1_000_000))
            captured = min(len(data), snaplen)
            handle.write(_RECORD_HEADER.pack(seconds, micros, captured, len(data)))
            handle.write(data[:captured])
    return path


def read_pcap(path: str | Path) -> list[Packet]:
    """Read a pcap file written by :func:`write_pcap` (or any Ethernet pcap).

    Both byte orders are accepted (magic ``0xA1B2C3D4`` little-endian,
    ``0xD4C3B2A1`` big-endian).  A file that ends mid-record — either inside
    a record's captured bytes or inside a record header — raises
    ``ValueError``; only a file ending exactly on a record boundary parses.
    """
    path = Path(path)
    packets: list[Packet] = []
    with open(path, "rb") as handle:
        header = handle.read(_GLOBAL_HEADER.size)
        if len(header) < _GLOBAL_HEADER.size:
            raise ValueError(f"{path} is not a pcap file (truncated header)")
        magic = struct.unpack("<I", header[:4])[0]
        if magic == PCAP_MAGIC:
            endian = "<"
        elif magic == 0xD4C3B2A1:
            endian = ">"
        else:
            raise ValueError(f"{path} is not a pcap file (bad magic 0x{magic:08x})")
        record = struct.Struct(endian + "IIII")
        while True:
            raw = handle.read(record.size)
            if not raw:
                break
            if len(raw) < record.size:
                raise ValueError(f"{path} truncated record header")
            seconds, micros, captured, _original = record.unpack(raw)
            data = handle.read(captured)
            if len(data) < captured:
                raise ValueError(f"{path} truncated mid-record")
            packets.append(parse_packet(data, timestamp=seconds + micros / 1_000_000))
    return packets


# ----------------------------------------------------------------------
# Columnar path
# ----------------------------------------------------------------------

#: Byte weights for folding big-endian byte blocks into integers.
_POW4 = (256 ** np.arange(3, -1, -1)).astype(np.int64)
_POW6 = (256 ** np.arange(5, -1, -1)).astype(np.int64)

_MISSING = object()


def write_pcap_columns(
    path: str | Path, columns: PacketColumns, snaplen: int = 65535
) -> Path:
    """Write a columnar batch to pcap without materializing packet objects.

    Produces byte-for-byte the file :func:`write_pcap` would write for
    ``columns.to_packets()``: packet bytes come from the vectorized
    :meth:`~repro.net.columns.PacketColumns.wire_matrix`, and the record
    headers (timestamp split, snaplen capping) are computed as whole columns
    and scattered into one output buffer.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    matrix, lengths = columns.wire_matrix()
    n = len(columns)
    timestamps = columns.timestamps
    seconds = np.trunc(timestamps)
    micros = np.rint((timestamps - seconds) * 1_000_000.0)
    if n and (seconds.min() < 0 or seconds.max() >= 2**32):
        raise ValueError("timestamps out of range for the 32-bit pcap epoch field")
    captured = np.minimum(lengths, snaplen)

    sizes = 16 + captured
    offsets = _GLOBAL_HEADER.size + np.cumsum(sizes) - sizes
    total = _GLOBAL_HEADER.size + int(sizes.sum())
    out = np.zeros(total, dtype=np.uint8)
    out[: _GLOBAL_HEADER.size] = np.frombuffer(
        _GLOBAL_HEADER.pack(PCAP_MAGIC, 2, 4, 0, 0, snaplen, LINKTYPE_ETHERNET),
        dtype=np.uint8,
    )
    if n:
        headers = np.empty((n, 4), dtype="<u4")
        headers[:, 0] = seconds
        headers[:, 1] = micros
        headers[:, 2] = captured
        headers[:, 3] = lengths
        out[offsets[:, None] + np.arange(16)] = headers.view(np.uint8).reshape(n, 16)
        if captured.any():
            rows = np.flatnonzero(captured)
            counts = captured[rows]
            row_rep = np.repeat(rows, counts)
            within = np.arange(int(counts.sum())) - np.repeat(
                np.cumsum(counts) - counts, counts
            )
            out[offsets[row_rep] + 16 + within] = matrix[row_rep, within]
    path.write_bytes(out.tobytes())
    return path


def _decode_rows(
    branch: str,
    rows: np.ndarray,
    payloads: list,
    src_port: np.ndarray,
    dst_port: np.ndarray,
    applications: list,
    app_kind: np.ndarray,
    cache: dict,
) -> None:
    """Decode one opportunistic-application branch for the given rows.

    Mirrors :func:`repro.net.packet._decode_application` exactly — including
    the branch precedence (DNS, then HTTP, then TLS falling through to NTP)
    and the ``except MALFORMED_PAYLOAD_ERRORS`` that turns malformed payloads
    into ``None`` — but dispatches on pre-classified rows and memoizes
    decodes by payload bytes, so repeated payloads (retransmissions,
    repeated queries) are decoded once.  ``payloads`` holds the rows'
    payload bytes (parallel to ``rows``); the eager reader slices them from
    the file buffer, the lazy path from the payload matrix — identical bytes
    either way.
    """
    if branch == "dns":
        # DNS gets its own sub-message memoization (whole message modulo the
        # transaction id, question entries, name spans) — far higher hit
        # rates than whole payloads, whose transaction ids almost never
        # repeat.
        dns_cache = cache.setdefault("dns", {})
        for i, payload in zip(rows.tolist(), payloads):
            try:
                app = unpack_message_cached(payload, dns_cache)
            except MALFORMED_PAYLOAD_ERRORS:
                continue
            applications[i] = app
            app_kind[i] = APP_DNS
        return
    tls_branch = branch == "tls"
    for i, payload in zip(rows.tolist(), payloads):
        if tls_branch:
            # The TLS branch falls back to NTP when a port is 123, so the
            # decode is a function of (payload, that eligibility) — the
            # cache key must carry both or a non-handshake payload cached
            # on one port pair would be wrongly reused on another.
            key = (branch, payload, bool(src_port[i] == 123 or dst_port[i] == 123))
        else:
            key = (branch, payload)
        app = cache.get(key, _MISSING)
        if app is _MISSING:
            try:
                if branch == "http":
                    if payload[:4].startswith(b"HTTP"):
                        app = HTTPResponse.decode(payload)
                    else:
                        app = HTTPRequest.decode(payload)
                elif branch == "tls":
                    app = None
                    if len(payload) > 5 and payload[0] == 22 and payload[5] in (1, 2):
                        app = unpack_hello_cached(
                            payload, payload[5], cache.setdefault("tls", {})
                        )
                    if app is None and (src_port[i] == 123 or dst_port[i] == 123):
                        app = NTPPacket.unpack(payload)
                else:  # ntp
                    app = NTPPacket.unpack(payload)
            except MALFORMED_PAYLOAD_ERRORS:
                app = None
            cache[key] = app
        if app is not None:
            applications[i] = app
            app_kind[i] = _APP_KIND_BY_TYPE[type(app)]


_APP_KIND_BY_TYPE = {
    DNSMessage: APP_DNS,
    HTTPRequest: APP_HTTP_REQUEST,
    HTTPResponse: APP_HTTP_RESPONSE,
    TLSClientHello: APP_TLS_CLIENT,
    TLSServerHello: APP_TLS_SERVER,
    NTPPacket: APP_NTP,
}

#: Lazy-decode branch codes (order = the decode precedence of
#: ``_decode_application``: DNS, then HTTP, then TLS/NTP-fallback, then NTP).
_BRANCH_NONE = 0
_BRANCH_NAMES = ("dns", "http", "tls", "ntp")

#: "Return raw stores" mode, set while select/concat gather the fields of a
#: pending batch so the gather does not trigger the decode.
_RAW_MODE = False


class LazyDecodeColumns(PacketColumns):
    """A parsed capture whose application decode runs on first access.

    Byte-level-only consumers (the serving fast path included) read header
    columns, payload bytes and ``wire_matrix`` — none of which need the
    decoded DNS/HTTP/TLS/NTP objects — so :func:`read_pcap_columns` with
    ``lazy_decode=True`` returns this subclass and defers the decode until
    ``applications`` or ``app_kind`` (the columns whose *values* depend on
    it) is first read.  The deferred decode consumes the rows' payload bytes
    from the payload matrix — the same bytes the eager reader slices from
    the file — through the same memoizing `_decode_rows`, so the
    materialized result is bit-identical to an eager parse.

    Row selection (``__getitem__`` / :meth:`select`) and
    :meth:`concat` propagate the pending state, so chunked streaming over a
    lazy capture stays decode-free until something actually needs the
    application layer.  Everything else (``to_packets``, ``save_shards``,
    equality) simply triggers the decode and behaves like a plain
    :class:`PacketColumns`.
    """

    # Class-level default so instances constructed by the inherited
    # dataclass __init__ (select/concat) start with no pending decode.
    _lazy = None  # (branch-code column, decode cache) when decode is pending

    # -- the two columns whose values depend on the deferred decode -------
    @property
    def applications(self):
        d = self.__dict__
        if d.get("_lazy") is not None and not _RAW_MODE:
            self._decode_applications()
        return d["applications"]

    @applications.setter
    def applications(self, value):
        self.__dict__["applications"] = value

    @property
    def app_kind(self):
        d = self.__dict__
        if d.get("_lazy") is not None and not _RAW_MODE:
            self._decode_applications()
        return d["app_kind"]

    @app_kind.setter
    def app_kind(self, value):
        self.__dict__["app_kind"] = value

    @property
    def decode_pending(self) -> bool:
        """Whether the application decode has not run yet."""
        return self.__dict__.get("_lazy") is not None

    def _decode_applications(self) -> None:
        d = self.__dict__
        branch, cache = d["_lazy"]
        applications, app_kind = d["applications"], d["app_kind"]
        payload, lengths = self.payload, self.payload_lengths
        for code, name in enumerate(_BRANCH_NAMES, start=1):
            rows = np.flatnonzero(branch == code)
            if len(rows):
                payloads = [
                    payload[i, : lengths[i]].tobytes() for i in rows.tolist()
                ]
                _decode_rows(
                    name, rows, payloads, self.src_port, self.dst_port,
                    applications, app_kind, cache,
                )
        del d["_lazy"]

    def _attach_lazy(self, branch: np.ndarray, cache: dict) -> "LazyDecodeColumns":
        if branch.any():
            self.__dict__["_lazy"] = (branch, cache)
        return self

    # -- pending-state propagation ---------------------------------------
    def select(self, rows: np.ndarray) -> "PacketColumns":
        state = self.__dict__.get("_lazy")
        if state is None:
            return super().select(rows)
        global _RAW_MODE
        _RAW_MODE = True
        try:
            selected = super().select(rows)
        finally:
            _RAW_MODE = False
        branch, cache = state
        return selected._attach_lazy(
            branch[np.asarray(rows, dtype=np.int64)], cache
        )

    @classmethod
    def concat(cls, parts) -> "PacketColumns":
        parts = list(parts)
        states = [part.__dict__.get("_lazy") for part in parts]
        if len(parts) <= 1 or not any(state is not None for state in states):
            return super().concat(parts)
        global _RAW_MODE
        _RAW_MODE = True
        try:
            merged = super().concat(parts)
        finally:
            _RAW_MODE = False
        branch = np.concatenate([
            state[0] if state is not None
            else np.zeros(len(part), dtype=np.int64)
            for part, state in zip(parts, states)
        ])
        cache = next(state[1] for state in states if state is not None)
        return merged._attach_lazy(branch, cache)


def check_errors_mode(errors: str) -> None:
    """Reject an ``errors`` mode :func:`read_pcap_columns` does not know."""
    if errors not in ("strict", "quarantine"):
        raise ValueError(
            f"errors must be 'strict' or 'quarantine', got {errors!r}"
        )


def read_pcap_columns(
    path: str | Path,
    decode_cache: dict | None = None,
    lazy_decode: bool = False,
    errors: str = "strict",
) -> PacketColumns:
    """Parse an Ethernet pcap straight into :class:`PacketColumns`.

    The whole file is viewed once as a ``uint8`` array; record headers are
    walked with a tight offset loop (each record only chains the next
    offset), and every header field — MACs, IPv4 addresses and scalars,
    TCP/UDP/ICMP fields — is extracted for all rows at once with strided
    gathers over the byte buffer.  Application payloads on the opportunistic
    ports are decoded per row (DNS/HTTP/TLS/NTP objects are inherently
    per-row), memoized by payload bytes.

    Rows the vectorized walk cannot handle (captured length below the fixed
    Ethernet+IPv4+transport header sizes, or a non-IPv4 version nibble) take
    a sparse per-packet fallback through :func:`parse_packet`, which raises
    exactly the error the object reader would.

    The result is bit-identical to
    ``PacketColumns.from_packets(read_pcap(path))``.

    ``decode_cache`` optionally carries the application-decode memoization
    across calls: every cache entry is keyed by decoded wire bytes, so a
    reused cache returns exactly the objects a fresh decode would, and a
    pipeline ingesting successive captures of the same traffic mix (the
    steady state this reader exists for) skips re-decoding the repeated
    names, queries and hello templates.  Pass a plain dict owned by the
    caller; omit it for a per-call cache.

    With ``lazy_decode=True`` the application decode is deferred: the reader
    classifies the candidate rows (the same port-based branch masks) but
    returns a :class:`LazyDecodeColumns` whose ``applications`` / ``app_kind``
    columns materialize on first access — so byte-level-only consumers get a
    completely decode-free parse, and the materialized values are
    bit-identical to an eager read.

    ``errors`` selects the malformed-capture behavior.  ``"strict"`` (the
    default) raises exactly as before.  ``"quarantine"`` returns a
    ``(columns, error_records)`` tuple instead: a truncated tail (a record
    whose payload bytes are cut short, or a 1–15 byte partial record header
    at EOF) stops the walk after the last complete record, and rows the
    per-packet fallback parser rejects are dropped — each skipped record
    becomes a :class:`PcapReadError` with its kind, record index and byte
    offset.  The returned columns are bit-identical to a strict read of the
    clean prefix with the bad records excised.
    """
    check_errors_mode(errors)
    tolerant = errors == "quarantine"
    error_records: list[PcapReadError] = []
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < _GLOBAL_HEADER.size:
        raise ValueError(f"{path} is not a pcap file (truncated header)")
    magic = struct.unpack("<I", raw[:4])[0]
    if magic == PCAP_MAGIC:
        endian = "<"
    elif magic == 0xD4C3B2A1:
        endian = ">"
    else:
        raise ValueError(f"{path} is not a pcap file (bad magic 0x{magic:08x})")

    # Record walk: the only inherently serial part (each record header chains
    # the next offset), kept to one length read per record; the remaining
    # header fields are gathered as whole columns afterwards.
    byteorder = "little" if endian == "<" else "big"
    from_bytes = int.from_bytes
    end = len(raw)
    pos = _GLOBAL_HEADER.size
    starts: list[int] = []
    append = starts.append
    while pos + 16 <= end:
        captured = from_bytes(raw[pos + 8 : pos + 12], byteorder)
        pos += 16
        if pos + captured > end:
            if tolerant:
                # The file ends inside this record's payload; everything
                # before it is a clean prefix, so stop the walk here.
                error_records.append(PcapReadError(
                    kind="truncated-record",
                    index=len(starts),
                    offset=pos - 16,
                    message=f"{path} truncated mid-record",
                ))
                pos -= 16
                break
            raise ValueError(f"{path} truncated mid-record")
        append(pos)
        pos += captured
    if pos != end:
        if tolerant:
            if not error_records:
                error_records.append(PcapReadError(
                    kind="truncated-header",
                    index=-1,
                    offset=pos,
                    message=f"{path} truncated record header",
                ))
        else:
            raise ValueError(f"{path} truncated record header")

    n = len(starts)
    buf = np.frombuffer(raw, dtype=np.uint8)
    start = np.asarray(starts, dtype=np.int64)
    weights = (256 ** np.arange(4)).astype(np.int64)
    if byteorder == "big":
        weights = weights[::-1]
    header = buf[(start - 16)[:, None] + np.arange(12)].astype(np.int64)
    secs = header[:, 0:4] @ weights
    micros = header[:, 4:8] @ weights
    cap = header[:, 8:12] @ weights
    timestamps = secs.astype(np.float64) + micros.astype(np.float64) / 1_000_000.0

    int_col = lambda: np.zeros(n, dtype=np.int64)  # noqa: E731
    bool_col = lambda: np.zeros(n, dtype=bool)  # noqa: E731
    columns = dict(
        timestamps=timestamps,
        has_ethernet=bool_col(), eth_src=int_col(), eth_dst=int_col(),
        ethertype=int_col(),
        has_ip=bool_col(), ip_src=int_col(), ip_dst=int_col(),
        ip_protocol=int_col(), ip_ttl=int_col(), ip_id=int_col(),
        ip_dscp=int_col(), ip_flags=int_col(), ip_frag=int_col(),
        ip_total_length=int_col(),
        transport_kind=int_col(), src_port=int_col(), dst_port=int_col(),
        tcp_seq=int_col(), tcp_ack=int_col(), tcp_flags=int_col(),
        tcp_window=int_col(), tcp_urgent=int_col(), udp_length=int_col(),
        icmp_type=int_col(), icmp_code=int_col(), icmp_id=int_col(),
        icmp_seq=int_col(),
        payload_lengths=int_col(),
        payload_from_application=bool_col(),
        payload_encode_failed=bool_col(),
        app_kind=int_col(),
        applications=[None] * n,
        metadata=[{} for _ in range(n)],
        connection_ids=np.full(n, -1, dtype=np.int64),
        session_ids=np.full(n, -1, dtype=np.int64),
        ip_names={}, mac_names={}, spelling_overrides={},
    )

    # Which rows the whole-column walk can parse: full Ethernet + IPv4 fixed
    # headers present, version nibble 4, and the transport header (if the
    # protocol has one parse_packet knows) fully captured.
    have_ip = cap >= _IP_END
    version = np.zeros(n, dtype=np.int64)
    proto = np.zeros(n, dtype=np.int64)
    if have_ip.any():
        rows = np.flatnonzero(have_ip)
        version[rows] = buf[start[rows] + _ETH_LEN] >> 4
        proto[rows] = buf[start[rows] + 23]
    need = np.full(n, _IP_END, dtype=np.int64)
    need[proto == 6] += 20
    need[(proto == 17) | (proto == 1)] += 8
    vec = have_ip & (version == 4) & (cap >= need)

    bad_rows: list[int] = []
    fb_packets = []
    fb_kept: list[int] = []
    for i in np.flatnonzero(~vec).tolist():
        data = raw[starts[i] : starts[i] + int(cap[i])]
        try:
            packet = parse_packet(data, timestamp=float(timestamps[i]))
        except Exception as error:
            if not tolerant:
                raise
            error_records.append(PcapReadError(
                kind="bad-record",
                index=i,
                offset=starts[i] - 16,
                message=str(error),
            ))
            bad_rows.append(i)
            continue
        fb_packets.append(packet)
        fb_kept.append(i)
    fb_rows = np.asarray(fb_kept, dtype=np.int64)

    v = np.flatnonzero(vec)
    sv = start[v]
    all_vec = len(v) == n

    def fill(name: str, values: np.ndarray) -> None:
        # With no fallback rows every column is just the computed array;
        # otherwise scatter into the zero-initialized column.
        if all_vec:
            columns[name] = values
        else:
            columns[name][v] = values

    if len(v):
        if all_vec:
            columns["has_ethernet"] = np.ones(n, dtype=bool)
            columns["has_ip"] = np.ones(n, dtype=bool)
        else:
            columns["has_ethernet"][v] = True
            columns["has_ip"][v] = True
        block = buf[sv[:, None] + np.arange(_IP_END)].astype(np.int64)
        eth, ip = block[:, :_ETH_LEN], block[:, _ETH_LEN:]
        eth_dst = eth[:, 0:6] @ _POW6
        eth_src = eth[:, 6:12] @ _POW6
        fill("eth_dst", eth_dst)
        fill("eth_src", eth_src)
        fill("ethertype", (eth[:, 12] << 8) | eth[:, 13])

        ip_src = ip[:, 12:16] @ _POW4
        ip_dst = ip[:, 16:20] @ _POW4
        fill("ip_src", ip_src)
        fill("ip_dst", ip_dst)
        fill("ip_protocol", ip[:, 9])
        fill("ip_ttl", ip[:, 8])
        fill("ip_id", (ip[:, 4] << 8) | ip[:, 5])
        fill("ip_dscp", ip[:, 1] >> 2)
        flags_frag = (ip[:, 6] << 8) | ip[:, 7]
        fill("ip_flags", flags_frag >> 13)
        fill("ip_frag", flags_frag & 0x1FFF)
        fill("ip_total_length", (ip[:, 2] << 8) | ip[:, 3])

        mac_names = columns["mac_names"]
        for value in map(int, np.unique(np.concatenate([eth_src, eth_dst]))):
            mac_names[value] = ":".join(
                f"{(value >> shift) & 0xFF:02x}" for shift in range(40, -1, -8)
            )
        ip_names = columns["ip_names"]
        for value in map(int, np.unique(np.concatenate([ip_src, ip_dst]))):
            ip_names[value] = int_to_ipv4(value)

    t = np.flatnonzero(vec & (proto == 6))
    if len(t):
        columns["transport_kind"][t] = TRANSPORT_TCP
        block = buf[(start[t] + _IP_END)[:, None] + np.arange(20)].astype(np.int64)
        columns["src_port"][t] = (block[:, 0] << 8) | block[:, 1]
        columns["dst_port"][t] = (block[:, 2] << 8) | block[:, 3]
        columns["tcp_seq"][t] = block[:, 4:8] @ _POW4
        columns["tcp_ack"][t] = block[:, 8:12] @ _POW4
        columns["tcp_flags"][t] = block[:, 13]
        columns["tcp_window"][t] = (block[:, 14] << 8) | block[:, 15]
        columns["tcp_urgent"][t] = (block[:, 18] << 8) | block[:, 19]
    u = np.flatnonzero(vec & (proto == 17))
    if len(u):
        columns["transport_kind"][u] = TRANSPORT_UDP
        block = buf[(start[u] + _IP_END)[:, None] + np.arange(8)].astype(np.int64)
        columns["src_port"][u] = (block[:, 0] << 8) | block[:, 1]
        columns["dst_port"][u] = (block[:, 2] << 8) | block[:, 3]
        columns["udp_length"][u] = (block[:, 4] << 8) | block[:, 5]
    c = np.flatnonzero(vec & (proto == 1))
    if len(c):
        columns["transport_kind"][c] = TRANSPORT_ICMP
        block = buf[(start[c] + _IP_END)[:, None] + np.arange(8)].astype(np.int64)
        columns["icmp_type"][c] = block[:, 0]
        columns["icmp_code"][c] = block[:, 1]
        columns["icmp_id"][c] = (block[:, 4] << 8) | block[:, 5]
        columns["icmp_seq"][c] = (block[:, 6] << 8) | block[:, 7]

    transport_len = np.zeros(n, dtype=np.int64)
    transport_len[columns["transport_kind"] == TRANSPORT_TCP] = 20
    transport_len[
        (columns["transport_kind"] == TRANSPORT_UDP)
        | (columns["transport_kind"] == TRANSPORT_ICMP)
    ] = 8
    payload_at = start + _IP_END + transport_len
    record_end = start + cap
    if all_vec:
        columns["payload_lengths"] = record_end - payload_at
    else:
        columns["payload_lengths"][v] = (record_end - payload_at)[v]
    pl_len = columns["payload_lengths"]

    # Payload matrix (fallback rows are merged below, so size for both).
    sub = PacketColumns.from_packets(fb_packets) if len(fb_rows) else None
    width = int(pl_len.max()) if n else 0
    if sub is not None:
        width = max(width, sub.payload.shape[1])
    matrix = np.zeros((n, width), dtype=np.uint8)
    vec_len = pl_len if all_vec else np.where(vec, pl_len, 0)
    if vec_len.any():
        # One joined byte string as the source, flat run-indices as the
        # destination: only the real payload bytes are touched, instead of a
        # boolean scan over every (row, column) cell of the matrix.
        spans = np.flatnonzero(vec_len)
        counts = vec_len[spans]
        begins = payload_at[spans].tolist()
        ends = record_end[spans].tolist()
        flat = b"".join(raw[a:b] for a, b in zip(begins, ends))
        run_starts = np.cumsum(counts) - counts
        dest = np.arange(int(counts.sum())) + np.repeat(
            spans * width - run_starts, counts
        )
        matrix.ravel()[dest] = np.frombuffer(flat, dtype=np.uint8)
    columns["payload"] = matrix

    # Opportunistic application decode, with _decode_application's branch
    # precedence: DNS, then HTTP, then TLS (falling through to NTP when the
    # payload is not a handshake frame), then NTP.
    src_port = columns["src_port"]
    dst_port = columns["dst_port"]
    kind = columns["transport_kind"]
    branch = np.zeros(n, dtype=np.int64)
    cand = vec & (pl_len > 0) & ((kind == TRANSPORT_TCP) | (kind == TRANSPORT_UDP))
    if cand.any():
        def on_ports(*ports: int) -> np.ndarray:
            hit = np.zeros(n, dtype=bool)
            for port in ports:
                hit |= (src_port == port) | (dst_port == port)
            return hit

        dns_m = cand & on_ports(53, 5353)
        http_m = cand & ~dns_m & on_ports(80, 8080)
        tls_m = cand & ~dns_m & ~http_m & on_ports(443, 8443)
        ntp_m = cand & ~dns_m & ~http_m & ~tls_m & on_ports(123)
        for code, mask in enumerate((dns_m, http_m, tls_m, ntp_m), start=1):
            branch[mask] = code
    cache = decode_cache if decode_cache is not None else {}
    if branch.any() and not lazy_decode:
        args = (src_port, dst_port, columns["applications"], columns["app_kind"], cache)
        for code, name in enumerate(_BRANCH_NAMES, start=1):
            rows = np.flatnonzero(branch == code)
            if len(rows):
                payloads = [
                    raw[a:b]
                    for a, b in zip(payload_at[rows].tolist(), record_end[rows].tolist())
                ]
                _decode_rows(name, rows, payloads, *args)

    if sub is not None:
        skip = {"payload", "applications", "metadata",
                "ip_names", "mac_names", "spelling_overrides"}
        for field in dataclasses.fields(PacketColumns):
            if field.name in skip:
                continue
            columns[field.name][fb_rows] = getattr(sub, field.name)
        matrix[fb_rows, : sub.payload.shape[1]] = sub.payload
        for j, i in enumerate(fb_rows.tolist()):
            columns["applications"][i] = sub.applications[j]
            columns["metadata"][i] = sub.metadata[j]
        columns["ip_names"].update(sub.ip_names)
        columns["mac_names"].update(sub.mac_names)
        for (field_name, row), spelling in sub.spelling_overrides.items():
            columns["spelling_overrides"][(field_name, int(fb_rows[row]))] = spelling

    if lazy_decode:
        result = LazyDecodeColumns(**columns)._attach_lazy(branch, cache)
    else:
        result = PacketColumns(**columns)
    if bad_rows:
        # Excise the rejected rows; select() keeps any lazy decode state.
        keep = np.setdiff1d(
            np.arange(n, dtype=np.int64), np.asarray(bad_rows, dtype=np.int64)
        )
        result = result[keep]
    if tolerant:
        return result, error_records
    return result
