"""Context construction strategies (paper Section 4.1.3).

A *context* is the token sequence presented to the foundation model for one
training or inference example.  The paper asks how contexts should be defined
over network traffic — packet boundaries, connection boundaries, session
boundaries, or non-standard constructions such as "the first M tokens from
each of the N successive packets of an endpoint" — given that packets from
different connections are interleaved at the capture point and practical
limits cap contexts at a few hundred tokens.

Every builder turns ``(packets, tokenizer)`` into a list of
:class:`Context` objects carrying the token strings, the originating packets
and the ground-truth label pulled from packet metadata.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict
from typing import Sequence

import numpy as np

from ..net.columns import PacketColumns, as_packets
from ..net.flow import FlowKey
from ..net.packet import Packet
from ..tokenize.base import PacketTokenizer
from ..tokenize.vocab import CLS, SEP, Vocabulary

__all__ = [
    "Context",
    "ContextBuilder",
    "PacketContextBuilder",
    "FlowContextBuilder",
    "SessionContextBuilder",
    "FirstMOfNContextBuilder",
    "encode_contexts",
]


@dataclasses.dataclass
class Context:
    """One model input: token strings plus provenance and label.

    ``segments`` marks, for each token, which packet (0-based within the
    context) it came from; the pre-training objectives and the superfield
    explanations both use it.
    """

    tokens: list[str]
    segments: list[int]
    packets: list[Packet]
    label: str | None = None
    group_key: str = ""

    def __len__(self) -> int:
        return len(self.tokens)


class ContextBuilder:
    """Base class; subclasses implement :meth:`_build`.

    :meth:`build` accepts either a packet list or a columnar
    :class:`~repro.net.columns.PacketColumns` batch; columnar input is
    materialized once for the object-based builders, while
    :class:`PacketContextBuilder` additionally offers a fully columnar
    :meth:`PacketContextBuilder.encode_columns` fast path.
    """

    #: Identifier used in benchmark tables (experiment E6).
    name = "base"

    def __init__(self, max_tokens: int = 128, label_key: str | None = "application"):
        if max_tokens < 4:
            raise ValueError("max_tokens must be at least 4")
        self.max_tokens = max_tokens
        self.label_key = label_key

    def build(
        self,
        packets: "Sequence[Packet] | PacketColumns",
        tokenizer: PacketTokenizer,
    ) -> list[Context]:
        """Build contexts from a trace (packet list or columnar batch)."""
        return self._build(as_packets(packets), tokenizer)

    def _build(self, packets: Sequence[Packet], tokenizer: PacketTokenizer) -> list[Context]:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _label_of(self, packets: Sequence[Packet]) -> str | None:
        if self.label_key is None:
            return None
        values = [p.metadata.get(self.label_key) for p in packets if self.label_key in p.metadata]
        if not values:
            return None
        # Majority vote (contexts can straddle packets with differing labels).
        unique, counts = np.unique(np.asarray(values, dtype=object), return_counts=True)
        return str(unique[int(np.argmax(counts))])

    def _assemble(
        self,
        packet_groups: list[list[Packet]],
        tokenizer: PacketTokenizer,
        group_key: str = "",
    ) -> Context:
        """Concatenate the tokens of several packets, separated by ``[SEP]``."""
        tokens: list[str] = [CLS]
        segments: list[int] = [0]
        packets: list[Packet] = []
        for index, group in enumerate(packet_groups):
            for packet in group:
                packet_tokens = tokenizer.tokenize_packet(packet)
                remaining = self.max_tokens - len(tokens) - 1
                if remaining <= 0:
                    break
                packet_tokens = packet_tokens[:remaining]
                tokens.extend(packet_tokens)
                segments.extend([index] * len(packet_tokens))
                packets.append(packet)
            if len(tokens) >= self.max_tokens - 1:
                break
            tokens.append(SEP)
            segments.append(index)
        if tokens[-1] != SEP:
            tokens.append(SEP)
            segments.append(segments[-1] if segments else 0)
        return Context(
            tokens=tokens,
            segments=segments,
            packets=packets,
            label=self._label_of(packets),
            group_key=group_key,
        )


class PacketContextBuilder(ContextBuilder):
    """One context per packet — the shortest possible context."""

    name = "packet"

    def _build(self, packets: Sequence[Packet], tokenizer: PacketTokenizer) -> list[Context]:
        return [
            self._assemble([[packet]], tokenizer, group_key=f"pkt-{i}")
            for i, packet in enumerate(packets)
        ]

    def encode_columns(
        self,
        columns: PacketColumns,
        tokenizer: PacketTokenizer,
        vocabulary: Vocabulary,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Encode packet-level contexts straight from a columnar batch.

        Produces exactly ``encode_contexts(self.build(columns, tokenizer),
        vocabulary, self.max_tokens)`` — one ``[CLS] tokens... [SEP]`` row per
        packet — but without materializing per-packet ``Packet`` or
        :class:`Context` objects: the tokenizer's columnar ``encode_batch``
        emits the inner tokens and the specials are placed with array
        scatters.  This is the entry point that lets packed pre-training
        consume :class:`~repro.net.columns.PacketColumns` end-to-end.
        """
        inner_ids, inner_mask = tokenizer.encode_batch(
            columns, vocabulary, max_len=self.max_tokens - 2
        )
        n, inner_width = inner_ids.shape
        lengths = inner_mask.sum(axis=1)
        ids = np.full((n, self.max_tokens), vocabulary.pad_id, dtype=np.int64)
        ids[:, 0] = vocabulary.cls_id
        ids[:, 1 : 1 + inner_width][inner_mask] = inner_ids[inner_mask]
        ids[np.arange(n), lengths + 1] = vocabulary.sep_id
        mask = np.arange(self.max_tokens)[None, :] < (lengths + 2)[:, None]
        return ids, mask


class FlowContextBuilder(ContextBuilder):
    """One context per connection (bidirectional 5-tuple), first packets first.

    Uses ``metadata["connection_id"]`` when the generators provided it and
    falls back to the 5-tuple otherwise, so it also works on parsed pcaps.

    Grouping is available in two forms: the per-object :meth:`_group` over
    packet lists, and the columnar :meth:`group_columns` /
    :meth:`encode_columns` pair, which derives connection-id columns from the
    metadata, orders rows with one lexicographic argsort and assembles every
    flow context with array scatters — no ``Packet`` or :class:`Context`
    objects at all.
    """

    name = "flow"
    #: Metadata key providing the group identity (overridden by sessions).
    _id_key = "connection_id"
    _id_prefix = "conn"

    def __init__(self, max_tokens: int = 128, label_key: str | None = "application", max_packets: int = 8):
        super().__init__(max_tokens=max_tokens, label_key=label_key)
        self.max_packets = max_packets

    def _group(self, packets: Sequence[Packet]) -> dict[str, list[Packet]]:
        groups: dict[str, list[Packet]] = defaultdict(list)
        for packet in packets:
            if "connection_id" in packet.metadata:
                key = f"conn-{packet.metadata['connection_id']}"
            else:
                key = str(FlowKey.from_packet(packet))
            groups[key].append(packet)
        return groups

    def _build(self, packets: Sequence[Packet], tokenizer: PacketTokenizer) -> list[Context]:
        contexts = []
        for key, group in self._group(packets).items():
            group = sorted(group, key=lambda p: p.timestamp)[: self.max_packets]
            contexts.append(self._assemble([group], tokenizer, group_key=key))
        return contexts

    # ------------------------------------------------------------------
    # Columnar grouping
    # ------------------------------------------------------------------
    def _fallback_key(self, columns: PacketColumns, row: int) -> object:
        """Group key of a row without the metadata id (parsed-pcap case)."""
        src = columns._ip_name(int(columns.ip_src[row])) if columns.has_ip[row] else ""
        dst = columns._ip_name(int(columns.ip_dst[row])) if columns.has_ip[row] else ""
        src_port = int(columns.src_port[row])
        dst_port = int(columns.dst_port[row])
        (ip_a, port_a), (ip_b, port_b) = sorted([(src, src_port), (dst, dst_port)])
        return str(FlowKey(
            ip_a=ip_a, port_a=port_a, ip_b=ip_b, port_b=port_b,
            protocol=int(columns.ip_protocol[row]),
        ))

    def _id_column(self, columns: PacketColumns) -> np.ndarray:
        return columns.connection_ids

    def row_keys(self, columns: PacketColumns) -> list:
        """Per-row group keys: the metadata id rendered as ``"{prefix}-{id}"``
        (``conn-`` / ``sess-``), else the row's fallback key.

        The one home of the rule "which flow does this row belong to": the
        offline grouping (for rows missing the integer id column) and the
        streaming assembler both key rows with it, so a packet joins the same
        flow whichever path groups it, and a flow keeps one key even when
        *other* rows of some batch lack ids.
        """
        id_key = self._id_key
        prefix = self._id_prefix
        fallback = self._fallback_key
        keys = []
        for row, md in enumerate(columns.metadata):
            if id_key in md:
                keys.append(f"{prefix}-{md[id_key]}")
            else:
                keys.append(fallback(columns, row))
        return keys

    def _group_codes(self, columns: PacketColumns) -> np.ndarray:
        """Per-row group codes, numbered in first-appearance order.

        Matches the partition *and* ordering of the per-object ``_group``
        dict.  When every row carries an integer id (the pre-extracted
        ``connection_ids`` / ``session_ids`` column) the codes come from one
        ``np.unique`` plus a first-occurrence re-ranking; otherwise each row
        is numbered by its :meth:`row_keys` key.
        """
        n = len(columns)
        ids = self._id_column(columns)
        if n and ids.min() < 0:
            table: dict[object, int] = {}
            codes = np.empty(n, dtype=np.int64)
            for row, key in enumerate(self.row_keys(columns)):
                codes[row] = table.setdefault(key, len(table))
            return codes
        _, first_position, inverse = np.unique(ids, return_index=True, return_inverse=True)
        rank = np.empty(len(first_position), dtype=np.int64)
        rank[np.argsort(first_position, kind="stable")] = np.arange(len(first_position))
        return rank[inverse]

    def group_columns(self, columns: PacketColumns) -> tuple[np.ndarray, np.ndarray]:
        """Columnar ``_group``: flows as row-index slices of one argsort.

        Returns ``(order, bounds)`` where rows ``order[bounds[g]:bounds[g+1]]``
        form flow ``g`` in timestamp order; flows are numbered by first
        appearance, exactly like the per-object grouping dict.
        """
        codes = self._group_codes(columns)
        order = np.lexsort((columns.timestamps, codes))
        if not len(order):
            return order, np.zeros(1, dtype=np.int64)
        sorted_codes = codes[order]
        starts = np.flatnonzero(np.r_[True, sorted_codes[1:] != sorted_codes[:-1]])
        return order, np.r_[starts, len(order)]

    def encode_columns(
        self,
        columns: PacketColumns,
        tokenizer: PacketTokenizer,
        vocabulary: Vocabulary,
        return_labels: bool = False,
    ):
        """Encode flow contexts straight from a columnar batch.

        Produces exactly ``encode_contexts(self.build(columns, tokenizer),
        vocabulary, self.max_tokens)`` — ``[CLS] tokens... [SEP]`` per flow,
        inner tokens cumulative-truncated to ``max_tokens - 2`` — without
        materializing packets or contexts: grouping is one lexicographic
        argsort, per-packet token rows come from the tokenizer's columnar
        ``encode_batch``, and the flow rows are assembled with scatters.
        With ``return_labels`` the per-flow majority labels (the ``Context.label``
        values) are appended to the result.
        """
        cap = self.max_tokens - 2
        order, bounds = self.group_columns(columns)
        counts = np.diff(bounds)
        num_groups = len(counts)
        if not num_groups:
            ids = np.full((0, self.max_tokens), vocabulary.pad_id, dtype=np.int64)
            mask = np.zeros((0, self.max_tokens), dtype=bool)
            return (ids, mask, []) if return_labels else (ids, mask)
        # First max_packets rows of each flow, in flow-major order.
        within = np.arange(len(order)) - np.repeat(bounds[:-1], counts)
        keep = within < self.max_packets
        rows = order[keep]
        group_of = np.repeat(np.arange(num_groups), counts)[keep]
        kept_counts = np.bincount(group_of, minlength=num_groups)

        inner_ids, inner_mask = tokenizer.encode_batch(columns[rows], vocabulary, max_len=cap)
        lengths = inner_mask.sum(axis=1)
        # Cumulative truncation: each flow keeps the first max_tokens - 2
        # inner tokens; a packet is part of the context iff it starts before
        # that cap (mirroring _assemble's per-packet `remaining` loop).
        flow_starts = np.cumsum(kept_counts) - kept_counts
        prefix = np.cumsum(lengths) - lengths
        prefix = prefix - np.repeat(prefix[flow_starts], kept_counts)
        take = np.clip(cap - prefix, 0, lengths)
        inner_totals = np.bincount(group_of, weights=take, minlength=num_groups).astype(np.int64)

        ids = np.full((num_groups, self.max_tokens), vocabulary.pad_id, dtype=np.int64)
        ids[:, 0] = vocabulary.cls_id
        total = int(take.sum())
        if total:
            taken = np.arange(inner_ids.shape[1])[None, :] < take[:, None]
            flat = inner_ids[taken]
            dest_row = np.repeat(group_of, take)
            offset = np.arange(total) - np.repeat(np.cumsum(take) - take, take)
            dest_col = 1 + np.repeat(prefix, take) + offset
            ids[dest_row, dest_col] = flat
        ids[np.arange(num_groups), inner_totals + 1] = vocabulary.sep_id
        mask = np.arange(self.max_tokens)[None, :] < (inner_totals + 2)[:, None]
        if not return_labels:
            return ids, mask
        return ids, mask, self._labels_columns(columns, rows, group_of, prefix, num_groups)

    def _labels_columns(
        self,
        columns: PacketColumns,
        rows: np.ndarray,
        group_of: np.ndarray,
        prefix: np.ndarray,
        num_groups: int,
    ) -> list:
        """Per-flow majority labels over the packets included in each context."""
        if self.label_key is None:
            return [None] * num_groups
        key = self.label_key
        metadata = columns.metadata
        included = prefix < (self.max_tokens - 2)
        values: list[list] = [[] for _ in range(num_groups)]
        for row, group in zip(rows[included].tolist(), group_of[included].tolist()):
            md = metadata[row]
            if key in md:
                values[group].append(md[key])
        labels: list = []
        for group_values in values:
            if not group_values:
                labels.append(None)
                continue
            unique, counts = np.unique(np.asarray(group_values, dtype=object), return_counts=True)
            labels.append(str(unique[int(np.argmax(counts))]))
        return labels


class SessionContextBuilder(FlowContextBuilder):
    """One context per user-level session (may span several connections)."""

    name = "session"
    _id_key = "session_id"
    _id_prefix = "sess"

    def _id_column(self, columns: PacketColumns) -> np.ndarray:
        return columns.session_ids

    def _group(self, packets: Sequence[Packet]) -> dict[str, list[Packet]]:
        groups: dict[str, list[Packet]] = defaultdict(list)
        for packet in packets:
            if "session_id" in packet.metadata:
                key = f"sess-{packet.metadata['session_id']}"
            else:
                key = packet.src_ip or "unknown"
            groups[key].append(packet)
        return groups

    def _fallback_key(self, columns: PacketColumns, row: int) -> object:
        if columns.has_ip[row]:
            return columns._ip_name(int(columns.ip_src[row])) or "unknown"
        return "unknown"


class FirstMOfNContextBuilder(ContextBuilder):
    """The paper's non-standard construction: the first M tokens of each of the
    N successive packets sent or received by an endpoint.

    Packets are grouped by endpoint (client IP) regardless of connection, in
    timestamp order, and chunked into windows of N packets; from each packet
    only the first M tokens are kept.
    """

    name = "first-m-of-n"

    def __init__(
        self,
        tokens_per_packet: int = 12,
        packets_per_context: int = 8,
        max_tokens: int = 128,
        label_key: str | None = "application",
    ):
        super().__init__(max_tokens=max_tokens, label_key=label_key)
        self.tokens_per_packet = tokens_per_packet
        self.packets_per_context = packets_per_context

    def _build(self, packets: Sequence[Packet], tokenizer: PacketTokenizer) -> list[Context]:
        by_endpoint: dict[str, list[Packet]] = defaultdict(list)
        for packet in packets:
            endpoint = self._endpoint(packet)
            by_endpoint[endpoint].append(packet)
        contexts = []
        for endpoint, group in by_endpoint.items():
            group = sorted(group, key=lambda p: p.timestamp)
            for start in range(0, len(group), self.packets_per_context):
                window = group[start : start + self.packets_per_context]
                if not window:
                    continue
                contexts.append(self._assemble_window(window, tokenizer, endpoint, start))
        return contexts

    @staticmethod
    def _endpoint(packet: Packet) -> str:
        """The client-side endpoint: prefer private (RFC1918-looking) addresses."""
        for address in (packet.src_ip, packet.dst_ip):
            if address.startswith(("10.", "192.168.", "172.16.", "172.17.")):
                return address
        return packet.src_ip or "unknown"

    def _assemble_window(
        self, window: list[Packet], tokenizer: PacketTokenizer, endpoint: str, start: int
    ) -> Context:
        tokens: list[str] = [CLS]
        segments: list[int] = [0]
        for index, packet in enumerate(window):
            packet_tokens = tokenizer.tokenize_packet(packet)[: self.tokens_per_packet]
            remaining = self.max_tokens - len(tokens) - 1
            if remaining <= 0:
                break
            packet_tokens = packet_tokens[:remaining]
            tokens.extend(packet_tokens)
            segments.extend([index] * len(packet_tokens))
            tokens.append(SEP)
            segments.append(index)
        return Context(
            tokens=tokens,
            segments=segments,
            packets=list(window),
            label=self._label_of(window),
            group_key=f"{endpoint}-{start}",
        )


def encode_contexts(
    contexts: Sequence[Context],
    vocabulary: Vocabulary,
    max_len: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Encode contexts into padded id and attention-mask matrices.

    Returns ``(token_ids, attention_mask)`` of shape ``(len(contexts), max_len)``;
    the mask is True for real tokens and False for padding.
    """
    return vocabulary.encode_ids_batch(
        [c.tokens for c in contexts], max_len=max_len, dtype=np.int64
    )
