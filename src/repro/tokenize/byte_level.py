"""Byte- and hex-character-level tokenizers.

The "packet trace as a sequence of bytes with no delimiters" view the paper
describes: every byte of the wire representation becomes one token (or two
hex characters).  These tokenizers need no training and have a tiny, fixed
vocabulary, but discard all protocol structure — the property experiment E5
quantifies against field-aware tokenization.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..net.columns import PacketColumns
from ..net.packet import Packet
from .base import PacketTokenizer, _raw_flat, _scatter_ids
from .vocab import Vocabulary

__all__ = ["ByteTokenizer", "HexCharTokenizer"]


class ByteTokenizer(PacketTokenizer):
    """One token per byte of the packet's wire format.

    Parameters
    ----------
    max_bytes:
        Truncate each packet to this many bytes (contexts are limited to a
        few hundred tokens, Section 4.1.3).
    skip_ethernet:
        Skip the 14-byte Ethernet header, which carries little semantic
        content in a single-LAN capture.
    """

    name = "byte"

    def __init__(self, max_bytes: int = 96, skip_ethernet: bool = True):
        self.max_bytes = max_bytes
        self.skip_ethernet = skip_ethernet

    def tokenize_packet(self, packet: Packet) -> list[str]:
        data = packet.to_bytes()
        if self.skip_ethernet and len(data) > 14:
            data = data[14:]
        data = data[: self.max_bytes]
        return [f"0x{b:02x}" for b in data]

    def encode_batch(
        self,
        packets: "Sequence[Packet] | PacketColumns",
        vocabulary: Vocabulary,
        max_len: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized encode: bytes -> ids through a 256-entry lookup table.

        The token strings are never materialized — every packet's wire bytes
        map straight to vocabulary ids via one table gather, then scatter into
        the padded matrix.  With a :class:`~repro.net.columns.PacketColumns`
        batch even the wire bytes come from vectorized column serialization.
        """
        flat, lengths = _raw_flat(packets, self.max_bytes, self.skip_ethernet, limit=max_len)
        table = np.fromiter(
            (vocabulary.token_to_id(f"0x{b:02x}") for b in range(256)), dtype=np.int32, count=256
        )
        return _scatter_ids(table[flat], lengths, vocabulary.pad_id, max_len)


class HexCharTokenizer(PacketTokenizer):
    """Two tokens per byte: the high and low hex nibbles as characters.

    An even more extreme character-level segmentation, included because the
    paper cites character-based tokenizers [26, 35, 58] as one option.
    """

    name = "hex-char"

    def __init__(self, max_bytes: int = 64, skip_ethernet: bool = True):
        self.max_bytes = max_bytes
        self.skip_ethernet = skip_ethernet

    def tokenize_packet(self, packet: Packet) -> list[str]:
        data = packet.to_bytes()
        if self.skip_ethernet and len(data) > 14:
            data = data[14:]
        data = data[: self.max_bytes]
        tokens: list[str] = []
        for byte in data:
            tokens.append(f"{byte >> 4:x}")
            tokens.append(f"{byte & 0xF:x}")
        return tokens

    def encode_batch(
        self,
        packets: "Sequence[Packet] | PacketColumns",
        vocabulary: Vocabulary,
        max_len: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized encode: interleave high/low nibbles, one 16-entry gather."""
        byte_limit = None if max_len is None else (max_len + 1) // 2
        flat, byte_lengths = _raw_flat(
            packets, self.max_bytes, self.skip_ethernet, limit=byte_limit
        )
        nibbles = np.empty(flat.size * 2, dtype=np.uint8)
        nibbles[0::2] = flat >> 4
        nibbles[1::2] = flat & 0xF
        table = np.fromiter(
            (vocabulary.token_to_id(f"{n:x}") for n in range(16)), dtype=np.int32, count=16
        )
        flat_ids = table[nibbles]
        lengths = byte_lengths * 2
        if max_len is not None and lengths.max(initial=0) > max_len:
            # Odd max_len: drop the trailing low nibble of the last kept byte.
            keep = np.arange(flat_ids.size)
            offsets = keep - np.repeat(np.cumsum(lengths) - lengths, lengths)
            flat_ids = flat_ids[offsets < max_len]
            lengths = np.minimum(lengths, max_len)
        return _scatter_ids(flat_ids, lengths, vocabulary.pad_id, max_len)
