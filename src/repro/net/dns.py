"""DNS message encoding and decoding.

The paper highlights DNS twice: the DNS query field as a categorical variable
with rich semantics (Section 3.3) and the query/answer relation as a candidate
network-specific pre-training task (Section 4.1.4).  NorBERT, the early work
the paper builds its quantitative argument on, was pre-trained on DNS traffic.
This module therefore implements a reasonably complete DNS wire format:
header, question section and answer records (A, AAAA, CNAME, MX, NS, TXT, PTR),
without name compression (synthetic traces never need it, and its absence keeps
decode unambiguous).
"""

from __future__ import annotations

import dataclasses
import struct

from .addresses import bytes_to_ipv4, ipv4_to_bytes

__all__ = [
    "DNSQuestion",
    "DNSAnswer",
    "DNSMessage",
    "RECORD_TYPES",
    "RECORD_TYPE_NAMES",
    "encode_name",
    "decode_name",
    "unpack_message_cached",
]

RECORD_TYPES: dict[str, int] = {
    "A": 1,
    "NS": 2,
    "CNAME": 5,
    "PTR": 12,
    "MX": 15,
    "TXT": 16,
    "AAAA": 28,
    "SRV": 33,
}

RECORD_TYPE_NAMES: dict[int, str] = {value: name for name, value in RECORD_TYPES.items()}

DNS_FLAG_QR_RESPONSE = 0x8000
DNS_FLAG_RD = 0x0100
DNS_FLAG_RA = 0x0080

# Precompiled wire structs: decode runs once per captured DNS packet, and the
# per-call format parse of ``struct.unpack`` is measurable there.  The
# ``unpack_from`` variants raise the same ``struct.error`` a short slice
# would, so error behavior is unchanged.
_QUESTION_TAIL = struct.Struct("!HH")
_ANSWER_TAIL = struct.Struct("!HHIH")
_HEADER = struct.Struct("!HHHHHH")


def encode_name(name: str) -> bytes:
    """Encode a domain name as length-prefixed labels terminated by a zero byte."""
    if name in ("", "."):
        return b"\x00"
    encoded = bytearray()
    for label in name.rstrip(".").split("."):
        raw = label.encode("ascii")
        if not raw:
            raise ValueError(f"empty label in domain name {name!r}")
        if len(raw) > 63:
            raise ValueError(f"label too long in domain name {name!r}")
        encoded.append(len(raw))
        encoded.extend(raw)
    encoded.append(0)
    return bytes(encoded)


def decode_name(data: bytes, offset: int) -> tuple[str, int]:
    """Decode a domain name starting at ``offset``; returns (name, next_offset)."""
    labels: list[str] = []
    append = labels.append
    size = len(data)
    while True:
        if offset >= size:
            raise ValueError("truncated domain name")
        length = data[offset]
        offset += 1
        if length == 0:
            break
        if length > 63:
            raise ValueError("name compression pointers are not supported")
        append(data[offset : offset + length].decode("ascii"))
        offset += length
    return ".".join(labels), offset


@dataclasses.dataclass
class DNSQuestion:
    """A single entry of the DNS question section."""

    name: str
    qtype: int = RECORD_TYPES["A"]
    qclass: int = 1  # IN

    def pack(self) -> bytes:
        return encode_name(self.name) + struct.pack("!HH", self.qtype, self.qclass)

    @classmethod
    def unpack(cls, data: bytes, offset: int) -> tuple["DNSQuestion", int]:
        name, offset = decode_name(data, offset)
        qtype, qclass = _QUESTION_TAIL.unpack_from(data, offset)
        return cls(name=name, qtype=qtype, qclass=qclass), offset + 4

    @property
    def type_name(self) -> str:
        return RECORD_TYPE_NAMES.get(self.qtype, f"TYPE{self.qtype}")


@dataclasses.dataclass
class DNSAnswer:
    """A single resource record of the DNS answer section."""

    name: str
    rtype: int = RECORD_TYPES["A"]
    rclass: int = 1
    ttl: int = 300
    rdata: str = "0.0.0.0"

    def pack(self) -> bytes:
        payload = self._pack_rdata()
        return (
            encode_name(self.name)
            + struct.pack("!HHIH", self.rtype, self.rclass, self.ttl, len(payload))
            + payload
        )

    def _pack_rdata(self) -> bytes:
        type_name = RECORD_TYPE_NAMES.get(self.rtype, "")
        if type_name == "A":
            return ipv4_to_bytes(self.rdata)
        if type_name == "AAAA":
            parts = self.rdata.split(":")
            full = [int(p, 16) if p else 0 for p in parts] + [0] * (8 - len(parts))
            return b"".join(struct.pack("!H", p) for p in full[:8])
        if type_name in ("CNAME", "NS", "PTR"):
            return encode_name(self.rdata)
        if type_name == "MX":
            priority, _, host = self.rdata.partition(" ")
            return struct.pack("!H", int(priority)) + encode_name(host)
        # TXT and anything else: raw character string.
        raw = self.rdata.encode("utf-8")
        return bytes([min(len(raw), 255)]) + raw[:255]

    @classmethod
    def unpack(cls, data: bytes, offset: int) -> tuple["DNSAnswer", int]:
        name, offset = decode_name(data, offset)
        rtype, rclass, ttl, rdlength = _ANSWER_TAIL.unpack_from(data, offset)
        offset += 10
        rdata_raw = data[offset : offset + rdlength]
        offset += rdlength
        rdata = cls._unpack_rdata(rtype, rdata_raw)
        return cls(name=name, rtype=rtype, rclass=rclass, ttl=ttl, rdata=rdata), offset

    @staticmethod
    def _unpack_rdata(rtype: int, raw: bytes) -> str:
        type_name = RECORD_TYPE_NAMES.get(rtype, "")
        if type_name == "A":
            return bytes_to_ipv4(raw)
        if type_name == "AAAA":
            groups = struct.unpack("!8H", raw)
            return ":".join(f"{g:x}" for g in groups)
        if type_name in ("CNAME", "NS", "PTR"):
            name, _ = decode_name(raw, 0)
            return name
        if type_name == "MX":
            priority = struct.unpack("!H", raw[:2])[0]
            host, _ = decode_name(raw, 2)
            return f"{priority} {host}"
        if raw and raw[0] <= len(raw) - 1:
            return raw[1 : 1 + raw[0]].decode("utf-8", errors="replace")
        return raw.decode("utf-8", errors="replace")

    @property
    def type_name(self) -> str:
        return RECORD_TYPE_NAMES.get(self.rtype, f"TYPE{self.rtype}")


@dataclasses.dataclass
class DNSMessage:
    """A DNS query or response message."""

    transaction_id: int = 0
    is_response: bool = False
    questions: list[DNSQuestion] = dataclasses.field(default_factory=list)
    answers: list[DNSAnswer] = dataclasses.field(default_factory=list)
    recursion_desired: bool = True
    rcode: int = 0

    HEADER_LENGTH = 12

    def pack(self) -> bytes:
        flags = 0
        if self.is_response:
            flags |= DNS_FLAG_QR_RESPONSE | DNS_FLAG_RA
        if self.recursion_desired:
            flags |= DNS_FLAG_RD
        flags |= self.rcode & 0x0F
        header = struct.pack(
            "!HHHHHH",
            self.transaction_id,
            flags,
            len(self.questions),
            len(self.answers),
            0,
            0,
        )
        body = b"".join(q.pack() for q in self.questions)
        body += b"".join(a.pack() for a in self.answers)
        return header + body

    @classmethod
    def unpack(cls, data: bytes) -> "DNSMessage":
        if len(data) < cls.HEADER_LENGTH:
            raise ValueError("truncated DNS header")
        transaction_id, flags, qdcount, ancount, _ns, _ar = _HEADER.unpack_from(data)
        message = cls(
            transaction_id=transaction_id,
            is_response=bool(flags & DNS_FLAG_QR_RESPONSE),
            recursion_desired=bool(flags & DNS_FLAG_RD),
            rcode=flags & 0x0F,
        )
        offset = cls.HEADER_LENGTH
        for _ in range(qdcount):
            question, offset = DNSQuestion.unpack(data, offset)
            message.questions.append(question)
        for _ in range(ancount):
            answer, offset = DNSAnswer.unpack(data, offset)
            message.answers.append(answer)
        return message

    @property
    def query_name(self) -> str:
        """Convenience accessor: the first question's name (or empty string)."""
        return self.questions[0].name if self.questions else ""

    def answer_values(self) -> list[str]:
        """The rdata of every answer record — a *set*-valued field (Section 4.1.4)."""
        return [answer.rdata for answer in self.answers]


# ----------------------------------------------------------------------
# Memoized decode (the capture-ingestion fast path)
# ----------------------------------------------------------------------
#
# A capture contains the same domain names — and, for repeated queries, the
# same whole message minus the transaction id — over and over.  The helpers
# below decode a message exactly as :meth:`DNSMessage.unpack` would (same
# objects, same exceptions for malformed input) while memoizing at three
# levels, each keyed by the *wire bytes* of the decoded region so a hit is
# provably equivalent to a fresh decode:
#
# * whole message by ``data[2:]`` — everything except the transaction id,
#   which is the only field read from the first two bytes;
# * question entries by their name-plus-type/class span;
# * domain names by their label span (shared by answer records, whose TTLs
#   and addresses vary too much for whole-message hits).
#
# Decoded questions/answers can be shared between messages on a hit; like
# packet layers, they are immutable by convention once built.


def _name_span_end(data: bytes, offset: int) -> int:
    """End offset (past the terminator) of the name at ``offset``, or ``-1``
    when the walk runs off the data or hits a compression pointer — the
    caller falls back to :func:`decode_name` to raise the exact error."""
    size = len(data)
    pos = offset
    while True:
        if pos >= size:
            return -1
        length = data[pos]
        if length == 0:
            return pos + 1
        if length > 63:
            return -1
        pos += 1 + length


def _decode_name_cached(data: bytes, offset: int, names: dict) -> tuple[str, int]:
    end = _name_span_end(data, offset)
    if end < 0:
        return decode_name(data, offset)  # raises the canonical error
    key = data[offset:end]
    name = names.get(key)
    if name is None:
        name, decoded_end = decode_name(data, offset)
        assert decoded_end == end
        names[key] = name
    return name, end


def _decode_question_cached(data: bytes, offset: int, questions: dict, names: dict):
    end = _name_span_end(data, offset)
    if end < 0 or end + 4 > len(data):
        return DNSQuestion.unpack(data, offset)  # error path, uncached
    key = data[offset : end + 4]
    question = questions.get(key)
    if question is None:
        question, tail = DNSQuestion.unpack(data, offset)
        assert tail == end + 4
        questions[key] = question
    return question, end + 4


def _unpack_rdata_cached(rtype: int, raw: bytes, names: dict) -> str:
    """:meth:`DNSAnswer._unpack_rdata` with the name cache applied to the
    record types whose rdata is itself a domain name (CNAME/NS/PTR, MX)."""
    type_name = RECORD_TYPE_NAMES.get(rtype, "")
    if type_name == "A":
        return bytes_to_ipv4(raw)
    if type_name in ("CNAME", "NS", "PTR"):
        return _decode_name_cached(raw, 0, names)[0]
    if type_name == "MX":
        priority = struct.unpack("!H", raw[:2])[0]
        host, _ = _decode_name_cached(raw, 2, names)
        return f"{priority} {host}"
    return DNSAnswer._unpack_rdata(rtype, raw)


def _decode_answer_cached(data: bytes, offset: int, names: dict):
    name, offset = _decode_name_cached(data, offset, names)
    rtype, rclass, ttl, rdlength = _ANSWER_TAIL.unpack_from(data, offset)
    offset += 10
    rdata = _unpack_rdata_cached(rtype, data[offset : offset + rdlength], names)
    return (
        DNSAnswer(name=name, rtype=rtype, rclass=rclass, ttl=ttl, rdata=rdata),
        offset + rdlength,
    )


def unpack_message_cached(data: bytes, cache: dict) -> DNSMessage:
    """Decode ``data`` exactly like :meth:`DNSMessage.unpack`, memoized.

    ``cache`` is a caller-owned dict (one per capture read); it is filled
    with ``"messages"`` / ``"questions"`` / ``"names"`` sub-dicts on first
    use.  Malformed messages raise the same exception a fresh decode would
    (memoized per message suffix for the caught-and-discarded kinds).
    """
    if len(data) < DNSMessage.HEADER_LENGTH:
        raise ValueError("truncated DNS header")
    messages = cache.get("messages")
    if messages is None:
        messages = cache["messages"] = {}
        cache["questions"] = {}
        cache["names"] = {}
    suffix = data[2:]
    hit = messages.get(suffix)
    if hit is not None:
        if type(hit) is not tuple:
            # Clear the stored traceback before re-raising: each raise adds
            # fresh frames, and letting them accumulate on the shared cached
            # instance would grow without bound in a long-lived cache.
            raise hit.with_traceback(None)
        is_response, questions, answers, recursion_desired, rcode = hit
        return DNSMessage(
            transaction_id=(data[0] << 8) | data[1],
            is_response=is_response,
            questions=questions,
            answers=answers,
            recursion_desired=recursion_desired,
            rcode=rcode,
        )
    try:
        transaction_id, flags, qdcount, ancount, _ns, _ar = _HEADER.unpack_from(data)
        message = DNSMessage(
            transaction_id=transaction_id,
            is_response=bool(flags & DNS_FLAG_QR_RESPONSE),
            recursion_desired=bool(flags & DNS_FLAG_RD),
            rcode=flags & 0x0F,
        )
        offset = DNSMessage.HEADER_LENGTH
        question_cache, name_cache = cache["questions"], cache["names"]
        for _ in range(qdcount):
            question, offset = _decode_question_cached(
                data, offset, question_cache, name_cache
            )
            message.questions.append(question)
        for _ in range(ancount):
            answer, offset = _decode_answer_cached(data, offset, name_cache)
            message.answers.append(answer)
    except (ValueError, IndexError) as error:
        # Memoized malformed kinds; struct.error (which the opportunistic
        # decoder also turns into None) propagates uncached, exactly like
        # DNSMessage.unpack.
        messages[suffix] = error
        raise
    messages[suffix] = (
        message.is_response,
        message.questions,
        message.answers,
        message.recursion_desired,
        message.rcode,
    )
    return message
