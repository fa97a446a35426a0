"""The :class:`Packet` container: a timestamped stack of parsed protocol layers.

A packet trace in this library is simply ``list[Packet]``.  Every packet
carries both the decoded layer objects (for field-aware tokenization and for
labelling) and the exact wire bytes (for byte-level tokenization), so the two
tokenization strategies of Section 4.1.2 can be compared on identical data.
For batch-scale work the columnar twin of a trace is
:class:`repro.net.columns.PacketColumns`.

Examples
--------
Build a packet from high-level parameters, serialize it, and parse it back:

>>> from repro.net.packet import build_packet, parse_packet
>>> packet = build_packet(
...     timestamp=1.5, src_ip="10.0.0.1", dst_ip="93.184.216.34",
...     protocol="TCP", src_port=49877, dst_port=443,
... )
>>> packet.src_port, packet.dst_port, packet.protocol
(49877, 443, 6)
>>> wire = packet.to_bytes()
>>> len(wire)                        # Ethernet (14) + IPv4 (20) + TCP (20)
54
>>> parsed = parse_packet(wire, timestamp=1.5)
>>> parsed.ip.dst_ip
'93.184.216.34'
>>> parsed.to_bytes() == wire
True
"""

from __future__ import annotations

import dataclasses
import struct
from typing import Any

from .dns import DNSMessage
from .headers import EthernetHeader, ICMPHeader, IPv4Header, TCPHeader, UDPHeader
from .http import HTTPRequest, HTTPResponse
from .ntp import NTPPacket
from .ports import IP_PROTOCOL_NUMBERS
from .tls import TLSClientHello, TLSServerHello

__all__ = ["Packet", "build_packet", "parse_packet"]

_TCP = IP_PROTOCOL_NUMBERS["TCP"]
_UDP = IP_PROTOCOL_NUMBERS["UDP"]
_ICMP = IP_PROTOCOL_NUMBERS["ICMP"]

#: What the application decoders raise on a malformed or short payload; the
#: opportunistic decode turns each of these into "no application layer".
#: ``struct.error`` comes from fixed-width fields cut short (DNS question
#: and answer tails, TLS hello fields); ``UnicodeDecodeError`` is a
#: ``ValueError``.
MALFORMED_PAYLOAD_ERRORS = (ValueError, IndexError, struct.error)


@dataclasses.dataclass
class Packet:
    """One captured packet.

    Attributes
    ----------
    timestamp:
        Capture time in seconds (float, epoch-relative or trace-relative).
    ethernet, ip, transport, application:
        Decoded layer objects.  ``transport`` is a TCP/UDP/ICMP header;
        ``application`` is a DNS/HTTP/TLS/NTP message or ``None``.
    payload:
        Application-layer bytes (wire format of ``application`` when present).
    metadata:
        Free-form labels attached by generators (application name, device
        label, anomaly flag, connection id, ...), used as ground truth by the
        downstream tasks.
    """

    timestamp: float = 0.0
    ethernet: EthernetHeader | None = None
    ip: IPv4Header | None = None
    transport: TCPHeader | UDPHeader | ICMPHeader | None = None
    application: Any = None
    payload: bytes = b""
    metadata: dict[str, Any] = dataclasses.field(default_factory=dict)
    # Memoized wire serialization; layers are treated as immutable once the
    # packet is built (nothing in the library mutates them afterwards).
    # init=False keeps it out of __init__ and dataclasses.replace(), so
    # copies with modified fields never inherit stale cached bytes.
    _wire: bytes | None = dataclasses.field(
        default=None, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    # Convenience accessors used heavily by flows, tokenizers and tasks
    # ------------------------------------------------------------------
    @property
    def src_ip(self) -> str:
        return self.ip.src_ip if self.ip else ""

    @property
    def dst_ip(self) -> str:
        return self.ip.dst_ip if self.ip else ""

    @property
    def protocol(self) -> int:
        return self.ip.protocol if self.ip else 0

    @property
    def src_port(self) -> int:
        if isinstance(self.transport, (TCPHeader, UDPHeader)):
            return self.transport.src_port
        return 0

    @property
    def dst_port(self) -> int:
        if isinstance(self.transport, (TCPHeader, UDPHeader)):
            return self.transport.dst_port
        return 0

    @property
    def length(self) -> int:
        """Total IP length (header + transport + payload)."""
        if self.ip is not None:
            return self.ip.total_length
        return len(self.payload)

    def to_bytes(self) -> bytes:
        """Serialize the full packet to wire format (Ethernet onward).

        The serialization is memoized — byte-level tokenization visits every
        packet repeatedly and header packing would otherwise dominate it.
        """
        if self._wire is not None:
            return self._wire
        payload = self.payload
        if self.application is not None and not payload:
            payload = _encode_application(self.application)
        transport_bytes = b""
        if isinstance(self.transport, TCPHeader):
            transport_bytes = self.transport.pack()
        elif isinstance(self.transport, UDPHeader):
            transport_bytes = self.transport.pack(payload_length=len(payload))
        elif isinstance(self.transport, ICMPHeader):
            transport_bytes = self.transport.pack(payload)
        ip_bytes = b""
        if self.ip is not None:
            ip_bytes = self.ip.pack(payload_length=len(transport_bytes) + len(payload))
        eth_bytes = self.ethernet.pack() if self.ethernet else b""
        self._wire = eth_bytes + ip_bytes + transport_bytes + payload
        return self._wire


def _encode_application(application: Any) -> bytes:
    if isinstance(application, (DNSMessage, TLSClientHello, TLSServerHello, NTPPacket)):
        return application.pack()
    if isinstance(application, (HTTPRequest, HTTPResponse)):
        return application.encode()
    if isinstance(application, bytes):
        return application
    raise TypeError(f"cannot encode application layer of type {type(application).__name__}")


def build_packet(
    timestamp: float,
    src_ip: str,
    dst_ip: str,
    protocol: str,
    src_port: int = 0,
    dst_port: int = 0,
    application: Any = None,
    tcp_flags: int = 0,
    seq: int = 0,
    ack: int = 0,
    ttl: int = 64,
    metadata: dict[str, Any] | None = None,
    src_mac: str = "02:00:00:00:00:01",
    dst_mac: str = "02:00:00:00:00:02",
) -> Packet:
    """Assemble a full packet from high-level parameters.

    ``protocol`` is a name from :data:`repro.net.ports.IP_PROTOCOL_NUMBERS`
    (e.g. ``"TCP"``, ``"UDP"``, ``"ICMP"``); other registered protocol names
    produce a bare IP packet carrying the given payload.
    """
    protocol = protocol.upper()
    if protocol not in IP_PROTOCOL_NUMBERS:
        raise ValueError(f"unknown protocol {protocol!r}")
    proto_num = IP_PROTOCOL_NUMBERS[protocol]
    payload = _encode_application(application) if application is not None else b""

    transport: TCPHeader | UDPHeader | ICMPHeader | None = None
    if proto_num == _TCP:
        transport = TCPHeader(
            src_port=src_port, dst_port=dst_port, flags=tcp_flags, seq=seq, ack=ack
        )
    elif proto_num == _UDP:
        transport = UDPHeader(src_port=src_port, dst_port=dst_port, length=8 + len(payload))
    elif proto_num == _ICMP:
        transport = ICMPHeader(identifier=src_port, sequence=seq)

    transport_length = transport.LENGTH if transport is not None else 0
    ip = IPv4Header(
        src_ip=src_ip,
        dst_ip=dst_ip,
        protocol=proto_num,
        ttl=ttl,
        total_length=IPv4Header.LENGTH + transport_length + len(payload),
    )
    ethernet = EthernetHeader(src_mac=src_mac, dst_mac=dst_mac)
    return Packet(
        timestamp=timestamp,
        ethernet=ethernet,
        ip=ip,
        transport=transport,
        application=application,
        payload=payload,
        metadata=dict(metadata or {}),
    )


def parse_packet(data: bytes, timestamp: float = 0.0) -> Packet:
    """Parse wire bytes (Ethernet onward) back into a :class:`Packet`.

    Application-layer payloads are decoded opportunistically: DNS on port 53,
    HTTP on 80/8080, TLS on 443/8443, NTP on 123; anything else is kept as raw
    payload bytes.
    """
    ethernet = EthernetHeader.unpack(data)
    offset = EthernetHeader.LENGTH
    ip = IPv4Header.unpack(data[offset:])
    offset += IPv4Header.LENGTH

    transport: TCPHeader | UDPHeader | ICMPHeader | None = None
    if ip.protocol == _TCP:
        transport = TCPHeader.unpack(data[offset:])
        offset += TCPHeader.LENGTH
    elif ip.protocol == _UDP:
        transport = UDPHeader.unpack(data[offset:])
        offset += UDPHeader.LENGTH
    elif ip.protocol == _ICMP:
        transport = ICMPHeader.unpack(data[offset:])
        offset += ICMPHeader.LENGTH

    payload = data[offset:]
    application = _decode_application(transport, payload)
    return Packet(
        timestamp=timestamp,
        ethernet=ethernet,
        ip=ip,
        transport=transport,
        application=application,
        payload=payload,
    )


def _decode_application(transport, payload: bytes) -> Any:
    if not payload or not isinstance(transport, (TCPHeader, UDPHeader)):
        return None
    ports = {transport.src_port, transport.dst_port}
    try:
        if 53 in ports or 5353 in ports:
            return DNSMessage.unpack(payload)
        if ports & {80, 8080}:
            text = payload[:4]
            if text.startswith(b"HTTP"):
                return HTTPResponse.decode(payload)
            return HTTPRequest.decode(payload)
        if ports & {443, 8443}:
            if len(payload) > 5 and payload[0] == 22:
                if payload[5] == 1:
                    return TLSClientHello.unpack(payload)
                if payload[5] == 2:
                    return TLSServerHello.unpack(payload)
        if 123 in ports:
            return NTPPacket.unpack(payload)
    except MALFORMED_PAYLOAD_ERRORS:
        return None
    return None
