"""Parametric carrier network: the metadata the backend server sees per message.

Guest devices get either a device-unique IPv6 address or a shared IPv4
gateway behind carrier-grade NAT with a per-device, strictly increasing
source-port cursor.  Venue scanners and health-department frontends use
static, distinguishable addresses.  Delivery is same-tick and lossless:
the attacks under study need metadata, not timing faults.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as quote
from random import Random
from typing import Any, NamedTuple, Optional

from .model import SimulationError
from .report import compact_encoder

# Message kinds as observed by the backend server.
MSG_CHECKIN_POLL = "checkin_poll"
MSG_CHECKOUT = "checkout"
MSG_POSITIVE_UPLOAD = "positive_upload"
MSG_OTHER = "other"

DEVICE_TYPES = tuple(f"handset-{chr(ord('a') + i)}" for i in range(12))

# A NAT identity's port cursor starts anywhere in [PORT_MIN, PORT_SPREAD_MAX]
# and, as a NAT's port allocator reuses ports, wraps from PORT_MAX to PORT_MIN.
PORT_MIN = 1024
PORT_SPREAD_MAX = 60000
PORT_MAX = 65535

# A gateway cannot map more devices than it has source ports, and
# ``_gateway_address`` draws once per slot of its pool.
NAT_POOL_MAX = PORT_MAX - PORT_MIN + 1

# Carrier i's NAT gateways are ``{100 + i}.64.x.y`` (``_gateway_address``), and
# an IPv4 octet is at most 255.
MAX_CARRIERS = 156

# Bounds of the ``network`` section, which ``parse_config`` checks.
ADOPTION_MIN, ADOPTION_MAX = 0.01, 1.0
IPV6_PROBABILITY_MIN, IPV6_PROBABILITY_MAX = 0.0, 1.0


class NetworkConfig(NamedTuple):
    """The carrier network: carriers, IPv6 share, NAT pool sizes and app adoption."""

    carriers: int = 3
    # Probability that a device on carrier i gets a unique IPv6 address;
    # the default mirrors two IPv6-assigning carriers plus one IPv4-only one.
    ipv6_probability: tuple[float, ...] = (1.0, 1.0, 0.0)
    nat_pool_min: int = 16
    nat_pool_max: int = 64
    # Fraction of devices behind a gateway that actually run the app; shapes
    # how many simulated devices share one external address.
    adoption: float = 0.3


class NetworkIdentity:
    """A guest device's current address, device type and NAT port cursor; an
    IPv6 device has its own address and no port cursor."""

    __slots__ = ("carrier", "address", "device_type", "port_cursor")

    def __init__(
        self, carrier: int, address: str, device_type: str, port_cursor: Optional[int] = None
    ) -> None:
        self.carrier = carrier
        self.address = address
        self.device_type = device_type
        self.port_cursor = port_cursor


class StaticIdentity(NamedTuple):
    """Fixed infrastructure endpoint (scanner, venue or HD frontend)."""

    address: str
    device_type: str


class CarrierNetwork:
    """Samples and mutates guest network identities."""

    def __init__(self, config: NetworkConfig, rng: Random) -> None:
        self.config = config
        self.rng = rng
        # Each carrier's NAT gateway addresses, and how many more app devices
        # its last gateway, the only open one, takes.
        self._gateways: list[list[str]] = [[] for _ in range(config.carriers)]
        self._free_slots = [0] * config.carriers
        self._serial = 0
        self._used_ipv6: set[str] = set()

    def _new_serial(self) -> int:
        self._serial += 1
        return self._serial

    def _ipv6_address(self, carrier: int, serial: int) -> str:
        addr = f"2001:db8:{carrier:x}::{serial:x}"
        if addr in self._used_ipv6:
            raise SimulationError(f"IPv6 address {addr} handed out twice")
        self._used_ipv6.add(addr)
        return addr

    def _gateway_address(self, carrier: int) -> str:
        """The address of the carrier's open gateway for one more app device;
        a full gateway closes and a new one opens with a sampled pool."""
        gateways = self._gateways[carrier]
        if not self._free_slots[carrier]:
            cfg = self.config
            pool = self.rng.randint(cfg.nat_pool_min, cfg.nat_pool_max)
            slots = sum(1 for _ in range(pool) if self.rng.random() < cfg.adoption)
            idx = len(gateways)
            gateways.append(f"{100 + carrier}.64.{idx >> 8}.{idx & 0xFF}")
            self._free_slots[carrier] = max(1, slots)
        self._free_slots[carrier] -= 1
        return gateways[-1]

    def assign_identity(self) -> NetworkIdentity:
        cfg = self.config
        carrier = self.rng.randrange(cfg.carriers)
        device_type = self.rng.choice(DEVICE_TYPES)
        uses_ipv6 = self.rng.random() < cfg.ipv6_probability[carrier]
        serial = self._new_serial()
        if uses_ipv6:
            return NetworkIdentity(carrier, self._ipv6_address(carrier, serial), device_type)
        return NetworkIdentity(
            carrier,
            self._gateway_address(carrier),
            device_type,
            self.rng.randint(PORT_MIN, PORT_SPREAD_MAX),
        )

    def reconnect_event(self, identity: NetworkIdentity) -> NetworkIdentity:
        """Device dropped off the network: fresh address, re-seeded port cursor."""
        serial = self._new_serial()  # drawn by IPv4 devices too, as at assignment
        if identity.port_cursor is None:
            identity.address = self._ipv6_address(identity.carrier, serial)
            return identity
        gateways = self._gateways[identity.carrier]
        identity.address = gateways[self.rng.randrange(len(gateways))]
        identity.port_cursor = self.rng.randint(PORT_MIN, PORT_SPREAD_MAX)
        return identity


def next_port(identity: NetworkIdentity) -> int:
    port = identity.port_cursor
    if port is None:
        raise SimulationError("IPv6 identities have no NAT port cursor")
    identity.port_cursor = port + 1 if port < PORT_MAX else PORT_MIN
    return port


class NetworkObservation:
    """What the backend server sees of one message it receives; its ``seq`` is
    its position in ``Transport.observations``."""

    __slots__ = ("t", "src_address", "src_port", "ip_version", "device_type", "message_kind", "trace_id")

    def __init__(
        self,
        t: int,
        src_address: str,
        src_port: int,
        ip_version: int,
        device_type: str,
        message_kind: str,
        trace_id: Optional[str],
    ) -> None:
        self.t = t
        self.src_address = src_address
        self.src_port = src_port
        self.ip_version = ip_version
        self.device_type = device_type
        self.message_kind = message_kind
        self.trace_id = trace_id


# One observations.ndjson line: the fields in sorted key order, the four
# integer fields formatted directly (they are ints by construction).
_OBSERVATION_ROW = (
    '{"device_type":%s,"ip_version":%d,"message_kind":%s,"seq":%d,'
    '"src_address":%s,"src_port":%d,"t":%d,"trace_id":%s}\n'
)


# A message payload: a dict, or the compact, key-sorted JSON of one already
# rendered (``report.compact_encoder()`` of the dict), which is logged as it is.
Payload = dict[str, Any] | str


# The transcript is kept as chunks of this many lines, joined as each fills
# (about 600 KB of text).  Thousands of small line strings freed together
# leave their allocator pages partly used, while one large chunk string goes
# back to the system whole when it is freed.
_CHUNK_LINES = 2048


class Transport:
    """Logs every protocol message: observations for server-bound traffic,
    a full transcript for everything."""

    def __init__(self) -> None:
        self.observations: list[NetworkObservation] = []
        self.messages = 0
        self._chunks: list[str] = []
        self._lines: list[str] = []
        self._encode = compact_encoder()

    def _log(self, t: int, sender: str, receiver: str, kind: str, payload: Payload) -> None:
        # One transcript.ndjson line, built as the message is sent: the row's
        # keys in sorted order.  An f-string, not a % template: % over-allocates
        # each row string and shrinks it in place, which on rows this long
        # leaves heap fragments behind.  A payload that fails to encode raises
        # before anything is appended, so seq stays gapless.
        if not isinstance(payload, str):
            payload = self._encode(payload)
        lines = self._lines
        lines.append(
            f'{{"kind":{quote(kind)},"payload":{payload},'
            f'"receiver":{quote(receiver)},"sender":{quote(sender)},'
            f'"seq":{self.messages:d},"t":{t:d}}}\n'
        )
        self.messages += 1
        if len(lines) == _CHUNK_LINES:
            self._chunks.append("".join(lines))
            self._lines = []

    def to_server(
        self,
        identity: NetworkIdentity | StaticIdentity,
        sender: str,
        kind: str,
        payload: Payload,
        t: int,
        trace_id: Optional[str] = None,
    ) -> NetworkObservation:
        """Deliver a message to the backend server, recording what it observes.

        ``trace_id`` is the hex pseudonym the message carries, if any."""
        if isinstance(identity, StaticIdentity):
            src_port, ip_version = 0, 4
        elif identity.port_cursor is None:
            src_port, ip_version = 0, 6
        else:
            src_port, ip_version = next_port(identity), 4
        obs = NetworkObservation(
            t,
            identity.address,
            src_port,
            ip_version,
            identity.device_type,
            kind,
            trace_id,
        )
        self.observations.append(obs)
        self._log(t, sender, "server", kind, payload)
        return obs

    def from_server(self, receiver: str, payload: Payload, t: int) -> None:
        self._log(t, "server", receiver, MSG_OTHER, payload)

    def local(self, sender: str, receiver: str, kind: str, payload: Payload, t: int) -> None:
        """Proximity channel (QR display/scan); never crosses the network."""
        self._log(t, sender, receiver, kind, payload)

    def export_observations_ndjson(self) -> str:
        return "".join(
            [
                _OBSERVATION_ROW
                % (
                    quote(o.device_type),
                    o.ip_version,
                    quote(o.message_kind),
                    seq,
                    quote(o.src_address),
                    o.src_port,
                    o.t,
                    "null" if o.trace_id is None else quote(o.trace_id),
                )
                for seq, o in enumerate(self.observations)
            ]
        )

    def transcript_chunks(self) -> list[str]:
        """The transcript as the strings it is kept in, in order, with the
        lines logged since the last full chunk closed into one more."""
        if self._lines:
            self._chunks.append("".join(self._lines))
            self._lines = []
        return self._chunks

    def export_transcript_ndjson(self) -> str:
        """The transcript as one string, which the transport then holds in
        place of its chunks; a repeat call returns the same object."""
        if len(self.transcript_chunks()) != 1:
            self._chunks = ["".join(self._chunks)]
        return self._chunks[0]
