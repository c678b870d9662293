"""Nodes, ports, and point-to-point links.

A :class:`Link` connects two :class:`Port` objects and models one-way
propagation latency, store-and-forward serialization delay, random loss,
and reordering. Links can be administratively or fault-injected down; a
packet entering a down link is silently dropped, exactly like a cut fiber.

Beyond clean fail-stop, a link direction can carry a
:class:`LinkImpairment` — the *gray failure* modes that production link
studies (LinkGuardian) show are the hard case precisely because routing
does not react to them: extra random loss, FCS corruption (the frame
crosses the wire, burns bandwidth, and is discarded by the receiving
MAC), duplication, delay jitter, degraded line rate, and one-way
blackholing (asymmetric partition). Impairments are per *direction* (keyed
by the sending port), drawn from the simulator's seeded RNG, and leave
routing beliefs untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.net import constants
from repro.net.packet import Packet
from repro.net.simulator import Simulator
from repro.telemetry import trace as tt
from repro.telemetry.trace import Tracer


@dataclass
class LinkImpairment:
    """Gray-failure parameters for one direction of a link.

    All probabilities are per transmitted packet; a zeroed impairment is
    indistinguishable from a healthy direction.
    """

    #: Additional random loss on top of the link's base ``loss_rate``.
    drop_rate: float = 0.0
    #: FCS corruption: the frame is serialized and delivered, then dropped
    #: by the receiving MAC — bandwidth is spent, the packet is not.
    corrupt_rate: float = 0.0
    #: The frame is duplicated on the wire (both copies delivered).
    duplicate_rate: float = 0.0
    #: Uniform extra propagation delay in ``[0, jitter_us]`` per packet.
    jitter_us: float = 0.0
    #: Line-rate multiplier in ``(0, 1]``; e.g. 0.1 = link degraded to 10%.
    bandwidth_scale: float = 1.0
    #: One-way blackhole: every packet in this direction dies silently
    #: (asymmetric partition — the reverse direction still works).
    blocked: bool = False

    def __post_init__(self) -> None:
        for rate_name in ("drop_rate", "corrupt_rate", "duplicate_rate"):
            rate = getattr(self, rate_name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{rate_name} must be in [0, 1], got {rate}")
        if self.jitter_us < 0.0:
            raise ValueError("jitter_us must be non-negative")
        if not 0.0 < self.bandwidth_scale <= 1.0:
            raise ValueError("bandwidth_scale must be in (0, 1]")

    def describe(self) -> str:
        """Compact ``key=value`` summary of the non-default fields."""
        parts = []
        if self.blocked:
            parts.append("blocked")
        for attr, default in (("drop_rate", 0.0), ("corrupt_rate", 0.0),
                              ("duplicate_rate", 0.0), ("jitter_us", 0.0),
                              ("bandwidth_scale", 1.0)):
            value = getattr(self, attr)
            if value != default:
                parts.append(f"{attr}={value:g}")
        return ",".join(parts) or "healthy"


def emit_send(tracer: Tracer, link: str, dir_: str, nbytes: int, uid: int,
              kind: str, flow: Optional[str], parent: Optional[int]) -> None:
    """Write one ``packet.send`` record (shared by ``Link.transmit`` and
    the fast path's lanes).

    Fields go in a fixed order (``link, dir, bytes, uid, kind``, then
    ``flow`` and ``parent`` when set) as direct keywords, so the hot
    path builds one kwargs dict rather than a dict plus a copy, and the
    telemetry lint can check each field set against the schema.
    """
    if parent is None:
        if flow is None:
            tracer.emit(tt.PACKET_SEND, link=link, dir=dir_, bytes=nbytes,
                        uid=uid, kind=kind)
        else:
            tracer.emit(tt.PACKET_SEND, link=link, dir=dir_, bytes=nbytes,
                        uid=uid, kind=kind, flow=flow)
    elif flow is None:
        tracer.emit(tt.PACKET_SEND, link=link, dir=dir_, bytes=nbytes,
                    uid=uid, kind=kind, parent=parent)
    else:
        tracer.emit(tt.PACKET_SEND, link=link, dir=dir_, bytes=nbytes,
                    uid=uid, kind=kind, flow=flow, parent=parent)


class Node:
    """Base class for anything with ports: hosts, switches, servers."""

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self.ports: List[Port] = []
        self.failed = False

    def new_port(self) -> "Port":
        port = Port(self, len(self.ports))
        self.ports.append(port)
        return port

    def receive(self, pkt: Packet, port: "Port") -> None:
        """Handle a packet arriving on ``port``. Subclasses override."""
        raise NotImplementedError

    def fail(self) -> None:
        """Fail-stop the node: drop all future traffic addressed to it."""
        self.failed = True

    def recover(self) -> None:
        self.failed = False

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


class Port:
    """One attachment point of a node; at most one link per port."""

    def __init__(self, node: Node, index: int) -> None:
        self.node = node
        self.index = index
        self.link: Optional[Link] = None

    def send(self, pkt: Packet) -> None:
        """Transmit a packet out of this port onto the attached link."""
        if self.link is None:
            raise RuntimeError(f"{self} has no link attached")
        self.link.transmit(pkt, self)

    @property
    def peer(self) -> Optional["Port"]:
        """The port at the far end of the attached link, if any."""
        if self.link is None:
            return None
        return self.link.other_end(self)

    def __repr__(self) -> str:
        return f"<Port {self.node.name}[{self.index}]>"


class Link:
    """A full-duplex point-to-point link between two ports."""

    def __init__(
        self,
        sim: Simulator,
        a: Port,
        b: Port,
        latency_us: float = constants.LINK_LATENCY_US,
        bandwidth_gbps: float = constants.LINK_BANDWIDTH_GBPS,
        loss_rate: float = 0.0,
        reorder_rate: float = 0.0,
        queue_limit_bytes: Optional[int] = None,
        name: Optional[str] = None,
    ) -> None:
        if a.link is not None or b.link is not None:
            raise RuntimeError("port already has a link attached")
        self.sim = sim
        self.a = a
        self.b = b
        a.link = self
        b.link = self
        self.latency_us = latency_us
        self.bandwidth_gbps = bandwidth_gbps
        self.loss_rate = loss_rate
        self.reorder_rate = reorder_rate
        #: Finite transmit queue (tail drop) per direction; None = infinite.
        self.queue_limit_bytes = queue_limit_bytes
        self.up = True
        self.name = name or f"{a.node.name}<->{b.node.name}"
        # Per-direction byte/packet accounting, published through the run's
        # metric registry; handles are cached here so the transmit hot path
        # pays one dict lookup + one float add. (Parallel links with an
        # identical default name share instruments; name them explicitly if
        # per-link numbers matter.)
        m = sim.metrics
        self._dir_names: Dict[int, str] = {
            id(a): f"{a.node.name}->{b.node.name}",
            id(b): f"{b.node.name}->{a.node.name}",
        }
        self._ctr_tx_bytes = {
            pid: m.counter("link.tx_bytes", link=self.name, dir=d)
            for pid, d in self._dir_names.items()
        }
        self._ctr_tx_packets = {
            pid: m.counter("link.tx_packets", link=self.name, dir=d)
            for pid, d in self._dir_names.items()
        }
        self._ctr_queue_drops = m.counter("link.queue_drops", link=self.name)
        self._ctr_duplicated = m.counter("link.duplicated", link=self.name)
        #: ``link.drops{link,reason}`` handles, created lazily per reason.
        self._ctr_drops: Dict[str, object] = {}
        #: Per-direction transmit-queue drain time: packets serialize one
        #: after another, so a burst queues (and TCP sees real bandwidth).
        self._busy_until: Dict[int, float] = {id(a): 0.0, id(b): 0.0}
        #: Per-direction gray-failure impairments, keyed by sending-port id.
        self._impairments: Dict[int, LinkImpairment] = {}
        #: Optional taps invoked for every transmitted packet: fn(pkt, src_port).
        self.taps: List[Callable[[Packet, Port], None]] = []

    def other_end(self, port: Port) -> Port:
        if port is self.a:
            return self.b
        if port is self.b:
            return self.a
        raise ValueError("port is not an end of this link")

    def serialization_delay_us(self, pkt: Packet) -> float:
        """Store-and-forward delay: bits / line rate."""
        bits = pkt.byte_size() * 8
        return bits / (self.bandwidth_gbps * 1000.0)

    def _drop(self, pkt: Packet, src_port: Port, reason: str) -> None:
        ctr = self._ctr_drops.get(reason)
        if ctr is None:
            ctr = self._ctr_drops[reason] = self.sim.metrics.counter(
                "link.drops", link=self.name, reason=reason
            )
        ctr.inc()
        self.sim.tracer.emit(
            tt.PACKET_DROP,
            link=self.name,
            dir=self._dir_names[id(src_port)],
            reason=reason,
            bytes=pkt.byte_size(),
            uid=pkt.meta.get("uid", 0),
        )

    def transmit(self, pkt: Packet, src_port: Port) -> None:
        """Send a packet from ``src_port`` toward the other end."""
        sim = self.sim
        fp = sim.fastpath
        if fp is not None:
            # Inlined lane lookup (one dict probe on the hot path); a
            # compiled lane accepting the packet is bit-identical to the
            # reference path below.
            lane = fp._lanes.get(id(src_port))
            if lane is None:
                lane = fp.make_lane(self, src_port)
            if lane.transmit(pkt):
                return
        # Span correlation: a packet gets its uid on first wire contact and
        # keeps it hop to hop (meta travels with the object, not the wire).
        meta = pkt.meta
        uid = meta.get("uid")
        if uid is None:
            uid = meta["uid"] = sim.new_uid()
        key = id(src_port)
        # Flow tag computed once per packet lifetime and cached in meta so
        # per-flow timelines can filter sends without joining other records.
        flow = meta.get("flow_s")
        if flow is None and pkt.ip is not None:
            flow = meta["flow_s"] = sim.flow_tag(pkt)
        # Taps only read the packet, so its wire size holds for the call.
        size = pkt.byte_size()
        # The send record marks the packet *entering* the link direction —
        # emitted before the down/partition/loss/queue verdicts so every
        # wire-level drop pairs with an origin (span completeness).
        emit_send(sim.tracer, self.name, self._dir_names[key], size, uid,
                  meta.get("rp_kind", "app"), flow, meta.get("parent_uid"))
        if not self.up:
            self._drop(pkt, src_port, "down")
            return
        dst_port = self.b if src_port is self.a else self.a
        impairment = self._impairments.get(key)
        if impairment is not None and impairment.blocked:
            # Asymmetric partition: this direction is a silent blackhole.
            self._drop(pkt, src_port, "partition")
            return
        self._ctr_tx_bytes[key].inc(size)
        self._ctr_tx_packets[key].inc()
        for tap in self.taps:
            tap(pkt, src_port)
        if self.loss_rate > 0.0 and sim.rng.random() < self.loss_rate:
            self._drop(pkt, src_port, "loss")
            return
        rate_gbps = self.bandwidth_gbps
        corrupted = False
        duplicated = False
        jitter_us = 0.0
        if impairment is not None:
            if (impairment.drop_rate > 0.0
                    and sim.rng.random() < impairment.drop_rate):
                self._drop(pkt, src_port, "gray_loss")
                return
            rate_gbps *= impairment.bandwidth_scale
            if impairment.corrupt_rate > 0.0:
                corrupted = sim.rng.random() < impairment.corrupt_rate
            if impairment.duplicate_rate > 0.0:
                duplicated = sim.rng.random() < impairment.duplicate_rate
            if impairment.jitter_us > 0.0:
                jitter_us = sim.rng.random() * impairment.jitter_us
        # Store-and-forward with per-direction serialization queueing.
        now = sim.now
        busy = self._busy_until[key]
        if self.queue_limit_bytes is not None:
            backlog_bytes = max(0.0, busy - now) * rate_gbps * 1000.0 / 8.0
            if backlog_bytes + size > self.queue_limit_bytes:
                # Tail drop: the transmit queue is full.
                self._ctr_queue_drops.inc()
                self._drop(pkt, src_port, "queue")
                return
        copies = 2 if duplicated else 1
        ser_us = (size * 8) / (rate_gbps * 1000.0)
        start = busy if busy > now else now
        self._busy_until[key] = start + ser_us * copies
        delay = (start + ser_us - now) + self.latency_us + jitter_us
        if self.reorder_rate > 0.0 and sim.rng.random() < self.reorder_rate:
            delay += constants.REORDER_EXTRA_US * sim.rng.random()
            sim.count("link.reordered")
            sim.tracer.emit(
                tt.PACKET_REORDER,
                link=self.name,
                dir=self._dir_names[key],
                delay_us=delay,
                uid=uid,
            )
        sim.schedule(delay, self._deliver, pkt, dst_port, corrupted)
        if duplicated:
            # The duplicate serializes right behind the original and is a
            # distinct object downstream (each copy is processed once); it
            # gets its own span uid with the original as parent.
            self._ctr_duplicated.inc()
            dup_pkt = pkt.copy()
            dup_uid = dup_pkt.meta["uid"] = sim.new_uid()
            dup_pkt.meta["parent_uid"] = uid
            sim.tracer.emit(
                tt.PACKET_DUP,
                link=self.name,
                dir=self._dir_names[key],
                bytes=size,
                uid=dup_uid,
                parent=uid,
            )
            sim.schedule(
                delay + ser_us, self._deliver, dup_pkt, dst_port, corrupted
            )

    def _deliver(self, pkt: Packet, dst_port: Port,
                 corrupted: bool = False) -> None:
        src_port = self.a if dst_port is self.b else self.b
        if not self.up:
            self._drop(pkt, src_port, "down")
            return
        if corrupted:
            # The receiving MAC discards the frame on FCS mismatch; the
            # bandwidth was spent, the packet never reaches the node.
            self._drop(pkt, src_port, "corrupt")
            return
        node = dst_port.node
        if node.failed:
            self._drop(pkt, src_port, "node_failed")
            return
        self.sim.tracer.emit(
            tt.PACKET_DELIVER,
            link=self.name,
            dir=self._dir_names[id(src_port)],
            node=node.name,
            uid=pkt.meta.get("uid", 0),
        )
        node.receive(pkt, dst_port)

    # -- failure injection ------------------------------------------------------

    def fail(self) -> None:
        """Cut the link; in-flight packets are also lost."""
        self.up = False

    def recover(self) -> None:
        self.up = True

    def impair(self, impairment: LinkImpairment,
               direction: Optional[Port] = None) -> None:
        """Install a gray-failure impairment on one or both directions.

        ``direction`` is the *sending* port of the affected direction;
        ``None`` impairs both directions with the same parameters.
        """
        if direction is None:
            keys = [id(self.a), id(self.b)]
        else:
            self.other_end(direction)  # validates membership
            keys = [id(direction)]
        for key in keys:
            self._impairments[key] = impairment

    def clear_impairments(self, direction: Optional[Port] = None) -> None:
        """Lift impairments from one direction (or, with ``None``, all)."""
        if direction is None:
            self._impairments.clear()
        else:
            self.other_end(direction)
            self._impairments.pop(id(direction), None)

    def impairment_of(self, direction: Port) -> Optional[LinkImpairment]:
        """The impairment active on the direction sent from ``direction``."""
        return self._impairments.get(id(direction))

    @property
    def impaired(self) -> bool:
        return bool(self._impairments)

    def backlog_us(self) -> float:
        """Summed transmit-queue drain time across both directions, in
        simulated microseconds from *now* — the queue-depth number the
        observability heartbeat reports. 0.0 when both directions are
        idle. Pure read of serialization state; no side effects."""
        now = self.sim.now
        return sum(max(0.0, busy - now)
                   for busy in self._busy_until.values())

    # -- registry-backed accounting views ---------------------------------------

    @property
    def queue_drops(self) -> int:
        return int(self._ctr_queue_drops.value)

    @property
    def tx_bytes(self) -> Dict[int, int]:
        """Per-direction bytes, keyed by ``id(sending port)`` (legacy shape)."""
        return {pid: int(c.value) for pid, c in self._ctr_tx_bytes.items()}

    @property
    def tx_packets(self) -> Dict[int, int]:
        return {pid: int(c.value) for pid, c in self._ctr_tx_packets.items()}

    def total_tx_bytes(self) -> int:
        return sum(int(c.value) for c in self._ctr_tx_bytes.values())

    def __repr__(self) -> str:
        state = "up" if self.up else "DOWN"
        return f"<Link {self.name} {state}>"


class SinkNode(Node):
    """A node that records every packet it receives; useful in tests."""

    def __init__(self, sim: Simulator, name: str = "sink") -> None:
        super().__init__(sim, name)
        self.received: List[Packet] = []
        self.receive_times: List[float] = []
        self.on_receive: Optional[Callable[[Packet, Port], None]] = None

    def receive(self, pkt: Packet, port: Port) -> None:
        self.received.append(pkt)
        self.receive_times.append(self.sim.now)
        if self.on_receive is not None:
            self.on_receive(pkt, port)
