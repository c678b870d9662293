"""L3 routing: longest-prefix-match tables with ECMP next-hop selection.

The testbed's fixed-function switches (core and ToR layers) run 5-tuple
ECMP, which is what gives the paper its best-effort flow affinity: packets
of one flow normally hash to the same aggregation switch, and reroute to
the alternative only when a switch or link fails (§2, "Network model").

Failure handling mirrors a BFD + route-withdrawal control plane: a switch
keeps forwarding toward a dead next hop until its *belief* about the port is
updated, which the topology schedules ``FAILURE_DETECT_US`` after the fault.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.net import constants
from repro.net.links import Node, Port
from repro.net.packet import FlowKey, Packet, TCPHeader, UDPHeader
from repro.net.simulator import Simulator


def ecmp_hash(key: FlowKey, seed: int = 0) -> int:
    """Partition-aware ECMP hash for next-hop selection.

    The paper assumes the network is "configured to provide best-effort
    affinity such that packets from the same partition usually arrive at
    the same switch ... when [ECMP is] configured to use the partition key
    as their hash key" (§2). We therefore hash the *direction-stable* part
    of the flow identity — protocol plus the sorted port pair — so both
    directions of a connection (including one side rewritten by a NAT or
    load balancer) pick the same next hop. IP addresses are excluded
    because address-translating apps rewrite them asymmetrically.

    CRC32 mixed with a per-switch seed: different switches still spread
    the same flows differently, like real silicon.
    """
    lo, hi = sorted((key.sport, key.dport))
    material = bytes([key.proto]) + lo.to_bytes(2, "big") + hi.to_bytes(2, "big")
    return zlib.crc32(material + seed.to_bytes(4, "big")) & 0xFFFFFFFF


@dataclass
class Route:
    """One LPM entry: a prefix and its set of equal-cost next-hop ports."""

    prefix: int
    mask_len: int
    ports: List[Port] = field(default_factory=list)

    def matches(self, ip: int) -> bool:
        if self.mask_len == 0:
            return True
        shift = 32 - self.mask_len
        return (ip >> shift) == (self.prefix >> shift)


class RoutingTable:
    """A longest-prefix-match table over :class:`Route` entries."""

    def __init__(self) -> None:
        self._routes: List[Route] = []
        #: Bumped on every mutation; a switch's route memo is valid only
        #: while this (and the switch's belief version) is unchanged.
        self.version = 0

    def add(self, prefix: int, mask_len: int, ports: List[Port]) -> Route:
        if not ports:
            raise ValueError("a route needs at least one next-hop port")
        route = Route(prefix, mask_len, list(ports))
        self._routes.append(route)
        self.version += 1
        # Keep sorted longest-prefix-first so lookup is a linear scan.
        self._routes.sort(key=lambda r: -r.mask_len)
        return route

    def lookup(self, dst_ip: int) -> Optional[Route]:
        for route in self._routes:
            if route.matches(dst_ip):
                return route
        return None

    def routes(self) -> List[Route]:
        return list(self._routes)


class L3Switch(Node):
    """A fixed-function L3 switch: LPM + ECMP forwarding, TTL handling.

    ``port_up_belief`` is the switch's current view of each local port;
    the routing layer only spreads flows over believed-up next hops.
    """

    #: Network-wide default ECMP seed. Sharing one seed across switches
    #: (same silicon, same config) is what lets the fabric deliver the
    #: per-partition affinity the paper's deployment relies on; per-switch
    #: seeds can still be set to study affinity loss.
    DEFAULT_ECMP_SEED = 0x5EED

    def __init__(self, sim: Simulator, name: str, ecmp_seed: Optional[int] = None) -> None:
        super().__init__(sim, name)
        self.table = RoutingTable()
        self.port_up_belief: Dict[int, bool] = {}
        #: Bumped on every belief change; see :attr:`RoutingTable.version`.
        self.belief_version = 0
        #: Successful selections keyed by ``(dst, proto, sport, dport)``,
        #: filled under the table and belief versions recorded beside it.
        self._route_memo: Dict[tuple, Port] = {}
        self._memo_table_ver = 0
        self._memo_belief_ver = 0
        self.ecmp_seed = ecmp_seed if ecmp_seed is not None else self.DEFAULT_ECMP_SEED
        self.forwarded = 0
        self.dropped_no_route = 0
        self.dropped_ttl = 0
        self.dropped_no_next_hop = 0

    @property
    def ecmp_seed(self) -> int:
        """This switch's ECMP hash seed; setting it clears the route memo."""
        return self._ecmp_seed

    @ecmp_seed.setter
    def ecmp_seed(self, seed: int) -> None:
        self._ecmp_seed = seed
        self._route_memo = {}

    # -- belief management --------------------------------------------------

    def believes_up(self, port: Port) -> bool:
        return self.port_up_belief.get(id(port), True)

    def set_port_belief(self, port: Port, up: bool) -> None:
        self.port_up_belief[id(port)] = up
        self.belief_version += 1

    # -- forwarding -----------------------------------------------------------

    def receive(self, pkt: Packet, port: Port) -> None:
        self.forward(pkt)

    def forward(self, pkt: Packet) -> None:
        """Route a packet: LPM, then ECMP among believed-up next hops."""
        if pkt.ip is None:
            self.sim.count(f"{self.name}.drops.non_ip")
            return
        if pkt.ip.ttl <= 1:
            self.dropped_ttl += 1
            self.sim.count("route.drops.ttl")
            return
        out_port = self.select_port(pkt)
        if out_port is None:
            return
        pkt.ip.ttl -= 1
        self.forwarded += 1
        self.sim.schedule(constants.SWITCH_PIPELINE_US, out_port.send, pkt)

    def select_port(self, pkt: Packet) -> Optional[Port]:
        """Pick the output port for a packet without sending it.

        Successful selections are memoized per ``(dst, proto, sport,
        dport)``, the only packet fields the LPM + ECMP walk reads. The
        memo holds while the table and belief versions are the ones it
        was filled under; setting :attr:`ecmp_seed` clears it. Drop
        outcomes are never memoized: they re-walk the table so their
        counters fire once per packet.
        """
        memo = self._route_memo
        if (self.table.version != self._memo_table_ver
                or self.belief_version != self._memo_belief_ver):
            memo = self._route_memo = {}
            self._memo_table_ver = self.table.version
            self._memo_belief_ver = self.belief_version
        ip = pkt.ip
        l4 = pkt.l4
        if type(l4) is UDPHeader or type(l4) is TCPHeader:
            key = (ip.dst, ip.proto, l4.sport, l4.dport)
        else:
            key = (ip.dst, ip.proto, 0, 0)
        port = memo.get(key)
        if port is None:
            port = self._select_port_uncached(pkt)
            if port is not None:
                if len(memo) >= constants.MEMO_CAP:
                    memo.clear()
                memo[key] = port
        return port

    def _select_port_uncached(self, pkt: Packet) -> Optional[Port]:
        """The LPM + ECMP walk behind :meth:`select_port`'s memo."""
        route = self.table.lookup(pkt.ip.dst)
        if route is None:
            self.dropped_no_route += 1
            self.sim.count("route.drops.no_route")
            return None
        alive = [p for p in route.ports if self.believes_up(p)]
        if not alive:
            self.dropped_no_next_hop += 1
            self.sim.count("route.drops.no_next_hop")
            return None
        index = ecmp_hash(pkt.flow_key(), self.ecmp_seed) % len(alive)
        return alive[index]
