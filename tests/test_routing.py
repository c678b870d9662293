"""Unit tests for LPM routing and ECMP next-hop selection."""

import pytest

from repro.fastpath.runtime import FastPath
from repro.net import constants
from repro.net.links import Link, SinkNode
from repro.net.packet import FlowKey, Packet, ip_aton
from repro.net.routing import L3Switch, RoutingTable, Route, ecmp_hash
from repro.net.simulator import Simulator


def test_lpm_prefers_longest_prefix():
    sim = Simulator()
    sw = L3Switch(sim, "sw")
    sink_wide = SinkNode(sim, "wide")
    sink_narrow = SinkNode(sim, "narrow")
    wide = Link(sim, sw.new_port(), sink_wide.new_port())
    narrow = Link(sim, sw.new_port(), sink_narrow.new_port())
    sw.table.add(ip_aton("10.0.0.0"), 8, [sw.ports[0]])
    sw.table.add(ip_aton("10.0.1.0"), 24, [sw.ports[1]])

    route = sw.table.lookup(ip_aton("10.0.1.5"))
    assert route.mask_len == 24
    route = sw.table.lookup(ip_aton("10.9.9.9"))
    assert route.mask_len == 8


def test_default_route_matches_everything():
    table = RoutingTable()
    sim = Simulator()
    sink = SinkNode(sim, "s")
    port = sink.new_port()
    table.add(0, 0, [port])
    assert table.lookup(ip_aton("203.0.113.9")).ports == [port]


def test_route_requires_ports():
    table = RoutingTable()
    with pytest.raises(ValueError):
        table.add(0, 0, [])


def test_ecmp_hash_symmetric_in_ports():
    forward = FlowKey(1, 2, 6, 1000, 80)
    reverse = FlowKey(2, 1, 6, 80, 1000)
    assert ecmp_hash(forward) == ecmp_hash(reverse)


def test_ecmp_hash_ignores_rewritten_addresses():
    # NAT rewrites IPs asymmetrically; the hash must not change.
    pre = FlowKey(ip_aton("10.0.1.11"), ip_aton("172.16.0.11"), 6, 7000, 80)
    post = FlowKey(ip_aton("192.0.2.1"), ip_aton("172.16.0.11"), 6, 7000, 80)
    assert ecmp_hash(pre) == ecmp_hash(post)


def test_ecmp_spreads_flows():
    keys = [FlowKey(1, 2, 17, 10000 + i, 80) for i in range(512)]
    buckets = [ecmp_hash(k) % 2 for k in keys]
    ones = sum(buckets)
    assert 150 < ones < 362  # roughly balanced across two next hops


def test_forwarding_decrements_ttl_and_drops_at_zero():
    sim = Simulator()
    sw = L3Switch(sim, "sw")
    sink = SinkNode(sim, "sink")
    Link(sim, sw.new_port(), sink.new_port())
    sw.table.add(0, 0, [sw.ports[0]])

    pkt = Packet.udp(1, 2, 3, 4)
    pkt.ip.ttl = 2
    sw.forward(pkt)
    sim.run_until_idle()
    assert len(sink.received) == 1
    assert sink.received[0].ip.ttl == 1

    expired = Packet.udp(1, 2, 3, 4)
    expired.ip.ttl = 1
    sw.forward(expired)
    sim.run_until_idle()
    assert len(sink.received) == 1
    assert sw.dropped_ttl == 1


def test_no_route_drops():
    sim = Simulator()
    sw = L3Switch(sim, "sw")
    pkt = Packet.udp(ip_aton("9.9.9.9"), ip_aton("8.8.8.8"), 1, 2)
    sw.forward(pkt)
    sim.run_until_idle()
    assert sw.dropped_no_route == 1


def test_belief_excludes_down_next_hops():
    sim = Simulator()
    sw = L3Switch(sim, "sw")
    sink_a = SinkNode(sim, "a")
    sink_b = SinkNode(sim, "b")
    Link(sim, sw.new_port(), sink_a.new_port())
    Link(sim, sw.new_port(), sink_b.new_port())
    sw.table.add(0, 0, [sw.ports[0], sw.ports[1]])

    sw.set_port_belief(sw.ports[0], False)
    for i in range(20):
        sw.forward(Packet.udp(1, 2, 100 + i, 4))
    sim.run_until_idle()
    assert len(sink_a.received) == 0
    assert len(sink_b.received) == 20

    sw.set_port_belief(sw.ports[0], True)
    sw.set_port_belief(sw.ports[1], False)
    for i in range(20):
        sw.forward(Packet.udp(1, 2, 100 + i, 4))
    sim.run_until_idle()
    assert len(sink_a.received) == 20


def test_all_next_hops_down_counts_drop():
    sim = Simulator()
    sw = L3Switch(sim, "sw")
    sink = SinkNode(sim, "a")
    Link(sim, sw.new_port(), sink.new_port())
    sw.table.add(0, 0, [sw.ports[0]])
    sw.set_port_belief(sw.ports[0], False)
    sw.forward(Packet.udp(1, 2, 3, 4))
    sim.run_until_idle()
    assert sw.dropped_no_next_hop == 1


def test_select_port_is_deterministic_per_flow():
    sim = Simulator()
    sw = L3Switch(sim, "sw")
    a, b = SinkNode(sim, "a"), SinkNode(sim, "b")
    Link(sim, sw.new_port(), a.new_port())
    Link(sim, sw.new_port(), b.new_port())
    sw.table.add(0, 0, [sw.ports[0], sw.ports[1]])
    pkt = Packet.udp(1, 2, 33, 44)
    first = sw.select_port(pkt)
    for _ in range(10):
        assert sw.select_port(pkt) is first


# -- the route memo ------------------------------------------------------------


def _ecmp_switch(sim, ways):
    """A switch with one default route spread over ``ways`` next hops."""
    sw = L3Switch(sim, "sw")
    for i in range(ways):
        Link(sim, sw.new_port(), SinkNode(sim, f"s{i}").new_port())
    sw.table.add(0, 0, list(sw.ports))
    return sw


def _flows(n, dst=2):
    return [Packet.udp(1, dst, 1000 + i, 80) for i in range(n)]


def _assert_memo_matches_fresh_walk(sw, pkts):
    for pkt in pkts:
        assert sw.select_port(pkt) is sw._select_port_uncached(pkt)


@pytest.mark.parametrize("fastpath", [False, True], ids=["reference", "fastpath"])
def test_ecmp_seed_change_invalidates_the_route_memo(fastpath):
    sim = Simulator()
    sw = _ecmp_switch(sim, 3)
    if fastpath:
        FastPath.install(sim)
    pkts = _flows(20)
    before = [sw.select_port(p) for p in pkts]
    sw.ecmp_seed = 1
    after = [sw.select_port(p) for p in pkts]
    # The new seed re-spreads the flows; none may keep a stale port.
    assert after != before
    _assert_memo_matches_fresh_walk(sw, pkts)


def test_belief_flip_mid_run_changes_the_memoized_answer():
    sim = Simulator()
    sw = _ecmp_switch(sim, 2)
    pkts = _flows(20)
    first = [sw.select_port(p) for p in pkts]
    assert sw.ports[0] in first
    sw.set_port_belief(sw.ports[0], False)
    assert all(sw.select_port(p) is sw.ports[1] for p in pkts)
    _assert_memo_matches_fresh_walk(sw, pkts)
    sw.set_port_belief(sw.ports[0], True)
    assert [sw.select_port(p) for p in pkts] == first


def test_route_added_mid_run_changes_the_memoized_answer():
    sim = Simulator()
    sw = _ecmp_switch(sim, 2)
    narrow = SinkNode(sim, "narrow")
    Link(sim, sw.new_port(), narrow.new_port())
    dst = ip_aton("10.0.1.5")
    pkts = _flows(10, dst=dst)
    assert all(sw.select_port(p) is not sw.ports[2] for p in pkts)
    sw.table.add(ip_aton("10.0.1.0"), 24, [sw.ports[2]])
    assert all(sw.select_port(p) is sw.ports[2] for p in pkts)
    _assert_memo_matches_fresh_walk(sw, pkts)


def test_drops_are_never_memoized_and_count_every_packet():
    sim = Simulator()
    sw = L3Switch(sim, "sw")
    Link(sim, sw.new_port(), SinkNode(sim, "a").new_port())
    sw.table.add(ip_aton("10.0.0.0"), 8, [sw.ports[0]])
    unrouted = Packet.udp(1, ip_aton("9.9.9.9"), 5, 6)
    for _ in range(5):
        assert sw.select_port(unrouted) is None
    assert sw.dropped_no_route == 5
    assert sim.metrics.counter("route.drops.no_route").value == 5

    sw.set_port_belief(sw.ports[0], False)
    routed = Packet.udp(1, ip_aton("10.1.2.3"), 5, 6)
    for _ in range(4):
        assert sw.select_port(routed) is None
    assert sw.dropped_no_next_hop == 4
    assert sim.metrics.counter("route.drops.no_next_hop").value == 4
    assert sw._route_memo == {}
    # Once the next hop is believed up again, the same flow routes.
    sw.set_port_belief(sw.ports[0], True)
    assert sw.select_port(routed) is sw.ports[0]


def test_route_memo_capacity_flush_keeps_it_bounded(monkeypatch):
    monkeypatch.setattr(constants, "MEMO_CAP", 4)
    sim = Simulator()
    sw = _ecmp_switch(sim, 3)
    pkts = _flows(30)
    for pkt in pkts:
        sw.select_port(pkt)
        assert 1 <= len(sw._route_memo) <= 4
    _assert_memo_matches_fresh_walk(sw, pkts)
