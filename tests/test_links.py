"""Unit tests for links, ports, and nodes."""

import pytest

from repro.net import constants
from repro.net.links import Link, LinkImpairment, Node, SinkNode
from repro.net.packet import IPv4Header, Packet
from repro.net.simulator import Simulator


def make_pair(sim, **link_kwargs):
    a = SinkNode(sim, "a")
    b = SinkNode(sim, "b")
    link = Link(sim, a.new_port(), b.new_port(), **link_kwargs)
    return a, b, link


def test_delivery_and_latency():
    sim = Simulator()
    a, b, link = make_pair(sim, latency_us=5.0, bandwidth_gbps=100.0)
    pkt = Packet.udp(1, 2, 3, 4, payload=b"\x00" * 58)  # 100-byte frame
    a.ports[0].send(pkt)
    sim.run_until_idle()
    assert b.received == [pkt]
    # 5 us propagation + 100 B * 8 / 100 Gbps = 0.008 us serialization.
    assert b.receive_times[0] == pytest.approx(5.008)


def test_serialization_scales_with_size_and_bandwidth():
    sim = Simulator()
    _a, _b, link = make_pair(sim, bandwidth_gbps=10.0)
    small = Packet.udp(1, 2, 3, 4)
    big = Packet.udp(1, 2, 3, 4, payload=b"\x00" * 1400)
    assert link.serialization_delay_us(big) > link.serialization_delay_us(small)
    assert link.serialization_delay_us(big) == pytest.approx(
        big.byte_size() * 8 / 10_000
    )


def test_loss_rate_drops_packets():
    sim = Simulator(seed=1)
    a, b, link = make_pair(sim, loss_rate=0.5)
    for _ in range(400):
        a.ports[0].send(Packet.udp(1, 2, 3, 4))
    sim.run_until_idle()
    assert 100 < len(b.received) < 300
    dropped = sim.metrics.total("link.drops", reason="loss")
    assert dropped == 400 - len(b.received)


def test_zero_loss_delivers_everything():
    sim = Simulator()
    a, b, _link = make_pair(sim)
    for _ in range(50):
        a.ports[0].send(Packet.udp(1, 2, 3, 4))
    sim.run_until_idle()
    assert len(b.received) == 50


def test_reordering_delays_some_packets():
    sim = Simulator(seed=3)
    a, b, _link = make_pair(sim, reorder_rate=0.3)
    for i in range(200):
        pkt = Packet.udp(1, 2, 3, 4)
        pkt.meta["i"] = i
        a.ports[0].send(pkt)
    sim.run_until_idle()
    order = [pkt.meta["i"] for pkt in b.received]
    assert order != sorted(order)
    assert sorted(order) == list(range(200))


def test_down_link_drops():
    sim = Simulator()
    a, b, link = make_pair(sim)
    link.fail()
    a.ports[0].send(Packet.udp(1, 2, 3, 4))
    sim.run_until_idle()
    assert b.received == []
    link.recover()
    a.ports[0].send(Packet.udp(1, 2, 3, 4))
    sim.run_until_idle()
    assert len(b.received) == 1


def test_in_flight_packets_lost_when_link_fails():
    sim = Simulator()
    a, b, link = make_pair(sim, latency_us=10.0)
    a.ports[0].send(Packet.udp(1, 2, 3, 4))
    sim.schedule(1.0, link.fail)
    sim.run_until_idle()
    assert b.received == []


def test_failed_node_drops_deliveries():
    sim = Simulator()
    a, b, _link = make_pair(sim)
    b.fail()
    a.ports[0].send(Packet.udp(1, 2, 3, 4))
    sim.run_until_idle()
    assert b.received == []
    assert sim.metrics.total("link.drops", reason="node_failed") == 1


def test_tx_counters_and_taps():
    sim = Simulator()
    a, b, link = make_pair(sim)
    tapped = []
    link.taps.append(lambda pkt, port: tapped.append(pkt.byte_size()))
    pkt = Packet.udp(1, 2, 3, 4, payload=b"\x00" * 100)
    a.ports[0].send(pkt)
    sim.run_until_idle()
    assert link.total_tx_bytes() == pkt.byte_size()
    assert tapped == [pkt.byte_size()]


def test_blocked_direction_is_asymmetric():
    sim = Simulator()
    a, b, link = make_pair(sim)
    link.impair(LinkImpairment(blocked=True), direction=a.ports[0])
    a.ports[0].send(Packet.udp(1, 2, 3, 4))
    b.ports[0].send(Packet.udp(2, 1, 4, 3))
    sim.run_until_idle()
    assert b.received == []          # a -> b blackholed
    assert len(a.received) == 1      # b -> a untouched
    assert sim.metrics.total("link.drops", reason="partition") == 1
    assert link.impairment_of(a.ports[0]).blocked
    assert link.impairment_of(b.ports[0]) is None


def test_corruption_drops_at_receiver_after_spending_bandwidth():
    sim = Simulator(seed=9)
    a, b, link = make_pair(sim)
    link.impair(LinkImpairment(corrupt_rate=0.5))
    for _ in range(400):
        a.ports[0].send(Packet.udp(1, 2, 3, 4))
    sim.run_until_idle()
    assert 100 < len(b.received) < 300
    dropped = sim.metrics.total("link.drops", reason="corrupt")
    assert dropped == 400 - len(b.received)
    # Corrupted frames were serialized before dying: tx counts all 400.
    assert sim.metrics.total("link.tx_packets", link=link.name) == 400


def test_duplication_delivers_extra_copies():
    sim = Simulator(seed=4)
    a, b, link = make_pair(sim)
    link.impair(LinkImpairment(duplicate_rate=0.5))
    for _ in range(200):
        a.ports[0].send(Packet.udp(1, 2, 3, 4))
    sim.run_until_idle()
    duplicated = len(b.received) - 200
    assert 50 < duplicated < 150
    assert sim.metrics.total("link.duplicated") == duplicated


def test_jitter_adds_bounded_delay():
    sim = Simulator(seed=2)
    a, b, link = make_pair(sim, latency_us=5.0)
    link.impair(LinkImpairment(jitter_us=50.0))
    delays = []
    for _ in range(20):
        sent_at = sim.now
        a.ports[0].send(Packet.udp(1, 2, 3, 4))
        sim.run_until_idle()
        delays.append(b.receive_times[-1] - sent_at)
    base = 5.0  # propagation; serialization is negligible here
    assert all(base <= d <= base + 50.1 for d in delays)
    assert max(delays) - min(delays) > 1.0  # jitter actually varied


def test_degraded_bandwidth_slows_serialization():
    sim = Simulator()
    a, b, link = make_pair(sim, bandwidth_gbps=10.0, latency_us=0.0)
    pkt = Packet.udp(1, 2, 3, 4, payload=b"\x00" * 1400)
    a.ports[0].send(pkt.copy())
    sim.run_until_idle()
    healthy_time = b.receive_times[0]
    link.impair(LinkImpairment(bandwidth_scale=0.1))
    t0 = sim.now
    a.ports[0].send(pkt.copy())
    sim.run_until_idle()
    degraded_time = b.receive_times[1] - t0
    assert degraded_time == pytest.approx(healthy_time * 10.0)


def test_clear_impairments_restores_health():
    sim = Simulator()
    a, b, link = make_pair(sim)
    link.impair(LinkImpairment(blocked=True))
    a.ports[0].send(Packet.udp(1, 2, 3, 4))
    sim.run_until_idle()
    assert b.received == []
    link.clear_impairments()
    assert not link.impaired
    a.ports[0].send(Packet.udp(1, 2, 3, 4))
    sim.run_until_idle()
    assert len(b.received) == 1


def test_impairment_validates_parameters():
    with pytest.raises(ValueError):
        LinkImpairment(drop_rate=1.5)
    with pytest.raises(ValueError):
        LinkImpairment(corrupt_rate=-0.1)
    with pytest.raises(ValueError):
        LinkImpairment(jitter_us=-1.0)
    with pytest.raises(ValueError):
        LinkImpairment(bandwidth_scale=0.0)
    assert LinkImpairment().describe() == "healthy"
    assert "blocked" in LinkImpairment(blocked=True).describe()


def test_port_cannot_have_two_links():
    sim = Simulator()
    a = SinkNode(sim, "a")
    b = SinkNode(sim, "b")
    c = SinkNode(sim, "c")
    port = a.new_port()
    Link(sim, port, b.new_port())
    with pytest.raises(RuntimeError):
        Link(sim, port, c.new_port())


def test_unattached_port_send_raises():
    sim = Simulator()
    a = SinkNode(sim, "a")
    port = a.new_port()
    with pytest.raises(RuntimeError):
        port.send(Packet.udp(1, 2, 3, 4))


def test_base_node_receive_not_implemented():
    sim = Simulator()
    node = Node(sim, "n")
    with pytest.raises(NotImplementedError):
        node.receive(Packet.udp(1, 2, 3, 4), None)


@pytest.mark.parametrize("make", [
    lambda: Packet.udp(0x0A000001, 0x0A000002, 5000, 7777),
    lambda: Packet.tcp(0x0A000001, 0x0A000002, 40000, 80),
    lambda: Packet(ip=IPv4Header(src=0x0A000001, dst=0x0A000002, proto=1)),
], ids=["udp", "tcp", "ip_only"])
def test_flow_tag_memo_matches_the_flow_key_string(make):
    sim = Simulator()
    first = make()
    assert sim.flow_tag(first) == str(first.flow_key())
    # A fresh packet object of the same flow is served from the memo.
    again = make()
    assert sim.flow_tag(again) == str(again.flow_key())
    assert len(sim._flow_tags) == 1


def test_flow_tag_memo_capacity_flush_keeps_it_bounded(monkeypatch):
    monkeypatch.setattr(constants, "MEMO_CAP", 3)
    sim = Simulator()
    for sport in range(10):
        pkt = Packet.udp(1, 2, sport, 9)
        assert sim.flow_tag(pkt) == str(pkt.flow_key())
        assert 1 <= len(sim._flow_tags) <= 3


@pytest.mark.parametrize("has_ip", [True, False], ids=["ip", "non_ip"])
@pytest.mark.parametrize("parent", [None, 99], ids=["root", "child"])
def test_send_record_field_order(has_ip, parent):
    sim = Simulator()
    a, b, link = make_pair(sim)
    pkt = Packet.udp(0x0A000001, 0x0A000002, 5000, 7777) if has_ip else Packet()
    if parent is not None:
        pkt.meta["parent_uid"] = parent
    a.ports[0].send(pkt)
    sim.run_until_idle()
    (send,) = sim.tracer.records_of("packet.send")
    expected = {"link": link.name, "dir": "a->b", "bytes": pkt.byte_size(),
                "uid": 1, "kind": "app"}
    if has_ip:
        expected["flow"] = str(pkt.flow_key())
    if parent is not None:
        expected["parent"] = parent
    assert list(send.fields.items()) == list(expected.items())
