"""Compiled per-direction link lanes.

A lane is the fast path for one direction of one :class:`~repro.net.links.Link`.
It freezes the direction-invariant state at construction (direction
label, tx counter handles, destination port/node — all fixed for the
lifetime of the topology). The reference ``Link.transmit`` checks
impairment, loss, tap, reorder, and queue state one by one per packet,
though that state is almost always quiescent; a lane folds those checks
into a single guard: if the link is in *any* non-trivial condition (down,
lossy, tapped, reordering, queue-limited, or carrying an active
impairment), the lane refuses the packet and the reference path runs
untouched. Both paths share the simulator's flow-tag memo and write the
send record through :func:`repro.net.links.emit_send`.

Because the guard is checked before any side effect, and the healthy
path below replays the reference path's side effects exactly (same trace
records, same counters, same serialization arithmetic, same event
count), a run with lanes enabled is bit-identical to one without —
including RNG state, since a healthy link draws no randomness in either
path.

Batched same-edge delivery: when consecutive transmits on one lane land
at the *same* absolute time with no other event scheduled in between
(checked via ``sim.last_seq``), the packets join one delivery event
instead of one event each. The deliveries were already destined to fire
back to back in ``(time, seq)`` order, so coalescing them preserves
execution order exactly; only ``Simulator.events_executed`` shrinks.
"""

from __future__ import annotations

from repro.net.links import emit_send
from repro.telemetry import trace as tt


class Lane:
    """The compiled fast path for one (link, source-port) direction."""

    __slots__ = (
        "fp",
        "sim",
        "link",
        "src_port",
        "dst_port",
        "dst_node",
        "dir_name",
        "key",
        "emit",
        "inc_tx_bytes",
        "inc_tx_pkts",
        "batch",
        "batch_time",
        "batch_seq",
    )

    def __init__(self, fp, link, src_port):
        self.fp = fp
        self.sim = link.sim
        self.link = link
        self.src_port = src_port
        self.dst_port = link.other_end(src_port)
        self.dst_node = self.dst_port.node
        key = id(src_port)
        self.key = key
        self.dir_name = link._dir_names[key]
        self.emit = link.sim.tracer.emit
        self.inc_tx_bytes = link._ctr_tx_bytes[key].inc
        self.inc_tx_pkts = link._ctr_tx_packets[key].inc
        self.batch = None
        self.batch_time = -1.0
        self.batch_seq = -1

    def transmit(self, pkt) -> bool:
        """Try the fast path; ``False`` defers to the reference path."""
        link = self.link
        if (
            not link.up
            or link.loss_rate
            or link.reorder_rate
            or link.taps
            or link.queue_limit_bytes is not None
            or link._impairments.get(self.key) is not None
        ):
            return False
        sim = self.sim
        meta = pkt.meta
        uid = meta.get("uid")
        if uid is None:
            uid = meta["uid"] = sim.new_uid()
        flow = meta.get("flow_s")
        if flow is None and pkt.ip is not None:
            flow = meta["flow_s"] = sim.flow_tag(pkt)
        nbytes = pkt.byte_size()
        emit_send(sim.tracer, link.name, self.dir_name, nbytes, uid,
                  meta.get("rp_kind", "app"), flow, meta.get("parent_uid"))
        self.inc_tx_bytes(nbytes)
        self.inc_tx_pkts()
        now = sim.now
        ser_us = (nbytes * 8) / (link.bandwidth_gbps * 1000.0)
        busy = link._busy_until
        start = busy[self.key]
        if start < now:
            start = now
        busy[self.key] = start + ser_us
        when = now + ((start + ser_us - now) + link.latency_us)
        batch = self.batch
        if (
            batch is not None
            and when == self.batch_time
            and sim.last_seq == self.batch_seq
        ):
            # Coalesce: this delivery would have been the very next event
            # at the same instant anyway (no interloper since the batch
            # event was scheduled), so order is preserved exactly.
            batch.append(pkt)
            self.fp.batched_deliveries += 1
            return True
        batch = [pkt]
        event = sim.schedule_at(when, self._deliver_batch, batch)
        self.batch = batch
        self.batch_time = when
        self.batch_seq = event.seq
        return True

    def _deliver_batch(self, pkts) -> None:
        self.batch = None
        link = self.link
        node = self.dst_node
        emit = self.emit
        dst_port = self.dst_port
        for pkt in pkts:
            if not link.up:
                link._drop(pkt, self.src_port, "down")
                continue
            if node.failed:
                link._drop(pkt, self.src_port, "node_failed")
                continue
            emit(
                tt.PACKET_DELIVER,
                link=link.name,
                dir=self.dir_name,
                node=node.name,
                uid=pkt.meta.get("uid", 0),
            )
            node.receive(pkt, dst_port)
