"""The benchmark's four workloads.

Each ``run_<workload>(seed, hooks, mode)`` builds its inputs from the
seed, runs them once through the program's public entry points, checks
the outputs, and returns plain data: set-up and run timestamps, packet
and delivery counts, per-packet simulated latencies, the correctness
checks, the exact counts, and the program's own metric snapshot. The
caller (``rep.py``) turns that into metrics.

Traffic is scheduled up front, open-loop in simulated time; on the host
every workload is a batch job, so throughput is stated at a fixed input
size (the constants below).
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import resource
import sys
import time
from typing import Any, Dict, List, Optional

#: nat_read / nat_sharded input size: the nat_steady driver, scaled up.
NAT_FLOWS = 300
NAT_PACKETS_PER_FLOW = 150
NAT_PARAMS = {"flows": NAT_FLOWS, "packets_per_flow": NAT_PACKETS_PER_FLOW}
#: Receiving port of the nat_steady traffic on the external host.
NAT_DPORT = 7777

#: counter_write input size: flows x packets, each packet one write.
COUNTER_FLOWS = 20
COUNTER_PACKETS_PER_FLOW = 300
COUNTER_GAP_US = 20.0
COUNTER_STAGGER_US = 37.0
#: Simulated time after the last send for the chain to drain.
COUNTER_DRAIN_US = 50_000.0
COUNTER_DPORT = 7777

#: chaos_fuzz: a fixed-seed budget of generated fault schedules. The
#: benchmark seed picks each schedule's simulator seed.
CHAOS_FUZZ_SEED = 5
CHAOS_SCHEDULES = 24

#: nat_sharded worker count (process mode).
SHARD_WORKERS = 2

#: Workloads that run in more than one process.
MULTI_PROCESS = ("nat_sharded",)


def peak_rss_mb(workers: int = 0) -> float:
    """Peak resident memory of this process plus ``workers`` times the
    largest peak among its finished child processes."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


class Deliveries:
    """One-way simulated latency from host send to delivery.

    The sending host's ``send`` is shadowed on the instance to number
    each packet in its IP identification field (which survives the
    piggyback round trip through the store, unlike the packet object)
    and stamp its send time; a handler bound with ``Host.bind`` on the
    receiving host records the delivery.
    """

    def __init__(self) -> None:
        self.sent_at: Dict[int, float] = {}
        self.latencies_us: List[float] = []
        self.delivered = 0
        self.unmatched = 0

    def attach(self, sim: Any, sender: Any, receiver: Any, port: int) -> None:
        send = sender.send
        sent_at = self.sent_at

        def stamped_send(pkt: Any, delay: float = 0.0) -> None:
            ident = len(sent_at)
            if ident > 0xFFFF:
                raise ValueError("more packets than IP identification values")
            pkt.ip.identification = ident
            sent_at[ident] = sim.now
            send(pkt, delay)

        def on_deliver(pkt: Any) -> None:
            self.delivered += 1
            at = sent_at.get(pkt.ip.identification)
            if at is None:
                self.unmatched += 1
            else:
                self.latencies_us.append(sim.now - at)

        sender.send = stamped_send
        receiver.bind(port, on_deliver)


def _counts(sim: Any) -> Dict[str, Any]:
    from repro.shard.merge import trace_digest

    return {
        "events": sim.events_executed,
        "records_emitted": sim.tracer.records_emitted,
        "trace_digest": trace_digest(sim.tracer.tail()),
    }


def _result(**fields: Any) -> Dict[str, Any]:
    out = {
        "latencies_us": [], "checks": {}, "extra": {}, "fastpath": None,
    }
    out.update(fields)
    return out


def _fastpath_stats(deployments: List[Any]) -> Optional[Dict[str, int]]:
    hits = misses = invalidations = 0
    seen = False
    for dep in deployments:
        fp = dep.sim.fastpath
        if fp is None:
            continue
        seen = True
        stats = fp.stats()
        hits += stats["flow_cache"]["hits"]
        misses += stats["flow_cache"]["misses"]
        invalidations += sum(stats["invalidations"].values())
    if not seen:
        return None
    return {"hits": hits, "misses": misses, "invalidations": invalidations}


# -- nat_read ------------------------------------------------------------------

def run_nat_read(seed: int, hooks: Any, mode: str) -> Dict[str, Any]:
    """RedPlane-NAT steady state, one process, reference path."""
    from repro.net.simulator import Simulator
    from repro.shard.scenarios import run_nat_steady

    deliveries = Deliveries()
    hooks.on_deploy = lambda dep: deliveries.attach(
        dep.sim, dep.bed.servers[0], dep.bed.externals[0], NAT_DPORT)
    sim = Simulator(seed=seed)
    out = run_nat_steady(sim, lambda until: sim.run(until=until),
                         fastpath=False, **NAT_PARAMS)
    run_end = time.perf_counter()
    rss = peak_rss_mb()
    sent = NAT_FLOWS * NAT_PACKETS_PER_FLOW
    return _result(
        run_start=hooks.first_run_at, run_end=run_end, peak_rss_mb=rss,
        sent=sent, delivered=deliveries.delivered,
        latencies_us=deliveries.latencies_us,
        checks={"translated_equals_sent": out["packets"] == sent,
                "every_packet_delivered": deliveries.delivered == sent,
                "every_delivery_matched": deliveries.unmatched == 0},
        counts=_counts(sim), metrics=[sim.metrics.snapshot()],
    )


# -- counter_write ---------------------------------------------------------------

def run_counter_write(seed: int, hooks: Any, mode: str) -> Dict[str, Any]:
    """Sync-Counter: every packet is a write replicated through the
    3-node chain. The seed picks the flows' source ports."""
    import repro
    from repro.apps.counter import SyncCounterApp
    from repro.net.packet import Packet
    from repro.net.simulator import Simulator

    rng = random.Random(f"perfbench-counter/{seed}")
    sports = rng.sample(range(1024, 65536), COUNTER_FLOWS)
    deliveries = Deliveries()
    sim = Simulator(seed=seed)
    dep = repro.deploy(sim, SyncCounterApp, chain_length=3)
    sender, receiver = dep.bed.externals[0], dep.bed.servers[0]
    deliveries.attach(sim, sender, receiver, COUNTER_DPORT)
    keys = []
    for f, sport in enumerate(sports):
        for p in range(COUNTER_PACKETS_PER_FLOW):
            pkt = Packet.udp(sender.ip, receiver.ip, sport, COUNTER_DPORT)
            if p == 0:
                keys.append(pkt.flow_key())
            sim.schedule_at(f * COUNTER_STAGGER_US + p * COUNTER_GAP_US,
                            sender.send, pkt)
    last_send = ((COUNTER_FLOWS - 1) * COUNTER_STAGGER_US
                 + (COUNTER_PACKETS_PER_FLOW - 1) * COUNTER_GAP_US)
    sim.run(until=last_send + COUNTER_DRAIN_US)
    run_end = time.perf_counter()
    rss = peak_rss_mb()

    sent = COUNTER_FLOWS * COUNTER_PACKETS_PER_FLOW
    # The final counter value of every flow, on every chain node.
    finals = [store.records[key].vals[0] if key in store.records else 0
              for store in dep.chains[0] for key in keys]
    return _result(
        run_start=hooks.first_run_at, run_end=run_end, peak_rss_mb=rss,
        sent=sent, delivered=deliveries.delivered,
        latencies_us=deliveries.latencies_us,
        checks={
            "final_count_equals_packets":
                all(v == COUNTER_PACKETS_PER_FLOW for v in finals)
                and sum(finals) == len(dep.chains[0]) * sent,
            "every_packet_delivered": deliveries.delivered == sent,
            "every_delivery_matched": deliveries.unmatched == 0,
        },
        counts=_counts(sim), metrics=[sim.metrics.snapshot()],
    )


# -- chaos_fuzz ------------------------------------------------------------------

def chaos_specs(seed: int) -> List[Any]:
    """The fixed fuzz budget, with simulator seeds drawn from ``seed``."""
    from repro.chaos.fuzz import generate_spec

    specs = []
    for index in range(CHAOS_SCHEDULES):
        spec = generate_spec(CHAOS_FUZZ_SEED, index)
        sim_seed = random.Random(
            f"perfbench-chaos/{seed}/{index}").randint(0, 2**31 - 1)
        specs.append(dataclasses.replace(spec, sim_seed=sim_seed))
    return specs


def run_chaos_fuzz(seed: int, hooks: Any, mode: str) -> Dict[str, Any]:
    """Generated fault schedules under the invariant monitor and the
    linearizability check, one ``run_spec`` call each (a violation is a
    failure here, never a shrink)."""
    from repro.chaos.fuzz import run_spec
    from repro.chaos.runner import _CLEAR_KINDS

    specs = chaos_specs(seed)
    sent = delivered = faults = failed = 0
    latencies: List[float] = []
    recovery: List[float] = []
    events = records = 0
    digests = hashlib.sha256()
    snapshots = []
    for spec in specs:
        result = run_spec(spec)
        report = result.report
        ok = (report["verdict"] == "PASS" and report["linearizable"] is True
              and report["invariants"]["held"] is True)
        failed += 0 if ok else 1
        sent += report["traffic"]["sent"]
        workload = result.workload
        delivered += workload.delivered
        for ident, (_value, at) in workload.outputs.items():
            latencies.append(at - (workload.start_us + ident * workload.gap_us))
        times = workload.delivery_times()
        for fault in result.schedule.log:
            if fault.kind in _CLEAR_KINDS:
                continue
            faults += 1
            after = [t for t in times if t > fault.time_us]
            if after:
                recovery.append(after[0] - fault.time_us)
        counts = _counts(workload.deployment.sim)
        events += counts["events"]
        records += counts["records_emitted"]
        digests.update(counts["trace_digest"].encode())
        snapshots.append(result.metrics.snapshot())
        del result, workload
    run_end = time.perf_counter()
    rss = peak_rss_mb()
    return _result(
        run_start=hooks.first_run_at, run_end=run_end, peak_rss_mb=rss,
        sent=sent, delivered=delivered, latencies_us=latencies,
        checks={"schedules_pass": failed == 0},
        attempted=len(specs), failed=failed,
        counts={"events": events, "records_emitted": records,
                "trace_digest": digests.hexdigest()},
        metrics=snapshots,
        extra={"schedules": len(specs), "faults_injected": faults,
               "recovery_latencies_us": recovery},
    )


# -- nat_sharded -----------------------------------------------------------------

def run_nat_sharded(seed: int, hooks: Any, mode: str) -> Dict[str, Any]:
    """nat_read's inputs, sharded over 2 workers with fastpath and capture
    on, checked against the single-process reference run.

    ``mode="inline"`` runs the shards in this process (the traced layer
    split); otherwise they run as spawned worker processes.
    """
    from repro.shard.merge import identity_report
    from repro.shard.runner import resolve, run_reference, run_sharded

    resolve_start = time.perf_counter()
    config = resolve("nat_steady", SHARD_WORKERS, seed=seed, fastpath=True,
                     capture=True, params=NAT_PARAMS)
    run_start = time.perf_counter()
    hooks.keep_deployments = mode == "inline"
    merged = run_sharded(config, mode="inline" if mode == "inline"
                         else "process")
    run_end = time.perf_counter()
    rss = peak_rss_mb(SHARD_WORKERS if mode != "inline" else 0)
    fastpath = _fastpath_stats(hooks.deployments)
    hooks.keep_deployments = False

    # The single-process reference run on the reference path; its
    # delivery recorder gives the simulated latencies, which the
    # identity check below proves the sharded run reproduces.
    deliveries = Deliveries()
    hooks.on_deploy = lambda dep: deliveries.attach(
        dep.sim, dep.bed.servers[0], dep.bed.externals[0], NAT_DPORT)
    ref_config = resolve("nat_steady", SHARD_WORKERS, seed=seed,
                         fastpath=False, capture=True, conformance=False,
                         params=NAT_PARAMS)
    reference = run_reference(ref_config)
    hooks.on_deploy = None
    report = identity_report(reference, merged)
    report["rng_silent"] = merged["rng_draws"] == 0
    sent = NAT_FLOWS * NAT_PACKETS_PER_FLOW
    report["translated_equals_sent"] = merged["extra"]["packets"] == sent
    checks = {f"identity.{k}": bool(v) for k, v in report.items()}
    checks["every_packet_delivered"] = deliveries.delivered == sent
    checks["every_delivery_matched"] = deliveries.unmatched == 0
    return _result(
        run_start=run_start, run_end=run_end, peak_rss_mb=rss,
        sent=sent, delivered=deliveries.delivered,
        latencies_us=deliveries.latencies_us, checks=checks,
        counts={"events": merged["events"],
                "records_emitted": merged["records_emitted"],
                "trace_digest": merged["trace_digest"]},
        metrics=[merged["metrics"]], fastpath=fastpath,
        extra={"resolve_s": run_start - resolve_start,
               "critical_path_s": merged["wall_s_max_shard"],
               "wall_s_per_shard": merged["wall_s_per_shard"]},
    )


RUNNERS = {
    "nat_read": run_nat_read,
    "counter_write": run_counter_write,
    "chaos_fuzz": run_chaos_fuzz,
    "nat_sharded": run_nat_sharded,
}
WORKLOADS = tuple(RUNNERS)


def host_info() -> Dict[str, Any]:
    """The host every result records."""
    import multiprocessing
    import os
    import platform

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "default_start_method":
            multiprocessing.get_start_method(allow_none=True)
            or multiprocessing.get_context().get_start_method(),
        "shard_start_method": "spawn",
        "multi_process_workloads": list(MULTI_PROCESS),
    }
