"""Million-flow scaling bench: the BENCH_shard.json producer.

The workload is the CDN-edge campaign of ``examples/million_flow_campaign.py``
made shard-disciplined: a Zipf-popularity packet stream over a huge
distinct-flow population through RedPlane-NAT, periodic control-plane
reclamation of expired flow slots, and one scripted mid-campaign
failover. Three changes against the example make it shardable:

* every injection root carries its :class:`~repro.net.packet.Packet`
  (the admission filter keys flow ownership off the root's arguments);
* the failover names its victim switch explicitly instead of picking
  "the engine with the most packets" (a flow-population-dependent choice
  that would diverge across shards);
* the flow population is *streamed*: packets draw their flow rank
  through an analytic inverse-CDF Zipf sampler (O(1) per draw, no
  cumulative-mass table), and injections are scheduled in bounded
  batches between ``pace()`` calls, so neither a 10M-entry table nor a
  10M-event heap ever materializes.

Scaling methodology (this container pins the suite to few cores, often
one): the committed shard plan proves the flow partition has an empty
cross-shard boundary set, so shards never wait on each other and each
shard's *isolated* wall time is an honest stand-in for a dedicated
core. The curve therefore reports **critical-path throughput** —
``packets / max(per-shard wall)`` — alongside the raw sequential walls
it was derived from; both numbers and the cpu count are recorded so the
reader can judge the claim.
"""

from __future__ import annotations

import json
import os
import random
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.telemetry import ScopedTimer

#: Zipf exponent (matches examples/million_flow_campaign.py).
ZIPF_S = 1.05
#: Lease tuning: head flows renew, tail flows expire and recycle SRAM.
LEASE_US = 400_000.0
RECLAIM_EVERY_US = 800_000.0
SPACING_US = 32.0  # paced to the 88 us serial control-plane install cost
#: The scripted mid-campaign victim (ECMP spreads flows over both agg
#: switches; failing either one exercises migration the same way).
MF_FAIL_SWITCH = "agg1"
#: Injections scheduled per driver batch: bounds the event heap.
MF_BATCH = 4096

#: Default campaign shape for the committed scaling curve.
DEFAULT_PACKETS = 130_000
DEFAULT_POPULATION = 1_000_000
#: Draw-stream seed (independent of the simulator seed; the draw RNG
#: lives in the driver, runs in lockstep on every shard, and never
#: touches ``sim.rng``).
DRAW_SEED = 24

BENCH_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))),
    "BENCH_shard.json",
)


def zipf_rank(u: float, population: int, s: float = ZIPF_S) -> int:
    """Analytic inverse-CDF Zipf: map uniform ``u`` to a 1-based rank.

    Continuous bounded-Pareto approximation of the zeta distribution —
    O(1) per draw and streamable, unlike bisection over a cumulative
    mass table (which materializes ``population`` floats up front).
    Exact enough for a popularity workload: the head ranks keep their
    mass within a fraction of a percent of the discrete law.
    """
    if population < 1:
        raise ValueError("population must be >= 1")
    if s == 1.0:
        rank = int(population ** u)
    else:
        rank = int(
            (u * (population ** (1.0 - s) - 1.0) + 1.0) ** (1.0 / (1.0 - s))
        )
    return min(max(rank, 1), population)


def flow_ports(flow_id: int) -> tuple:
    """Distinct (sport, dport) per flow rank — millions of 5-tuples."""
    return 2000 + flow_id % 60000, 1000 + flow_id // 60000


def run_million_flow_scenario(
    sim: Any,
    pace: Callable[[float], None],
    fastpath: bool = False,
    packets: int = DEFAULT_PACKETS,
    population: int = DEFAULT_POPULATION,
    fail_switch: Optional[str] = MF_FAIL_SWITCH,
    batch: int = MF_BATCH,
) -> Dict[str, Any]:
    """The shard-disciplined million-flow campaign driver."""
    from repro import RedPlaneConfig, deploy
    from repro.apps.nat import NatApp, install_nat_routes
    from repro.net.packet import Packet

    dep = deploy(sim, NatApp, config=RedPlaneConfig(
        lease_period_us=LEASE_US,
        renew_interval_us=LEASE_US / 2,
        max_flows=65_536,
        record_history=False,
    ))
    install_nat_routes(dep.bed)
    if fastpath:
        from repro.fastpath.runtime import FastPath

        FastPath.install(sim)
    sender = dep.bed.servers[0]
    dst_ip = dep.bed.externals[0].ip

    t_traffic_end = packets * SPACING_US
    t_end = t_traffic_end + 3 * LEASE_US
    t_fail = t_traffic_end / 2.0 if fail_switch else None

    def reclaim() -> None:
        freed = sum(e.reclaim_idle_flows() for e in dep.engines.values())
        if freed:
            sim.count("example.reclaimed", freed)  # repro: noqa[RT304] -- campaign-local bookkeeping counter shared with examples/million_flow_campaign.py
        if sim.now < t_end:
            sim.schedule(RECLAIM_EVERY_US, reclaim)

    sim.schedule_at(RECLAIM_EVERY_US, reclaim)

    # Stream the draw sequence: one uniform draw per packet, scheduled
    # in bounded batches with a pace() between them. The driver runs in
    # lockstep on every shard, so each shard sees the identical stream
    # and the admission filter picks its own flows out of it.
    draws = random.Random(DRAW_SEED)
    failed = False
    sent = 0
    while sent < packets:
        batch_end = min(sent + batch, packets)
        for i in range(sent, batch_end):
            when = i * SPACING_US
            if t_fail is not None and not failed and when >= t_fail:
                # Reach the failover point before injecting past it.
                pace(t_fail)
                dep.bed.topology.fail_node(
                    dep.engines[fail_switch].switch,
                    detect_delay_us=25_000.0,
                )
                failed = True
            rank = zipf_rank(draws.random(), population)
            sport, dport = flow_ports(rank)
            sim.schedule_at(
                when, sender.send,
                Packet.udp(sender.ip, dst_ip, sport, dport),
            )
        sent = batch_end
        pace(sent * SPACING_US)
    if t_fail is not None and not failed:
        pace(t_fail)
        dep.bed.topology.fail_node(
            dep.engines[fail_switch].switch, detect_delay_us=25_000.0,
        )
    pace(t_end)

    apps = {id(e.app): e.app for e in dep.engines.values()}
    translated = sum(a.translated_out for a in apps.values())
    return {
        "packets": packets,
        "population": population,
        "translated": translated,
        "reclaimed": int(sim.metrics.value("example.reclaimed")),
    }


# -- scaling curve ------------------------------------------------------------


def bench_point(
    workers: int,
    packets: int = DEFAULT_PACKETS,
    population: int = DEFAULT_POPULATION,
    fastpath: bool = True,
    heartbeat_dir: Optional[str] = None,
) -> Dict[str, Any]:
    """One point of the scaling curve: a capture-off sharded run."""
    from repro.shard.runner import resolve, run_sharded

    config = resolve(
        "million_flow", workers, capture=False, fastpath=fastpath,
        heartbeat_dir=heartbeat_dir,
        params={"packets": packets, "population": population},
    )
    with ScopedTimer("shard_bench_total") as timer:
        merged = run_sharded(config, mode="inline")
    total_wall = timer.elapsed_s
    max_shard = merged["wall_s_max_shard"]
    return {
        "workers": workers,
        "packets": packets,
        "population": population,
        "fastpath": fastpath,
        "events": merged["events"],
        "flows_injected": merged["flows_injected"],
        "flows_per_shard": merged["flows_per_shard"],
        "translated": (merged.get("extra") or {}).get("translated"),
        "wall_s_per_shard": merged["wall_s_per_shard"],
        "wall_s_max_shard": max_shard,
        "wall_s_ghost": merged["wall_s_ghost"],
        "wall_s_total_sequential": total_wall,
        "pps_critical_path": packets / max_shard if max_shard else 0.0,
    }


def run_scaling_curve(
    workers_list: Sequence[int] = (1, 2, 4, 8),
    packets: int = DEFAULT_PACKETS,
    population: int = DEFAULT_POPULATION,
    fastpath: bool = True,
    progress: Optional[Callable[[str], None]] = None,
) -> List[Dict[str, Any]]:
    """Run the worker-count sweep; annotate speedups against 1 worker."""
    curve: List[Dict[str, Any]] = []
    for workers in workers_list:
        if progress:
            progress(f"workers={workers} packets={packets:,} "
                     f"population={population:,} ...")
        point = bench_point(
            workers, packets=packets, population=population,
            fastpath=fastpath,
        )
        curve.append(point)
        if progress:
            progress(f"workers={workers}: critical-path "
                     f"{point['pps_critical_path']:.0f} pps "
                     f"(max shard {point['wall_s_max_shard']:.2f}s)")
    base = curve[0]["pps_critical_path"]
    for point in curve:
        point["speedup_vs_1_worker"] = (
            point["pps_critical_path"] / base if base else 0.0
        )
    return curve


def bench_payload(
    curve: List[Dict[str, Any]],
    ten_million: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    payload: Dict[str, Any] = {
        "format": 1,
        "cpus": os.cpu_count(),
        "methodology": (
            "critical-path throughput: shards run sequentially in one "
            "process; pps = packets / max(per-shard isolated wall). "
            "Honest on a pinned-cpu container because the committed "
            "shard plan proves the boundary set empty (no shard ever "
            "waits on another); wall_s_total_sequential is the raw "
            "sequential cost for comparison."
        ),
        "curve": curve,
    }
    if ten_million is not None:
        payload["ten_million"] = ten_million
    return payload


def write_bench(path: str = BENCH_PATH, **payload: Any) -> None:
    existing: Dict[str, Any] = {}
    if os.path.exists(path):
        with open(path) as fh:
            existing = json.load(fh)
    existing.update(payload)
    with open(path, "w") as fh:
        json.dump(existing, fh, indent=2, sort_keys=True)
        fh.write("\n")
