"""Shard-runnable scenario drivers.

A scenario here is the exact same campaign whether it runs as the
single-process reference, as one shard of N, or as the ghost: one
deterministic driver function, parameterized only by which simulator it
gets. That is what makes the identity contract meaningful — the
reference and the shards execute *the same code*, differing only in
which flow-injection roots the shard admission filter lets through.

Driver discipline (enforced by construction, documented in
docs/SHARDING.md):

* every flow injection is scheduled with the :class:`Packet` in the
  root event's arguments, so the admission filter can key it;
* all phase boundaries are *absolute* simulated times — never
  ``sim.now + delta`` after a drain, because ``sim.now`` after an idle
  drain depends on which flows the shard owns;
* failures name their target switch explicitly — never "the engine
  with the most packets", which is flow-population-dependent;
* nothing after setup draws from ``sim.rng`` (the recorder counts
  draws; identity runs assert zero).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

#: Quickstart phase boundaries (absolute simulated microseconds).
QS_PHASE1_END = 100_000.0
QS_FAIL_RECOVER_US = 400_000.0
QS_PHASE2_START = QS_PHASE1_END + QS_FAIL_RECOVER_US
QS_END = 700_000.0
#: The switch carrying the quickstart flow (ECMP is deterministic for
#: the fixed 5-tuple; scripted so every shard fails the same node).
QS_FAIL_SWITCH = "agg2"

#: NAT steady-state scenario shape (the fast-path benchmark workload,
#: with the packet in the injection root's arguments).
NAT_FLOWS = 12
NAT_PACKETS_PER_FLOW = 40
NAT_SPACING_US = 2.0
#: Flow starts are staggered: a new NAT flow's first packet triggers a
#: control-plane table install, and the switch CPU is a *serialized*
#: resource (``constants.CONTROL_PLANE_OP_US`` = 88us per op). Starts
#: spaced wider than the install pipeline keep the CPU queue empty at
#: every submit, so per-flow timing stays interleaving-independent —
#: the property the bit-identity contract needs. Overlapping starts are
#: genuine cross-flow coupling, and the identity gate fails honestly.
NAT_FLOW_STAGGER_US = 400.0
NAT_END = 150_000.0
#: The switch carrying the single nat_quickstart flow (deterministic
#: ECMP for the fixed 5-tuple; scripted so every shard fails the same
#: node).
NATQS_FAIL_SWITCH = "agg2"

#: Seed every chaos campaign runs under (the chaos CLI default).
CHAOS_SEED = 42


@dataclass
class Scenario:
    """One registered scenario: the app whose shard plan governs it,
    its default seed, and the driver function."""

    name: str
    app: str
    seed: int
    fn: Callable[..., Dict[str, Any]]
    params: Dict[str, Any] = field(default_factory=dict)


def run_quickstart(
    sim: Any,
    pace: Callable[[float], None],
    fastpath: bool = False,
    packets: int = 10,
) -> Dict[str, Any]:
    """The ``repro.tools run`` quickstart, shard-disciplined.

    One Sync-Counter flow, a scripted owner failover mid-run, a second
    burst after lease migration, resource gauges at the end.
    """
    from repro import deploy
    from repro.apps.counter import SyncCounterApp
    from repro.net.packet import Packet

    dep = deploy(sim, SyncCounterApp)
    if fastpath:
        from repro.fastpath.runtime import FastPath

        FastPath.install(sim)
    sender = dep.bed.externals[0]
    receiver = dep.bed.servers[0]

    for i in range(packets):
        sim.schedule_at(
            i * 200.0, sender.send,
            Packet.udp(sender.ip, receiver.ip, 5555, 7777),
        )
    pace(QS_PHASE1_END)

    dep.bed.topology.fail_node(dep.engines[QS_FAIL_SWITCH].switch)
    pace(QS_PHASE2_START)

    for i in range(packets):
        sim.schedule_at(
            QS_PHASE2_START + i * 200.0, sender.send,
            Packet.udp(sender.ip, receiver.ip, 5555, 7777),
        )
    pace(QS_END)

    for name in sorted(dep.engines):
        dep.engines[name].resource_usage()
    return {"packets": 2 * packets}


def run_nat_steady(
    sim: Any,
    pace: Callable[[float], None],
    fastpath: bool = False,
    flows: int = NAT_FLOWS,
    packets_per_flow: int = NAT_PACKETS_PER_FLOW,
) -> Dict[str, Any]:
    """RedPlane-NAT steady state (the fast-path benchmark workload)."""
    from repro import deploy
    from repro.apps.nat import NatApp, install_nat_routes
    from repro.net.packet import Packet

    dep = deploy(sim, NatApp)
    install_nat_routes(dep.bed)
    if fastpath:
        from repro.fastpath.runtime import FastPath

        FastPath.install(sim)
    sender = dep.bed.servers[0]
    dst_ip = dep.bed.externals[0].ip

    for f in range(flows):
        for p in range(packets_per_flow):
            sim.schedule_at(
                f * NAT_FLOW_STAGGER_US + p * NAT_SPACING_US,
                sender.send,
                Packet.udp(sender.ip, dst_ip, 5000 + f, 7777),
            )
    pace(NAT_END)

    apps = {id(e.app): e.app for e in dep.engines.values()}
    packets = sum(app.translated_out for app in apps.values())
    return {"packets": packets, "flows": flows}


def run_nat_quickstart(
    sim: Any,
    pace: Callable[[float], None],
    fastpath: bool = False,
    packets: int = 10,
) -> Dict[str, Any]:
    """The quickstart story on the NAT app: one translated flow, a
    scripted failover of the switch holding its translation entry, a
    second burst served after lease migration."""
    from repro import deploy
    from repro.apps.nat import NatApp, install_nat_routes
    from repro.net.packet import Packet

    dep = deploy(sim, NatApp)
    install_nat_routes(dep.bed)
    if fastpath:
        from repro.fastpath.runtime import FastPath

        FastPath.install(sim)
    sender = dep.bed.servers[0]
    dst_ip = dep.bed.externals[0].ip

    for i in range(packets):
        sim.schedule_at(
            i * 200.0, sender.send,
            Packet.udp(sender.ip, dst_ip, 5555, 7777),
        )
    pace(QS_PHASE1_END)

    dep.bed.topology.fail_node(dep.engines[NATQS_FAIL_SWITCH].switch)
    pace(QS_PHASE2_START)

    for i in range(packets):
        sim.schedule_at(
            QS_PHASE2_START + i * 200.0, sender.send,
            Packet.udp(sender.ip, dst_ip, 5555, 7777),
        )
    pace(QS_END)

    for name in sorted(dep.engines):
        dep.engines[name].resource_usage()
    apps = {id(e.app): e.app for e in dep.engines.values()}
    translated = sum(app.translated_out for app in apps.values())
    return {"packets": 2 * packets, "translated": translated}


def _make_chaos_runner(campaign_name: str) -> Callable[..., Dict[str, Any]]:
    def run_chaos(
        sim: Any,
        pace: Callable[[float], None],
        fastpath: bool = False,
    ) -> Dict[str, Any]:
        from repro.chaos.campaigns import CAMPAIGNS
        from repro.chaos.runner import run_campaign_result

        campaign = CAMPAIGNS[campaign_name]
        # The chaos runner owns its drive loop (absolute times
        # throughout), so ``pace`` goes unused.
        result = run_campaign_result(
            campaign,
            seed=CHAOS_SEED,
            fastpath=fastpath,
            sim_factory=lambda _seed: sim,
        )
        pace(sim.now)
        return {
            "campaign": campaign_name,
            "packets": result.workload.delivered,
            "verdict": result.report.get("verdict"),
        }

    return run_chaos


def get_scenario(name: str) -> Scenario:
    """Resolve a scenario by registry name (``chaos:<campaign>`` works
    for every registered chaos campaign)."""
    if name == "quickstart":
        return Scenario(name, app="sync_counter", seed=7, fn=run_quickstart)
    if name == "nat_quickstart":
        return Scenario(name, app="nat", seed=7, fn=run_nat_quickstart)
    if name == "nat_steady":
        return Scenario(name, app="nat", seed=5, fn=run_nat_steady)
    if name == "million_flow":
        from repro.shard.bench import run_million_flow_scenario

        return Scenario(name, app="nat", seed=23,
                        fn=run_million_flow_scenario)
    if name.startswith("chaos:"):
        campaign = name.split(":", 1)[1]
        from repro.chaos.campaigns import CAMPAIGNS

        if campaign not in CAMPAIGNS:
            raise KeyError(
                f"unknown chaos campaign {campaign!r}; have: "
                f"{', '.join(sorted(CAMPAIGNS))}"
            )
        # EchoCounterApp subclasses SyncCounterApp, so the committed
        # sync_counter plan governs its state partition.
        return Scenario(name, app="sync_counter", seed=CHAOS_SEED,
                        fn=_make_chaos_runner(campaign))
    raise KeyError(
        f"unknown scenario {name!r}; have: quickstart, nat_quickstart, "
        "nat_steady, million_flow, chaos:<campaign>"
    )


def scenario_names() -> list:
    """The fixed scenarios plus one entry per chaos campaign."""
    from repro.chaos.campaigns import CAMPAIGNS

    return ["quickstart", "nat_quickstart", "nat_steady", "million_flow"] + [
        f"chaos:{name}" for name in sorted(CAMPAIGNS)
    ]
