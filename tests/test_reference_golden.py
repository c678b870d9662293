"""Golden counts for the reference path (fast path off).

The fast path and the reference path share the route memo and the
flow-tag memo, so the on/off A/B in tests/test_fastpath.py cannot catch a
bug in either memo by itself. These pins can: each names the events
executed, the trace records emitted and the digest of the trace ring of
one fixed run, recorded before the memos moved onto the reference path.
"""

from __future__ import annotations

import pytest

from repro.net.simulator import Simulator
from repro.shard.merge import trace_digest
from repro.shard.scenarios import get_scenario

GOLDEN = [
    # RedPlane-NAT steady state: ECMP over many flows, reads under leases.
    ("nat_steady", {"flows": 20, "packets_per_flow": 50},
     21280, 19960,
     "ca29f08b90e1b107f1af327d11787ea0f64d9103172c180d3078aa707a913e34"),
    # Sync-Counter: replicated writes, a scripted owner failover and the
    # belief flips that reroute the flow afterwards.
    ("quickstart", {"packets": 25},
     1894, 1790,
     "61ca8ddcf77b6635462b12788face604d02e520dd09f352add65f04fe33faf0a"),
    ("chaos:single_failover", {},
     2835, 2416,
     "b5f4355967357a67de13fcb78594223089d25650686deb23e87debc148c80469"),
]


@pytest.mark.parametrize(
    "name,params,events,records,digest", GOLDEN,
    ids=[row[0] for row in GOLDEN])
def test_reference_path_counts_are_pinned(name, params, events, records,
                                          digest):
    scenario = get_scenario(name)
    sim = Simulator(seed=scenario.seed)
    scenario.fn(sim, lambda until: sim.run(until=until), fastpath=False,
                **params)
    assert sim.fastpath is None
    assert (sim.events_executed, sim.tracer.records_emitted) == (events,
                                                                 records)
    assert trace_digest(sim.tracer.tail()) == digest
