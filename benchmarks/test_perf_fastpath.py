"""Fast-path performance gate (wall clock, not a paper figure).

Runs the NAT steady-state scenario (see :mod:`repro.fastpath.bench`)
two ways — reference path and fast path — asserts both produce
bit-identical results (events, trace ring, metrics), and records
throughput in ``BENCH_fastpath.json`` at the repository root.

The headline gate: fast-path packets/s must be **>= 10x** the committed
``redplane_pipeline`` baseline in ``BENCH_eventloop.json`` (the
pre-fast-path event loop). The same-scenario on/off ratio is also
recorded but is *not* the gate — under the bit-identity contract it is
bounded by the irreducible link/event layer (docs/PERFORMANCE.md).

Wall-clock numbers are machine-dependent: each configuration takes the
best of two runs (standard wall-clock practice — the minimum is the run
least disturbed by the machine), and identity is asserted on *every*
run, not just the timed best.
"""

from __future__ import annotations

import json
import os

from repro.fastpath.bench import (
    committed_baseline_pps,
    identity_report,
    run_scenario,
)

RESULTS_PATH = os.path.normpath(
    os.path.join(os.path.dirname(__file__), "..", "BENCH_fastpath.json")
)

#: Wall-clock trials per configuration; best (max pps) is recorded.
TRIALS = 2
#: The tentpole gate: fast-path pps over the committed baseline pps.
TARGET_SPEEDUP = 10.0


def _best_of(trials: int, **kwargs) -> dict:
    runs = [run_scenario(**kwargs) for _ in range(trials)]
    best = max(runs, key=lambda r: r["packets_per_s"])
    # Every trial of one configuration must agree with itself on the
    # deterministic axes; catching a flapping digest here means the
    # scenario itself went nondeterministic.
    for run in runs[1:]:
        assert identity_report(runs[0], run)["trace"], \
            "scenario is nondeterministic across identical runs"
    return best


def test_perf_fastpath(run_once):
    def experiment():
        off = _best_of(TRIALS, fastpath=False)
        on_heap = _best_of(TRIALS, fastpath=True)
        return off, on_heap

    off, on_heap = run_once(experiment)

    # Identity first: throughput of a run that diverged is meaningless.
    report = identity_report(off, on_heap)
    assert all(report.values()), \
        f"fastpath diverged from reference: {report}"

    baseline = committed_baseline_pps()
    results = {
        "baseline_committed_pps": baseline,
        "scenario": {k: off[k] for k in
                     ("flows", "packets_per_flow", "seed", "packets")},
        "reference": _public(off),
        "fastpath_heap": _public(on_heap),
        "speedup_vs_committed": on_heap["packets_per_s"] / baseline,
        "speedup_same_scenario":
            on_heap["packets_per_s"] / off["packets_per_s"],
        "identity": identity_report(off, on_heap),
        "flow_cache": on_heap["fastpath_stats"]["flow_cache"],
        "invalidations": on_heap["fastpath_stats"]["invalidations"],
    }
    with open(RESULTS_PATH, "w") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
        fh.write("\n")

    cache = results["flow_cache"]
    print(f"\nfast-path benchmark (wall clock; see {RESULTS_PATH}):")
    print(f"  reference   {off['packets_per_s']:>10.1f} pkt/s")
    print(f"  fast (heap) {on_heap['packets_per_s']:>10.1f} pkt/s   "
          f"{results['speedup_vs_committed']:.2f}x vs committed "
          f"{baseline:.1f}, {results['speedup_same_scenario']:.2f}x "
          f"same-scenario")
    print(f"  flow cache  {cache['hits']} hits / {cache['misses']} misses")

    # Sanity: the cache actually carried the steady state.
    assert cache["hits"] > 10 * cache["misses"]
    # The tentpole gate.
    assert results["speedup_vs_committed"] >= TARGET_SPEEDUP, (
        f"fast path reached {results['speedup_vs_committed']:.2f}x of the "
        f"committed baseline ({baseline:.1f} pkt/s); the gate is "
        f"{TARGET_SPEEDUP}x"
    )


def _public(run: dict) -> dict:
    """The fields worth committing (digests/metrics stay out of the JSON)."""
    return {k: run[k] for k in
            ("fastpath", "packets", "events", "wall_s", "packets_per_s")}
