"""The repository's benchmark: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py [--workload NAME|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Each repetition runs in a fresh interpreter (``rep.py``), so set-up
includes imports and peak RSS is per repetition. Repetitions repeat
until ``--seconds`` have passed (at least three), and every time metric
is the median over them. Every repetition checks the workload's
outputs; the exact counts (events, trace records emitted, trace digest)
and every ``sim_*`` metric must repeat exactly across the repetitions
of one invocation, traced or not. Each repetition runs under its own
``PYTHONHASHSEED`` (drawn from ``--seed`` and the repetition's number),
so that check also fails if set or dict order changes what the program
does; spawned shard workers inherit their repetition's hash seed.

``--trace 0`` prints every end-to-end metric of BENCHMARK.json;
``--trace 1`` alternates plain and traced repetitions and prints every
per-layer metric. The last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``); the full record,
host included, goes to ``.perfbench_out/results/``.

Exit status: 0 when every check passed, 1 when a check failed (the
result is still printed), 2 when the benchmark could not run at all
(nothing is printed on standard output then).
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

sys.path.insert(0, HERE)
import bench_workloads  # noqa: E402

#: Fewest plain repetitions (and traced rounds) per invocation.
MIN_REPS = 3
MIN_ROUNDS = 2
#: Hard ceiling on one repetition; a repetition normally takes seconds.
REP_TIMEOUT_S = 150.0

#: What each workload feeds the program, for the printed header.
INPUTS = {
    "nat_read": (
        f"{bench_workloads.NAT_FLOWS * bench_workloads.NAT_PACKETS_PER_FLOW:,}"
        f" packets ({bench_workloads.NAT_FLOWS} flows x "
        f"{bench_workloads.NAT_PACKETS_PER_FLOW}), nat_steady driver, one "
        "process, reference path"),
    "counter_write": (
        f"{bench_workloads.COUNTER_FLOWS * bench_workloads.COUNTER_PACKETS_PER_FLOW:,}"
        f" writes ({bench_workloads.COUNTER_FLOWS} flows x "
        f"{bench_workloads.COUNTER_PACKETS_PER_FLOW}), Sync-Counter, "
        "3-node chain, one process"),
    "chaos_fuzz": (
        f"{bench_workloads.CHAOS_SCHEDULES} generated fault schedules "
        f"(fuzz seed {bench_workloads.CHAOS_FUZZ_SEED}), one process"),
    "nat_sharded": (
        "nat_read's inputs, "
        f"{bench_workloads.SHARD_WORKERS} spawned shard workers, "
        "fastpath and capture on"),
}


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a failed check)."""


def load_spec() -> Dict[str, Any]:
    try:
        with open(SPEC_PATH) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {SPEC_PATH}: {exc}") from exc


def hash_seed(seed: int, rep: int) -> int:
    """The PYTHONHASHSEED of repetition ``rep`` of an invocation."""
    return random.Random(f"perfbench-hash/{seed}/{rep}").randrange(2**32)


def run_rep(workload: str, seed: int, mode: str, rep: int,
            spans: str = "") -> Dict[str, Any]:
    """One repetition in a fresh interpreter; its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "rep.py"),
           "--workload", workload, "--seed", str(seed), "--mode", mode]
    if spans:
        cmd += ["--spans", spans]
    hashed = hash_seed(seed, rep)
    env = dict(os.environ, PYTHONHASHSEED=str(hashed))
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The repetition leads its own process group (its shard workers
        # included): stop all of it, then reap.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload} ({mode}) exceeded {REP_TIMEOUT_S:.0f} s")
    if proc.returncode != 0:
        tail = "\n".join(err.strip().splitlines()[-15:])
        raise BenchError(
            f"{workload} ({mode}) exited with {proc.returncode}:\n{tail}")
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError) as exc:
        raise BenchError(f"{workload} ({mode}) printed no result") from exc
    result["hash_seed"] = hashed
    return result


def median_rep(reps: List[Dict[str, Any]], key: str) -> Dict[str, Any]:
    """The repetition holding the (lower) median of ``key``."""
    ordered = sorted(reps, key=lambda r: r[key])
    return ordered[(len(ordered) - 1) // 2]


def exact_signature(rep: Dict[str, Any]) -> str:
    """What must repeat exactly: the counts and every sim_* metric."""
    sims = {k: v for k, v in rep.items() if k.startswith("sim_")}
    return json.dumps([rep["counts"], sims, rep["sent"], rep["delivered"]],
                      sort_keys=True)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 spec: Dict[str, Any]) -> Dict[str, Any]:
    start = time.perf_counter()
    deadline = start + seconds
    plain: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    inline: List[Dict[str, Any]] = []
    sharded = workload == "nat_sharded"
    spans_dir = os.path.join(OUT_DIR, "spans")

    def start_rep(mode: str) -> Dict[str, Any]:
        spans = (os.path.join(spans_dir, f"{workload}-{mode}.spans")
                 if mode != "plain" else "")
        started = len(plain) + len(traced) + len(inline)
        return run_rep(workload, seed, mode, started, spans)

    while True:
        plain.append(start_rep("plain"))
        if trace:
            traced.append(start_rep("traced"))
            if sharded:
                inline.append(start_rep("inline"))
        enough = len(plain) >= (MIN_ROUNDS if trace else MIN_REPS)
        if enough and time.perf_counter() >= deadline:
            break
    elapsed = time.perf_counter() - start

    reps = plain + traced + inline
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    checks: Dict[str, bool] = {}
    for rep in reps:
        for name, ok in rep["checks"].items():
            checks[name] = checks.get(name, True) and ok
    # One more checked operation: exact counts repeat across repetitions
    # (neither tracing nor the hash seed may change what the program does).
    attempted += 1
    repeats = len({exact_signature(r) for r in reps}) == 1
    checks["exact_counts_repeat"] = repeats
    failed += 0 if repeats else 1

    if trace:
        metrics = per_layer_metrics(workload, plain, traced, inline, spec)
    else:
        metrics = end_to_end_metrics(plain, spec)
    return {
        "workload": workload,
        "inputs": INPUTS[workload],
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "elapsed_s": elapsed,
        "repetitions": {"plain": len(plain), "traced": len(traced),
                        "inline": len(inline)},
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "checks": checks,
        "counts": plain[0]["counts"],
        "latency_samples": plain[0]["latency_samples"],
        "metrics": metrics,
        "reps": reps,
    }


def end_to_end_metrics(plain: List[Dict[str, Any]],
                       spec: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    out = {}
    for entry in spec["end_to_end"]:
        name = entry["name"]
        out[name] = {"value": statistics.median([r[name] for r in plain]),
                     "unit": entry["unit"]}
    return out


def per_layer_metrics(workload: str, plain: List[Dict[str, Any]],
                      traced: List[Dict[str, Any]],
                      inline: List[Dict[str, Any]],
                      spec: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """The ledger of the median traced repetition (so its self times add
    up to its run_s exactly); for nat_sharded the layer split comes from
    the inline run and the shard.* rows from the process-mode run."""
    process = median_rep(traced, "run_s")["per_layer"]
    layers = median_rep(inline, "run_s")["per_layer"] if inline else process
    values = dict(layers)
    if inline:
        values.update({k: v for k, v in process.items()
                       if k.startswith("shard.") and k != "shard.self_s"})
    values["bench.tracing_overhead_s"] = (
        statistics.median([r["run_s"] for r in traced])
        - statistics.median([r["run_s"] for r in plain]))
    out = {}
    for entry in spec["per_layer"]:
        name = entry["name"]
        if name not in values:
            raise BenchError(f"{workload}: no value for per-layer {name}")
        out[name] = {"value": values[name], "unit": entry["unit"]}
    return out


def print_report(result: Dict[str, Any]) -> None:
    reps = result["repetitions"]
    print(f"{result['workload']}: {result['inputs']}; seed {result['seed']}, "
          f"{reps['plain']} plain / {reps['traced']} traced / "
          f"{reps['inline']} inline repetitions in "
          f"{result['elapsed_s']:.1f} s")
    counts = result["counts"]
    print(f"  exact counts: events={counts['events']} "
          f"records_emitted={counts['records_emitted']} "
          f"trace_digest={counts['trace_digest'][:16]}...")
    for name, m in result["metrics"].items():
        print(f"  {name:42s} {m['value']:>16.6g} {m['unit']}")
    bad = [name for name, ok in result["checks"].items() if not ok]
    print(f"  checks: {len(result['checks'])} kinds, "
          f"{'all passed' if not bad else 'FAILED: ' + ', '.join(bad)}; "
          f"failed_ratio {result['failed']}/{result['attempted']}")


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the benchmark and print its metrics.")
    parser.add_argument("--workload", default="all",
                        choices=("all",) + bench_workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        spec = load_spec()
        seconds = (args.seconds if args.seconds is not None
                   else float(spec["run_seconds"]))
        src = os.path.join(ROOT, "src")
        if not os.path.isdir(os.path.join(src, "repro")):
            raise BenchError(f"program sources not found under {src}")
        # Byte-compile once up front so no repetition pays for it.
        compileall.compile_dir(src, quiet=1)
        host = bench_workloads.host_info()
        print(f"host: nproc={host['nproc']} python={host['python']} "
              f"start_method={host['default_start_method']} "
              f"(shard workers: {host['shard_start_method']}); "
              "more than one process: "
              f"{', '.join(host['multi_process_workloads'])}")
        names = (bench_workloads.WORKLOADS if args.workload == "all"
                 else (args.workload,))
        results = []
        for name in names:
            result = run_workload(name, args.seed, seconds,
                                  bool(args.trace), spec)
            result["host"] = host
            print_report(result)
            results.append(result)
            path = os.path.join(
                OUT_DIR, "results",
                f"{name}-seed{args.seed}-trace{args.trace}.json")
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w") as fh:
                json.dump(result, fh, indent=1, sort_keys=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v
                   for r in results for k, v in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
