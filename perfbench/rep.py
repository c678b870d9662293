"""One repetition of one benchmark workload, in a fresh interpreter.

    python3 perfbench/rep.py --workload nat_read --seed 1 --mode plain

``run.py`` starts one of these per repetition, so every repetition pays
the program's imports (part of ``setup_s``) and has its own peak RSS.
Modes:

* ``plain``  -- no spans; the end-to-end metrics.
* ``traced`` -- layer spans on (``bench_trace``); the per-layer metrics.
* ``inline`` -- nat_sharded only: traced, with the shards run inline in
  this process, which is where the in-shard layer split comes from.

Prints one JSON object on its last line of standard output.
"""

import argparse
import json
import os
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: Slack for float rounding when checking that self times add up.
LEDGER_TOLERANCE_S = 1e-6


def percentiles(values, points):
    if len(values) < 2:
        return [float(values[0]) if values else 0.0 for _ in points]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return [cuts[p - 1] for p in points]


def total(snapshots, name):
    """Sum one counter over every label set and every snapshot."""
    prefix = name + "{"
    out = 0.0
    for snap in snapshots:
        for key, value in snap.get("counters", {}).items():
            if key == name or key.startswith(prefix):
                out += value
    return out


def ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(result, hooks, run_s):
    """Per-layer metrics of a traced repetition, and the ledger check."""
    from bench_trace import layer_of

    rec = hooks.recorder
    lo, hi = result["run_start"], result["run_end"]
    ledger = rec.ledger(lo, hi)
    layer_self = {}
    for name, row in ledger.items():
        layer = layer_of(name)
        layer_self[layer] = layer_self.get(layer, 0.0) + row["self_s"]
    top = rec.top_level_s(lo, hi)
    sim_self = (run_s - top) + layer_self.get("net.simulator", 0.0)
    others = sum(v for k, v in layer_self.items() if k != "net.simulator")
    residual = run_s - (others + sim_self)
    ledger_ok = (abs(residual) <= LEDGER_TOLERANCE_S
                 and run_s - top >= -LEDGER_TOLERANCE_S
                 and all(row["self_s"] >= -LEDGER_TOLERANCE_S
                         for row in ledger.values()))

    def calls(name):
        return ledger[name]["calls"]

    def whole(name):
        return ledger[name]["total_s"]

    snaps = result["metrics"]
    counts = result["counts"]
    events = counts["events"]
    writes = total(snaps, "redplane.writes_replicated")
    retrans = total(snaps, "redplane.retransmissions")
    processed = total(snaps, "store.requests_processed")
    wal = [n for n in ledger if layer_of(n) == "statestore.wal"]
    fp = result["fastpath"] or {"hits": 0, "misses": 0, "invalidations": 0}
    extra = result["extra"]
    chaos = "schedules" in extra
    metrics = {
        "net.simulator.events": events,
        "net.simulator.schedule_calls": calls("net.simulator.schedule_at"),
        "net.simulator.self_s": sim_self,
        "net.simulator.host_us_per_event": ratio(sim_self, events) * 1e6,
        "net.links.transmit_calls": calls("net.links.transmit"),
        "net.links.self_s": layer_self["net.links"],
        "net.links.drops": total(snaps, "link.drops")
        + total(snaps, "link.queue_drops"),
        "net.routing.receive_calls": calls("net.routing.receive"),
        "net.routing.self_s": layer_self["net.routing"],
        "net.hosts.receive_calls": calls("net.hosts.receive"),
        "net.hosts.self_s": layer_self["net.hosts"],
        "switch.asic.receive_calls": calls("switch.asic.receive"),
        "switch.asic.self_s": layer_self["switch.asic"],
        "switch.pipeline.run_calls": calls("switch.pipeline.run"),
        "switch.pipeline.self_s": layer_self["switch.pipeline"],
        "core.engine.process_calls": calls("core.engine.process"),
        "core.engine.self_s": layer_self["core.engine"],
        "core.engine.writes_replicated": writes,
        "core.engine.retransmissions": retrans,
        "core.engine.retransmit_ratio": ratio(retrans, writes),
        "core.engine.lease_requests": total(snaps, "redplane.lease_requests"),
        "statestore.server.receive_calls":
            calls("statestore.server.receive"),
        "statestore.server.self_s": layer_self["statestore.server"],
        "statestore.server.requests_processed": processed,
        "statestore.server.stale_rejected_ratio":
            ratio(total(snaps, "store.updates_rejected_stale"), processed),
        "statestore.wal.io_s": layer_self["statestore.wal"],
        "statestore.wal.calls": sum(calls(n) for n in wal),
        "telemetry.trace.emit_calls": calls("telemetry.trace.emit"),
        "telemetry.trace.self_s": layer_self["telemetry.trace"],
        "telemetry.trace.records_per_packet":
            ratio(counts["records_emitted"], result["sent"]),
        "fastpath.hit_ratio": ratio(fp["hits"], fp["hits"] + fp["misses"]),
        "fastpath.invalidations": fp["invalidations"],
        "deploy.self_s": layer_self["deploy"],
        "model.self_s": layer_self["model"],
        "model.lincheck_s": whole("model.lincheck"),
        "model.monitor_s": whole("model.monitor"),
        "chaos.schedules": extra.get("schedules", 0),
        "chaos.deploy_s": whole("deploy.deploy") if chaos else 0.0,
        "chaos.faults_injected": extra.get("faults_injected", 0),
        "chaos.recovery_p50_us": (
            percentiles(extra["recovery_latencies_us"], [50])[0]
            if extra.get("recovery_latencies_us") else 0.0),
        "shard.self_s": layer_self["shard"],
        "shard.resolve_s": extra.get("resolve_s", 0.0),
        "shard.spawn_s": (max(hooks.hello_at) - hooks.process_shards_at
                          if hooks.hello_at else 0.0),
        "shard.critical_path_s": extra.get("critical_path_s", 0.0),
        "shard.ghost_s": whole("shard.ghost"),
        "shard.ipc_frames": hooks.frames,
        "shard.ipc_bytes": hooks.frame_bytes,
        "shard.merge_s": whole("shard.merge"),
        "shard.overhead_s": (run_s - extra["critical_path_s"]
                             if hooks.hello_at else 0.0),
        "bench.traced_run_s": run_s,
    }
    return metrics, ledger_ok, residual


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "traced", "inline"),
                        default="plain")
    parser.add_argument("--spans", help="write the traced spans here")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    scratch = os.path.join(OUT_DIR, "tmp")
    os.makedirs(scratch, exist_ok=True)
    # WAL-backed chaos stores write their logs under the temp dir.
    tempfile.tempdir = scratch
    os.environ["TMPDIR"] = scratch

    import bench_trace
    import bench_workloads

    if args.workload not in bench_workloads.RUNNERS:
        parser.error(f"unknown workload {args.workload!r}")
    if args.mode == "inline" and args.workload != "nat_sharded":
        parser.error("--mode inline is for nat_sharded only")
    # Set-up is timed from the first import of the program: the
    # harness's own imports are not the program's set-up cost.
    setup_start = time.perf_counter()
    hooks = bench_trace.Hooks()
    hooks.install(traced=args.mode != "plain")
    result = bench_workloads.RUNNERS[args.workload](
        args.seed, hooks, args.mode)

    run_s = result["run_end"] - result["run_start"]
    p50, p99 = percentiles(result["latencies_us"], [50, 99])
    checks = dict(result["checks"])
    attempted = result.get("attempted", 1)
    failed = result.get("failed", 0 if all(checks.values()) else 1)
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "mode": args.mode,
        "setup_s": result["run_start"] - setup_start,
        "run_s": run_s,
        "packets_per_s": result["sent"] / run_s,
        "peak_rss_mb": result["peak_rss_mb"],
        "sim_latency_p50_us": p50,
        "sim_latency_p99_us": p99,
        "sim_delivered_ratio": ratio(result["delivered"], result["sent"]),
        "sent": result["sent"],
        "delivered": result["delivered"],
        "latency_samples": len(result["latencies_us"]),
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "counts": result["counts"],
    }
    if hooks.recorder is not None:
        metrics, ledger_ok, residual = layer_metrics(result, hooks, run_s)
        out["per_layer"] = metrics
        out["ledger_residual_s"] = residual
        out["checks"]["ledger_adds_up"] = ledger_ok
        if not ledger_ok:
            out["failed"] = attempted
        if args.spans:
            out["spans_written"] = hooks.recorder.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
