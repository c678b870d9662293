"""Sharded parallel simulation driven by machine-checked shard plans.

The horizontal-scaling subsystem: partition a campaign's flow
population across N workers according to the committed per-app shard
plan (``shard_plans/<app>.json``, produced and drift-checked by
``repro.verify`` pass 5), run each shard to completion as an
independent replica that injects only the flows it owns, and
deterministically merge the per-shard streams back into the exact byte
stream the single-process reference produces. The plan is what makes
the shards independent: plans with global residue or an unextractable
key are pinned to shard 0, so no shard ever needs another's state.

Package map:

=================  ==========================================================
module             role
=================  ==========================================================
``plan``           committed-plan loading, legality, launch-time RS408 gate
``assign``         flow -> shard hashing from the plan's partition key
``recorder``       per-shard sidecars: origins, uid births, observations
``frames``         length-prefixed worker protocol frames
``scenarios``      shard-disciplined campaign drivers
``runner``         reference / inline / process drive modes + identity gate
``worker``         spawned-process worker entry point
``merge``          deterministic stream reassembly + identity report
``bench``          million-flow scaling bench (BENCH_shard.json)
=================  ==========================================================

See docs/SHARDING.md for the end-to-end story.
"""

from repro.shard.merge import MergeError, identity_report, merge_results
from repro.shard.plan import (
    PlanDriftError,
    PlanError,
    check_conformance,
    load_plan,
    shardability,
    sync_window_us,
)
from repro.shard.recorder import ShardRecorder
from repro.shard.runner import (
    ShardRunConfig,
    resolve,
    run_identity,
    run_reference,
    run_sharded,
)

__all__ = [
    "MergeError",
    "PlanDriftError",
    "PlanError",
    "ShardRecorder",
    "ShardRunConfig",
    "check_conformance",
    "identity_report",
    "load_plan",
    "merge_results",
    "resolve",
    "run_identity",
    "run_reference",
    "run_sharded",
    "shardability",
    "sync_window_us",
]
