"""Process mode: spawned workers run to completion, identical merge."""

from __future__ import annotations

import multiprocessing
import threading
import time

import pytest

from repro.shard.runner import resolve, run_identity, run_sharded
from repro.shard.worker import ShardSpec


def test_process_mode_is_byte_identical_to_the_reference():
    out = run_identity("nat_quickstart", workers=2, mode="process")
    report = out["report"]
    failed = [axis for axis, same in report.items() if not same]
    assert out["identical"], f"diverging axes: {failed}"
    assert out["merged"]["mode"] == "process"


def test_process_mode_failover_is_byte_identical_to_the_reference():
    """The longest-running identity scenario (a switch failover and lease
    migration), with each shard run to completion in its own process."""
    out = run_identity("chaos:single_failover", workers=2, mode="process")
    report = out["report"]
    failed = [axis for axis, same in report.items() if not same]
    assert out["identical"], f"diverging axes: {failed}"


def test_process_mode_matches_inline_mode():
    """Same scenario, both execution modes: the merged result is the
    same object either way (frames must not perturb anything)."""
    config = resolve("nat_steady", 2)
    inline = run_sharded(config, mode="inline")
    config2 = resolve("nat_steady", 2)
    proc = run_sharded(config2, mode="process")
    assert inline["trace_digest"] == proc["trace_digest"]
    assert inline["events"] == proc["events"]
    assert inline["flows_per_shard"] == proc["flows_per_shard"]


def test_shard_spec_is_json_scalars_only():
    """The spawn bootstrap must stay picklable-by-value: names and
    numbers, never live objects."""
    spec = ShardSpec(
        scenario="nat_steady", shard_index=0, num_shards=2, seed=5,
        key_fields=["ip.src"], pinned=False, lookahead_us=0.35,
    )
    import json

    from dataclasses import asdict

    round_tripped = json.loads(json.dumps(asdict(spec)))
    assert ShardSpec(**round_tripped) == spec


def test_unknown_mode_is_rejected():
    config = resolve("nat_quickstart", 2)
    with pytest.raises(ValueError, match="mode"):
        run_sharded(config, mode="threads")


def test_a_dead_worker_fails_fast_and_names_itself():
    """A worker killed mid-run sends no ERROR frame; the parent must
    report which shard died instead of a bare EOFError, and promptly.
    The run is sized to take seconds per shard, so the kill lands while
    the workers simulate."""
    config = resolve("nat_steady", 2,
                     params={"flows": 100, "packets_per_flow": 150})
    stop = threading.Event()

    def kill_one_worker() -> None:
        while not stop.is_set():
            children = multiprocessing.active_children()
            if children:
                stop.wait(0.5)
                children[0].kill()
                return
            time.sleep(0.01)

    killer = threading.Thread(target=kill_one_worker, daemon=True)
    killer.start()
    started = time.monotonic()
    try:
        with pytest.raises(RuntimeError,
                           match=r"shard worker \d exited \(exitcode "
                                 r"-?\d+\) without a result"):
            run_sharded(config, mode="process")
    finally:
        stop.set()
        killer.join(timeout=5.0)
    assert not killer.is_alive()
    assert time.monotonic() - started < 30.0
    assert not multiprocessing.active_children()
