"""Spawned-process shard workers and their frame protocol.

Process mode: the parent spawns one worker per shard (``spawn`` context
— a fresh interpreter, so bootstrap state must be picklable JSON
scalars, see :class:`ShardSpec`) and connects each over a
``multiprocessing.Pipe``. Each worker runs its shard to completion on
its own; shards share no state, so nothing crosses the pipe while they
simulate. All traffic is length-prefixed frames
(:mod:`repro.shard.frames`):

worker -> controller: ``HELLO``, then ``RESULT`` (the shard result: its
shared trace rows in full, its owned rows only as far back as the merged
ring can reach) or ``ERROR``; controller -> worker: ``BYE`` once the
result is in. After ``BYE`` the worker exits without interpreter
teardown: nothing is left to deliver, and freeing the shard's heap
object by object would only delay the parent's ``join``.

The ghost run stays in the parent (it admits no flows and is cheap),
executed after every worker result is in.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import traceback
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

from repro.shard.frames import F_BYE, F_ERROR, F_HELLO, F_RESULT, FrameConn


@dataclass
class ShardSpec:
    """Picklable worker bootstrap: nothing but JSON scalars.

    The spawn context re-imports everything in the child, so the spec
    carries names and numbers, never live objects — the worker rebuilds
    scenario, plan-derived key fields, and recorder from these.
    """

    scenario: str
    shard_index: int
    num_shards: int
    seed: int
    key_fields: List[str]
    pinned: bool
    lookahead_us: float
    fastpath: bool = False
    capture: bool = True
    heartbeat_dir: Optional[str] = None
    heartbeat_interval_us: float = 1_000.0
    params: Dict[str, Any] = field(default_factory=dict)


def worker_main(conn: Any, spec_dict: Dict[str, Any]) -> None:
    """Worker process entry point: run one shard, send its result."""
    spec = ShardSpec(**spec_dict)
    fc = FrameConn(conn)
    delivered = False
    try:
        from repro.shard.runner import ShardRunConfig, run_one_shard
        from repro.shard.scenarios import get_scenario

        fc.send(F_HELLO, {
            "shard": spec.shard_index, "scenario": spec.scenario,
        })
        config = ShardRunConfig(
            scenario=get_scenario(spec.scenario),
            workers=spec.num_shards,
            plan={},
            key_fields=list(spec.key_fields),
            pinned=spec.pinned,
            pin_reason="",
            lookahead_us=spec.lookahead_us,
            seed=spec.seed,
            fastpath=spec.fastpath,
            capture=spec.capture,
            heartbeat_dir=spec.heartbeat_dir,
            heartbeat_interval_us=spec.heartbeat_interval_us,
            params=dict(spec.params),
        )
        fc.send(F_RESULT, run_one_shard(config, spec.shard_index))
        fc.recv_expect(F_BYE)
        delivered = True
    except Exception:
        try:
            fc.send(F_ERROR, {"error": traceback.format_exc()})
        except Exception:
            pass
    finally:
        fc.close()
    if delivered:
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(0)


def run_process_shards(config: Any) -> List[Dict[str, Any]]:
    """Spawn one worker per shard and collect their results.

    ``config`` is a :class:`repro.shard.runner.ShardRunConfig`. Returns
    the shard results in shard order. A worker error tears the whole
    run down with its traceback — a partial merge would be meaningless.
    So does a worker that exits without a result: its closed or torn
    pipe raises a :class:`RuntimeError` naming the shard.
    """
    ctx = multiprocessing.get_context("spawn")
    conns: List[Any] = []
    procs: List[Any] = []
    for index in range(config.workers):
        parent_conn, child_conn = ctx.Pipe()
        spec = ShardSpec(
            scenario=config.scenario.name,
            shard_index=index,
            num_shards=config.workers,
            seed=config.seed,
            key_fields=list(config.key_fields),
            pinned=config.pinned,
            lookahead_us=config.lookahead_us,
            fastpath=config.fastpath,
            capture=config.capture,
            heartbeat_dir=config.heartbeat_dir,
            heartbeat_interval_us=config.heartbeat_interval_us,
            params=dict(config.params),
        )
        proc = ctx.Process(
            target=worker_main, args=(child_conn, asdict(spec)),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        conns.append(FrameConn(parent_conn))
        procs.append(proc)

    results: List[Optional[Dict[str, Any]]] = [None] * config.workers
    index_of = {id(fc._conn): i for i, fc in enumerate(conns)}
    pending = set(range(config.workers))
    try:
        while pending:
            ready = multiprocessing.connection.wait(
                [conns[i]._conn for i in sorted(pending)],
                timeout=300.0,
            )
            if not ready:
                raise RuntimeError(
                    f"shard workers stalled (pending: {sorted(pending)})"
                )
            for raw in ready:
                index = index_of[id(raw)]
                fc = conns[index]
                try:
                    ftype, body = fc.recv()
                except (EOFError, OSError, ValueError) as exc:
                    procs[index].join(timeout=5.0)
                    raise RuntimeError(
                        f"shard worker {index} exited (exitcode "
                        f"{procs[index].exitcode}) without a result"
                    ) from exc
                if ftype == F_HELLO:
                    continue
                if ftype == F_RESULT:
                    results[index] = body
                    fc.send(F_BYE, {})
                    pending.discard(index)
                elif ftype == F_ERROR:
                    raise RuntimeError(
                        f"shard worker {index} failed:\n"
                        f"{body.get('error', '?')}"
                    )
                else:
                    raise RuntimeError(
                        f"unexpected frame type {ftype} from worker {index}"
                    )
    finally:
        for proc in procs:
            # A failed run is lost: stop the survivors without waiting.
            proc.join(timeout=0.0 if pending else 10.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        for fc in conns:
            try:
                fc.close()
            except OSError:
                pass
    return results  # type: ignore[return-value]
