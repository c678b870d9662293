"""Outside-in layer spans for the benchmark's traced runs.

Wrappers are installed from here, around the public entry points of
each layer, so the program under test is not edited. Every wrapped call
records one span: name, start, end, parent span and the packet uid
(``meta["uid"]``) when the call carries a packet. Self time (duration
minus the time covered by child spans) is computed per span name when
the spans are read; the raw spans stay in memory and are written by
:meth:`SpanRecorder.write` when the repetition ends.

The same module also installs the two hooks plain runs need: a
deploy hook (to bind delivery recorders on the receiving host) and a
first-``Simulator.run`` stamp (the end of set-up). Neither is a span.

Spawned shard workers re-import the program, so wrappers installed in a
parent process do not reach them; the traced ``nat_sharded`` split is
taken from an inline-mode run (see README.md).
"""

from __future__ import annotations

import json
import os
import sys
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

def layer_of(span_name: str) -> str:
    """The layer a span is billed to: its name up to the last dot."""
    return span_name.rsplit(".", 1)[0]


class SpanRecorder:
    """Spans in one flat array; self time is computed when read."""

    FIELDS = ("start", "end", "name", "parent", "uid", "index")

    def __init__(self) -> None:
        self.names: List[str] = []
        #: (start, end, name id, parent index, uid, index) per closed span.
        self.spans = array("d")
        self.next_index = 0
        self._stack: List[int] = []

    def wrap(self, fn: Callable[..., Any], name: str,
             uid_of: Optional[Callable[[tuple, dict], int]] = None,
             when: Optional[Callable[[tuple, dict], bool]] = None,
             ) -> Callable[..., Any]:
        """Return ``fn`` wrapped in a span named ``name``.

        ``uid_of(args, kwargs)`` extracts the packet uid; ``when`` (if
        given) decides per call whether a span is recorded at all.
        """
        self.names.append(name)
        nid = len(self.names) - 1
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        rec = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = rec.next_index
            rec.next_index = index + 1
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                uid = uid_of(args, kwargs) if uid_of is not None else 0
                spans.extend((start, end, nid, parent, uid, index))

        if when is not None:
            spanned = wrapper

            def wrapper(*args: Any, **kwargs: Any) -> Any:
                if when(args, kwargs):
                    return spanned(*args, **kwargs)
                return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def ledger(self, lo: float, hi: float) -> Dict[str, Dict[str, float]]:
        """Calls, self and total seconds per span name, over the spans
        that start in ``[lo, hi]``. Self time is a span's duration minus
        the summed duration of its direct children."""
        spans = self.spans
        covered = [0.0] * self.next_index
        for base in range(0, len(spans), 6):
            parent = int(spans[base + 3])
            if parent >= 0:
                covered[parent] += spans[base + 1] - spans[base]
        out: Dict[str, Dict[str, float]] = {
            name: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
            for name in self.names
        }
        for base in range(0, len(spans), 6):
            start = spans[base]
            if not lo <= start <= hi:
                continue
            row = out[self.names[int(spans[base + 2])]]
            duration = spans[base + 1] - start
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - covered[int(spans[base + 5])]
        return out

    def top_level_s(self, lo: float, hi: float) -> float:
        """Summed duration of parentless spans starting in ``[lo, hi]``."""
        spans = self.spans
        total = 0.0
        for base in range(0, len(spans), 6):
            if spans[base + 3] < 0 and lo <= spans[base] <= hi:
                total += spans[base + 1] - spans[base]
        return total

    def write(self, path: str) -> int:
        """Write the spans: one JSON header line naming the fields and
        span names, then the spans as native-endian float64 rows."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        count = len(self.spans) // 6
        header = {"fields": list(self.FIELDS), "names": self.names,
                  "count": count, "byteorder": sys.byteorder,
                  "typecode": "d"}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            self.spans.tofile(fh)
        return count


# -- uid extractors ----------------------------------------------------------

def _pkt_uid(args: tuple, kwargs: dict) -> int:
    pkt = args[1] if len(args) > 1 else kwargs.get("pkt")
    meta = getattr(pkt, "meta", None)
    return int(meta.get("uid", 0)) if meta else 0


def _ctx_uid(args: tuple, kwargs: dict) -> int:
    ctx = args[1] if len(args) > 1 else kwargs.get("ctx")
    pkt = getattr(ctx, "pkt", None)
    meta = getattr(pkt, "meta", None)
    return int(meta.get("uid", 0)) if meta else 0


def _emit_uid(args: tuple, kwargs: dict) -> int:
    return int(kwargs.get("uid", 0) or 0)


def _is_ghost(args: tuple, kwargs: dict) -> bool:
    return bool(kwargs.get("ghost", False))


# -- hooks -------------------------------------------------------------------

class Hooks:
    """The hooks one repetition installs, and what they observed."""

    def __init__(self) -> None:
        self.first_run_at: Optional[float] = None
        #: Deployments built so far, kept only when ``keep_deployments``.
        self.deployments: List[Any] = []
        self.keep_deployments = False
        self.on_deploy: Optional[Callable[[Any], None]] = None
        self.recorder: Optional[SpanRecorder] = None
        self.frame_bytes = 0
        self.frames = 0
        self.hello_at: List[float] = []
        self.process_shards_at: Optional[float] = None

    def install(self, traced: bool) -> None:
        """Install the deploy hook and run stamp; with ``traced`` also
        every layer span. Call before any simulator object is built."""
        import repro
        from repro.net.simulator import Simulator

        # ``repro.deploy`` the attribute is the function; the module is
        # only reachable through sys.modules.
        deploy_mod = sys.modules["repro.deploy"]
        original_deploy = deploy_mod.deploy
        hooks = self

        def deploy(*args: Any, **kwargs: Any) -> Any:
            dep = original_deploy(*args, **kwargs)
            if hooks.keep_deployments:
                hooks.deployments.append(dep)
            if hooks.on_deploy is not None:
                hooks.on_deploy(dep)
            return dep

        original_run = Simulator.run

        def run(sim: Any, *args: Any, **kwargs: Any) -> Any:
            if hooks.first_run_at is None:
                hooks.first_run_at = time.perf_counter()
            return original_run(sim, *args, **kwargs)

        Simulator.run = run  # type: ignore[method-assign]
        if traced:
            self.recorder = SpanRecorder()
            deploy = self.recorder.wrap(deploy, "deploy.deploy")
        # ``from repro import deploy`` reads the package attribute;
        # modules that run ``from repro.deploy import deploy`` after this
        # point (the chaos runner) bind the hooked function themselves.
        repro.deploy = deploy
        deploy_mod.deploy = deploy
        chaos_runner = sys.modules.get("repro.chaos.runner")
        if chaos_runner is not None:
            chaos_runner.deploy = deploy
        if traced:
            self._install_spans(self.recorder)

    def _install_spans(self, rec: SpanRecorder) -> None:
        import repro.chaos.runner as chaos_runner
        import repro.shard.frames as frames
        import repro.shard.merge as merge_mod
        import repro.shard.runner as shard_runner
        import repro.shard.worker as shard_worker
        from repro.core.engine import RedPlaneEngine
        from repro.model.monitors import InvariantMonitor
        from repro.net.hosts import Host
        from repro.net.links import Link
        from repro.net.routing import L3Switch
        from repro.net.simulator import Simulator
        from repro.statestore.server import StateStoreNode
        from repro.statestore.wal import WALBackend
        from repro.switch.asic import SwitchASIC
        from repro.switch.pipeline import Pipeline
        from repro.telemetry.trace import Tracer

        def method(cls: type, attr: str, name: str, uid_of=None) -> None:
            # getattr, not __dict__: StateStoreNode inherits Host.receive
            # and gets its own wrapper so store time is billed to the store.
            setattr(cls, attr, rec.wrap(getattr(cls, attr), name, uid_of))

        # Store wrappers first, so they wrap the unwrapped Host.receive.
        method(StateStoreNode, "receive", "statestore.server.receive", _pkt_uid)
        method(StateStoreNode, "_process_request",
               "statestore.server.process_request")
        method(StateStoreNode, "_apply_chain", "statestore.server.apply_chain")
        method(StateStoreNode, "_drain_pending",
               "statestore.server.drain_pending")
        method(Host, "receive", "net.hosts.receive", _pkt_uid)
        method(Host, "send", "net.hosts.send", _pkt_uid)
        method(Link, "transmit", "net.links.transmit", _pkt_uid)
        method(Link, "_deliver", "net.links.deliver", _pkt_uid)
        method(L3Switch, "receive", "net.routing.receive", _pkt_uid)
        method(L3Switch, "forward", "net.routing.forward", _pkt_uid)
        method(SwitchASIC, "receive", "switch.asic.receive", _pkt_uid)
        method(SwitchASIC, "inject", "switch.asic.inject", _pkt_uid)
        method(Pipeline, "run", "switch.pipeline.run", _ctx_uid)
        method(RedPlaneEngine, "process", "core.engine.process", _ctx_uid)
        method(Tracer, "emit", "telemetry.trace.emit", _emit_uid)
        method(Simulator, "schedule_at", "net.simulator.schedule_at")
        for attr in ("bind", "commit", "wipe", "recover", "describe", "close"):
            method(WALBackend, attr, f"statestore.wal.{attr}")
        WALBackend.records = property(  # type: ignore[assignment]
            rec.wrap(WALBackend.records.fget, "statestore.wal.records"))
        method(InvariantMonitor, "_sample", "model.monitor")
        chaos_runner.check_counter_history = rec.wrap(
            chaos_runner.check_counter_history, "model.lincheck")

        # Shard layer (parent process only).
        method(frames.FrameConn, "send", "shard.frame_send")
        method(frames.FrameConn, "recv", "shard.frame_recv")
        shard_worker.run_process_shards = rec.wrap(
            shard_worker.run_process_shards, "shard.process_shards")
        merge_mod.merge_results = rec.wrap(
            merge_mod.merge_results, "shard.merge")
        # Only the ghost gets a span: an inline shard's own run is the
        # layers below it, and its drain loop belongs to net.simulator.
        shard_runner.run_one_shard = rec.wrap(
            shard_runner.run_one_shard, "shard.ghost", when=_is_ghost)
        self._count_frames(frames)

    def _count_frames(self, frames: Any) -> None:
        """Count frame bytes both ways, and stamp each worker's HELLO."""
        pack, unpack = frames.pack_frame, frames.unpack_frame
        hooks = self

        def pack_frame(ftype: int, body: Dict[str, Any]) -> bytes:
            data = pack(ftype, body)
            hooks.frames += 1
            hooks.frame_bytes += len(data)
            return data

        def unpack_frame(data: bytes) -> Tuple[int, Dict[str, Any], int]:
            ftype, body, consumed = unpack(data)
            hooks.frames += 1
            hooks.frame_bytes += consumed
            if ftype == frames.F_HELLO:
                hooks.hello_at.append(time.perf_counter())
            return ftype, body, consumed

        frames.pack_frame = pack_frame
        frames.unpack_frame = unpack_frame
        import repro.shard.worker as shard_worker

        original_run_process_shards = shard_worker.run_process_shards

        def run_process_shards(config: Any) -> Any:
            hooks.process_shards_at = time.perf_counter()
            return original_run_process_shards(config)

        shard_worker.run_process_shards = run_process_shards
