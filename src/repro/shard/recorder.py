"""Per-shard capture: origins, uid births, observations, RNG guard.

The merge layer (:mod:`repro.shard.merge`) reassembles per-shard streams
into the exact byte stream the single-process reference produces. That
needs three sidecars the normal run does not keep:

* **origins** — every root event (scheduled outside any event) gets a
  monotonically increasing *rank*; children inherit it. Setup code runs
  in lockstep on every shard, and ranks advance even for flow
  injections a shard skips, so rank N names the same root everywhere.
  Trace records are tagged with the emitting event's rank plus a
  within-rank emission index: ``(ts, rank, idx)`` is a total order that
  every shard agrees on.
* **uid births** — packet-span uids are allocated in execution order,
  so each shard's uid sequence is a subsequence of the reference's.
  Logging ``(ts, rank, birth_idx)`` per allocation lets the merge
  renumber local uids into the reference's global numbering.
* **histogram observations** — reservoir decimation is order-dependent,
  so merged summaries are rebuilt by replaying the globally merged
  observation log, not by combining per-shard reservoirs.

The recorder also replaces the simulator RNG with a draw-counting
subclass: a campaign whose shards draw randomness *at all* would
diverge (each shard sees a different draw sequence), so identity-mode
runs assert zero draws and anything else is reported honestly.
"""

from __future__ import annotations

import random
from operator import itemgetter
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.shard.assign import find_packet, shard_of
from repro.shard.merge import UID_FIELDS, MergeError
from repro.telemetry.metrics import Gauge, Histogram
from repro.telemetry.trace import TraceRecord

#: Rank used for records emitted outside any event (driver code between
#: ``run()`` calls). Driver code runs in lockstep on every shard, so
#: these are shared records like any shared-rank emission.
DRIVER_RANK = -1

#: The merge's global trace order: ``(ts, rank, within-rank index)``.
_ROW_ORDER = itemgetter(0, 1, 2)


class _CountingRandom(random.Random):
    """A ``random.Random`` that counts every underlying draw.

    All public drawing methods funnel through ``random()`` or
    ``getrandbits()``; counting those two catches every draw without
    changing any returned value.
    """

    def __init__(self, seed: Any, recorder: "ShardRecorder") -> None:
        self._recorder = recorder
        super().__init__(seed)

    def random(self) -> float:
        self._recorder.rng_draws += 1
        return super().random()

    def getrandbits(self, k: int) -> int:
        self._recorder.rng_draws += 1
        return super().getrandbits(k)


class ShardRecorder:
    """Shard-mode sidecar state for one simulator.

    Parameters
    ----------
    shard_index, num_shards:
        This worker's slot. ``num_shards == 1`` with ``ghost=False``
        admits everything (useful for a recorded reference run).
    key_fields:
        The plan's partition-key fields (packet-extractable; see
        :func:`repro.shard.plan.shardability`).
    pinned:
        Plan not flow-partitionable: every flow belongs to shard 0.
    ghost:
        Admit *no* flows. A ghost run executes exactly the shared
        (non-flow) events every shard replicates; the merge subtracts
        its metrics ``N-1`` times to undo that replication.
    capture_records:
        Keep full trace-record rows for byte-identity merging. Off for
        throughput benches, where only counts and metrics are needed.
    """

    def __init__(
        self,
        shard_index: int,
        num_shards: int,
        key_fields: Sequence[str],
        pinned: bool = False,
        ghost: bool = False,
        capture_records: bool = True,
    ) -> None:
        if not 0 <= shard_index < max(num_shards, 1):
            raise ValueError(
                f"shard_index {shard_index} out of range for "
                f"{num_shards} shard(s)"
            )
        self.shard_index = shard_index
        self.num_shards = num_shards
        self.key_fields = list(key_fields)
        self.pinned = pinned
        self.ghost = ghost
        self.capture_records = capture_records
        self.sim: Any = None
        self.rng_draws = 0
        self.flows_injected = 0
        self.flows_skipped = 0
        self._next_rank = 0
        #: rank -> "flow" ranks (injection roots); absent means shared.
        self.flow_ranks: Set[int] = set()
        self.owned_flow_ranks: Set[int] = set()
        #: (ts, rank, idx, TraceRecord) per emitted record, in order.
        self.rows: List[Tuple[float, int, int, TraceRecord]] = []
        self._emit_counts: Dict[int, int] = {}
        #: (ts, rank, birth_idx) per uid; entry i is local uid i+1.
        self.births: List[Tuple[float, int, int]] = []
        self._birth_counts: Dict[int, int] = {}
        #: (describe, ts, rank, obs_idx, value, max_samples) per
        #: histogram observation, in order.
        self.observations: List[Tuple[str, float, int, int, float, Optional[int]]] = []
        self._obs_counts: Dict[int, int] = {}
        #: (describe, ts, rank, op_idx, op, amount) per gauge mutation.
        #: The merge replays these in global order to rebuild gauges
        #: whose value couples flows across shards (running peaks).
        self.gauge_ops: List[Tuple[str, float, int, int, str, float]] = []
        self._gauge_counts: Dict[int, int] = {}

    # -- wiring ---------------------------------------------------------------

    def attach(self, sim: Any, seed: int) -> None:
        """Hook the recorder into a freshly constructed simulator.

        Must run before any event is scheduled or any randomness drawn;
        the RNG is re-seeded with the simulator's own seed so the draw
        sequence is unchanged, merely counted.
        """
        if sim.events_executed or sim.pending_events:
            raise RuntimeError("recorder must attach to a fresh simulator")
        self.sim = sim
        sim.shard_ctx = self
        sim.rng = _CountingRandom(seed, self)
        if self.capture_records:
            sim.tracer.on_emit = self._on_trace_emit
            sim.metrics.on_create = self._on_instrument
            for inst in sim.metrics.instruments():
                self._on_instrument(inst)

    # -- simulator hooks -------------------------------------------------------

    def root_origin(self, fn: Any, args: Tuple) -> Tuple[int, bool]:
        """Allocate the next root rank; decide admission.

        Called by ``Simulator.schedule_at`` for events scheduled outside
        any event. Roots carrying a :class:`~repro.net.packet.Packet`
        are flow injections and are admitted only on the owner shard;
        every other root is shared and always admitted. Ranks advance
        either way, keeping all shards' numbering aligned.
        """
        rank = self._next_rank
        self._next_rank += 1
        pkt = find_packet(args)
        if pkt is None:
            return rank, True
        # The rank sets exist for the merge; capture-off (bench) runs
        # skip them so a 10M-flow population costs counters, not sets.
        if self.capture_records:
            self.flow_ranks.add(rank)
        if self.ghost:
            self.flows_skipped += 1
            return rank, False
        owner = 0 if self.pinned else shard_of(
            pkt, self.key_fields, self.num_shards
        )
        if owner == self.shard_index:
            self.flows_injected += 1
            if self.capture_records:
                self.owned_flow_ranks.add(rank)
            return rank, True
        self.flows_skipped += 1
        return rank, False

    def note_uid(self, uid: int) -> None:
        if not self.capture_records:
            return
        rank = self._current_rank()
        idx = self._birth_counts.get(rank, 0)
        self._birth_counts[rank] = idx + 1
        self.births.append((self.sim.now, rank, idx))

    def _on_trace_emit(self, record: TraceRecord) -> None:
        rank = self._current_rank()
        idx = self._emit_counts.get(rank, 0)
        self._emit_counts[rank] = idx + 1
        self.rows.append((record.ts, rank, idx, record))

    def _on_instrument(self, inst: Any) -> None:
        if isinstance(inst, Histogram):
            inst.on_observe = self._on_observe
        elif isinstance(inst, Gauge):
            inst.on_change = self._on_gauge_change

    def _on_observe(self, hist: Histogram, value: float) -> None:
        rank = self._current_rank()
        idx = self._obs_counts.get(rank, 0)
        self._obs_counts[rank] = idx + 1
        self.observations.append(
            (hist.describe(), self.sim.now, rank, idx, value,
             hist.max_samples)
        )

    def _on_gauge_change(self, gauge: Gauge, op: str, amount: float) -> None:
        # ``set_max`` amounts are *local* absolutes (the shard's own
        # running level), meaningless across shards; the merge derives
        # peaks by replaying the source gauge's add/set stream instead.
        if op == "set_max":
            return
        rank = self._current_rank()
        idx = self._gauge_counts.get(rank, 0)
        self._gauge_counts[rank] = idx + 1
        self.gauge_ops.append(
            (gauge.describe(), self.sim.now, rank, idx, op, float(amount))
        )

    def _current_rank(self) -> int:
        origin = self.sim._origin
        return DRIVER_RANK if origin is None else origin

    # -- export ---------------------------------------------------------------

    @property
    def rank_count(self) -> int:
        return self._next_rank

    def result(self) -> Dict[str, Any]:
        """Plain-data shard result, JSON-serializable for worker frames.

        Shared-rank trace rows go out in full: the merge checks them
        identical on every replica. Owned rows go out only as far back
        as the merged ring can reach. A row in the merged ring tail has
        fewer than ``trace_maxlen`` merged records after it, so fewer
        than that many of its own shard's, so it is in this shard's
        sorted owned tail. ``owned_rows`` keeps the full owned count for
        the merge's ``records_emitted`` identity, and the owned rows cut
        here get the merge's uid-born check first, since it never sees
        them.
        """
        sim = self.sim
        maxlen = sim.tracer.maxlen
        shared: List[Tuple[float, int, int, TraceRecord]] = []
        owned: List[Tuple[float, int, int, TraceRecord]] = []
        for row in self.rows:
            if row[1] in self.owned_flow_ranks:
                owned.append(row)
            elif row[1] not in self.flow_ranks:
                shared.append(row)
        owned.sort(key=_ROW_ORDER)
        cut = max(len(owned) - maxlen, 0) if maxlen else 0
        self._check_uids_born(owned[:cut])
        return {
            "shard": self.shard_index,
            "num_shards": self.num_shards,
            "ghost": self.ghost,
            "pinned": self.pinned,
            "capture": self.capture_records,
            "events_executed": sim.events_executed,
            "records_emitted": sim.tracer.records_emitted,
            "trace_maxlen": maxlen,
            "rng_draws": self.rng_draws,
            "flows_injected": self.flows_injected,
            "flows_skipped": self.flows_skipped,
            "rank_count": self._next_rank,
            "flow_ranks": sorted(self.flow_ranks),
            "owned_flow_ranks": sorted(self.owned_flow_ranks),
            "shared_rows": [
                [ts, rank, idx, rec.type, rec.fields]
                for ts, rank, idx, rec in shared
            ],
            "owned_tail": [
                [ts, rank, idx, rec.type, rec.fields]
                for ts, rank, idx, rec in owned[cut:]
            ],
            "owned_rows": len(owned),
            "births": [list(b) for b in self.births],
            "observations": [list(o) for o in self.observations],
            "gauge_ops": [list(o) for o in self.gauge_ops],
            "metrics": sim.metrics.snapshot(),
            "final_now": sim.now,
        }

    def _check_uids_born(
        self, rows: Sequence[Tuple[float, int, int, TraceRecord]]
    ) -> None:
        """The merge's uid remap check, for rows it will not receive:
        local uids are ``1..len(births)``."""
        born = len(self.births)
        for _ts, rank, _idx, rec in rows:
            for key, value in rec.fields.items():
                if (key in UID_FIELDS and isinstance(value, int)
                        and not 1 <= value <= born):
                    raise MergeError(
                        f"shard {self.shard_index} rank {rank}: field "
                        f"{key}={value} references a uid never born on "
                        "that shard"
                    )
