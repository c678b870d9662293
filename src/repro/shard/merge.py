"""Deterministic merge of per-shard results into the reference stream.

Given N shard results plus one *ghost* result (a run that admitted no
flows — exactly the shared events every shard replicates), reassemble
what the single-process reference run would have produced:

* **trace ring** — shared-rank records (validated identical on every
  shard, kept once) plus each shard's owned-flow records, globally
  sorted by ``(ts, rank, within-rank index)``; shards ship only the
  owned records that can reach the ring tail, plus their full count;
* **uids** — per-shard uid-birth logs merged with the same comparator;
  a local uid's global value is its birth's position in the merged
  order, and every uid-bearing trace field is rewritten;
* **metrics** — counters and gauges obey
  ``merged = sum(shards) - (N-1) * ghost`` (shared instruments are
  replicated N times and the ghost run measures exactly the replicated
  part once); peak-tracking gauges are instead recomputed by replaying
  their source gauge's operation log in global order (the reference's
  instantaneous level couples flows across shards, so no per-shard
  combination of final values can recover it); histogram summaries are
  rebuilt by replaying the globally merged observation log through a
  fresh reservoir, because decimation is order-dependent.

Every assumption is checked, not trusted: shards that disagree on a
shared record, a birth, or an instrument raise :class:`MergeError`
with the first divergence — an honest failure beats a silently wrong
merge.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.telemetry.metrics import Histogram, without_families
from repro.telemetry.trace import TraceRecord

#: Trace fields holding packet-span uids (rewritten during the merge).
#: ``cause`` is the optional originating-request uid an ack record
#: carries (see ``repro.core.engine``).
UID_FIELDS = frozenset({"uid", "parent", "req_uid", "parent_uid", "cause"})

#: Peak-tracking gauges couple flows across shards: the reference's
#: instantaneous level (all flows interleaved) can exceed every
#: per-shard peak, so neither max-across-shards nor sum-minus-ghost is
#: right. Each peak is recomputed by replaying its *source* gauge's
#: operation stream in global order and taking the running maximum
#: (labels carry over unchanged; a subtract can never raise a maximum,
#: so the running max over the full add/set stream is exact).
PEAK_GAUGE_SOURCES = {
    "switch.buffer_peak_bytes": "switch.buffer_occupancy_bytes",
}

#: Metric families excluded from identity comparison: per-shard
#: bookkeeping, cache internals, and observation-layer output.
NON_IDENTITY_PREFIXES = ("shard.", "fastpath.", "observe.")


class MergeError(RuntimeError):
    """Shard results are inconsistent with a single merged reality."""


def _is_peak_gauge(ident: str) -> bool:
    return ident.split("{", 1)[0] in PEAK_GAUGE_SOURCES


# -- uid renumbering ----------------------------------------------------------


def _merge_births(
    shards: Sequence[Dict[str, Any]], ghost: Dict[str, Any]
) -> Tuple[List[Tuple[float, int, int]], List[Dict[int, int]]]:
    """Merge uid-birth logs; returns (merged births, per-shard uid maps).

    Shared-rank births must be identical on every shard (and the ghost);
    they enter the merged order once. Each shard's owned-flow births are
    unique to it. The merged position (1-based) is the global uid.
    """
    flow_ranks = set(shards[0]["flow_ranks"])
    shared_seqs = []
    for res in list(shards) + [ghost]:
        shared_seqs.append([
            tuple(b) for b in res["births"] if b[1] not in flow_ranks
        ])
    for i, seq in enumerate(shared_seqs[1:], start=1):
        if seq != shared_seqs[0]:
            label = "ghost" if i == len(shards) else f"shard {i}"
            raise MergeError(
                f"shared uid births diverge between shard 0 and {label}: "
                f"{_first_diff(shared_seqs[0], seq)}"
            )
    entries: List[Tuple[float, int, int]] = list(shared_seqs[0])
    for res in shards:
        owned = set(res["owned_flow_ranks"])
        entries.extend(
            tuple(b) for b in res["births"] if b[1] in owned
        )
    entries.sort()
    position = {
        (rank, idx): uid
        for uid, (_ts, rank, idx) in enumerate(entries, start=1)
    }
    uid_maps: List[Dict[int, int]] = []
    for res in shards:
        mapping = {
            local: position[(rank, idx)]
            for local, (_ts, rank, idx) in enumerate(
                (tuple(b) for b in res["births"]), start=1
            )
        }
        uid_maps.append(mapping)
    return entries, uid_maps


def _first_diff(a: Sequence[Any], b: Sequence[Any]) -> str:
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return f"index {i}: {x!r} != {y!r}"
    return f"length {len(a)} != {len(b)}"


def _remap_fields(
    fields: Dict[str, Any], uid_map: Dict[int, int], where: str
) -> Dict[str, Any]:
    out = dict(fields)
    for key, value in fields.items():
        if key in UID_FIELDS and isinstance(value, int):
            mapped = uid_map.get(value)
            if mapped is None:
                raise MergeError(
                    f"{where}: field {key}={value} references a uid "
                    "never born on that shard"
                )
            out[key] = mapped
    return out


# -- trace merge --------------------------------------------------------------


def _validate_partition(shards: Sequence[Dict[str, Any]]) -> None:
    base = shards[0]
    for res in shards[1:]:
        for field in ("rank_count", "flow_ranks", "num_shards",
                      "trace_maxlen"):
            if res[field] != base[field]:
                raise MergeError(
                    f"shard {res['shard']} disagrees on {field}: "
                    f"{res[field]!r} != {base[field]!r}"
                )
    flow_ranks = set(base["flow_ranks"])
    owned_union: set = set()
    for res in shards:
        owned = set(res["owned_flow_ranks"])
        overlap = owned_union & owned
        if overlap:
            raise MergeError(
                f"flow rank(s) {sorted(overlap)[:4]} owned by more than "
                "one shard"
            )
        owned_union |= owned
    if owned_union != flow_ranks:
        missing = sorted(flow_ranks - owned_union)[:4]
        raise MergeError(
            f"flow rank(s) {missing} owned by no shard "
            "(population/assignment mismatch)"
        )


def _merge_rows(
    shards: Sequence[Dict[str, Any]],
    ghost: Dict[str, Any],
    uid_maps: Sequence[Dict[int, int]],
    ghost_uid_map: Dict[int, int],
) -> List[Tuple[float, int, int, str, Dict[str, Any]]]:
    """Shared rows once plus every shard's owned ring tail, remapped and
    in global order. Each shard ships its shared rows in full and only
    the owned rows the merged ring can reach (see
    :meth:`repro.shard.recorder.ShardRecorder.result`)."""

    def remapped(rows, uid_map, label):
        return [
            (ts, rank, idx, type_,
             _remap_fields(fields, uid_map, f"{label} rank {rank}"))
            for ts, rank, idx, type_, fields in rows
        ]

    reference_shared = remapped(shards[0]["shared_rows"], uid_maps[0],
                                "shard 0")
    for res, uid_map in list(zip(shards[1:], uid_maps[1:])) + [
        (ghost, ghost_uid_map)
    ]:
        label = "ghost" if res is ghost else f"shard {res['shard']}"
        other = remapped(res["shared_rows"], uid_map, label)
        if other != reference_shared:
            raise MergeError(
                f"shared trace records diverge between shard 0 and "
                f"{label}: {_first_diff(reference_shared, other)}"
            )
    merged = reference_shared
    for res, uid_map in zip(shards, uid_maps):
        merged.extend(
            remapped(res["owned_tail"], uid_map, f"shard {res['shard']}")
        )
    merged.sort(key=lambda row: (row[0], row[1], row[2]))
    return merged


def trace_digest(records: Sequence[TraceRecord]) -> str:
    """Same digest formula as :func:`repro.fastpath.bench._trace_digest`."""
    h = hashlib.sha256()
    for record in records:
        h.update(
            repr((record.ts, record.type, tuple(record.fields.items())))
            .encode()
        )
    return h.hexdigest()


def rows_to_records(
    rows: Sequence[Tuple[float, int, int, str, Dict[str, Any]]]
) -> List[TraceRecord]:
    return [TraceRecord(ts, type_, fields) for ts, _r, _i, type_, fields in rows]


# -- metric merge -------------------------------------------------------------


def _merge_scalar_section(
    section: str,
    shards: Sequence[Dict[str, Any]],
    ghost: Dict[str, Any],
    peaks: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    replicas = len(shards)
    keys: List[str] = []
    seen = set()
    for res in list(shards) + [ghost]:
        for ident in res["metrics"][section]:
            if ident not in seen:
                seen.add(ident)
                keys.append(ident)
    out: Dict[str, float] = {}
    for ident in sorted(keys):
        if section == "gauges" and _is_peak_gauge(ident):
            out[ident] = (peaks or {}).get(ident, 0.0)
            continue
        values = [res["metrics"][section].get(ident, 0.0) for res in shards]
        ghost_value = ghost["metrics"][section].get(ident, 0.0)
        out[ident] = sum(values) - (replicas - 1) * ghost_value
    return out


def _replay_peak_gauges(
    shards: Sequence[Dict[str, Any]],
    ghost: Dict[str, Any],
) -> Dict[str, float]:
    """Recompute peak gauges from the merged gauge-operation log.

    Same dedup discipline as the observation replay: shared-rank
    operations are validated identical across shards (and the ghost) and
    replayed once, owned-flow operations come from their owner, and the
    merged ``(ts, rank, idx)`` order is the order the reference mutated
    in. The running maximum of each source gauge's level is the
    reference's peak.
    """
    flow_ranks = set(shards[0]["flow_ranks"])

    def shared_ops(res):
        return [
            tuple(o) for o in res["gauge_ops"] if o[2] not in flow_ranks
        ]

    reference_shared = shared_ops(shards[0])
    for res in list(shards[1:]) + [ghost]:
        other = shared_ops(res)
        if other != reference_shared:
            label = "ghost" if res is ghost else f"shard {res['shard']}"
            raise MergeError(
                f"shared gauge operations diverge between shard 0 and "
                f"{label}: {_first_diff(reference_shared, other)}"
            )
    entries = list(reference_shared)
    for res in shards:
        owned = set(res["owned_flow_ranks"])
        entries.extend(
            tuple(o) for o in res["gauge_ops"] if o[2] in owned
        )
    entries.sort(key=lambda o: (o[1], o[2], o[3]))
    level: Dict[str, float] = {}
    peak: Dict[str, float] = {}
    for describe, _ts, _rank, _idx, op, amount in entries:
        value = amount if op == "set" else level.get(describe, 0.0) + amount
        level[describe] = value
        if value > peak.get(describe, 0.0):
            peak[describe] = value
    out: Dict[str, float] = {}
    for peak_name, source_name in PEAK_GAUGE_SOURCES.items():
        prefix = source_name + "{"
        for describe in level:
            if describe == source_name or describe.startswith(prefix):
                suffix = describe[len(source_name):]
                out[peak_name + suffix] = peak.get(describe, 0.0)
    return out


def _merge_histograms(
    shards: Sequence[Dict[str, Any]],
    ghost: Dict[str, Any],
) -> Dict[str, Dict[str, float]]:
    """Rebuild reference reservoirs from the merged observation log.

    Shared-rank observations are validated identical across shards (and
    the ghost) and replayed once; owned-flow observations come from
    their one owner. The replay feeds a fresh :class:`Histogram` in
    global ``(ts, rank, idx)`` order — the order the reference observed
    in — so decimation makes the same choices byte for byte.
    """
    flow_ranks = set(shards[0]["flow_ranks"])

    def shared_obs(res):
        return [
            tuple(o) for o in res["observations"] if o[2] not in flow_ranks
        ]

    reference_shared = shared_obs(shards[0])
    for res in list(shards[1:]) + [ghost]:
        other = shared_obs(res)
        if other != reference_shared:
            label = "ghost" if res is ghost else f"shard {res['shard']}"
            raise MergeError(
                f"shared histogram observations diverge between shard 0 "
                f"and {label}: {_first_diff(reference_shared, other)}"
            )
    entries = list(reference_shared)
    for res in shards:
        owned = set(res["owned_flow_ranks"])
        entries.extend(
            tuple(o) for o in res["observations"] if o[2] in owned
        )
    # Sort by (ts, rank, idx); the describe string rides along.
    entries.sort(key=lambda o: (o[1], o[2], o[3]))
    replay: Dict[str, Histogram] = {}
    for describe, _ts, _rank, _idx, value, max_samples in entries:
        hist = replay.get(describe)
        if hist is None:
            hist = Histogram(describe, max_samples=max_samples)
            replay[describe] = hist
        hist.observe(value)
    out: Dict[str, Dict[str, float]] = {}
    idents = set()
    for res in list(shards) + [ghost]:
        idents.update(res["metrics"]["histograms"])
    for ident in sorted(idents):
        hist = replay.get(ident)
        out[ident] = hist.summary() if hist is not None else {"count": 0.0}
    return out


def strip_non_identity(snapshot: Dict[str, Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Drop metric families excluded from the identity contract."""
    return without_families(snapshot, NON_IDENTITY_PREFIXES)


# -- top level ----------------------------------------------------------------


def merge_results(
    shards: Sequence[Dict[str, Any]],
    ghost: Dict[str, Any],
) -> Dict[str, Any]:
    """Merge N shard results + the ghost into one reference-equivalent run.

    Returns a dict with ``events``, ``records_emitted``, ``trace``
    (ring-tail :class:`TraceRecord` list), ``trace_digest``, ``metrics``
    (full merged snapshot), ``rng_draws``, and bookkeeping counts.
    """
    if not shards:
        raise MergeError("no shard results to merge")
    if not ghost.get("ghost"):
        raise MergeError("ghost result was not run in ghost mode")
    _validate_partition(list(shards) + [ghost])
    replicas = len(shards)

    _births, uid_maps = _merge_births(shards, ghost)
    # The ghost's births are all shared (validated above), so its map
    # falls out of the shared prefix of the merged order directly.
    flow_ranks = set(shards[0]["flow_ranks"])
    shared_positions = {
        (rank, idx): uid
        for uid, (_ts, rank, idx) in enumerate(_births, start=1)
        if rank not in flow_ranks
    }
    ghost_uid_map = {
        local: shared_positions[(rank, idx)]
        for local, (_ts, rank, idx) in enumerate(
            (tuple(b) for b in ghost["births"]), start=1
        )
    }

    rows = _merge_rows(shards, ghost, uid_maps, ghost_uid_map)
    merged_count = len(shards[0]["shared_rows"]) + sum(
        res["owned_rows"] for res in shards
    )
    maxlen = shards[0]["trace_maxlen"]
    ring_tail = rows_to_records(rows[-maxlen:] if maxlen else rows)

    events = (
        sum(res["events_executed"] for res in shards)
        - (replicas - 1) * ghost["events_executed"]
    )
    records_emitted = (
        sum(res["records_emitted"] for res in shards)
        - (replicas - 1) * ghost["records_emitted"]
    )
    if records_emitted != merged_count:
        raise MergeError(
            f"merged record count {merged_count} != ghost-subtracted "
            f"records_emitted {records_emitted}"
        )

    peaks = _replay_peak_gauges(shards, ghost)
    metrics = {
        "counters": _merge_scalar_section("counters", shards, ghost),
        "gauges": _merge_scalar_section("gauges", shards, ghost, peaks),
        "histograms": _merge_histograms(shards, ghost),
    }

    return {
        "num_shards": replicas,
        "events": events,
        "records_emitted": records_emitted,
        "uids_allocated": len(_births),
        "trace": ring_tail,
        "trace_digest": trace_digest(ring_tail),
        "metrics": metrics,
        "rng_draws": sum(res["rng_draws"] for res in shards)
        + ghost["rng_draws"],
        "flows_injected": sum(res["flows_injected"] for res in shards),
        "final_now": max(res["final_now"] for res in shards),
    }


def summary_results(
    shards: Sequence[Dict[str, Any]],
    ghost: Dict[str, Any],
) -> Dict[str, Any]:
    """Count-level merge for capture-off (throughput-bench) runs.

    Without captured rows, births, and operation logs there is nothing
    to reassemble byte-for-byte; the ghost-subtraction identities on the
    counts still hold and are what a scaling bench needs.
    """
    if not shards:
        raise MergeError("no shard results to merge")
    if not ghost.get("ghost"):
        raise MergeError("ghost result was not run in ghost mode")
    replicas = len(shards)
    return {
        "num_shards": replicas,
        "events": (
            sum(res["events_executed"] for res in shards)
            - (replicas - 1) * ghost["events_executed"]
        ),
        "records_emitted": (
            sum(res["records_emitted"] for res in shards)
            - (replicas - 1) * ghost["records_emitted"]
        ),
        "rng_draws": sum(res["rng_draws"] for res in shards)
        + ghost["rng_draws"],
        "flows_injected": sum(res["flows_injected"] for res in shards),
        "final_now": max(res["final_now"] for res in shards),
    }


def reference_result(sim: Any) -> Dict[str, Any]:
    """Snapshot a finished reference simulator for identity comparison."""
    ring = sim.tracer.tail()
    return {
        "events": sim.events_executed,
        "records_emitted": sim.tracer.records_emitted,
        "trace": ring,
        "trace_digest": trace_digest(ring),
        "metrics": sim.metrics.snapshot(),
    }


def identity_report(
    reference: Dict[str, Any], merged: Dict[str, Any]
) -> Dict[str, bool]:
    """Axis-by-axis identity verdicts, mirroring the fastpath A/B gate.

    Metrics are compared minus the ``shard.*`` / ``fastpath.*`` /
    ``observe.*`` families (per-shard bookkeeping by construction); the
    trace is compared byte-for-byte via canonical JSONL.
    """
    ref_trace = b"".join(
        (r.to_json() + "\n").encode() for r in reference["trace"]
    )
    merged_trace = b"".join(
        (r.to_json() + "\n").encode() for r in merged["trace"]
    )
    ref_metrics = json.dumps(
        strip_non_identity(reference["metrics"]), sort_keys=True
    )
    merged_metrics = json.dumps(
        strip_non_identity(merged["metrics"]), sort_keys=True
    )
    return {
        "events": reference["events"] == merged["events"],
        "records_emitted":
            reference["records_emitted"] == merged["records_emitted"],
        "trace": ref_trace == merged_trace,
        "trace_digest":
            reference["trace_digest"] == merged["trace_digest"],
        "metrics": ref_metrics == merged_metrics,
    }
