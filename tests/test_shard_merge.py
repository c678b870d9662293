"""Merge-layer units: ghost subtraction, peak replay, uid remapping."""

from __future__ import annotations

import pytest

from repro.net.simulator import Simulator
from repro.shard.merge import (
    PEAK_GAUGE_SOURCES,
    UID_FIELDS,
    MergeError,
    _replay_peak_gauges,
    identity_report,
    merge_results,
    reference_result,
    strip_non_identity,
    summary_results,
)
from repro.shard.recorder import ShardRecorder
from repro.shard.runner import resolve


def _counts(events, records, flows, ghost=False):
    return {
        "ghost": ghost,
        "events_executed": events,
        "records_emitted": records,
        "rng_draws": 0,
        "flows_injected": flows,
        "final_now": 100.0,
    }


def test_summary_results_ghost_subtraction():
    """N shards each replay the shared work; the ghost run measures
    exactly that shared part, so sum - (N-1)*ghost is the reference."""
    shards = [_counts(1000, 400, 30), _counts(900, 350, 20)]
    ghost = _counts(500, 200, 0, ghost=True)
    merged = summary_results(shards, ghost)
    assert merged["events"] == 1000 + 900 - 500
    assert merged["records_emitted"] == 400 + 350 - 200
    assert merged["flows_injected"] == 50
    assert merged["num_shards"] == 2
    assert merged["final_now"] == 100.0


def test_summary_results_requires_a_ghost():
    with pytest.raises(MergeError):
        summary_results([_counts(1, 1, 1)], _counts(1, 1, 0))


def test_uid_fields_cover_every_correlation_slot():
    # 'cause' is the ack's originating-request uid — forgetting it left
    # unremapped uids in merged traces once; keep the contract explicit.
    assert {"uid", "parent", "req_uid", "parent_uid", "cause"} <= UID_FIELDS


def test_strip_non_identity_drops_bookkeeping_families():
    snap = {
        "counters": {
            "packets_total": 7.0,
            "shard.flows_owned": 3.0,
            "fastpath.hits": 5.0,
            "observe.heartbeats": 1.0,
        },
        "gauges": {"switch.buffer_peak_bytes{sw=agg1}": 240.0},
        "histograms": {},
    }
    stripped = strip_non_identity(snap)
    assert set(stripped["counters"]) == {"packets_total"}
    assert "switch.buffer_peak_bytes{sw=agg1}" in stripped["gauges"]


# -- peak-gauge replay ---------------------------------------------------------

SRC = "switch.buffer_occupancy_bytes{switch=agg1}"
PEAK = "switch.buffer_peak_bytes{switch=agg1}"


def _shard(shard, flow_ranks, owned, ops):
    return {
        "shard": shard,
        "flow_ranks": list(flow_ranks),
        "owned_flow_ranks": list(owned),
        "gauge_ops": [list(o) for o in ops],
    }


def test_peak_replay_reconstructs_the_interleaved_maximum():
    """Each shard alone peaks at 100; interleaved in global time order
    the occupancy stacks to 160 — the reference's peak. A max-over-
    shards merge would report 100 and be wrong."""
    # (describe, ts, rank, op_idx, op, amount); ranks 1 and 2 are flow
    # roots owned by shards 0 and 1 respectively.
    s0 = _shard(0, {1, 2}, {1}, [
        (SRC, 1.0, 1, 0, "add", 100.0),
        (SRC, 4.0, 1, 1, "add", -100.0),
    ])
    s1 = _shard(1, {1, 2}, {2}, [
        (SRC, 2.0, 2, 0, "add", 60.0),
        (SRC, 3.0, 2, 1, "add", -60.0),
    ])
    ghost = _shard(0, {1, 2}, set(), [])
    ghost["ghost"] = True
    peaks = _replay_peak_gauges([s0, s1], ghost)
    assert peaks == {PEAK: 160.0}


def test_peak_replay_set_resets_the_level():
    s0 = _shard(0, {1}, {1}, [
        (SRC, 1.0, 1, 0, "add", 50.0),
        (SRC, 2.0, 1, 1, "set", 10.0),
        (SRC, 3.0, 1, 2, "add", 5.0),
    ])
    ghost = _shard(0, {1}, set(), [])
    ghost["ghost"] = True
    peaks = _replay_peak_gauges([s0], ghost)
    assert peaks == {PEAK: 50.0}


def test_peak_replay_validates_shared_ops_across_replicas():
    shared_op = (SRC, 1.0, 0, 0, "add", 10.0)  # rank 0 is not a flow root
    s0 = _shard(0, {5}, {5}, [shared_op])
    s1 = _shard(1, {5}, set(), [(SRC, 1.0, 0, 0, "add", 999.0)])
    ghost = _shard(0, {5}, set(), [shared_op])
    ghost["ghost"] = True
    with pytest.raises(MergeError, match="diverge"):
        _replay_peak_gauges([s0, s1], ghost)


def test_peak_sources_table_names_real_instruments():
    for peak_name, source_name in PEAK_GAUGE_SOURCES.items():
        assert peak_name != source_name
        assert peak_name.startswith("switch.")


# -- owned ring tail -----------------------------------------------------------

RING = 64


def _recorded_nat_steady(shard_index, ghost=False):
    """One nat_steady shard (or the ghost) of 2 under a 64-record trace
    ring, returned before ``result()`` runs."""
    config = resolve("nat_steady", 2)
    recorder = ShardRecorder(
        shard_index, 2, config.key_fields, pinned=config.pinned,
        ghost=ghost,
    )
    sim = Simulator(seed=config.seed, trace_ring=RING)
    recorder.attach(sim, config.seed)
    config.scenario.fn(sim, lambda until: sim.run(until=until))
    return recorder


def _small_ring_merge_inputs():
    shards = [_recorded_nat_steady(i).result() for i in range(2)]
    ghost = _recorded_nat_steady(0, ghost=True).result()
    return shards, ghost


def test_owned_tail_merge_matches_a_small_reference_ring():
    """Each shard ships at most RING owned rows, out of thousands, and
    the merged ring still equals the reference's byte for byte."""
    shards, ghost = _small_ring_merge_inputs()
    assert all(len(res["owned_tail"]) == RING for res in shards)
    assert all(res["owned_rows"] > 10 * RING for res in shards)
    config = resolve("nat_steady", 2)
    sim = Simulator(seed=config.seed, trace_ring=RING)
    config.scenario.fn(sim, lambda until: sim.run(until=until))
    report = identity_report(reference_result(sim),
                             merge_results(shards, ghost))
    assert all(report.values()), report


def test_unborn_uid_outside_the_shipped_tail_still_raises():
    """The merge never sees an owned row cut from the ring tail, so the
    shard checks its uids before cutting it."""
    recorder = _recorded_nat_steady(0)
    owned = sorted(
        (row for row in recorder.rows
         if row[1] in recorder.owned_flow_ranks and "uid" in row[3].fields),
        key=lambda row: row[:3],
    )
    assert len(owned) > RING
    owned[0][3].fields["uid"] = len(recorder.births) + 1
    with pytest.raises(MergeError, match="never born"):
        recorder.result()


def test_off_by_one_owned_rows_trips_the_records_emitted_identity():
    shards, ghost = _small_ring_merge_inputs()
    merge_results(shards, ghost)
    shards[1]["owned_rows"] += 1
    with pytest.raises(MergeError, match="records_emitted"):
        merge_results(shards, ghost)
