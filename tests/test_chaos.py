"""Tests for the chaos engine: campaigns, verdict reports, determinism,
and the CLI entry point."""

import json

import pytest

from repro.chaos import CAMPAIGNS, run_campaign, verdict_json
from repro.tools.runner import main as tools_main


def test_campaign_inventory_is_complete():
    assert len(CAMPAIGNS) >= 11
    assert {
        "single_failover", "flapping_link", "gray_link",
        "partitioned_store_head", "rolling_rack_failure", "lease_race",
        "duplicate_storm", "corruption_sweep", "store_crash_recover_wal",
        "corruption_storm", "corruption_storm_store",
    } <= set(CAMPAIGNS)
    for name, campaign in CAMPAIGNS.items():
        assert campaign.name == name
        assert campaign.description
        assert campaign.build is not None


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_every_campaign_passes_with_zero_violations(name):
    """The acceptance bar: all shipped campaigns end PASS — invariants
    held on every sample and the delivered history linearizable."""
    report = run_campaign(name, seed=42)
    assert report["verdict"] == "PASS"
    assert report["invariants"]["held"]
    assert report["invariants"]["violations"] == []
    assert report["invariants"]["samples"] > 0
    assert report["linearizable"]
    assert report["traffic"]["delivered"] > 0
    # The sync counter must never hand two packets the same state value.
    assert report["traffic"]["duplicate_values"] == 0
    assert report["faults"], "a chaos campaign with no faults is a no-op"


def test_same_seed_runs_are_byte_identical():
    first = verdict_json(run_campaign("gray_link", seed=42))
    second = verdict_json(run_campaign("gray_link", seed=42))
    assert first == second


def test_different_seed_changes_outcome_not_verdict():
    report = run_campaign("gray_link", seed=7)
    assert report["seed"] == 7
    assert report["verdict"] == "PASS"


def test_report_shape():
    report = run_campaign("single_failover", seed=42)
    assert report["schema"] == 1
    for key in ("campaign", "seed", "faults", "traffic", "invariants",
                "linearizable", "recovery_latency_us", "counters",
                "verdict"):
        assert key in report
    for fault in report["faults"]:
        assert set(fault) == {"time_us", "kind", "target", "detail"}
    recovery = report["recovery_latency_us"]
    assert recovery["events"] >= 1
    assert recovery["p50_us"] <= recovery["p99_us"] <= recovery["max_us"]
    # Round-trips through JSON without custom encoders.
    json.loads(verdict_json(report))


def test_faults_exercise_their_machinery():
    """Each campaign's signature counter actually moved."""
    storm = run_campaign("duplicate_storm", seed=42)
    assert storm["counters"]["link_frames_duplicated"] > 0
    assert (storm["counters"]["store_stale_rejections"]
            + storm["counters"]["stale_acks_ignored"]) > 0

    partition = run_campaign("partitioned_store_head", seed=42)
    assert partition["counters"]["link_drops_partition"] > 0
    assert partition["counters"]["retransmissions"] > 0

    rack = run_campaign("rolling_rack_failure", seed=42)
    assert rack["counters"]["chain_reconfigurations"] >= 1

    sweep = run_campaign("corruption_sweep", seed=42)
    assert sweep["counters"]["link_drops_corrupt"] > 0


def test_unknown_campaign_raises():
    with pytest.raises(KeyError, match="unknown campaign"):
        run_campaign("no-such-campaign")


def test_cli_list(capsys):
    assert tools_main(["chaos", "--list"]) == 0
    out = capsys.readouterr().out
    assert len(out.strip().splitlines()) >= 8
    assert "gray_link" in out


def test_cli_run_writes_report_and_checks_determinism(tmp_path, capsys):
    out_path = tmp_path / "verdict.json"
    code = tools_main(["chaos", "lease_race", "--json",
                       "--out", str(out_path), "--check-determinism"])
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["campaign"] == "lease_race"
    assert report["verdict"] == "PASS"
    assert json.loads(capsys.readouterr().out) == report


@pytest.mark.parametrize("name", ["single_failover", "gray_link",
                                  "lease_race", "duplicate_storm"])
def test_campaign_verdict_identical_with_fastpath(name):
    """The fast path must be invisible to chaos auditing: the same
    campaign with the flow caches and compiled lanes installed
    produces a byte-identical verdict report. Every fault injection
    publishes on the invalidation bus, so no replay can race a fault."""
    reference = verdict_json(run_campaign(name, seed=42))
    accelerated = verdict_json(run_campaign(name, seed=42, fastpath=True))
    assert accelerated == reference
