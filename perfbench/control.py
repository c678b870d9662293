"""Positive control for the shard identity check.

    python3 perfbench/control.py

Runs the ``million_flow`` scenario at 2,000 packets with 2 inline
shards against its single-process reference, the way ``nat_sharded``
checks its merge. The scenario has a known cross-shard coupling: its shared ``reclaim()``
timer frees idle flow slots, and which slots are idle depends on which
flows a shard owns, so the ghost-subtracted counts do not add back up.
A check that reports "identical" here is blind; this script exits 0
only when the identity check reports the mismatch:

* capture off: the ghost-subtracted ``reclaimed`` count and the event
  count differ from the reference (231 against 209 reclaimed, 127,460
  against 127,466 events);
* capture on: the merge refuses with ``MergeError`` on the
  ``redplane.flow_table_entries`` gauge.

If it ever exits 1 saying the runs agree, the defect was fixed: the
control needs a new known mismatch, not a looser check.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: The size at which the mismatch below is known.
PACKETS = 2000


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.shard.merge import MergeError
    from repro.shard.runner import resolve, run_reference, run_sharded

    params = {"packets": PACKETS}
    config = resolve("million_flow", 2, capture=False, params=params)
    reference = run_reference(config)
    merged = run_sharded(config, mode="inline")
    counts = {
        "events": [merged["events"], reference["events"]],
        "reclaimed": [merged["extra"]["reclaimed"],
                      reference["extra"]["reclaimed"]],
        "translated": [merged["extra"]["translated"],
                       reference["extra"]["translated"]],
    }
    mismatched = sorted(k for k, (a, b) in counts.items() if a != b)

    captured = resolve("million_flow", 2, capture=True, params=params)
    try:
        run_sharded(captured, mode="inline")
        merge_error = ""
    except MergeError as exc:
        merge_error = str(exc)

    report = {
        "scenario": "million_flow", "packets": PACKETS, "workers": 2,
        "sharded_vs_reference": counts, "mismatched": mismatched,
        "capture_merge_error": merge_error,
    }
    print(json.dumps(report, indent=1))
    caught = ({"events", "reclaimed"} <= set(mismatched)
              and "redplane.flow_table_entries" in merge_error)
    print("positive control: identity check "
          + ("reports the known mismatch" if caught
             else "did NOT report the known mismatch"))
    return 0 if caught else 1


if __name__ == "__main__":
    sys.exit(main())
