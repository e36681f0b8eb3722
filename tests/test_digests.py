"""Frozen construction digests, checked by the test suite.

The benchmark hashes a canonical text of every `StageRecord` (towers,
steps and swap sets; `perfbench/workloads.py::stage_record_lines`) and
compares it with `perfbench/digests.json`.  Here the same text is hashed
for quadrant stages 0-2 and derived stages 0-1, so a change of the castle
representation that moves one atom or one step fails the suite, not only
the benchmark run.  Quadrant stage 3 is left to the benchmark.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("workload, stages", [("construct-quadrant", 3), ("construct-derived", 2)])
def test_stage_records_match_the_frozen_digests(workload, stages):
    frozen = json.loads(workloads.DIGEST_FILE.read_text())[workload]
    con = workloads._construct_setup(workload).run(stages)
    for k, rec in enumerate(con.stages):
        assert workloads._sha(workloads.stage_record_lines(rec)) == frozen[f"stage{k}"], (workload, k)
