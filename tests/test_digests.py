"""Frozen construction digests, checked by the test suite.

The benchmark hashes a canonical text of every `StageRecord` (towers,
steps and swap sets; `perfbench/workloads.py::stage_record_lines`) and
compares it with `perfbench/digests.json`.  Here the same text is hashed
for quadrant stages 0-2 and derived stages 0-1, so a change of the castle
representation that moves one atom or one step fails the suite, not only
the benchmark run.  Quadrant stage 3 is left to the benchmark.

`FROZEN` holds the stage 0-2 digests of runs the benchmark does not hash:
every inductive stage of them separates the two anchors out of one
pretower.  The sector, derived-sector, dyadic and mirrored-quadrant runs
are checked by the tests in `test_construction.py` that already build them.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402
from odolab.construction import SpeedupConstruction  # noqa: E402
from odolab.odometer import OdometerChain  # noqa: E402
from odolab.speedup import Cone  # noqa: E402

FROZEN = {
    # diagonal primes=3,2 -> 6^j, Cone.sector((1, 0), (1, 1))
    "sector": (
        "66db87b51b6453f1a8c1f655a9503bacbbc4e7438bd7f716bcb1eb7faca67afe",
        "2e27b6afc99e3710bf8df1458c63840187bafe1209bc45897a09bff7ec39d966",
        "4e7cc4ec90859946d22d5c30519f0a883c69f8de4d95597df39a887faa5b9670",
    ),
    # derived row-shear chain -> 6^j, the same sector
    "derived-sector": (
        "34272fbbf6f9851b1001cfe8e4abae149c7ea307e93f7f32160e304182bb683f",
        "754112736cf11c7e90b268539033c95d8814c21dbcc32f5876f84a1cf818e2f1",
        "66c6de371f615df52add78044c751144062d840a1218fe91bb759d2ca2424b9b",
    ),
    # diagonal primes=2,2 -> 4^j, quadrant
    "dyadic": (
        "2d9f1afffc0a6dcc92b6e5eecac06d0c756e4163c6194a9c55407284b896fdcd",
        "70b4bf7b16af59c62d7804154fe9a58ba0b87fb6314df4541b6518aeee0ca4c5",
        "b0ebabd5717ddf021bca85a42101fc3d567d7b79b209a0c41d30b818a5f2bede",
    ),
    # diagonal primes=2,2,2 -> 8^j, Cone.quadrant(3)
    "cube": (
        "b8012d62ca32da9f9f7f52ae1cc8c78bf1dd28884db966053f01acc852069132",
        "791d470940e7bbcfa616117c399379e31e21fc2c68fe1b940abe2d4e0894b0da",
        "3973ce8c469d32c8b3aa80a9c537cc81d6354ca13fe306c87e333ccf596b2a9f",
    ),
    # diagonal primes=3,2 -> 6^j, the mirrored quadrant x <= 0, y <= 0, whose
    # base stage trades the top's two least atoms
    "mirrored": (
        "71dbfe66a9ea7a9d67dbf1a11112a51b2b50b3d62ee28b7dde738cb2659a7814",
        "5752ca4e5c4816b869cbf1cf079569b05dc5c4ebf10365c7729f2efcae958dbc",
        "ff5bb8ca3d6b41121d1acec11365a8e3f3d70078f2b4dbbaf0c6b51c03631eb9",
    ),
}


def stage_digests(con) -> tuple[str, ...]:
    return tuple(workloads._sha(workloads.stage_record_lines(rec)) for rec in con.stages)


@pytest.mark.parametrize("workload, stages", [("construct-quadrant", 3), ("construct-derived", 2)])
def test_stage_records_match_the_frozen_digests(workload, stages):
    frozen = json.loads(workloads.DIGEST_FILE.read_text())[workload]
    con = workloads._construct_setup(workload).run(stages)
    for k, rec in enumerate(con.stages):
        assert workloads._sha(workloads.stage_record_lines(rec)) == frozen[f"stage{k}"], (workload, k)


def test_cube_stage_records_match_the_frozen_digests():
    con = SpeedupConstruction(
        OdometerChain.diagonal_power([2, 2, 2]), OdometerChain.diagonal_power([8]), Cone.quadrant(3)
    ).run(3)
    assert stage_digests(con) == FROZEN["cube"]
