"""Self-checks of the benchmark: tracer coverage, time accounting, metric
names, speed scaling.

Run from the repository root with `python3 -m pytest perfbench -q`.  The
construction workloads run with fewer stages here than in the benchmark.
"""

from __future__ import annotations

import json
import math
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from odolab import classify, construction  # noqa: E402

# layer functions and the workload that keeps each of them busy
BUSY = {
    "construct-quadrant": (
        "lattice.reduce", "odometer.stage", "speedup.cone_contains", "castles.atomspace_new",
        "castles.translate", "castles.fibers", "castles.minimal_cone_vector",
        "castles.refine_pure_columns", "castles.castle_refinement_over",
        "construction.run", "construction.audit", "formats.parse",
    ),
    "construct-derived": (
        "lattice.reduce", "lattice.hnf", "lattice.coset_system", "odometer.stage",
        "speedup.cone_contains", "speedup.permutation", "speedup.orbit_of_zero",
        "speedup.derived_stage", "speedup.validate", "castles.atomspace_new", "castles.translate",
        "castles.fibers", "castles.minimal_cone_vector", "castles.refine_pure_columns",
        "castles.castle_refinement_over", "construction.run", "construction.audit", "formats.parse",
    ),
    "derive-classify": (
        "lattice.reduce", "lattice.hnf", "lattice.coset_system", "lattice.dual", "lattice.intersect",
        "odometer.stage", "odometer.cohomology_stage", "speedup.cone_contains", "speedup.permutation",
        "speedup.orbit_of_zero", "speedup.derived_stage", "speedup.validate",
        "classify.fit_descriptor", "classify.descriptor_make", "classify.member", "classify.verdict",
        "sampling.sample_cocycles", "formats.parse",
    ),
}
SHORT_STAGES = {"construct-quadrant": 2, "construct-derived": 1}


@pytest.fixture(scope="module")
def traced_units():
    """One traced unit per workload, construction workloads shortened."""
    saved = dict(workloads.CONSTRUCT_STAGES)
    workloads.CONSTRUCT_STAGES.update(SHORT_STAGES)
    try:
        out = {}
        for name, (run_unit, check) in workloads.WORKLOADS.items():
            tracer = tracing.Tracer(extra_modules=[workloads])
            with tracer:
                tracer.open("unit")
                unit = run_unit(name, workloads.DEFAULT_SEED, workloads.Timer(tracer), 1)
                wall = tracer.close("unit")
            out[name] = (tracer, unit, wall, check(unit))
        return out
    finally:
        workloads.CONSTRUCT_STAGES.clear()
        workloads.CONSTRUCT_STAGES.update(saved)


def test_busy_functions_record_calls(traced_units):
    # a wrapper that missed an importing namespace shows up as zero calls
    for name, functions in BUSY.items():
        metrics = traced_units[name][0].metrics()
        missing = [f for f in functions if metrics[f"{f}.calls"] == 0]
        assert not missing, (name, missing)
    assert set().union(*BUSY.values()) == set(tracing.NAMES)


def test_self_times_account_for_the_traced_wall(traced_units):
    for name, (tracer, _, wall, _) in traced_units.items():
        assert tracer.stack == []
        assert math.isclose(tracer.accounted_s(), wall, rel_tol=1e-6), name
        assert all(t >= -1e-6 for t in tracer.self_s.values()), name


def test_traced_outputs_pass_every_check(traced_units):
    for name, (_, _, _, checks) in traced_units.items():
        assert checks.results and not checks.failed, (name, checks.failed)


def test_uninstall_restores_every_namespace():
    oe = classify.orbit_equivalence_test
    before = {(id(owner), attr): vars(owner)[attr] for _, owner, attr in tracing.TARGETS}
    with tracing.Tracer():
        # the name construction imported directly is wrapped as well
        assert construction.orbit_equivalence_test is not oe
        assert construction.orbit_equivalence_test.__wrapped__ is oe
    assert construction.orbit_equivalence_test is oe
    assert all(vars(owner)[attr] is before[(id(owner), attr)] for _, owner, attr in tracing.TARGETS)


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer()


def test_refuses_to_run_without_the_library(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "derive-classify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_speed_probe_scales_by_the_probe_time():
    with speed.SpeedProbe() as probe:
        start = time.perf_counter()
        while len(probe.durations) < 2 * speed.MIN_SAMPLES:
            speed.probe_work()
        end = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    busy = probe.busy_s(start, end)
    assert 0 < busy < end - start
    inside = [d for s, d in zip(probe.starts, probe.durations) if start <= s <= end]
    expected = (end - start - busy) * speed.REFERENCE_S / statistics.harmonic_mean(inside)
    assert math.isclose(probe.scaled(start, end), expected)
    # a short interval borrows the probes around it
    assert probe.probe_s(end, end) == statistics.harmonic_mean(probe.durations[-speed.MIN_SAMPLES:])
