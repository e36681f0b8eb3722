import hashlib
import random
import re

import pytest

from odolab.repro import CASES, UnknownCase, run_repro


@pytest.mark.parametrize("name", sorted(CASES))
def test_case_passes(name):
    report = run_repro(name)
    assert report.ok, "\n".join(report.lines())


# sha256 of `odolab repro all` at the default seed, the report lines of every
# case in sorted order; it pins each fact's detail text, not only its verdict
REPRO_ALL_SHA256 = "480c55643aec310d6f09dbafae45f8c6109b4006a4ee37c9777772d03b7f8efd"


def test_repro_all_output_is_frozen():
    text = "".join(line + "\n" for name in sorted(CASES) for line in run_repro(name).lines())
    assert hashlib.sha256(text.encode()).hexdigest() == REPRO_ALL_SHA256


def test_reports_carry_provenance():
    report = run_repro("shear-speedup-classification")
    tags = {f.provenance for f in report.facts}
    assert tags <= {"published", "derived", "trivial"}
    assert "published" in tags


def test_runs_are_deterministic():
    a = run_repro("axis-cone-obstruction", seed=7)
    b = run_repro("axis-cone-obstruction", seed=7)
    assert [f.detail for f in a.facts] == [f.detail for f in b.facts]


def test_unknown_case():
    with pytest.raises(UnknownCase):
        run_repro("definitely-not-a-case")


def test_probe_summary_counts_every_outcome_once():
    # recompute each sampled speedup's outcome from the case's seeded sample
    from odolab.classify import SupergroupDescriptor, continuous_oe_test, fit_descriptor
    from odolab.odometer import OdometerChain
    from odolab.sampling import sample_cocycles
    from odolab.speedup import NotMinimalAtDepth, derived_odometer

    chain = OdometerChain.diagonal_power([3, 2])
    base = fit_descriptor(chain, 4)
    expected = dict.fromkeys(["coe-yes", "coe-no", "undecided", "no-fit", "not-minimal"], 0)
    for c in sample_cocycles(chain, 25, random.Random(20210223)):
        try:
            fitted = fit_descriptor(derived_odometer(c, checked_depth=3), 4)
        except NotMinimalAtDepth:
            expected["not-minimal"] += 1
            continue
        if not isinstance(fitted, SupergroupDescriptor):
            expected["no-fit"] += 1
            continue
        outcome = continuous_oe_test(base, fitted, height=2, denom_bound=2).outcome
        expected[{"yes": "coe-yes", "no": "coe-no"}.get(outcome, outcome)] += 1
    (fact,) = run_repro("continuous-oe-probe").facts
    counts = {key: int(value) for key, value in re.findall(r"([a-z-]+)=(\d+)", fact.detail)}
    assert counts == expected
    assert sum(counts.values()) == 25
