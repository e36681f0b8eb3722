"""Reproduction catalog: every worked example as an executable case.

Each case embeds its input specs verbatim, parses them in memory with the
real parsers, runs the pipeline, and compares exact values.  A cocycle's
`chain=` header is not read there: the case parses the embedded chain
spec and passes that chain.  Expected facts carry a provenance tag:
'published' for values transcribed from the source material, 'derived'
for values computed here by an independent oracle, 'trivial' for
bookkeeping identities.
"""

from __future__ import annotations

import random
from fractions import Fraction

from ._record import record
from .classify import (
    SupergroupDescriptor,
    conjugate_test,
    continuous_oe_test,
    fit_descriptor,
    isomorphism_test,
    orbit_equivalence_test,
)
from .construction import SpeedupConstruction
from .formats import parse_chain, parse_cocycle, parse_cone, parse_descriptor
from .lattice import IntegerLattice, RationalLattice
from .sampling import sample_cocycles
from .speedup import (
    Cone,
    HypothesisFailed,
    NotMinimalAtDepth,
    cone_check,
    cone_hull,
    derived_chain,
    derived_odometer,
    minimality_to_depth,
    product_form_check,
    sandwich_diagonal_check,
    validate,
)


class UnknownCase(ValueError):
    pass


@record(frozen=True)
class Fact:
    name: str
    provenance: str  # published | derived | trivial
    passed: bool
    detail: str = ""


@record
class CaseReport:
    name: str
    facts: list[Fact]

    def __init__(self, name, facts=()):
        self.name = name
        self.facts = list(facts)

    @property
    def ok(self) -> bool:
        return all(f.passed for f in self.facts)

    def add(self, name, provenance, passed, detail=""):
        self.facts.append(Fact(name, provenance, bool(passed), detail))

    def lines(self):
        out = [f"case {self.name}: {'PASS' if self.ok else 'FAIL'}"]
        for f in self.facts:
            out.append(
                f"  {'PASS' if f.passed else 'FAIL'} [{f.provenance}] {f.name}"
                + (f" ({f.detail})" if f.detail else "")
            )
        return out


# ---------------------------------------------------------------- inputs

MIXED_CHAIN = "dim=2 provider=diagpow primes=3,2 exps=j,j"
DYADIC_CHAIN = "dim=2 provider=diagpow primes=2,2 exps=j,j"
TARGET_CHAIN = "dim=1 provider=diagpow primes=6 exps=j"

ROW_SHEAR_COCYCLE = """\
chain=mixed.chain J=1 d2=2
gen 1:
rep (0,0) -> (1,0)
rep (0,1) -> (1,0)
rep (1,0) -> (1,0)
rep (1,1) -> (1,0)
rep (2,0) -> (1,0)
rep (2,1) -> (1,0)
gen 2:
rep (0,0) -> (0,1)
rep (0,1) -> (1,1)
rep (1,0) -> (0,1)
rep (1,1) -> (1,1)
rep (2,0) -> (0,1)
rep (2,1) -> (1,1)
"""

STAIRCASE_COCYCLE = """\
chain=dyadic.chain J=1 d2=2
gen 1:
rep (0,0) -> (1,0)
rep (0,1) -> (1,0)
rep (1,0) -> (1,0)
rep (1,1) -> (1,0)
gen 2:
rep (0,0) -> (1,1)
rep (0,1) -> (1,1)
rep (1,0) -> (1,1)
rep (1,1) -> (1,1)
"""

BASE_DESCRIPTOR = "dim=2 shear=1,0,0,1 supports=3|2"
SHEARED_DESCRIPTOR = "dim=2 shear=1,0,-1/2,1 supports=3|2"
DYADIC_DESCRIPTOR = "dim=2 shear=1,0,0,1 supports=2|2"
QUADRANT_CONE = "cone=quadrant dim=2"


def _cocycle(text: str, chain_spec: str):
    """An embedded cocycle on the parsed chain spec, validated as
    `load_cocycle` validates, so an invalid table raises."""
    cocycle = parse_cocycle(text, chain=parse_chain(chain_spec))
    validate(cocycle)
    return cocycle


# ---------------------------------------------------------------- cases

def _case_shear_speedup(report: CaseReport, rng):
    cocycle = _cocycle(ROW_SHEAR_COCYCLE, MIXED_CHAIN)
    report.add("cocycle-validates", "published", validate(cocycle, raise_on_error=False).ok)

    chain = derived_odometer(cocycle, checked_depth=2)
    for j in range(1, 6):
        expected = IntegerLattice.from_rows([[3**j, 3**j - 2 ** (j - 1)], [0, 2**j]])
        report.add(
            f"derived-stage-{j}",
            "published",
            chain.stage(j) == expected,
            f"{chain.stage(j)}",
        )
        stated_dual = RationalLattice.from_scaled_rows(
            6**j, [[2**j, 0], [2 ** (j - 1) - 3**j, 3**j]]
        )
        report.add(
            f"dual-stage-{j}",
            "published",
            chain.cohomology_stage(j) == stated_dual,
            f"{chain.cohomology_stage(j)}",
        )

    sheared = parse_descriptor(SHEARED_DESCRIPTOR)
    base = parse_descriptor(BASE_DESCRIPTOR)
    fitted = fit_descriptor(chain, 5)
    report.add("fitted-descriptor-is-half-shear", "published", fitted == sheared, fitted.describe())

    vec = (Fraction(1, 3), Fraction(1, 6))
    report.add("separating-vector-in-speedup-group", "published", sheared.member(vec))
    report.add("separating-vector-not-in-base-group", "published", not base.member(vec))

    iso = isomorphism_test(base, sheared)
    report.add(
        "isomorphism-ruled-out-by-content-2",
        "published",
        iso.outcome == "no" and "content 2" in str(iso.certificate),
        str(iso.certificate),
    )
    coe = continuous_oe_test(base, sheared, denom_bound=2)
    report.add("continuous-oe-found", "derived", coe.outcome == "yes", str(coe.witness))
    conj = conjugate_test(desc_t=base, desc_s=sheared)
    report.add("not-conjugate", "published", conj.outcome == "no")
    oe = orbit_equivalence_test(parse_chain(MIXED_CHAIN), chain)
    report.add("orbit-equivalent", "trivial", oe.outcome == "yes")


def _case_dyadic_speedup(report: CaseReport, rng):
    cocycle = _cocycle(STAIRCASE_COCYCLE, DYADIC_CHAIN)
    flags = minimality_to_depth(cocycle, 8)
    report.add("minimal-to-depth-8", "published", all(flags.values()), str(flags[8]))

    rep = derived_chain(cocycle, 8)
    diagonal_powers = True
    increments = True
    prev = None
    for j in range(1, 9):
        lat = rep.stage(j)
        d = lat.diag
        if not lat.is_diagonal() or any(x & (x - 1) for x in d):
            diagonal_powers = False
        if j == 1 and d != (2, 2):
            diagonal_powers = False
        if prev is not None and any(b not in (a, 2 * a) for a, b in zip(prev, d)):
            increments = False
        prev = d
    report.add("derived-stages-dyadic-diagonal", "published", diagonal_powers)
    report.add("exponent-increments-at-most-one", "published", increments)

    chain = derived_odometer(cocycle, checked_depth=3)
    fitted = fit_descriptor(chain, 4)
    desc = parse_descriptor(DYADIC_DESCRIPTOR)
    conj = conjugate_test(desc_t=desc, desc_s=fitted)
    report.add("conjugate-to-dyadic-square", "published", conj.outcome == "yes")


def _case_axis_obstruction(report: CaseReport, rng):
    cocycle = _cocycle(ROW_SHEAR_COCYCLE, MIXED_CHAIN)

    hull = cone_hull(cocycle)
    report.add(
        "value-hull-is-first-quadrant-sector",
        "derived",
        hull.sector_data[:2] == ((1, 0), (0, 1)),
        hull.describe(),
    )
    # cones missing an axis cannot host these values
    for name, cone in (
        ("strict-x-axis", Cone.quadrant(2, strict_axes=(1,))),
        ("strict-y-axis", Cone.quadrant(2, strict_axes=(0,))),
        ("off-axis-sector", Cone.sector((2, 1), (1, 2))),
    ):
        ok, witnesses = cone_check(cocycle, cone)
        report.add(f"cone-without-axis-rejected-{name}", "published", not ok, str(witnesses[:1]))
    ok, _ = cone_check(cocycle, Cone.quadrant(2))
    report.add("inclusive-quadrant-accepted", "published", ok)

    # rigidity probe: diagonal derived chains force product form
    chain = parse_chain(MIXED_CHAIN)
    samples = sample_cocycles(chain, 120, rng)
    diag = lambda j: IntegerLattice.diagonal([3**j, 2**j])
    checked = hits = consistent = 0
    for c in samples:
        quad_ok, _ = cone_check(c, Cone.quadrant(2))
        if not quad_ok:
            continue
        checked += 1
        try:
            drep = derived_chain(c, 3)
        except NotMinimalAtDepth:
            continue
        if all(drep.stage(j) == diag(j) for j in (1, 2, 3)):
            hits += 1
            if product_form_check(c):
                consistent += 1
    report.add(
        "diagonal-derived-samples-exist",
        "derived",
        hits > 0,
        f"{hits} of {checked}",
    )
    report.add(
        "rigidity-probe-consistent",
        "published",
        hits == consistent,
        f"{consistent}/{hits}",
    )


def _case_sandwich_rigidity(report: CaseReport, rng):
    for target_index, m, expected in (
        (6, 1, IntegerLattice.diagonal([3, 2])),
        (36, 2, IntegerLattice.diagonal([9, 4])),
    ):
        hits = []
        for a in range(1, target_index + 1):
            if target_index % a:
                continue
            d = target_index // a
            for b in range(a):
                lat = IntegerLattice(2, ((a, b), (0, d)))
                try:
                    ok = sandwich_diagonal_check(lat, m, 0)
                except HypothesisFailed:
                    continue
                if not ok:
                    report.add(f"sandwich-index-{target_index}", "published", False, str(lat))
                    return
                hits.append(lat)
        report.add(
            f"sandwich-index-{target_index}",
            "derived",
            hits == [expected],
            f"{len(hits)} sandwiched lattice(s)",
        )


def _case_construction(report: CaseReport, rng):
    source = parse_chain(MIXED_CHAIN)
    target = parse_chain(TARGET_CHAIN)
    cone = parse_cone(QUADRANT_CONE)
    oe = orbit_equivalence_test(source, target)
    report.add("value-groups-match", "derived", oe.outcome == "yes", str(oe.witness))
    con = SpeedupConstruction(source, target, cone).run(3)
    for k in range(3):
        stage = con.stage_invariants(k)
        for name, ok, detail in stage.checks:
            report.add(f"stage{k}-{name}", "derived", ok, detail)
    for k in (1, 2):
        rec = con.stages[k]
        mu_f = Fraction(len(rec.f_atoms), con.source.index(rec.gamma))
        report.add(
            f"stage{k}-swap-measure-exact",
            "published",
            mu_f <= 4 * con.anchor_measure(k),
            f"{mu_f} <= {4 * con.anchor_measure(k)}",
        )


def _case_classification_catalog(report: CaseReport, rng):
    base = parse_descriptor(BASE_DESCRIPTOR)
    sheared = parse_descriptor(SHEARED_DESCRIPTOR)
    dyadic = parse_descriptor(DYADIC_DESCRIPTOR)
    mixed = parse_chain(MIXED_CHAIN)
    dy = parse_chain(DYADIC_CHAIN)
    rank_one = parse_chain(TARGET_CHAIN)
    row_shear = derived_odometer(_cocycle(ROW_SHEAR_COCYCLE, MIXED_CHAIN), checked_depth=2)
    stairs = derived_odometer(_cocycle(STAIRCASE_COCYCLE, DYADIC_CHAIN), checked_depth=2)
    pairs = [
        ("mixed-vs-its-speedup", base, sheared, mixed, row_shear),
        ("dyadic-vs-its-speedup", dyadic, fit_descriptor(stairs, 4), dy, stairs),
        ("mixed-vs-dyadic", base, dyadic, mixed, dy),
        ("mixed-vs-itself", base, base, mixed, mixed),
        ("mixed-vs-rank-one", base, fit_descriptor(rank_one, 3), mixed, rank_one),
    ]
    strength = {"yes": 1, "undecided": 0, "no": -1}
    for name, da, db, ca, cb in pairs:
        verdicts = [
            conjugate_test(desc_t=da, desc_s=db),
            isomorphism_test(da, db),
            continuous_oe_test(da, db, denom_bound=2),
            orbit_equivalence_test(ca, cb),
        ]
        ladder_ok = True
        for earlier, later in zip(verdicts, verdicts[1:]):
            if strength[earlier.outcome] == 1 and strength[later.outcome] == -1:
                ladder_ok = False
        report.add(
            f"ladder-{name}",
            "published",
            ladder_ok,
            " / ".join(v.outcome for v in verdicts),
        )


def _case_continuous_oe_probe(report: CaseReport, rng):
    """Exploratory probe only: whether bounded speedups of the mixed chain
    look continuously orbit equivalent to it.  Observations are reported
    and never asserted."""
    chain = parse_chain(MIXED_CHAIN)
    base = fit_descriptor(chain, 4)
    samples = sample_cocycles(chain, 25, rng)
    yes = no = undecided = nofit = notmin = 0
    for c in samples:
        try:
            derived = derived_odometer(c, checked_depth=3)
        except NotMinimalAtDepth:
            notmin += 1
            continue
        fitted = fit_descriptor(derived, 4)
        if not isinstance(fitted, SupergroupDescriptor):
            nofit += 1
            continue
        verdict = continuous_oe_test(base, fitted, height=2, denom_bound=2)
        if verdict.outcome == "yes":
            yes += 1
        elif verdict.outcome == "no":
            no += 1
        else:
            undecided += 1
    report.add(
        "probe-summary",
        "derived",
        True,
        f"coe-yes={yes} coe-no={no} undecided={undecided} no-fit={nofit} not-minimal={notmin} "
        "(observations only; nothing asserted)",
    )


CASES = {
    "shear-speedup-classification": _case_shear_speedup,
    "dyadic-speedup-conjugacy": _case_dyadic_speedup,
    "axis-cone-obstruction": _case_axis_obstruction,
    "sandwich-lattice-rigidity": _case_sandwich_rigidity,
    "cone-speedup-construction": _case_construction,
    "classification-ladder": _case_classification_catalog,
    "continuous-oe-probe": _case_continuous_oe_probe,
}


def run_repro(name: str, seed: int = 20210223) -> CaseReport:
    if name not in CASES:
        raise UnknownCase(f"unknown case {name!r}; known: {', '.join(sorted(CASES))}")
    report = CaseReport(name)
    rng = random.Random(seed)
    CASES[name](report, rng)
    return report
