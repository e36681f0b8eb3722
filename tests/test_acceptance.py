"""Acceptance gate: one test per criterion, exact values, stated budgets.

Every expected number here is either transcribed from the source material
or frozen from an independent brute-force oracle; nothing is tuned to the
implementation under test.  Each criterion prints its own pass/fail line.
"""

import random
import time
from fractions import Fraction

from odolab.castles import AtomSpace
from odolab.classify import (
    SupergroupDescriptor,
    conjugate_test,
    continuous_oe_test,
    fit_descriptor,
    isomorphism_test,
    orbit_equivalence_test,
)
from odolab.construction import SpeedupConstruction
from odolab.lattice import IntegerLattice, RationalLattice, SingularBasis
from odolab.odometer import OdometerChain
from odolab.sampling import sample_cocycles
from odolab.speedup import (
    Cone,
    HypothesisFailed,
    NotMinimalAtDepth,
    cone_check,
    derived_chain,
    derived_odometer,
    minimality_to_depth,
    product_form_check,
    sandwich_diagonal_check,
    validate,
    walk,
)

from _oracles import anchor_towers
from test_speedup import row_shear_cocycle, staircase_cocycle


def _report(name: str, started: float, budget: float):
    elapsed = time.time() - started
    print(f"ACCEPTANCE {name}: PASS in {elapsed:.2f}s (budget {budget:.0f}s)")
    assert elapsed < budget, f"{name} exceeded its runtime budget"


def test_criterion_1_shear_speedup_pipeline():
    started = time.time()
    cocycle = row_shear_cocycle()
    assert validate(cocycle, raise_on_error=False).ok
    chain = derived_odometer(cocycle, checked_depth=2)
    for j in range(1, 6):
        assert chain.stage(j) == IntegerLattice.from_rows(
            [[3**j, 3**j - 2 ** (j - 1)], [0, 2**j]]
        )
        assert chain.cohomology_stage(j) == RationalLattice.from_scaled_rows(
            6**j, [[2**j, 0], [2 ** (j - 1) - 3**j, 3**j]]
        )
    base = SupergroupDescriptor.coordinate([{3}, {2}])
    sheared = fit_descriptor(chain, 5)
    vec = (Fraction(1, 3), Fraction(1, 6))
    assert sheared.member(vec) and not base.member(vec)
    iso = isomorphism_test(base, sheared)
    assert iso.outcome == "no" and "content 2" in iso.certificate
    coe = continuous_oe_test(base, sheared, denom_bound=2)
    assert coe.outcome == "yes"
    alpha = coe.witness
    det = alpha[0][0] * alpha[1][1] - alpha[0][1] * alpha[1][0]
    assert det in (1, -1)
    _report("1 shear-speedup pipeline", started, 5.0)


def test_criterion_2_dyadic_speedup_pipeline():
    started = time.time()
    cocycle = staircase_cocycle()
    flags = minimality_to_depth(cocycle, 8)
    assert all(flags.values())
    report = derived_chain(cocycle, 8)
    prev = None
    for j in range(1, 9):
        lat = report.stage(j)
        assert lat.is_diagonal()
        a, b = lat.diag
        assert a & (a - 1) == 0 and b & (b - 1) == 0  # powers of two
        if j == 1:
            assert (a, b) == (2, 2)
        if prev is not None:
            assert a in (prev[0], 2 * prev[0]) and b in (prev[1], 2 * prev[1])
        prev = (a, b)
    dyadic = SupergroupDescriptor.coordinate([{2}, {2}])
    fitted = fit_descriptor(derived_odometer(cocycle, checked_depth=3), 4)
    assert conjugate_test(desc_t=dyadic, desc_s=fitted).outcome == "yes"
    _report("2 dyadic-speedup pipeline", started, 10.0)


def test_criterion_3_lattice_property_suite():
    started = time.time()
    rng = random.Random(321)
    checked = 0
    small_checked = 0
    while checked < 1000:
        dim = rng.choice([2, 3])
        cols = [[rng.randint(-20, 20) for _ in range(dim)] for _ in range(dim)]
        try:
            lat = IntegerLattice.from_columns(cols)
        except SingularBasis:
            continue
        checked += 1
        # dual of the dual is the original
        dual = lat.dual()
        assert dual.dual() == RationalLattice.from_integer(lat)
        assert dual.covolume == Fraction(1, lat.index)
        # canonical form is unimodular-invariant: shear one column into another
        i, j = rng.sample(range(dim), 2)
        c = rng.randint(-2, 2)
        mixed = [list(col) for col in lat.columns()]
        mixed[i] = [a + c * b for a, b in zip(mixed[i], mixed[j])]
        assert IntegerLattice.from_columns(mixed) == lat
        # coset systems match brute-force residue counting when small
        if lat.index <= 200 and small_checked < 40:
            small_checked += 1
            cs = lat.coset_system()
            box = tuple(2 * m for m in cs.rectangle)
            from itertools import product as iproduct

            seen = {cs.reduce(v) for v in iproduct(*(range(b) for b in box))}
            assert len(seen) == lat.index == len(cs.reps)
    assert small_checked >= 40
    _report("3 lattice property suite", started, 30.0)


def test_criterion_4_speedup_property_suite():
    started = time.time()
    rng = random.Random(20210223)
    chain = OdometerChain.diagonal_power([3, 2])
    samples = sample_cocycles(chain, 200, rng)
    assert len(samples) == 200
    quadrant = Cone.quadrant(2)
    diag = {j: IntegerLattice.diagonal([3**j, 2**j]) for j in (1, 2, 3)}
    diagonal_hits = 0
    for cocycle in samples:
        # cocycle identity at random points
        for _ in range(3):
            rep = (rng.randint(0, 2), rng.randint(0, 1))
            v = (rng.randint(-3, 3), rng.randint(-3, 3))
            w = (rng.randint(-3, 3), rng.randint(-3, 3))
            mid, p_v = walk(cocycle, rep, v)
            _, p_w = walk(cocycle, mid, w)
            total = walk(cocycle, rep, (v[0] + w[0], v[1] + w[1]))[1]
            assert tuple(a + b for a, b in zip(p_v, p_w)) == total
        # permutation property at depths 1..3
        for depth in (1, 2, 3):
            for i in (0, 1):
                perm = cocycle.permutation(i, depth)
                assert sorted(perm) == list(range(chain.index(depth)))
        # derived-chain nesting and co-index whenever minimal
        try:
            report = derived_chain(cocycle, 3)
        except NotMinimalAtDepth:
            continue
        for j in (1, 2, 3):
            assert report.stage(j).index == chain.index(j)
            if j > 1:
                assert report.stage(j).is_sublattice(report.stage(j - 1))
        ok, _ = cone_check(cocycle, quadrant)
        assert ok
        if all(report.stage(j) == diag[j] for j in (1, 2, 3)):
            diagonal_hits += 1
            assert product_form_check(cocycle), "rigidity violated: build must fail"
    assert diagonal_hits > 0, "the rigidity probe must not be vacuous"
    _report("4 speedup property suite", started, 60.0)


def test_criterion_5_sandwich_rigidity_exhaustive():
    started = time.time()
    for target_index, m, expected in (
        (6, 1, IntegerLattice.diagonal([3, 2])),
        (36, 2, IntegerLattice.diagonal([9, 4])),
    ):
        sandwiched = []
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
                assert ok
                sandwiched.append(lat)
        assert sandwiched == [expected]
    _report("5 sandwich rigidity exhaustive", started, 5.0)


def test_criterion_6_construction_three_stages():
    started = time.time()
    source = OdometerChain.diagonal_power([3, 2])
    target = OdometerChain.diagonal_power([6])
    assert orbit_equivalence_test(source, target).outcome == "yes"
    con = SpeedupConstruction(source, target, Cone.quadrant(2)).run(3)
    for k in range(3):
        report = con.stage_invariants(k)
        assert report.ok, (k, report.failures())
        rec = con.stages[k]
        space = AtomSpace(source, rec.gamma)
        # all emitted vectors are cone members
        assert all(Cone.quadrant(2).contains(v) for v in rec.src_castle.steps.values())
        # the anchors sit in distinct towers
        tower_x0, tower_x2 = anchor_towers(con, k)
        assert tower_x0 != tower_x2
        # the swapped measure obeys its exact bound
        mu_f = Fraction(len(rec.f_atoms), space.size)
        assert mu_f <= 4 * con.anchor_measure(k)
    _report("6 construction three stages", started, 60.0)


def test_criterion_7_classification_implication_ladder():
    started = time.time()
    base = SupergroupDescriptor.coordinate([{3}, {2}])
    sheared = fit_descriptor(derived_odometer(row_shear_cocycle(), checked_depth=2), 5)
    dyadic = SupergroupDescriptor.coordinate([{2}, {2}])
    stairs = derived_odometer(staircase_cocycle(), checked_depth=2)
    mixed = OdometerChain.diagonal_power([3, 2])
    dy = OdometerChain.diagonal_power([2, 2])
    rank_one = OdometerChain.diagonal_power([6])
    pairs = [
        (base, sheared, mixed, derived_odometer(row_shear_cocycle(), checked_depth=2)),
        (dyadic, fit_descriptor(stairs, 4), dy, stairs),
        (base, dyadic, mixed, dy),
        (base, base, mixed, mixed),
        (base, fit_descriptor(rank_one, 3), mixed, rank_one),
    ]
    rank = {"yes": 1, "undecided": 0, "no": -1}
    for da, db, ca, cb in pairs:
        ladder = [
            conjugate_test(desc_t=da, desc_s=db),
            isomorphism_test(da, db),
            continuous_oe_test(da, db, denom_bound=2),
            orbit_equivalence_test(ca, cb),
        ]
        # stronger yes forces weaker yes (undecided never violates)
        for strong, weak in zip(ladder, ladder[1:]):
            assert not (rank[strong.outcome] == 1 and rank[weak.outcome] == -1)
    _report("7 classification implication ladder", started, 30.0)
