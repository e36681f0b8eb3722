import random
from fractions import Fraction
from itertools import product

import pytest

from odolab.classify import (
    ClassifyError,
    DimensionUnsupported,
    NoFit,
    SupergroupDescriptor,
    UnsupportedDescriptor,
    _candidates,
    _truncate,
    conjugate_test,
    continuous_oe_test,
    fit_descriptor,
    isomorphism_test,
    orbit_equivalence_test,
)
from odolab.lattice import IntegerLattice
from odolab.odometer import OdometerChain
from odolab.sampling import sample_cocycles
from odolab.speedup import NotMinimalAtDepth, derived_odometer

from _oracles import fit_by_enumeration, transport_by_sorted_search
from test_speedup import chain22, chain32, row_shear_cocycle, staircase_cocycle

H_BASE = SupergroupDescriptor.coordinate([{3}, {2}])  # Z[1/3] x Z[1/2]
H_SHEARED = SupergroupDescriptor.make([[1, 0], [Fraction(-1, 2), 1]], [{3}, {2}])
H_DYADIC = SupergroupDescriptor.coordinate([{2}, {2}])


# ---------------------------------------------------------------- membership

def test_member_separating_vector():
    v = (Fraction(1, 3), Fraction(1, 6))
    assert H_SHEARED.member(v)
    assert not H_BASE.member(v)
    assert H_BASE.member((0, 0)) and H_SHEARED.member((0, 0))


def test_member_examples_more():
    assert H_BASE.member((Fraction(5, 27), Fraction(7, 8)))
    assert not H_BASE.member((Fraction(1, 2), 0))
    assert H_SHEARED.member((Fraction(2, 9), Fraction(1, 9)))  # y - x/2 = 0


def test_descriptor_validation():
    # a shear of determinant 2 and a unit upper-triangular one
    with pytest.raises(UnsupportedDescriptor, match="^shear must be unit lower triangular$"):
        SupergroupDescriptor.make([[2, 0], [0, 1]], [{3}, {2}])
    with pytest.raises(UnsupportedDescriptor, match="^shear must be unit lower triangular$"):
        SupergroupDescriptor.make([[1, Fraction(1, 2)], [0, 1]], [{3}, {2}])


@pytest.mark.parametrize(
    "shear, supports, member, outsider",
    [
        (
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            [{2}, {3}, set()],
            (Fraction(1, 2), Fraction(1, 9), 4),
            (0, 0, Fraction(1, 2)),
        ),
        # column j of the shear is its image of e_j, so the supports must
        # hold the primes of its entries below the diagonal
        (
            [[1, 0, 0], [Fraction(1, 2), 1, 0], [Fraction(1, 3), Fraction(1, 5), 1]],
            [set(), {2}, {3, 5}],
            (2, 0, 0),
            (Fraction(1, 2), 0, 0),
        ),
    ],
)
def test_three_dimensional_descriptors(shear, supports, member, outsider):
    desc = SupergroupDescriptor.make(shear, supports)
    assert desc.dim == 3
    assert desc.member(member) and not desc.member(outsider)


# ---------------------------------------------------------------- fitting

def test_fit_descriptor_coordinate_chain():
    desc = fit_descriptor(chain32(), 4)
    assert desc == H_BASE


def test_fit_descriptor_dyadic_chain():
    desc = fit_descriptor(chain22(), 4)
    assert desc == H_DYADIC


def test_fit_descriptor_derived_chain():
    chain = derived_odometer(row_shear_cocycle(), checked_depth=2)
    desc = fit_descriptor(chain, 5)
    assert desc == H_SHEARED
    # coherence: every realized stage generator is a member
    for j in range(1, 6):
        for col in chain.cohomology_stage(j).columns():
            assert desc.member(col)


def test_fit_descriptor_rejects_wrong_shear():
    # the positive half-shear admits the first stage but not the second,
    # so the stage-truncation check must reject it
    from odolab.classify import _fit_valid

    chain = derived_odometer(row_shear_cocycle(), checked_depth=2)
    duals = [chain.cohomology_stage(j) for j in range(1, 4)]
    wrong = SupergroupDescriptor.make([[1, 0], [Fraction(1, 2), 1]], [{3}, {2}])
    assert not _fit_valid(wrong, chain, duals)
    assert _fit_valid(H_SHEARED, chain, duals)


def test_sheared_dual_contains_separating_vector():
    chain = derived_odometer(row_shear_cocycle(), checked_depth=2)
    dual1 = chain.cohomology_stage(1)
    assert dual1.contains((Fraction(1, 3), Fraction(1, 6)))


def test_fit_descriptor_one_dimensional():
    desc = fit_descriptor(OdometerChain.diagonal_power([6]), 3)
    assert desc == SupergroupDescriptor.coordinate([{2, 3}])
    # every one-dimensional chain fits, with the primes of its indices up to
    # the depth as the support
    explicit = OdometerChain.explicit([IntegerLattice.diagonal([n]) for n in (2, 6, 12, 60)])
    for chain, supports in [
        (OdometerChain.diagonal_power([6]), ({2, 3},) * 3),
        (OdometerChain.diagonal_power([2]), ({2},) * 3),
        (OdometerChain.diagonal_power([12], [2]), ({2, 3},) * 3),
        (explicit, ({2, 3}, {2, 3}, {2, 3, 5})),
    ]:
        for depth, primes in zip((2, 3, 4), supports):
            assert fit_descriptor(chain, depth) == SupergroupDescriptor.coordinate([primes])


def test_fit_descriptor_needs_two_stages():
    with pytest.raises(ClassifyError):
        fit_descriptor(chain32(), 1)


def test_fit_descriptor_random_diagonal_chains():
    rng = random.Random(5)
    primes = [2, 3, 5, 7]
    for _ in range(10):
        bases = [rng.choice(primes) for _ in range(2)]
        chain = OdometerChain.diagonal_power(bases)
        desc = fit_descriptor(chain, 3)
        assert desc == SupergroupDescriptor.coordinate([{bases[0]}, {bases[1]}])


@pytest.mark.parametrize(
    "desc, scales",
    [
        (H_BASE, (1, 2, 6, 12)),
        (H_DYADIC, (1, 4, 6)),
        (SupergroupDescriptor.coordinate([{2, 3}, set()]), (1, 6, 10)),
        (SupergroupDescriptor.coordinate([{2}, {3}, {2, 5}]), (1, 6, 10)),
        (H_SHEARED, (1, 2, 6, 12)),
    ],
    ids=["base", "dyadic", "one-sided", "three-dim", "row-shear"],
)
def test_truncate_matches_enumeration(desc, scales):
    """The cut of a described group at `scale` holds exactly its members
    with denominators dividing `scale`; probed on a grid twice as fine."""
    for scale in scales:
        cut = _truncate(desc, scale)
        grid = 2 * scale
        radius = grid if desc.dim == 2 else scale
        for v in product(range(-radius, radius + 1), repeat=desc.dim):
            x = tuple(Fraction(e, grid) for e in v)
            expected = all((e * scale).denominator == 1 for e in x) and desc.member(x)
            assert cut.contains(x) == expected


# ---------------------------------------------------------------- closed-form shear fit

PROBE_SEED = 20210223
# probe samples (derived at depth 3, fitted at depth 4) whose stage
# generators admit a shear within the fitting bounds that no shear fits
PROBE_MEMBER_ONLY = (1, 11)


def _derived_samples(seed, count):
    """derived_odometer(c, 3) of sampled cocycles on the mixed chain, with
    None where a sample is not minimal at depth 3."""
    out = []
    for c in sample_cocycles(chain32(), count, random.Random(seed)):
        try:
            out.append(derived_odometer(c, checked_depth=3))
        except NotMinimalAtDepth:
            out.append(None)
    return out


NAMED_FITS = {
    "row-shear": (lambda: derived_odometer(row_shear_cocycle(), checked_depth=2), 5),
    "staircase": (lambda: derived_odometer(staircase_cocycle(), checked_depth=3), 4),
    "mixed": (chain32, 4),
    "rank-one": (lambda: OdometerChain.diagonal_power([6]), 3),
}


@pytest.mark.parametrize("name", sorted(NAMED_FITS))
def test_fit_descriptor_matches_enumeration_on_named_chains(name):
    build, depth = NAMED_FITS[name]
    chain = build()
    assert fit_descriptor(chain, depth) == fit_by_enumeration(chain, depth)


@pytest.fixture(scope="module")
def probe_chains():
    return _derived_samples(PROBE_SEED, max(PROBE_MEMBER_ONLY) + 1)


def test_fit_descriptor_matches_enumeration_on_member_only_probes(probe_chains):
    for i in PROBE_MEMBER_ONLY:
        fit = fit_descriptor(probe_chains[i], 4)
        assert isinstance(fit, NoFit)
        assert fit == fit_by_enumeration(probe_chains[i], 4)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_fit_descriptor_matches_enumeration_on_sampled_chains(seed):
    chains = [c for c in _derived_samples(seed, 12) if c is not None]
    assert chains
    for chain in chains:
        assert fit_descriptor(chain, 3) == fit_by_enumeration(chain, 3)


def _class_fits(chain, depth):
    """(fits, nonempty) over the candidate shears in the generators' class.

    Walks every candidate shear of the enumeration: the class is exactly the
    candidates whose shear makes every stage generator a member, and
    `_fit_valid` must give one answer on all of them."""
    from odolab.classify import _column_class, _fit_valid, _vertical_scale
    from odolab.lattice import prime_support

    from _oracles import _shear_candidates

    duals = [chain.cohomology_stage(j) for j in range(1, depth + 1)]
    sup1, sup2 = set(), set()
    for dual in duals:
        sup2 |= prime_support(_vertical_scale(dual))
        for col in dual.columns():
            sup1 |= prime_support(col[0])
    pinned = _column_class(duals, sup2)
    answers = set()
    for lam in _shear_candidates(sup2, duals):
        desc = SupergroupDescriptor.make([[1, 0], [lam, 1]], [sup1, sup2])
        members = all(desc.member(col) for dual in duals for col in dual.columns())
        in_class = pinned is not None and (lam.numerator - pinned[0] * lam.denominator) % pinned[1] == 0
        assert members == in_class, lam
        if in_class:
            answers.add(_fit_valid(desc, chain, duals))
    assert len(answers) <= 1
    return (answers == {True}, bool(answers))


def test_shear_class_fits_all_or_none(probe_chains):
    row = derived_odometer(row_shear_cocycle(), checked_depth=2)
    assert _class_fits(row, 3) == (True, True)
    assert _class_fits(probe_chains[PROBE_MEMBER_ONLY[1]], 4) == (False, True)


def test_classifier_argument_order_symmetry():
    # swapping the arguments must not change the verdicts' outcomes
    assert isomorphism_test(H_SHEARED, H_BASE).outcome == "no"
    back = continuous_oe_test(H_SHEARED, H_BASE, denom_bound=2)
    assert back.outcome == "yes"
    alpha = back.witness
    assert abs(alpha[0][0] * alpha[1][1] - alpha[0][1] * alpha[1][0]) == 1


# ---------------------------------------------------------------- conjugacy

def test_conjugate_no_for_sheared_pair():
    verdict = conjugate_test(desc_t=H_BASE, desc_s=H_SHEARED)
    assert verdict.outcome == "no"
    kind, vec = verdict.certificate
    assert kind == "separating vector"
    assert H_SHEARED.member(vec) != H_BASE.member(vec)


def test_conjugate_yes_self():
    verdict = conjugate_test(desc_t=H_BASE, desc_s=H_BASE)
    assert verdict.outcome == "yes"


def test_conjugate_yes_dyadic_derived():
    chain = derived_odometer(staircase_cocycle(), checked_depth=2)
    fitted = fit_descriptor(chain, 4)
    verdict = conjugate_test(desc_t=H_DYADIC, desc_s=fitted)
    assert verdict.outcome == "yes"


def test_conjugate_chains_only_is_depth_bounded():
    verdict = conjugate_test(chain_t=chain32(), chain_s=chain32(), depth=4)
    assert verdict.outcome == "undecided"
    verdict = conjugate_test(chain_t=chain32(), chain_s=chain22(), depth=4)
    assert verdict.outcome == "no"


def test_conjugate_rank_one_special_case():
    # for rank-one chains, equal value groups settle conjugacy exactly
    six = OdometerChain.diagonal_power([6])
    two_three = OdometerChain.diagonal_power([2], [1])
    verdict = conjugate_test(chain_t=six, chain_s=OdometerChain.diagonal_power([6]))
    assert verdict.outcome == "yes"
    assert conjugate_test(chain_t=six, chain_s=two_three).outcome == "no"


def test_conjugate_rank_mismatch():
    one = fit_descriptor(OdometerChain.diagonal_power([6]), 3)
    assert conjugate_test(desc_t=H_BASE, desc_s=one).outcome == "no"


def test_dimension_unsupported():
    big = SupergroupDescriptor.coordinate([{2}, {2}, {2}])
    with pytest.raises(DimensionUnsupported):
        conjugate_test(desc_t=big, desc_s=big)


# ---------------------------------------------------------------- isomorphism

def test_isomorphism_no_with_content_certificate():
    verdict = isomorphism_test(H_BASE, H_SHEARED)
    assert verdict.outcome == "no"
    assert "content 2" in verdict.certificate


def test_isomorphism_yes_self():
    verdict = isomorphism_test(H_BASE, H_BASE)
    assert verdict.outcome == "yes"
    assert verdict.witness == ((1, 0), (0, 1))


def test_isomorphism_finds_coordinate_swap():
    swapped = SupergroupDescriptor.coordinate([{2}, {3}])
    verdict = isomorphism_test(H_BASE, swapped)
    assert verdict.outcome == "yes"
    assert verdict.witness in (((0, 1), (1, 0)), ((0, -1), (-1, 0)), ((0, 1), (-1, 0)), ((0, -1), (1, 0)))


# ---------------------------------------------------------------- continuous OE

def test_continuous_oe_yes_with_halfshear():
    verdict = continuous_oe_test(H_BASE, H_SHEARED, denom_bound=2)
    assert verdict.outcome == "yes"
    alpha = verdict.witness
    assert abs(alpha[0][0] * alpha[1][1] - alpha[0][1] * alpha[1][0]) == 1
    # the half-shear matrix works; the search must return a verified one
    assert any(e.denominator == 2 for row in alpha for e in row)


def test_continuous_oe_yes_self():
    assert continuous_oe_test(H_BASE, H_BASE).outcome == "yes"


def test_continuous_oe_no_forced_singular():
    verdict = continuous_oe_test(H_BASE, H_DYADIC)
    assert verdict.outcome == "no"
    assert "singular" in verdict.certificate or "zero matrix" in verdict.certificate


# ---------------------------------------------------------------- transport search order

def _box_key(t):
    return (max((abs(x) for x in t), default=0), tuple(abs(x) for x in t), tuple(x < 0 for x in t))


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_candidates_follow_the_sorted_box(r):
    for bound in range(7):
        box = sorted(product(range(-bound, bound + 1), repeat=r), key=_box_key)
        assert list(_candidates(bound, r)) == [t for t in box if any(t)]


TRANSPORT_SUPPORTS = (frozenset({2}), frozenset({3}), frozenset({2, 3}))


def _sampled_descriptor(rng, dim, supports=None):
    """A descriptor with supports drawn from TRANSPORT_SUPPORTS unless given
    and, in dimension 2, the shear lam = a/d with d a squarefree product of
    second-coordinate primes and |a| <= d."""
    supports = supports or [rng.choice(TRANSPORT_SUPPORTS) for _ in range(dim)]
    if dim == 1:
        return SupergroupDescriptor.coordinate(supports)
    d = 1
    for p in sorted(supports[1]):
        d *= p ** rng.randint(0, 1)
    return SupergroupDescriptor.make([[1, 0], [Fraction(rng.randint(-d, d), d), 1]], supports)


def _transport_cases(seed, count):
    """(t, s, denominator bound) triples, a third of them in dimension 1.  Half
    the pairs share their supports and differ in the shear, which is where
    a continuous orbit equivalence needs a fractional witness."""
    rng = random.Random(seed)
    cases = []
    for i in range(count):
        dim = 1 if i % 3 == 0 else 2
        t = _sampled_descriptor(rng, dim)
        s = _sampled_descriptor(rng, dim, list(t.supports) if rng.random() < 0.5 else None)
        cases.append((t, s, rng.randint(1, 3)))
    return cases


def _with_sorted_search(t, s, iso_height, coe_height, denom_bound):
    """(verdict, the sorted-search oracle's verdict) for both transport tests."""
    return [
        (
            isomorphism_test(t, s, height=iso_height),
            transport_by_sorted_search(t, s, "isomorphic", iso_height, (1,)),
        ),
        (
            continuous_oe_test(t, s, height=coe_height, denom_bound=denom_bound),
            transport_by_sorted_search(
                t, s, "continuously-orbit-equivalent", coe_height, tuple(range(1, denom_bound + 1))
            ),
        ),
    ]


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_transport_search_matches_sorted_search_on_sampled_pairs(seed):
    """Same outcome, first witness and certificate as sorting the whole box,
    on 30 pairs per seed at height 2 and denominators up to 3."""
    seen = {"isomorphic": set(), "continuously-orbit-equivalent": set()}
    for t, s, denom_bound in _transport_cases(seed, 30):
        for verdict, reference in _with_sorted_search(t, s, 2, 2, denom_bound):
            assert verdict == reference, (t.describe(), s.describe())
            seen[verdict.relation].add(verdict.outcome)
    assert all(outcomes == {"yes", "no", "undecided"} for outcomes in seen.values())


def test_transport_search_matches_sorted_search_on_workload_pairs():
    """The equal-rank pairs the benchmark's verdict phase classifies: the
    shear case and the ladder at the default iso height and coe height 5
    with denominators up to 2, and every fitted probe against the mixed
    chain's fit at coe height 2."""
    stairs = fit_descriptor(derived_odometer(staircase_cocycle(), checked_depth=3), 4)
    pairs = [(H_BASE, H_SHEARED, 5), (H_DYADIC, stairs, 5), (H_BASE, H_DYADIC, 5), (H_BASE, H_BASE, 5)]
    mixed = fit_descriptor(chain32(), 4)
    fits = [fit_descriptor(chain, 4) for chain in _derived_samples(PROBE_SEED, 25) if chain is not None]
    pairs += [(mixed, fit, 2) for fit in fits if not isinstance(fit, NoFit)]
    assert len(pairs) > 4
    for t, s, coe_height in pairs:
        for verdict, reference in _with_sorted_search(t, s, 5, coe_height, 2):
            assert verdict == reference, (t.describe(), s.describe())


# ---------------------------------------------------------------- orbit equivalence

def test_orbit_equivalence_cross_dimension():
    verdict = orbit_equivalence_test(chain32(), OdometerChain.diagonal_power([6]))
    assert verdict.outcome == "yes"


def test_orbit_equivalence_self():
    assert orbit_equivalence_test(chain32(), chain32()).outcome == "yes"


def test_orbit_equivalence_no_with_witness():
    verdict = orbit_equivalence_test(chain32(), chain22())
    assert verdict.outcome == "no"
    _, witness = verdict.certificate
    assert witness == Fraction(1, 3)


def _explicit_line(base, depth=3):
    return OdometerChain.explicit([IntegerLattice.from_rows([[base**j]]) for j in range(1, depth + 1)])


def test_orbit_equivalence_against_an_explicit_chain_is_no_only_when_certain():
    # an explicit chain's group is known only to a checked depth, and its
    # observed exponents are lower bounds: 3, 9, 27 already holds 1/3,
    # which 2^j lacks, but lacks 1/2 only as far as it is listed
    line2, explicit3 = OdometerChain.diagonal_power([2]), _explicit_line(3)
    for chain_t, chain_s in ((line2, explicit3), (explicit3, line2)):
        verdict = orbit_equivalence_test(chain_t, chain_s)
        assert (verdict.outcome, verdict.certificate) == ("no", ("value-group witness", Fraction(1, 3)))
    # 6, 36, 216 holds nothing the mixed source lacks, and two explicit
    # chains never differ for certain
    explicit6 = _explicit_line(6)
    for chain_t, chain_s in ((explicit6, chain32()), (chain32(), explicit6), (explicit3, explicit6)):
        assert orbit_equivalence_test(chain_t, chain_s).outcome == "undecided"
        assert chain_t.clopen_value_group(6).certain_witness(chain_s.clopen_value_group(6)) is None


# ---------------------------------------------------------------- implication lattice

def _verdicts_for_pair(desc_a, desc_b, chain_a, chain_b):
    return {
        "conjugate": conjugate_test(desc_t=desc_a, desc_s=desc_b),
        "isomorphic": isomorphism_test(desc_a, desc_b) if desc_a.dim == desc_b.dim <= 2 else None,
        "coe": continuous_oe_test(desc_a, desc_b),
        "oe": orbit_equivalence_test(chain_a, chain_b),
    }


def test_implication_lattice_on_catalog():
    derived_shear = derived_odometer(row_shear_cocycle(), checked_depth=2)
    derived_stairs = derived_odometer(staircase_cocycle(), checked_depth=2)
    catalog = [
        (H_BASE, H_SHEARED, chain32(), derived_shear),
        (H_DYADIC, fit_descriptor(derived_stairs, 4), chain22(), derived_stairs),
        (H_BASE, H_DYADIC, chain32(), chain22()),
        (H_BASE, H_BASE, chain32(), chain32()),
        (H_DYADIC, H_DYADIC, chain22(), chain22()),
    ]
    order = ["conjugate", "isomorphic", "coe", "oe"]
    for a, b, ca, cb in catalog:
        verdicts = _verdicts_for_pair(a, b, ca, cb)
        seen_yes = False
        for name in reversed(order):  # weakest to strongest
            v = verdicts[name]
            if v is None:
                continue
            if v.outcome == "no":
                assert not seen_yes, f"implication violated at {name}"
            if name != "oe" and v.outcome == "yes" and verdicts["oe"].outcome != "undecided":
                assert verdicts["oe"].outcome == "yes"
        stronger_yes = verdicts["conjugate"].outcome == "yes"
        if stronger_yes:
            assert verdicts["isomorphic"].outcome == "yes"
            assert verdicts["coe"].outcome == "yes"
            assert verdicts["oe"].outcome == "yes"
