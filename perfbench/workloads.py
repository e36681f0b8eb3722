"""The benchmark's three workloads, their inputs and their output checks.

Each workload is a unit of work that starts from spec texts, so every unit
builds fresh chains, coset systems and cocycles and meets their caches
cold, as a command-line user does.  A unit returns its phase timings and
its outputs; `check_*` then compares the outputs against published facts,
structural invariants and the digests frozen in `digests.json`.  Checks
run outside the timed phases.

    construct-quadrant  the paper's construction: diagonal source chain,
                        inclusive quadrant cone, stages 0-3
    construct-derived   the same construction on the non-diagonal derived
                        chain of the row-shear cocycle, sector cone, 0-1
    derive-classify     derived chains, descriptor fitting and the four
                        equivalence tests, no castles; the rigidity-probe
                        samples follow the seed
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from odolab.classify import (
    NoFit,
    conjugate_test,
    continuous_oe_test,
    fit_descriptor,
    isomorphism_test,
    orbit_equivalence_test,
)
from odolab.construction import SpeedupConstruction
from odolab.formats import parse_chain, parse_cocycle, parse_cone, parse_descriptor
from odolab.lattice import IntegerLattice, RationalLattice
from odolab.sampling import sample_cocycles
from odolab.speedup import (
    NotMinimalAtDepth,
    cone_check,
    cone_hull,
    derived_chain,
    derived_odometer,
    minimality_to_depth,
    product_form_check,
    validate,
)

DEFAULT_SEED = 20210223
DIGEST_FILE = Path(__file__).with_name("digests.json")

# ---------------------------------------------------------------- inputs

MIXED_CHAIN = "dim=2 provider=diagpow primes=3,2 exps=j,j"
DYADIC_CHAIN = "dim=2 provider=diagpow primes=2,2 exps=j,j"
TARGET_CHAIN = "dim=1 provider=diagpow primes=6 exps=j"
QUADRANT_CONE = "cone=quadrant dim=2"
SECTOR_CONE = "cone=sector u=1,0 v=1,1"
AXIS_CONES = (
    ("strict-x-axis", "cone=quadrant dim=2 strict=1"),
    ("strict-y-axis", "cone=quadrant dim=2 strict=0"),
    ("off-axis-sector", "cone=sector u=2,1 v=1,2"),
)
BASE_DESCRIPTOR = "dim=2 shear=1,0,0,1 supports=3|2"
SHEARED_DESCRIPTOR = "dim=2 shear=1,0,-1/2,1 supports=3|2"
DYADIC_DESCRIPTOR = "dim=2 shear=1,0,0,1 supports=2|2"

# the chain= header is not read: the benchmark passes the parsed chain
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

CONSTRUCT_STAGES = {"construct-quadrant": 4, "construct-derived": 2}
# source atoms at each stage's working depth (6^3, 6^5, 6^6, 6^7)
STAGE_ATOMS = (216, 7776, 46656, 279936)
AXIS_SAMPLES = 120
PROBE_SAMPLES = 25
# The fitting probe keeps the repro seed on every run: one fit costs from
# 0.02 s to 22 s depending on the sample's prime supports, so seeded fitting
# samples would make the workload's time a lottery across seeds.
PROBE_SEED = DEFAULT_SEED
STAIRCASE_DEPTH = 8


# ---------------------------------------------------------------- timing

class Timer:
    """Phase intervals of one unit; opens a tracer span per phase when traced."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.spans: dict[str, list[tuple[float, float]]] = {}

    @contextmanager
    def phase(self, name: str):
        if self.tracer is not None:
            self.tracer.open(f"phase.{name}")
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            if self.tracer is not None:
                self.tracer.close(f"phase.{name}")
            self.spans.setdefault(name, []).append((start, end))


def _durations(spans) -> list[float]:
    return [end - start for start, end in spans]


@dataclass
class Unit:
    """Timings and outputs of one unit of a workload.

    Times are `time.perf_counter` intervals `(start, end)`, so that they
    can be scaled to the reference speed afterwards (see speed.py)."""

    workload: str
    seed: int
    setup_spans: list[tuple[float, float]]              # each set-up from the specs
    lap_spans: dict[str, list[tuple[float, float]]]     # each timed phase, in order
    outputs: object = None
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def setups(self) -> list[float]:
        return _durations(self.setup_spans)

    @property
    def laps(self) -> dict[str, list[float]]:
        return {name: _durations(spans) for name, spans in self.lap_spans.items()}

    @property
    def setup_s(self) -> float:
        return statistics.median(self.setups)

    @property
    def phases(self) -> dict[str, float]:
        return {name: sum(times) for name, times in self.laps.items()}

    @property
    def work_s(self) -> float:
        return sum(self.phases.values())


@dataclass
class Checks:
    """Outcome of every check of one unit: (name, passed, detail)."""

    results: list[tuple[str, bool, str]] = field(default_factory=list)

    def add(self, name: str, passed, detail: str = "") -> None:
        self.results.append((name, bool(passed), detail))

    def digest(self, workload: str, key: str, actual: str) -> None:
        """Compare against the digest frozen in digests.json."""
        expected = json.loads(DIGEST_FILE.read_text())[workload].get(key)
        self.add(f"digest.{key}", actual == expected, f"expected {expected} got {actual}")

    @property
    def failed(self) -> list[tuple[str, bool, str]]:
        return [r for r in self.results if not r[1]]


def _sha(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def _set_up(timer: Timer, setup, repeats: int):
    """Run `setup` `repeats` times from the specs; keep the last result."""
    for _ in range(repeats):
        with timer.phase("setup"):
            built = setup()
    return built, timer.spans.pop("setup")


# ---------------------------------------------------------------- construction

def _construct_setup(workload: str) -> SpeedupConstruction:
    target = parse_chain(TARGET_CHAIN)
    if workload == "construct-quadrant":
        source = parse_chain(MIXED_CHAIN)
        cone = parse_cone(QUADRANT_CONE)
    else:
        # stages 1-2 realized (and checked) here; deeper ones lazily in run()
        cocycle = parse_cocycle(ROW_SHEAR_COCYCLE, chain=parse_chain(MIXED_CHAIN))
        source = derived_odometer(cocycle, checked_depth=2)
        cone = parse_cone(SECTOR_CONE)
    return SpeedupConstruction(source, target, cone)


def run_construct(workload: str, seed: int, timer: Timer, setup_repeats: int) -> Unit:
    """Stages 0..n-1, each built with `run` and audited with `stage_invariants`.

    The construction inputs are the paper's fixed case, so the seed does
    not change them."""
    con, setups = _set_up(timer, lambda: _construct_setup(workload), setup_repeats)
    reports = []
    for k in range(CONSTRUCT_STAGES[workload]):
        with timer.phase("build"):
            con.run(k + 1)
        with timer.phase("audit"):
            reports.append(con.stage_invariants(k))
    stages = con.stages
    return Unit(
        workload,
        seed,
        setups,
        timer.spans,
        outputs=(con, reports),
        counts={
            "construction.atoms": sum(con.source.index(rec.gamma) for rec in stages),
            "construction.towers": sum(len(rec.src_castle.towers) for rec in stages),
            "construction.f_atoms": sum(len(rec.f_atoms) for rec in stages),
            "construction.r_atoms": sum(len(rec.r_atoms) for rec in stages),
        },
    )


def stage_record_lines(rec):
    """Canonical text of a StageRecord: numbers, towers, steps, swap sets."""
    yield f"k={rec.k} n={rec.n} gamma={rec.gamma}"
    for alpha, tower in enumerate(rec.src_castle.towers):
        for v, level in enumerate(tower.levels):
            yield f"tower {alpha} level {v}: " + ",".join(map(str, sorted(level)))
    steps = rec.src_castle.steps
    for code in sorted(steps):
        yield f"step {code}: " + ",".join(map(str, steps[code]))
    yield "f: " + ",".join(map(str, sorted(rec.f_atoms)))
    yield "r: " + ",".join(map(str, sorted(rec.r_atoms)))


def check_construct(unit: Unit) -> Checks:
    con, reports = unit.outputs
    checks = Checks()
    for k, report in enumerate(reports):
        for name, ok, detail in report.checks:
            checks.add(f"stage{k}.{name}", ok, detail)
        rec = con.stages[k]
        checks.add(
            f"stage{k}.atoms", con.source.index(rec.gamma) == STAGE_ATOMS[k], str(con.source.index(rec.gamma))
        )
        if k:
            mu_f = Fraction(len(rec.f_atoms), con.source.index(rec.gamma))
            bound = 4 * con.anchor_measure(k)
            checks.add(f"stage{k}.swap-measure-exact", mu_f <= bound, f"{mu_f} <= {bound}")
        checks.digest(unit.workload, f"stage{k}", _sha(stage_record_lines(rec)))
    if unit.workload == "construct-derived":
        # published presentation of the row-shear speedup's derived chain
        for j in range(1, 6):
            expected = IntegerLattice.from_rows([[3**j, 3**j - 2 ** (j - 1)], [0, 2**j]])
            checks.add(f"derived-stage-{j}", con.source.stage(j) == expected, str(con.source.stage(j)))
    return checks


# ---------------------------------------------------------------- derive and classify

@dataclass
class ClassifyOutputs:
    inputs: dict
    row_chain: object = None
    stairs_minimal: dict | None = None
    stairs_report: object = None
    stairs_chain: object = None
    hull: object = None
    axis_checks: dict = field(default_factory=dict)
    axis: list = field(default_factory=list)       # (cocycle, quadrant ok, report or depth)
    probe: list = field(default_factory=list)      # [cocycle, derived chain or depth, fit, verdicts]
    fits: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)


def _classify_setup() -> dict:
    mixed = parse_chain(MIXED_CHAIN)
    dyadic = parse_chain(DYADIC_CHAIN)
    return {
        "mixed": mixed,
        "dyadic": dyadic,
        "rank_one": parse_chain(TARGET_CHAIN),
        "row": parse_cocycle(ROW_SHEAR_COCYCLE, chain=mixed),
        "stairs": parse_cocycle(STAIRCASE_COCYCLE, chain=dyadic),
        "base": parse_descriptor(BASE_DESCRIPTOR),
        "sheared": parse_descriptor(SHEARED_DESCRIPTOR),
        "dyadic_desc": parse_descriptor(DYADIC_DESCRIPTOR),
        "quadrant": parse_cone(QUADRANT_CONE),
        "axis_cones": [(name, parse_cone(text)) for name, text in AXIS_CONES],
    }


def _ladder(verdicts) -> bool:
    """No test may say yes while a weaker one after it says no."""
    strength = {"yes": 1, "undecided": 0, "no": -1}
    return not any(
        strength[a.outcome] == 1 and strength[b.outcome] == -1 for a, b in zip(verdicts, verdicts[1:])
    )


def _four_tests(desc_a, desc_b, chain_a, chain_b, coe_height=5):
    return [
        conjugate_test(desc_t=desc_a, desc_s=desc_b),
        isomorphism_test(desc_a, desc_b),
        continuous_oe_test(desc_a, desc_b, height=coe_height, denom_bound=2),
        orbit_equivalence_test(chain_a, chain_b),
    ]


def run_classify(workload: str, seed: int, timer: Timer, setup_repeats: int) -> Unit:
    """Derive, fit and classify along the algebra path of five repro cases.

    Phases: derive (validation, minimality, derived chains, sampling),
    fit (`fit_descriptor`), verdict (the four equivalence tests)."""
    inputs, setups = _set_up(timer, _classify_setup, setup_repeats)
    out = ClassifyOutputs(inputs)
    mixed = inputs["mixed"]
    with timer.phase("derive"):
        validate(inputs["row"])
        validate(inputs["stairs"])
        out.row_chain = derived_odometer(inputs["row"], checked_depth=2)
        for j in range(1, 6):
            out.row_chain.stage(j)
        out.stairs_minimal = minimality_to_depth(inputs["stairs"], STAIRCASE_DEPTH)
        out.stairs_report = derived_chain(inputs["stairs"], STAIRCASE_DEPTH)
        out.stairs_chain = derived_odometer(inputs["stairs"], checked_depth=3)
        out.hull = cone_hull(inputs["row"])
        for name, cone in inputs["axis_cones"] + [("inclusive-quadrant", inputs["quadrant"])]:
            out.axis_checks[name] = cone_check(inputs["row"], cone)[0]
        for c in sample_cocycles(mixed, AXIS_SAMPLES, random.Random(seed)):
            quad_ok = cone_check(c, inputs["quadrant"])[0]
            derived = None
            if quad_ok:
                try:
                    derived = derived_chain(c, 3)
                except NotMinimalAtDepth as err:
                    derived = err.depth
            out.axis.append((c, quad_ok, derived))
        for c in sample_cocycles(mixed, PROBE_SAMPLES, random.Random(PROBE_SEED)):
            try:
                out.probe.append([c, derived_odometer(c, checked_depth=3), None, None])
            except NotMinimalAtDepth as err:
                out.probe.append([c, err.depth, None, None])
    with timer.phase("fit"):
        out.fits["row"] = fit_descriptor(out.row_chain, 5)
        out.fits["stairs"] = fit_descriptor(out.stairs_chain, 4)
        out.fits["mixed"] = fit_descriptor(mixed, 4)
        out.fits["rank_one"] = fit_descriptor(inputs["rank_one"], 3)
        for entry in out.probe:
            if not isinstance(entry[1], int):
                entry[2] = fit_descriptor(entry[1], 4)
    with timer.phase("verdict"):
        base, sheared = inputs["base"], inputs["sheared"]
        dyadic_desc = inputs["dyadic_desc"]
        out.verdicts["shear"] = _four_tests(base, sheared, mixed, out.row_chain)
        out.verdicts["dyadic"] = [conjugate_test(desc_t=dyadic_desc, desc_s=out.fits["stairs"])]
        rank_one = inputs["rank_one"]
        for name, da, db, ca, cb in (
            ("mixed-vs-its-speedup", base, sheared, mixed, out.row_chain),
            ("dyadic-vs-its-speedup", dyadic_desc, out.fits["stairs"], inputs["dyadic"], out.stairs_chain),
            ("mixed-vs-dyadic", base, dyadic_desc, mixed, inputs["dyadic"]),
            ("mixed-vs-itself", base, base, mixed, mixed),
            ("mixed-vs-rank-one", base, out.fits["rank_one"], mixed, rank_one),
        ):
            out.verdicts[f"ladder-{name}"] = _four_tests(da, db, ca, cb)
        for entry in out.probe:
            if entry[2] is not None and not isinstance(entry[2], NoFit):
                entry[3] = _four_tests(out.fits["mixed"], entry[2], mixed, entry[1], coe_height=2)
    return Unit(
        workload,
        seed,
        setups,
        timer.spans,
        outputs=out,
    )


def _fit_text(fit) -> str:
    return f"nofit: {fit.reason}" if isinstance(fit, NoFit) else fit.describe()


def _verdict_text(verdicts) -> str:
    return " / ".join(v.outcome for v in verdicts)


def _stages_text(chain, depth) -> str:
    return " ".join(str(chain.stage(j)) for j in range(1, depth + 1))


def classify_fixed_lines(out: ClassifyOutputs):
    """Canonical text of the seed-independent outputs."""
    yield "row stages: " + _stages_text(out.row_chain, 5)
    yield "row duals: " + " ".join(str(out.row_chain.cohomology_stage(j)) for j in range(1, 6))
    yield "stairs minimal: " + str(sorted(out.stairs_minimal.items()))
    yield "stairs report: " + " ".join(str(s) for s in out.stairs_report.stages)
    yield "stairs orbits: " + str(out.stairs_report.orbit_sizes)
    yield "hull: " + out.hull.describe()
    yield "cone checks: " + str(sorted(out.axis_checks.items()))
    for name in sorted(out.fits):
        yield f"fit {name}: {_fit_text(out.fits[name])}"
    for name in sorted(out.verdicts):
        yield f"verdict {name}: " + " | ".join(v.describe() for v in out.verdicts[name])
    for c, chain, fit, verdicts in out.probe:
        yield "probe tables: " + str([sorted(t.items()) for t in c.tables])
        if isinstance(chain, int):
            yield f"probe not minimal at depth {chain}"
            continue
        yield "probe stages: " + _stages_text(chain, 4)
        yield f"probe fit: {_fit_text(fit)}"
        if verdicts is not None:
            yield "probe verdicts: " + " | ".join(v.describe() for v in verdicts)


def classify_sampled_lines(out: ClassifyOutputs):
    """Canonical text of the seed-dependent outputs (samples and their fate)."""
    for c, quad_ok, derived in out.axis:
        yield "axis tables: " + str([sorted(t.items()) for t in c.tables])
        if isinstance(derived, int) or derived is None:
            yield f"axis quadrant={quad_ok} derived={derived}"
        else:
            yield f"axis quadrant={quad_ok} derived=" + " ".join(str(s) for s in derived.stages)


def _derived_invariants(checks: Checks, name: str, stages, base_chain) -> None:
    """Derived index equals the chain index from stage 1 on, and stages nest."""
    checks.add(
        f"{name}.index",
        all(lat.index == base_chain.index(j) for j, lat in enumerate(stages, start=1)),
        " ".join(str(lat.index) for lat in stages),
    )
    checks.add(f"{name}.nested", all(b.is_sublattice(a) for a, b in zip(stages, stages[1:])))


def _members(checks: Checks, name: str, chain, depth: int, fit) -> None:
    """Every stage-dual generator up to `depth` is a member of the fit."""
    checks.add(
        f"{name}.duals-in-fit",
        all(fit.member(col) for j in range(1, depth + 1) for col in chain.cohomology_stage(j).columns()),
    )


def check_classify(unit: Unit) -> Checks:
    out: ClassifyOutputs = unit.outputs
    inputs = out.inputs
    checks = Checks()
    base, sheared = inputs["base"], inputs["sheared"]

    # published facts of the shear, dyadic, axis and ladder cases
    for j in range(1, 6):
        expected = IntegerLattice.from_rows([[3**j, 3**j - 2 ** (j - 1)], [0, 2**j]])
        checks.add(f"shear.derived-stage-{j}", out.row_chain.stage(j) == expected, str(out.row_chain.stage(j)))
        dual = RationalLattice.from_scaled_rows(6**j, [[2**j, 0], [2 ** (j - 1) - 3**j, 3**j]])
        checks.add(f"shear.dual-stage-{j}", out.row_chain.cohomology_stage(j) == dual)
    checks.add("shear.fitted-half-shear", out.fits["row"] == sheared, _fit_text(out.fits["row"]))
    vec = (Fraction(1, 3), Fraction(1, 6))
    checks.add("shear.separating-vector-in-speedup-group", sheared.member(vec))
    checks.add("shear.separating-vector-not-in-base-group", not base.member(vec))
    conj, iso, coe, oe = out.verdicts["shear"]
    checks.add("shear.not-conjugate", conj.outcome == "no")
    checks.add(
        "shear.isomorphism-ruled-out-by-content-2",
        iso.outcome == "no" and "content 2" in str(iso.certificate),
        str(iso.certificate),
    )
    checks.add("shear.continuous-oe-found", coe.outcome == "yes")
    checks.add("shear.orbit-equivalent", oe.outcome == "yes")
    checks.add("dyadic.minimal-to-depth-8", all(out.stairs_minimal.values()))
    diag = [lat.diag for lat in out.stairs_report.stages]
    checks.add(
        "dyadic.derived-stages-dyadic-diagonal",
        diag[0] == (2, 2)
        and all(lat.is_diagonal() for lat in out.stairs_report.stages)
        and all(x & (x - 1) == 0 for d in diag for x in d),
    )
    checks.add(
        "dyadic.exponent-increments-at-most-one",
        all(b in (a, 2 * a) for p, q in zip(diag, diag[1:]) for a, b in zip(p, q)),
    )
    checks.add("dyadic.conjugate-to-dyadic-square", out.verdicts["dyadic"][0].outcome == "yes")
    checks.add("axis.value-hull-is-first-quadrant-sector", out.hull.sector_data[:2] == ((1, 0), (0, 1)))
    for name, _ in AXIS_CONES:
        checks.add(f"axis.cone-without-axis-rejected-{name}", not out.axis_checks[name])
    checks.add("axis.inclusive-quadrant-accepted", out.axis_checks["inclusive-quadrant"])
    for name, verdicts in out.verdicts.items():
        if name.startswith("ladder-"):
            checks.add(name, _ladder(verdicts), _verdict_text(verdicts))

    # invariants, on every seed
    _derived_invariants(checks, "stairs", out.stairs_report.stages, inputs["dyadic"])
    _members(checks, "row", out.row_chain, 5, out.fits["row"])
    _members(checks, "stairs", out.stairs_chain, 4, out.fits["stairs"])
    hits = consistent = 0
    for i, (c, quad_ok, derived) in enumerate(out.axis):
        if derived is None or isinstance(derived, int):
            continue
        _derived_invariants(checks, f"axis{i}", derived.stages, inputs["mixed"])
        if all(lat == IntegerLattice.diagonal([3**j, 2**j]) for j, lat in enumerate(derived.stages, start=1)):
            hits += 1
            consistent += product_form_check(c)
    # Published rigidity: diagonal derived chains force product form.  The
    # probe sees the chain to depth 3 only, as the repro case does, and a
    # sample can be diagonal that far and not beyond (seed 305, sample 47:
    # stage 4 is [162 81; 0 8]), so it is a published fact for the repro
    # seed's samples and not an invariant of every seed.
    if unit.seed == DEFAULT_SEED:
        checks.add("axis.rigidity-probe-consistent", hits == consistent, f"{consistent}/{hits}")
    for i, (c, chain, fit, verdicts) in enumerate(out.probe):
        if isinstance(chain, int):
            continue
        _derived_invariants(checks, f"probe{i}", [chain.stage(j) for j in range(1, 5)], inputs["mixed"])
        if not isinstance(fit, NoFit):
            _members(checks, f"probe{i}", chain, 4, fit)
            checks.add(f"probe{i}.ladder", _ladder(verdicts), _verdict_text(verdicts))

    checks.digest(unit.workload, "fixed", _sha(classify_fixed_lines(out)))
    if unit.seed == DEFAULT_SEED:
        checks.digest(unit.workload, f"sampled-{DEFAULT_SEED}", _sha(classify_sampled_lines(out)))
    return checks


WORKLOADS = {
    "construct-quadrant": (run_construct, check_construct),
    "construct-derived": (run_construct, check_construct),
    "derive-classify": (run_classify, check_classify),
}
