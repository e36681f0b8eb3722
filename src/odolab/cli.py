"""Command-line front end.

Subcommands: lattice, odometer, speedup, classify, construct, repro.
Classification exits 0 for yes, 1 for no, 2 for undecided; repro exits
nonzero on any failed fact.  Malformed specs, unreadable files and inputs
outside a computation's domain print one `odolab: error: ...` line on
stderr and exit 3.  All output is plain text with exact rationals; there
are no floats to round.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import repro as repro_mod
from .castles import CastleError
from .classify import (
    ClassifyError,
    conjugate_test,
    continuous_oe_test,
    fit_descriptor,
    isomorphism_test,
    orbit_equivalence_test,
    SupergroupDescriptor,
)
from .construction import SpeedupConstruction
from .formats import (
    SpecSyntaxError,
    emit_cone,
    emit_lattice,
    load_chain,
    load_cocycle,
    load_cone,
    load_group_input,
    parse_lattice,
)
from .lattice import LatticeError, RationalLattice
from .speedup import (
    SpeedupError,
    cone_check,
    cone_hull,
    derived_chain,
    minimality_to_depth,
    product_form_check,
    validate,
)


class UsageError(ValueError):
    """Arguments that parse but do not fit the command."""


def _lattice_cmd(args) -> int:
    lat = parse_lattice(args.lattice)
    if args.op == "hnf":
        print(emit_lattice(lat))
    elif args.op == "index":
        print(lat.index if hasattr(lat, "index") else Fraction(1) / lat.covolume)
    elif args.op == "dual":
        print(emit_lattice(lat.dual()))
    elif args.op == "coset":
        if isinstance(lat, RationalLattice):
            if not lat.is_integral():
                raise UsageError(f"lattice coset needs an integer lattice, got denominator {lat.den}")
            lat = lat.as_integer()
        cs = lat.coset_system()
        print("rectangle", " ".join(str(m) for m in cs.rectangle))
        for rep in cs.reps:
            print(" ".join(str(x) for x in rep))
    elif args.op == "contains":
        if args.vector is None:
            raise UsageError("lattice contains needs --vector")
        try:
            vec = tuple(Fraction(t) for t in args.vector.split(","))
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"--vector needs comma-separated rationals, got {args.vector!r}") from None
        inside = lat.contains(vec)
        print("yes" if inside else "no")
        return 0 if inside else 1
    elif args.op == "intersect":
        if args.other is None:
            raise UsageError("lattice intersect needs a second lattice literal")
        other = parse_lattice(args.other)
        print(emit_lattice(lat.intersect(other)))
    return 0


def _odometer_cmd(args) -> int:
    chain = load_chain(args.chain)
    if args.op == "stage":
        print(emit_lattice(chain.stage(args.depth)))
    elif args.op == "kr":
        part = chain.kr_partition(args.depth)
        print("rectangle", " ".join(str(m) for m in part.rectangle))
        print("atoms", len(part), "measure", part.atom_measure)
    elif args.op == "cohomology":
        print(emit_lattice(chain.cohomology_stage(args.depth)))
    elif args.op == "value-group":
        print(chain.clopen_value_group(args.depth).describe())
    elif args.op == "freeness":
        rep = chain.freeness_evidence(args.depth)
        print("intersection", emit_lattice(rep.intersection))
        print("indices", " ".join(str(i) for i in rep.indices))
        print("shortest-nonzero", rep.shortest_nonzero)
        print("certified-free", rep.certified_free)
    elif args.op == "product-type":
        print("yes" if chain.is_product_type_stagewise(args.depth) else "not-visibly")
    return 0


def _speedup_cmd(args) -> int:
    cocycle = load_cocycle(args.cocycle)
    if args.op == "validate":
        report = validate(cocycle, raise_on_error=False)
        print("valid" if report.ok else f"invalid: {report.detail}")
        return 0 if report.ok else 1
    if args.op == "minimal":
        flags = minimality_to_depth(cocycle, args.depth)
        for j in sorted(flags):
            print(f"depth {j}: {'minimal' if flags[j] else 'not-minimal'}")
        return 0 if all(flags.values()) else 1
    if args.op == "derive":
        report = derived_chain(cocycle, args.depth)
        for j in range(report.first_depth, args.depth + 1):
            print(f"stage {j}: {emit_lattice(report.stage(j))}")
        return 0
    if args.op == "cone":
        if args.cone:
            cone = load_cone(args.cone)
            ok, witnesses = cone_check(cocycle, cone)
            print("inside" if ok else f"outside: witness {witnesses[0]}")
            return 0 if ok else 1
        print(emit_cone(cone_hull(cocycle)))
        return 0
    if args.op == "productform":
        ok = product_form_check(cocycle)
        print("product-form" if ok else "not-product-form")
        return 0 if ok else 1
    raise AssertionError(args.op)


def _classify_cmd(args) -> int:
    a = load_group_input(args.a)
    b = load_group_input(args.b)
    is_desc = isinstance(a, SupergroupDescriptor)
    if is_desc != isinstance(b, SupergroupDescriptor):
        raise UsageError("pass two descriptor files or two chain files, not one of each")
    if args.relation == "oe":
        if is_desc:
            raise UsageError("orbit equivalence compares chains; pass chain files")
        verdict = orbit_equivalence_test(a, b, depth=args.depth)
    elif args.relation == "conj":
        if is_desc:
            verdict = conjugate_test(desc_t=a, desc_s=b)
        else:
            verdict = conjugate_test(chain_t=a, chain_s=b, depth=args.depth)
    else:
        if not is_desc:
            a = fit_descriptor(a, args.depth)
            b = fit_descriptor(b, args.depth)
            if not isinstance(a, SupergroupDescriptor) or not isinstance(b, SupergroupDescriptor):
                print("undecided: chains do not fit the closed descriptor family")
                return 2
        if args.relation == "iso":
            verdict = isomorphism_test(a, b, height=args.height)
        else:
            verdict = continuous_oe_test(a, b, height=args.height, denom_bound=args.denom)
    print(verdict.describe())
    return verdict.exit_code


def _construct_cmd(args) -> int:
    if args.stages < 1:
        raise UsageError(f"stage count must be at least 1, got {args.stages}")
    source = load_chain(args.source)
    target = load_chain(args.target)
    cone = load_cone(args.cone)
    con = SpeedupConstruction(source, target, cone)
    failures = 0
    # one stage at a time, so a run that stops partway shows what it built
    for k in range(args.stages):
        rec = con.run(k + 1).stages[k]
        print(
            f"stage {k}: target-stage={rec.n} height={rec.height} "
            f"towers={len(rec.src_castle.towers)} depth={rec.gamma} "
            f"swapped-measure={Fraction(len(rec.f_atoms), source.index(rec.gamma))}"
        )
        if args.audit:
            report = con.stage_invariants(k)
            for line in report.lines():
                print(" ", line)
            failures += len(report.failures())
    if args.table:
        print("partial speedup pieces (tower level vector count):")
        for alpha, v, vec, count in con.partial_speedup_pieces(args.stages - 1):
            print(f"  {alpha} {v} {vec} {count}")
    return 1 if failures else 0


def _repro_cmd(args) -> int:
    names = sorted(repro_mod.CASES) if args.case == "all" else [args.case]
    bad = 0
    for name in names:
        report = repro_mod.run_repro(name, seed=args.seed)
        for line in report.lines():
            print(line)
        bad += 0 if report.ok else 1
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="odolab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lattice", help="exact lattice arithmetic on literals")
    p.add_argument("op", choices=["hnf", "index", "dual", "coset", "contains", "intersect"])
    p.add_argument("lattice", help="lattice literal, e.g. '2; 3 2; 0 2'")
    p.add_argument("other", nargs="?", help="second literal (intersect)")
    p.add_argument("--vector", help="comma-separated vector (contains)")
    p.set_defaults(fn=_lattice_cmd)

    p = sub.add_parser("odometer", help="chain stages, partitions, invariants")
    p.add_argument("op", choices=["stage", "kr", "cohomology", "value-group", "freeness", "product-type"])
    p.add_argument("chain", help="chain spec file")
    p.add_argument("--depth", type=int, default=3)
    p.set_defaults(fn=_odometer_cmd)

    p = sub.add_parser("speedup", help="cocycle validation and derived chains")
    p.add_argument("op", choices=["validate", "minimal", "derive", "cone", "productform"])
    p.add_argument("cocycle", help="cocycle spec file")
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--cone", help="cone spec file (for the cone check)")
    p.set_defaults(fn=_speedup_cmd)

    p = sub.add_parser("classify", help="equivalence tests; exit 0 yes, 1 no, 2 undecided")
    p.add_argument("relation", choices=["conj", "iso", "coe", "oe"])
    p.add_argument("a", help="descriptor or chain spec file")
    p.add_argument("b", help="descriptor or chain spec file")
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--height", type=int, default=5)
    p.add_argument("--denom", type=int, default=4)
    p.set_defaults(fn=_classify_cmd)

    p = sub.add_parser("construct", help="finite-stage speedup construction")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--cone", required=True)
    p.add_argument("--stages", type=int, default=3)
    p.add_argument("--audit", action="store_true")
    p.add_argument("--table", action="store_true", help="print the grouped piece table")
    p.set_defaults(fn=_construct_cmd)

    p = sub.add_parser("repro", help="regenerate the worked examples")
    p.add_argument("case", help="case name or 'all'")
    p.add_argument("--seed", type=int, default=20210223)
    p.set_defaults(fn=_repro_cmd)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (
        SpecSyntaxError, LatticeError, SpeedupError, CastleError, ClassifyError, UsageError,
        repro_mod.UnknownCase, OSError,
    ) as err:
        print(f"odolab: error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
