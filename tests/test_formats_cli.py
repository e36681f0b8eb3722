import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import odolab
from odolab.classify import SupergroupDescriptor, fit_descriptor, orbit_equivalence_test
from odolab.cli import main
from odolab.formats import (
    SpecSyntaxError,
    emit_chain,
    emit_cocycle,
    emit_cone,
    emit_descriptor,
    emit_lattice,
    parse_chain,
    parse_cocycle,
    parse_cone,
    parse_descriptor,
    parse_lattice,
)
from odolab.lattice import IntegerLattice, RationalLattice, SingularBasis
from odolab.odometer import OdometerChain
from odolab.repro import ROW_SHEAR_COCYCLE
from odolab.speedup import Cone, constant_cocycle

from test_speedup import row_shear_cocycle


# ---------------------------------------------------------------- round trips

def test_lattice_literal_round_trip():
    lat = IntegerLattice.from_rows([[3, 2], [0, 2]])
    assert parse_lattice(emit_lattice(lat)) == lat
    rat = RationalLattice.from_scaled_rows(6, [[2, 0], [-2, 3]])
    assert parse_lattice(emit_lattice(rat)) == rat


def test_lattice_literal_random_round_trip():
    rng = random.Random(2)
    for _ in range(40):
        while True:
            try:
                lat = IntegerLattice.from_rows(
                    [[rng.randint(-9, 9) for _ in range(2)] for _ in range(2)]
                )
                break
            except SingularBasis:
                continue
        assert parse_lattice(emit_lattice(lat)) == lat


def test_chain_round_trip():
    diag = OdometerChain.diagonal_power([3, 2])
    again = parse_chain(emit_chain(diag))
    assert again.provider == diag.provider
    expl = OdometerChain.explicit([IntegerLattice.diagonal([2, 2]), IntegerLattice.diagonal([4, 4])])
    again = parse_chain(emit_chain(expl))
    assert again.provider == expl.provider


def test_cocycle_round_trip(tmp_path):
    cocycle = row_shear_cocycle()
    (tmp_path / "mixed.chain").write_text("dim=2 provider=diagpow primes=3,2 exps=j,j")
    text = emit_cocycle(cocycle, "mixed.chain")
    again = parse_cocycle(text, base_dir=tmp_path)
    assert again.tables == cocycle.tables
    assert again.depth == cocycle.depth and again.d2 == cocycle.d2
    assert emit_cocycle(again, "mixed.chain") == text


def test_a_derived_chain_over_a_resolution_2_cocycle_starts_at_depth_2(tmp_path):
    # stabilizers exist from depth J = 2 up: chain stage i is the one at
    # depth i + 1, a cofinal chain with the base chain's odometer
    mixed = OdometerChain.diagonal_power([3, 2])
    cocycle = constant_cocycle(mixed, 2, [(1, 0), (0, 1)])
    (tmp_path / "mixed.chain").write_text("dim=2 provider=diagpow primes=3,2 exps=j,j")
    (tmp_path / "j2.cocycle").write_text(emit_cocycle(cocycle, "mixed.chain"))
    chain = parse_chain("dim=2 provider=derived cocycle=j2.cocycle checked=2", base_dir=tmp_path)
    assert [emit_lattice(chain.stage(i)) for i in (1, 2)] == ["2; 9 0; 0 4", "2; 27 0; 0 8"]
    assert orbit_equivalence_test(chain, mixed).outcome == "yes"
    assert emit_descriptor(fit_descriptor(chain, 3)) == "dim=2 shear=1,0,0,1 supports=3|2"


def test_randomized_round_trips():
    rng = random.Random(44)
    primes = [2, 3, 5, 7]
    for _ in range(25):
        # chains
        d = rng.choice([1, 2, 3])
        bases = [rng.choice(primes) for _ in range(d)]
        coeffs = [rng.choice([1, 1, 2, 3]) for _ in range(d)]
        chain = OdometerChain.diagonal_power(bases, coeffs)
        assert parse_chain(emit_chain(chain)).provider == chain.provider
        # descriptors: the shear denominator must be allowed at its coordinate
        sup2 = set(rng.sample(primes, rng.randint(1, 2)))
        den = rng.choice([1] + [p for p in sup2])
        lam = Fraction(rng.randint(-3, 3), den)
        desc = SupergroupDescriptor.make(
            [[1, 0], [lam, 1]],
            [set(rng.sample(primes, rng.randint(0, 2))), sup2],
        )
        assert parse_descriptor(emit_descriptor(desc)) == desc


def test_randomized_cocycle_round_trip(tmp_path):
    import random as _random

    from odolab.sampling import sample_cocycles

    rng = _random.Random(9)
    chain = OdometerChain.diagonal_power([3, 2])
    (tmp_path / "mixed.chain").write_text("dim=2 provider=diagpow primes=3,2 exps=j,j")
    for cocycle in sample_cocycles(chain, 10, rng):
        text = emit_cocycle(cocycle, "mixed.chain")
        again = parse_cocycle(text, base_dir=tmp_path)
        assert again.tables == cocycle.tables


def test_descriptor_round_trip():
    desc = SupergroupDescriptor.make([[1, 0], [Fraction(-1, 2), 1]], [{3}, {2}])
    assert parse_descriptor(emit_descriptor(desc)) == desc
    plain = SupergroupDescriptor.coordinate([{2, 3}, set()])
    assert parse_descriptor(emit_descriptor(plain)) == plain


def test_cone_round_trip():
    for cone in (
        Cone.quadrant(2),
        Cone.quadrant(3, strict_axes=(1,)),
        Cone.sector((1, 0), (1, 1), include_v=False),
        Cone.sector((3, 1), (3, 1)),
        Cone.from_facets([((Fraction(1, 2), Fraction(-1, 3)), False), ((0, Fraction(5, 4)), True)]),
    ):
        assert parse_cone(emit_cone(cone)) == cone
    # rational normals are written in their primitive integer form
    assert emit_cone(cone) == "cone=facets dim=2 normals=3,-2,>=;0,1,>"
    assert parse_cone("cone=facets dim=2 normals=1/2,-1/3,>=;0,5/4,>") == cone


# ---------------------------------------------------------------- errors

def test_syntax_error_carries_position():
    with pytest.raises(SpecSyntaxError) as err:
        parse_lattice("2; 3 x; 0 2")
    assert err.value.line == 1 and err.value.column > 1
    # a multi-line literal reports the row at its own line and column
    with pytest.raises(SpecSyntaxError, match=r"^line 3, column 1: bad integer row '0 x'$"):
        parse_lattice("2;\n1 0;\n0 x")
    with pytest.raises(SpecSyntaxError, match=r"^line 2, column 3: bad integer row '1 y'$"):
        parse_lattice("2;\n  1 y; 0 1")
    with pytest.raises(SpecSyntaxError):
        parse_chain("dim=2 provider=unknown")
    # a diagpow base below 1 is refused at the primes= value; base 1 gives a
    # chain that is not free
    with pytest.raises(SpecSyntaxError, match=r"^line 1, column 31: diagpow bases must be at least 1, got -3$"):
        parse_chain("dim=2 provider=diagpow primes=-3,2 exps=j,j")
    assert parse_chain("dim=2 provider=diagpow primes=1,2").freeness_evidence(2).certified_free is False
    # a sector's errors are positioned at the ray they blame
    with pytest.raises(SpecSyntaxError, match=r"^line 1, column 15: the zero vector has no direction$"):
        parse_cone("cone=sector u=0,0 v=1,0")
    with pytest.raises(SpecSyntaxError, match=r"^line 1, column 21: the zero vector has no direction$"):
        parse_cone("cone=sector u=1,0 v=0,0")
    with pytest.raises(SpecSyntaxError):
        parse_cocycle(
            "chain=unused J=1 d2=1\nnonsense",
            chain=OdometerChain.diagonal_power([2]),
        )
    # a resolution depth J or a generator count d2 below 1 is refused at its
    # value, before any table is read
    line = OdometerChain.diagonal_power([2])
    for header, column, message in [
        ("chain=unused J=1 d2=0", 21, "d2 must be at least 1, got 0"),
        ("chain=unused J=0 d2=1", 16, "J must be at least 1, got 0"),
        ("chain=unused J=1 d2=-1", 21, "d2 must be at least 1, got -1"),
        ("chain=unused d2=1 J=-2", 21, "J must be at least 1, got -2"),
    ]:
        with pytest.raises(SpecSyntaxError, match=rf"^line 1, column {column}: {message}$"):
            parse_cocycle(header + "\ngen 1:\nrep (0) -> (1)", chain=line)
    # a sector's include= is one of four words, refused at its value; a
    # diagpow rule list holds one rule or one per base, and a bad rule is
    # refused at the exps= value too
    for parse, text, column, message in [
        (parse_cone, "cone=sector u=1,0 v=1,1 include=bogus", 33, "include must be both, u, v or none"),
        (parse_chain, "dim=2 provider=diagpow primes=3,2 exps=j,j,j", 40, "exps needs 1 or 2 rules, got 3"),
        (parse_chain, "dim=3 provider=diagpow primes=3,2,5 exps=j,j", 42, "exps needs 1 or 3 rules, got 2"),
        (parse_chain, "dim=2 provider=diagpow primes=3,2 exps=j,x", 40, r"bad exponent rule 'x' \(use j, 2j, \.\.\.\)"),
        (parse_chain, "dim=2 provider=diagpow primes=3,2 exps=j,3", 40, "constant exponents other than 0 are not a rule"),
        # a key given twice is refused at its second occurrence, not read as
        # the last of the two
        (parse_cone, "cone=sector u=1,0 v=1,1 include=u include=v", 35, "repeated key include="),
        (parse_chain, "provider=diagpow primes=3,2 primes=2,2", 29, "repeated key primes="),
        (parse_cone, "cone=quadrant dim=2 dim=2", 21, "repeated key dim="),
        # a header error that blames one value is positioned at it; a
        # missing cone= stays at column 1
        (parse_chain, "dim=3 provider=diagpow primes=3,2", 5, "dim does not match the prime list"),
        (parse_chain, "dim=2 provider=bogus", 16, "unknown provider 'bogus'"),
        (parse_chain, "dim=3 provider=explicit\n2; 1 0; 0 1", 5, "dim does not match the stage matrices"),
        (parse_descriptor, "dim=2 shear=1,0,0 supports=3|2", 13, "shear needs 4 entries"),
        (parse_descriptor, "dim=2 shear=1,0,0,1 supports=3", 30, r"supports need 2 groups separated by \|"),
        (parse_cone, "cone=bogus dim=2", 6, "cone kind must be quadrant, sector, or facets"),
        (parse_cone, "dim=2", 1, "cone kind must be quadrant, sector, or facets"),
        # a text of comments and blank lines is an empty spec of its kind
        (parse_chain, "# no spec here\n\n", 1, "empty chain spec"),
        (parse_cocycle, "  # nothing\n", 1, "empty cocycle spec"),
        (parse_descriptor, "#", 1, "empty descriptor spec"),
        (parse_cone, "\n# only a comment", 1, "empty cone spec"),
    ]:
        with pytest.raises(SpecSyntaxError, match=rf"^line 1, column {column}: {message}$"):
            parse(text)
    # a rep of a cocycle table is one of the depth-J coset representatives,
    # given once: a repeated rep and one outside the coset rectangle are
    # refused at the rep, and a missing one at its table's `gen i:` line
    mixed = OdometerChain.diagonal_power([3, 2])
    table = "".join(f"rep ({a},{b}) -> (1,0)\n" for a in range(3) for b in range(2))
    head = "chain=unused J=1 d2=1\ngen 1:\n"
    for text, line, column, message in [
        (head + "rep (0,0) -> (3,3)\n" + table, 4, 6, r"repeated rep \(0,0\)"),
        (head + table + "   rep (1,0) -> (0,0)", 9, 9, r"repeated rep \(1,0\)"),
        (head + table.replace("(2,1) ->", "(5,1) ->"), 8, 6, r"rep \(5,1\) lies outside the depth-1 coset rectangle 3x2"),
        (head + table.replace("(2,1) ->", "(-1,1) ->"), 8, 6, r"rep \(-1,1\) lies outside the depth-1 coset rectangle 3x2"),
        ("chain=unused J=2 d2=1\ngen 1:\nrep (3,4) -> (1,0)", 3, 6, r"rep \(3,4\) lies outside the depth-2 coset rectangle 9x4"),
        (head + table.replace("rep (1,1) -> (1,0)\n", ""), 2, 1, r"gen 1 has no rep \(1,1\)"),
        (head.replace("d2=1", "d2=2") + table + "gen 2:\n" + table.replace("rep (0,0) -> (1,0)\n", ""), 9, 1, r"gen 2 has no rep \(0,0\)"),
    ]:
        with pytest.raises(SpecSyntaxError, match=rf"^line {line}, column {column}: {message}$"):
            parse_cocycle(text, chain=mixed)
    assert parse_cocycle(head + table, chain=mixed).tables[0][(2, 1)] == (1, 0)
    assert parse_cone("cone=sector u=1,0 v=1,1 include=none").sector_data[2:] == (False, False)
    assert parse_chain("dim=2 provider=diagpow primes=3,2 exps=2j").stage(1).diag == (9, 4)


# ---------------------------------------------------------------- CLI

@pytest.fixture()
def specdir(tmp_path):
    (tmp_path / "mixed.chain").write_text("dim=2 provider=diagpow primes=3,2 exps=j,j")
    (tmp_path / "dyadic.chain").write_text("dim=2 provider=diagpow primes=2,2 exps=j,j")
    (tmp_path / "target.chain").write_text("dim=1 provider=diagpow primes=6 exps=j")
    (tmp_path / "base.desc").write_text("dim=2 shear=1,0,0,1 supports=3|2")
    (tmp_path / "sheared.desc").write_text("dim=2 shear=1,0,-1/2,1 supports=3|2")
    (tmp_path / "quad.cone").write_text("cone=quadrant dim=2")
    (tmp_path / "ex.chain").write_text("dim=2 provider=explicit\n2; 2 0; 0 2\n2; 4 0; 0 4")
    from odolab.formats import emit_cocycle as emit

    (tmp_path / "rowshear.cocycle").write_text(emit(row_shear_cocycle(), "mixed.chain"))
    return tmp_path


def test_cli_lattice(capsys):
    assert main(["lattice", "hnf", "2; 3 2; 0 2"]) == 0
    assert capsys.readouterr().out.strip() == "2; 3 2; 0 2"
    assert main(["lattice", "dual", "2; 3 2; 0 2"]) == 0
    assert capsys.readouterr().out.strip() == "1/6; 2; 6 2; 0 1"
    assert main(["lattice", "contains", "2; 3 2; 0 2", "--vector", "2,2"]) == 0
    capsys.readouterr()
    assert main(["lattice", "contains", "2; 3 2; 0 2", "--vector", "1,1"]) == 1
    capsys.readouterr()
    # rational entries, against a rational and an integer lattice
    assert main(["lattice", "contains", "1/2; 2; 1 0; 0 1", "--vector", "1/2,0"]) == 0
    assert capsys.readouterr().out.strip() == "yes"
    assert main(["lattice", "contains", "2; 3 2; 0 2", "--vector", "1/2,0"]) == 1
    assert capsys.readouterr().out.strip() == "no"
    # a rational literal of an integer lattice has integer cosets
    assert main(["lattice", "coset", "1/2; 2; 2 0; 0 2"]) == 0
    assert capsys.readouterr().out.split("\n")[:2] == ["rectangle 1 1", "0 0"]
    # an integer lattice meets a rational one in either order
    for pair in (["2; 3 2; 0 2", "1/2; 2; 1 0; 0 1"], ["1/2; 2; 1 0; 0 1", "2; 3 2; 0 2"]):
        assert main(["lattice", "intersect", *pair]) == 0
        assert capsys.readouterr().out.strip() == "2; 3 2; 0 2"


def test_cli_odometer(specdir, capsys):
    assert main(["odometer", "stage", str(specdir / "mixed.chain"), "--depth", "2"]) == 0
    assert capsys.readouterr().out.strip() == "2; 9 0; 0 4"
    assert main(["odometer", "value-group", str(specdir / "mixed.chain")]) == 0
    assert "1/2^inf" in capsys.readouterr().out


def test_cli_speedup(specdir, capsys):
    assert main(["speedup", "validate", str(specdir / "rowshear.cocycle")]) == 0
    capsys.readouterr()
    assert main(["speedup", "derive", str(specdir / "rowshear.cocycle"), "--depth", "2"]) == 0
    out = capsys.readouterr().out
    assert "stage 1: 2; 3 2; 0 2" in out
    assert "stage 2: 2; 9 7; 0 4" in out
    assert main(["speedup", "productform", str(specdir / "rowshear.cocycle")]) == 1
    capsys.readouterr()
    assert main(["speedup", "cone", str(specdir / "rowshear.cocycle")]) == 0
    assert "sector" in capsys.readouterr().out


def test_cli_classify_exit_codes(specdir, capsys):
    assert main(["classify", "conj", str(specdir / "base.desc"), str(specdir / "sheared.desc")]) == 1
    capsys.readouterr()
    assert main(["classify", "iso", str(specdir / "base.desc"), str(specdir / "sheared.desc")]) == 1
    capsys.readouterr()
    assert (
        main(["classify", "coe", str(specdir / "base.desc"), str(specdir / "sheared.desc"), "--denom", "2"]) == 0
    )
    capsys.readouterr()
    assert main(["classify", "oe", str(specdir / "mixed.chain"), str(specdir / "target.chain")]) == 0
    capsys.readouterr()
    assert main(["classify", "oe", str(specdir / "mixed.chain"), str(specdir / "dyadic.chain")]) == 1
    capsys.readouterr()
    assert main(["classify", "conj", str(specdir / "mixed.chain"), str(specdir / "mixed.chain")]) == 2
    capsys.readouterr()


def test_cli_construct(specdir, capsys):
    code = main(
        [
            "construct",
            "--source", str(specdir / "mixed.chain"),
            "--target", str(specdir / "target.chain"),
            "--cone", str(specdir / "quad.cone"),
            "--stages", "1",
            "--audit",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "stage 0" in out and "FAIL" not in out


def test_cli_construct_prints_the_stages_built_before_an_error(specdir, monkeypatch, capsys):
    # with the atom budget at 6^5, stages 0 and 1 onto 36^j build at the
    # source's depths 3 and 5, and stage 2 needs depth 6: stages 0-1 and
    # their audits are printed, then the error
    from odolab import construction

    monkeypatch.setattr(construction, "MAX_ATOMS", 6**5)
    (specdir / "t36.chain").write_text("dim=1 provider=diagpow primes=36 exps=j")
    argv = ["construct", "--source", str(specdir / "mixed.chain"), "--target", str(specdir / "t36.chain"),
            "--cone", str(specdir / "quad.cone"), "--audit", "--stages"]
    assert main([*argv, "2"]) == 0
    built = capsys.readouterr().out
    assert built.startswith("stage 0: ") and "\nstage 1: " in built and "FAIL" not in built
    assert main([*argv, "4"]) == 3
    captured = capsys.readouterr()
    assert captured.out == built
    assert captured.err == "odolab: error: stage 2 needs depth 6, whose 46656 atoms exceed 7776\n"


def test_cli_construct_refuses_an_explicit_target(specdir, capsys):
    # an explicit chain's value group is known only to the depth it lists,
    # so it cannot be matched exactly to the source's, even at the
    # source's own indices: one line naming both groups, exit 3
    (specdir / "t6.chain").write_text("dim=1 provider=explicit\n1; 6\n1; 36\n1; 216")
    argv = ["construct", "--source", str(specdir / "mixed.chain"), "--target", str(specdir / "t6.chain"),
            "--cone", str(specdir / "quad.cone"), "--stages", "1"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "odolab: error: source and target clopen value groups Z[1/2^inf, 1/3^inf] and Z[1/2^3, 1/3^3] "
        "(to depth 3) are not known to be equal: the target runs at the source's indices, "
        "which needs an exact match\n"
    )


def test_cli_oe_finds_a_certain_witness_against_an_explicit_chain(specdir, capsys):
    # the observed group of an explicit chain lies inside its own, so 1/3,
    # which 3, 9, 27 already holds, is a certain witness against 2^j; 1/2 is
    # not, since the explicit chain's later stages could hold it
    (specdir / "line2.chain").write_text("dim=1 provider=diagpow primes=2 exps=j")
    (specdir / "e3.chain").write_text("dim=1 provider=explicit\n1; 3\n1; 9\n1; 27")
    (specdir / "quad1.cone").write_text("cone=quadrant dim=1")
    for pair in (["line2.chain", "e3.chain"], ["e3.chain", "line2.chain"]):
        assert main(["classify", "oe", *(str(specdir / name) for name in pair)]) == 1
        assert capsys.readouterr().out == "orbit-equivalent: no certificate=(value-group witness, 1/3)\n"
    argv = ["construct", "--source", str(specdir / "line2.chain"), "--target", str(specdir / "e3.chain"),
            "--cone", str(specdir / "quad1.cone"), "--stages", "1"]
    assert main(argv) == 3
    assert capsys.readouterr().err == (
        "odolab: error: source and target clopen value groups differ: 1/3 lies in only one of them\n"
    )


def test_cli_construct_refuses_chains_whose_atoms_never_get_finer(specdir, capsys):
    (specdir / "ones.chain").write_text("dim=2 provider=diagpow primes=1,1 exps=j,j")
    (specdir / "one.chain").write_text("dim=1 provider=diagpow primes=1 exps=j")
    argv = ["construct", "--source", str(specdir / "ones.chain"), "--target", str(specdir / "one.chain"),
            "--cone", str(specdir / "quad.cone"), "--stages", "1"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "odolab: error: the clopen value group is Z: the chains' atoms never get finer\n"


def test_cli_repro_single(capsys):
    assert main(["repro", "sandwich-lattice-rigidity"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_python_m_odolab_runs_the_cli():
    # `python -m odolab` runs `cli.main`: the help lists the commands and exits 0
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(odolab.__file__).parent.parent), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-m", "odolab", "--help"], env=env, capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("usage: odolab ") and "construct" in run.stdout


def test_cli_repro_unknown(capsys):
    # an unknown case is an error (exit 3), not a failed fact (exit 1)
    assert main(["repro", "no-such-case"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("odolab: error: unknown case 'no-such-case'; known: ")
    assert captured.err.count("\n") == 1


# malformed specs for the exit-3 cases, written next to the fixture's files
BAD_SPECS = {
    "half.cone": "cone=sector u=1,0 v=-1,0 include=both",
    "nodim.cone": "cone=quadrant",
    "nod2.cocycle": "chain=mixed.chain J=1\ngen 1:\nrep (0,0) -> (1,0)",
    "badj.cocycle": "chain=mixed.chain J=x d2=1\ngen 1:\nrep (0,0) -> (1,0)",
    "badrep.cocycle": "chain=mixed.chain J=1 d2=1\ngen 1:\nrep (0,x) -> (1,0)",
    "shortval.cocycle": "chain=mixed.chain J=1 d2=1\ngen 1:\nrep (0,0) -> (1)",
    "badnormal.cone": "cone=facets dim=2 normals=1,x,>=",
    "badstrict.cone": "cone=quadrant dim=2 strict=0,5",
    "line.cone": "cone=facets dim=2 normals=1,0,>=",
    "badrow.chain": "dim=2 provider=explicit\n2; 2 0; 0 2\n2; 4 x; 0 4",
    "rank.chain": "dim=3 provider=derived cocycle=rowshear.cocycle",
    "negbase.chain": "dim=2 provider=diagpow primes=-3,2 exps=j,j",
    "zerobase.chain": "dim=2 provider=diagpow primes=0,2",
    "zeroray.cone": "cone=sector u=0,0 v=1,0",
    "ray3.cone": "cone=sector u=1,2,3 v=1,0",
    "flat.chain": "dim=1 provider=diagpow primes=6 exps=0",
    "zerod2.cocycle": "chain=mixed.chain J=1 d2=0",
    "zeroj.cocycle": "chain=mixed.chain J=0 d2=1\ngen 1:\nrep (0,0) -> (1,0)",
    "negd2.cocycle": "chain=mixed.chain J=1 d2=-1",
    "badinclude.cone": "cone=sector u=1,0 v=1,1 include=bogus",
    "longexps.chain": "dim=2 provider=diagpow primes=3,2 exps=j,j,j",
    "shortexps.chain": "dim=3 provider=diagpow primes=3,2,5 exps=j,j",
    "twoinclude.cone": "cone=sector u=1,0 v=1,1 include=u include=v",
    "twoprimes.chain": "dim=2 provider=diagpow primes=3,2 primes=2,2",
    "dimprimes.chain": "dim=3 provider=diagpow primes=3,2",
    "bogus.chain": "dim=2 provider=bogus",
    "bogus.cone": "cone=bogus dim=2",
    "tworep.cocycle": ROW_SHEAR_COCYCLE.replace("gen 1:\n", "gen 1:\nrep (0,0) -> (3,3)\n"),
    "farrep.cocycle": ROW_SHEAR_COCYCLE.replace("rep (2,1) -> (1,0)", "rep (5,1) -> (1,0)"),
    "negrep.cocycle": ROW_SHEAR_COCYCLE.replace("rep (2,1) -> (1,0)", "rep (-1,1) -> (1,0)"),
    "norep.cocycle": ROW_SHEAR_COCYCLE.replace("rep (1,1) -> (1,1)\n", ""),
    "scaled.desc": "dim=2 shear=2,0,0,1 supports=3|2",
}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["lattice", "dual", "2; 0 0; 0 0"], "generators do not span a rank-2 lattice"),
        (["lattice", "dual", "2; 0 0"], "line 1, column 1: expected a 2x2 matrix"),
        (["odometer", "stage", "missing.chain"], "No such file or directory"),
        (["odometer", "stage", "mixed.chain", "--depth", "0"], "stages are numbered from 1"),
        (["classify", "iso", "mixed.chain", "mixed.chain", "--depth", "0"], "at least two stages"),
        (
            ["construct", "--source", "mixed.chain", "--target", "mixed.chain", "--cone", "quad.cone"],
            "the construction targets one-dimensional chains",
        ),
        (
            ["construct", "--source", "mixed.chain", "--target", "target.chain", "--cone", "half.cone"],
            "sector spans at least a half-plane",
        ),
        (["speedup", "validate", "nod2.cocycle"], "line 1, column 1: missing d2="),
        (["speedup", "validate", "badj.cocycle"], "line 1, column 21: bad value 'x' for J="),
        (["speedup", "validate", "badrep.cocycle"], "line 3, column 6: expected 2 integers, got (0,x)"),
        (["speedup", "validate", "shortval.cocycle"], "line 3, column 15: expected 2 integers, got (1)"),
        (
            ["construct", "--source", "mixed.chain", "--target", "target.chain", "--cone", "nodim.cone"],
            "line 1, column 1: missing dim=",
        ),
        (
            ["construct", "--source", "mixed.chain", "--target", "target.chain", "--cone", "badnormal.cone"],
            "line 1, column 27: bad facet '1,x,>='",
        ),
        (["odometer", "stage", "badrow.chain"], "line 3, column 4: bad integer row '4 x'"),
        (["classify", "conj", "base.desc", "mixed.chain"], "two descriptor files or two chain files"),
        (["classify", "oe", "base.desc", "sheared.desc"], "orbit equivalence compares chains"),
        (["lattice", "contains", "2; 3 2; 0 2"], "lattice contains needs --vector"),
        (["lattice", "contains", "2; 3 2; 0 2", "--vector", "1,x"], "comma-separated rationals, got '1,x'"),
        (["lattice", "intersect", "2; 3 2; 0 2"], "needs a second lattice literal"),
        (["lattice", "contains", "2; 3 2; 0 2", "--vector", "1/0,1"], "comma-separated rationals, got '1/0,1'"),
        (["lattice", "coset", "1/2; 2; 1 0; 0 1"], "lattice coset needs an integer lattice, got denominator 2"),
        (["classify", "coe", "base.desc", "sheared.desc", "--denom", "0"], "denominator bound must be at least 1, got 0"),
        (["classify", "coe", "base.desc", "sheared.desc", "--height", "0"], "search height must be at least 1, got 0"),
        (["classify", "iso", "base.desc", "sheared.desc", "--height", "-1"], "search height must be at least 1, got -1"),
        (
            ["construct", "--source", "mixed.chain", "--target", "target.chain", "--cone", "quad.cone",
             "--stages", "0", "--table"],
            "stage count must be at least 1, got 0",
        ),
        (
            ["construct", "--source", "mixed.chain", "--target", "target.chain", "--cone", "quad.cone",
             "--stages", "-2"],
            "stage count must be at least 1, got -2",
        ),
        (
            ["construct", "--source", "mixed.chain", "--target", "target.chain", "--cone", "badstrict.cone"],
            "line 1, column 28: strict axis 5 is not an axis of dimension 2",
        ),
        (
            ["construct", "--source", "mixed.chain", "--target", "target.chain", "--cone", "line.cone"],
            "the cone contains the line through (0, 1); it must contain no line",
        ),
        (["odometer", "stage", "rank.chain"], "line 1, column 5: dim does not match the cocycle's rank 2"),
        (["speedup", "derive", "rowshear.cocycle", "--depth", "0"], "derive at least to the cocycle resolution depth"),
        (["odometer", "kr", "negbase.chain", "--depth", "2"], "line 1, column 31: diagpow bases must be at least 1, got -3"),
        (["odometer", "value-group", "zerobase.chain"], "line 1, column 31: diagpow bases must be at least 1, got 0"),
        (
            ["construct", "--source", "mixed.chain", "--target", "target.chain", "--cone", "zeroray.cone"],
            "line 1, column 15: the zero vector has no direction",
        ),
        (
            ["construct", "--source", "mixed.chain", "--target", "target.chain", "--cone", "ray3.cone"],
            "line 1, column 15: sector cones are two-dimensional",
        ),
        (
            ["construct", "--source", "mixed.chain", "--target", "flat.chain", "--cone", "quad.cone"],
            "source and target clopen value groups differ: 1/2 lies in only one of them",
        ),
        (["classify", "oe", "ex.chain", "ex.chain", "--depth", "0"], "depth bound must be at least 1, got 0"),
        (["odometer", "value-group", "ex.chain", "--depth", "0"], "depth bound must be at least 1, got 0"),
        (["odometer", "product-type", "mixed.chain", "--depth", "0"], "depth bound must be at least 1, got 0"),
        (["speedup", "validate", "zerod2.cocycle"], "line 1, column 26: d2 must be at least 1, got 0"),
        (["speedup", "cone", "zerod2.cocycle"], "line 1, column 26: d2 must be at least 1, got 0"),
        (["speedup", "validate", "zeroj.cocycle"], "line 1, column 21: J must be at least 1, got 0"),
        (["speedup", "validate", "negd2.cocycle"], "line 1, column 26: d2 must be at least 1, got -1"),
        (
            ["construct", "--source", "mixed.chain", "--target", "target.chain", "--cone", "badinclude.cone"],
            "line 1, column 33: include must be both, u, v or none",
        ),
        (["odometer", "stage", "longexps.chain", "--depth", "2"], "line 1, column 40: exps needs 1 or 2 rules, got 3"),
        (["odometer", "stage", "shortexps.chain"], "line 1, column 42: exps needs 1 or 3 rules, got 2"),
        (
            ["construct", "--source", "mixed.chain", "--target", "target.chain", "--cone", "twoinclude.cone"],
            "line 1, column 35: repeated key include=",
        ),
        (["odometer", "stage", "twoprimes.chain"], "line 1, column 35: repeated key primes="),
        (["odometer", "stage", "dimprimes.chain"], "line 1, column 5: dim does not match the prime list"),
        (["odometer", "stage", "bogus.chain"], "line 1, column 16: unknown provider 'bogus'"),
        (
            ["construct", "--source", "mixed.chain", "--target", "target.chain", "--cone", "bogus.cone"],
            "line 1, column 6: cone kind must be quadrant, sector, or facets",
        ),
        (["speedup", "validate", "tworep.cocycle"], "line 4, column 6: repeated rep (0,0)"),
        (["speedup", "derive", "tworep.cocycle", "--depth", "2"], "line 4, column 6: repeated rep (0,0)"),
        (["speedup", "validate", "farrep.cocycle"], "line 8, column 6: rep (5,1) lies outside the depth-1 coset rectangle 3x2"),
        (["speedup", "validate", "negrep.cocycle"], "line 8, column 6: rep (-1,1) lies outside the depth-1 coset rectangle 3x2"),
        (["speedup", "validate", "norep.cocycle"], "line 9, column 1: gen 2 has no rep (1,1)"),
        (["classify", "coe", "base.desc", "scaled.desc"], "shear must be unit lower triangular"),
    ],
)
def test_cli_domain_errors_exit_3(specdir, monkeypatch, capsys, argv, message):
    for name, text in BAD_SPECS.items():
        (specdir / name).write_text(text)
    monkeypatch.chdir(specdir)
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("odolab: error: ")
    assert message in captured.err
    assert captured.err.count("\n") == 1


# ---------------------------------------------------------------- package

def test_every_exported_name_resolves():
    import odolab

    missing = [name for name in odolab.__all__ if not hasattr(odolab, name)]
    assert missing == []
    assert len(set(odolab.__all__)) == len(odolab.__all__)
