"""Value semantics of odolab's record types, and an import that generates
no code.

Every class `odolab._record.record` builds is checked the same way:
construction by position and by keyword, with its defaults; equality
within the class and `NotImplemented` against another class with equal
fields; hashing of the frozen ones and none for the mutable ones; and
frozen fields that cannot be assigned or deleted."""

import functools
import importlib
import os
import pkgutil
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

import odolab
from odolab._record import record
from odolab.castles import Castle, Tower
from odolab.classify import ClassificationVerdict, NoFit, SupergroupDescriptor
from odolab.construction import SpeedupConstruction, StageRecord, StageReport
from odolab.lattice import IntegerLattice, RationalLattice
from odolab.odometer import (
    DerivedProvider,
    DiagonalPowerProvider,
    ExplicitProvider,
    FreenessReport,
    OdometerChain,
)
from odolab.repro import CaseReport, Fact
from odolab.speedup import (
    Cone,
    DerivedChainReport,
    PiecewiseCocycle,
    SpeedupError,
    ValidationReport,
)
from odolab.valuegroup import ValueGroup

from test_speedup import row_shear_cocycle


CHAIN = OdometerChain.diagonal_power([3, 2])


@functools.cache
def _stage_0():
    return SpeedupConstruction(CHAIN, OdometerChain.diagonal_power([6]), Cone.quadrant(2)).run(1)


def _lattice():
    return IntegerLattice.diagonal([3, 2])


# one instance of each record class, made by its own constructor or
# factory; the tests compare it with a copy rebuilt from its fields
EXAMPLES = {
    IntegerLattice: _lattice,
    RationalLattice: lambda: RationalLattice.from_scaled_rows(6, [[3, 0], [0, 2]]),
    ExplicitProvider: lambda: ExplicitProvider((_lattice(),)),
    DiagonalPowerProvider: lambda: DiagonalPowerProvider((3, 2), (1, 1)),
    DerivedProvider: lambda: DerivedProvider(2, CHAIN.stage),
    FreenessReport: lambda: FreenessReport(1, _lattice(), (6,), (3, 0), None),
    ValueGroup: lambda: CHAIN.clopen_value_group(),
    SupergroupDescriptor: lambda: SupergroupDescriptor.make([[1, 0], [0, 1]], [{3}, {2}]),
    ClassificationVerdict: lambda: ClassificationVerdict("conjugate", "yes", witness=((1, 0), (0, 1))),
    NoFit: lambda: NoFit("no shear fits"),
    Cone: lambda: Cone.sector((1, 0), (1, 1)),
    PiecewiseCocycle: lambda: row_shear_cocycle(CHAIN),
    ValidationReport: lambda: ValidationReport(True, "x"),
    DerivedChainReport: lambda: DerivedChainReport(1, (_lattice(),), (6,)),
    Tower: lambda: Tower(2, array("i", [0, 1, 2, 3])),
    Castle: lambda: _stage_0().stages[0].src_castle,
    StageRecord: lambda: _stage_0().stages[0],
    StageReport: lambda: _stage_0().stage_invariants(0),
    Fact: lambda: Fact("f", "trivial", True),
    CaseReport: lambda: CaseReport("case", [Fact("f", "trivial", True)]),
}
MUTABLE = {PiecewiseCocycle, Tower, Castle, StageRecord, CaseReport}
CLASSES = sorted(EXAMPLES, key=lambda cls: cls.__name__)


def _fields(value):
    return {name: getattr(value, name) for name in type(value).__annotations__}


def _copy(value):
    return type(value)(**_fields(value))


def _twin(cls):
    """A record class of another name with the same fields."""
    return record(type("Twin", (), {"__annotations__": dict(cls.__annotations__)}), frozen=cls not in MUTABLE)


def _package_records():
    """Every class of an odolab module whose `__eq__` `record` made."""
    found = set()
    for info in pkgutil.iter_modules(odolab.__path__, "odolab."):
        if info.name == "odolab.__main__":  # importing it runs the command line
            continue
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == info.name:
                if getattr(value.__eq__, "__module__", None) == record.__module__:
                    found.add(value)
    return found


def test_every_record_class_is_listed():
    # a record class of the package missing from EXAMPLES would escape
    # every test below
    assert _package_records() == set(EXAMPLES)
    assert len(CLASSES) == 20
    assert not any(hasattr(cls, "__dataclass_fields__") for cls in CLASSES)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_construction_by_position_and_by_keyword(cls):
    value = EXAMPLES[cls]()
    fields = _fields(value)
    by_position, by_keyword = cls(*fields.values()), cls(**fields)
    assert by_position == value and by_keyword == value
    assert _fields(by_position) == _fields(by_keyword) == fields
    with pytest.raises(TypeError):
        cls(*fields.values(), None)
    with pytest.raises(TypeError):
        cls(**fields, no_such_field=None)


DEFAULTED = [cls for cls in CLASSES if any(name in vars(cls) for name in cls.__annotations__)]


@pytest.mark.parametrize("cls", DEFAULTED, ids=lambda cls: cls.__name__)
def test_defaults_fill_the_trailing_fields(cls):
    value = EXAMPLES[cls]()
    fields = _fields(value)
    given = {name: v for name, v in fields.items() if name not in vars(cls)}
    made = cls(**given)
    assert all(getattr(made, name) == vars(cls)[name] for name in fields if name not in given)
    assert cls(*given.values()) == made


def test_a_missing_field_is_refused():
    with pytest.raises(TypeError, match="takes the fields ok, detail, failure"):
        ValidationReport(True)
    with pytest.raises(TypeError):
        ValidationReport(True, "x", ok=False)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_equality_within_the_class_only(cls):
    value = EXAMPLES[cls]()
    again = _copy(value)
    assert again is not value and value == again and not value != again
    twin = _twin(cls)(**_fields(value))
    assert value.__eq__(twin) is NotImplemented
    assert value != twin and twin != value


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_frozen_values_hash_and_refuse_changes(cls):
    value = EXAMPLES[cls]()
    again = _copy(value)
    name = next(iter(cls.__annotations__))
    if cls in MUTABLE:
        assert cls.__hash__ is None
        with pytest.raises(TypeError):
            hash(value)
        setattr(value, name, getattr(again, name))
        assert value == again
        return
    assert hash(value) == hash(again) == hash(tuple(_fields(value).values()))
    assert len({value, again}) == 1
    with pytest.raises(AttributeError):
        setattr(value, name, getattr(again, name))
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.not_a_field = 1
    assert _fields(value) == _fields(again)


def test_post_init_runs_the_table_checks():
    good = row_shear_cocycle(CHAIN)
    with pytest.raises(SpeedupError, match="one table per generator"):
        PiecewiseCocycle(good.chain, 2, 1, good.tables[:1])
    partial = ({**good.tables[0]}, good.tables[1])
    del partial[0][next(iter(partial[0]))]
    with pytest.raises(SpeedupError, match="total on depth-J representatives"):
        PiecewiseCocycle(chain=good.chain, d2=2, depth=1, tables=partial)


@pytest.mark.parametrize(
    "value, text",
    [
        (ValidationReport(True, "x"), "ValidationReport(ok=True, detail='x', failure=None)"),
        (NoFit("no shear fits"), "NoFit(reason='no shear fits')"),
        (
            ClassificationVerdict("conjugate", "no", certificate=(2,)),
            "ClassificationVerdict(relation='conjugate', outcome='no', witness=None, certificate=(2,), depth=None)",
        ),
        (IntegerLattice.diagonal([3, 2]), "IntegerLattice(dim=2, rows=((3, 0), (0, 2)))"),
        (Tower(1, array("i", [4, 5])), "Tower(width=1, codes=array('i', [4, 5]))"),
    ],
)
def test_repr_is_the_dataclass_text(value, text):
    assert repr(value) == text


def test_import_generates_no_code():
    # a fresh interpreter imports the package and its command line without
    # `dataclasses`; the verdict is the exit code, which -O cannot strip
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(odolab.__file__).parent.parent), env.get("PYTHONPATH")]))
    code = "import sys, odolab, odolab.cli; sys.exit(3 if 'dataclasses' in sys.modules else 0)"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, (run.returncode, run.stderr)
