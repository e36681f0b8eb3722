"""odolab: exact computation with Z^d odometers and their bounded speedups.

Modules:
  lattice       canonical integer/rational lattice arithmetic
  odometer      chains of finite-index sublattices, their integer-coded
                cylinder atoms (one AtomSpace per depth), invariants
  valuegroup    clopen value groups as prime-exponent maps
  speedup       bounded speedup cocycles, their permutations of atom codes
                and their stabilizer chains
  classify      conjugacy / isomorphism / orbit-equivalence tests
  castles       least cone vectors, towers/castles of atom codes and
                their refinements
  construction  the finite-stage cone-speedup construction driver
  sampling      random valid cocycles for the property suites
  formats, cli, repro   text formats, command line, worked-example catalog
"""

from .lattice import (
    CosetSystem,
    DimensionMismatch,
    IntegerLattice,
    LatticeError,
    RationalLattice,
    SingularBasis,
    hnf,
)
from .odometer import (
    ChainDepthError,
    NotNested,
    OdometerChain,
)
from .valuegroup import ValueGroup
from .speedup import (
    AntipodalValues,
    Cone,
    HypothesisFailed,
    IncompatibleCocycle,
    NonBijectiveGenerator,
    NotMinimalAtDepth,
    PiecewiseCocycle,
    cone_check,
    cone_hull,
    derived_chain,
    derived_odometer,
    evaluate,
    minimality_to_depth,
    product_form_check,
    sandwich_diagonal_check,
    validate,
)
from .classify import (
    ClassificationVerdict,
    DimensionUnsupported,
    NoFit,
    SupergroupDescriptor,
    conjugate_test,
    continuous_oe_test,
    fit_descriptor,
    isomorphism_test,
    orbit_equivalence_test,
)
from .castles import (
    Castle,
    StepMap,
    Tower,
    castle_refinement_over,
    refine_pure_columns,
)
from .construction import SpeedupConstruction, StageReport

__all__ = [
    "AntipodalValues",
    "Castle",
    "ChainDepthError",
    "ClassificationVerdict",
    "Cone",
    "CosetSystem",
    "DimensionMismatch",
    "DimensionUnsupported",
    "HypothesisFailed",
    "IncompatibleCocycle",
    "IntegerLattice",
    "LatticeError",
    "NoFit",
    "NonBijectiveGenerator",
    "NotMinimalAtDepth",
    "NotNested",
    "OdometerChain",
    "PiecewiseCocycle",
    "RationalLattice",
    "SingularBasis",
    "SpeedupConstruction",
    "StageReport",
    "StepMap",
    "SupergroupDescriptor",
    "Tower",
    "ValueGroup",
    "castle_refinement_over",
    "cone_check",
    "cone_hull",
    "conjugate_test",
    "continuous_oe_test",
    "derived_chain",
    "derived_odometer",
    "evaluate",
    "fit_descriptor",
    "hnf",
    "isomorphism_test",
    "minimality_to_depth",
    "orbit_equivalence_test",
    "product_form_check",
    "refine_pure_columns",
    "sandwich_diagonal_check",
    "validate",
]
