"""Exact computer algebra for ZZ2-graded quadratic Lie superalgebras.

Presentations with quadratic odd-odd brackets, two independent Jacobi
checkers, a normal-ordering rewrite engine with PBW spanning sets, the
gl2(n/1) family with characteristic identities and projectors, level-1
atypicality analysis, and a fermionic Fock-space oracle.
"""

from .atypicality import (
    atypicality_report,
    level1_poly,
    one_step_analysis,
    table_zero_step,
    zero_step,
    zero_step_equivalence_check,
)
from .exprparse import ParseError, parse_ncpoly, parse_scalar
from .fock import (
    SparseOp,
    bracket_polynomial_check,
    composite_generators,
    fermion_ops,
    lambda3_presentation,
    presentation_cross_check,
    zero_step_demo,
)
from .gl2n1 import (
    CharIdentity,
    FamilyParams,
    Gl2n1,
    Weight,
    build,
    casimirs,
    char_roots,
    family_data,
    projector,
)
from .ncpoly import Alphabet, NCPoly
from .pbw import (
    GeneratorOrder,
    RewriteSystem,
    check_admissible,
    inadmissible_dependence_witness,
    pbw_monomial_count,
    serre_module_check,
)
from .presentation import (
    BalancedData,
    JacobiReport,
    JacobiViolation,
    QlsPresentation,
    build_from_casimirs,
)
from .scalars import Scalar, srat

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "BalancedData",
    "CharIdentity",
    "FamilyParams",
    "GeneratorOrder",
    "Gl2n1",
    "JacobiReport",
    "JacobiViolation",
    "NCPoly",
    "ParseError",
    "QlsPresentation",
    "RewriteSystem",
    "Scalar",
    "SparseOp",
    "Weight",
    "atypicality_report",
    "bracket_polynomial_check",
    "build",
    "build_from_casimirs",
    "casimirs",
    "char_roots",
    "check_admissible",
    "composite_generators",
    "family_data",
    "fermion_ops",
    "inadmissible_dependence_witness",
    "lambda3_presentation",
    "level1_poly",
    "one_step_analysis",
    "parse_ncpoly",
    "parse_scalar",
    "pbw_monomial_count",
    "presentation_cross_check",
    "projector",
    "serre_module_check",
    "srat",
    "table_zero_step",
    "zero_step",
    "zero_step_demo",
    "zero_step_equivalence_check",
]
