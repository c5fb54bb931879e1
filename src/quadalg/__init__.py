"""Quadratic algebras from three bosonic modes.

Construction and verification of polynomially deformed ladder algebras:
matrix representations, bosonic realizations on truncated Fock spaces,
single-variable differential realizations, coherent-state families with
their resolution-of-identity measures, and the degeneracy/partition counts
of the 1:1:2 anisotropic oscillator.
"""

from .errors import (
    BasisSpanError,
    InvalidLabelError,
    NumericalToleranceError,
    QuadratureError,
    SeriesConvergenceError,
    TruncationError,
)
from .polyalg import CasimirPoly, RationalPoly, discrete_antiderivative
from .reps import (
    AlgebraLabel,
    Representation,
    Su2Label,
    Su11Label,
    casimir_value,
    compact_rep,
    noncompact_rep,
    su2_rep,
    su11_rep,
    two_dim_family,
)
from .fock3 import FockSpace, RealizedOperators, realize_compact, realize_noncompact, realize_two_mode, verify_realization
from .diffreal import DiffOp, MonomialBasis, band_elements, build_realization
from .coherent import (
    CoherentState,
    HypergeomResult,
    HypergeomSeries,
    bg_state,
    hypergeom,
    perelomov_compact,
    perelomov_noncompact,
)
from .measures import (
    MomentTarget,
    QuadratureSpec,
    bg_moment_target,
    kummer_integral_check,
    perelomov_moment_target,
    verify_compact_resolution,
)
from .spectrum import DegeneracyReport, brute_force_count, decompose_level, degeneracy_formula, level_report, partition_formula
from .defosc import DeformedOscillator, deform, fermion_check

__version__ = "0.1.0"
