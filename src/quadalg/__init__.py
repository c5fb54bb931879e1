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
from .polyalg import RationalPoly, discrete_antiderivative
from .reps import (
    ALGEBRAS,
    Label,
    Representation,
    casimir_value,
    ladder_rep,
    structure_poly,
)
from .fock3 import FockSpace, RealizedOperators, realize, verify_realization
from .diffreal import DiffOp, MonomialBasis, band_elements, build_realization
from .special import HypergeomResult, hyp0f2, hyp1f1, hyp2f0
from .coherent import CoherentState, bg_state, perelomov_compact, perelomov_noncompact
from .measures import (
    MomentTarget,
    QuadratureSpec,
    bg_moment_targets,
    kummer_integral_check,
    perelomov_moment_targets,
    verify_compact_resolution,
)
from .spectrum import DegeneracyReport, brute_force_count, degeneracy_formula, level_parts, level_report, partition_formula
from .defosc import DeformedOscillator, deform, fermion_check

__version__ = "0.1.0"
