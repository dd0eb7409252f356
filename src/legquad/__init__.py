"""Exact tools for legendrian varieties cut out by quadrics.

Modules:
  poly        sparse rational polynomials and the text grammar
  linalg      exact linear algebra on one sparse elimination kernel
  symplectic  forms, the Poisson bracket, the quadric / sp dictionary
  groebner    degree-by-degree Groebner bases and normal forms on the kernel, dimension
  legendrian  the verdict engine
  liealg      quadric Lie algebras, roots, Dynkin identification
  rootdata    integer root data, Weyl dimension, weights of V(lambda)
  classify    the classification scan
  catalog     example varieties, generated and transcribed
  cli         the command-line interface
"""

from .poly import Polynomial, parse_poly, format_poly, euler_weighted_sum
from .symplectic import (
    SymplecticForm,
    QuadraticForm,
    SpElement,
    standard_form,
    dual_form,
    poisson_bracket,
    quadric_to_sp,
    quadric_bracket_matrix,
    sp_membership,
)
from .groebner import (
    IdealPresentation,
    GroebnerBasis,
    BudgetExceeded,
    buchberger,
    normal_form,
    krull_dimension,
)
from .legendrian import (
    VarietyPresentation,
    LegendrianVerdict,
    bracket_closure_check,
    legendrian_verdict,
    conormal_point_check,
    tangent_point_check,
    rational_curve_check,
    degeneracy_check,
)
from .liealg import (
    LieAlgebraPresentation,
    CartanData,
    BlockView,
    close_and_present,
    quadratic_part,
    cartan_subalgebra,
    root_decomposition,
    identify_type,
    identify_algebra,
    exp_nilpotent_action,
    block_view,
)
from .rootdata import (
    AbstractRootSystem,
    build_root_system,
    weyl_dimension,
    cone_orbit_dimension,
    is_self_dual,
    angle_audit,
)
from .classify import enumerate_simple, enumerate_semisimple_pairs, CandidateVerdict

__version__ = "0.1.0"
