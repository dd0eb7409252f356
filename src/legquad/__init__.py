"""Exact tools for legendrian varieties cut out by quadrics.

Modules:
  poly        sparse rational polynomials and the text grammar
  linalg      exact linear algebra on one sparse elimination kernel
  symplectic  forms and the Poisson bracket
  groebner    Groebner bases of generator lists, as Polynomial lists, normal forms, dimension
  legendrian  the verdict engine and the isotropy identity of a chart and a form
  liealg      quadric Lie algebras, root spaces from the integer sp-images, identification
  rootdata    integer root data, the Dynkin diagram and its components, the closed orbit of V(lambda)
  classify    the classification scan
  catalog     example varieties, all generated
  cli         the command-line interface
"""

from .poly import Polynomial, parse_poly, format_poly
from .symplectic import SymplecticForm, standard_form, poisson_bracket
from .groebner import (
    BudgetExceeded,
    buchberger,
    initial_ideal,
    normal_form,
    krull_dimension,
)
from .legendrian import (
    VarietyPresentation,
    LegendrianVerdict,
    legendrian_verdict,
    isotropy_identity,
    degeneracy_check,
)
from .liealg import (
    LieAlgebraPresentation,
    CartanData,
    close_and_present,
    cartan_subalgebra,
    root_decomposition,
    identify_type,
    identify_algebra,
)
from .rootdata import (
    AbstractRootSystem,
    build_root_system,
    Orbit,
    orbit,
    is_self_dual,
    angle_audit,
)
from .classify import enumerate_simple, enumerate_semisimple_pairs, weight_tables, CandidateVerdict

__version__ = "0.1.0"
