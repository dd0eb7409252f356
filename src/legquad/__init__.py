"""Exact tools for legendrian varieties cut out by quadrics.

Modules:
  poly        sparse rational polynomials and the text grammar
  linalg      exact linear algebra on one sparse elimination kernel
  symplectic  forms, the Poisson bracket, and a variety's presentation
  groebner    Groebner bases of generator lists, as Polynomial lists, normal forms, dimension
  legendrian  the verdict engine and the isotropy identity of a chart and a form
  liealg      quadric Lie algebras, root spaces from the integer sp-images, identification
  rootdata    integer root data, the Dynkin diagram and its components, the closed orbit of V(lambda)
  classify    the classification scan
  catalog     example varieties, all generated
  cli         the command-line interface

The exports below are bound lazily (PEP 562): `import legquad` compiles no
module, and a name, or a submodule such as `legquad.liealg`, imports its
module on first use, so a command loads only the layers it runs.
"""

import importlib

__version__ = "0.1.0"


def lazy_attributes(namespace: dict, homes: dict):
    """A module's `__getattr__` and `__dir__` (PEP 562) for the names that
    `homes` maps to the package module defining each; a name equal to its
    home is that module itself.  A name is imported on first use and bound
    in `namespace`, the module's globals, so later lookups find it there."""

    def __getattr__(name: str):
        try:
            home = homes[name]
        except KeyError:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}") from None
        module = importlib.import_module(f"{__name__}.{home}")
        namespace[name] = value = module if name == home else getattr(module, name)
        return value

    def __dir__():
        return sorted(namespace.keys() | homes.keys())

    return __getattr__, __dir__


# The exports, by the module defining each; each of these modules is an
# attribute too (`legquad.liealg` after a bare `import legquad`).
_EXPORTS = {
    "poly": ("Polynomial", "parse_poly", "format_poly"),
    "symplectic": ("SymplecticForm", "VarietyPresentation", "standard_form", "poisson_bracket"),
    "groebner": ("BudgetExceeded", "buchberger", "initial_ideal", "normal_form", "krull_dimension"),
    "legendrian": ("LegendrianVerdict", "legendrian_verdict", "isotropy_identity"),
    "liealg": (
        "LieAlgebraPresentation", "CartanData", "close_and_present", "cartan_subalgebra",
        "root_decomposition", "identify_type", "identify_algebra",
    ),
    "rootdata": ("AbstractRootSystem", "build_root_system", "Orbit", "orbit", "is_self_dual", "angle_audit"),
    "classify": ("enumerate_simple", "enumerate_semisimple_pairs", "weight_tables", "CandidateVerdict"),
    "linalg": (),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}
__all__ = sorted(_HOMES)
__getattr__, __dir__ = lazy_attributes(globals(), _HOMES)
