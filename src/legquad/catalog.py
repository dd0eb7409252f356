"""Executable fixtures: every example variety, ready for the verdict engine.

Gr(3,6), its Lagrangian cousin and the spinor variety are the charts X_f of
cubic norms, one table row each, built by `x_f`.  The 56-variable
exceptional variety ships as a transcribed, checksum-pinned data file.  The
rest is generated from closed formulas: the twisted cubic, the
line-times-quadric family, the plane-cubic charts and the complex complete
intersection.

The line-times-quadric family uses a sum-of-squares quadric, which has no
rational points at all; a projectively equivalent split model (hyperbolic
quadric, adapted form) is provided alongside it for every point-based check.
Both models come from one partner map on the quadric's coordinates, and
their forms are `symplectic.pairing_form`s; generated equations are parsed
text, and the implicit equations of a chart are one sparse kernel.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .legendrian import VarietyPresentation
from .poly import Polynomial, monomials_of_degree, parse_poly
from .symplectic import SymplecticForm, pairing_form, standard_form

_CHECKSUMS = {
    "e7.txt": "68c0b55536e3d3e86a130e171b9730bf5eb9bf316f0c6c4d33f2f23f7cc8ac2b",
}


class DataIntegrityError(RuntimeError):
    """A bundled data file does not match its pinned checksum."""


@dataclass
class CatalogEntry:
    presentation: VarietyPresentation
    source: str                      # "generated" | "transcribed"
    base_point: Optional[List[Fraction]]
    provenance_note: str
    checksum: Optional[str] = None

    @property
    def name(self) -> str:
        return self.presentation.name


def _read_data(filename: str) -> List[str]:
    blob = resources.files("legquad.data").joinpath(filename).read_bytes()
    digest = hashlib.sha256(blob).hexdigest()
    if digest != _CHECKSUMS[filename]:
        raise DataIntegrityError(f"{filename}: checksum mismatch ({digest})")
    return blob.decode().splitlines()


def _unit_point(nvars: int, index: int = 0) -> List[Fraction]:
    pt = [Fraction(0)] * nvars
    pt[index] = Fraction(1)
    return pt


# ---------------------------------------------------------------------------
# Twisted cubic.
# ---------------------------------------------------------------------------

# The skew form making the cubic legendrian, and the matrix of the induced
# dual form under the bracket normalization that makes the structure
# constants integral; the two differ by the scalar -3.
_CUBIC_FORM = [[0, 0, 0, -1], [0, 0, 3, 0], [0, -3, 0, 0], [1, 0, 0, 0]]
_CUBIC_DUAL = [[0, 0, 0, 3], [0, 0, -1, 0], [0, 1, 0, 0], [-3, 0, 0, 0]]


def twisted_cubic() -> CatalogEntry:
    """Degree-3 rational normal curve in P^3, cut out by three quadrics."""
    form = SymplecticForm(_CUBIC_FORM, dual_matrix=_CUBIC_DUAL)
    gens = [
        parse_poly("x2^2 - x1*x3", 4),
        parse_poly("x0*x2 - x1^2", 4),
        parse_poly("x0*x3 - x1*x2", 4),
    ]
    # (lambda, mu) -> (lambda^3, lambda^2 mu, lambda mu^2, mu^3)
    par = [
        parse_poly("x0^3", 2),
        parse_poly("x0^2*x1", 2),
        parse_poly("x0*x1^2", 2),
        parse_poly("x1^3", 2),
    ]
    pres = VarietyPresentation("twisted-cubic", form, gens, parametrization=par)
    return CatalogEntry(
        pres, "generated", _unit_point(4),
        "Veronese curve of degree 3; the nonstandard form matrix is the one "
        "making all tangent spaces isotropic, unique up to scale.",
    )


# ---------------------------------------------------------------------------
# Line times quadric (Segre family).
# ---------------------------------------------------------------------------


def segre_line_quadric(n: int, split: bool = False) -> CatalogEntry:
    """Segre embedding of a line times an (n-2)-quadric in P^{2n-1}.

    Both models read one partner map p on 0..n-1: the identity for the
    default sum-of-squares quadric, k -> n-1-k for the hyperbolic quadric of
    `split=True`, which is the same variety over an extension but has
    rational points and a rationally split symmetry algebra.  Besides the
    2x2 minors, the generators are sum 1/2 x_{n+k} x_{n+p(k)},
    -sum 1/2 x_k x_{p(k)} and sum x_k x_{n+p(k)}, and the form pairs k with
    n+p(k); for p the identity it is `standard_form(n)`.
    """
    if n < 3:
        raise ValueError("the family needs n >= 3")
    nv = 2 * n
    p = [n - 1 - k if split else k for k in range(n)]
    texts = [f"x{i}*x{n + j} - x{j}*x{n + i}" for i in range(n) for j in range(i + 1, n)]
    texts.append(" + ".join(f"1/2*x{n + k}*x{n + p[k]}" for k in range(n)))
    texts.append("".join(f" - 1/2*x{k}*x{p[k]}" for k in range(n)))
    texts.append(" + ".join(f"x{k}*x{n + p[k]}" for k in range(n)))
    form = pairing_form(nv, [(k, n + p[k], 1) for k in range(n)])
    if split:
        name, base, note = f"segre-split-{n}", _unit_point(nv), (
            "line times the hyperbolic quadric; projectively equivalent to the "
            "sum-of-squares model but rationally split, with base point e0.")
    else:
        name, base, note = f"segre-{n}", None, (
            "line times the sum-of-squares quadric; the quadric has no "
            "rational points, so no base point is available over Q.")
    pres = VarietyPresentation(name, form, [parse_poly(t, nv) for t in texts])
    return CatalogEntry(pres, "generated", base, note)


# ---------------------------------------------------------------------------
# The paper's list: charts of cubic norms.
# ---------------------------------------------------------------------------

# Entry name -> (variety, number of chart parameters, cubic norm f); each
# entry is X_f, the closure of the chart built by `x_f` below.
_CUBIC_NORMS = {
    # det of the generic matrix (y0 y1 y2 / y3 y4 y5 / y6 y7 y8)
    "gr36": ("Gr(3,6)", 9,
             "y0*y4*y8 + y1*y5*y6 + y2*y3*y7 - y2*y4*y6 - y1*y3*y8 - y0*y5*y7"),
    # det of the symmetric matrix (y0 y3 y4 / y3 y1 y5 / y4 y5 y2)
    "grl36": ("Gr_L(3,6)", 6, "y0*y1*y2 + 2*y3*y4*y5 - y0*y5^2 - y1*y4^2 - y2*y3^2"),
    # Pfaffian of the skew 6x6 matrix whose upper entries are y0..y14 row by row
    "spinor-s6": ("the spinor variety S_6", 15,
                  "y0*y9*y14 - y0*y10*y13 + y0*y11*y12 - y1*y6*y14 + y1*y7*y13"
                  " - y1*y8*y12 + y2*y5*y14 - y2*y7*y11 + y2*y8*y10 - y3*y5*y13"
                  " + y3*y6*y11 - y3*y8*y9 + y4*y5*y12 - y4*y6*y10 + y4*y7*y9"),
}


def _cubic_norm_entry(name: str) -> CatalogEntry:
    """The quadrics of X_f for the cubic norm f of `name`."""
    variety, m, norm = _CUBIC_NORMS[name]
    entry = x_f(parse_poly(norm, m), implicit_degree=2)
    entry.presentation.name = name
    entry.provenance_note = f"{variety} as the {entry.provenance_note}"
    return entry


# ---------------------------------------------------------------------------
# The 56-variable exceptional variety.
# ---------------------------------------------------------------------------


def e7_variety() -> CatalogEntry:
    """27-dimensional exceptional legendrian variety: 133 quadrics in P^55."""
    lines = [
        l.strip() for l in _read_data("e7.txt") if l.strip() and not l.startswith("#")
    ]
    polys = [parse_poly(l, 56) for l in lines]
    if len(polys) != 133:
        raise DataIntegrityError("e7.txt: expected 133 equations")
    pres = VarietyPresentation("e7", standard_form(28), polys)
    return CatalogEntry(
        pres, "transcribed", _unit_point(56),
        "x<i> pairs with x<28+i> under the standard block form, an "
        "assumption read off the equation shapes and validated by bracket "
        "closure of the quadric span.",
        checksum=_CHECKSUMS["e7.txt"],
    )


# ---------------------------------------------------------------------------
# The X_f construction.
# ---------------------------------------------------------------------------


def x_f(f: Polynomial, implicit_degree: Optional[int] = None) -> CatalogEntry:
    """Legendrian variety built from a homogeneous polynomial f in n-1
    variables: the closure of the graph-like chart

        y -> (1 : y : (k-2) f(y) : -df(y))

    with the standard form on 2n coordinates.  Pass implicit_degree to also
    attach all forms of degree <= implicit_degree vanishing on the image
    (exact linear algebra); by default the entry is parametrization-only.
    """
    k = f.homogeneous_degree()
    if k is None:
        raise ValueError("f must be homogeneous")
    m = f.nvars          # number of chart parameters, n - 1
    n = m + 1
    nv = 2 * n
    par: List[Polynomial] = [Polynomial.constant(m, 1)]
    par += [Polynomial.variable(m, i) for i in range(m)]
    par.append(f.scale(k - 2))
    for i in range(m):
        par.append(-f.partial_derivative(i))
    gens: List[Polynomial] = []
    if implicit_degree is not None:
        for d in range(1, implicit_degree + 1):
            gens.extend(_implicit_forms(par, nv, d))
    pres = VarietyPresentation(
        _xf_name(f), standard_form(n), gens, parametrization=par
    )
    base = [comp.evaluate([Fraction(1)] * m) for comp in par]
    return CatalogEntry(
        pres, "generated", base,
        f"chart built from the degree-{k} polynomial {f}",
    )


def _xf_name(f: Polynomial) -> str:
    return "xf-" + str(f).replace(" ", "").replace("*", ".")


def _implicit_forms(par: Sequence[Polynomial], nv: int, degree: int) -> List[Polynomial]:
    """All homogeneous degree-d forms vanishing on the parametrized image."""
    monos = monomials_of_degree(nv, degree)
    rows: Dict[Tuple[int, ...], Dict[int, Fraction]] = {}
    for col, mono in enumerate(monos):
        factors = [par[var] for var, e in enumerate(mono) for _ in range(e)]
        value = factors[0]
        for factor in factors[1:]:
            value = value * factor
        for pmono, coeff in value.terms.items():
            rows.setdefault(pmono, {})[col] = coeff
    kernel = linalg.sparse_nullspace(rows.values(), range(len(monos)))
    return [Polynomial(nv, {monos[i]: c for i, c in vec.items()}) for vec in kernel]


# The five implicit equations attached to the plane-cubic chart built from
# y1 y2 (y1 + y2): three quadrics and two cubics.
_XF3_EQUATIONS = [
    "x0*x5 + x1^2 + 2*x1*x2",
    "x0*x4 + 2*x1*x2 + x2^2",
    "3*x0*x3 + x1*x4 + x2*x5",
    "x1*x4^2 - 2*x1*x4*x5 + 9*x2^2*x3 - 5*x2*x4*x5 + 4*x2*x5^2",
    "x1*x3*x4 - 2*x1*x3*x5 + 2*x2*x3*x4 - x2*x3*x5 - x4^2*x5 + x4*x5^2",
]


def x_f_cubic_fixture(which: int) -> CatalogEntry:
    """The three plane-cubic charts: y1^3, y1^2 y2 and y1 y2 (y1 + y2).

    The first is degenerate (a hyperplane section), the second is a
    line-times-line surface, the third carries the five listed equations.
    """
    charts = {1: "y0^3", 2: "y0^2*y1"}
    if which in charts:
        return x_f(parse_poly(charts[which], 2), implicit_degree=2)
    if which != 3:
        raise ValueError("which must be 1, 2 or 3")
    entry = x_f(parse_poly("y0*y1*(y0+y1)", 2))
    gens = [parse_poly(t, 6) for t in _XF3_EQUATIONS]
    for g in gens:
        if not g.substitute(entry.presentation.parametrization).is_zero():
            raise DataIntegrityError("listed cubic-chart equation fails on the chart")
    return CatalogEntry(
        VarietyPresentation(
            "xf-cubic-3", entry.presentation.form, gens,
            parametrization=entry.presentation.parametrization,
        ),
        "transcribed", entry.base_point,
        "the five listed equations of the chart of y1 y2 (y1 + y2), "
        "verified to vanish along the parametrization",
    )


# ---------------------------------------------------------------------------
# Complex complete intersection.
# ---------------------------------------------------------------------------


def complete_intersection_complex() -> CatalogEntry:
    """Singular complete intersection of two quadrics and a cubic in P^5.

    Variables (u0, u1, u2, v0, v1, v2) with u_k paired against v_k, so the
    standard block form applies.  The singular locus is a union of six
    lines, recorded in the note.
    """
    gens = [
        parse_poly("x0*x3 - x1*x4", 6),
        parse_poly("x0*x3 - x2*x5", 6),
        parse_poly("x0*x1*x2 - x3*x4*x5", 6),
    ]
    pres = VarietyPresentation("complete-intersection", standard_form(3), gens)
    return CatalogEntry(
        pres, "generated", [Fraction(1)] * 6,
        "u_k = x_k, v_k = x_{3+k}; singular exactly along six lines "
        "(pairs of opposite coordinate planes), smooth elsewhere.",
    )


def four_lines() -> CatalogEntry:
    """Union of four legendrian lines in P^3: a reducible fixture."""
    gens = [parse_poly("x0*x2", 4), parse_poly("x1*x3", 4)]
    pres = VarietyPresentation("four-lines", standard_form(2), gens)
    return CatalogEntry(
        pres, "generated", [Fraction(1), Fraction(1), Fraction(0), Fraction(0)],
        "two monomial quadrics cutting four lines; reducible but legendrian.",
    )


def linear_lagrangian() -> CatalogEntry:
    """The projectivization of the span of the first two basis vectors."""
    gens = [parse_poly("x2", 4), parse_poly("x3", 4)]
    pres = VarietyPresentation("linear-lagrangian", standard_form(2), gens)
    return CatalogEntry(
        pres, "generated", [Fraction(1), Fraction(0), Fraction(0), Fraction(0)],
        "a linear subvariety; legendrian exactly because its span is "
        "isotropic of half dimension.",
    )


# ---------------------------------------------------------------------------
# Registry.
# ---------------------------------------------------------------------------

_BUILDERS = {
    "twisted-cubic": twisted_cubic,
    "segre-3": lambda: segre_line_quadric(3),
    "segre-4": lambda: segre_line_quadric(4),
    "segre-5": lambda: segre_line_quadric(5),
    "segre-split-3": lambda: segre_line_quadric(3, split=True),
    "segre-split-4": lambda: segre_line_quadric(4, split=True),
    "segre-split-5": lambda: segre_line_quadric(5, split=True),
    "gr36": lambda: _cubic_norm_entry("gr36"),
    "grl36": lambda: _cubic_norm_entry("grl36"),
    "spinor-s6": lambda: _cubic_norm_entry("spinor-s6"),
    "e7": e7_variety,
    "xf-cubic-1": lambda: x_f_cubic_fixture(1),
    "xf-cubic-2": lambda: x_f_cubic_fixture(2),
    "xf-cubic-3": lambda: x_f_cubic_fixture(3),
    "complete-intersection": complete_intersection_complex,
    "four-lines": four_lines,
    "linear-lagrangian": linear_lagrangian,
}


def entry_names() -> List[str]:
    return list(_BUILDERS)


def get_entry(name: str) -> CatalogEntry:
    try:
        return _BUILDERS[name]()
    except KeyError:
        raise KeyError(f"unknown catalog entry {name!r}") from None


def dump_entry(entry: CatalogEntry) -> str:
    """Serialize to the input format of the check subcommand."""
    pres = entry.presentation
    lines = [f"# {entry.name}: {entry.provenance_note}"]
    lines.append(f"n={pres.half_dim}")
    if pres.form.matrix == standard_form(pres.half_dim).matrix:
        lines.append("form=standard")
    else:
        lines.append("form=json:" + pres.form.to_json())
    for g in pres.generators:
        lines.append(str(g))
    return "\n".join(lines) + "\n"
