"""Executable fixtures: every example variety, ready for the verdict engine.

The paper's list is the subadjoint varieties and the line times a quadric.
The subadjoint ones, the twisted cubic, Gr(3,6), its Lagrangian cousin,
the spinor variety and the 56-variable E7 variety, are each the chart X_f
of a cubic Jordan norm f (Landsberg and Manivel, J. Algebra 239, 2001;
Mukai 1998), one table row each; the line times the split quadric of so(m)
is X_f of y0 q for a split quadric q.  All are built by `x_f` and listed
by torus weight.  The sum-of-squares model of the line times a quadric has
no rational point, so it is no X_f; it is written out under the standard
form.  The rest is generated from closed formulas, the plane-cubic charts
and the complex complete intersection; no entry carries transcribed data.
Generated equations are parsed text, and the implicit equations of a chart
are one sparse kernel per image degree of integer monomial products.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations_with_replacement
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .poly import MonomialCodec, Polynomial, parse_poly
from .symplectic import VarietyPresentation, pairing_form, standard_form


@dataclass
class CatalogEntry:
    presentation: VarietyPresentation
    base_point: Optional[List[Fraction]]
    provenance_note: str

    @property
    def name(self) -> str:
        return self.presentation.name


# ---------------------------------------------------------------------------
# Line times quadric (Segre family).
# ---------------------------------------------------------------------------


def segre_line_quadric(n: int) -> CatalogEntry:
    """Segre embedding of a line times the sum-of-squares (n-2)-quadric in
    P^{2n-1}, under `standard_form(n)`: the 2x2 minors, sum 1/2 x_{n+k}^2,
    -sum 1/2 x_k^2 and sum x_k x_{n+k}.  The quadric has no rational point,
    so neither has the variety; `line_times_quadric` is its split model."""
    if n < 3:
        raise ValueError("the family needs n >= 3")
    nv = 2 * n
    texts = [f"x{i}*x{n + j} - x{j}*x{n + i}" for i in range(n) for j in range(i + 1, n)]
    texts.append(" + ".join(f"1/2*x{n + k}^2" for k in range(n)))
    texts.append("".join(f" - 1/2*x{k}^2" for k in range(n)))
    texts.append(" + ".join(f"x{k}*x{n + k}" for k in range(n)))
    pres = VarietyPresentation(f"segre-{n}", standard_form(n), [parse_poly(t, nv) for t in texts])
    return CatalogEntry(pres, None, (
        "line times the sum-of-squares quadric; the quadric has no "
        "rational points, so no base point is available over Q."))


# ---------------------------------------------------------------------------
# The paper's list: charts of cubic norms.
# ---------------------------------------------------------------------------

def _det3(first: int) -> str:
    """The determinant of the generic 3x3 matrix on y<first>, ..., y<first+8>,
    row by row."""
    a, b, c, d, e, f, g, h, i = (f"y{first + k}" for k in range(9))
    return f"{a}*{e}*{i} + {b}*{f}*{g} + {c}*{d}*{h} - {c}*{e}*{g} - {b}*{d}*{i} - {a}*{f}*{h}"


# tr(ABC) for the generic 3x3 matrices A, B, C on y0..y8, y9..y17, y18..y26
_TRACE_ABC = " + ".join(
    f"y{3 * i + j}*y{9 + 3 * j + k}*y{18 + 3 * k + i}" for i in range(3) for j in range(3) for k in range(3)
)

# Entry name -> (variety, number of chart parameters, cubic norm f); each
# entry is X_f, the closure of the chart built by `x_f` below.
_CUBIC_NORMS = {
    "twisted-cubic": ("the twisted cubic", 1, "y0^3"),
    # det of the generic matrix (y0 y1 y2 / y3 y4 y5 / y6 y7 y8)
    "gr36": ("Gr(3,6)", 9, _det3(0)),
    # det of the symmetric matrix (y0 y3 y4 / y3 y1 y5 / y4 y5 y2)
    "grl36": ("Gr_L(3,6)", 6, "y0*y1*y2 + 2*y3*y4*y5 - y0*y5^2 - y1*y4^2 - y2*y3^2"),
    # Pfaffian of the skew 6x6 matrix whose upper entries are y0..y14 row by row
    "spinor-s6": ("the spinor variety S_6", 15,
                  "y0*y9*y14 - y0*y10*y13 + y0*y11*y12 - y1*y6*y14 + y1*y7*y13"
                  " - y1*y8*y12 + y2*y5*y14 - y2*y7*y11 + y2*y8*y10 - y3*y5*y13"
                  " + y3*y6*y11 - y3*y8*y9 + y4*y5*y12 - y4*y6*y10 + y4*y7*y9"),
    # the norm of the 27-dimensional Jordan algebra as three 3x3 matrices
    "e7": ("the 27-dimensional E7 variety", 27,
           f"{_det3(0)} + {_det3(9)} + {_det3(18)} - ({_TRACE_ABC})"),
}


def _torus_order(f: Polynomial) -> List[int]:
    """The chart variables sorted by one generic weight of the torus that
    scales f: the weights on which f's monomials all agree are one
    `sparse_nullspace` of the differences of their exponent vectors, and
    the kernel basis, combined with the powers of 3 as coefficients, gives
    the weight; ties keep the chart order."""
    exps = list(f.terms)
    rows = [{i: a - b for i, (a, b) in enumerate(zip(e, exps[0])) if a != b} for e in exps[1:]]
    basis = linalg.sparse_nullspace(rows, range(f.nvars))
    weight = [sum(3 ** t * vec.get(i, 0) for t, vec in enumerate(basis)) for i in range(f.nvars)]
    return sorted(range(f.nvars), key=weight.__getitem__)


def _cubic_norm_entry(name: str, variety: str, m: int, cubic: str) -> CatalogEntry:
    """X_f for the cubic f in m chart variables, cut out by the quadrics of
    its chart, with the chart coordinates (1, y, f, -df) of `x_f` listed as
    1, the y's sorted by torus weight, their -df partners in mirrored order,
    and f, so that the form pairs x<i> with x<N-1-i>.  In this order the
    reduced grevlex basis of each table entry, and of `line_times_quadric(m)`
    for m <= 12, is its quadrics."""
    f = parse_poly(cubic, m)
    chart = _chart(f)
    order = _torus_order(f)
    coords = [0] + [1 + i for i in order] + [m + 2 + i for i in reversed(order)] + [m + 1]
    nv = len(coords)
    relist = itemgetter(*coords)
    gens = [Polynomial(nv, {relist(e): x for e, x in g.terms.items()}) for g in _implicit_forms(chart, nv, 2)]
    form = pairing_form(nv, [(i, nv - 1 - i, 1) for i in range(nv // 2)])
    par = [chart[c] for c in coords]
    return CatalogEntry(
        VarietyPresentation(name, form, gens, parametrization=par), _chart_point(par),
        f"{variety} as the {_chart_note(f)}, in the coordinates 1, y by torus "
        f"weight, -df mirrored, f, so that x<i> pairs with x<{nv - 1}-i>",
    )


def line_times_quadric(m: int) -> CatalogEntry:
    """The line times the split quadric of so(m), in P^{2m-1}: X_f of y0 q
    for q = y1 y<m-2> + y2 y<m-3> + ..., plus y<(m-1)/2>^2 when m is odd,
    listed by torus weight like the cubic-norm rows."""
    if m < 3:
        raise ValueError("the family needs m >= 3")
    q = [f"y{i}*y{m - 1 - i}" for i in range(1, m // 2)] + [f"y{(m - 1) // 2}^2"] * (m % 2)
    return _cubic_norm_entry(f"segre-split-{m}", f"the line times the split quadric of so({m})", m - 1,
                             f"y0*({' + '.join(q)})")


# ---------------------------------------------------------------------------
# The X_f construction.
# ---------------------------------------------------------------------------


def x_f(f: Polynomial, implicit_degree: Optional[int] = None) -> CatalogEntry:
    """Legendrian variety built from a homogeneous polynomial f in n-1
    variables: the closure of the graph-like chart

        y -> (1 : y : (k-2) f(y) : -df(y))

    with the standard form on 2n coordinates.  Pass implicit_degree to also
    attach generators of the ideal of the image up to that degree (exact
    linear algebra); by default the entry is parametrization-only.  Degrees
    1 and 2 keep every form of `_implicit_forms`, so the quadrics span I_2.
    Above that a form is kept only when it enlarges the span of the
    multiples of the generators kept below its degree (`liealg.degree_part`)
    and of the forms kept before it.
    """
    par = _chart(f)
    nv = 2 * (f.nvars + 1)
    gens: List[Polynomial] = []
    for d in range(1, (implicit_degree or 0) + 1):
        forms = _implicit_forms(par, nv, d)
        if d > 2 and forms:
            from .liealg import degree_part
            codec = MonomialCodec(nv, d)
            span = degree_part(gens, d, codec)
            forms = [form for form in forms if span.add(codec.row(form))]
        gens.extend(forms)
    pres = VarietyPresentation(_xf_name(f), standard_form(nv // 2), gens, parametrization=par)
    return CatalogEntry(pres, _chart_point(par), _chart_note(f))


def _chart(f: Polynomial) -> List[Polynomial]:
    """The components 1, y, (k-2) f and -df of the chart of f, in order."""
    k = f.homogeneous_degree()
    if k is None:
        raise ValueError("the chart polynomial is zero" if f.is_zero() else "f must be homogeneous")
    m = f.nvars
    return ([Polynomial.constant(m, 1)] + [Polynomial.variable(m, i) for i in range(m)]
            + [f.scale(k - 2)] + [-f.partial_derivative(i) for i in range(m)])


def _chart_point(par: Sequence[Polynomial]) -> List[Fraction]:
    """The chart point at y = (1, ..., 1): each component's coefficient sum."""
    return [sum(comp.terms.values(), Fraction(0)) for comp in par]


def _chart_note(f: Polynomial) -> str:
    return f"chart built from the degree-{f.homogeneous_degree()} polynomial {chart_text(f)}"


def chart_text(f: Polynomial) -> str:
    """f in the text grammar with its chart variables named y0, y1, ...,
    apart from the ambient coordinates x0, x1, ... of the chart's variety."""
    return str(f).replace("x", "y")


def _xf_name(f: Polynomial) -> str:
    return "xf-" + chart_text(f).replace(" ", "").replace("*", ".")


Image = Dict[int, int]  # monomial code -> nonzero integer coefficient


def _times(a: Image, b: Image) -> Image:
    """The product of two polynomials over one `MonomialCodec`."""
    if len(b) == 1:
        a, b = b, a
    if len(a) == 1:  # a shift, under which no two terms meet
        (c, x), = a.items()
        return {c + d: x * y for d, y in b.items()}
    out: Image = {}
    for c, x in a.items():
        for d, y in b.items():
            out[c + d] = out.get(c + d, 0) + x * y
    return {c: x for c, x in out.items() if x}


def _implicit_forms(par: Sequence[Polynomial], nv: int, degree: int) -> List[Polynomial]:
    """All homogeneous degree-d forms vanishing on the parametrized image of
    homogeneous components: the canonical kernel basis of the map from the
    degree-d monomials, largest grevlex first, to their images, one form per
    free monomial in that order (`linalg.Echelon.kernel`).

    A monomial's column is its code in the ambient codec, so columns
    increase down grevlex.  Each component is integer terms over one codec
    times 1/den, and a monomial's image is the product of its components,
    so column c holds den_c times its image and the kernel is scaled back
    by den_p / den_c.  Columns of different image degree share no row, so
    each image degree is one tracked `Echelon` over its columns in order: a
    column in the span of the earlier ones is free, and its coefficients
    over the columns stored (`combination`), read once every column is in,
    as they are unique, are its kernel vector.  A column that alone holds an
    image monomial is forced to zero and left out; one of zero image is
    free, its own form.
    """
    codec = MonomialCodec(par[0].nvars, max(degree * max(p.degree() for p in par), 1))
    ambient = MonomialCodec(nv, degree)
    comps = [linalg.integral(codec.row(p)) if p.terms else ({}, 1) for p in par]
    # monomial, as a sorted tuple of its variables -> (its ambient code, image, den)
    prefixes: Dict[Tuple[int, ...], Tuple[int, Image, int]] = {(): (0, {0: 1}, 1)}

    def product(support: Tuple[int, ...]) -> Tuple[int, Image, int]:
        head = support[:-1]
        if head not in prefixes:
            prefixes[head] = product(head)
        code, image, den = prefixes[head]
        terms, d = comps[support[-1]]
        return code + ambient.units[support[-1]], _times(image, terms), den * d

    blocks: Dict[int, Dict[int, Image]] = {}  # image degree -> column -> image
    dens: Dict[int, int] = {}
    forms: Dict[int, Dict[int, Fraction]] = {}
    for support in combinations_with_replacement(range(nv), degree):
        col, image, dens[col] = product(support)
        if image:
            blocks.setdefault(codec.degree(next(iter(image))), {})[col] = image
        else:
            forms[col] = {col: Fraction(1)}
    for block in blocks.values():
        holders = Counter(chain.from_iterable(block.values()))
        ech = linalg.Echelon(track=True)
        kept = [col for col in sorted(block) if min(map(holders.__getitem__, block[col])) > 1]
        stored = [col for col in kept if ech.add(block[col])]
        for col in sorted(set(kept).difference(stored)):
            ints, scale = ech.combination(block[col])
            form = {stored[i]: Fraction(-x * dens[stored[i]], scale * dens[col]) for i, x in ints.items()}
            form[col] = Fraction(1)
            forms[col] = form
    return [ambient.polynomial(forms[col]) for col in sorted(forms)]


def x_f_cubic_fixture(which: int) -> CatalogEntry:
    """The three plane-cubic charts, `x_f` of y0^3, y0^2 y1 and
    y0 y1 (y0 + y1) in two variables: a degenerate chart (a hyperplane
    section) and a line-times-line surface, both cut out by forms of degree
    at most 2, and a chart whose ideal needs two cubics beside its three
    quadrics."""
    charts = {1: ("y0^3", 2), 2: ("y0^2*y1", 2), 3: ("y0*y1*(y0+y1)", 3)}
    if which not in charts:
        raise ValueError("which must be 1, 2 or 3")
    text, degree = charts[which]
    entry = x_f(parse_poly(text, 2), implicit_degree=degree)
    entry.presentation.name = f"xf-cubic-{which}"
    return entry


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
        pres, [Fraction(1)] * 6,
        "u_k = x_k, v_k = x_{3+k}; singular exactly along six lines "
        "(pairs of opposite coordinate planes), smooth elsewhere.",
    )


def four_lines() -> CatalogEntry:
    """Union of four legendrian lines in P^3: a reducible fixture."""
    gens = [parse_poly("x0*x2", 4), parse_poly("x1*x3", 4)]
    pres = VarietyPresentation("four-lines", standard_form(2), gens)
    return CatalogEntry(
        pres, [Fraction(1), Fraction(1), Fraction(0), Fraction(0)],
        "two monomial quadrics cutting four lines; reducible but legendrian.",
    )


def linear_lagrangian() -> CatalogEntry:
    """The projectivization of the span of the first two basis vectors."""
    gens = [parse_poly("x2", 4), parse_poly("x3", 4)]
    pres = VarietyPresentation("linear-lagrangian", standard_form(2), gens)
    return CatalogEntry(
        pres, [Fraction(1), Fraction(0), Fraction(0), Fraction(0)],
        "a linear subvariety; legendrian exactly because its span is "
        "isotropic of half dimension.",
    )


# ---------------------------------------------------------------------------
# Registry.
# ---------------------------------------------------------------------------

_BUILDERS = {
    "twisted-cubic": lambda: _cubic_norm_entry("twisted-cubic", *_CUBIC_NORMS["twisted-cubic"]),
    "segre-3": lambda: segre_line_quadric(3),
    "segre-4": lambda: segre_line_quadric(4),
    "segre-5": lambda: segre_line_quadric(5),
    "segre-split-3": lambda: line_times_quadric(3),
    "segre-split-4": lambda: line_times_quadric(4),
    "segre-split-5": lambda: line_times_quadric(5),
    "gr36": lambda: _cubic_norm_entry("gr36", *_CUBIC_NORMS["gr36"]),
    "grl36": lambda: _cubic_norm_entry("grl36", *_CUBIC_NORMS["grl36"]),
    "spinor-s6": lambda: _cubic_norm_entry("spinor-s6", *_CUBIC_NORMS["spinor-s6"]),
    "e7": lambda: _cubic_norm_entry("e7", *_CUBIC_NORMS["e7"]),
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
    if pres.form == standard_form(pres.half_dim):
        lines.append("form=standard")
    else:
        lines.append("form=json:" + pres.form.to_json())
    for g in pres.generators:
        lines.append(str(g))
    return "\n".join(lines) + "\n"
