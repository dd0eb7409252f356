"""Executable fixtures: every example variety, ready for the verdict engine.

Three entries ship as transcribed data files (the Grassmannian Gr(3,6), its
Lagrangian cousin and the 56-variable exceptional variety); their files are
checksum-pinned.  Everything else is generated from closed formulas: the
twisted cubic, the line-times-quadric family, the spinor variety from its
Pfaffian relations, the X_f family from a cubic's partial derivatives and
the complex complete intersection.

The line-times-quadric family uses a sum-of-squares quadric, which has no
rational points at all; a projectively equivalent split model (hyperbolic
quadric, adapted form) is provided alongside it for every point-based check.
Both models come from one partner map on the quadric's coordinates.  Every
form that pairs coordinates (those models', the wedge pairing of Gr(3,6) and
its restriction) is a `symplectic.pairing_form`; generated equations are
parsed text, and the implicit equations of a chart are one sparse kernel.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .legendrian import VarietyPresentation
from .liealg import degree_part
from .poly import MonomialCodec, Polynomial, monomials_of_degree, parse_poly
from .symplectic import SymplecticForm, pairing_form, standard_form

_CHECKSUMS = {
    "gr36.txt": "a959bd45a0b2278d942165cd3c77f317a906b1d704d844f807aa879ed6e25068",
    "grl36.txt": "b9e281e00a9805980e3f5c384db8c7035d08363066d325e21ef8d88458983a1b",
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
# Grassmannian Gr(3,6).
# ---------------------------------------------------------------------------


def _load_gr36() -> Tuple[List[str], List[int], List[Polynomial]]:
    lines = _read_data("gr36.txt")
    order: List[str] = []
    signs: List[int] = []
    eqs = []
    for line in lines:
        if line.startswith("# canonical-order:"):
            order = line.split(":")[1].split()
        elif line.startswith("# pairing-signs:"):
            signs = [int(s) for s in line.split(":")[1].split()]
        elif line.startswith("#") or not line.strip():
            continue
        else:
            eqs.append(line.strip())
    name_to_idx = {n: i for i, n in enumerate(order)}

    def convert(eq: str) -> str:
        s = re.sub(r"x<(\d{3})>", lambda m: f"x{name_to_idx[m.group(1)]}", eq)
        s = re.sub(r"(\d)\s+(?=x\d)", r"\1*", s)
        s = re.sub(r"(x\d+)\s+(?=x\d)", r"\1*", s)
        return s

    polys = [parse_poly(convert(e), 20) for e in eqs]
    return order, signs, polys


def grassmannian_36() -> CatalogEntry:
    """Grassmannian of 3-planes in a 6-space under the wedge-square pairing."""
    order, signs, polys = _load_gr36()
    if len(polys) != 35:
        raise DataIntegrityError("gr36.txt: expected 35 equations")
    form = pairing_form(20, [(i, 10 + i, s) for i, s in enumerate(signs)])
    pres = VarietyPresentation("gr36", form, polys)
    return CatalogEntry(
        pres, "transcribed", _unit_point(20),
        "Pluecker quadrics in the verbatim coordinate names of the data "
        "file; the base point is the x123 unit vector.",
        checksum=_CHECKSUMS["gr36.txt"],
    )


# Linear substitution from the wedge coordinates of Gr(3,6) to the 14
# coordinates of the Lagrangian Grassmannian: name -> (coefficient, y index).
_GRL_SUBSTITUTION: Dict[str, Tuple[Fraction, int]] = {
    "123": (Fraction(1), 0), "126": (Fraction(1), 1), "135": (Fraction(1), 2),
    "243": (Fraction(1), 3), "124": (Fraction(1), 4), "263": (Fraction(-1), 4),
    "125": (Fraction(1), 5), "136": (Fraction(-1), 5), "134": (Fraction(1), 6),
    "235": (Fraction(-1), 6), "456": (Fraction(1), 7), "354": (Fraction(1), 8),
    "264": (Fraction(1), 9), "156": (Fraction(1), 10),
    "365": (Fraction(1, 2), 11), "145": (Fraction(-1, 2), 11),
    "346": (Fraction(1, 2), 12), "245": (Fraction(-1, 2), 12),
    "256": (Fraction(1, 2), 13), "146": (Fraction(-1, 2), 13),
}


def lagrangian_grassmannian_36() -> CatalogEntry:
    """Lagrangian 3-planes in a 6-space: 21 transcribed quadrics in P^13.

    Construction cross-checks that substituting the defining linear
    relations into the 35 Gr(3,6) quadrics reproduces exactly the
    transcribed span, and derives the symplectic form by restricting the
    wedge pairing; the restriction comes out as the standard block form.
    """
    order, signs, gr_polys = _load_gr36()
    lines = [
        l.strip() for l in _read_data("grl36.txt") if l.strip() and not l.startswith("#")
    ]
    grl_polys = [parse_poly(l, 14) for l in lines]
    if len(grl_polys) != 21:
        raise DataIntegrityError("grl36.txt: expected 21 equations")

    # each Gr(3,6) coordinate as (c, j), for its image c * y_j in the 14
    image = [_GRL_SUBSTITUTION[name] for name in order]
    forms = [Polynomial.variable(14, j).scale(c) for c, j in image]
    substituted = [p.substitute(forms) for p in gr_polys]

    # two spans of rank 21 are one span when their sum has rank 21 too
    codec = MonomialCodec(14, 2)
    ranks = [degree_part(polys, 2, codec)[0].rank
             for polys in (substituted, grl_polys, substituted + grl_polys)]
    if ranks != [21, 21, 21]:
        raise DataIntegrityError("grl36.txt: substitution cross-check failed")

    # the wedge pairing, s on (x_i, x_{10+i}), restricts to s c c' on (y_j, y_j')
    form = pairing_form(14, [
        (image[i][1], image[10 + i][1], s * image[i][0] * image[10 + i][0]) for i, s in enumerate(signs)
    ])
    pres = VarietyPresentation("grl36", form, grl_polys)
    return CatalogEntry(
        pres, "transcribed", _unit_point(14),
        "reduction of the Gr(3,6) quadrics along six linear relations; "
        "cross-checked against the substituted span at construction time.",
        checksum=_CHECKSUMS["grl36.txt"],
    )


# ---------------------------------------------------------------------------
# Spinor variety.
# ---------------------------------------------------------------------------

_SPIN_PAIRS = [(a, b) for a in range(6) for b in range(a + 1, 6)]
_SPIN_INDEX = {p: k for k, p in enumerate(_SPIN_PAIRS)}


def _skew_entry_poly(nv: int, base: int, i: int, j: int) -> Polynomial:
    """Entry (i, j) of the skew matrix whose upper entries are the variables
    base .. base+14 in pair order."""
    if i == j:
        return Polynomial.zero(nv)
    if i < j:
        return Polynomial.variable(nv, base + _SPIN_INDEX[(i, j)])
    return -Polynomial.variable(nv, base + _SPIN_INDEX[(j, i)])


def _pfaffian_of(entries, rows: List[int], nv: int) -> Polynomial:
    """Pfaffian of the skew submatrix on `rows`, entries given by a callable."""
    k = len(rows)
    if k == 0:
        return Polynomial.constant(nv, 1)
    if k % 2:
        return Polynomial.zero(nv)
    a = rows[0]
    total = Polynomial.zero(nv)
    for t, b in enumerate(rows[1:], start=1):
        rest = [r for r in rows if r not in (a, b)]
        total = total + entries(a, b).scale((-1) ** (t - 1)) * _pfaffian_of(entries, rest, nv)
    return total


def spinor_s6() -> CatalogEntry:
    """The 15-dimensional spinor variety in P^31, generated from Pfaffians.

    Coordinates: x, the 15 entries of a skew matrix M, the 15 entries of a
    skew matrix N and y, symplectically paired as (x, y) and entrywise
    (M, N).  Generators: the 36 entries of MN - xy Id, the 15 relations
    expressing x N as the 4x4 Pfaffian adjugate of M and the 15 mirror
    relations expressing y M through N.  Sign conventions are fixed by
    requiring all relations to vanish on the pure-spinor parametrization,
    and verified here; a convention failure raises instead of mis-generating.
    """
    nv = 32
    x_poly = Polynomial.variable(nv, 0)
    y_poly = Polynomial.variable(nv, 16)
    m_entry = lambda i, j: _skew_entry_poly(nv, 1, i, j)
    n_entry = lambda i, j: _skew_entry_poly(nv, 17, i, j)

    gens: List[Polynomial] = []
    for i in range(6):
        for k in range(6):
            s = Polynomial.zero(nv)
            for j in range(6):
                s = s + m_entry(i, j) * n_entry(j, k)
            if i == k:
                s = s - x_poly * y_poly
            gens.append(s)
    comp = {p: [r for r in range(6) if r not in p] for p in _SPIN_PAIRS}
    for (i, j) in _SPIN_PAIRS:
        pf = _pfaffian_of(m_entry, comp[(i, j)], nv).scale((-1) ** (i + j))
        gens.append(pf - x_poly * Polynomial.variable(nv, 17 + _SPIN_INDEX[(i, j)]))
    for (i, j) in _SPIN_PAIRS:
        # the mirror adjugate carries the opposite parity twist
        pf = _pfaffian_of(n_entry, comp[(i, j)], nv).scale((-1) ** (i + j + 1))
        gens.append(pf - y_poly * Polynomial.variable(nv, 1 + _SPIN_INDEX[(i, j)]))

    independent = degree_part(gens, 2, MonomialCodec(nv, 2))[0].rank
    if independent != 66 or len(gens) != 66:
        raise DataIntegrityError(
            f"spinor relations span {independent} dimensions instead of 66; "
            "Pfaffian sign convention failure"
        )
    # pure-spinor parametrization in the 15 entries of M
    par: List[Polynomial] = [Polynomial.constant(15, 1)]
    par += [Polynomial.variable(15, k) for k in range(15)]
    p_entry = lambda i, j: _skew_entry_poly(15, 0, i, j)
    par.append(_pfaffian_of(p_entry, list(range(6)), 15))
    for (i, j) in _SPIN_PAIRS:
        par.append(_pfaffian_of(p_entry, comp[(i, j)], 15).scale((-1) ** (i + j)))
    for g in gens:
        if not g.substitute(par).is_zero():
            raise DataIntegrityError("spinor generator fails on the parametrization")

    pres = VarietyPresentation("spinor-s6", standard_form(16), gens, parametrization=par)
    return CatalogEntry(
        pres, "generated", _unit_point(nv),
        "generated from the Pfaffian-adjugate relations of a skew 6x6 "
        "matrix; all 66 relations verified against the pure-spinor chart.",
    )


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
        value = Polynomial.constant(par[0].nvars, 1)
        for var, e in enumerate(mono):
            for _ in range(e):
                value = value * par[var]
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
    "gr36": grassmannian_36,
    "grl36": lagrangian_grassmannian_36,
    "spinor-s6": spinor_s6,
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
