"""Test oracles: the transcribed and hand-written models of the paper's list.

The catalog builds the twisted cubic, Gr(3,6), Gr_L(3,6), the E7 variety
and the line times a split quadric as charts X_f of cubics.  The models
here are the twisted cubic with its hand-written form and rescaled dual,
the Pluecker quadrics of Gr(3,6) in wedge coordinates, as written in the
source table, the 21 quadrics of Gr_L(3,6) obtained from them by six linear
relations, the 133 quadrics of the E7 variety as transcribed from their
source table, and the line times the hyperbolic quadric written out as 2x2
minors and three quadric-form generators.  They are the same varieties
in other coordinates, so the tests whose pinned bases, pair budgets,
bracket tables and torus vectors were recorded in these coordinates read
their input here.  Beside them sit the five equations once listed for the
plane-cubic chart xf-cubic-3, in the chart's own coordinates: the catalog
now builds that entry with `x_f`, and the listed equations check it.

Each data file is sha256-pinned.  `grl36` derives its form by restricting the
wedge pairing of Gr(3,6) along the substitution, and `substituted_gr36`
is the substitution itself, for the test that it reproduces the Gr_L(3,6)
span.  The header of grl36.txt, kept byte for byte under its pin, still
places that substitution in the catalog module; it lives here now.
"""

from __future__ import annotations

import hashlib
import re
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Tuple

from legquad import catalog
from legquad.catalog import CatalogEntry
from legquad.legendrian import VarietyPresentation
from legquad.poly import Polynomial, parse_poly
from legquad.symplectic import SymplecticForm, pairing_form, standard_form
from poly_oracle import substitute

DATA = Path(__file__).parent / "data"
PINS = {
    "gr36.txt": "a959bd45a0b2278d942165cd3c77f317a906b1d704d844f807aa879ed6e25068",
    "grl36.txt": "b9e281e00a9805980e3f5c384db8c7035d08363066d325e21ef8d88458983a1b",
    "e7.txt": "68c0b55536e3d3e86a130e171b9730bf5eb9bf316f0c6c4d33f2f23f7cc8ac2b",
}

# Linear substitution from the wedge coordinates of Gr(3,6) to the 14
# coordinates of the Lagrangian Grassmannian: name -> (coefficient, y index).
GRL_SUBSTITUTION: Dict[str, Tuple[Fraction, int]] = {
    "123": (Fraction(1), 0), "126": (Fraction(1), 1), "135": (Fraction(1), 2),
    "243": (Fraction(1), 3), "124": (Fraction(1), 4), "263": (Fraction(-1), 4),
    "125": (Fraction(1), 5), "136": (Fraction(-1), 5), "134": (Fraction(1), 6),
    "235": (Fraction(-1), 6), "456": (Fraction(1), 7), "354": (Fraction(1), 8),
    "264": (Fraction(1), 9), "156": (Fraction(1), 10),
    "365": (Fraction(1, 2), 11), "145": (Fraction(-1, 2), 11),
    "346": (Fraction(1, 2), 12), "245": (Fraction(-1, 2), 12),
    "256": (Fraction(1, 2), 13), "146": (Fraction(-1, 2), 13),
}


def read(filename: str) -> List[str]:
    blob = (DATA / filename).read_bytes()
    digest = hashlib.sha256(blob).hexdigest()
    if digest != PINS[filename]:
        raise ValueError(f"{filename}: checksum mismatch ({digest})")
    return blob.decode().splitlines()


def load_gr36() -> Tuple[List[str], List[int], List[Polynomial]]:
    """The wedge coordinate names in variable order, the signs of the
    pairing of x_i with x_{10+i}, and the 35 quadrics."""
    order: List[str] = []
    signs: List[int] = []
    eqs = []
    for line in read("gr36.txt"):
        if line.startswith("# canonical-order:"):
            order = line.split(":")[1].split()
        elif line.startswith("# pairing-signs:"):
            signs = [int(s) for s in line.split(":")[1].split()]
        elif line.strip() and not line.startswith("#"):
            eqs.append(line.strip())
    name_to_idx = {n: i for i, n in enumerate(order)}

    def convert(eq: str) -> str:
        s = re.sub(r"x<(\d{3})>", lambda m: f"x{name_to_idx[m.group(1)]}", eq)
        s = re.sub(r"(\d)\s+(?=x\d)", r"\1*", s)
        return re.sub(r"(x\d+)\s+(?=x\d)", r"\1*", s)

    return order, signs, [parse_poly(convert(e), 20) for e in eqs]


def _unit_point(nvars: int) -> List[Fraction]:
    return [Fraction(int(i == 0)) for i in range(nvars)]


def gr36() -> CatalogEntry:
    """Gr(3,6) as the 35 transcribed Pluecker quadrics, under the wedge pairing."""
    _, signs, polys = load_gr36()
    assert len(polys) == 35
    form = pairing_form(20, [(i, 10 + i, s) for i, s in enumerate(signs)])
    return CatalogEntry(
        VarietyPresentation("gr36", form, polys), _unit_point(20),
        "Pluecker quadrics in the verbatim coordinate names of the data "
        "file; the base point is the x123 unit vector.",
    )


def substituted_gr36() -> Tuple[List[Polynomial], SymplecticForm]:
    """The 35 Gr(3,6) quadrics under the substitution into the 14 Gr_L(3,6)
    coordinates, and the wedge pairing restricted along it: s on
    (x_i, x_{10+i}) becomes s c c' on (y_j, y_j') for x_i -> c y_j and
    x_{10+i} -> c' y_j'."""
    order, signs, polys = load_gr36()
    image = [GRL_SUBSTITUTION[name] for name in order]
    forms = [Polynomial.variable(14, j).scale(c) for c, j in image]
    form = pairing_form(14, [
        (image[i][1], image[10 + i][1], s * image[i][0] * image[10 + i][0]) for i, s in enumerate(signs)
    ])
    return [substitute(p, forms) for p in polys], form


def grl36() -> CatalogEntry:
    """Gr_L(3,6) as the 21 transcribed quadrics, under the restricted form."""
    polys = [parse_poly(l.strip(), 14) for l in read("grl36.txt") if l.strip() and not l.startswith("#")]
    assert len(polys) == 21
    return CatalogEntry(
        VarietyPresentation("grl36", substituted_gr36()[1], polys), _unit_point(14),
        "reduction of the Gr(3,6) quadrics along six linear relations; "
        "the base point is the y0 unit vector.",
    )


# The skew form making the cubic legendrian, and the matrix of the induced
# dual form under the bracket normalization that makes the structure
# constants integral; the two differ by the scalar -3.
CUBIC_FORM = [[0, 0, 0, -1], [0, 0, 3, 0], [0, -3, 0, 0], [1, 0, 0, 0]]
CUBIC_DUAL = [[0, 0, 0, 3], [0, 0, -1, 0], [0, 1, 0, 0], [-3, 0, 0, 0]]


def twisted_cubic() -> CatalogEntry:
    """The degree-3 rational normal curve in P^3, cut out by three quadrics,
    under the hand-written form and its rescaled dual."""
    gens = [parse_poly(t, 4) for t in ("x2^2 - x1*x3", "x0*x2 - x1^2", "x0*x3 - x1*x2")]
    # (lambda, mu) -> (lambda^3, lambda^2 mu, lambda mu^2, mu^3)
    par = [parse_poly(t, 2) for t in ("x0^3", "x0^2*x1", "x0*x1^2", "x1^3")]
    pres = VarietyPresentation("twisted-cubic", SymplecticForm(CUBIC_FORM, dual_matrix=CUBIC_DUAL),
                               gens, parametrization=par)
    return CatalogEntry(
        pres, _unit_point(4),
        "Veronese curve of degree 3; the nonstandard form matrix is the one "
        "making all tangent spaces isotropic, unique up to scale.",
    )


def e7() -> CatalogEntry:
    """The E7 variety as the 133 transcribed quadrics, x<i> paired with x<28+i>."""
    polys = [parse_poly(l.strip(), 56) for l in read("e7.txt") if l.strip() and not l.startswith("#")]
    assert len(polys) == 133
    return CatalogEntry(
        VarietyPresentation("e7", standard_form(28), polys), _unit_point(56),
        "x<i> pairs with x<28+i> under the standard block form, an "
        "assumption read off the equation shapes and validated by bracket "
        "closure of the quadric span.",
    )


def segre_split(n: int) -> CatalogEntry:
    """The line times the hyperbolic quadric sum x_k x_{n-1-k} in P^{2n-1}:
    the 2x2 minors, sum 1/2 x_{n+k} x_{2n-1-k}, -sum 1/2 x_k x_{n-1-k} and
    sum x_k x_{2n-1-k}, under the form pairing x_k with x_{2n-1-k}."""
    nv = 2 * n
    texts = [f"x{i}*x{n + j} - x{j}*x{n + i}" for i in range(n) for j in range(i + 1, n)]
    texts.append(" + ".join(f"1/2*x{n + k}*x{nv - 1 - k}" for k in range(n)))
    texts.append("".join(f" - 1/2*x{k}*x{n - 1 - k}" for k in range(n)))
    texts.append(" + ".join(f"x{k}*x{nv - 1 - k}" for k in range(n)))
    form = pairing_form(nv, [(k, nv - 1 - k, 1) for k in range(n)])
    return CatalogEntry(
        VarietyPresentation(f"segre-split-{n}", form, [parse_poly(t, nv) for t in texts]), _unit_point(nv),
        "line times the hyperbolic quadric; projectively equivalent to the "
        "sum-of-squares model but rationally split, with base point e0.",
    )


# The five implicit equations listed for the plane-cubic chart built from
# y0 y1 (y0 + y1): three quadrics and two cubics.
XF3_EQUATIONS = [
    "x0*x5 + x1^2 + 2*x1*x2",
    "x0*x4 + 2*x1*x2 + x2^2",
    "3*x0*x3 + x1*x4 + x2*x5",
    "x1*x4^2 - 2*x1*x4*x5 + 9*x2^2*x3 - 5*x2*x4*x5 + 4*x2*x5^2",
    "x1*x3*x4 - 2*x1*x3*x5 + 2*x2*x3*x4 - x2*x3*x5 - x4^2*x5 + x4*x5^2",
]


def xf_cubic_3() -> CatalogEntry:
    """The chart of y0 y1 (y0 + y1) cut out by its five listed equations,
    with the chart, form and base point of `x_f`."""
    chart = catalog.x_f(parse_poly("y0*y1*(y0+y1)", 2))
    pres = VarietyPresentation("xf-cubic-3", chart.presentation.form, [parse_poly(t, 6) for t in XF3_EQUATIONS],
                               parametrization=chart.presentation.parametrization)
    return CatalogEntry(pres, chart.base_point, "the five listed equations of the chart of y0 y1 (y0 + y1)")
