"""Test oracle for legquad.catalog: the implicit equations of a chart as one
kernel over the `Polynomial` products of its components, the route that
`catalog._implicit_forms` replaced with integer products solved by image
degree."""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from legquad import linalg
from legquad.poly import Polynomial
from poly_oracle import monomials_of_degree


def implicit_forms(par: Sequence[Polynomial], nv: int, degree: int) -> List[Polynomial]:
    """All homogeneous degree-d forms vanishing on the parametrized image:
    the canonical kernel basis of one system whose rows are the chart
    monomials and whose columns are the degree-d monomials, largest grevlex
    first."""
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
