"""Test oracles that read their answers off a full reduced Groebner basis.

Bracket closure here is the test the package ran before it tested span
membership in the degree-d parts of the ideal: every generator bracket,
taken as a sum of gradient products, is reduced modulo the basis.  It shares
neither the bracket kernel nor the span elimination with
`legquad.legendrian.bracket_closure_check`, so the two routes are
independent.  The hyperplanes of `linear_part` are the oracle for
`legquad.legendrian.degeneracy_check`, and `krull_dimension_bruteforce`
scans every variable subset for `legquad.groebner.krull_dimension`.
"""

from __future__ import annotations

import itertools
from typing import List, Sequence, Tuple

from legquad.groebner import (
    GroebnerBasis,
    IdealPresentation,
    ImproperIdealError,
    buchberger,
    normal_form,
)
from legquad.poly import Exponent, Polynomial
from legquad.symplectic import SymplecticForm


def poisson_bracket(f: Polynomial, g: Polynomial, form: SymplecticForm) -> Polynomial:
    """sum over i, j of W_ij (df/dx_i)(dg/dx_j), as polynomial arithmetic."""
    dual = form.dual_matrix
    grad_f = f.gradient()
    grad_g = g.gradient()
    result = Polynomial.zero(form.dim)
    for i in range(form.dim):
        if grad_f[i].is_zero():
            continue
        for j in range(form.dim):
            w = dual[i][j]
            if w == 0 or grad_g[j].is_zero():
                continue
            result = result + (grad_f[i] * grad_g[j]).scale(w)
    return result


def groebner_basis(v, budget: int) -> GroebnerBasis:
    return buchberger(IdealPresentation(v.generators, v.nvars), max_pairs=budget)


def failing_pairs(v, gb: GroebnerBasis) -> List[Tuple[int, int]]:
    """Generator pairs whose bracket has a nonzero normal form modulo gb."""
    return [
        (i, j)
        for i, j in itertools.combinations(range(len(v.generators)), 2)
        if not normal_form(poisson_bracket(v.generators[i], v.generators[j], v.form), gb).is_zero()
    ]


def linear_part(gb: GroebnerBasis) -> List[Polynomial]:
    """All degree-1 elements of the reduced basis.

    Nonempty exactly when the variety lies in a hyperplane, i.e. is a cone.
    """
    return [g for g in gb.elements if g.degree() == 1]


def krull_dimension_bruteforce(leading_monomials: Sequence[Exponent], nvars: int) -> int:
    """Scan all variable subsets (feasible to ~20 vars)."""
    supports = [frozenset(i for i, e in enumerate(lm) if e) for lm in leading_monomials]
    if any(not s for s in supports):
        raise ImproperIdealError("ideal contains a constant")
    best = 0
    for mask in range(1 << nvars):
        subset = frozenset(i for i in range(nvars) if mask >> i & 1)
        if len(subset) <= best:
            continue
        if not any(s <= subset for s in supports):
            best = len(subset)
    return best
