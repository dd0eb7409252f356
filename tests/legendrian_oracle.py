"""Test oracles for legquad.legendrian, on point evaluations.

The conormal criterion at one point, on the dense elimination of
`linalg_oracle`, shares neither the bracket kernel nor the Groebner basis
with `legendrian_verdict`.  The tangent criterion at one point of a chart
samples what `isotropy_identity` proves as polynomial identities: it can
refute a chart, never prove one.

`degeneracy_check` finds a hyperplane through the variety as a polynomial,
off the span I_1 of the degree-1 generators; `legendrian_verdict` reads its
`degenerate` flag off the generator degrees alone, and the tests hold the
two together.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from legquad.legendrian import VarietyPresentation
from legquad.liealg import degree_part
from legquad.poly import MonomialCodec, Polynomial

from linalg_oracle import mat_vec, row_space_basis, vec_dot
from poly_oracle import evaluate, gradient


class PointRankError(ValueError):
    """The gradient rank at the point differs from the expected n."""


class PointNotOnCone(ValueError):
    """The sample point fails to annihilate some generator."""


def conormal_point_check(v: VarietyPresentation, point: Sequence) -> bool:
    """Conormal criterion at a single smooth rational point of the cone.

    The gradients of the generators must span a rank-n space on which the
    dual form vanishes identically.
    """
    pt = [Fraction(x) for x in point]
    if all(x == 0 for x in pt):
        raise PointNotOnCone("the origin is excluded")
    for g in v.generators:
        if evaluate(g, pt) != 0:
            raise PointNotOnCone(f"generator {g} does not vanish at the point")
    grads = [[evaluate(d, pt) for d in gradient(g)] for g in v.generators]
    span = row_space_basis(grads)
    if len(span) != v.half_dim:
        raise PointRankError(
            f"gradient rank {len(span)} at the point differs from n = {v.half_dim}"
        )
    dual = v.form.dual_matrix
    for i in range(len(span)):
        wi = mat_vec(dual, span[i])
        for j in range(i + 1, len(span)):
            if vec_dot(span[j], wi) != 0:
                return False
    return True


def tangent_point_check(v: VarietyPresentation, params: Sequence) -> bool:
    """Tangent criterion at one parametrized point: omega vanishes on the
    span of the position vector and all parametrization partials there,
    evaluated in exact rationals."""
    if v.parametrization is None:
        raise ValueError(f"{v.name} has no parametrization")
    pt = [Fraction(x) for x in params]
    par = v.parametrization
    vectors = [[evaluate(c, pt) for c in par]]
    vectors += [[evaluate(c.partial_derivative(k), pt) for c in par] for k in range(len(pt))]
    for i, u in enumerate(vectors):
        ju = [sum(x * u[b] for b, x in enumerate(row) if x) for row in v.form.matrix]  # J u
        if any(vec_dot(w, ju) for w in vectors[i + 1:]):
            return False
    return True


def degeneracy_check(v: VarietyPresentation) -> Optional[Polynomial]:
    """A hyperplane containing the variety, when one exists: the monic
    reduced row of I_1 with the smallest grevlex leading monomial, which is
    the first degree-1 element of the reduced Groebner basis.  The unit ideal
    gets None, as its reduced basis is {1}."""
    if any(g.degree() == 0 for g in v.generators):
        return None
    codec = MonomialCodec(v.nvars, 1)
    span = degree_part(v.generators, 1, codec)
    if not span.pivots:
        return None
    lead = span.pivots[-1]  # its row has no other pivot column, so it is reduced
    row = span.rows[lead]
    return codec.polynomial(row, row[lead])
