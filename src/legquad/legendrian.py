"""Legendrianity verdicts for projective varieties given by ideal generators.

The decision procedure follows the bracket-closure criterion: a variety cut
out by an ideal I is legendrian exactly when I is closed under the Poisson
bracket and every irreducible component of the affine cone has dimension n
(half the ambient dimension).  Equidimensionality of components is not
decidable without primary decomposition, so verdicts check the total cone
dimension only.

Closure is linear algebra, and every input takes the one bracket pass of
`liealg.bracket_closure`: a bracket of degree d lies in the homogeneous
ideal exactly when it lies in the degree-d part I_d, the span of the
generator multiples of degree d (`liealg.degree_part`).  When the generators
are quadrics, I_2 is their span, and the same pass gives the Lie algebra of
that span.  `degeneracy_check` reads hyperplanes off I_1.

The cone dimension has two certificates.  A closed quadric input first
tries `kostant_certificate`: when the quadric algebra g is semisimple, a
torus with diagonal sp-images gives every coordinate a weight, V is the
irreducible V(lambda) and the generators span the quadrics of the closed
orbit of G in P(V), Kostant's theorem makes the ideal that orbit's ideal,
and the dimension comes from root data with no Groebner basis: conditions
4 and 6 and the dimension read `rootdata`'s closed-orbit count, as the
scan's filter (v) does.  Every other input, and a closed one the
certificate does not cover, takes its dimension from the grevlex initial
ideal (`groebner.initial_ideal`: the F4 steps of a Groebner basis, with no
interreduction), so an exhausted budget leaves the dimension undecided but
never hides a failed closure.  Each verdict names the certificate that
proved its dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from . import linalg
from .groebner import (
    BudgetExceeded,
    DEFAULT_PAIR_BUDGET,
    IdealPresentation,
    initial_ideal,
    krull_dimension,
)
from .liealg import (
    LieAlgebraPresentation,
    NotAdaptedError,
    bracket_closure,
    degree_part,
    simple_factors,
    split_root_data,
)
from .poly import MonomialCodec, Polynomial
from .rootdata import (
    build_root_system,
    closed_orbit_cone_dimension,
    closed_orbit_quadrics,
    type_key,
    weyl_dimension,
)
from .symplectic import SymplecticForm


class VarietyPresentation:
    """A named variety: generators, symplectic form, optional parametrization."""

    def __init__(
        self,
        name: str,
        form: SymplecticForm,
        generators: Sequence[Polynomial],
        parametrization: Optional[Sequence[Polynomial]] = None,
    ):
        self.name = name
        self.form = form
        self.nvars = form.dim
        gens = [g for g in generators if not g.is_zero()]
        for g in gens:
            if g.nvars != self.nvars:
                raise ValueError("generator nvars must match the form dimension")
            if not g.is_homogeneous():
                raise ValueError(f"generator {g} is not homogeneous")
        self.generators = gens
        if parametrization is not None:
            comps = list(parametrization)
            if len(comps) != self.nvars:
                raise ValueError("parametrization must have one component per ambient coordinate")
        self.parametrization = list(parametrization) if parametrization is not None else None

    @property
    def half_dim(self) -> int:
        return self.nvars // 2

    def param_count(self) -> int:
        if self.parametrization is None:
            raise ValueError(f"{self.name} has no parametrization")
        return self.parametrization[0].nvars


@dataclass
class KostantCertificate:
    """The generators are the quadrics of the closed orbit X of G in
    P(V(lambda)): the simple types of the quadric algebra, lambda in Bourbaki
    Dynkin labels for each factor (in the same order), and the dimension of
    the affine cone over X."""

    types: List[str]
    highest_weight: List[Tuple[int, ...]]
    dimension: int


class NotCertified(ValueError):
    """A condition of the Kostant certificate fails; the message names it."""


@dataclass
class LegendrianVerdict:
    bracket_closed: bool
    cone_dimension: Optional[int]   # None when the budget ran out
    degenerate: bool
    verdict: str                    # "legendrian" | "not-legendrian" | "undecided"
    witnesses: List[str] = field(default_factory=list)
    budget_name: Optional[str] = None
    kostant: Optional[KostantCertificate] = None

    @property
    def certificate(self) -> Optional[str]:
        """What proved the dimension: "kostant", "groebner", or None when
        the budget ran out."""
        if self.kostant is not None:
            return "kostant"
        return None if self.cone_dimension is None else "groebner"

    def to_dict(self) -> dict:
        out = {
            "bracket_closed": self.bracket_closed,
            "dimension": self.cone_dimension,
            "degenerate": self.degenerate,
            "verdict": self.verdict,
            "witnesses": list(self.witnesses),
            "budget": self.budget_name,
            "certificate": self.certificate,
        }
        if self.kostant is not None:
            out["type"] = list(self.kostant.types)
            out["highest_weight"] = [list(lam) for lam in self.kostant.highest_weight]
        return out


def degeneracy_check(v: VarietyPresentation) -> Optional[Polynomial]:
    """A hyperplane containing the variety, when one exists: the monic
    reduced row of I_1 with the smallest grevlex leading monomial, which is
    the first degree-1 element of the reduced Groebner basis.  The unit ideal
    gets None, as its reduced basis is {1}."""
    if any(g.degree() == 0 for g in v.generators):
        return None
    codec = MonomialCodec(v.nvars, 1)
    span, columns = degree_part(v.generators, 1, codec)
    if not span.pivots:
        return None
    lead = span.pivots[-1]  # its row has no other pivot column, so it is reduced
    row = span.rows[lead]
    monomials = list(columns)
    return Polynomial(
        v.nvars, {codec.unpack(monomials[k]): Fraction(x, row[lead]) for k, x in row.items()}
    )


def kostant_certificate(v: VarietyPresentation, algebra: LieAlgebraPresentation) -> KostantCertificate:
    """Prove that the generators of `v`, which span the quadric algebra g,
    generate the ideal of the closed orbit X of G in P(V), and give the
    dimension of its cone; raise NotCertified naming the first condition
    that fails.

    By Kostant's theorem (Lichtenstein, Proc. AMS 84, 1982) the ideal of X
    in P(V(lambda)) is generated by its quadrics, the complement of
    V(2 lambda)* in S^2 V*.  The conditions:

    1. g is semisimple.
    2. A torus with diagonal sp-images splits g (`split_root_data`), so
       each coordinate is a weight vector, and the roots, simple roots of
       `simple_factors` among them, are integer weights in the same scale.
    3. Exactly one weight lambda has no weight at lambda + alpha_i for a
       simple root alpha_i, and one coordinate has it.  The alpha_i-string
       through lambda then runs down exactly <lambda, alpha_i^vee> steps, so
       the string lengths are lambda's Dynkin labels, and the top coordinate
       vector generates V(lambda).
    4. The Weyl dimension of V(lambda), a product over the simple factors,
       is N, so V = V(lambda).
    5. No generator has the square of the top coordinate, so the generators
       vanish at the highest weight vector; being G-stable, they vanish on X.
    6. dim g = C(N + 1, 2) - dim V(2 lambda): the generators span all the
       quadrics through X.

    The ideal is then I(X), and the cone over X, a product of the factors'
    orbits under the Segre map, has dimension
    1 + sum (cone_orbit_dimension - 1).
    """
    if not algebra.is_semisimple():
        raise NotCertified("condition 1: the quadric algebra is not semisimple")
    try:
        cd = split_root_data(algebra)
    except NotAdaptedError as exc:
        raise NotCertified(f"condition 2: {exc}") from None
    coordinates = cd.weights
    present = set(coordinates)
    simple_roots = [
        (label, [cd.root_spaces[i][0] for i in nodes])
        for label, nodes in simple_factors(cd)
    ]
    simple = [alpha for _, roots in simple_roots for alpha in roots]
    tops = [mu for mu in present
            if not any(tuple(m + a for m, a in zip(mu, alpha)) in present for alpha in simple)]
    if len(tops) != 1 or coordinates.count(tops[0]) != 1:
        raise NotCertified(
            f"condition 3: {len(tops)} highest weights, on "
            f"{sum(coordinates.count(mu) for mu in tops)} coordinates"
        )
    lam = tops[0]

    def string_length(alpha) -> int:
        p = 0
        while tuple(m - (p + 1) * a for m, a in zip(lam, alpha)) in present:
            p += 1
        return p

    factors = sorted(
        ((label, tuple(string_length(alpha) for alpha in roots)) for label, roots in simple_roots),
        key=lambda f: (type_key(f[0]), f[1]),
    )
    orbit = [(build_root_system(label[0], int(label[1:])), labels) for label, labels in factors]
    nvars = v.nvars
    dim_v = math.prod(weyl_dimension(rs, labels) for rs, labels in orbit)
    if dim_v != nvars:
        raise NotCertified(f"condition 4: V(lambda) has dimension {dim_v}, not {nvars}")
    top = coordinates.index(lam)
    square = tuple(2 * (k == top) for k in range(nvars))
    if any(square in g.terms for g in v.generators):
        raise NotCertified("condition 5: a generator does not vanish at the highest weight vector")
    quadrics = closed_orbit_quadrics(orbit)
    if algebra.dim != quadrics:
        raise NotCertified(
            f"condition 6: {algebra.dim} generators, but the orbit lies on {quadrics} quadrics"
        )
    return KostantCertificate(
        types=[label for label, _ in factors],
        highest_weight=[labels for _, labels in factors],
        dimension=closed_orbit_cone_dimension(orbit),
    )


def legendrian_verdict(v: VarietyPresentation, budget: int = DEFAULT_PAIR_BUDGET) -> LegendrianVerdict:
    """Combine bracket closure, cone dimension and degeneracy into one verdict.

    A closed quadric input first tries `kostant_certificate` on the algebra
    of its span, which needs no Groebner basis.  Otherwise the cone
    dimension comes from the initial ideal, whose S-pairs `budget` caps.  When
    it runs out, a failed closure still decides the verdict
    (not-legendrian); a closed ideal stays undecided.
    """
    n = v.half_dim
    failing, algebra = bracket_closure(v.generators, v.form)
    closed = not failing
    degenerate = degeneracy_check(v) is not None
    witnesses = [f"bracket of generators {i} and {j} is not in the ideal" for i, j in failing]
    dimension, budget_name, kostant = None, None, None
    if algebra is not None:
        try:
            kostant = kostant_certificate(v, algebra)
            dimension = kostant.dimension
        except NotCertified:
            pass
    if kostant is None:
        try:
            leads = initial_ideal(IdealPresentation(v.generators, v.nvars), max_pairs=budget)
            dimension = krull_dimension(leads, v.nvars)
        except BudgetExceeded as exc:
            budget_name = exc.budget_name
            witnesses.append("groebner basis not computed within budget")
    if dimension is not None and dimension != n:
        witnesses.append(f"cone dimension {dimension} differs from n = {n}")
    if closed and dimension is None:
        verdict = "undecided"
    else:
        verdict = "legendrian" if closed and dimension == n else "not-legendrian"
    return LegendrianVerdict(
        bracket_closed=closed,
        cone_dimension=dimension,
        degenerate=degenerate,
        verdict=verdict,
        witnesses=witnesses,
        budget_name=budget_name,
        kostant=kostant,
    )


def tangent_point_check(v: VarietyPresentation, params: Sequence) -> bool:
    """Tangent criterion at a parametrized point: omega vanishes on the span
    of the position vector and all parametrization partials."""
    if v.parametrization is None:
        raise ValueError(f"{v.name} has no parametrization")
    pvals = [Fraction(x) for x in params]
    position = [comp.evaluate(pvals) for comp in v.parametrization]
    tangents = [position]
    for k in range(v.param_count()):
        tangents.append([comp.partial_derivative(k).evaluate(pvals) for comp in v.parametrization])
    for i in range(len(tangents)):
        ji = linalg.mat_vec(v.form.matrix, tangents[i])
        for j in range(i + 1, len(tangents)):
            if linalg.vec_dot(tangents[j], ji) != 0:
                return False
    return True


def _as_num_den(f) -> Tuple[Polynomial, Polynomial]:
    if isinstance(f, Polynomial):
        return f, Polynomial.constant(f.nvars, 1)
    num, den = f
    if den.is_zero():
        raise ValueError("zero denominator")
    return num, den


def rational_curve_check(f1, f2, f3) -> bool:
    """Whether the planar-curve differential identity holds: the derivative of
    the first function equals f2' f3 - f3' f2, as exact polynomials.

    Each argument is a univariate Polynomial or a (numerator, denominator)
    pair of univariate polynomials.
    """
    n1, d1 = _as_num_den(f1)
    n2, d2 = _as_num_den(f2)
    n3, d3 = _as_num_den(f3)
    for p in (n1, d1, n2, d2, n3, d3):
        if p.nvars != 1:
            raise ValueError("univariate input required")

    def derivative_pair(num: Polynomial, den: Polynomial) -> Tuple[Polynomial, Polynomial]:
        return (num.partial_derivative(0) * den - num * den.partial_derivative(0), den * den)

    dn1, dd1 = derivative_pair(n1, d1)
    dn2, dd2 = derivative_pair(n2, d2)
    dn3, dd3 = derivative_pair(n3, d3)
    # f1' = f2' f3 - f3' f2, cross-multiplied to clear all denominators.
    lhs = dn1 * (dd2 * d3 * dd3 * d2)
    rhs = (dn2 * n3 * dd3 * d2 - dn3 * n2 * dd2 * d3) * dd1
    return lhs == rhs
