"""Legendrianity verdicts for projective varieties given by ideal generators.

The decision procedure follows the bracket-closure criterion: a variety cut
out by an ideal I is legendrian exactly when I is closed under the Poisson
bracket and every irreducible component of the affine cone has dimension n
(half the ambient dimension).  Equidimensionality of components is not
decidable without primary decomposition, so verdicts check the total cone
dimension and carry an explicit flag for the unchecked part.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from . import linalg
from .groebner import (
    BudgetExceeded,
    DEFAULT_PAIR_BUDGET,
    GroebnerBasis,
    IdealPresentation,
    buchberger,
    krull_dimension,
    linear_part,
    normal_form,
)
from .poly import Polynomial
from .symplectic import SymplecticForm, poisson_bracket


class PointNotOnCone(ValueError):
    """The sample point fails to annihilate some generator."""


class PointRankError(ValueError):
    """Gradient or tangent rank at the point differs from the expected n."""


class VarietyPresentation:
    """A named variety: generators, symplectic form, optional parametrization."""

    def __init__(
        self,
        name: str,
        form: SymplecticForm,
        generators: Sequence[Polynomial],
        parametrization: Optional[Sequence[Polynomial]] = None,
        expected_algebra: Optional[str] = None,
        expected_dim: Optional[int] = None,
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
        self.expected_algebra = expected_algebra
        self.expected_dim = expected_dim

    @property
    def half_dim(self) -> int:
        return self.nvars // 2

    def param_count(self) -> int:
        if self.parametrization is None:
            raise ValueError(f"{self.name} has no parametrization")
        return self.parametrization[0].nvars


@dataclass
class ClosureReport:
    closed: Optional[bool]          # None when undecided
    checked_pairs: int
    failing_pairs: List[Tuple[int, int]] = field(default_factory=list)
    unchecked_pairs: List[Tuple[int, int]] = field(default_factory=list)
    budget_name: Optional[str] = None


@dataclass
class LegendrianVerdict:
    bracket_closed: Optional[bool]
    cone_dimension: Optional[int]   # None when undecided
    degenerate: Optional[bool]
    verdict: str                    # "legendrian" | "not-legendrian" | "undecided"
    witnesses: List[str] = field(default_factory=list)
    budget_name: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "bracket_closed": self.bracket_closed,
            "dimension": self.cone_dimension,
            "degenerate": self.degenerate,
            "verdict": self.verdict,
            "witnesses": list(self.witnesses),
            "budget": self.budget_name,
        }


def _groebner_of(v: VarietyPresentation, budget: int) -> GroebnerBasis:
    return buchberger(IdealPresentation(v.generators, v.nvars), max_pairs=budget)


def bracket_closure_check(v: VarietyPresentation, budget: int = DEFAULT_PAIR_BUDGET) -> ClosureReport:
    """Reduce every pairwise generator bracket modulo the generated ideal.

    Closure of the generators is enough: the Leibniz rule propagates it to
    the whole ideal.
    """
    if not v.generators:
        raise ValueError("no generators")
    all_pairs = list(itertools.combinations(range(len(v.generators)), 2))
    try:
        gb = _groebner_of(v, budget)
    except BudgetExceeded as exc:
        return ClosureReport(
            closed=None,
            checked_pairs=0,
            unchecked_pairs=all_pairs,
            budget_name=exc.budget_name,
        )
    failing = []
    for i, j in all_pairs:
        br = poisson_bracket(v.generators[i], v.generators[j], v.form)
        if not normal_form(br, gb).is_zero():
            failing.append((i, j))
    return ClosureReport(closed=not failing, checked_pairs=len(all_pairs), failing_pairs=failing)


def degeneracy_check(v: VarietyPresentation, budget: int = DEFAULT_PAIR_BUDGET) -> Optional[Polynomial]:
    """A degree-1 element of the reduced basis, when one exists."""
    gb = _groebner_of(v, budget)
    linear = linear_part(gb)
    return linear[0] if linear else None


def legendrian_verdict(v: VarietyPresentation, budget: int = DEFAULT_PAIR_BUDGET) -> LegendrianVerdict:
    """Combine bracket closure, cone dimension and degeneracy into one verdict."""
    n = v.half_dim
    try:
        gb = _groebner_of(v, budget)
    except BudgetExceeded as exc:
        return LegendrianVerdict(
            bracket_closed=None,
            cone_dimension=None,
            degenerate=None,
            verdict="undecided",
            witnesses=["groebner basis not computed within budget"],
            budget_name=exc.budget_name,
        )

    failing = []
    for i, j in itertools.combinations(range(len(v.generators)), 2):
        br = poisson_bracket(v.generators[i], v.generators[j], v.form)
        if not normal_form(br, gb).is_zero():
            failing.append((i, j))
    closed = not failing

    dimension = krull_dimension(gb)
    degenerate = bool(linear_part(gb))

    witnesses = [f"bracket of generators {i} and {j} is not in the ideal" for i, j in failing]
    if dimension != n:
        witnesses.append(f"cone dimension {dimension} differs from n = {n}")
    verdict = "legendrian" if closed and dimension == n else "not-legendrian"
    return LegendrianVerdict(
        bracket_closed=closed,
        cone_dimension=dimension,
        degenerate=degenerate,
        verdict=verdict,
        witnesses=witnesses,
    )


def conormal_point_check(v: VarietyPresentation, point: Sequence) -> bool:
    """Conormal criterion at a single smooth rational point of the cone.

    The gradients of the generators must span a rank-n space on which the
    dual form vanishes identically.
    """
    pt = [Fraction(x) for x in point]
    if all(x == 0 for x in pt):
        raise PointNotOnCone("the origin is excluded")
    for g in v.generators:
        if g.evaluate(pt) != 0:
            raise PointNotOnCone(f"generator {g} does not vanish at the point")
    grads = [[d.evaluate(pt) for d in g.gradient()] for g in v.generators]
    span = linalg.row_space_basis(grads)
    if len(span) != v.half_dim:
        raise PointRankError(
            f"gradient rank {len(span)} at the point differs from n = {v.half_dim}"
        )
    dual = v.form.dual_matrix
    for i in range(len(span)):
        wi = linalg.mat_vec(dual, span[i])
        for j in range(i + 1, len(span)):
            if linalg.vec_dot(span[j], wi) != 0:
                return False
    return True


def tangent_point_check(
    v: VarietyPresentation, params: Sequence, require_full_rank: bool = False
) -> bool:
    """Tangent criterion at a parametrized point: omega vanishes on the span
    of the position vector and all parametrization partials."""
    if v.parametrization is None:
        raise ValueError(f"{v.name} has no parametrization")
    pvals = [Fraction(x) for x in params]
    position = [comp.evaluate(pvals) for comp in v.parametrization]
    tangents = [position]
    for k in range(v.param_count()):
        tangents.append([comp.partial_derivative(k).evaluate(pvals) for comp in v.parametrization])
    if require_full_rank and linalg.rank(tangents) != v.half_dim:
        raise PointRankError("tangent space rank at the point differs from n")
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
