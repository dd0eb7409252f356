"""Groebner bases, normal forms and dimension, on the sparse elimination kernel.

Bases are built degree by degree, after Faugere's F4 (J. Pure Appl. Algebra
139, 1999).  Each step takes the pending S-pairs of the smallest lcm degree,
less those the coprime-leading-monomial and chain criteria drop, and the
input generators of that degree.  The two halves of each pair and the
generators become rows, and symbolic preprocessing adds one multiple of a
basis element for every monomial met that a basis leading monomial divides.
All rows go into one `linalg.Echelon`; each stored row whose leading
monomial no basis leading monomial divides is a new basis element.  Normal
forms, and the tails of the reduced basis, are remainders against the
echelon form of the preprocessing multiples.  The result is the unique
reduced, monic grevlex basis, so identical ideals give identical bases.

A configurable cap on processed S-pairs separates "ran out of budget" from
any mathematical answer; exceeding it raises BudgetExceeded, and callers
report what needed the basis as undecided, never as a verdict.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Dict, List, Sequence, Tuple

from .linalg import Echelon
from .poly import (
    Exponent,
    Polynomial,
    grevlex_key,
    monomial_div,
    monomial_lcm,
    monomial_mul,
)

Terms = Dict[Exponent, Fraction]  # or int coefficients, as `Echelon` stores rows

DEFAULT_PAIR_BUDGET = 200_000


class BudgetExceeded(RuntimeError):
    """Raised when a computation hits its configured resource cap."""

    def __init__(self, budget_name: str, limit: int):
        super().__init__(f"budget '{budget_name}' exhausted (limit {limit})")
        self.budget_name = budget_name
        self.limit = limit


class ImproperIdealError(ValueError):
    """The ideal contains a nonzero constant, so the variety is empty."""


class IdealPresentation:
    """A list of generators over a fixed number of variables."""

    __slots__ = ("generators", "nvars")

    def __init__(self, generators: Sequence[Polynomial], nvars: int):
        gens = [g for g in generators if not g.is_zero()]
        for g in gens:
            if g.nvars != nvars:
                raise ValueError("all generators must share nvars")
        self.generators = gens
        self.nvars = nvars


class GroebnerBasis:
    """Reduced, monic basis under the global grevlex order."""

    __slots__ = ("elements", "nvars")

    def __init__(self, elements: Sequence[Polynomial], nvars: int):
        self.elements = list(elements)
        self.nvars = nvars

    def leading_monomials(self) -> List[Exponent]:
        return [g.leading_monomial() for g in self.elements]

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)


def _multiple(g: Terms, shift: Exponent) -> Terms:
    return {monomial_mul(m, shift): c for m, c in g.items()}


def _divisors_in(t: Exponent, index: Dict[Exponent, int]) -> List[Tuple[int, Exponent]]:
    """(position, leading monomial) of every entry of `index` that divides t,
    found by looking up each divisor of t: at most 2^deg(t) lookups,
    whatever the basis size."""
    return [(index[d], d) for d in product(*[range(e + 1) for e in t]) if d in index]


def _preprocess(
    rows: List[Terms], met: Dict[Exponent, bool], basis: Sequence[Terms], index: Dict[Exponent, int]
) -> None:
    """Symbolic preprocessing.  For every monomial t of a row that `met` does
    not hold yet, append the multiple (t / lm) * g of the earliest basis
    element g whose leading monomial lm divides t, and record in `met`
    whether one did.  Appended rows are scanned too, as the loop reaches them."""
    for row in rows:
        for t in row:
            if t in met:
                continue
            hits = _divisors_in(t, index)
            met[t] = bool(hits)
            if hits:
                k, lm = min(hits)
                rows.append(_multiple(basis[k], monomial_div(t, lm)))


def _echelon(rows: List[Terms], monomials) -> Tuple[Echelon, Dict[Exponent, int]]:
    """The rows in one Echelon, with the column of each monomial.

    Columns run largest grevlex monomial first, so pivots are leading
    monomials.  Rows go in by leading column, so a row with a new leading
    monomial is stored without elimination."""
    column = {m: k for k, m in enumerate(sorted(monomials, key=grevlex_key, reverse=True))}
    span = Echelon()
    for vec in sorted(({column[t]: c for t, c in row.items()} for row in rows), key=min):
        span.add(vec)
    return span, column


def _remainders(
    polys: Sequence[Terms], basis: Sequence[Terms], lms: Sequence[Exponent]
) -> List[Terms]:
    """Normal forms modulo the basis: the remainder of each poly against one
    Echelon of the preprocessing multiples of all of them.  No monomial of a
    remainder is divisible by a basis leading monomial."""
    rows = list(polys)
    met: Dict[Exponent, bool] = {}
    _preprocess(rows, met, basis, {lm: k for k, lm in enumerate(lms)})
    span, column = _echelon(rows[len(polys):], met)
    monomials = list(column)
    return [
        {monomials[k]: x for k, x in span.remainder({column[t]: c for t, c in p.items()}).items()}
        for p in polys
    ]


def normal_form(p: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Remainder of p modulo the basis; zero exactly when p is in the ideal."""
    if p.nvars != gb.nvars:
        raise ValueError("nvars mismatch")
    [r] = _remainders([p.terms], [g.terms for g in gb.elements], gb.leading_monomials())
    return Polynomial(p.nvars, r)


def buchberger(ideal: IdealPresentation, max_pairs: int = DEFAULT_PAIR_BUDGET) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal under grevlex.

    Deterministic for a fixed generator list and idempotent on its own
    output.  Raises BudgetExceeded when more than max_pairs S-pairs would
    have to be processed.
    """
    basis: List[Terms] = []  # integer coefficients, content divided out
    lms: List[Exponent] = []
    index: Dict[Exponent, int] = {}  # leading monomial -> position in basis
    pending: Dict[Tuple[int, int], Exponent] = {}  # pair -> lcm of its leading monomials
    inputs = sorted(ideal.generators, key=Polynomial.degree)
    processed = 0
    while pending or inputs:
        degree = min([sum(lcm) for lcm in pending.values()] + [g.degree() for g in inputs[:1]])
        rows: List[Terms] = []
        met: Dict[Exponent, bool] = {}
        for i, j in sorted(pair for pair, lcm in pending.items() if sum(lcm) == degree):
            lcm = pending.pop((i, j))
            processed += 1
            if processed > max_pairs:
                raise BudgetExceeded("groebner_pairs", max_pairs)
            # Buchberger's coprimality criterion.
            if lcm == monomial_mul(lms[i], lms[j]):
                continue
            # Chain criterion: a third element dividing the lcm whose pairs
            # with both i and j have already been handled lets us drop this
            # pair.  The pairs taken earlier in this step count as handled:
            # they are reduced in the same Echelon.
            if any(
                k != i and k != j
                and (min(i, k), max(i, k)) not in pending
                and (min(j, k), max(j, k)) not in pending
                for k, _ in _divisors_in(lcm, index)
            ):
                continue
            rows.append(_multiple(basis[i], monomial_div(lcm, lms[i])))
            rows.append(_multiple(basis[j], monomial_div(lcm, lms[j])))
            met[lcm] = True  # both halves lead there
        while inputs and inputs[0].degree() == degree:
            rows.append(inputs.pop(0).terms)
        if not rows:
            continue
        _preprocess(rows, met, basis, index)
        span, column = _echelon(rows, met)
        monomials = list(column)
        for lead, row in sorted(span.rows.items()):
            lm = monomials[lead]
            if met[lm]:  # a basis leading monomial divides it
                continue
            for k in range(len(basis)):
                pending[(k, len(basis))] = monomial_lcm(lms[k], lm)
            index[lm] = len(basis)
            basis.append({monomials[k]: x for k, x in row.items()})
            lms.append(lm)

    keep = [k for k, lm in enumerate(lms) if len(_divisors_in(lm, index)) == 1]
    tails = [{t: c for t, c in basis[k].items() if t != lms[k]} for k in keep]
    reduced = []
    for k, tail in zip(keep, _remainders(tails, [basis[k] for k in keep], [lms[k] for k in keep])):
        lead = basis[k][lms[k]]
        terms = {t: c / lead for t, c in tail.items()}
        reduced.append(Polynomial(ideal.nvars, {lms[k]: 1, **terms}))
    reduced.sort(key=lambda g: grevlex_key(g.leading_monomial()))
    return GroebnerBasis(reduced, ideal.nvars)


def contains_constant(gb: GroebnerBasis) -> bool:
    return any(g.degree() == 0 for g in gb.elements)


def krull_dimension(gb: GroebnerBasis) -> int:
    """Dimension of the quotient ring, via maximal independent variable sets.

    The dimension equals the largest number of variables no leading monomial
    is supported on, a standard consequence of the flat degeneration to the
    leading-term ideal.
    """
    if contains_constant(gb):
        raise ImproperIdealError("ideal contains a constant")
    supports = sorted(
        {frozenset(i for i, e in enumerate(lm) if e) for lm in gb.leading_monomials()},
        key=lambda s: (len(s), sorted(s)),
    )
    return _max_independent(frozenset(range(gb.nvars)), tuple(supports), {})


def _max_independent(allowed: frozenset, supports: Tuple[frozenset, ...], memo: dict) -> int:
    """Largest subset of `allowed` containing no support set entirely."""
    key = allowed
    if key in memo:
        return memo[key]
    hit = None
    for s in supports:
        if s <= allowed:
            hit = s
            break
    if hit is None:
        memo[key] = len(allowed)
        return len(allowed)
    best = 0
    for v in sorted(hit):
        best = max(best, _max_independent(allowed - {v}, supports, memo))
    memo[key] = best
    return best

