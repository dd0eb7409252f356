"""Buchberger-based ideal arithmetic: bases, normal forms, dimension.

The basis computation is deliberately plain: normal pair selection (smallest
lcm degree first, ties by pair index), the coprime-leading-monomial and chain
criteria, monic reduction throughout.  Identical inputs always produce the
identical reduced basis.

A configurable cap on processed S-pairs separates "ran out of budget" from
any mathematical answer; exceeding it raises BudgetExceeded, and callers
report what needed the basis as undecided, never as a verdict.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .poly import (
    Exponent,
    Polynomial,
    grevlex_key,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
)

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

    __slots__ = ("elements", "nvars", "order")

    def __init__(self, elements: Sequence[Polynomial], nvars: int):
        self.elements = list(elements)
        self.nvars = nvars
        self.order = "grevlex"

    def leading_monomials(self) -> List[Exponent]:
        return [g.leading_monomial() for g in self.elements]

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)


def _reduce(p: Polynomial, reducers: Sequence[Polynomial]) -> Polynomial:
    """Full multivariate division remainder of p by the reducer list."""
    if not reducers:
        return p
    lead = [(g.leading_monomial(), g) for g in reducers]
    remainder: Dict[Exponent, Fraction] = {}
    work = dict(p.terms)
    while work:
        m = max(work, key=grevlex_key)
        c = work.pop(m)
        for lm, g in lead:
            if monomial_divides(lm, m):
                shift = monomial_div(m, lm)
                factor = c / g.terms[lm]
                for gm, gc in g.terms.items():
                    key = monomial_mul(gm, shift)
                    if key == m:
                        continue
                    s = work.get(key, 0) - factor * gc
                    if s:
                        work[key] = s
                    else:
                        work.pop(key, None)
                break
        else:
            remainder[m] = c
    return Polynomial(p.nvars, remainder)


def normal_form(p: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Remainder of p modulo the basis; zero exactly when p is in the ideal."""
    if p.nvars != gb.nvars:
        raise ValueError("nvars mismatch")
    return _reduce(p, gb.elements)


def _s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    lf, lg = f.leading_monomial(), g.leading_monomial()
    lcm = monomial_lcm(lf, lg)
    mf = monomial_div(lcm, lf)
    mg = monomial_div(lcm, lg)
    sf = Polynomial(f.nvars, {monomial_mul(m, mf): c for m, c in f.terms.items()}).scale(
        1 / f.terms[lf]
    )
    sg = Polynomial(g.nvars, {monomial_mul(m, mg): c for m, c in g.terms.items()}).scale(
        1 / g.terms[lg]
    )
    return sf - sg


def _interreduce(polys: List[Polynomial]) -> List[Polynomial]:
    """Make the basis reduced: minimal leading monomials, tails reduced, monic."""
    basis = [p.monic() for p in polys if not p.is_zero()]
    basis.sort(key=lambda p: grevlex_key(p.leading_monomial()))
    minimal: List[Polynomial] = []
    for p in basis:
        lm = p.leading_monomial()
        if not any(monomial_divides(q.leading_monomial(), lm) for q in minimal):
            minimal.append(p)
    reduced: List[Polynomial] = []
    for i, p in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1 :]
        r = _reduce(p, others)
        if not r.is_zero():
            reduced.append(r.monic())
    reduced.sort(key=lambda p: grevlex_key(p.leading_monomial()))
    return reduced


def buchberger(ideal: IdealPresentation, max_pairs: int = DEFAULT_PAIR_BUDGET) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal under grevlex.

    Deterministic for a fixed generator list and idempotent on its own
    output.  Raises BudgetExceeded when more than max_pairs S-pairs would
    have to be processed.
    """
    basis: List[Polynomial] = []
    for g in ideal.generators:
        r = _reduce(g, basis)
        if not r.is_zero():
            basis.append(r.monic())
    if not basis:
        return GroebnerBasis([], ideal.nvars)

    def lcm_of(i: int, j: int) -> Exponent:
        return monomial_lcm(basis[i].leading_monomial(), basis[j].leading_monomial())

    heap: List[Tuple[int, int, int]] = []
    pending = set()

    def push(i: int, j: int):
        heapq.heappush(heap, (sum(lcm_of(i, j)), i, j))
        pending.add((i, j))

    for j in range(len(basis)):
        for i in range(j):
            push(i, j)

    processed = 0
    while heap:
        _, i, j = heapq.heappop(heap)
        pending.discard((i, j))
        processed += 1
        if processed > max_pairs:
            raise BudgetExceeded("groebner_pairs", max_pairs)
        lf = basis[i].leading_monomial()
        lg = basis[j].leading_monomial()
        lcm = lcm_of(i, j)
        # Buchberger's coprimality criterion.
        if lcm == monomial_mul(lf, lg):
            continue
        # Chain criterion: a third element dividing the lcm whose pairs with
        # both i and j have already been handled lets us drop this pair.
        skip = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if monomial_divides(basis[k].leading_monomial(), lcm):
                pik = (min(i, k), max(i, k))
                pjk = (min(j, k), max(j, k))
                if pik not in pending and pjk not in pending:
                    skip = True
                    break
        if skip:
            continue
        s = _s_polynomial(basis[i], basis[j])
        r = _reduce(s, basis)
        if not r.is_zero():
            basis.append(r.monic())
            new_index = len(basis) - 1
            for k in range(new_index):
                push(k, new_index)

    return GroebnerBasis(_interreduce(basis), ideal.nvars)


def is_groebner_basis(polys: Sequence[Polynomial]) -> bool:
    """Brute-force oracle: every S-polynomial reduces to zero."""
    polys = [p for p in polys if not p.is_zero()]
    for j in range(len(polys)):
        for i in range(j):
            s = _s_polynomial(polys[i], polys[j])
            if not _reduce(s, polys).is_zero():
                return False
    return True


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

