"""Test oracles for `legquad.groebner` and the checks that read a reduced basis.

`division_buchberger` is the pair-at-a-time Buchberger the package ran
before its bases were built on `linalg.Echelon`: normal pair selection
(smallest lcm degree first, ties by pair index), the coprime and chain
criteria, and multivariate polynomial division (`division_remainder`) for
every reduction.  It shares no elimination code with `legquad.groebner`, so
it is the oracle for `buchberger` and `normal_form`; `is_groebner_basis`
checks Buchberger's S-pair criterion with the same division.

Bracket closure here is the test the package ran before it tested span
membership in the degree-d parts of the ideal: every generator bracket,
taken as a sum of gradient products, is reduced by division modulo the
oracle's basis.  It shares neither the bracket kernel nor the span
elimination with `legquad.liealg.bracket_closure`, so the two routes are
independent.  The hyperplanes of `linear_part` are the oracle for
`legendrian_oracle.degeneracy_check`, and `krull_dimension_bruteforce`
scans every variable subset for `legquad.groebner.krull_dimension`.
"""

from __future__ import annotations

import heapq
import itertools
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from legquad.groebner import (
    DEFAULT_PAIR_BUDGET,
    BudgetExceeded,
    ImproperIdealError,
)
from legquad.poly import Exponent, Polynomial, grevlex_key, monomial_mul
from legquad.symplectic import SymplecticForm

from poly_oracle import gradient, monic


def monomial_div(a: Exponent, b: Exponent) -> Exponent:
    """Quotient a / b; caller guarantees divisibility."""
    return tuple(x - y for x, y in zip(a, b))


def monomial_lcm(a: Exponent, b: Exponent) -> Exponent:
    return tuple(max(x, y) for x, y in zip(a, b))


def monomial_divides(a: Exponent, b: Exponent) -> bool:
    """True when monomial a divides monomial b."""
    return all(x <= y for x, y in zip(a, b))


def division_remainder(p: Polynomial, reducers: Sequence[Polynomial]) -> Polynomial:
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


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
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
    basis = [monic(p) for p in polys if not p.is_zero()]
    basis.sort(key=lambda p: grevlex_key(p.leading_monomial()))
    minimal: List[Polynomial] = []
    for p in basis:
        lm = p.leading_monomial()
        if not any(monomial_divides(q.leading_monomial(), lm) for q in minimal):
            minimal.append(p)
    reduced: List[Polynomial] = []
    for i, p in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1 :]
        r = division_remainder(p, others)
        if not r.is_zero():
            reduced.append(monic(r))
    reduced.sort(key=lambda p: grevlex_key(p.leading_monomial()))
    return reduced


def division_buchberger(
    generators: Sequence[Polynomial], max_pairs: int = DEFAULT_PAIR_BUDGET
) -> List[Polynomial]:
    """Reduced grevlex basis, one S-pair at a time, reducing by division."""
    basis: List[Polynomial] = []
    for g in generators:
        r = division_remainder(g, basis)
        if not r.is_zero():
            basis.append(monic(r))
    if not basis:
        return []

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
        s = s_polynomial(basis[i], basis[j])
        r = division_remainder(s, basis)
        if not r.is_zero():
            basis.append(monic(r))
            new_index = len(basis) - 1
            for k in range(new_index):
                push(k, new_index)

    return _interreduce(basis)


def is_groebner_basis(polys: Sequence[Polynomial]) -> bool:
    """Brute-force oracle: every S-polynomial reduces to zero."""
    polys = [p for p in polys if not p.is_zero()]
    for j in range(len(polys)):
        for i in range(j):
            s = s_polynomial(polys[i], polys[j])
            if not division_remainder(s, polys).is_zero():
                return False
    return True


def poisson_bracket(f: Polynomial, g: Polynomial, form: SymplecticForm) -> Polynomial:
    """sum over i, j of W_ij (df/dx_i)(dg/dx_j), as polynomial arithmetic."""
    dual = form.dual_matrix
    grad_f = gradient(f)
    grad_g = gradient(g)
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


def groebner_basis(v, budget: int) -> List[Polynomial]:
    return division_buchberger(v.generators, max_pairs=budget)


def failing_pairs(v, gb: Sequence[Polynomial]) -> List[Tuple[int, int]]:
    """Generator pairs whose bracket has a nonzero normal form modulo gb."""
    return [
        (i, j)
        for i, j in itertools.combinations(range(len(v.generators)), 2)
        if division_remainder(poisson_bracket(v.generators[i], v.generators[j], v.form), gb)
    ]


def linear_part(gb: Sequence[Polynomial]) -> List[Polynomial]:
    """All degree-1 elements of the reduced basis.

    Nonempty exactly when the variety lies in a hyperplane, i.e. is a cone.
    """
    return [g for g in gb if g.degree() == 1]


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
