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
Inside the steps a monomial is its `poly.MonomialCodec` code: shifts are
additions, the column order is the int order, and a divisibility test is
one subtraction and one mask.  The basis is unpacked once, at the end.

A configurable cap on processed S-pairs separates "ran out of budget" from
any mathematical answer; exceeding it raises BudgetExceeded, and callers
report what needed the basis as undecided, never as a verdict.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .linalg import Echelon
from .poly import Exponent, MonomialCodec, Polynomial, code_columns, grevlex_key

Terms = Dict[int, Fraction]  # monomial code -> coefficient; or int, as `Echelon` stores rows

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


def _preprocess(
    rows: List[Terms], met: Dict[int, bool], basis: Sequence[Terms], lms: Sequence[int],
    codec: MonomialCodec,
) -> None:
    """Symbolic preprocessing.  For every monomial t of a row that `met` does
    not hold yet, append the multiple (t / lm) * g of the earliest basis
    element g whose leading monomial lm divides t, and record in `met`
    whether one did.  Appended rows are scanned too, as the loop reaches them."""
    for row in rows:
        for t in row:
            if t in met:
                continue
            hits = codec.dividing(t, lms)
            met[t] = bool(hits)
            if hits:
                shift = t - lms[hits[0]]
                rows.append({m + shift: c for m, c in basis[hits[0]].items()})


def _echelon(rows: List[Terms], monomials) -> Tuple[Echelon, Dict[int, int]]:
    """The rows in one Echelon, with the column of each monomial.

    Columns run largest grevlex monomial (largest code) first, so pivots are
    leading monomials.  Rows go in by leading column, so a row with a new
    leading monomial is stored without elimination."""
    column = code_columns(monomials)
    span = Echelon()
    for vec in sorted(({column[t]: c for t, c in row.items()} for row in rows), key=min):
        span.add(vec)
    return span, column


def _remainders(
    polys: Sequence[Terms], basis: Sequence[Terms], lms: Sequence[int], codec: MonomialCodec
) -> List[Terms]:
    """Normal forms modulo the basis: the remainder of each poly against one
    Echelon of the preprocessing multiples of all of them.  No monomial of a
    remainder is divisible by a basis leading monomial."""
    rows = list(polys)
    met: Dict[int, bool] = {}
    _preprocess(rows, met, basis, lms, codec)
    span, column = _echelon(rows[len(polys):], met)
    monomials = list(column)
    return [
        {monomials[k]: x for k, x in span.remainder({column[t]: c for t, c in p.items()}).items()}
        for p in polys
    ]


def _packed(p: Polynomial, codec: MonomialCodec) -> Terms:
    return {codec.pack(m): c for m, c in p.terms.items()}


def normal_form(p: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Remainder of p modulo the basis; zero exactly when p is in the ideal."""
    if p.nvars != gb.nvars:
        raise ValueError("nvars mismatch")
    # preprocessing multiples have no monomial of higher degree than p's
    codec = MonomialCodec(p.nvars, max([p.degree()] + [g.degree() for g in gb.elements]))
    basis = [_packed(g, codec) for g in gb.elements]
    [r] = _remainders([_packed(p, codec)], basis, [max(g) for g in basis], codec)
    return Polynomial(p.nvars, {codec.unpack(m): c for m, c in r.items()})


def buchberger(ideal: IdealPresentation, max_pairs: int = DEFAULT_PAIR_BUDGET) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal under grevlex.

    Deterministic for a fixed generator list and idempotent on its own
    output.  Raises BudgetExceeded when more than max_pairs S-pairs would
    have to be processed.  No exponent of a step exceeds the step's degree,
    so a step of higher degree than the codec holds first repacks the state
    with a wider codec.
    """
    codec = MonomialCodec(ideal.nvars, 0)
    basis: List[Terms] = []  # integer coefficients, content divided out
    lms: List[int] = []
    pending: Dict[Tuple[int, int], int] = {}  # pair -> lcm of its leading monomials
    inputs = sorted(ideal.generators, key=Polynomial.degree)
    processed = 0
    while pending or inputs:
        degree = min([codec.degree(lcm) for lcm in pending.values()]
                     + [g.degree() for g in inputs[:1]])
        if degree > codec.limit:
            wider = MonomialCodec(ideal.nvars, degree)
            basis = [{wider.pack(codec.unpack(m)): c for m, c in g.items()} for g in basis]
            lms = [wider.pack(codec.unpack(lm)) for lm in lms]
            pending = {pair: wider.pack(codec.unpack(lcm)) for pair, lcm in pending.items()}
            codec = wider
        rows: List[Terms] = []
        met: Dict[int, bool] = {}
        for i, j in sorted(pair for pair, lcm in pending.items() if codec.degree(lcm) == degree):
            lcm = pending.pop((i, j))
            processed += 1
            if processed > max_pairs:
                raise BudgetExceeded("groebner_pairs", max_pairs)
            # Buchberger's coprimality criterion.
            if lcm == lms[i] + lms[j]:
                continue
            # Chain criterion: a third element dividing the lcm whose pairs
            # with both i and j have already been handled lets us drop this
            # pair.  The pairs taken earlier in this step count as handled:
            # they are reduced in the same Echelon.
            if any(
                k != i and k != j
                and (min(i, k), max(i, k)) not in pending
                and (min(j, k), max(j, k)) not in pending
                for k in codec.dividing(lcm, lms)
            ):
                continue
            for k in (i, j):
                shift = lcm - lms[k]
                rows.append({m + shift: c for m, c in basis[k].items()})
            met[lcm] = True  # both halves lead there
        while inputs and inputs[0].degree() == degree:
            rows.append(_packed(inputs.pop(0), codec))
        if not rows:
            continue
        _preprocess(rows, met, basis, lms, codec)
        span, column = _echelon(rows, met)
        monomials = list(column)
        for lead, row in sorted(span.rows.items()):
            lm = monomials[lead]
            if met[lm]:  # a basis leading monomial divides it
                continue
            for k in range(len(basis)):
                pending[(k, len(basis))] = codec.lcm(lms[k], lm)
            basis.append({monomials[k]: x for k, x in row.items()})
            lms.append(lm)

    keep = [k for k, lm in enumerate(lms) if len(codec.dividing(lm, lms)) == 1]
    tails = [{t: c for t, c in basis[k].items() if t != lms[k]} for k in keep]
    reduced = []
    remainders = _remainders(tails, [basis[k] for k in keep], [lms[k] for k in keep], codec)
    for k, tail in zip(keep, remainders):
        lead = basis[k][lms[k]]
        terms = {codec.unpack(t): c / lead for t, c in tail.items()}
        reduced.append(Polynomial(ideal.nvars, {codec.unpack(lms[k]): 1, **terms}))
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

