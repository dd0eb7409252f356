"""Groebner bases, normal forms and dimension, on the sparse elimination kernel.

Bases are built degree by degree, after Faugere's F4 (J. Pure Appl. Algebra
139, 1999).  Each step takes the pending S-pairs of the smallest lcm degree,
less those the coprime-leading-monomial and chain criteria drop, and the
input generators of that degree; the pending pairs are grouped by lcm
degree in one pass, and the chain criterion stops at its first witness.
The two halves of each pair, each (k, lcm) once, and the generators become
rows, and symbolic preprocessing makes a reducer, one multiple of a
basis element, for every monomial met that a basis leading monomial
divides.  A reducer is a shifted basis row, already integer and primitive
with a leading monomial of its own, so it goes into one `linalg.Echelon` by
`adopt`, with no elimination; the other rows are then added in
leading-monomial order.  Each stored row whose leading monomial no basis
leading monomial divides is a new basis element.  The pivots of an echelon
form depend only on the span, so the order of the rows moves no leading
monomial, pending pair or budget count.  Normal forms, and the tails of the
unique reduced, monic grevlex basis, are remainders against the adopted
reducers.  The dimension reads the initial ideal alone: the leading
monomials of the steps' elements that no other element's divides are the
reduced basis's (`initial_ideal`).  Inside the steps a monomial is its
`poly.MonomialCodec` code, which is also its column, so pivots are leading
monomials: shifts are additions, lcms are word operations, and a
divisibility test is one subtraction and one mask.  The entry points take a
generator list and its number of variables, and a basis is the plain list
of Polynomials that `buchberger` returns and `normal_form` reads.

A configurable cap on processed S-pairs separates "ran out of budget" from
any mathematical answer; exceeding it raises BudgetExceeded, and callers
report what needed the basis as undecided, never as a verdict.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

from .linalg import Echelon, integral
from .poly import Exponent, MonomialCodec, Polynomial

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


def _preprocess(
    rows: Sequence[Terms], met: Dict[int, bool], basis: Sequence[Terms], lms: Sequence[int],
    codec: MonomialCodec,
) -> List[Terms]:
    """Symbolic preprocessing; returns the reducers.  For every column of a
    row that `met` does not hold yet, with monomial u, make the reducer
    (u / lm) * g of the earliest basis element g whose leading monomial lm
    divides u, and record in `met` whether one did.  The reducers are
    scanned too, as the loop reaches them.  Each is a shifted basis row, so
    integer and primitive with a positive lead, and leads at a column of
    its own."""
    reducers: List[Terms] = []
    for row in chain(rows, reducers):
        for t in row:
            if t in met:
                continue
            k = next(codec.dividing(t, lms), None)
            met[t] = k is not None
            if k is not None:
                shift = t - lms[k]
                reducers.append({m + shift: c for m, c in basis[k].items()})
    return reducers


def _echelon(reducers: Sequence[Terms], rows: Sequence[Terms] = ()) -> Echelon:
    """The reducers adopted as they are, then the rows added by leading
    column.  A column is a monomial code, so the smallest column is the
    grevlex largest monomial and pivots are leading monomials."""
    span = Echelon()
    for row in reducers:
        span.adopt(row)
    for row in sorted(rows, key=min):
        span.add(row)
    return span


def _remainders(
    polys: Sequence[Terms], basis: Sequence[Terms], lms: Sequence[int], codec: MonomialCodec
) -> List[Terms]:
    """Normal forms modulo the basis: the remainder of each poly against one
    Echelon of the preprocessing multiples of all of them.  No monomial of a
    remainder is divisible by a basis leading monomial."""
    span = _echelon(_preprocess(polys, {}, basis, lms, codec))
    return [span.remainder(p) for p in polys]


def normal_form(p: Polynomial, basis: Sequence[Polynomial]) -> Polynomial:
    """Remainder of p modulo a reduced basis that `buchberger` returned;
    zero exactly when p is in the ideal."""
    if any(g.nvars != p.nvars for g in basis):
        raise ValueError("nvars mismatch")
    # preprocessing multiples have no monomial of higher degree than p's
    codec = MonomialCodec(p.nvars, max([p.degree()] + [g.degree() for g in basis]))
    # monic, so den * g is primitive with a positive lead
    rows = [integral(codec.row(g))[0] for g in basis]
    [r] = _remainders([codec.row(p)], rows, [min(g) for g in rows], codec)
    return codec.polynomial(r)


def _f4(
    generators: Sequence[Polynomial], nvars: int, max_pairs: int
) -> Tuple[MonomialCodec, List[Terms], List[int], List[int]]:
    """The F4 steps of the grevlex basis of the ideal of the generators in
    `nvars` variables, zero ones dropped.  Returns the codec, the basis rows
    on its codes (integer, content divided out), the codes of their leading
    monomials, and `keep`: the positions of the elements whose leading
    monomial no other element's divides, in increasing grevlex order of that
    monomial, so in decreasing code.  Those leading monomials are the
    minimal generators of the initial ideal, and the reduced basis leads at
    exactly them.

    Raises ValueError when a generator has another number of variables, and
    BudgetExceeded when more than max_pairs S-pairs would have to be
    processed.  No exponent of a step exceeds the step's degree, so a step
    of higher degree than the codec holds first repacks the state with a
    wider codec.
    """
    inputs = sorted((g for g in generators if not g.is_zero()), key=Polynomial.degree)
    if any(g.nvars != nvars for g in inputs):
        raise ValueError("all generators must share nvars")
    codec = MonomialCodec(nvars, 0)
    basis: List[Terms] = []  # integer rows on codes, content divided out
    lms: List[int] = []  # codes of the leading monomials
    pending: Dict[Tuple[int, int], int] = {}  # pair -> lcm of its leading monomials
    processed = 0
    while pending or inputs:
        by_degree: Dict[int, List[Tuple[int, int]]] = {}
        for pair, lcm in pending.items():
            by_degree.setdefault(codec.degree(lcm), []).append(pair)
        degree = min([*by_degree] + [g.degree() for g in inputs[:1]])
        if degree > codec.limit:
            wider = MonomialCodec(nvars, degree)
            basis = [{wider.pack(codec.unpack(t)): c for t, c in g.items()} for g in basis]
            lms = [wider.pack(codec.unpack(lm)) for lm in lms]
            pending = {pair: wider.pack(codec.unpack(lcm)) for pair, lcm in pending.items()}
            codec = wider
        halves: Dict[Tuple[int, int], Terms] = {}  # (k, lcm) -> shifted row; a basis monomial's by its lcm alone
        met: Dict[int, bool] = {}
        for i, j in sorted(by_degree.pop(degree, ())):
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
            for k in (i, j):  # a half that two pairs share, or that two basis monomials give, enters once
                key = (k if len(basis[k]) > 1 else -1, lcm)
                if key not in halves:
                    shift = lcm - lms[k]
                    halves[key] = {t + shift: c for t, c in basis[k].items()}
            met[lcm] = True  # both halves lead there
        rows = list(halves.values())
        while inputs and inputs[0].degree() == degree:
            rows.append(codec.row(inputs.pop(0)))
        if not rows:
            continue
        span = _echelon(_preprocess(rows, met, basis, lms, codec), rows)
        for lm in span.pivots:
            if met[lm]:  # a basis leading monomial divides it
                continue
            for k in range(len(basis)):
                pending[(k, len(basis))] = codec.lcm(lms[k], lm)
            basis.append(span.rows[lm])
            lms.append(lm)
    keep = [k for k, lm in enumerate(lms) if not any(j != k for j in codec.dividing(lm, lms))]
    return codec, basis, lms, sorted(keep, key=lms.__getitem__, reverse=True)


def buchberger(
    generators: Sequence[Polynomial], nvars: int, max_pairs: int = DEFAULT_PAIR_BUDGET
) -> List[Polynomial]:
    """The reduced, monic grevlex Groebner basis of the ideal of the
    generators in `nvars` variables: the F4 steps, then each minimal
    element's tail reduced against the others and the element made monic,
    in `_f4`'s order: increasing grevlex leading monomial.

    Deterministic for a fixed generator list and idempotent on its own
    output.  Raises BudgetExceeded when more than max_pairs S-pairs would
    have to be processed.
    """
    codec, basis, lms, keep = _f4(generators, nvars, max_pairs)
    tails = [{t: c for t, c in basis[k].items() if t != lms[k]} for k in keep]
    reduced = []
    remainders = _remainders(tails, [basis[k] for k in keep], [lms[k] for k in keep], codec)
    for k, tail in zip(keep, remainders):
        lead = basis[k][lms[k]]
        reduced.append(codec.polynomial({lms[k]: lead, **tail}, lead))
    return reduced


def initial_ideal(
    generators: Sequence[Polynomial], nvars: int, max_pairs: int = DEFAULT_PAIR_BUDGET
) -> List[Exponent]:
    """Minimal generators of the grevlex initial ideal of the generators in
    `nvars` variables, in increasing grevlex order: the leading monomials
    of `buchberger`'s reduced basis, read off the same F4 steps with no
    interreduction.  Raises BudgetExceeded at the same pair count as
    `buchberger`."""
    codec, _, lms, keep = _f4(generators, nvars, max_pairs)
    return [codec.unpack(lms[k]) for k in keep]


def krull_dimension(monomials: Iterable[Exponent], nvars: int) -> int:
    """Dimension of the quotient ring by an ideal in `nvars` variables
    whose initial ideal the monomials generate, such as the leading
    monomials of a Groebner basis: the number of variables minus the size
    of a smallest set of variables that meets the support of every
    monomial.

    The complement of such a set is a largest set of variables no leading
    monomial is supported on, and its size is the dimension, a standard
    consequence of the flat degeneration to the leading-term ideal.
    """
    supports = {frozenset(i for i, e in enumerate(m) if e) for m in monomials}
    if frozenset() in supports:
        raise ImproperIdealError("ideal contains a constant")
    return nvars - _smallest_hitting_set(supports, nvars)


def _smallest_hitting_set(supports: Set[FrozenSet[int]], nvars: int) -> int:
    """Size of a smallest set of variables meeting every support set, by a
    depth-first branch and bound with no memo.

    A support that contains another is dropped: meeting the smaller one
    meets it.  Each node branches on the unmet support with the fewest
    variables still open, taking its k-th open variable and closing the
    ones before it, so no set is visited twice.  Unmet supports that are
    pairwise disjoint in their open variables each need a variable of
    their own, which bounds the size from below; a node whose bound
    reaches the best size found is pruned.
    """
    minimal: List[FrozenSet[int]] = []
    for s in sorted(supports, key=len):
        if not any(t <= s for t in minimal):
            minimal.append(s)
    best = nvars  # every variable meets every (nonempty) support

    def search(chosen: FrozenSet[int], closed: FrozenSet[int], size: int) -> None:
        nonlocal best
        unmet = [s - closed for s in minimal if not s & chosen]
        if not unmet:
            best = size
            return
        # a greedy packing of disjoint unmet supports bounds the rest
        packed: Set[int] = set()
        need = 0
        for s in sorted(unmet, key=len):
            if not s:
                return  # an unmet support with every variable closed
            if packed.isdisjoint(s):
                packed |= s
                need += 1
        if size + need >= best:
            return
        options = sorted(min(unmet, key=len))
        for k, v in enumerate(options):
            search(chosen | {v}, closed | frozenset(options[:k]), size + 1)

    search(frozenset(), frozenset(), 0)
    return best
