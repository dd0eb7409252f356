"""Groebner bases, normal forms and dimension, on the sparse elimination kernel.

Bases are built degree by degree, after Faugere's F4 (J. Pure Appl. Algebra
139, 1999).  Each step takes the pending S-pairs of the smallest lcm degree,
less those the coprime-leading-monomial and chain criteria drop, and the
input generators of that degree.  Each step groups the pending pairs by
lcm degree in one pass and sorts only its own group, and the chain
criterion stops at its first witness.  The two halves of each pair and the
generators become rows, and symbolic preprocessing makes a reducer, one
multiple of a basis element, for every monomial met that a basis leading
monomial divides.  A reducer is a shifted basis row, already integer and
primitive with a leading monomial of its own, so it goes into one
`linalg.Echelon` by `adopt`, with no elimination; the other rows are then
added in leading-monomial order.  Each stored row whose leading monomial no
basis leading monomial divides is a new basis element.  The pivots of an
echelon form depend only on the span, so the order of the rows moves no
leading monomial, pending pair or budget count.  Normal forms, and the
tails of the reduced basis, are remainders against the adopted reducers.
The result is the unique reduced, monic grevlex basis, so identical ideals
give identical bases.  The dimension reads the initial ideal alone: its
minimal generators are the leading monomials of the steps' elements that
no other element's leading monomial divides, which are exactly the reduced
basis's, and `initial_ideal` returns them with no interreduction.  Inside
the steps a monomial is its
`poly.MonomialCodec` code, and its column is the negated code, so the
smallest column is the grevlex largest monomial and pivots are leading
monomials: shifts are additions, lcms are word operations, and a
divisibility test is one subtraction and one mask.  The basis is unpacked
once, at the end.

A configurable cap on processed S-pairs separates "ran out of budget" from
any mathematical answer; exceeding it raises BudgetExceeded, and callers
report what needed the basis as undecided, never as a verdict.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

from .linalg import Echelon, integral
from .poly import Exponent, MonomialCodec, Polynomial, grevlex_key

Terms = Dict[int, Fraction]  # column -> coefficient; or int, as `Echelon` stores rows

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
            k = codec.divisor(-t, lms)
            met[t] = k is not None
            if k is not None:
                shift = -t - lms[k]
                reducers.append({m - shift: c for m, c in basis[k].items()})
    return reducers


def _echelon(reducers: Sequence[Terms], rows: Sequence[Terms] = ()) -> Echelon:
    """The reducers adopted as they are, then the rows added by leading
    column.  A column is a negated monomial code, so the smallest column
    is the grevlex largest monomial and pivots are leading monomials."""
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


def _packed(p: Polynomial, codec: MonomialCodec) -> Terms:
    """The terms of p on columns: negated monomial codes."""
    return {-codec.pack(m): c for m, c in p.terms.items()}


def normal_form(p: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Remainder of p modulo the basis; zero exactly when p is in the ideal."""
    if p.nvars != gb.nvars:
        raise ValueError("nvars mismatch")
    # preprocessing multiples have no monomial of higher degree than p's
    codec = MonomialCodec(p.nvars, max([p.degree()] + [g.degree() for g in gb.elements]))
    basis = []
    for g in gb.elements:  # monic, so den * g is primitive with a positive lead
        basis.append(integral(_packed(g, codec))[0])
    [r] = _remainders([_packed(p, codec)], basis, [-min(g) for g in basis], codec)
    return Polynomial(p.nvars, {codec.unpack(-t): c for t, c in r.items()})


def _f4(
    ideal: IdealPresentation, max_pairs: int
) -> Tuple[MonomialCodec, List[Terms], List[int], List[int]]:
    """The F4 steps of the ideal's grevlex basis.  Returns the codec, the
    basis rows on its columns (integer, content divided out), the codes of
    their leading monomials, and `keep`: the positions, in order, of the
    elements whose leading monomial no other element's divides.  Those
    leading monomials are the minimal generators of the initial ideal, and
    the reduced basis leads at exactly them.

    Raises BudgetExceeded when more than max_pairs S-pairs would have to be
    processed.  No exponent of a step exceeds the step's degree, so a step
    of higher degree than the codec holds first repacks the state with a
    wider codec.
    """
    codec = MonomialCodec(ideal.nvars, 0)
    basis: List[Terms] = []  # integer rows on columns, content divided out
    lms: List[int] = []  # codes of the leading monomials
    pending: Dict[Tuple[int, int], int] = {}  # pair -> lcm of its leading monomials
    inputs = sorted(ideal.generators, key=Polynomial.degree)
    processed = 0
    while pending or inputs:
        by_degree: Dict[int, List[Tuple[int, int]]] = {}
        for pair, lcm in pending.items():
            by_degree.setdefault(codec.degree(lcm), []).append(pair)
        degree = min([*by_degree] + [g.degree() for g in inputs[:1]])
        if degree > codec.limit:
            wider = MonomialCodec(ideal.nvars, degree)
            basis = [{-wider.pack(codec.unpack(-t)): c for t, c in g.items()} for g in basis]
            lms = [wider.pack(codec.unpack(lm)) for lm in lms]
            pending = {pair: wider.pack(codec.unpack(lcm)) for pair, lcm in pending.items()}
            codec = wider
        rows: List[Terms] = []
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
            for k in (i, j):
                shift = lcm - lms[k]
                rows.append({t - shift: c for t, c in basis[k].items()})
            met[-lcm] = True  # both halves lead there
        while inputs and inputs[0].degree() == degree:
            rows.append(_packed(inputs.pop(0), codec))
        if not rows:
            continue
        span = _echelon(_preprocess(rows, met, basis, lms, codec), rows)
        for lead in span.pivots:
            if met[lead]:  # a basis leading monomial divides it
                continue
            lm = -lead
            for k in range(len(basis)):
                pending[(k, len(basis))] = codec.lcm(lms[k], lm)
            basis.append(span.rows[lead])
            lms.append(lm)
    keep = [k for k, lm in enumerate(lms) if not any(j != k for j in codec.dividing(lm, lms))]
    return codec, basis, lms, keep


def buchberger(ideal: IdealPresentation, max_pairs: int = DEFAULT_PAIR_BUDGET) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal under grevlex: the F4 steps, then
    each minimal element's tail reduced against the others and the element
    made monic.

    Deterministic for a fixed generator list and idempotent on its own
    output.  Raises BudgetExceeded when more than max_pairs S-pairs would
    have to be processed.
    """
    codec, basis, lms, keep = _f4(ideal, max_pairs)
    tails = [{t: c for t, c in basis[k].items() if t != -lms[k]} for k in keep]
    reduced = []
    remainders = _remainders(tails, [basis[k] for k in keep], [lms[k] for k in keep], codec)
    for k, tail in zip(keep, remainders):
        lead = basis[k][-lms[k]]
        terms = {codec.unpack(-t): c / lead for t, c in tail.items()}
        reduced.append(Polynomial(ideal.nvars, {codec.unpack(lms[k]): 1, **terms}))
    reduced.sort(key=lambda g: grevlex_key(g.leading_monomial()))
    return GroebnerBasis(reduced, ideal.nvars)


def initial_ideal(
    ideal: IdealPresentation, max_pairs: int = DEFAULT_PAIR_BUDGET
) -> List[Exponent]:
    """Minimal generators of the ideal's grevlex initial ideal, in
    increasing grevlex order: the leading monomials of `buchberger`'s
    reduced basis, read off the same F4 steps with no interreduction.
    Raises BudgetExceeded at the same pair count as `buchberger`."""
    codec, _, lms, keep = _f4(ideal, max_pairs)
    return [codec.unpack(lms[k]) for k in sorted(keep, key=lms.__getitem__)]


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
