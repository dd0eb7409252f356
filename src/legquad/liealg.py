"""Finite-dimensional Lie algebras spanned by the quadrics of an ideal.

Everything is exact.  The main pipeline: take the degree-2 part of a
variety's ideal, verify the span is bracket-closed, read off structure
constants, find a torus of elements whose sp-images are diagonal, decompose
into root spaces over the rationals, read the Cartan integers off root
strings and match each component against `rootdata`'s Cartan matrices.

Closure and structure constants are one bracket pass, `bracket_closure`,
which is also the closure test of `legendrian` for generators of any
degree: it brackets each generator's gradient with each later one's
Hamiltonian field (`symplectic.bracket_terms`) and tests the bracket, a row
on the monomial codes of `poly.MonomialCodec`, which are its columns, for
membership in the degree part of the ideal (`degree_part`) on the same
codes.  For quadrics that part is the span of their packed rows, and each
bracket is read off its reduced rows (`linalg.Echelon.combination`), which
decides membership and gives the structure constants as integers.  The pass hands each presentation its
sparse integer bracket table, over the least common denominator D of the
constants, which ad-matrices (`_integer_ad`) and the Killing form
(`killing_rows`, D^2 times the trace form) read, and its quadrics' fields
as their integer sp-images (`sp_entries`), which the torus search and the
root decomposition read.  An element is one sparse coordinate vector over
the basis (`linalg.SparseVector`); Fractions appear at the API boundary
only: those vectors and `structure`.  The roots are integer tuples in the
scale of the integer coordinate weights.  The dense Fraction routes live in
the tests (`tests/liealg_oracle.py`).

There is one torus: all the elements whose sp-images are diagonal, one
kernel over the whole basis, so it does not depend on how the quadrics are
written (`cartan_subalgebra`).  It gives every coordinate a weight, and the
quadric x_p x_q has weight w_p + w_q: the root spaces are the integer
sp-images grouped by weight, entry (i, k) having weight w_k - w_i, the
weight of the terms it comes from, and the torus is self-centralizing
exactly when the weight-0 vectors found number dim T (`root_decomposition`).
The identification and the Kostant certificate of `legendrian` share the
root decomposition that `split_root_data` caches.

Some fixtures present a rational form that admits no split Cartan (sums of
squares cut out quadrics without rational points).  Those split into
minimal ideals by the centroid, the operators that commute with every ad,
one exact kernel: it is Q exactly on an absolutely simple piece, which
proves the piece simple at every dimension, and its rational eigenspaces
split the other pieces; a piece that no centroid element splits, though
its centroid is larger than Q, raises NotAdaptedError.  Each factor is named
by the `rootdata` types of its rank whose algebra has its dimension, which
fails, naming the candidates, when B and C (rank 3 and above) or B6, C6 and
E6 collide.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from . import linalg
from .linalg import SparseVector
from .poly import MonomialCodec, Polynomial
from .rootdata import match_cartan, simple_types_up_to, type_dimension, type_key
from .symplectic import SymplecticForm, bracket_terms, hamiltonian_terms

# table[i][j] lists (k, n) with [b_i, b_j] = sum (n / D) b_k
BracketTable = List[Dict[int, List[Tuple[int, int]]]]
SparseAd = Dict[Tuple[int, int], int]  # (k, j) -> integer entry
SpEntries = Tuple[Dict[Tuple[int, int], int], int]  # ((p, q) -> integer entry, denominator)
Weight = Tuple[int, ...]


class NotClosedError(ValueError):
    """The quadric span is not closed under the Poisson bracket: `pairs`
    lists every pair of the given quadrics whose bracket leaves it, in
    order, and `pair` is the first."""

    def __init__(self, pairs: Sequence[Tuple[int, int]]):
        i, j = pairs[0]
        super().__init__(f"bracket of quadrics {i} and {j} leaves their span")
        self.pairs = list(pairs)
        self.pair = self.pairs[0]


class NotAdaptedError(ValueError):
    """The presentation basis does not split over the rationals."""


class _StructureView(Mapping):
    """`structure`: {(i, j): {k: c}} with [b_i, b_j] = sum c b_k for i < j
    with a nonzero bracket, read-only, each read afresh off the table."""

    def __init__(self, table: Tuple[BracketTable, int]):
        self._table = table

    def __getitem__(self, key: Tuple[int, int]) -> Dict[int, Fraction]:
        (i, j), (table, den) = key, self._table
        if not i < j or j not in table[i]:
            raise KeyError(key)
        return {k: Fraction(n, den) for k, n in table[i][j]}

    def __iter__(self):
        return ((i, j) for i, row in enumerate(self._table[0]) for j in row if i < j)

    def __len__(self) -> int:
        return sum(map(len, self._table[0])) // 2


class LieAlgebraPresentation:
    """Basis of quadrics with the integer bracket table and sp-images that
    `bracket_closure` builds, and the structure constants as Fractions."""

    def __init__(
        self,
        basis: Sequence[Polynomial],
        form: SymplecticForm,
        table: Tuple[BracketTable, int],
        sp_entries: List[SpEntries],
    ):
        self.basis = list(basis)
        self.form = form
        self.dim = len(self.basis)
        self._table = table
        self._sp_entries = sp_entries
        self.structure = _StructureView(table)
        self._killing_rows: Optional[Dict[int, Dict[int, int]]] = None
        self._semisimple: Optional[bool] = None
        self._root_data = None  # CartanData, or the message of the NotAdaptedError it raised

    def bracket_table(self) -> Tuple[BracketTable, int]:
        """(table, D), table[i][j] for each ordered pair with a nonzero
        bracket, over the least common denominator D of the constants."""
        return self._table

    def sp_entries(self) -> List[SpEntries]:
        """(entries, den) for each basis quadric: its sp-image 2 W A, its
        Hamiltonian field, is entries / den."""
        return self._sp_entries

    def element_polynomial(self, vec: Mapping[int, Fraction]) -> Polynomial:
        """sum_i vec_i b_i for a sparse coordinate vector, in one terms dict."""
        terms: Dict[Tuple[int, ...], Fraction] = {}
        for i, c in vec.items():
            for m, x in self.basis[i].terms.items():
                terms[m] = terms.get(m, 0) + c * x
        return Polynomial(self.form.dim, terms)

    def killing_rows(self) -> Dict[int, Dict[int, int]]:
        """D^2 times the trace form tr(ad_i ad_j), as sparse integer rows,
        built once.

        With [b_i, b_k] = sum_l c(i,k,l) b_l, tr(ad_i ad_j) is the sum over
        (k, l) of c(i,k,l) c(j,l,k); indexing the table entries by (k, l)
        makes that one outer product per index pair.
        """
        if self._killing_rows is None:
            by_pair: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
            for i, row in enumerate(self.bracket_table()[0]):
                for k, terms in row.items():
                    for l, n in terms:
                        by_pair.setdefault((k, l), []).append((i, n))
            kappa: Dict[int, Dict[int, int]] = {}
            for (k, l), left in by_pair.items():
                right = by_pair.get((l, k))
                if right:
                    for i, c in left:
                        row = kappa.setdefault(i, {})
                        for j, d in right:
                            row[j] = row.get(j, 0) + c * d
            self._killing_rows = {
                i: nonzero for i, row in kappa.items() if (nonzero := {j: x for j, x in row.items() if x})
            }
        return self._killing_rows

    def is_semisimple(self) -> bool:
        """Cartan's criterion: the Killing form is nondegenerate."""
        if self._semisimple is None:
            span = linalg.Echelon()
            for row in self.killing_rows().values():
                span.add(row)
            self._semisimple = span.rank == self.dim
        return self._semisimple


def _integer_ad(algebra: LieAlgebraPresentation, x: Mapping[int, Fraction]) -> Tuple[SparseAd, int]:
    """(entries, den) with ad(x) = entries / den, entries sparse (k, j) ->
    integer: [x, b_j] = sum_i x_i [b_i, b_j], read off the bracket table."""
    table, den = algebra.bracket_table()
    ix, dx = linalg.integral(x)
    entries: SparseAd = {}
    for i, xi in ix.items():
        for j, terms in table[i].items():
            for k, n in terms:
                entries[(k, j)] = entries.get((k, j), 0) + xi * n
    return {kj: v for kj, v in entries.items() if v}, dx * den


def _sp_integer(algebra: LieAlgebraPresentation, vec: Mapping[int, Fraction]) -> SpEntries:
    """(entries, den) for the sp-image of sum_i vec_i b_i: it is entries /
    den, with entries sparse (p, q) -> nonzero integer."""
    ivec, dv = linalg.integral(vec)
    images = algebra.sp_entries()
    den = math.lcm(*[images[i][1] for i in ivec])
    out: Dict[Tuple[int, int], int] = {}
    for i, c in ivec.items():
        entries, d = images[i]
        scale = c * (den // d)
        for pq, x in entries.items():
            out[pq] = out.get(pq, 0) + scale * x
    return {pq: x for pq, x in out.items() if x}, dv * den


def degree_part(generators: Sequence[Polynomial], degree: int, codec: MonomialCodec) -> linalg.Echelon:
    """Echelon basis of I_d, the span of m * g over the generators g of
    degree e <= d and the monomials m of degree d - e, in that order, on
    the codes of `codec`, so pivots are leading monomials."""
    span = linalg.Echelon()
    for g in generators:
        if (e := g.degree()) <= degree:
            terms = codec.row(g).items()
            for shift in map(sum, itertools.combinations_with_replacement(codec.units, degree - e)):
                span.add({k + shift: c for k, c in terms})
    return span


def bracket_closure(
    generators: Sequence[Polynomial], form: SymplecticForm
) -> Tuple[List[Tuple[int, int]], Optional[LieAlgebraPresentation]]:
    """Bracket every pair of generators and test it for membership in the
    ideal they generate: (the failing pairs in order, the Lie algebra of a
    closed quadric span).

    Closure of the generators is enough: the Leibniz rule propagates it to
    the whole ideal.  The ideal is homogeneous, so a bracket of degree d
    lies in it exactly when it lies in I_d (`degree_part`), built once per
    degree d = e_i + e_j - 2.  Each generator is packed once on monomial
    codes, of a codec sized for twice the largest degree (too high a
    degree raises ValueError), and a bracket is d_i * d_j * d_W times the
    true one.  For quadrics, I_2 is the tracked span of the packed rows, on
    the generators that enlarge it (`Echelon.stored_inputs`), and a bracket
    read off it (`combination`) is None outside, or the constants over one
    denominator, reduced once.
    """
    gens = list(generators)
    if any(g.nvars != form.dim for g in gens):
        raise ValueError("generator does not match the form dimension")
    degrees = [g.degree() for g in gens]
    quadrics = all(e == 2 for e in degrees)
    # no pair to test, or a constant generator, whose unit ideal holds every bracket
    if not quadrics and (len(gens) < 2 or 0 in degrees):
        return [], None
    codec = MonomialCodec(form.dim, 2 * max(degrees, default=2))
    hams = [hamiltonian_terms(g, form, codec) for g in gens]
    spans: Dict[int, linalg.Echelon] = {}
    if quadrics:
        quadric_span = linalg.Echelon(track=True)
        for terms, den, *_ in hams:
            quadric_span.add(terms, den)
        position = {i: a for a, i in enumerate(quadric_span.stored_inputs)}  # generator index -> basis index
    brackets: List[Tuple[int, int, Dict[int, int], int]] = []  # (a, b, n, q): [b_a, b_b] = sum_k (n_k / q) g_k
    failing: List[Tuple[int, int]] = []
    fields = [field for *_, field in hams]
    for i, (_, den_i, grad_i, _) in enumerate(hams):
        for j in range(i + 1, len(hams)):
            br = bracket_terms(grad_i, fields[j])
            if not br:
                continue
            if not quadrics:
                degree = degrees[i] + degrees[j] - 2
                span = spans.get(degree) or spans.setdefault(degree, degree_part(gens, degree, codec))
                if not span.contains(br):
                    failing.append((i, j))
            elif (read := quadric_span.combination(br)) is None:
                failing.append((i, j))
            elif i in position and j in position:  # d_i d_j d_W [g_i, g_j] = sum_k (n_k / scale) g_k
                ints, scale = read
                brackets.append((position[i], position[j], ints, scale * den_i * hams[j][1] * form.dual_den))
    if failing or not quadrics:
        return failing, None
    basis = quadric_span.stored_inputs
    den = math.lcm(*[q // math.gcd(q, *ints.values()) for _, _, ints, q in brackets])
    table: BracketTable = [{} for _ in basis]
    for a, b, ints, q in brackets:
        terms = table[a][b] = [(position[k], n * den // q) for k, n in ints.items()]
        table[b][a] = [(k, -n) for k, n in terms]
    variable = {u: v for v, u in enumerate(codec.units)}
    images = []
    for k in basis:
        _, den_k, _, field = hams[k]
        entries: Dict[Tuple[int, int], int] = Counter()
        for p, terms in field.items():
            for m, c in terms:
                entries[p, variable[m]] += c
        images.append(({pq: x for pq, x in entries.items() if x}, den_k * form.dual_den))
    return failing, LieAlgebraPresentation([gens[i] for i in basis], form, (table, den), images)


def close_and_present(quadrics: Sequence[Polynomial], form: SymplecticForm) -> LieAlgebraPresentation:
    """The Lie algebra of a closed span of quadrics, as `bracket_closure`
    presents it.  An open span raises NotClosedError listing all the pairs
    of `quadrics` whose bracket leaves it; other input raises ValueError."""
    failing, algebra = bracket_closure(quadrics, form)
    if failing:
        raise NotClosedError(failing)
    if algebra is None:
        raise ValueError("close_and_present takes quadrics only")
    return algebra


# ---------------------------------------------------------------------------
# Cartan subalgebras and root decompositions.
# ---------------------------------------------------------------------------


@dataclass
class CartanData:
    """A torus of the algebra, as sparse coordinate vectors over the algebra
    basis, with its root decomposition: root_spaces pairs each root with a
    sparse coordinate eigenvector; the roots alone determine the type.
    weights are the integer coordinate weights the decomposition read
    (`_coordinate_weights`), and each root is the integer tuple -mu for the
    weight mu = w_p + w_q of its quadrics: ad h_t multiplies a root vector
    by root_t / den_t, for the denominator den_t of h_t's sp-image."""

    cartan_vectors: List[SparseVector]
    root_spaces: List[Tuple[Weight, SparseVector]] = field(default_factory=list)  # (root, eigvec)
    weights: List[Weight] = field(default_factory=list)

    @property
    def rank(self) -> int:
        return len(self.cartan_vectors)

    @property
    def roots(self) -> List[Weight]:
        return [r for r, _ in self.root_spaces]


def _coordinate_weights(algebra, torus: List[SparseVector]) -> List[Weight]:
    """Coordinate k has weight (d_1[k], ..., d_r[k]) for the integer
    diagonals d_t of `_sp_integer` of the torus vectors.  Raises
    NotAdaptedError when an sp-image is not diagonal."""
    images = [_sp_integer(algebra, h)[0] for h in torus]
    if any(p != q for d in images for p, q in d):
        raise NotAdaptedError("a torus vector's sp-image is not diagonal")
    return [tuple(d.get((k, k), 0) for d in images) for k in range(algebra.form.dim)]


def cartan_subalgebra(algebra: LieAlgebraPresentation) -> CartanData:
    """The torus T of all the elements whose sp-images are diagonal, as
    the canonical basis of one kernel: the off-diagonal entries of the
    sp-images over one denominator, over the basis coordinates.  An element
    alone at an off-diagonal position among those still in is forced out
    first; on every fixture no constraint is left.  `root_decomposition`
    tests whether T is self-centralizing."""
    images = algebra.sp_entries()
    live = list(range(algebra.dim))
    while True:
        held = Counter(pq for i in live for pq in images[i][0] if pq[0] != pq[1])
        kept = [i for i in live if 1 not in map(held.__getitem__, images[i][0])]
        if kept == live:
            break
        live = kept
    scale = math.lcm(*[images[i][1] for i in live])
    rows: Dict[Tuple[int, int], Dict[int, int]] = {}
    for i in live:
        entries, den = images[i]
        for (p, q), x in entries.items():
            if p != q:
                rows.setdefault((p, q), {})[i] = x * (scale // den)
    return CartanData(linalg.sparse_nullspace(rows.values(), live))


def root_decomposition(algebra: LieAlgebraPresentation, cartan: CartanData) -> CartanData:
    """The root spaces of a torus with diagonal sp-images.

    The torus gives coordinate p the weight w_p (`_coordinate_weights`), so
    the quadric x_p x_q has weight mu = w_p + w_q, of root -mu.  Entry (i, k)
    of its integer sp-image (`sp_entries`), the field W grad, comes from its
    terms x_r x_k with W[i][r] nonzero, and the form pairs only opposite
    weights, w_r = -w_i: the entry has weight w_k - w_i, that of its terms.
    The sp-image is injective, so its weight parts are those of the terms.
    A basis element of one weight is an eigenvector unless another element
    mixes that weight with a second one.  The elements that touch a mixed
    weight span the sum of their weight parts, since g is torus-stable; its
    vectors of weight mu are the combinations whose parts of every other
    weight vanish, one kernel per mixed weight over one denominator.

    So g is the sum of the weight vectors found, and those of weight 0 span
    the centralizer of the torus.  Raises NotAdaptedError when a torus
    vector's sp-image is not diagonal, or unless they number dim T: the
    torus is then not self-centralizing.
    """
    weights = _coordinate_weights(algebra, cartan.cartan_vectors)
    images = algebra.sp_entries()
    parts: List[Dict[Weight, Dict[Tuple[int, int], int]]] = []  # weight -> (i, k) -> entry
    for entries, _ in images:
        part: Dict[Weight, Dict[Tuple[int, int], int]] = {}
        for (i, k), x in entries.items():
            part.setdefault(tuple(b - a for a, b in zip(weights[i], weights[k])), {})[(i, k)] = x
        parts.append(part)
    mixed = {mu for part in parts if len(part) > 1 for mu in part}
    pairs: List[Tuple[Weight, SparseVector]] = []
    leftover: List[int] = []
    for j, part in enumerate(parts):
        if mixed.isdisjoint(part):
            pairs.append((next(iter(part)), {j: Fraction(1)}))
        else:
            leftover.append(j)
    scale = math.lcm(*[images[j][1] for j in leftover])
    rows: Dict[Tuple[Weight, Tuple[int, int]], Dict[int, int]] = {}  # (weight, (i, k)) -> j -> entry
    for j in leftover:
        factor = scale // images[j][1]
        for mu, part in parts[j].items():
            for ik, x in part.items():
                rows.setdefault((mu, ik), {})[j] = x * factor
    for mu in mixed:
        kernel = linalg.sparse_nullspace([row for (nu, _), row in rows.items() if nu != mu], leftover)
        pairs.extend((mu, vec) for vec in kernel)
    pairs.sort(key=lambda pair: pair[0])  # increasing weights are decreasing roots
    root_spaces = [(tuple(-x for x in mu), vec) for mu, vec in pairs if any(mu)]
    if len(pairs) - len(root_spaces) != cartan.rank:
        raise NotAdaptedError("no self-centralizing torus with diagonal sp-images")
    return CartanData(cartan.cartan_vectors, root_spaces, weights)


# ---------------------------------------------------------------------------
# Dynkin identification.
# ---------------------------------------------------------------------------


def identify_type(cd: CartanData) -> List[str]:
    """Simple-type labels of the semisimple algebra from its root data, the
    labels of `simple_factors` in type order."""
    return sorted((label for label, _ in simple_factors(cd)), key=type_key)


def simple_factors(cd: CartanData) -> List[Tuple[str, List[int]]]:
    """The simple factors of the root data: each type label with, for each
    Bourbaki node in turn, the index in `cd.root_spaces` of its simple root.

    The roots are integer tuples in the coordinate-weight scale, a positive
    scale on each coordinate of the ad eigenvalues, which keeps
    lex-positivity, root strings and Cartan integers.  The simple roots are
    the lex-positive roots that are not a sum of two positive roots.  For simple
    alpha_a and alpha_b, alpha_a - alpha_b is not a root, so the
    alpha_b-string through alpha_a starts at alpha_a and
    <alpha_a, alpha_b^vee> = -q for the largest q with alpha_a + q alpha_b a
    root.  `rootdata.match_cartan` matches each connected component of that
    Cartan matrix against rootdata's Bourbaki Cartan matrices of its rank.
    """
    roots = cd.roots
    positive = [r for r in roots if next(x for x in r if x) > 0]
    positive_set, root_set = set(positive), set(roots)
    simple = [
        index for index, alpha in enumerate(roots) if alpha in positive_set
        and not any(tuple(x - y for x, y in zip(alpha, beta)) in positive_set for beta in positive)
    ]

    def pairing(alpha, beta) -> int:
        if alpha == beta:
            return 2
        q = 0
        while tuple(x + (q + 1) * y for x, y in zip(alpha, beta)) in root_set:
            q += 1
        return -q

    cartan = [[pairing(roots[a], roots[b]) for b in simple] for a in simple]
    return [(label, [simple[i] for i in nodes]) for label, nodes in match_cartan(cartan)]


# ---------------------------------------------------------------------------
# Ideal decomposition and the non-split fallback.
# ---------------------------------------------------------------------------


def _type_of_dimension(dim: int, rank: int) -> str:
    """The one simple type of this rank whose algebra has this dimension;
    raises NotAdaptedError naming the candidates when there is not one."""
    candidates = [f"{label}{r}" for label, r in simple_types_up_to(rank)
                  if r == rank and type_dimension(label, r) == dim]
    if len(candidates) != 1:
        raise NotAdaptedError(
            f"non-split factor of dimension {dim} and rank {rank} matches "
            f"{len(candidates)} simple types: {', '.join(candidates) or 'none'}"
        )
    return candidates[0]


def decompose_ideals(algebra: LieAlgebraPresentation) -> List[Tuple[List[SparseVector], LieAlgebraPresentation]]:
    """Minimal ideals of a semisimple algebra, each proved absolutely
    simple: (its basis as sparse coordinate vectors over the input basis,
    its presentation) for each, the algebra itself when it is simple, by
    dimension and then by basis vectors (`_dense_order`).

    A piece is split by its centroid (`_split_centroid`) until the centroid
    of every piece is the scalars.  Raises NotAdaptedError for a piece
    whose centroid is larger but has no rational eigenspace split: its
    centroid is then a field larger than Q, and the piece is simple over Q
    but not absolutely simple.
    """
    if algebra.dim == 0:
        return []
    whole = [{i: Fraction(1)} for i in range(algebra.dim)]
    pending: List[Tuple[List[SparseVector], LieAlgebraPresentation]] = [(whole, algebra)]
    result: List[Tuple[List[SparseVector], LieAlgebraPresentation]] = []
    while pending:
        lift, sub = pending.pop()  # lift: the piece's basis in `algebra` coordinates
        split = _split_centroid(sub)
        if split is None:
            result.append((lift, sub))
            continue
        for piece in split:
            lifted = [_combine(lift, v) for v in piece]
            pending.append((lifted, subalgebra_presentation(algebra, lifted)))
    result.sort(key=lambda pair: (len(pair[0]), [_dense_order(v) for v in pair[0]]))
    return result


def _dense_order(vec: SparseVector) -> List[Tuple]:
    """A key that orders sparse vectors as their dense coordinate lists: at
    the first index where those differ, a negative entry ranks below zero
    and a positive one above it, whatever follows."""
    return [(0, i, x) if x < 0 else (2, -i, x) for i, x in sorted(vec.items())] + [(1,)]


def _combine(vectors: List[SparseVector], coeffs: Mapping[int, Fraction]) -> SparseVector:
    """sum_a coeffs[a] vectors[a], nonzero entries only."""
    out: Dict[int, Fraction] = {}
    for a, c in coeffs.items():
        for i, x in vectors[a].items():
            out[i] = out.get(i, 0) + c * x
    return {i: x for i, x in out.items() if x}


def _centroid(algebra: LieAlgebraPresentation) -> List[SparseVector]:
    """Canonical basis of the centroid: the d x d matrices X, flattened
    with X[p][r] at p * d + r, that commute with ad b_i for every basis
    element b_i, the kernel of one `_commutant_rows` system.  The scalars
    always commute, so the rows stop once their rank is d^2 - 1."""
    d = algebra.dim
    span = linalg.Echelon()
    for row in _commutant_rows([_integer_ad(algebra, {i: 1})[0] for i in range(d)], d):
        if span.add(row) and span.rank == d * d - 1:
            break
    return span.kernel(range(d * d))


def _split_centroid(algebra: LieAlgebraPresentation) -> Optional[List[List[SparseVector]]]:
    """None when the centroid is the scalars, which proves the algebra
    absolutely simple; otherwise the rational eigenspaces, in increasing
    eigenvalue order, of the first canonical centroid element that is
    diagonalizable over Q with two or more eigenvalues.

    A centroid element X commutes with every ad, so [a, Xb] = X[a, b] and
    its eigenspaces are ideals.  The centroid of a semisimple algebra is the
    sum of those of its simple factors, each a field acting on its factor,
    and Q exactly on an absolutely simple one.  Raises NotAdaptedError when
    no element splits.
    """
    d = algebra.dim
    centroid = _centroid(algebra)
    if len(centroid) == 1:
        return None
    for element in centroid:
        ints, den = linalg.integral(element)
        cols: Dict[int, List[Tuple[int, int]]] = {}
        for index, x in ints.items():
            cols.setdefault(index % d, []).append((index // d, x))
        t: AdColumns = (cols, den)
        eigenvalues = _rational_eigenvalues(t, d)
        if len(eigenvalues or ()) > 1:
            return _split_by_eigenvalue(t, d, eigenvalues)
    raise NotAdaptedError(
        f"a piece of dimension {d} has a centroid of dimension {len(centroid)} "
        f"that no rational eigenspace splits"
    )


def _commutant_rows(mats: List[SparseAd], d: int) -> List[Dict[int, int]]:
    """The system XM = MX for every sparse integer M in `mats`, X a d x d
    matrix flattened with X[p][r] at p * d + r: one sparse integer row per
    entry (p, q) of XM - MX, sorted by leading column, which keeps the
    fill-in of the elimination down."""
    rows: List[Dict[int, int]] = []
    for m in mats:
        by_row: Dict[int, List[Tuple[int, int]]] = {}
        by_col: Dict[int, List[Tuple[int, int]]] = {}
        for (r, q), x in m.items():
            by_row.setdefault(r, []).append((q, x))
            by_col.setdefault(q, []).append((r, x))
        for p in range(d):
            for q in range(d):
                row: Dict[int, int] = {}
                for r, x in by_col.get(q, ()):
                    row[p * d + r] = row.get(p * d + r, 0) + x
                for r, x in by_row.get(p, ()):
                    row[r * d + q] = row.get(r * d + q, 0) - x
                row = {k: x for k, x in row.items() if x}
                if row:
                    rows.append(row)
    rows.sort(key=min)
    return rows


AdColumns = Tuple[Dict[int, List[Tuple[int, int]]], int]  # (j -> [(k, entry)], den)


def _ad_apply(t: AdColumns, m: Mapping[int, Fraction], d: int) -> Dict[int, Fraction]:
    """t m, for the sparse integer columns of t over their denominator and a
    d x d matrix m flattened column by column, m[j][c] at c * d + j."""
    cols, den = t
    im, dm = linalg.integral(m)
    acc: Dict[int, int] = {}
    for index, y in im.items():
        j = index % d
        for k, x in cols.get(j, ()):
            acc[index - j + k] = acc.get(index - j + k, 0) + x * y
    return {k: Fraction(s, den * dm) for k, s in acc.items() if s}


def _split_by_eigenvalue(t: AdColumns, d: int, eigenvalues: List[Fraction]) -> List[List[SparseVector]]:
    """The eigenspaces of the d x d matrix t for the given eigenvalues, each
    the kernel of t - lam read off the sparse columns of t.  The eigenvalues
    are the distinct roots of t's minimal polynomial, so t is diagonalizable
    and the eigenspaces span Q^d."""
    cols, den = t
    pieces = []
    for lam in eigenvalues:
        # den * lam.denominator * (t - lam), row by row
        rows: List[Dict[int, int]] = [{k: -lam.numerator * den} for k in range(d)]
        for j, entries in cols.items():
            for k, x in entries:
                rows[k][j] = rows[k].get(j, 0) + lam.denominator * x
        pieces.append(linalg.sparse_nullspace(rows, range(d)))
    assert sum(map(len, pieces)) == d, "the eigenspaces of a diagonalizable matrix span"
    return pieces


def _rational_eigenvalues(t: AdColumns, d: int) -> Optional[List[Fraction]]:
    """Distinct rational eigenvalues of the d x d matrix t via its minimal
    polynomial: the flattened matrices I, t, t^2, ... go into one tracked
    `linalg.Echelon` until one lies in the span of those before it, whose
    coefficients give the relation.  (The powers of t on one vector miss the
    eigenvalues of the eigenspaces it has no part in.)

    Returns None when the minimal polynomial does not split over the
    rationals (all roots are searched by the rational root theorem).
    """
    span = linalg.Echelon(track=True)
    v = {c * d + c: Fraction(1) for c in range(d)}
    while span.add(v):
        v = _ad_apply(t, v, d)
    # t^k = sum relation[i] * t^i for k = span.rank
    relation = span.coefficients(v)
    poly = [-relation.get(i, 0) for i in range(span.rank)] + [Fraction(1)]
    den = math.lcm(*[c.denominator for c in poly])
    ints = [int(c * den) for c in poly]
    roots = _rational_roots(ints)
    # The minimal polynomial of a split semisimple operator is squarefree
    # with all roots rational: demand as many distinct rational roots as
    # its degree.
    return roots if len(roots) == len(ints) - 1 else None


def _rational_roots(ints: List[int]) -> List[Fraction]:
    a0, ak = ints[0], ints[-1]
    if a0 == 0:
        reduced = list(ints)
        while reduced and reduced[0] == 0:
            reduced.pop(0)
        return sorted(set([Fraction(0)] + (_rational_roots(reduced) if len(reduced) > 1 else [])))
    roots = []
    for p in _divisors(abs(a0)):
        for q in _divisors(abs(ak)):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                value = Fraction(0)
                for c in reversed(ints):
                    value = value * cand + c
                if value == 0:
                    roots.append(cand)
    return sorted(set(roots))


def _divisors(n: int) -> List[int]:
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            if i != n // i:
                out.append(n // i)
        i += 1
    return sorted(out)


def _generic_rank(algebra: LieAlgebraPresentation) -> int:
    """Rank of the complexification: minimal centralizer dimension, dim g
    minus the rank of ad x (`_integer_ad`), over a few deterministic sample
    elements x."""
    best = algebra.dim
    for seed in (1, 2, 5, 11):
        x = {i: (seed * (3 * i + 1)) % 17 + 1 for i in range(algebra.dim)}
        rows: Dict[int, Dict[int, int]] = {}
        for (k, j), v in _integer_ad(algebra, x)[0].items():
            rows.setdefault(k, {})[j] = v
        span = linalg.Echelon()
        for row in rows.values():
            span.add(row)
        best = min(best, algebra.dim - span.rank)
    return best


def subalgebra_presentation(algebra: LieAlgebraPresentation, vectors: List[SparseVector]) -> LieAlgebraPresentation:
    """Presentation of the subalgebra spanned by sparse coordinate vectors."""
    polys = [algebra.element_polynomial(v) for v in vectors]
    return close_and_present(polys, algebra.form)


def split_root_data(algebra: LieAlgebraPresentation) -> CartanData:
    """Root decomposition over `cartan_subalgebra`, computed once per
    presentation; a basis that does not split raises a fresh
    NotAdaptedError with the cached message on every call, so no call's
    traceback grows or keeps another's frames alive."""
    if algebra._root_data is None:
        try:
            algebra._root_data = root_decomposition(algebra, cartan_subalgebra(algebra))
        except NotAdaptedError as exc:
            algebra._root_data = str(exc)
    if isinstance(algebra._root_data, str):
        raise NotAdaptedError(algebra._root_data)
    return algebra._root_data


def identify_algebra(algebra: LieAlgebraPresentation) -> List[str]:
    """Simple-type labels of a semisimple quadric algebra.

    Runs the split root-space route when the basis admits a diagonal torus;
    otherwise splits into minimal ideals and names each non-split factor by
    the one simple type of its rank and dimension.
    """
    if algebra.dim == 0:
        return []
    if not algebra.is_semisimple():
        raise ValueError("algebra is not semisimple")
    try:
        return identify_type(split_root_data(algebra))
    except NotAdaptedError:
        pass
    labels: List[str] = []
    # a simple algebra is its own one ideal, and keeps its cached failure
    for _, sub in decompose_ideals(algebra):
        try:
            labels.extend(identify_type(split_root_data(sub)))
        except NotAdaptedError:
            labels.append(_type_of_dimension(sub.dim, _generic_rank(sub)))
    return sorted(labels, key=type_key)
