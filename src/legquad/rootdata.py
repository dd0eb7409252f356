"""Abstract root systems on integer Dynkin data.

Each simple type carries its integer Cartan matrix in Bourbaki numbering,
C[i][j] = <alpha_i, alpha_j^vee>, so row i holds the Dynkin coordinates of
alpha_i.  Positive roots are generated by root strings from that matrix, with
their Dynkin coordinates carried along, so each construction is
self-checking against the known root counts.  Weights are integer tuples of
Dynkin coordinates: mu is dominant when no coordinate is negative.

The Dynkin diagram is known here alone: the connected components of a
Cartan matrix's diagram and the node bijection of each onto a Bourbaki one
(`match_cartan`), the diagram automorphisms, and the one weight of each
automorphism orbit that the scan lists (`is_canonical_weight`,
`canonical_weight`).

Each root system is built once per process, with its integer tables: root
heights, coroot heights <rho, alpha^vee> with their product, and one column
of coroot entries per simple coroot.  A weight lambda enters the formulas
through its pairing vector p = <lambda + rho, alpha^vee> over the positive
roots (`rho_pairings`), the coroot heights plus lambda_i times column i, so a
caller that raises lambda_i by one carries p along by adding column i.  On p
rest the Weyl dimension formula and the orbit (cone) dimension, each written
once.  One tensor factor V(lambda) and its closed orbit is one `Orbit`
record, (rs, lambda, dim V, p, cone), which `orbit` builds from lambda and
the scan's growth loop builds with the p it carried; the scan's filters and
the Kostant certificate read Orbits: self-duality, the number of distinct
weights of V(lambda), which the scan's multiplicity-free test compares with
dim V, the angle audit, and the quadrics and the cone dimension of the
closed orbit of a tensor product, all in exact integer arithmetic.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import lcm, prod
from operator import add, mul, sub
from typing import Iterable, Iterator, List, NamedTuple, Sequence, Tuple

Weight = Tuple[int, ...]
Pairings = Tuple[int, ...]  # <lambda + rho, alpha^vee> over the positive roots, in root order

_KNOWN_POSITIVE_COUNTS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": {6: 36, 7: 63, 8: 120},
    "F": {4: 24},
    "G": {2: 6},
}


class AbstractRootSystem:
    """Cartan matrix, positive roots and positive coroots of one simple type,
    and the integer tables that every formula below reads.

    `positive_roots` are in simple-root coordinates, `positive_roots_dynkin`
    are the same roots in Dynkin coordinates, and `positive_coroots` are their
    coroots in simple-coroot coordinates, all in the same order, as are
    `heights` (ht alpha) and `coroot_heights` (<rho, alpha^vee>, as rho has
    every Dynkin coordinate 1).  `coroot_columns[i]` holds the i-th entry of
    every positive coroot, so <lambda, alpha^vee> over all positive roots is
    the sum of lambda_i times column i.
    """

    def __init__(self, label: str, rank: int):
        self.label = label
        self.rank = rank
        self.type_label = f"{label}{rank}"
        self.cartan = _cartan_matrix(label, rank)
        self.positive_roots, self.positive_roots_dynkin = _generate_positive_roots(self.cartan)
        if rank + 2 * len(self.positive_roots) != type_dimension(label, rank):
            raise AssertionError(f"{self.type_label}: generated {len(self.positive_roots)} positive roots")
        lengths = _root_lengths(self.cartan)
        self.positive_coroots = [
            _coroot(a, d, lengths) for a, d in zip(self.positive_roots, self.positive_roots_dynkin)
        ]
        self.heights = [sum(a) for a in self.positive_roots]
        self.coroot_heights = [sum(c) for c in self.positive_coroots]
        self.coroot_height_product = prod(self.coroot_heights)
        self.coroot_columns = list(zip(*self.positive_coroots))

    def is_dominant_integral(self, coeffs: Sequence[int]) -> bool:
        return len(coeffs) == self.rank and all(isinstance(c, int) and c >= 0 for c in coeffs)

    def __repr__(self):
        return f"AbstractRootSystem({self.type_label})"


@functools.lru_cache(maxsize=None)
def build_root_system(label: str, rank: int) -> AbstractRootSystem:
    """Validated constructor; supports A1.., B2.., C2.., D3.., E6-E8, F4, G2.
    Built once per process: every caller shares the object, which no one changes."""
    valid = (
        (label == "A" and rank >= 1)
        or (label == "B" and rank >= 2)
        or (label == "C" and rank >= 2)
        or (label == "D" and rank >= 3)
        or (label == "E" and rank in (6, 7, 8))
        or (label == "F" and rank == 4)
        or (label == "G" and rank == 2)
    )
    if not valid:
        raise ValueError(f"no simple root system of type {label}{rank}")
    return AbstractRootSystem(label, rank)


def simple_types_up_to(max_rank: int) -> List[Tuple[str, int]]:
    """One representative per isomorphism class: B2=C2 and D3=A3 are folded in."""
    classical = (("A", 1), ("B", 2), ("C", 3), ("D", 4))
    types = [(label, n) for label, low in classical for n in range(low, max_rank + 1)]
    exceptional = [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
    return types + [(label, n) for label, n in exceptional if n <= max_rank]


def type_key(label: str) -> Tuple[str, int]:
    """Sort key of a type label such as "B12": its letter, then its rank."""
    return label[0], int(label[1:])


def type_dimension(label: str, rank: int) -> int:
    """dim g of a simple type, rank + 2 |Phi+|, from the known root counts."""
    count = _KNOWN_POSITIVE_COUNTS[label]
    return rank + 2 * (count(rank) if callable(count) else count[rank])


def _cartan_matrix(label: str, rank: int) -> List[Weight]:
    """C[i][j] = <alpha_i, alpha_j^vee>, Bourbaki numbering.  A bond (i, j, a, b)
    sets C[i][j] = a and C[j][i] = b; in a multiple bond, i is the long node."""
    n = rank
    bonds = [(i, i + 1, -1, -1) for i in range(n - 1)]
    if label == "B":
        bonds[-1] = (n - 2, n - 1, -2, -1)
    elif label == "C":
        bonds[-1] = (n - 1, n - 2, -2, -1)
    elif label == "D":
        bonds[-1] = (n - 3, n - 1, -1, -1)
    elif label == "E":
        bonds = [(0, 2, -1, -1), (1, 3, -1, -1)] + [(i, i + 1, -1, -1) for i in range(2, n - 1)]
    elif label == "F":
        bonds[1] = (1, 2, -2, -1)
    elif label == "G":
        bonds = [(1, 0, -3, -1)]
    cartan = [[2 * (i == j) for j in range(n)] for i in range(n)]
    for i, j, a, b in bonds:
        cartan[i][j], cartan[j][i] = a, b
    return [tuple(row) for row in cartan]


def _generate_positive_roots(cartan: Sequence[Weight]) -> Tuple[List[Weight], List[Weight]]:
    """Positive roots in simple-root coordinates, height by height, and the
    same roots in Dynkin coordinates: beta + alpha_i adds row i of the
    Cartan matrix to those of beta.

    The alpha_i-string through a root beta runs from beta - p alpha_i to
    beta + q alpha_i with p - q = <beta, alpha_i^vee>, and beta + alpha_i is a
    root exactly when q > 0.  Each root keeps its p for every i: p is 0 for a
    simple root, and one more than that of beta when beta + alpha_i is found.
    """
    n = len(cartan)
    layer = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    dynkin = dict(zip(layer, cartan))
    below = {beta: [0] * n for beta in layer}
    while layer:
        above = []
        for beta in layer:
            pairings, p = dynkin[beta], below[beta]
            for i in range(n):
                if p[i] > pairings[i]:
                    up = beta[:i] + (beta[i] + 1,) + beta[i + 1:]
                    if up not in dynkin:
                        dynkin[up] = tuple(map(add, pairings, cartan[i]))
                        below[up] = [0] * n
                        above.append(up)
                    below[up][i] = p[i] + 1
        layer = above
    roots = sorted(dynkin, key=lambda a: (sum(a), a))
    return roots, [dynkin[a] for a in roots]


def _root_lengths(cartan: Sequence[Weight]) -> List[int]:
    """Integers proportional to (alpha_i, alpha_i), from the symmetrizability
    relation (alpha_i, alpha_i) C[j][i] = (alpha_j, alpha_j) C[i][j]."""
    n = len(cartan)
    lengths = [Fraction(0)] * n
    lengths[0] = Fraction(1)
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in range(n):
            if cartan[i][j] and not lengths[j]:
                lengths[j] = lengths[i] * cartan[j][i] / cartan[i][j]
                frontier.append(j)
    scale = lcm(*(x.denominator for x in lengths))
    return [int(x * scale) for x in lengths]


def _coroot(root: Weight, pairings: Weight, lengths: Sequence[int]) -> Weight:
    """Simple-coroot coordinates of alpha^vee = 2 alpha / (alpha, alpha), where
    alpha_i = (alpha_i, alpha_i) / 2 * alpha_i^vee and
    (alpha, alpha) = sum_i a_i (alpha_i, alpha_i) / 2 * <alpha, alpha_i^vee>."""
    scaled = [a * d for a, d in zip(root, lengths)]
    twice_norm = sum(map(mul, scaled, pairings))
    if any(2 * x % twice_norm for x in scaled):
        raise AssertionError("coroot coordinates did not come out integral")
    return tuple(2 * x // twice_norm for x in scaled)


# ---------------------------------------------------------------------------
# The Dynkin diagram: node bijections, automorphisms, canonical weights.
# ---------------------------------------------------------------------------


def match_cartan(cartan: List[List[int]]) -> List[Tuple[str, List[int]]]:
    """The simple factors of a Cartan matrix, one per connected component
    of its Dynkin diagram (`_components`): the type, and for each Bourbaki
    node in turn the index of the matrix node that the first node bijection
    onto the Bourbaki matrix C carries there."""
    factors = []
    for nodes in _components(cartan):
        m = len(nodes)
        sub = [[cartan[i][j] for j in nodes] for i in nodes]
        found = next((
            (f"{label}{rank}", perm) for label, rank in simple_types_up_to(m) if rank == m
            for perm in _node_bijections(sub, _cartan_matrix(label, rank))
        ), None)
        if found is None:
            raise ValueError(f"a rank {m} component of the Cartan matrix matches no simple type")
        label, perm = found  # perm[a] is the Bourbaki node of nodes[a]
        factors.append((label, [nodes[a] for a in sorted(range(m), key=perm.__getitem__)]))
    return factors


def _components(cartan: List[List[int]]) -> List[List[int]]:
    """Nodes of each connected component of the Dynkin graph, breadth first,
    so that every node after the first is joined to an earlier one."""
    seen = set()
    out = []
    for start in range(len(cartan)):
        if start in seen:
            continue
        seen.add(start)
        nodes = [start]
        for i in nodes:
            for j, x in enumerate(cartan[i]):
                if x and j not in seen:
                    seen.add(j)
                    nodes.append(j)
        out.append(nodes)
    return out


def _node_bijections(cartan: List[List[int]], target: List[List[int]]) -> Iterator[List[int]]:
    """Every node bijection p with cartan[i][j] = target[p[i]][p[j]], depth
    first, node i taking the smallest target node that still fits."""
    m = len(cartan)
    perm: List[int] = []

    def extend() -> Iterator[List[int]]:
        i = len(perm)
        if i == m:
            yield list(perm)
            return
        for t in range(m):
            if t not in perm and all(
                cartan[i][k] == target[t][p] and cartan[k][i] == target[p][t]
                for k, p in enumerate(perm)
            ):
                perm.append(t)
                yield from extend()
                perm.pop()

    return extend()


def diagram_automorphisms(label: str) -> Iterator[List[int]]:
    """The automorphisms of the Dynkin diagram of a simple type such as
    "D6": the node bijections of its Bourbaki Cartan matrix onto itself,
    found as they are needed, the identity first."""
    cartan = _cartan_matrix(*type_key(label))
    return _node_bijections(cartan, cartan)


def is_canonical_weight(label: str, rank: int, coeffs: Sequence[int]) -> bool:
    """Convention for the representative of a weight's orbit under the
    diagram automorphisms: A-weights lean on the early nodes, D4 leans on
    the vector node, higher D on the last spin node, E6 on nodes 1 and 3."""
    if label == "A":
        return tuple(coeffs) >= tuple(reversed(coeffs))
    if label == "D" and rank == 4:
        c1, _, c3, c4 = coeffs
        return (c1, c3, c4) == tuple(sorted((c1, c3, c4), reverse=True))
    if label == "D":
        return coeffs[rank - 2] <= coeffs[rank - 1]
    if label == "E" and rank == 6:
        return (coeffs[0], coeffs[2]) >= (coeffs[5], coeffs[4])
    return True


def canonical_weight(label: str, coeffs: Sequence[int]) -> Weight:
    """The image of Dynkin labels under the diagram automorphisms of the
    type `label` that `is_canonical_weight` keeps: a Cartan matrix read off
    root data matches the Bourbaki nodes only up to those automorphisms."""
    kind, rank = type_key(label)
    images = (tuple(coeffs[p] for p in sigma) for sigma in diagram_automorphisms(label))
    return next(image for image in images if is_canonical_weight(kind, rank, image))


# ---------------------------------------------------------------------------
# Dimension, orbit and duality, on the pairing vector.
# ---------------------------------------------------------------------------


def rho_pairings(rs: AbstractRootSystem, coeffs: Sequence[int]) -> Pairings:
    """The pairing vector p of lambda: <lambda + rho, alpha^vee> for every
    positive root, in root order.  It starts at the coroot heights
    h = <rho, alpha^vee> and adds column i of the coroot table lambda_i times,
    so raising lambda_i by one adds column i once.  The dimension, orbit and
    quadric formulas below read lambda through p."""
    if not rs.is_dominant_integral(coeffs):
        raise ValueError("weight must be dominant integral")
    p = rs.coroot_heights
    for c, column in zip(coeffs, rs.coroot_columns):
        if c:
            p = [s + c * x for s, x in zip(p, column)]
    return tuple(p)


def pairing_dimension(rs: AbstractRootSystem, p: Pairings) -> int:
    """Weyl dimension formula: dim V(lambda) is the product of
    <lambda + rho, alpha^vee> / <rho, alpha^vee> over the positive roots,
    where rho has every Dynkin coordinate 1."""
    dim, rest = divmod(prod(p), rs.coroot_height_product)
    if rest:
        raise AssertionError("Weyl dimension did not come out integral")
    return dim


def _moved(rs: AbstractRootSystem, p: Pairings) -> List[int]:
    """Indices of the positive roots not orthogonal to lambda, those with
    <lambda, alpha^vee> = p - h nonzero: the roots of the nilpotent part of the
    parabolic split determined by the weight."""
    return [k for k, (x, h) in enumerate(zip(p, rs.coroot_heights)) if x != h]


def pairing_cone_dimension(rs: AbstractRootSystem, p: Pairings) -> int:
    """Dimension of the affine cone over the highest weight orbit:
    one plus the number of positive roots not orthogonal to the weight."""
    return 1 + len(_moved(rs, p))


class Orbit(NamedTuple):
    """One tensor factor V(lambda) and the closed orbit of G in P(V(lambda)):
    lambda, dim V(lambda), the pairing vector p and the cone dimension read
    off p."""
    rs: AbstractRootSystem
    weight: Weight
    dim: int
    p: Pairings
    cone: int


def orbit(rs: AbstractRootSystem, coeffs: Sequence[int]) -> Orbit:
    """The `Orbit` of the highest weight lambda, from its pairing vector."""
    p = rho_pairings(rs, coeffs)
    return Orbit(rs, tuple(coeffs), pairing_dimension(rs, p), p, pairing_cone_dimension(rs, p))


def segre_cone_dimension(orbits: Iterable[Orbit]) -> int:
    """Dimension of the affine cone over the closed orbit X in
    V(lambda_1) (x) ... (x) V(lambda_k): X is the Segre product of the
    factors' orbits, so 1 + sum (cone_i - 1)."""
    return 1 + sum(o.cone - 1 for o in orbits)


def product_quadrics(orbits: Sequence[Orbit]) -> int:
    """Dimension of the space of quadrics through the closed orbit X in
    P(V(lambda_1) (x) ... (x) V(lambda_k)).  The square of X spans the
    Cartan component V(2 lambda_1) (x) ... of Sym^2 V, so with
    N = prod dim V(lambda_i) this is C(N + 1, 2) - prod dim V(2 lambda_i)
    (Lichtenstein, Proc. AMS 84, 1982).  The pairing vector of 2 lambda is
    <2 lambda + rho, alpha^vee> = 2p - h."""
    n = prod(o.dim for o in orbits)
    doubled = prod(
        pairing_dimension(o.rs, [2 * x - h for x, h in zip(o.p, o.rs.coroot_heights)]) for o in orbits
    )
    return n * (n + 1) // 2 - doubled


def duality_involution(rs: AbstractRootSystem) -> List[int]:
    """Permutation iota with V(lambda)* = V(iota applied to coefficients).

    A_n reverses, D_odd swaps the last two spin nodes, E6 swaps (1 6) and
    (3 5); every other type is self-dual.
    """
    n = rs.rank
    perm = list(range(n))
    if rs.label == "A":
        perm = list(reversed(perm))
    elif rs.label == "D" and n % 2 == 1:
        perm[n - 2], perm[n - 1] = perm[n - 1], perm[n - 2]
    elif rs.label == "E" and n == 6:
        perm[0], perm[5] = perm[5], perm[0]
        perm[2], perm[4] = perm[4], perm[2]
    return perm


def is_self_dual(o: Orbit) -> bool:
    perm = duality_involution(o.rs)
    return all(o.weight[i] == o.weight[perm[i]] for i in range(o.rs.rank))


# ---------------------------------------------------------------------------
# Weights of V(lambda).
# ---------------------------------------------------------------------------


def dominant_weights(rs: AbstractRootSystem, coeffs: Sequence[int]) -> List[Weight]:
    """The dominant weights of V(lambda), lambda first.

    Every dominant mu below lambda is reached from lambda by subtracting one
    positive root at a time without leaving the dominant chamber (Stembridge,
    "The partial order of dominant weights", Adv. Math. 1998).
    """
    if not rs.is_dominant_integral(coeffs):
        raise ValueError("weight must be dominant integral")
    lam = tuple(coeffs)
    seen = {lam}
    order = [lam]
    for mu in order:
        for root in rs.positive_roots_dynkin:
            nu = tuple(map(sub, mu, root))
            if min(nu) >= 0 and nu not in seen:
                seen.add(nu)
                order.append(nu)
    return order


def _orbit_size(rs: AbstractRootSystem, mu: Weight) -> int:
    """Size of the Weyl orbit of a dominant weight, |W| / |W_mu|.  Both orders
    are products of (ht alpha + 1) / ht alpha over the positive roots of their
    root system (Macdonald, Math. Ann. 199, 1972), and the roots of the
    stabilizer W_mu are the roots mu does not move, so the orbit size is the
    product over the roots that mu moves."""
    moved = [rs.heights[k] for k in _moved(rs, rho_pairings(rs, mu))]
    size, rest = divmod(prod(h + 1 for h in moved), prod(moved))
    if rest:
        raise AssertionError("Weyl orbit size did not come out integral")
    return size


def distinct_weight_count(o: Orbit) -> int:
    """Number of distinct weights of V(lambda): the Weyl orbit sizes of its
    dominant weights, summed."""
    return sum(_orbit_size(o.rs, mu) for mu in dominant_weights(o.rs, o.weight))


# ---------------------------------------------------------------------------
# The angle audit.
# ---------------------------------------------------------------------------


def angle_audit(o: Orbit) -> bool:
    """True when no two nilradical roots make an obtuse angle and exactly one
    simple root is moved by the weight.  (alpha, beta) has the sign of
    <alpha, beta^vee>, the Dynkin coordinates of alpha against the
    simple-coroot coordinates of beta^vee."""
    rs = o.rs
    moved = _moved(rs, o.p)
    for i, a in enumerate(moved):
        root = rs.positive_roots_dynkin[a]
        for b in moved[i + 1:]:
            if sum(map(mul, root, rs.positive_coroots[b])) < 0:
                return False
    return sum(1 for c in o.weight if c) == 1
