"""Test oracles for legquad.rootdata.

The ambient Fraction realization of the simple root systems, with
Freudenthal's multiplicity formula on top.  Standard realizations: A_n on
the sum-zero hyperplane of Q^{n+1}; B, C, D in Q^n; G2 in Q^3; F4 in Q^4;
E6, E7, E8 inside the usual even coordinate system of Q^8.  Roots are the
reflection orbit of the simple roots.  Nothing in this part reads the
integer Cartan data of legquad.rootdata, so the two routes are independent;
its functions take a legquad root system only for its label and rank.

The per-root integer routes that the root system's tables replaced, at the
end: Dynkin coordinates as a matrix product, the Weyl dimension and the
moved roots one coroot at a time, and Weyl orbit sizes by walking the orbit
with simple reflections.  They read the Cartan matrix and the coroots of a
legquad root system, not its tables.  Last, the dual weight by simple
reflections, against the duality involution's table of diagram symmetries.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from linalg_oracle import Vector, inverse, solve, vec_dot

DEFAULT_DIMENSION_CAP = 600


class DimensionCapExceeded(RuntimeError):
    def __init__(self, dim: int, cap: int):
        super().__init__(f"representation dimension {dim} exceeds the cap {cap}")
        self.dim = dim
        self.cap = cap


class AmbientRootSystem:
    """Simple roots, positive roots, fundamental weights and the Weyl vector
    of one simple type, in ambient rational coordinates."""

    def __init__(self, label: str, rank: int):
        self.label = label
        self.rank = rank
        self.simple_roots = _simple_roots(label, rank)
        self.ambient = len(self.simple_roots[0])
        self.roots = _reflection_orbit(self.simple_roots, self.simple_roots)
        self.fundamental_weights = _fundamental_weights(self.simple_roots)
        # a root is positive when it pairs positively with the sum of the
        # fundamental weights, which is regular dominant
        regular = [sum(col) for col in zip(*self.fundamental_weights)]
        self.positive_roots = [list(r) for r in self.roots if vec_dot(list(r), regular) > 0]
        self.weyl_vector = _half_sum(self.positive_roots)

    def weight_from_coeffs(self, coeffs: Sequence[int]) -> Vector:
        """Ambient coordinates of sum coeffs[i] * omega_{i+1}."""
        if len(coeffs) != self.rank:
            raise ValueError(f"{self.label}{self.rank} needs {self.rank} weight coefficients")
        out = [Fraction(0)] * self.ambient
        for c, w in zip(coeffs, self.fundamental_weights):
            if c:
                for i, x in enumerate(w):
                    out[i] += c * x
        return out

    def dynkin_coords(self, mu: Vector) -> Tuple[int, ...]:
        """<mu, alpha_i^vee> for each simple root, as integers."""
        out = []
        for a in self.simple_roots:
            value = 2 * vec_dot(mu, a) / vec_dot(a, a)
            assert value.denominator == 1
            out.append(int(value))
        return tuple(out)


@lru_cache(maxsize=None)
def _ambient_of(label: str, rank: int) -> AmbientRootSystem:
    return AmbientRootSystem(label, rank)


def ambient(rs) -> AmbientRootSystem:
    """The ambient realization of the type of a legquad root system."""
    return _ambient_of(rs.label, rs.rank)


def _basis_vec(n: int, entries: Dict[int, Fraction]) -> Vector:
    v = [Fraction(0)] * n
    for i, x in entries.items():
        v[i] = Fraction(x)
    return v


def _simple_roots(label: str, rank: int) -> List[Vector]:
    n = rank
    if label == "A":
        return [_basis_vec(n + 1, {i: 1, i + 1: -1}) for i in range(n)]
    if label == "B":
        roots = [_basis_vec(n, {i: 1, i + 1: -1}) for i in range(n - 1)]
        roots.append(_basis_vec(n, {n - 1: 1}))
        return roots
    if label == "C":
        roots = [_basis_vec(n, {i: 1, i + 1: -1}) for i in range(n - 1)]
        roots.append(_basis_vec(n, {n - 1: 2}))
        return roots
    if label == "D":
        roots = [_basis_vec(n, {i: 1, i + 1: -1}) for i in range(n - 1)]
        roots.append(_basis_vec(n, {n - 2: 1, n - 1: 1}))
        return roots
    if label == "G":
        return [
            _basis_vec(3, {0: 1, 1: -1}),
            _basis_vec(3, {0: -2, 1: 1, 2: 1}),
        ]
    if label == "F":
        half = Fraction(1, 2)
        return [
            _basis_vec(4, {1: 1, 2: -1}),
            _basis_vec(4, {2: 1, 3: -1}),
            _basis_vec(4, {3: 1}),
            [half, -half, -half, -half],
        ]
    if label == "E":
        half = Fraction(1, 2)
        alpha1 = [half, -half, -half, -half, -half, -half, -half, half]
        alpha2 = _basis_vec(8, {0: 1, 1: 1})
        others = [_basis_vec(8, {i - 1: -1, i: 1}) for i in range(1, 7)]
        simple = [alpha1, alpha2] + others  # Bourbaki numbering 1..8
        return simple[:rank]
    raise ValueError(label)


def _reflection_orbit(simple: List[Vector], start: Sequence[Vector]) -> List[Tuple[Fraction, ...]]:
    """Closure of the start vectors under the simple reflections."""
    norms = [vec_dot(a, a) for a in simple]
    seen = {tuple(v) for v in start}
    frontier = list(seen)
    while frontier:
        new = []
        for w in frontier:
            for a, norm in zip(simple, norms):
                coeff = 2 * vec_dot(list(w), a) / norm
                image = tuple(x - coeff * y for x, y in zip(w, a))
                if image not in seen:
                    seen.add(image)
                    new.append(image)
        frontier = new
    return sorted(seen)


def _fundamental_weights(simple: List[Vector]) -> List[Vector]:
    """Dual basis to the coroots inside the span of the simple roots."""
    m = len(simple)
    coroot_pairings = [
        [2 * vec_dot(simple[i], simple[j]) / vec_dot(simple[j], simple[j]) for j in range(m)]
        for i in range(m)
    ]
    inv = inverse(coroot_pairings)
    weights = []
    for i in range(m):
        w = [Fraction(0)] * len(simple[0])
        for k in range(m):
            for c in range(len(w)):
                w[c] += inv[i][k] * simple[k][c]
        weights.append(w)
    return weights


def _half_sum(roots: List[Vector]) -> Vector:
    out = [Fraction(0)] * len(roots[0])
    for r in roots:
        for i, x in enumerate(r):
            out[i] += x
    return [x / 2 for x in out]


def ambient_weyl_dimension(rs, coeffs: Sequence[int]) -> int:
    """Weyl dimension formula as a Fraction product over ambient roots."""
    amb = ambient(rs)
    lam = amb.weight_from_coeffs(coeffs)
    rho = amb.weyl_vector
    lam_rho = [a + b for a, b in zip(lam, rho)]
    result = Fraction(1)
    for alpha in amb.positive_roots:
        result *= vec_dot(lam_rho, alpha) / vec_dot(rho, alpha)
    assert result.denominator == 1
    return int(result)


# ---------------------------------------------------------------------------
# Dominant weights by box enumeration, and Weyl orbits.
# ---------------------------------------------------------------------------


def _dominant_weights_below(rs: AmbientRootSystem, lam: Vector) -> List[Vector]:
    """All dominant weights mu with lam - mu a nonnegative integer combination
    of simple roots (saturation gives exactly the dominant weights of V)."""
    simple = rs.simple_roots
    lowest = _lowest_weight(rs, lam)
    diff = [a - b for a, b in zip(lam, lowest)]
    box = _root_coords(rs, diff)
    if box is None or any(c < 0 or c.denominator != 1 for c in box):
        raise AssertionError("weight minus lowest weight is not in the positive root lattice")
    bounds = [int(c) for c in box]
    out = []
    for combo in itertools.product(*(range(b + 1) for b in bounds)):
        mu = list(lam)
        for c, alpha in zip(combo, simple):
            if c:
                for i, x in enumerate(alpha):
                    mu[i] -= c * x
        if _is_dominant(rs, mu):
            out.append(mu)
    return out


def box_dominant_weights(rs, coeffs: Sequence[int]) -> List[Tuple[int, ...]]:
    """Dominant weights of V(lambda) from the box enumeration, in Dynkin
    coordinates."""
    amb = ambient(rs)
    return [amb.dynkin_coords(mu) for mu in _dominant_weights_below(amb, amb.weight_from_coeffs(coeffs))]


def _root_coords(rs: AmbientRootSystem, vec: Vector) -> Optional[Vector]:
    simple = rs.simple_roots
    gram = [[vec_dot(a, b) for b in simple] for a in simple]
    rhs = [vec_dot(vec, a) for a in simple]
    coords = solve(gram, rhs)
    if coords is None:
        return None
    # verify vec is inside the span
    recon = [Fraction(0)] * len(vec)
    for c, alpha in zip(coords, simple):
        for i, x in enumerate(alpha):
            recon[i] += c * x
    if recon != [Fraction(x) for x in vec]:
        return None
    return coords


def _is_dominant(rs: AmbientRootSystem, mu: Vector) -> bool:
    return all(vec_dot(mu, a) >= 0 for a in rs.simple_roots)


def _dominant_representative(rs: AmbientRootSystem, mu: Vector) -> Tuple[Fraction, ...]:
    v = list(mu)
    simple = rs.simple_roots
    norms = [vec_dot(a, a) for a in simple]
    while True:
        for a, norm in zip(simple, norms):
            pairing = vec_dot(v, a)
            if pairing < 0:
                coeff = 2 * pairing / norm
                v = [x - coeff * y for x, y in zip(v, a)]
                break
        else:
            return tuple(v)


def _lowest_weight(rs: AmbientRootSystem, lam: Vector) -> Vector:
    """Image of the highest weight under the longest Weyl element."""
    v = list(lam)
    simple = rs.simple_roots
    norms = [vec_dot(a, a) for a in simple]
    while True:
        for a, norm in zip(simple, norms):
            pairing = vec_dot(v, a)
            if pairing > 0:
                coeff = 2 * pairing / norm
                v = [x - coeff * y for x, y in zip(v, a)]
                break
        else:
            return v


def _weyl_orbit(rs: AmbientRootSystem, mu: Vector) -> List[Tuple[Fraction, ...]]:
    return _reflection_orbit(rs.simple_roots, [mu])


# ---------------------------------------------------------------------------
# Weight multiplicities (Freudenthal recursion).
# ---------------------------------------------------------------------------


def weight_multiplicities(
    rs, coeffs: Sequence[int], cap: int = DEFAULT_DIMENSION_CAP
) -> Dict[Tuple[Fraction, ...], int]:
    """Full weight multiplicity table of the irreducible representation,
    keyed by ambient weight.

    Freudenthal recursion on dominant weights, then Weyl orbit expansion.
    Raises DimensionCapExceeded when the representation is over the cap.
    """
    dim = ambient_weyl_dimension(rs, coeffs)
    if dim > cap:
        raise DimensionCapExceeded(dim, cap)
    amb = ambient(rs)
    lam = amb.weight_from_coeffs(coeffs)
    rho = amb.weyl_vector
    lam_rho = [a + b for a, b in zip(lam, rho)]
    c_lam = vec_dot(lam_rho, lam_rho)

    dominants = _dominant_weights_below(amb, lam)
    # order by height of lam - mu so dependencies are already computed
    def height(mu):
        coords = _root_coords(amb, [a - b for a, b in zip(lam, mu)])
        return sum(coords)

    dominants.sort(key=height)
    mult: Dict[Tuple[Fraction, ...], int] = {}
    weight_set = set()
    for mu in dominants:
        for w in _weyl_orbit(amb, mu):
            weight_set.add(w)

    def lookup(w: Sequence[Fraction]) -> int:
        key = tuple(w)
        if key not in weight_set:
            return 0
        rep = _dominant_representative(amb, list(w))
        return mult.get(rep, 0)

    for mu in dominants:
        if list(mu) == lam:
            mult[tuple(mu)] = 1
            continue
        mu_rho = [a + b for a, b in zip(mu, rho)]
        denom = c_lam - vec_dot(mu_rho, mu_rho)
        total = Fraction(0)
        for alpha in amb.positive_roots:
            k = 1
            while True:
                shifted = [a + k * b for a, b in zip(mu, alpha)]
                m = lookup(shifted)
                if m == 0 and tuple(shifted) not in weight_set:
                    break
                if m:
                    total += m * vec_dot(shifted, alpha)
                k += 1
        value = 2 * total / denom
        if value.denominator != 1 or value <= 0:
            raise AssertionError("Freudenthal recursion produced a non-positive multiplicity")
        mult[tuple(mu)] = int(value)

    table: Dict[Tuple[Fraction, ...], int] = {}
    for mu in dominants:
        m = mult[tuple(mu)]
        for w in _weyl_orbit(amb, mu):
            table[w] = m
    return table


# ---------------------------------------------------------------------------
# The per-root integer routes.
# ---------------------------------------------------------------------------


def dynkin(cartan: Sequence[Sequence[int]], root: Sequence[int]) -> Tuple[int, ...]:
    """Dynkin coordinates of a vector given in simple-root coordinates."""
    n = len(cartan)
    return tuple(sum(root[i] * cartan[i][j] for i in range(n)) for j in range(n))


def _pairing(coeffs: Sequence[int], coroot: Sequence[int]) -> int:
    return sum(c * x for c, x in zip(coeffs, coroot))


def per_root_weyl_dimension(rs, coeffs: Sequence[int]) -> int:
    """The Weyl product <lambda + rho, alpha^vee> / <rho, alpha^vee>, one
    positive coroot at a time."""
    numerator = denominator = 1
    for coroot in rs.positive_coroots:
        numerator *= _pairing(coeffs, coroot) + sum(coroot)
        denominator *= sum(coroot)
    dim, rest = divmod(numerator, denominator)
    assert rest == 0
    return dim


def box_weights_under_cap(rs, cap: int) -> List[Tuple[int, ...]]:
    """The nonzero dominant weights with dim V <= cap, by the per-root Weyl
    product over a box: coordinate i runs up to the largest k with
    dim V(k omega_i) <= cap, as the dimension grows in every coordinate."""
    bounds = []
    for i in range(rs.rank):
        k = 0
        while per_root_weyl_dimension(rs, [k + 1 if j == i else 0 for j in range(rs.rank)]) <= cap:
            k += 1
        bounds.append(k)
    box = itertools.product(*(range(b + 1) for b in bounds))
    return [w for w in box if any(w) and per_root_weyl_dimension(rs, w) <= cap]


def per_root_moved_roots(rs, coeffs: Sequence[int]) -> List[int]:
    """Indices of the positive roots whose coroot pairs nonzero with lambda."""
    return [k for k, coroot in enumerate(rs.positive_coroots) if _pairing(coeffs, coroot)]


def reflection_orbit_size(rs, mu: Sequence[int]) -> int:
    """Size of the Weyl orbit of a dominant weight.  Every orbit element is
    reached from mu by reflections s_i applied where the i-th coordinate is
    positive, each of which lowers the weight; s_i sends w to w - w_i C[i]."""
    start = tuple(mu)
    seen = {start}
    frontier = [start]
    while frontier:
        lower = []
        for w in frontier:
            for i, wi in enumerate(w):
                if wi > 0:
                    image = tuple(x - wi * c for x, c in zip(w, rs.cartan[i]))
                    if image not in seen:
                        seen.add(image)
                        lower.append(image)
        frontier = lower
    return len(seen)


def dual_weight(rs, coeffs: Sequence[int]) -> Tuple[int, ...]:
    """The highest weight of V(lambda)*: the dominant weight of the Weyl
    orbit of -lambda, the lowest weight of V(lambda) negated.  It is reached
    from -lambda by simple reflections s_i, mu -> mu - mu_i C[i], taken while
    some mu_i is negative; each raises the weight, so the walk ends."""
    mu = tuple(-c for c in coeffs)
    while True:
        i = next((i for i, x in enumerate(mu) if x < 0), None)
        if i is None:
            return mu
        mu = tuple(x - mu[i] * c for x, c in zip(mu, rs.cartan[i]))
