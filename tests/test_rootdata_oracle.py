"""Differential tests: the integer Dynkin kernel of legquad.rootdata against
the ambient Fraction realization and Freudenthal's formula in rootdata_oracle."""

import random
from fractions import Fraction

import pytest

from legquad.rootdata import (
    _moved,
    _orbit_size,
    angle_audit,
    build_root_system,
    distinct_weight_count,
    dominant_weights,
    duality_involution,
    is_self_dual,
    orbit,
    simple_types_up_to,
)

from linalg_oracle import vec_dot
from rootdata_oracle import (
    ambient,
    ambient_weyl_dimension,
    box_dominant_weights,
    dual_weight,
    dynkin,
    per_root_moved_roots,
    per_root_weyl_dimension,
    reflection_orbit_size,
    weight_multiplicities,
)

ALL_TYPES = (
    [("A", n) for n in range(1, 9)]
    + [("B", n) for n in range(2, 9)]
    + [("C", n) for n in range(2, 9)]
    + [("D", n) for n in range(3, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)
SMALL_TYPES = (
    [("A", n) for n in range(1, 5)]
    + [("B", n) for n in range(2, 5)]
    + [("C", n) for n in range(2, 5)]
    + [("D", 3), ("D", 4), ("F", 4), ("G", 2)]
)


def _ambient_vector(simple, coords):
    out = [Fraction(0)] * len(simple[0])
    for c, alpha in zip(coords, simple):
        for i, x in enumerate(alpha):
            out[i] += c * x
    return out


def _weights_up_to(rank, dim_of, max_dim):
    """Every dominant weight whose representation has dimension at most
    max_dim; the dimension grows in each coordinate, so the search stops
    along a coordinate as soon as it passes the bound."""
    found = []

    def extend(prefix):
        if len(prefix) == rank:
            found.append(tuple(prefix))
            return
        k = 0
        while dim_of(prefix + [k] + [0] * (rank - len(prefix) - 1)) <= max_dim:
            extend(prefix + [k])
            k += 1

    extend([])
    return found


def test_cartan_matrix_matches_ambient_simple_roots():
    for label, rank in ALL_TYPES:
        rs = build_root_system(label, rank)
        simple = ambient(rs).simple_roots
        expected = [
            tuple(int(2 * vec_dot(a, b) / vec_dot(b, b)) for b in simple)
            for a in simple
        ]
        assert rs.cartan == expected, rs.type_label


def test_positive_roots_map_onto_ambient_roots():
    for label, rank in ALL_TYPES:
        rs = build_root_system(label, rank)
        amb = ambient(rs)
        simple = amb.simple_roots
        simple_coroots = [[2 * x / vec_dot(a, a) for x in a] for a in simple]
        images = [_ambient_vector(simple, a) for a in rs.positive_roots]
        assert sorted(map(tuple, images)) == sorted(map(tuple, amb.positive_roots)), rs.type_label
        for image, dynkin, coroot in zip(images, rs.positive_roots_dynkin, rs.positive_coroots):
            assert amb.dynkin_coords(image) == dynkin
            norm = vec_dot(image, image)
            assert _ambient_vector(simple_coroots, coroot) == [2 * x / norm for x in image]


def test_parabolic_data_matches_ambient_roots():
    """Cone dimension and angle audit at every fundamental weight."""
    for label, rank in ALL_TYPES:
        rs = build_root_system(label, rank)
        amb = ambient(rs)
        for i in range(rank):
            coeffs = [0] * rank
            coeffs[i] = 1
            lam = amb.weight_from_coeffs(coeffs)
            moved = [a for a in amb.positive_roots if vec_dot(lam, a) != 0]
            o = orbit(rs, coeffs)
            assert o.cone == 1 + len(moved)
            obtuse = any(
                vec_dot(a, b) < 0 for k, a in enumerate(moved) for b in moved[k + 1:]
            )
            assert angle_audit(o) == (not obtuse), (rs.type_label, coeffs)


@pytest.mark.parametrize("label,rank", SMALL_TYPES)
def test_weights_match_freudenthal(label, rank):
    """Every dominant weight with dim V <= 50: the distinct-weight count, the
    multiplicity-free test, the Weyl dimension and the dominant weights from
    root subtraction all agree with the Freudenthal table and the box
    enumeration."""
    rs = build_root_system(label, rank)
    weights = _weights_up_to(rank, lambda c: orbit(rs, c).dim, 50)
    assert len(weights) >= 2
    for coeffs in weights:
        table = weight_multiplicities(rs, coeffs)
        o = orbit(rs, coeffs)
        assert o.dim == sum(table.values()) == ambient_weyl_dimension(rs, coeffs)
        assert distinct_weight_count(o) == len(table)
        assert (distinct_weight_count(o) == o.dim) == all(m == 1 for m in table.values())
        assert sorted(dominant_weights(rs, coeffs)) == sorted(box_dominant_weights(rs, coeffs))


def _seeded_weights(rs, count=12, max_dim=5000):
    """The fundamental weights and seeded random dominant weights with
    coordinates up to 2, each with dim V(lambda) <= max_dim by the per-root
    Weyl product; at most `count` of them."""
    rank = rs.rank
    rng = random.Random(f"weights:{rs.type_label}")
    draws = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    draws += [tuple(rng.choice((0, 0, 0, 1, 2)) for _ in range(rank)) for _ in range(40)]
    found = []
    for coeffs in draws:
        if coeffs not in found and per_root_weyl_dimension(rs, coeffs) <= max_dim:
            found.append(coeffs)
    return found[:count]


def test_positive_roots_dynkin_are_the_matrix_product():
    for label, rank in ALL_TYPES:
        rs = build_root_system(label, rank)
        assert rs.positive_roots_dynkin == [dynkin(rs.cartan, a) for a in rs.positive_roots]
        assert rs.heights == [sum(a) for a in rs.positive_roots]
        assert rs.coroot_heights == [sum(c) for c in rs.positive_coroots]


@pytest.mark.parametrize("label,rank", simple_types_up_to(8))
def test_tables_match_the_per_root_routes(label, rank):
    """For seeded weights lambda with dim V(lambda) <= 5000 and for 2 lambda,
    which filter (v) reads: the Weyl dimension, the moved roots and the cone
    dimension from the coroot table against one coroot at a time, and every
    Weyl orbit size of the height product against the reflection walk while
    dim V stays within the same bound."""
    rs = build_root_system(label, rank)
    weights = _seeded_weights(rs)
    assert len(weights) >= 2
    for lam in weights:
        for coeffs in (lam, tuple(2 * c for c in lam)):
            dim = per_root_weyl_dimension(rs, coeffs)
            o = orbit(rs, coeffs)
            assert o.dim == dim, coeffs
            moved = per_root_moved_roots(rs, coeffs)
            assert _moved(rs, o.p) == moved, coeffs
            assert o.cone == 1 + len(moved), coeffs
            if dim > 5000:
                continue
            sizes = [reflection_orbit_size(rs, mu) for mu in dominant_weights(rs, coeffs)]
            assert [_orbit_size(rs, mu) for mu in dominant_weights(rs, coeffs)] == sizes, coeffs
            assert distinct_weight_count(o) == sum(sizes), coeffs


RANK_16_TYPES = (
    [("A", n) for n in range(1, 17)]
    + [("B", n) for n in range(2, 17)]
    + [("C", n) for n in range(2, 17)]
    + [("D", n) for n in range(3, 17)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


@pytest.mark.parametrize("label,rank", RANK_16_TYPES)
def test_duality_involution_is_the_dual_weight(label, rank):
    """At every fundamental weight and at seeded weights with coordinates up
    to 2, the duality involution gives the dual weight that simple
    reflections reach from -lambda, and `is_self_dual` holds exactly where
    that dual is lambda."""
    rs = build_root_system(label, rank)
    perm = duality_involution(rs)
    rng = random.Random(f"dual:{rs.type_label}")
    weights = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    weights += [tuple(rng.choice((0, 0, 1, 2)) for _ in range(rank)) for _ in range(6)]
    weights += [tuple(lam[perm[i]] for i in range(rank)) for lam in weights[rank:]]
    for lam in weights:
        dual = dual_weight(rs, lam)
        assert dual == tuple(lam[perm[i]] for i in range(rank)), (rs.type_label, lam)
        assert is_self_dual(orbit(rs, lam)) == (dual == lam), (rs.type_label, lam)
