import random

import pytest

from legquad.classify import enumerate_semisimple_pairs, weight_tables
from legquad.rootdata import (
    angle_audit,
    build_root_system,
    distinct_weight_count,
    is_self_dual,
    orbit,
    product_quadrics,
    segre_cone_dimension,
)
from rootdata_oracle import DimensionCapExceeded, weight_multiplicities


@pytest.mark.parametrize(
    "label,rank,count",
    [
        ("A", 1, 1), ("A", 5, 15), ("B", 2, 4), ("B", 5, 25), ("C", 3, 9),
        ("D", 4, 12), ("D", 6, 30), ("E", 6, 36), ("E", 7, 63), ("E", 8, 120),
        ("F", 4, 24), ("G", 2, 6),
    ],
)
def test_positive_root_counts(label, rank, count):
    rs = build_root_system(label, rank)
    assert len(rs.positive_roots) == count


def test_invalid_types_rejected():
    for label, rank in (("A", 0), ("B", 1), ("E", 5), ("F", 3), ("G", 3), ("H", 2)):
        with pytest.raises(ValueError):
            build_root_system(label, rank)


def test_weyl_dimension_examples():
    assert orbit(build_root_system("A", 1), [3]).dim == 4
    assert orbit(build_root_system("C", 3), [0, 0, 1]).dim == 14
    assert orbit(build_root_system("E", 7), [0, 0, 0, 0, 0, 0, 1]).dim == 56
    assert orbit(build_root_system("A", 5), [0, 0, 1, 0, 0]).dim == 20
    assert orbit(build_root_system("D", 6), [0, 0, 0, 0, 0, 1]).dim == 32


def test_weyl_dimension_classics():
    # adjoint representations have the algebra dimension
    assert orbit(build_root_system("G", 2), [0, 1]).dim == 14
    assert orbit(build_root_system("F", 4), [1, 0, 0, 0]).dim == 52
    assert orbit(build_root_system("E", 6), [0, 1, 0, 0, 0, 0]).dim == 78
    assert orbit(build_root_system("E", 8), [0, 0, 0, 0, 0, 0, 0, 1]).dim == 248
    assert orbit(build_root_system("B", 3), [1, 0, 0]).dim == 7
    assert orbit(build_root_system("A", 2), [1, 1]).dim == 8


def test_weyl_dimension_rejects_non_dominant():
    with pytest.raises(ValueError):
        orbit(build_root_system("A", 2), [1, -1]).dim


def test_cone_orbit_dimensions():
    assert orbit(build_root_system("A", 5), [0, 0, 1, 0, 0]).cone == 10
    assert orbit(build_root_system("D", 6), [0, 0, 0, 0, 0, 1]).cone == 16
    assert orbit(build_root_system("A", 1), [3]).cone == 2
    assert orbit(build_root_system("C", 3), [0, 0, 1]).cone == 7
    assert orbit(build_root_system("E", 7), [0] * 6 + [1]).cone == 28


def test_closed_orbit_quadric_counts():
    """C(N + 1, 2) - prod dim V(2 lambda_i): for the five simple orbits the
    scan accepts, the quadrics number dim g."""
    def quadrics(label, rank, coeffs):
        return product_quadrics([orbit(build_root_system(label, rank), coeffs)])

    assert quadrics("A", 1, [3]) == 3
    assert quadrics("C", 3, [0, 0, 1]) == 21
    assert quadrics("A", 5, [0, 0, 1, 0, 0]) == 35
    assert quadrics("D", 6, [0] * 5 + [1]) == 66
    assert quadrics("E", 7, [0] * 6 + [1]) == 133


def test_closed_orbit_counts_of_two_factors():
    a1, b2 = build_root_system("A", 1), build_root_system("B", 2)
    # the line times the quadric in P^4: N = 10, 55 - 3 * 14 quadrics, dim sl2 + dim so5
    line_times_quadric = [orbit(a1, [1]), orbit(b2, [1, 0])]
    assert product_quadrics(line_times_quadric) == 55 - 42 == 3 + 10
    assert segre_cone_dimension(line_times_quadric) == 5
    # the quadric surface in P^3: N = 4, 10 - 9 quadrics, cone 3, so N is not twice the cone
    quadric_surface = [orbit(a1, [1]), orbit(a1, [1])]
    assert product_quadrics(quadric_surface) == 1
    assert segre_cone_dimension(quadric_surface) == 3
    [verdict] = enumerate_semisimple_pairs(weight_tables(1, 4))
    assert (verdict.weights, verdict.dim_cone, verdict.status) == (((1,), (1,)), 3, "rejected")


def test_self_duality_table():
    assert is_self_dual(orbit(build_root_system("A", 5), [0, 0, 1, 0, 0]))
    assert not is_self_dual(orbit(build_root_system("A", 5), [1, 0, 0, 0, 0]))
    assert is_self_dual(orbit(build_root_system("E", 7), [0] * 6 + [1]))
    assert not is_self_dual(orbit(build_root_system("E", 6), [1, 0, 0, 0, 0, 0]))
    assert not is_self_dual(orbit(build_root_system("D", 5), [0, 0, 0, 0, 1]))
    assert is_self_dual(orbit(build_root_system("D", 6), [0, 0, 0, 0, 0, 1]))
    assert is_self_dual(orbit(build_root_system("B", 4), [0, 0, 0, 1]))


def test_weight_multiplicities_examples():
    c3 = build_root_system("C", 3)
    table = weight_multiplicities(c3, [0, 0, 1])
    assert len(table) == 14 and set(table.values()) == {1}
    a1 = build_root_system("A", 1)
    table = weight_multiplicities(a1, [2])
    assert sorted(2 * w[0] for w in table) == [-4, 0, 4] or len(table) == 3
    assert set(table.values()) == {1}
    mixed = weight_multiplicities(c3, [1, 1, 0])
    assert sum(mixed.values()) == 64
    assert any(m > 1 for m in mixed.values())


def test_freudenthal_totals_match_weyl_dimension():
    rng = random.Random(17)
    systems = [
        build_root_system(label, rank)
        for label, rank in (("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3),
                            ("D", 4), ("G", 2), ("A", 4), ("C", 4), ("B", 4))
    ]
    checked = 0
    while checked < 20:
        rs = systems[rng.randrange(len(systems))]
        coeffs = [rng.randint(0, 2) for _ in range(rs.rank)]
        if not any(coeffs):
            continue
        dim = orbit(rs, coeffs).dim
        if dim > 600:
            continue
        table = weight_multiplicities(rs, coeffs)
        assert sum(table.values()) == dim
        checked += 1


def test_multiplicity_cap():
    with pytest.raises(DimensionCapExceeded):
        weight_multiplicities(build_root_system("A", 3), [3, 3, 3], cap=100)


def test_distinct_weight_counts():
    a1 = build_root_system("A", 1)
    assert distinct_weight_count(orbit(a1, [1])) == 2
    assert distinct_weight_count(orbit(a1, [2])) == 3
    b2 = build_root_system("B", 2)
    assert distinct_weight_count(orbit(b2, [1, 0])) == 5      # vector rep of so5
    assert distinct_weight_count(orbit(b2, [0, 1])) == 4      # spin rep


def test_minuscule_reps_multiplicity_free():
    """dim V distinct weights, the scan's multiplicity-free test."""
    for label, rank, coeffs in (("D", 6, [0] * 5 + [1]), ("B", 5, [0, 0, 0, 0, 1]), ("E", 7, [0] * 6 + [1])):
        rs = build_root_system(label, rank)
        o = orbit(rs, coeffs)
        assert distinct_weight_count(o) == o.dim


def test_angle_audit():
    assert angle_audit(orbit(build_root_system("E", 7), [0] * 6 + [1]))
    assert angle_audit(orbit(build_root_system("A", 5), [0, 0, 1, 0, 0]))
    assert not angle_audit(orbit(build_root_system("A", 5), [1, 0, 1, 0, 0]))
    assert angle_audit(orbit(build_root_system("C", 3), [0, 0, 1]))


def test_edge_monotonicity():
    """The dimension is strictly increasing in every coordinate, along every
    chamber edge and from rho, which is what makes the scan's pruned
    enumeration of the weights under a cap sound."""
    for label, rank in (("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2), ("F", 4)):
        rs = build_root_system(label, rank)
        for base in ((0,) * rank, (1,) * rank):
            for edge in range(rank):
                dims = []
                for k in (0, 1, 2, 3, 4):
                    coeffs = list(base)
                    coeffs[edge] += k
                    dims.append(orbit(rs, coeffs).dim)
                assert dims == sorted(set(dims))
