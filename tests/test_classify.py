import collections
import functools
import itertools
from math import prod

import pytest

from classify_oracle import accepted_pairs, accepted_simple
from legquad import classify, cli, legendrian, rootdata
from legquad.classify import enumerate_semisimple_pairs, enumerate_simple, weight_tables
from legquad.legendrian import kostant_certificate
from legquad.rootdata import (
    build_root_system,
    diagram_automorphisms,
    is_canonical_weight,
    orbit,
    product_quadrics,
    simple_types_up_to,
    type_key,
)
from rootdata_oracle import box_weights_under_cap, per_root_moved_roots, per_root_weyl_dimension
from test_kostant import _diagram_automorphisms

EXPECTED_SIMPLE = [
    ("A1", (3,)),
    ("A5", (0, 0, 1, 0, 0)),
    ("C3", (0, 0, 1)),
    ("D6", (0, 0, 0, 0, 0, 1)),
    ("E7", (0, 0, 0, 0, 0, 0, 1)),
]


@pytest.fixture(scope="module")
def simple_scan():
    return enumerate_simple(weight_tables(8, 100))


@pytest.fixture(scope="module")
def pair_scan():
    return enumerate_semisimple_pairs(weight_tables(8, 100))


@pytest.fixture(scope="module")
def simple_12():
    return enumerate_simple(weight_tables(12))


@pytest.fixture(scope="module")
def full_products():
    return enumerate_semisimple_pairs(weight_tables(8))


def test_simple_accepted_set(simple_scan):
    assert accepted_simple(simple_scan) == EXPECTED_SIMPLE


def test_accepted_dims_match_ambients(simple_scan):
    dims = {v.type_label: v.dim_v for v in simple_scan if v.status == "accepted"}
    assert dims == {"A1": 4, "C3": 14, "A5": 20, "D6": 32, "E7": 56}
    cones = {v.type_label: v.dim_cone for v in simple_scan if v.status == "accepted"}
    for label, dim in dims.items():
        assert dim == 2 * cones[label]


def test_every_g2_candidate_rejected(simple_scan):
    g2 = [v for v in simple_scan if v.type_label == "G2"]
    assert g2, "G2 must be enumerated"
    assert all(v.status == "rejected" for v in g2)


def test_a3_middle_rejection_reason(simple_scan):
    row = next(v for v in simple_scan if v.type_label == "A3" and v.weight == (0, 1, 0))
    assert row.status == "rejected"
    assert row.dim_v == 6 and row.dim_cone == 5
    assert "below twice" in row.reason


def test_c_type_natural_edges_exhaust(simple_scan):
    """k omega_1 of C_m: the projective space at k = 1 is under-dimensioned,
    and V(2 omega_1), the adjoint, has dimension 2m^2 + m, above the derived
    cap 2m^2 + 2, as is every further weight; so the edge ends at k = 1.  (The
    multiple-weight rejection of those weights is covered at the root-data
    level.)"""
    for m in (3, 4, 5):
        edge = [v for v in simple_scan if v.type_label == f"C{m}"
                and v.weight[0] > 0 and all(c == 0 for c in v.weight[1:])]
        assert [v.weight[0] for v in edge] == [1]
        assert edge[0].status == "rejected" and "below twice" in edge[0].reason
        assert edge[0].dim_v == 2 * m and edge[0].dim_v < 2 * edge[0].dim_cone
        rs = build_root_system("C", m)
        assert orbit(rs, (2,) + (0,) * (m - 1)).dim > 2 * len(rs.positive_roots) + 2


@functools.lru_cache(maxsize=None)
def _automorphisms(label: str):
    """The tests' permutation search up to rank 8; above it, where that
    search has rank! permutations to try, `rootdata.diagram_automorphisms`,
    which matches it at every type up to rank 8 (test_kostant)."""
    if type_key(label)[1] <= 8:
        return _diagram_automorphisms(label)
    return list(diagram_automorphisms(label))


def _orbit(label: str, weight):
    return frozenset(tuple(weight[p[i]] for i in range(len(weight))) for p in _automorphisms(label))


def test_canonical_weight_keeps_one_weight_per_automorphism_orbit():
    """Over the box of coordinates 0..2, for every type up to rank 8."""
    for label, rank in simple_types_up_to(8):
        type_label = f"{label}{rank}"
        orbits = {_orbit(type_label, w) for w in itertools.product(range(3), repeat=rank)}
        for orbit in orbits:
            kept = [w for w in orbit if is_canonical_weight(label, rank, w)]
            assert len(kept) == 1, (type_label, sorted(orbit))


def test_simple_scan_tests_exactly_the_weights_under_the_derived_cap(simple_12):
    """With no dimension cap given, the scan tests one weight of every
    automorphism orbit of nonzero dominant weights with dim V <= 2 |Phi+| + 2,
    and nothing else, for every type up to rank 12; the oracle finds them by a
    box search and the per-root Weyl product.  Every candidate's dim V, cone
    dimension and, where filter (v) ran, quadric count, all read off the
    pairing vector the growth loop carried, match the per-root routes and
    `orbit` of lambda.  A1 (3) sits on A1's cap of 4."""
    tested = {}
    for v in simple_12:
        tested.setdefault(v.type_label, []).append(v.weight)
        rs = build_root_system(v.type_label[0], int(v.type_label[1:]))
        assert v.dim_v == per_root_weyl_dimension(rs, v.weight), (v.type_label, v.weight)
        cone = 1 + len(per_root_moved_roots(rs, v.weight))
        assert v.dim_cone == cone == orbit(rs, v.weight).cone, (v.type_label, v.weight)
        if v.quadric_count is not None:
            doubled = per_root_weyl_dimension(rs, [2 * c for c in v.weight])
            assert v.quadric_count == v.dim_v * (v.dim_v + 1) // 2 - doubled
            assert v.quadric_count == product_quadrics([orbit(rs, v.weight)])
    for label, rank in simple_types_up_to(12):
        rs = build_root_system(label, rank)
        want = {_orbit(rs.type_label, w) for w in box_weights_under_cap(rs, 2 * len(rs.positive_roots) + 2)}
        got = tested.get(rs.type_label, [])
        assert len(got) == len(want) and {_orbit(rs.type_label, w) for w in got} == want, rs.type_label
    assert tested["A1"] == [(1,), (2,), (3,)]
    assert len(simple_12) == 94
    assert sum(1 for v in simple_12 if v.quadric_count is not None) > 5
    assert enumerate_simple(weight_tables(8)) == [v for v in simple_12 if int(v.type_label[1:]) <= 8]
    assert len(enumerate_simple(weight_tables(8))) == 66
    assert accepted_simple(simple_12) == EXPECTED_SIMPLE


def test_scan_at_rank_16_with_no_dimension_cap():
    """122 simple verdicts with the five of rank 8 accepted, and 92 products
    with 31 accepted: sl2 (x) so_m for m = 3, 5..33 and 6, 8..32, and the
    triple."""
    simple = enumerate_simple(weight_tables(16))
    assert len(simple) == 122
    assert accepted_simple(simple) == EXPECTED_SIMPLE
    products = enumerate_semisimple_pairs(weight_tables(16))
    assert len(products) == 92
    expected = {("A1", "A1"): ((1,), (2,)), ("A1", "A3"): ((1,), (0, 1, 0))}
    for rank in range(2, 17):
        expected[("A1", f"B{rank}")] = ((1,), (1,) + (0,) * (rank - 1))
    for rank in range(4, 17):
        expected[("A1", f"D{rank}")] = ((1,), (1,) + (0,) * (rank - 1))
    expected[("A1",) * 3] = ((1,),) * 3
    accepted = {v.factors: v.weights for v in products if v.status == "accepted"}
    assert len(accepted) == 31 and accepted == expected


# one factor of the brute force: (type, weight), cone, dim V and |Phi+|
_Factor = collections.namedtuple("_Factor", "key cone dim roots")


def _allowed_shape(combo) -> bool:
    """The products the dimension bound leaves: A1 (1) (x) X with
    dim X <= |Phi_X+| + 2, dimensions (3, 3) and (3, 4), and A1 (1)^(x)3."""
    dims = sorted(f.dim for f in combo)
    if dims in ([3, 3], [3, 4], [2, 2, 2]):
        return True
    return len(dims) == 2 and dims[0] == 2 and all(f.dim <= f.roots + 2 for f in combo)


def test_product_scan_tests_exactly_the_shapes_the_bound_allows(full_products):
    """Every pair and triple of canonical factors from the simple scan's
    lists up to rank 8, by brute force: the scan tests exactly the products
    of the allowed shapes, once each, and every product with dim V equal to
    twice its cone is among them.  A1 (1) (x) A1 (2) sits on A1's pair cap of
    3, and the triple is the only product of three factors that passes."""
    factors = []
    for label, rank in simple_types_up_to(8):
        rs = build_root_system(label, rank)
        for w in box_weights_under_cap(rs, 2 * len(rs.positive_roots) + 2):
            if is_canonical_weight(label, rank, w):
                factors.append(_Factor((rs.type_label, w), 1 + len(per_root_moved_roots(rs, w)),
                                       per_root_weyl_dimension(rs, w), len(rs.positive_roots)))
    allowed, passing = set(), set()
    for k in (2, 3):
        for combo in itertools.combinations_with_replacement(factors, k):
            key = tuple(sorted(f.key for f in combo))
            if _allowed_shape(combo):
                allowed.add(key)
            if prod(f.dim for f in combo) == 2 * (1 + sum(f.cone - 1 for f in combo)):
                passing.add(key)
    tested = [tuple(sorted(zip(v.factors, v.weights))) for v in full_products]
    assert len(tested) == len(set(tested)) and set(tested) == allowed
    assert passing <= allowed
    assert (("A1", (1,)), ("A1", (2,))) in passing
    assert [key for key in passing if len(key) == 3] == [(("A1", (1,)),) * 3]


def test_the_one_triple_is_accepted(pair_scan, full_products):
    """P1 x P1 x P1, the subadjoint variety of so_8, with or without the
    extra cap."""
    for scan in (pair_scan, full_products):
        triples = [v for v in scan if len(v.factors) == 3]
        assert [(v.factors, v.weights, v.status) for v in triples] == [
            (("A1",) * 3, ((1,),) * 3, "accepted")]
        assert triples[0].dim_v == 8 and triples[0].dim_cone == 4
        assert accepted_pairs(scan) == accepted_pairs(pair_scan)


def test_spin_rep_of_so11_rejected_by_quadric_count(simple_scan):
    row = next(v for v in simple_scan if v.type_label == "B5" and v.weight == (0, 0, 0, 0, 1))
    assert row.status == "rejected"
    assert row.self_dual and row.multiplicity_free
    assert row.quadric_count == 66 and row.algebra_dim == 55
    assert "66 quadrics" in row.reason


def test_accepted_pass_angle_audit(simple_scan):
    for v in simple_scan:
        if v.status == "accepted":
            assert v.angle_audit_passed


def test_each_type_is_built_once_per_process(monkeypatch, entries, algebras):
    """One `classify` command builds each of the 31 types once for both
    scans, and the Kostant certificate gets back the same E7 object."""
    built = []
    init = rootdata.AbstractRootSystem.__init__

    def counting_init(self, label, rank):
        built.append(self)
        init(self, label, rank)

    monkeypatch.setattr(rootdata.AbstractRootSystem, "__init__", counting_init)
    build_root_system.cache_clear()
    assert cli.main(["--json", "classify", "--max-rank", "8", "--max-dim", "100"]) == 0
    assert sorted(rs.type_label for rs in built) == sorted(
        f"{label}{rank}" for label, rank in simple_types_up_to(8))
    orbits = []

    def recording_quadrics(factors):
        orbits.append(factors)
        return product_quadrics(factors)

    monkeypatch.setattr(legendrian, "product_quadrics", recording_quadrics)
    kostant_certificate(entries["e7"].presentation, algebras["e7"])
    [[e7]] = orbits
    # no new build: the certificate's E7 is the one the scan built
    assert len(built) == 31 and e7.rs is build_root_system("E", 7) and e7.rs in built


@pytest.mark.parametrize("max_dim", [None, 4, 10, 50, 100, 300])
def test_product_scan_reads_the_simple_scans_table(max_dim):
    """At every rank 1-16, the product scan gives the same verdicts on the
    simple scan's table as on the weights grown under the product caps
    max(|Phi+| + 2, 4) and max_dim // 2 alone: the table's weights above
    those caps reach no verdict."""
    for rank in range(1, 17):
        grown = []
        for label, r in simple_types_up_to(rank):
            rs = build_root_system(label, r)
            cap = max(len(rs.positive_roots) + 2, 4)
            grown += classify._canonical_weights(rs, cap if max_dim is None else min(cap, max_dim // 2))
        under_product_caps = classify.WeightTables(max_dim, tuple(grown))
        assert (enumerate_semisimple_pairs(weight_tables(rank, max_dim))
                == enumerate_semisimple_pairs(under_product_caps))


def test_classify_grows_each_type_once(monkeypatch, capsys):
    """One `classify` command grows each of the 31 types' weights once, in
    453 probes, for one call of each scan through the names `cli` imports."""
    calls = collections.defaultdict(list)
    for module, name in ((classify, "_canonical_weights"), (classify, "pairing_dimension"),
                         (cli, "enumerate_simple"), (cli, "enumerate_semisimple_pairs")):
        def recording(*args, _run=getattr(module, name), _seen=calls[name], **kwargs):
            _seen.append(args[0])
            return _run(*args, **kwargs)

        monkeypatch.setattr(module, name, recording)
    assert cli.main(["--json", "classify", "--max-rank", "8", "--max-dim", "100"]) == 0
    assert sorted(rs.type_label for rs in calls["_canonical_weights"]) == sorted(
        f"{label}{rank}" for label, rank in simple_types_up_to(8))
    assert {name: len(seen) for name, seen in calls.items()} == {
        "_canonical_weights": 31, "pairing_dimension": 453, "enumerate_simple": 1, "enumerate_semisimple_pairs": 1}


def test_product_scan_decides_each_factor_once(monkeypatch):
    """A factor recurs in many products, but one product scan decides its
    self-duality and multiplicity-freeness once; a second scan decides them
    again, so no answer outlives the call."""
    calls = {"is_self_dual": [], "distinct_weight_count": []}
    for name, seen in calls.items():
        def recording(o, _test=getattr(classify, name), _seen=seen):
            _seen.append((o.rs.type_label, o.weight))
            return _test(o)

        monkeypatch.setattr(classify, name, recording)
    first = enumerate_semisimple_pairs(weight_tables(8, 100))
    assert {name: len(seen) for name, seen in calls.items()} == {"is_self_dual": 18, "distinct_weight_count": 17}
    assert all(len(set(seen)) == len(seen) for seen in calls.values())
    assert enumerate_semisimple_pairs(weight_tables(8, 100)) == first
    assert {name: len(seen) for name, seen in calls.items()} == {"is_self_dual": 36, "distinct_weight_count": 34}


def test_pair_accepted_family(pair_scan):
    family = accepted_pairs(pair_scan)
    # sl2 (x) natural so_m: m = 3 (as A1 weight 2), 5..17 (B), 6 (A3 middle), 8..16 (D)
    expected = {("A1", "A1"): [(1,), (2,)], ("A1", "A3"): [(1,), (0, 1, 0)]}
    for rank in range(2, 9):
        expected[("A1", f"B{rank}")] = [(1,), tuple([1] + [0] * (rank - 1))]
    for rank in range(4, 9):
        expected[("A1", f"D{rank}")] = [(1,), tuple([1] + [0] * (rank - 1))]
    got = {f: [list(w[0]), tuple(w[1])] for f, w in family}
    assert set(got) == set(expected)
    for key, (wa, wb) in expected.items():
        assert got[key] == [list(wa), tuple(wb)]


def test_pair_dimension_rejection(pair_scan):
    row = next(
        v for v in pair_scan
        if v.factors == ("A1", "A1") and v.weights == ((1,), (1,))
    )
    assert row.status == "rejected"
    assert row.dim_v == 4 and row.dim_cone == 3


def test_pair_g2_vector_rejected_by_quadric_count(pair_scan):
    row = next(
        v for v in pair_scan
        if v.factors == ("A1", "G2") and v.weights == ((1,), (1, 0))
    )
    assert row.status == "rejected"
    assert "quadrics" in row.reason


@pytest.mark.slow
def test_accepted_set_stable_under_larger_dimension_cap(simple_scan):
    bigger = enumerate_simple(weight_tables(8, 300))
    assert accepted_simple(bigger) == accepted_simple(simple_scan)


def test_scan_to_dimension_1000_leaves_nothing_undecided(simple_scan):
    simple = enumerate_simple(weight_tables(8, 1000))
    pairs = enumerate_semisimple_pairs(weight_tables(8, 1000))
    assert {v.status for v in simple} | {v.status for v in pairs} == {"accepted", "rejected"}
    assert accepted_simple(simple) == accepted_simple(simple_scan)


def test_accepted_candidates_match_catalog_fixtures(simple_scan, entries, algebras):
    """Cross-module consistency: each accepted candidate corresponds to a
    catalog fixture with the same ambient dimension and identified type."""
    from legquad.liealg import identify_algebra

    fixture_of = {
        "A1": "twisted-cubic",
        "C3": "grl36",
        "A5": "gr36",
        "D6": "spinor-s6",
        "E7": "e7",
    }
    for v in simple_scan:
        if v.status != "accepted":
            continue
        entry = entries[fixture_of[v.type_label]]
        assert entry.presentation.nvars == v.dim_v
        assert identify_algebra(algebras[entry.name]) == [v.type_label]
        assert v.algebra_dim == algebras[entry.name].dim
