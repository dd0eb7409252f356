import pytest

from classify_oracle import accepted_pairs, accepted_simple
from legquad import cli, legendrian, rootdata
from legquad.classify import enumerate_semisimple_pairs, enumerate_simple
from legquad.legendrian import kostant_certificate
from legquad.rootdata import build_root_system, closed_orbit_quadrics, simple_types_up_to

EXPECTED_SIMPLE = [
    ("A1", (3,)),
    ("A5", (0, 0, 1, 0, 0)),
    ("C3", (0, 0, 1)),
    ("D6", (0, 0, 0, 0, 0, 1)),
    ("E7", (0, 0, 0, 0, 0, 0, 1)),
]


@pytest.fixture(scope="module")
def simple_scan():
    return enumerate_simple(8, 100)


@pytest.fixture(scope="module")
def pair_scan():
    return enumerate_semisimple_pairs(8, 100)


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
    """k omega_1 of C_m: the projective space at k = 1 is under-dimensioned
    and every further weight overshoots, so the edge dies on the walk.  (The
    multiple-weight rejection of those weights is covered at the root-data
    level; the walk's dimension cutoff fires first here.)"""
    for m in (3, 4, 5):
        edge = [v for v in simple_scan if v.type_label == f"C{m}"
                and v.weight[0] > 0 and all(c == 0 for c in v.weight[1:])]
        assert edge
        assert all(v.status == "rejected" for v in edge)
        assert edge[0].dim_v == 2 * m and edge[0].dim_v < 2 * edge[0].dim_cone
        assert "exceeds" in edge[-1].reason


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
        return closed_orbit_quadrics(factors)

    monkeypatch.setattr(legendrian, "closed_orbit_quadrics", recording_quadrics)
    kostant_certificate(entries["e7"].presentation, algebras["e7"])
    [[(e7, _)]] = orbits
    # no new build: the certificate's E7 is the one the scan built
    assert len(built) == 31 and e7 is build_root_system("E", 7) and e7 in built


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


def test_pair_two_weight_filter():
    """No surviving pair has a first factor with three or more weights; in
    particular no A2-by-A2 candidate ever reaches the dimension test."""
    scan = enumerate_semisimple_pairs(3, 60)
    assert all(v.factors[0] == "A1" and v.weights[0] == (1,) for v in scan)
    assert not any(v.factors == ("A2", "A2") for v in scan)


@pytest.mark.slow
def test_accepted_set_stable_under_larger_dimension_cap(simple_scan):
    bigger = enumerate_simple(8, 300)
    assert accepted_simple(bigger) == accepted_simple(simple_scan)


def test_scan_to_dimension_1000_leaves_nothing_undecided(simple_scan):
    simple = enumerate_simple(8, 1000)
    pairs = enumerate_semisimple_pairs(8, 1000)
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
