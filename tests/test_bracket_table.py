"""The sparse integer bracket table of `liealg` against the dense Fraction
routes of `liealg_oracle`, on the quadric-algebra fixtures and on seeded
relabelings of them, and the mod-p simplicity certificate of the ideal
splitting against the exact commutant."""

import random
from fractions import Fraction

import pytest

import liealg_oracle
from legquad import liealg, linalg
from legquad.liealg import (
    NotAdaptedError,
    _commutant_rows,
    _diagonal_torus,
    _integer_ad,
    _integral_vector,
    _matrix_commutant,
    _scalars_only_mod_p,
    _split_commutant,
    close_and_present,
    decompose_ideals,
    split_root_data,
    subalgebra_presentation,
)
from legquad.poly import parse_poly
from legquad.symplectic import standard_form
from test_kostant import _relabeled

FIXTURES = ("twisted-cubic", "segre-3", "segre-4", "segre-5", "segre-split-3",
            "gr36", "grl36", "spinor-s6", "e7")
RELABELED = ("twisted-cubic", "segre-3", "segre-4", "segre-5", "segre-split-3", "gr36", "grl36")


def relabeled_algebra(pres, rng):
    """The quadric algebra of an all-quadric presentation after
    `test_kostant._relabeled`: a seeded variable permutation (form and dual
    carried along), generator scalings by +-1, +-2, +-3 and a shuffled
    generator order."""
    relabeled = _relabeled(pres, rng)
    return close_and_present(relabeled.generators, relabeled.form)


@pytest.fixture(scope="module")
def all_cases(entries, algebras):
    """(label, algebra) for the nine fixtures and two relabelings of each
    of the seven smaller ones."""
    out = [(name, algebras[name]) for name in FIXTURES]
    for name in RELABELED:
        for seed in (1, 2):
            rng = random.Random(f"{name}:{seed}")
            out.append((f"{name}/{seed}", relabeled_algebra(entries[name].presentation, rng)))
    return out


def nonzero(matrix):
    """The nonzero entries of a dense matrix, (row, column) -> value."""
    return {(i, j): x for i, row in enumerate(matrix) for j, x in enumerate(row) if x}


def random_sparse(rng, dim):
    vec = [0] * dim
    for i in rng.sample(range(dim), min(dim, rng.randint(1, 4))):
        vec[i] = Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.choice((1, 1, 2, 3)))
    return vec


def test_relabelings_have_denominators(all_cases):
    """Some relabeled tables need a common denominator D > 1, so the tests
    below see the scaling by D and by D^2."""
    dens = [L.bracket_table()[1] for _, L in all_cases]
    assert sum(d > 1 for d in dens) >= 10 and 6 in dens


def test_table_lists_each_bracket_and_its_antisymmetric_twin(all_cases):
    for label, L in all_cases:
        table, den = L.bracket_table()
        for i in range(L.dim):
            for j in range(L.dim):
                expected = liealg_oracle.bracket_coeffs(L, i, j)
                got = {k: Fraction(n, den) for k, n in table[i].get(j, [])}
                assert got == expected, (label, i, j)


def test_brackets_of_random_sparse_vectors(all_cases):
    """`bracket_ints` of the integer vectors du * u and dv * v is
    D * du * dv * [u, v]."""
    rng = random.Random(5)
    for label, L in all_cases:
        den = L.bracket_table()[1]
        for _ in range(20):
            u, v = random_sparse(rng, L.dim), random_sparse(rng, L.dim)
            (iu, du), (iv, dv) = _integral_vector(u), _integral_vector(v)
            got = {k: Fraction(x, den * du * dv) for k, x in L.bracket_ints(iu, iv).items()}
            assert got == liealg_oracle.bracket_vectors(L, u, v), label


def test_ad_matrices_of_the_torus_and_of_random_elements(all_cases):
    rng = random.Random(6)
    for label, L in all_cases:
        torus = [liealg_oracle.unit(L.dim, i) for i in liealg_oracle.diagonal_candidates(L)]
        for vec in torus[:3] + [random_sparse(rng, L.dim)]:
            entries, den = _integer_ad(L, vec)
            assert all(x for x in entries.values()) and den > 0
            got = {kj: Fraction(x, den) for kj, x in entries.items()}
            assert got == nonzero(liealg_oracle.ad_matrix(L, vec)), label


def test_killing_form(all_cases):
    """`killing_rows` is D^2 times the trace form."""
    for label, L in all_cases:
        den2 = L.bracket_table()[1] ** 2
        got = {(i, j): Fraction(x, den2) for i, row in L.killing_rows().items() for j, x in row.items()}
        assert got == nonzero(liealg_oracle.killing_matrix(L)), label


def unit_indices(torus):
    """The basis index of each unit vector among the torus vectors."""
    return [v.index(1) for v in torus if [x for x in v if x] == [1]]


def test_sp_images_and_diagonal_candidates(all_cases):
    """The unit vectors of the torus are exactly the basis elements whose
    dense sp-images are diagonal, and every torus vector has a diagonal
    image."""
    for label, L in all_cases:
        images = [{pq: Fraction(x, den) for pq, x in entries.items()} for entries, den in L.sp_entries()]
        assert images == [nonzero(image) for image in liealg_oracle.sp_images(L)], label
        torus = _diagonal_torus(L)
        assert unit_indices(torus) == liealg_oracle.diagonal_candidates(L), label
        for v in torus:
            assert all(p == q for p, q in nonzero(liealg_oracle.sp_image(L, v))), label


def test_torus_is_the_kernel_of_every_off_diagonal_entry(all_cases, entries):
    """Dropping the elements alone at an off-diagonal position first gives
    the canonical kernel of the whole system of dense sp-image entries, also
    where a system is left: the twisted cubic with h + g0 in place of h, and
    sp(4) with x0*x3 and x1*x2 only as their sum and difference."""
    g0, g1, h = entries["twisted-cubic"].presentation.generators
    names = [f"x{i}*x{j}" if i != j else f"x{i}^2" for i in range(4) for j in range(i, 4)]
    e, f = parse_poly("x0*x3", 4), parse_poly("x1*x2", 4)
    mixed = [parse_poly(t, 4) for t in names if t not in ("x0*x3", "x1*x2")] + [e + f, e - f]
    extra = [("cubic h + g0", close_and_present([g0, g1, h + g0], entries["twisted-cubic"].presentation.form)),
             ("sp4 mixed", close_and_present(mixed, standard_form(2)))]
    for label, L in all_cases + extra:
        images = liealg_oracle.sp_images(L)
        n = L.form.dim
        rows = [{i: image[p][q] for i, image in enumerate(images) if image[p][q]}
                for p in range(n) for q in range(n) if p != q]
        assert _diagonal_torus(L) == linalg.sparse_nullspace(rows, L.dim), label
    assert [[int(x) for x in v] for v in _diagonal_torus(extra[0][1])] == [[-1, 0, 1]]


def test_diagonal_test_sees_a_single_off_diagonal_entry():
    """sp(4) on all ten quadrics: each square x_i^2 has exactly one
    off-diagonal sp-image entry, and only the x_i * x_{2+i} are diagonal."""
    names = [f"x{i}*x{j}" if i != j else f"x{i}^2" for i in range(4) for j in range(i, 4)]
    L = close_and_present([parse_poly(t, 4) for t in names], standard_form(2))
    torus = _diagonal_torus(L)
    assert [names[i] for i in unit_indices(torus)] == ["x0*x2", "x1*x3"] and len(torus) == 2
    assert unit_indices(torus) == liealg_oracle.diagonal_candidates(L)
    assert all(len(entries) == 1 for entries, _ in (L.sp_entries()[names.index(f"x{i}^2")] for i in range(4)))


def test_full_cartan_data(all_cases):
    for label, L in all_cases:
        try:
            expected = liealg_oracle.cartan_data(L)
        except NotAdaptedError:
            with pytest.raises(NotAdaptedError):
                split_root_data(L)
            continue
        got = split_root_data(L)
        assert got.cartan_vectors == expected.cartan_vectors, label
        assert got.root_spaces == expected.root_spaces, label


def test_mixed_basis_cartan_data_matches():
    """sp(4) on a basis where x0*x3 and x1*x2 enter only as their sum and
    difference, which are not ad-eigenvectors: the leftover split recovers
    the root vectors, as the dense route does."""
    names = [f"x{i}*x{j}" if i != j else f"x{i}^2" for i in range(4) for j in range(i, 4)]
    quadrics = [parse_poly(t, 4) for t in names if t not in ("x0*x3", "x1*x2")]
    e, f = parse_poly("x0*x3", 4), parse_poly("x1*x2", 4)
    L = close_and_present(quadrics + [e + f, e - f], standard_form(2))
    got = split_root_data(L)
    assert got.root_spaces == liealg_oracle.cartan_data(L).root_spaces
    assert len(got.roots) == 8
    assert any(sum(1 for x in vec if x) > 1 for _, vec in got.root_spaces)


def visited_pieces(algebra, monkeypatch):
    """Every presentation `decompose_ideals` tries to split."""
    seen = []
    original = liealg._split_seed

    def recording(sub):
        seen.append(sub)
        return original(sub)

    monkeypatch.setattr(liealg, "_split_seed", recording)
    decompose_ideals(algebra)
    monkeypatch.undo()
    return seen


def generic_rows(algebra):
    d = algebra.dim
    elements = [[(s + 1) * (i + 2) % 7 + 1 for i in range(d)] for s in range(2)]
    return _commutant_rows([_integer_ad(algebra, x)[0] for x in elements], d)


@pytest.mark.parametrize("name", ("twisted-cubic", "segre-3", "segre-4", "segre-5", "segre-split-3"))
def test_certificate_holds_exactly_when_the_commutant_is_the_scalars(entries, algebras, monkeypatch, name):
    """On every piece the splitting visits, and on two relabelings, the
    commutant system has a kernel of dimension 1 modulo the prime exactly
    when the exact kernel is one vector."""
    algebra = algebras[name]
    pieces = visited_pieces(algebra, monkeypatch)
    for seed in (1, 2):
        relabeled = relabeled_algebra(entries[name].presentation, random.Random(f"{name}:{seed}"))
        pieces += visited_pieces(relabeled, monkeypatch)
    outcomes = set()
    for sub in pieces:
        rows = generic_rows(sub)
        certified = _scalars_only_mod_p(rows, sub.dim)
        assert certified == (len(_matrix_commutant(rows, sub.dim)) == 1), name
        outcomes.add(certified)
    assert True in outcomes


def test_segre_4_piece_with_a_two_dimensional_commutant_splits(algebras):
    """segre-4 = A1 + A1 + A1 splits first into a 3-dimensional and a
    6-dimensional ideal; the latter has a commutant of dimension 2, so the
    certificate must not claim it simple and the exact route splits it."""
    algebra = algebras["segre-4"]
    pieces = liealg._split_seed(algebra) or _split_commutant(algebra)
    six = [p for p in pieces if len(p) == 6]
    assert len(six) == 1
    sub = subalgebra_presentation(algebra, six[0])
    rows = generic_rows(sub)
    assert not _scalars_only_mod_p(rows, 6)
    assert len(_matrix_commutant(rows, 6)) == 2
    assert liealg._split_seed(sub) is None
    split = _split_commutant(sub)
    assert split is not None and sorted(len(p) for p in split) == [3, 3]


def test_certificate_proves_the_simple_pieces_simple(algebras, monkeypatch):
    """The simple pieces of segre-5 (A1 and B2) are certified, so their
    splitting never runs the exact commutant elimination."""
    calls = []
    original = liealg._matrix_commutant

    def counted(rows, d):
        calls.append(d)
        return original(rows, d)

    monkeypatch.setattr(liealg, "_matrix_commutant", counted)
    assert len(decompose_ideals(algebras["segre-5"])) == 2
    assert 10 not in calls and 3 not in calls
