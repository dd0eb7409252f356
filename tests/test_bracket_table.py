"""The sparse integer bracket table of `liealg` against the dense Fraction
routes of `liealg_oracle`, on the quadric-algebra fixtures and on seeded
relabelings of them, and the centroid of the ideal splitting against
sympy's nullity of the dense commutant system."""

import random
from fractions import Fraction

import pytest

import liealg_oracle
from legquad import linalg
from legquad.liealg import (
    NotAdaptedError,
    NotClosedError,
    _centroid,
    _integer_ad,
    _sp_integer,
    cartan_subalgebra,
    close_and_present,
    decompose_ideals,
    root_decomposition,
    split_root_data,
    subalgebra_presentation,
)
from legquad.legendrian import VarietyPresentation
from legquad.poly import parse_poly
from liealg_oracle import dense
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
    return {i: Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.choice((1, 1, 2, 3)))
            for i in rng.sample(range(dim), min(dim, rng.randint(1, 4)))}


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
    """ad(u) from `_integer_ad`, applied to v, is [u, v]."""
    rng = random.Random(5)
    for label, L in all_cases:
        for _ in range(20):
            u, v = random_sparse(rng, L.dim), random_sparse(rng, L.dim)
            entries, den = _integer_ad(L, u)
            got = {}
            for (k, j), x in entries.items():
                if j in v:
                    got[k] = got.get(k, 0) + Fraction(x, den) * v[j]
            got = {k: x for k, x in got.items() if x}
            assert got == liealg_oracle.bracket_vectors(L, dense(u, L.dim), dense(v, L.dim)), label


def test_ad_matrices_of_the_torus_and_of_random_elements(all_cases):
    rng = random.Random(6)
    for label, L in all_cases:
        torus = [{i: Fraction(1)} for i in liealg_oracle.diagonal_candidates(L)]
        for vec in torus[:3] + [random_sparse(rng, L.dim)]:
            entries, den = _integer_ad(L, vec)
            assert all(x for x in entries.values()) and den > 0
            got = {kj: Fraction(x, den) for kj, x in entries.items()}
            assert got == nonzero(liealg_oracle.ad_matrix(L, dense(vec, L.dim))), label


def test_killing_form(all_cases):
    """`killing_rows` is D^2 times the trace form."""
    for label, L in all_cases:
        den2 = L.bracket_table()[1] ** 2
        got = {(i, j): Fraction(x, den2) for i, row in L.killing_rows().items() for j, x in row.items()}
        assert got == nonzero(liealg_oracle.killing_matrix(L)), label


def unit_indices(torus):
    """The basis index of each unit vector among the torus vectors."""
    return [i for v in torus for i in v if v == {i: 1}]


def test_sp_images_and_diagonal_candidates(all_cases):
    """The unit vectors of the torus are exactly the basis elements whose
    dense sp-images are diagonal, and every torus vector has a diagonal
    image."""
    for label, L in all_cases:
        images = [{pq: Fraction(x, den) for pq, x in entries.items()} for entries, den in L.sp_entries()]
        assert images == [nonzero(image) for image in liealg_oracle.sp_images(L)], label
        torus = cartan_subalgebra(L).cartan_vectors
        assert unit_indices(torus) == liealg_oracle.diagonal_candidates(L), label
        for v in torus:
            assert all(p == q for p, q in nonzero(liealg_oracle.sp_image(L, dense(v, L.dim)))), label


def test_torus_is_the_kernel_of_every_off_diagonal_entry(all_cases, recorded_entries):
    """Dropping the elements alone at an off-diagonal position first gives
    the canonical kernel of the whole system of dense sp-image entries, also
    where a system is left: the twisted cubic with h + g0 in place of h, and
    sp(4) with x0*x3 and x1*x2 only as their sum and difference."""
    cubic = recorded_entries["twisted-cubic"].presentation
    g0, g1, h = cubic.generators
    names = [f"x{i}*x{j}" if i != j else f"x{i}^2" for i in range(4) for j in range(i, 4)]
    e, f = parse_poly("x0*x3", 4), parse_poly("x1*x2", 4)
    mixed = [parse_poly(t, 4) for t in names if t not in ("x0*x3", "x1*x2")] + [e + f, e - f]
    extra = [("cubic h + g0", close_and_present([g0, g1, h + g0], cubic.form)),
             ("sp4 mixed", close_and_present(mixed, standard_form(2)))]
    for label, L in all_cases + extra:
        images = liealg_oracle.sp_images(L)
        n = L.form.dim
        rows = [{i: image[p][q] for i, image in enumerate(images) if image[p][q]}
                for p in range(n) for q in range(n) if p != q]
        assert cartan_subalgebra(L).cartan_vectors == linalg.sparse_nullspace(rows, range(L.dim)), label
    assert [dense(v, 3) for v in cartan_subalgebra(extra[0][1]).cartan_vectors] == [[-1, 0, 1]]


def test_diagonal_test_sees_a_single_off_diagonal_entry():
    """sp(4) on all ten quadrics: each square x_i^2 has exactly one
    off-diagonal sp-image entry, and only the x_i * x_{2+i} are diagonal."""
    names = [f"x{i}*x{j}" if i != j else f"x{i}^2" for i in range(4) for j in range(i, 4)]
    L = close_and_present([parse_poly(t, 4) for t in names], standard_form(2))
    torus = cartan_subalgebra(L).cartan_vectors
    assert [names[i] for i in unit_indices(torus)] == ["x0*x2", "x1*x3"] and len(torus) == 2
    assert unit_indices(torus) == liealg_oracle.diagonal_candidates(L)
    assert all(len(entries) == 1 for entries, _ in (L.sp_entries()[names.index(f"x{i}^2")] for i in range(4)))


def assert_matches_the_oracle(L, got, expected, label=None):
    """`got`'s torus and root vectors, made dense, are the oracle's, and its
    roots are the oracle's, each root coordinate t, an ad eigenvalue, times
    the denominator den_t of the sp-image of torus vector t (`_sp_integer`):
    the integer roots of the coordinate-weight scale."""
    assert [dense(h, L.dim) for h in got.cartan_vectors] == expected.cartan_vectors, label
    dens = [_sp_integer(L, h)[1] for h in got.cartan_vectors]
    assert [(root, dense(vec, L.dim)) for root, vec in got.root_spaces] == [
        (tuple(x * d for x, d in zip(root, dens)), vec) for root, vec in expected.root_spaces], label


def test_full_cartan_data(all_cases):
    for label, L in all_cases:
        try:
            expected = liealg_oracle.cartan_data(L)
        except NotAdaptedError:
            with pytest.raises(NotAdaptedError):
                split_root_data(L)
            continue
        got = split_root_data(L)
        assert_matches_the_oracle(L, got, expected, label)
        assert all(type(x) is int for root in got.roots for x in root), label


def test_mixed_basis_cartan_data_matches():
    """sp(4) on a basis where x0*x3 and x1*x2 enter only as their sum and
    difference, which are not ad-eigenvectors: the leftover split recovers
    the root vectors, as the dense route does."""
    names = [f"x{i}*x{j}" if i != j else f"x{i}^2" for i in range(4) for j in range(i, 4)]
    quadrics = [parse_poly(t, 4) for t in names if t not in ("x0*x3", "x1*x2")]
    e, f = parse_poly("x0*x3", 4), parse_poly("x1*x2", 4)
    L = close_and_present(quadrics + [e + f, e - f], standard_form(2))
    got = split_root_data(L)
    assert_matches_the_oracle(L, got, liealg_oracle.cartan_data(L))
    assert len(got.roots) == 8
    assert any(len(vec) > 1 for _, vec in got.root_spaces)


def algebra_and_ideals(algebra):
    """The algebra and every ideal `decompose_ideals` returns for it."""
    return [algebra] + [sub for _, sub in decompose_ideals(algebra)]


def dense_commutant_nullity(algebra):
    """sympy's nullity of the dense system X A = A X over the Fraction
    ad-matrices A of every basis element (`liealg_oracle.ad_matrix`): the
    unknown X[p][r] enters X A through row r of A, placed in row p, and A X
    through column p of A, placed in column r."""
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    d = algebra.dim
    rows = []
    for i in range(d):
        a = liealg_oracle.ad_matrix(algebra, liealg_oracle.unit(d, i))
        columns = []
        for p in range(d):
            for r in range(d):
                image = [[Fraction(0)] * d for _ in range(d)]
                image[p] = list(a[r])
                for k in range(d):
                    image[k][r] -= a[k][p]
                columns.append([x for line in image for x in line])
        for e in range(d * d):
            if row := {u: QQ(x.numerator, x.denominator) for u, col in enumerate(columns) if (x := col[e])}:
                rows.append(row)
    return d * d - DomainMatrix(dict(enumerate(rows)), (len(rows), d * d), QQ).rank()


@pytest.mark.parametrize("name", ("twisted-cubic", "segre-3", "segre-4", "segre-5", "segre-split-3"))
def test_certificate_holds_exactly_when_the_commutant_is_the_scalars(entries, algebras, name):
    """On the algebra and every ideal the splitting returns, and on two
    relabelings, the centroid has the dimension of sympy's kernel of the
    dense commutant system, and is the scalars on some piece."""
    pieces = algebra_and_ideals(algebras[name])
    for seed in (1, 2):
        relabeled = relabeled_algebra(entries[name].presentation, random.Random(f"{name}:{seed}"))
        pieces += algebra_and_ideals(relabeled)
    dims = set()
    for sub in pieces:
        dim = len(_centroid(sub))
        assert dim == dense_commutant_nullity(sub), name
        dims.add(dim)
    assert 1 in dims


def test_segre_4_piece_with_a_two_dimensional_commutant_splits(algebras):
    """segre-4 = A1 + A1 + A1 has three 3-dimensional ideals.  The sum of
    two of them, in the basis of the sums and differences of their basis
    vectors, has a centroid of dimension 2, so it is not claimed simple and
    `decompose_ideals` splits it into the two ideals."""
    algebra = algebras["segre-4"]
    (first, _), (second, _), _ = decompose_ideals(algebra)
    straddling = [_combination([u, v], {0: 1, 1: s}) for s in (1, -1) for u, v in zip(first, second)]
    sub = subalgebra_presentation(algebra, straddling)
    assert len(_centroid(sub)) == 2 == dense_commutant_nullity(sub)
    split = [piece for piece, _ in decompose_ideals(sub)]
    assert [len(p) for p in split] == [3, 3]
    for piece in split:
        lifted = [_combination(straddling, v) for v in piece]
        assert any(all(ideal.contains(w) for w in lifted) for ideal in (_span(first), _span(second)))


def _combination(vectors, coeffs):
    """sum_a coeffs[a] vectors[a] for sparse vectors, nonzero entries only."""
    out = {}
    for a, c in coeffs.items():
        for i, x in vectors[a].items():
            out[i] = out.get(i, 0) + c * x
    return {i: x for i, x in out.items() if x}


def _span(vectors):
    span = linalg.Echelon()
    for v in vectors:
        span.add(v)
    return span


def _root_decomposition_outcome(route, algebra):
    """The (root_spaces, weights) a root decomposition route gives over
    `cartan_subalgebra`, or the message of its NotAdaptedError."""
    try:
        cd = route(algebra, cartan_subalgebra(algebra))
    except NotAdaptedError as exc:
        return str(exc)
    return cd.root_spaces, cd.weights


def test_root_spaces_from_sp_images_match_the_quadric_terms(entries):
    """Grouping the integer sp-images by the weight w_k - w_i of entry
    (i, k) gives the root spaces and weights of grouping the quadrics' terms
    by w_p + w_q (`liealg_oracle.quadric_term_root_decomposition`): on the
    algebra of every catalog entry whose quadrics close, on each
    `decompose_ideals` piece of the semisimple ones below dimension 60 (the
    larger ones, spinor-s6 and e7, are simple: their one piece is the
    algebra), and on three seeded relabelings of each."""
    oracle = liealg_oracle.quadric_term_root_decomposition
    checked = split = 0
    for name, entry in entries.items():
        pres = entry.presentation
        quadrics = VarietyPresentation(name, pres.form, [g for g in pres.generators if g.degree() == 2])
        try:
            algebra = close_and_present(quadrics.generators, quadrics.form)
        except NotClosedError:
            continue
        cases = [algebra] + [relabeled_algebra(quadrics, random.Random(f"{name}:{seed}")) for seed in range(3)]
        if algebra.dim < 60 and algebra.is_semisimple():
            cases += [sub for _, sub in decompose_ideals(algebra)]
        for L in cases:
            found = _root_decomposition_outcome(root_decomposition, L)
            assert found == _root_decomposition_outcome(oracle, L), name
            checked += 1
            split += not isinstance(found, str)
    assert checked > 80 and split > 65
