import random
import traceback
from fractions import Fraction

import pytest

import liealg_oracle
from legquad import catalog
from legquad.liealg import (
    CartanData,
    LieAlgebraPresentation,
    NotAdaptedError,
    NotClosedError,
    _integer_ad,
    _rational_eigenvalues,
    _rational_roots,
    _type_of_dimension,
    cartan_subalgebra,
    close_and_present,
    decompose_ideals,
    identify_algebra,
    identify_type,
    root_decomposition,
    split_root_data,
    subalgebra_presentation,
)
from legquad.poly import Polynomial, parse_poly
from legquad.rootdata import build_root_system, match_cartan, simple_types_up_to, type_key
from legquad.symplectic import SymplecticForm, standard_form

from liealg_oracle import block_view, dense, exp_nilpotent_action, exp_orbit_points, quadratic_part, verify_jacobi
from linalg_oracle import det, identity, mat_eq_zero, mat_mul, mat_scale, rref, zeros
from poly_oracle import evaluate
from symplectic_oracle import QuadraticForm, quadric_to_sp
from test_kostant import _sheared


def _recorded_algebra(recorded_entries, name):
    """The quadric algebra of an entry in the coordinates of `recorded_entries`."""
    pres = recorded_entries[name].presentation
    return close_and_present(pres.generators, pres.form)


def test_twisted_cubic_structure_constants(recorded_entries):
    L = _recorded_algebra(recorded_entries, "twisted-cubic")
    # basis order: f+, f-, h
    assert L.dim == 3
    assert liealg_oracle.bracket_coeffs(L, 0, 1) == {2: 1}     # [f+, f-] = h
    assert liealg_oracle.bracket_coeffs(L, 2, 0) == {0: 2}     # [h, f+] = 2 f+
    assert liealg_oracle.bracket_coeffs(L, 2, 1) == {1: -2}    # [h, f-] = -2 f-
    assert verify_jacobi(L)
    assert L.is_semisimple()


def test_quadratic_part_extraction(entries):
    tc = entries["twisted-cubic"].presentation
    assert len(quadratic_part(tc.generators, 4)) == 3
    gr = entries["gr36"].presentation
    assert len(quadratic_part(gr.generators, 20)) == 35
    linear = entries["linear-lagrangian"].presentation
    assert quadratic_part(linear.generators, 4) == []
    ci = entries["complete-intersection"].presentation
    assert len(quadratic_part(ci.generators, 6)) == 2    # the cubic is dropped


def test_close_and_present_rejects_open_span():
    form = standard_form(2)
    with pytest.raises(NotClosedError) as err:
        close_and_present([parse_poly("x0^2", 4), parse_poly("x2^2", 4)], form)
    assert err.value.pair == (0, 1)


def test_close_and_present_takes_the_span_of_dependent_input():
    form = standard_form(2)
    quadrics = [parse_poly(t, 4) for t in ("x0^2", "2*x0^2", "x0*x2", "x0^2 + x0*x2", "x2^2")]
    L = close_and_present(quadrics, form)
    assert L.basis == [quadrics[0], quadrics[2], quadrics[4]]
    assert L.structure == liealg_oracle.structure_constants(L.basis, form)
    with pytest.raises(NotClosedError) as err:
        close_and_present(quadrics[:2] + [parse_poly("x1*x2", 4)], form)
    assert err.value.pairs == [(0, 2), (1, 2)]
    # D is read off the brackets of basis elements alone: counting the
    # dependent 1/3 x0 x2 as well would give D = 3 where the basis gives 1
    quadrics = [parse_poly(t, 4) for t in ("x0^2", "x0*x2", "1/3*x0*x2", "x2^2")]
    L = close_and_present(quadrics, form)
    assert L.basis == [quadrics[0], quadrics[1], quadrics[3]]
    assert L.bracket_table() == close_and_present(L.basis, form).bracket_table()
    assert L.bracket_table()[1] == 1


def test_single_quadric_is_abelian():
    form = standard_form(1)
    L = close_and_present([parse_poly("x0*x1", 2)], form)
    assert L.dim == 1 and not L.structure
    assert not L.is_semisimple()


def test_segre_algebra_dimensions(algebras):
    assert algebras["segre-3"].dim == 6
    assert algebras["segre-4"].dim == 9
    assert algebras["segre-5"].dim == 13
    for name in ("segre-3", "segre-4", "segre-5"):
        assert algebras[name].is_semisimple()
        assert verify_jacobi(algebras[name])


def test_segre_bracket_relations(entries):
    """The eight relation families of the line-times-quadric ideal."""
    for n in (4, 5):
        pres = entries[f"segre-{n}"].presentation
        gens = pres.generators
        form = pres.form
        from legquad.symplectic import poisson_bracket

        def f(i, j):
            if i < j:
                k = 0
                for a in range(n):
                    for b in range(a + 1, n):
                        if (a, b) == (i, j):
                            return gens[k]
                        k += 1
            return -f(j, i)

        n_f = n * (n - 1) // 2
        g_plus, g_minus, h = gens[n_f], gens[n_f + 1], gens[n_f + 2]
        # (i): the bracket of two chained f's is the third one with the
        # chain orientation reversed for these generators and this form
        assert poisson_bracket(f(0, 1), f(1, 2), form) == f(2, 0)
        # (ii)
        if n >= 4:
            assert poisson_bracket(f(0, 1), f(2, 3), form).is_zero()
        # (iii)-(v)
        assert poisson_bracket(f(0, 1), g_plus, form).is_zero()
        assert poisson_bracket(f(0, 1), g_minus, form).is_zero()
        assert poisson_bracket(f(0, 1), h, form).is_zero()
        # (vi)-(viii)
        assert poisson_bracket(g_plus, g_minus, form) == h
        assert poisson_bracket(h, g_minus, form) == g_minus.scale(-2)
        assert poisson_bracket(h, g_plus, form) == g_plus.scale(2)


def test_cartan_subalgebras(algebras, recorded_entries):
    cd = cartan_subalgebra(_recorded_algebra(recorded_entries, "twisted-cubic"))
    assert [dense(h, 3) for h in cd.cartan_vectors] == [[0, 0, 1]]     # h is the third generator
    # the last five transcribed Pluecker quadrics span the torus
    gr = recorded_entries["gr36"].presentation
    cd = cartan_subalgebra(close_and_present(gr.generators, gr.form))
    assert [dense(h, 35) for h in cd.cartan_vectors] == [[int(i == k) for i in range(35)] for k in range(30, 35)]
    cd = cartan_subalgebra(algebras["grl36"])
    assert cd.rank == 3
    cd = cartan_subalgebra(algebras["segre-split-3"])
    assert cd.rank == 2


def test_root_decompositions(algebras):
    full = root_decomposition(algebras["twisted-cubic"], cartan_subalgebra(algebras["twisted-cubic"]))
    assert sorted(r[0] for r in full.roots) == [-2, 2]
    gr = algebras["gr36"]
    full = root_decomposition(gr, cartan_subalgebra(gr))
    assert len(full.roots) == 30
    assert len(full.roots) + 5 == gr.dim
    grl = algebras["grl36"]
    full = root_decomposition(grl, cartan_subalgebra(grl))
    assert len(full.roots) == 18
    spin = algebras["spinor-s6"]
    full = root_decomposition(spin, cartan_subalgebra(spin))
    assert len(full.roots) == 60


def test_roots_come_in_opposite_pairs(algebras):
    for name in ("twisted-cubic", "gr36", "grl36"):
        L = algebras[name]
        full = root_decomposition(L, cartan_subalgebra(L))
        roots = [tuple(r) for r in full.roots]
        for r in roots:
            assert tuple(-x for x in r) in roots
        assert len(set(roots)) == len(roots)    # one-dimensional root spaces


def test_identify_types(algebras):
    assert identify_type(root_decomposition(algebras["twisted-cubic"], cartan_subalgebra(algebras["twisted-cubic"]))) == ["A1"]
    assert identify_algebra(algebras["twisted-cubic"]) == ["A1"]
    assert identify_algebra(algebras["segre-3"]) == ["A1", "A1"]
    assert identify_algebra(algebras["segre-split-3"]) == ["A1", "A1"]
    assert identify_algebra(algebras["gr36"]) == ["A5"]
    assert identify_algebra(algebras["grl36"]) == ["C3"]
    assert identify_algebra(algebras["spinor-s6"]) == ["D6"]


def test_identify_segre_4_and_5(algebras):
    assert identify_algebra(algebras["segre-4"]) == ["A1", "A1", "A1"]
    assert identify_algebra(algebras["segre-5"]) == ["A1", "B2"]


def test_ideal_decomposition(algebras):
    pieces = decompose_ideals(algebras["segre-3"])
    assert sorted(len(p) for p, _ in pieces) == [3, 3]
    pieces = decompose_ideals(algebras["segre-4"])
    assert sorted(len(p) for p, _ in pieces) == [3, 3, 3]
    for piece, sub in pieces:
        assert sub.dim == 3 and sub.is_semisimple()
        assert sub.basis == subalgebra_presentation(algebras["segre-4"], piece).basis


@pytest.mark.parametrize("name", catalog.entry_names())
def test_structure_constants_match_the_fraction_route(entries, algebras, name):
    """Integer brackets on packed monomials, scaled once per constant,
    against Fraction brackets on exponent tuples with no rescaling."""
    pres = entries[name].presentation
    algebra = algebras.get(name) or close_and_present(
        [g for g in pres.generators if g.homogeneous_degree() == 2], pres.form
    )
    assert algebra.structure == liealg_oracle.structure_constants(algebra.basis, pres.form)


@pytest.mark.parametrize("name", ("twisted-cubic", "segre-split-3", "grl36"))
def test_structure_constants_with_denominators_match_the_fraction_route(entries, name):
    """Quadrics with denominators under a dual scaled by 1/3: each constant
    is scaled by the three denominators of its bracket."""
    pres = entries[name].presentation
    third = mat_scale(pres.form.dual_matrix, Fraction(1, 3))
    form = SymplecticForm(pres.form.matrix, dual_matrix=third)
    quadrics = [
        g.scale(Fraction(k % 5 + 1, k % 3 + 2))
        for k, g in enumerate(g for g in pres.generators if g.homogeneous_degree() == 2)
    ]
    algebra = close_and_present(quadrics, form)
    assert algebra.structure == liealg_oracle.structure_constants(quadrics, form)


@pytest.mark.parametrize("name", ("twisted-cubic", "segre-3", "segre-4", "segre-5",
                                  "segre-split-3", "segre-split-4", "segre-split-5"))
def test_ideal_structure_constants_match_the_fraction_route(entries, name):
    pres = entries[name].presentation
    algebra = close_and_present([g for g in pres.generators if g.homogeneous_degree() == 2], pres.form)
    for _, sub in decompose_ideals(algebra):
        assert sub.structure == liealg_oracle.structure_constants(sub.basis, sub.form)


def test_killing_form_counts(algebras):
    for name, rank, dim in (("twisted-cubic", 1, 3), ("grl36", 3, 21), ("gr36", 5, 35)):
        L = algebras[name]
        cd = cartan_subalgebra(L)
        full = root_decomposition(L, cd)
        assert cd.rank == rank
        assert len(full.roots) + rank == dim
        torus_form = [[sum(r[a] * r[b] for r in full.roots) for b in range(rank)] for a in range(rank)]
        assert det(torus_form) != 0


def test_exp_nilpotent_examples(recorded_entries):
    # zero matrix: identity action
    v = exp_nilpotent_action(zeros(4, 4), [1, 2, 3, 4])
    assert v == [1, 2, 3, 4]
    # twisted cubic: exponentiating the lowering quadric sweeps the curve
    tc = recorded_entries["twisted-cubic"]
    f_minus = tc.presentation.generators[1]
    rho = quadric_to_sp(QuadraticForm.from_polynomial(f_minus), tc.presentation.form)
    pt = exp_nilpotent_action(rho.matrix, tc.base_point)
    assert pt == [1, -1, 1, -1]
    for g in tc.presentation.generators:
        assert evaluate(g, pt) == 0
    with pytest.raises(ValueError):
        exp_nilpotent_action(identity(4), [1, 0, 0, 0])


def test_exp_orbit_stays_on_varieties(entries, algebras):
    for name in ("twisted-cubic", "segre-split-3", "gr36"):
        entry = entries[name]
        L = algebras[name]
        full = root_decomposition(L, cartan_subalgebra(L))
        points = exp_orbit_points(L, full, entry.base_point, count=10, seed=3)
        for pt in points:
            for g in entry.presentation.generators:
                assert evaluate(g, pt) == 0, name


def test_exp_preserves_non_quadric_generators(entries):
    """The quadric algebra of the degree-3 chart fixture is not semisimple,
    but its nilpotent elements still exponentiate to automorphisms of the
    whole variety, cubic equations included."""
    entry = entries["xf-cubic-3"]
    pres = entry.presentation
    quadrics = [g for g in pres.generators if g.homogeneous_degree() == 2]
    algebra = close_and_present(quadrics, pres.form)
    assert algebra.dim == 3 and not algebra.is_semisimple()
    assert det(liealg_oracle.killing_matrix(algebra)) == 0
    moved = 0
    for image in liealg_oracle.sp_images(algebra):
        power = image
        for _ in range(pres.nvars):
            power = mat_mul(power, image)
        if not mat_eq_zero(power):
            continue
        point = exp_nilpotent_action(image, entry.base_point)
        assert point != entry.base_point
        for g in pres.generators:
            assert evaluate(g, point) == 0
        moved += 1
    assert moved == 2


def test_block_view_shapes(algebras, entries):
    # rho(h) of the line-times-quadric fixture is diagonal with lam0 = 1
    seg = entries["segre-3"].presentation
    h = seg.generators[-1]
    rho = quadric_to_sp(QuadraticForm.from_polynomial(h), seg.form)
    bv = block_view(rho.matrix, 3)
    assert bv.lam0 == 1
    assert all(x == 0 for x in bv.a1) and all(x == 0 for x in bv.a2)
    assert bv.vanishes_at_base_point()
    zero = block_view(zeros(8, 8), 4)
    assert zero.lam0 == 0 and mat_eq_zero(zero.A)
    with pytest.raises(ValueError):
        block_view(identity(4), 2)


def test_block_constraints_for_adapted_fixtures(recorded_entries):
    """Algebras of varieties through the first basis vector: every element's
    block view has mu = 0, b = 0, nu = 0, and (lam0, a1) fills n dimensions.
    The block layout needs the standard form, which grl36 and the
    transcribed e7 carry; the twisted cubic's form is not standard."""
    for name in ("grl36", "e7"):
        L = _recorded_algebra(recorded_entries, name)
        n = L.form.dim // 2
        rows = []
        for image in liealg_oracle.sp_images(L):
            bv = block_view(image, n)
            assert bv.vanishes_at_base_point(), name
            rows.append([bv.lam0] + [x for x in bv.a1])
        assert len(rref(rows)[1]) == n, name


def test_jacobi_on_structure_constants(algebras):
    assert verify_jacobi(algebras["grl36"], max_triples=400)
    assert verify_jacobi(algebras["gr36"], max_triples=400)
    assert verify_jacobi(algebras["spinor-s6"], max_triples=200)
    assert verify_jacobi(algebras["e7"], max_triples=100)


def test_root_decomposition_handles_mixed_bases(recorded_entries):
    """A basis whose elements are not ad-eigenvectors still decomposes: the
    eigenvectors are recovered inside the leftover span."""
    cubic = recorded_entries["twisted-cubic"].presentation
    f_plus, f_minus, h = cubic.generators
    mixed = [f_plus + f_minus, f_plus - f_minus, h]
    L = close_and_present(mixed, cubic.form)
    cd = cartan_subalgebra(L)
    assert [dense(h, 3) for h in cd.cartan_vectors] == [[0, 0, 1]]
    full = root_decomposition(L, cd)
    assert sorted(r[0] for r in full.roots) == [-2, 2]
    assert identify_type(full) == ["A1"]


def _so_quadrics(n, pairs, offset=0, weights=None):
    """The quadrics w_i x_i y_j - w_j x_j y_i, i < j, on the coordinates
    x_(offset + i) of `pairs` canonical pairs (y_k = x_(pairs + k)): they
    span so(n) of w_0 x_0^2 + ... + w_(n-1) x_(n-1)^2, all w_i = 1 by
    default."""
    w = [f"{c}*" if c != 1 else "" for c in weights or [1] * n]
    return [parse_poly(f"{w[i]}x{offset + i}*x{pairs + offset + j} - {w[j]}x{offset + j}*x{pairs + offset + i}",
                       2 * pairs) for i in range(n) for j in range(i + 1, n)]


def _anisotropic_so(n, weights=None):
    """so(n) of the sum of squares x_0^2 + ... + x_(n-1)^2, or of the
    weighted sum: it has no split torus over Q."""
    return close_and_present(_so_quadrics(n, n, weights=weights), standard_form(n))


def test_anisotropic_factor_reports_not_adapted():
    """The orthogonal algebra of a sum of squares has no rational root
    decomposition; the error contract says so instead of guessing."""
    L = _anisotropic_so(3)
    assert L.is_semisimple()
    # no torus splits it (see the next test); the top-level identification
    # still answers through the fallback
    assert identify_algebra(L) == ["A1"]


@pytest.mark.parametrize("name", ["segre-3", "segre-5", "sheared-twisted-cubic", "so3", "so9"])
def test_no_torus_with_diagonal_sp_images_is_not_adapted(entries, algebras, name):
    """The torus with diagonal sp-images is the only one: where it is not
    self-centralizing, the root decomposition raises instead of searching
    further."""
    if name.startswith("so"):
        L = _anisotropic_so(int(name[2:]))
    elif name.startswith("sheared"):
        pres = _sheared(entries["twisted-cubic"].presentation, 0, 1)
        L = close_and_present(pres.generators, pres.form)
    else:
        L = algebras[name]
    with pytest.raises(NotAdaptedError, match="^no self-centralizing torus with diagonal sp-images$"):
        split_root_data(L)


def test_a_cached_failure_raises_afresh(entries):
    """Each call that fails raises a new NotAdaptedError with the cached
    message, so no traceback grows from call to call."""
    pres = entries["segre-3"].presentation
    L = close_and_present(pres.generators, pres.form)
    errors = []
    for _ in range(2):
        with pytest.raises(NotAdaptedError) as err:
            split_root_data(L)
        errors.append(err.value)
    first, second = errors
    assert first is not second and str(first) == str(second)
    assert len(traceback.extract_tb(first.__traceback__)) == len(traceback.extract_tb(second.__traceback__))


def test_root_decomposition_needs_diagonal_sp_images(entries):
    """The root spaces are read off the coordinate weights, so a torus
    whose sp-images are not diagonal is refused: in the sheared twisted
    cubic, h still spans a Cartan subalgebra, but y_0 = x_0 + x_1 mixes two
    of its weights."""
    pres = _sheared(entries["twisted-cubic"].presentation, 0, 1)
    L = close_and_present(pres.generators, pres.form)
    with pytest.raises(NotAdaptedError, match="^a torus vector's sp-image is not diagonal$"):
        root_decomposition(L, CartanData([{2: Fraction(1)}]))


def test_anisotropic_so9_names_both_candidates():
    """so(9) of a sum of squares is simple of dimension 36 and rank 4, which
    B4 and C4 share, so identification names both instead of guessing."""
    with pytest.raises(NotAdaptedError, match="B4, C4$"):
        identify_algebra(_anisotropic_so(9))


def test_anisotropic_so8_is_proved_simple():
    """so(8) of a sum of squares, 28-dimensional, is proved absolutely
    simple by its centroid and named by its dimension and rank."""
    assert identify_algebra(_anisotropic_so(8)) == ["D4"]


def test_straddling_basis_of_two_isomorphic_factors_splits():
    """so(7) + so(7) on two disjoint sets of coordinates, in the basis of
    the sums and differences a_k + b_k, a_k - b_k of matching elements: no
    basis element lies in a factor, and the centroid splits it."""
    a, b = _so_quadrics(7, 14), _so_quadrics(7, 14, offset=7)
    L = close_and_present([x + y for x, y in zip(a, b)] + [x - y for x, y in zip(a, b)], standard_form(14))
    assert [len(p) for p, _ in decompose_ideals(L)] == [21, 21]


def krylov_hiding_basis():
    """Anisotropic so(3) + so(3), the factors a and c on the standard form
    with n = 6, in the basis a0 + 2 c0, a1 - c0, a2, c1, c2 and
    a0 - (4 c1 + 5 c2) / 6, in which sum_k k b_k = 7 a0 + 2 a1 + 3 a2 lies
    in the first factor: powers of a centroid element applied to the vector
    (1, 2, ..., 6) never see the second factor's eigenvalue."""
    a, c = _so_quadrics(3, 6), _so_quadrics(3, 6, offset=3)
    return [a[0] + c[0].scale(2), a[1] - c[0], a[2], c[1], c[2],
            a[0] - (c[1].scale(4) + c[2].scale(5)).scale(Fraction(1, 6))]


def test_centroid_eigenvalues_come_from_the_whole_minimal_polynomial():
    """Each centroid element's eigenvalues are the roots of its own minimal
    polynomial, so a basis that hides one factor from a fixed start vector
    still splits into its two ideals."""
    basis = krylov_hiding_basis()
    L = close_and_present(basis, standard_form(6))
    assert L.basis == basis and L.is_semisimple()
    assert [len(p) for p, _ in decompose_ideals(L)] == [3, 3]
    assert identify_algebra(L) == ["A1", "A1"]


def test_vectors_over_the_basis_are_sparse(entries, algebras):
    """Every torus and root vector of `CartanData` and every ideal basis
    vector of `decompose_ideals` maps basis indices below dim to nonzero
    Fractions."""
    cubic = entries["twisted-cubic"].presentation
    f_plus, f_minus, h = cubic.generators
    cases = [algebras[name] for name in ("twisted-cubic", "segre-3", "segre-4", "segre-split-3", "grl36")]
    cases += [close_and_present([f_plus + f_minus, f_plus - f_minus, h], cubic.form),
              close_and_present(krylov_hiding_basis(), standard_form(6))]
    for L in cases:
        vectors = [v for basis, _ in decompose_ideals(L) for v in basis]
        try:
            cd = split_root_data(L)
            vectors += cd.cartan_vectors + [v for _, v in cd.root_spaces]
        except NotAdaptedError:
            pass
        for v in vectors:
            assert v and all(type(i) is int and 0 <= i < L.dim for i in v)
            assert all(type(x) is Fraction and x for x in v.values())


def test_simple_factor_with_a_larger_centroid_is_not_adapted():
    """so(4) of x0^2 + x1^2 + x2^2 + 2 x3^2 is simple over Q, but its
    centroid is Q(sqrt 2), of dimension 2: it is not absolutely simple, so
    it is refused instead of named by its dimension and rank."""
    L = _anisotropic_so(4, weights=[1, 1, 1, 2])
    assert L.is_semisimple()
    with pytest.raises(NotAdaptedError, match="centroid of dimension 2 "):
        decompose_ideals(L)
    with pytest.raises(NotAdaptedError, match="centroid of dimension 2 "):
        identify_algebra(L)


def test_ideals_with_a_larger_centroid_are_not_adapted():
    """so(3) of x0^2 + x1^2 + x2^2 plus so(4) of x3^2 + x4^2 + x5^2 + 2 x6^2:
    the centroid Q + Q(sqrt 2) has dimension 3, and no element of it has 3
    rational eigenvalues, so the whole algebra is refused, named by its
    centroid's dimension."""
    L = close_and_present(_so_quadrics(3, 7) + _so_quadrics(4, 7, offset=3, weights=[1, 1, 1, 2]), standard_form(7))
    assert L.dim == 9 and L.is_semisimple()
    message = "an algebra of dimension 9 has a centroid of dimension 3 that no rational eigenspace splits into 3 ideals"
    with pytest.raises(NotAdaptedError, match=f"^{message}$"):
        decompose_ideals(L)
    with pytest.raises(NotAdaptedError, match=f"^{message}$"):
        identify_algebra(L)


def test_the_centroid_search_goes_past_t_2(monkeypatch):
    """so(3) + so(3) + so(3) of sums of squares on disjoint coordinates, in
    seeded integer 3 x 3 basis changes of the factors: each splits into its
    three 3-dimensional ideals.  Some changes need c_3, as c_1 and c_2 have
    2 rational eigenvalues there, and the search reads c_1, c_2, c_3."""
    from legquad import liealg

    factors = [_so_quadrics(3, 9, offset=3 * j) for j in range(3)]
    counts = []
    original = liealg._rational_eigenvalues

    def counted(x, d):
        eigenvalues = original(x, d)
        counts.append(len(eigenvalues or ()))
        return eigenvalues

    monkeypatch.setattr(liealg, "_rational_eigenvalues", counted)
    rng = random.Random(0)
    searches = []
    while len(searches) < 60:
        rows = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
        if not det(rows):
            continue
        basis = [sum((f[k].scale(c) for c, f in zip(row, factors)), Polynomial.zero(18))
                 for row in rows for k in range(3)]
        L = close_and_present(basis, standard_form(9))
        counts.clear()
        ideals = decompose_ideals(L)
        assert [len(vectors) for vectors, _ in ideals] == [3, 3, 3], rows
        assert all(sub.dim == 3 and sub.is_semisimple() for _, sub in ideals)
        searches.append(tuple(counts))
    assert set(searches) == {(3,), (2, 3), (2, 2, 3)}


def test_identification_computes_one_centroid(entries, algebras, monkeypatch):
    """`identify_algebra` computes the centroid once on the sum-of-squares
    models segre-3/4/5, whose ideals it splits in one step, and never on an
    algebra with a split torus."""
    from legquad import liealg

    calls = []
    original = liealg._centroid

    def counted(algebra):
        calls.append(algebra)
        return original(algebra)

    monkeypatch.setattr(liealg, "_centroid", counted)
    sums_of_squares = ("segre-3", "segre-4", "segre-5")
    for name in sums_of_squares + ("twisted-cubic", "segre-split-3", "segre-split-4", "segre-split-5",
                                   "gr36", "grl36", "spinor-s6", "e7", "xf-cubic-2", "linear-lagrangian"):
        pres = entries[name].presentation
        algebra = algebras.get(name) or close_and_present(
            [g for g in pres.generators if g.homogeneous_degree() == 2], pres.form
        )
        calls.clear()
        identify_algebra(algebra)
        assert len(calls) == (name in sums_of_squares), name


def test_segre_requires_n_at_least_3():
    with pytest.raises(ValueError):
        catalog.segre_line_quadric(2)


def test_random_sp_conjugated_sl2_identifies():
    """A rationally split three-dimensional algebra in scrambled coordinates."""
    form = standard_form(2)
    h = parse_poly("x0*x2 - x1*x3", 4)
    e = parse_poly("x0*x3", 4)
    f = parse_poly("x1*x2", 4)
    L = close_and_present([h, e, f], form)
    assert identify_algebra(L) == ["A1"]


@pytest.mark.parametrize("name", ["twisted-cubic", "segre-5", "gr36", "spinor-s6"])
def test_cached_killing_matrix_is_the_trace_form_of_ad(algebras, name):
    """`killing_rows` is D^2 tr(ad_i ad_j), for the integer matrices D ad_i
    of `_integer_ad`."""
    L = algebras[name]
    den = L.bracket_table()[1]
    ads = []
    for i in range(L.dim):
        entries, d = _integer_ad(L, {i: 1})
        assert d == den
        ads.append(entries)
    dense = [[sum(x * ads[j].get((l, k), 0) for (k, l), x in ads[i].items())
              for j in range(L.dim)] for i in range(L.dim)]
    rows = L.killing_rows()
    assert [[rows.get(i, {}).get(j, 0) for j in range(L.dim)] for i in range(L.dim)] == dense
    assert L.killing_rows() is rows
    assert det(dense) != 0 and L.is_semisimple()


def _scrambled_root_data(systems, rng):
    """Roots of the sum of `systems` with negatives, in simple-root
    coordinates under a node permutation and a unimodular change of basis,
    as the integer tuples of `CartanData`."""
    n = sum(rs.rank for rs in systems)
    roots, offset = [], 0
    for rs in systems:
        for alpha in rs.positive_roots:
            v = [0] * n
            v[offset:offset + rs.rank] = alpha
            roots += [v, [-x for x in v]]
        offset += rs.rank
    order = list(range(n))
    rng.shuffle(order)
    basis = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            k = rng.choice((-2, -1, 1, 2))
            basis[i] = [x + k * y for x, y in zip(basis[i], basis[j])]
    roots = [[sum(b * r[order[j]] for j, b in enumerate(row)) for row in basis] for r in roots]
    return CartanData([{}] * n, root_spaces=[(tuple(r), {}) for r in roots])


def test_identify_type_on_scrambled_root_data():
    """Every type up to rank 8 and seeded sums of two types of rank <= 4."""
    rng = random.Random(7)
    for label, rank in simple_types_up_to(8):
        rs = build_root_system(label, rank)
        assert identify_type(_scrambled_root_data([rs], rng)) == [rs.type_label]
    small = [build_root_system(label, rank) for label, rank in simple_types_up_to(4)]
    for _ in range(30):
        pair = rng.sample(small, 2) if rng.random() < 0.8 else [rng.choice(small)] * 2
        expected = sorted((rs.type_label for rs in pair), key=type_key)
        assert identify_type(_scrambled_root_data(pair, rng)) == expected


def test_component_match_returns_the_node_bijection():
    rng = random.Random(11)
    for label, rank in simple_types_up_to(8):
        target = build_root_system(label, rank).cartan
        order = list(range(rank))
        rng.shuffle(order)
        cartan = [[target[a][b] for b in order] for a in order]
        [(name, nodes)] = match_cartan(cartan)
        perm = sorted(range(rank), key=nodes.__getitem__)  # matrix node -> Bourbaki node
        assert name == f"{label}{rank}"
        assert sorted(perm) == list(range(rank))
        assert all(cartan[i][j] == target[perm[i]][perm[j]] for i in range(rank) for j in range(rank))


def test_non_split_types_by_dimension_and_rank():
    """The decided (dimension, rank) pairs keep their type; colliding ones
    name every candidate, and (78, 6) is shared by B6, C6 and E6."""
    decided = {(3, 1): "A1", (8, 2): "A2", (10, 2): "B2", (14, 2): "G2", (15, 3): "A3",
               (24, 4): "A4", (28, 4): "D4", (52, 4): "F4", (35, 5): "A5", (45, 5): "D5",
               (133, 7): "E7", (248, 8): "E8"}
    for (dim, rank), label in decided.items():
        assert _type_of_dimension(dim, rank) == label
    for dim, rank, names in ((21, 3, "B3, C3"), (36, 4, "B4, C4"), (55, 5, "B5, C5"),
                             (78, 6, "B6, C6, E6"), (12, 2, "none")):
        with pytest.raises(NotAdaptedError, match=f"{names}$"):
            _type_of_dimension(dim, rank)


def test_simple_non_split_algebra_is_searched_once(monkeypatch):
    """so(5) of a sum of squares is simple and has no split torus over Q: it
    is its own one ideal, so identification reuses the algebra and its cached
    failure instead of rebuilding it and searching for a torus again."""
    from legquad import liealg

    algebra = _anisotropic_so(5)
    calls = []

    def counted(alg):
        calls.append(alg)
        return cartan_subalgebra(alg)

    monkeypatch.setattr(liealg, "cartan_subalgebra", counted)
    assert identify_algebra(algebra) == ["B2"]
    assert calls == [algebra]


def test_each_quantity_is_computed_once(algebras, monkeypatch):
    """Identification presents each minimal ideal once: segre-4 splits into
    three ideals, and `decompose_ideals` hands their presentations on, so
    `subalgebra_presentation` runs 3 times, not once more per ideal.  The
    root decomposition reads the coordinate weights once per presentation:
    on segre-4 and its three ideals, and on e7."""
    from legquad import liealg

    calls = {"subalgebra_presentation": 0, "_coordinate_weights": 0}
    for name in calls:
        original = getattr(liealg, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(liealg, name, counted)
    fresh = {name: LieAlgebraPresentation(L.basis, L.form, L.bracket_table(), L.sp_entries())
             for name, L in algebras.items() if name in ("segre-4", "e7")}
    assert identify_algebra(fresh["segre-4"]) == ["A1", "A1", "A1"]
    assert calls == {"subalgebra_presentation": 3, "_coordinate_weights": 4}
    calls.update(dict.fromkeys(calls, 0))
    split_root_data(fresh["e7"])
    assert calls == {"subalgebra_presentation": 0, "_coordinate_weights": 1}


def _flattened(matrix):
    """A rational matrix as a sparse vector with matrix[p][r] at p * d + r,
    as `_rational_eigenvalues` reads it."""
    d = len(matrix)
    return {p * d + r: Fraction(x) for p, row in enumerate(matrix) for r, x in enumerate(row) if x}


def test_rational_eigenvalues_against_sympy():
    """Seeded P D P^-1 with repeated rational eigenvalues: the Krylov
    minimal polynomial gives sympy's distinct eigenvalues.  A rotation has
    none over Q and a nonzero nilpotent is not split semisimple: both
    return None."""
    from sympy import Matrix, Rational, diag

    rng = random.Random(13)
    for diagonal in ([2, 2, -1], [Rational(1, 2), 3, Rational(1, 2), 0, -4, 3], [5, 5, 5, -5]):
        d = len(diagonal)
        while (p := Matrix(d, d, lambda i, j: rng.randint(-3, 3))).det() == 0:
            pass
        m = p * diag(*diagonal) * p.inv()
        rows = [[Fraction(int(x.p), int(x.q)) for x in m.row(i)] for i in range(d)]
        expected = sorted(Fraction(int(x.p), int(x.q)) for x in m.eigenvals())
        assert _rational_eigenvalues(_flattened(rows), d) == expected, diagonal
    assert _rational_eigenvalues(_flattened([[0, -1], [1, 0]]), 2) is None
    assert _rational_eigenvalues(_flattened([[0, 1], [0, 0]]), 2) is None
    assert _rational_eigenvalues(_flattened([[1, -1, 1], [1, -1, 1], [0, 0, 0]]), 3) is None


def test_rational_roots_against_sympy():
    """Seeded integer polynomials c * prod (q t - p), with roots p / q of
    height past 10^20, zero and repeated roots and leading coefficients of
    either sign, some times an irreducible quadratic or cubic (with real
    roots or not): `_rational_roots` gives sympy's roots with multiplicity,
    and None exactly when sympy's factors are not all linear."""
    from sympy import Poly, symbols

    t = symbols("t")
    irreducible = [1, t**2 - 2, t**2 + 1, 5 * t**2 - 7, t**3 - 2, t**3 - 3 * t + 1, 2 * t**3 + 3 * t + 5]
    rng = random.Random(29)
    cases = []
    for case in range(42):
        roots = [Fraction(rng.randint(10**20, 10**25) * rng.choice((-1, 1)), rng.randint(1, 10**22))]
        for _ in range(rng.randint(0, 3)):
            roots.append(rng.choice([Fraction(0), rng.choice(roots), Fraction(rng.randint(-50, 50), rng.randint(1, 9))]))
        lead = rng.choice((-1, 1)) * rng.randint(1, 10**6)
        expr = lead * irreducible[case % len(irreducible)]
        for r in roots:
            expr *= r.denominator * t - r.numerator
        cases.append(Poly(expr, t))
    cases += [Poly(-7 * t**3 * (t - 5)**2, t), Poly(t, t), Poly(-3 * t**4, t), Poly(t**2 - 3 * t + 2, t)]
    for poly in cases:
        factors = poly.factor_list()[1]
        expected = None
        if all(f.degree() == 1 for f, _ in factors):
            expected = sorted(Fraction(-int(f.nth(0)), int(f.nth(1))) for f, m in factors for _ in range(m))
        assert _rational_roots([int(c) for c in poly.all_coeffs()]) == expected, poly
