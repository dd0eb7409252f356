"""Acceptance criteria, one test per criterion, exact arithmetic throughout.

Every test prints one PASS line on success (run pytest with -s to see them);
a failed assertion is the FAIL signal.  Tolerances are exact (zero) unless a
wall-clock bound is part of the criterion, in which case the bound is
asserted explicitly.
"""

import random
import time
from fractions import Fraction

from legquad.classify import enumerate_semisimple_pairs, enumerate_simple, weight_tables
from legquad.groebner import buchberger, krull_dimension
from legquad.legendrian import VarietyPresentation, legendrian_verdict
from legquad.liealg import cartan_subalgebra, identify_algebra, root_decomposition
from legquad.poly import Polynomial, parse_poly
from legquad.rootdata import build_root_system, orbit
from legquad.symplectic import poisson_bracket, standard_form
from classify_oracle import accepted_pairs, accepted_simple
from groebner_oracle import krull_dimension_bruteforce
from legendrian_oracle import degeneracy_check
from liealg_oracle import exp_orbit_points
from poly_oracle import euler_weighted_sum, evaluate
from rootdata_oracle import weight_multiplicities
from symplectic_oracle import commutator, quadric_bracket_matrix, quadric_to_sp, sp_membership
from test_symplectic import _random_homog, _random_poly, _random_quadratic_form


def _passed(line: str):
    print(f"\nACCEPTANCE {line}: PASS")


def test_criterion_1_bracket_tables(entries, recorded_entries):
    started = time.perf_counter()
    cubic = recorded_entries["twisted-cubic"].presentation
    f_plus, f_minus, h = cubic.generators
    assert poisson_bracket(f_plus, f_minus, cubic.form) == h
    assert poisson_bracket(h, f_plus, cubic.form) == f_plus.scale(2)
    assert poisson_bracket(h, f_minus, cubic.form) == f_minus.scale(-2)

    for n in (4, 5):
        pres = entries[f"segre-{n}"].presentation
        form = pres.form
        pair_index = {}
        k = 0
        for a in range(n):
            for b in range(a + 1, n):
                pair_index[(a, b)] = k
                k += 1

        def f(i, j):
            if i < j:
                return pres.generators[pair_index[(i, j)]]
            return -pres.generators[pair_index[(j, i)]]

        g_plus, g_minus, h = pres.generators[k], pres.generators[k + 1], pres.generators[k + 2]
        # (i) chained exchange quadrics close on the third one, with the
        # chain orientation reversed: [f_ij, f_jk] = f_ki for this form
        assert poisson_bracket(f(0, 1), f(1, 2), form) == f(2, 0)
        assert poisson_bracket(f(1, 2), f(2, 3), form) == f(3, 1)
        # (ii) disjoint pairs commute
        assert poisson_bracket(f(0, 1), f(2, 3), form).is_zero()
        # (iii)-(v) exchange quadrics commute with the quadric-form triple
        assert poisson_bracket(f(0, 1), g_plus, form).is_zero()
        assert poisson_bracket(f(0, 1), g_minus, form).is_zero()
        assert poisson_bracket(f(0, 1), h, form).is_zero()
        # (vi)-(viii) the triple is a standard three-dimensional algebra
        assert poisson_bracket(g_plus, g_minus, form) == h
        assert poisson_bracket(h, g_minus, form) == g_minus.scale(-2)
        assert poisson_bracket(h, g_plus, form) == g_plus.scale(2)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"bracket tables took {elapsed:.2f}s"
    _passed("1 (bracket tables, exact, < 1 s)")


def test_criterion_2_algebra_identification(entries, algebras):
    started = time.perf_counter()
    expected = {
        "twisted-cubic": (3, ["A1"]),
        "segre-3": (6, ["A1", "A1"]),
        "segre-4": (9, ["A1", "A1", "A1"]),
        "segre-5": (13, ["A1", "B2"]),
        "grl36": (21, ["C3"]),
        "gr36": (35, ["A5"]),
        "spinor-s6": (66, ["D6"]),
        "e7": (133, ["E7"]),
    }
    for name, (dim, labels) in expected.items():
        algebra = algebras[name]
        assert algebra.dim == dim, name
        assert identify_algebra(algebra) == labels, name
    # the split models agree with the definite ones
    assert identify_algebra(algebras["segre-split-3"]) == ["A1", "A1"]
    elapsed = time.perf_counter() - started
    assert elapsed < 600, f"identification took {elapsed:.1f}s"
    _passed(f"2 (algebra identification incl. the 133-quadric span, {elapsed:.1f} s < 10 min)")


def test_criterion_3_classification_rerun():
    started = time.perf_counter()
    simple = enumerate_simple(weight_tables(8, 100))
    assert accepted_simple(simple) == [
        ("A1", (3,)),
        ("A5", (0, 0, 1, 0, 0)),
        ("C3", (0, 0, 1)),
        ("D6", (0, 0, 0, 0, 0, 1)),
        ("E7", (0, 0, 0, 0, 0, 0, 1)),
    ]
    dims = {v.type_label: v.dim_v for v in simple if v.status == "accepted"}
    assert dims == {"A1": 4, "C3": 14, "A5": 20, "D6": 32, "E7": 56}
    g2 = [v for v in simple if v.type_label == "G2"]
    assert g2 and all(v.status == "rejected" for v in g2)

    pairs = enumerate_semisimple_pairs(weight_tables(8, 100))
    family = dict(accepted_pairs(pairs))
    expected_factors = {("A1", "A1"), ("A1", "A3")}
    expected_factors |= {("A1", f"B{r}") for r in range(2, 9)}
    expected_factors |= {("A1", f"D{r}") for r in range(4, 9)}
    assert set(family) == expected_factors
    for factors, (wa, wb) in family.items():
        assert wa == (1,)
        if factors[1] == "A1":
            assert wb == (2,)          # the three-variable quadric
        elif factors[1] == "A3":
            assert wb == (0, 1, 0)     # the six-variable quadric
        else:
            assert wb[0] == 1 and not any(wb[1:])   # natural representations
    elapsed = time.perf_counter() - started
    assert elapsed < 30, f"classification took {elapsed:.1f}s"
    _passed(f"3 (classification rerun, {elapsed:.1f} s < 30 s)")


def test_criterion_4_legendrian_verdicts(entries):
    legendrian_names = (
        "twisted-cubic", "four-lines", "segre-3", "segre-4",
        "grl36", "xf-cubic-2", "complete-intersection",
    )
    for name in legendrian_names:
        verdict = legendrian_verdict(entries[name].presentation)
        assert verdict.verdict == "legendrian", name

    degenerate = entries["xf-cubic-1"].presentation
    hyperplane = degeneracy_check(degenerate)
    assert hyperplane is not None and hyperplane.degree() == 1
    assert legendrian_verdict(degenerate).degenerate

    base = entries["twisted-cubic"].presentation
    gens = list(base.generators)
    gens[0] = gens[0] + parse_poly("x0^2", 4)
    verdict = legendrian_verdict(VarietyPresentation("perturbed", base.form, gens))
    assert verdict.verdict == "not-legendrian"
    assert verdict.bracket_closed is False and verdict.witnesses
    _passed("4 (legendrian verdicts incl. degeneracy and a perturbed witness)")


def test_criterion_5_property_suites():
    rng = random.Random(424242)
    form = standard_form(2)
    for _ in range(100):
        f = _random_poly(rng, 4, 3)
        g = _random_poly(rng, 4, 3)
        h = _random_poly(rng, 4, 3)
        assert poisson_bracket(f, g, form) == -poisson_bracket(g, f, form)
        assert poisson_bracket(f * g, h, form) == (
            f * poisson_bracket(g, h, form) + g * poisson_bracket(f, h, form)
        )
        jac = (
            poisson_bracket(f, poisson_bracket(g, h, form), form)
            + poisson_bracket(g, poisson_bracket(h, f, form), form)
            + poisson_bracket(h, poisson_bracket(f, g, form), form)
        )
        assert jac.is_zero()

    for _ in range(100):
        qa = _random_quadratic_form(rng, 4)
        qb = _random_quadratic_form(rng, 4)
        im_a = quadric_to_sp(qa, form)
        im_b = quadric_to_sp(qb, form)
        assert sp_membership(im_a.matrix, form)
        bracket_image = quadric_to_sp(quadric_bracket_matrix(qa, qb, form), form)
        assert bracket_image.matrix == commutator(im_a, im_b).matrix

    for _ in range(100):
        degree = rng.randint(0, 5)
        p = _random_homog(rng, 4, degree)
        assert euler_weighted_sum(p) == p.scale(degree)

    systems = [build_root_system(l, r) for l, r in
               (("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
                ("C", 3), ("C", 4), ("D", 4), ("G", 2))]
    checked = 0
    while checked < 20:
        rs = systems[rng.randrange(len(systems))]
        coeffs = [rng.randint(0, 2) for _ in range(rs.rank)]
        if not any(coeffs):
            continue
        dim = orbit(rs, coeffs).dim
        if dim > 600:
            continue
        assert sum(weight_multiplicities(rs, coeffs).values()) == dim
        checked += 1
    _passed("5 (property suites, 100+ exact randomized cases each)")


def test_criterion_6_oracle_equivalence():
    rng = random.Random(90210)
    form = standard_form(3)
    for _ in range(50):
        qa = _random_quadratic_form(rng, 6)
        qb = _random_quadratic_form(rng, 6)
        via_matrix = quadric_bracket_matrix(qa, qb, form).to_polynomial()
        via_diff = poisson_bracket(qa.to_polynomial(), qb.to_polynomial(), form)
        assert via_matrix == via_diff

    checked = 0
    while checked < 20:
        nvars = rng.randint(2, 10)
        gens = []
        for _ in range(rng.randint(1, 6)):
            exps = [0] * nvars
            for _ in range(rng.randint(1, 3)):
                exps[rng.randrange(nvars)] += 1
            if any(exps):
                gens.append(Polynomial(nvars, {tuple(exps): Fraction(1)}))
        if not gens:
            continue
        leads = [g.leading_monomial() for g in buchberger(gens, nvars)]
        assert krull_dimension(leads, nvars) == krull_dimension_bruteforce(leads, nvars)
        checked += 1
    _passed("6 (oracle equivalence: bracket routes and dimension search)")


def test_criterion_7_orbit_consistency(entries, algebras):
    # the sum-of-squares quadric has no rational points, so the split model
    # of the same variety carries the orbit test for the Segre fixture
    for name in ("twisted-cubic", "segre-split-3", "gr36"):
        entry = entries[name]
        algebra = algebras[name]
        cartan = cartan_subalgebra(algebra)
        full = root_decomposition(algebra, cartan)
        points = exp_orbit_points(algebra, full, entry.base_point, count=10, seed=2024)
        assert len(points) == 10
        for pt in points:
            assert any(x != 0 for x in pt)
            for g in entry.presentation.generators:
                assert evaluate(g, pt) == 0, name
    _passed("7 (exp-orbit points satisfy every generator)")
