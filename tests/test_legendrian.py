import random
from fractions import Fraction

import pytest

from legquad import catalog
from legquad.legendrian import (
    VarietyPresentation,
    degeneracy_check,
    legendrian_verdict,
    rational_curve_check,
    tangent_point_check,
)
from legquad.liealg import bracket_closure
from legquad.poly import Polynomial, parse_poly
from legquad.symplectic import standard_form
from legendrian_oracle import PointNotOnCone, PointRankError, conormal_point_check


def test_twisted_cubic_verdict(entries):
    v = legendrian_verdict(entries["twisted-cubic"].presentation)
    assert v.verdict == "legendrian"
    assert v.bracket_closed and v.cone_dimension == 2 and not v.degenerate


def test_four_lines_verdict(entries):
    v = legendrian_verdict(entries["four-lines"].presentation)
    assert v.verdict == "legendrian"
    assert v.cone_dimension == 2


def test_linear_subspace_verdicts(entries):
    # the isotropic span is legendrian ...
    v = legendrian_verdict(entries["linear-lagrangian"].presentation)
    assert v.verdict == "legendrian"
    # ... a single hyperplane is not (wrong dimension)
    pres = VarietyPresentation("hyperplane", standard_form(2), [parse_poly("x0", 4)])
    v = legendrian_verdict(pres)
    assert v.verdict == "not-legendrian" and v.cone_dimension == 3
    # ... and a non-isotropic plane fails closure
    pres = VarietyPresentation("bad-plane", standard_form(2),
                               [parse_poly("x1", 4), parse_poly("x3", 4)])
    v = legendrian_verdict(pres)
    assert v.verdict == "not-legendrian" and v.bracket_closed is False


def test_perturbed_cubic_detects_failure(entries):
    base = entries["twisted-cubic"].presentation
    gens = list(base.generators)
    gens[0] = gens[0] + parse_poly("x0^2", 4)
    pres = VarietyPresentation("perturbed", base.form, gens)
    v = legendrian_verdict(pres)
    assert v.verdict == "not-legendrian"
    assert v.bracket_closed is False
    assert v.witnesses
    assert bracket_closure(pres.generators, pres.form)[0]


def test_complete_intersection_closure(entries):
    pres = entries["complete-intersection"].presentation
    assert bracket_closure(pres.generators, pres.form)[0] == []
    v = legendrian_verdict(pres)
    assert v.verdict == "legendrian" and v.cone_dimension == 3
    assert degeneracy_check(pres) is None


def test_segre_verdicts(entries):
    for name in ("segre-3", "segre-4", "segre-split-3", "segre-split-4"):
        v = legendrian_verdict(entries[name].presentation)
        assert v.verdict == "legendrian", name


def test_segre_4_with_two_sextic_products_is_legendrian(entries):
    """Products of three segre-4 quadrics leave the ideal as it is, but the
    closure pass spans its parts of degree 2, 6 and 10: tall sparse systems
    whose rows meet few of their many pivots, which `Echelon._reduce` takes
    off a heap."""
    pres = entries["segre-4"].presentation
    g = pres.generators
    gens = list(g) + [g[0] * g[1] * g[2], g[3] * g[4] * g[0]]
    v = legendrian_verdict(VarietyPresentation("segre-4 + sextics", pres.form, gens))
    assert v.verdict == "legendrian" and v.certificate == "groebner"
    assert v.bracket_closed and v.cone_dimension == 4


def test_degeneracy_detection(entries):
    hyper = degeneracy_check(entries["xf-cubic-1"].presentation)
    assert hyper is not None and hyper.degree() == 1
    assert degeneracy_check(entries["twisted-cubic"].presentation) is None
    pres = VarietyPresentation(
        "explicit", standard_form(2), [parse_poly("x0 + x1", 4), parse_poly("x2*x3", 4)]
    )
    assert degeneracy_check(pres) == parse_poly("x0 + x1", 4)


def test_budget_gives_undecided(entries):
    # segre-4 has no split torus over Q, so its dimension needs the basis
    pres = entries["segre-4"].presentation
    v = legendrian_verdict(pres, budget=1)
    assert v.verdict == "undecided"
    assert v.budget_name == "groebner_pairs"
    assert v.bracket_closed is True


def test_certificate_decides_grl36_under_any_budget(entries):
    v = legendrian_verdict(entries["grl36"].presentation, budget=1)
    assert v.verdict == "legendrian" and v.certificate == "kostant"
    assert v.cone_dimension == 7 and v.budget_name is None


def test_conormal_point_checks(entries):
    tc = entries["twisted-cubic"].presentation
    assert conormal_point_check(tc, [1, 1, 1, 1])
    assert conormal_point_check(tc, [1, 0, 0, 0])
    with pytest.raises(PointNotOnCone):
        conormal_point_check(tc, [1, 1, 0, 0])
    with pytest.raises(PointNotOnCone):
        conormal_point_check(tc, [0, 0, 0, 0])


def test_conormal_point_gr36(entries):
    gr = entries["gr36"].presentation
    base = entries["gr36"].base_point
    assert conormal_point_check(gr, base)


def test_conormal_point_large_fixtures(entries):
    """The two largest fixtures never go through a basis computation; the
    pointwise conormal criterion still certifies them at their base points."""
    for name in ("spinor-s6", "e7"):
        entry = entries[name]
        assert conormal_point_check(entry.presentation, entry.base_point), name


def test_conormal_rank_error():
    # the cone point of a quadric cone has a rank-deficient gradient
    pres = VarietyPresentation("cone", standard_form(2), [parse_poly("x0*x2 - x1^2", 4)])
    with pytest.raises(PointRankError):
        conormal_point_check(pres, [0, 0, 0, 1])


def test_tangent_point_checks(entries):
    tc = entries["twisted-cubic"].presentation
    for pt in ([1, 2], [1, 0], [2, 3], [1, -1]):
        assert tangent_point_check(tc, pt)
    cubic2 = catalog.x_f(parse_poly("y0^3", 1))
    assert tangent_point_check(cubic2.presentation, [2])
    cubic3 = entries["xf-cubic-3"].presentation
    assert tangent_point_check(cubic3, [1, 1])


def test_tangent_checks_for_general_charts():
    rng = random.Random(19)
    for nparams in (1, 2, 3):
        for degree in (1, 2, 3, 4):
            f = _random_homog(rng, nparams, degree)
            entry = catalog.x_f(f)
            for _ in range(5):
                pt = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(nparams)]
                assert tangent_point_check(entry.presentation, pt)


def test_tangent_requires_parametrization(entries):
    with pytest.raises(ValueError):
        tangent_point_check(entries["four-lines"].presentation, [1])


def test_rational_curve_examples():
    t = parse_poly("x0", 1)
    zero = Polynomial.zero(1)
    assert rational_curve_check(zero, zero, zero)
    assert not rational_curve_check(t, t, t)
    for k, l in ((2, 1), (3, 1), (3, 2), (5, 2)):
        f2 = parse_poly(f"x0^{k}", 1)
        f3 = parse_poly(f"x0^{l}", 1)
        f1 = parse_poly(f"{k - l}/{k + l}*x0^{k + l}", 1)
        assert rational_curve_check(f1, f2, f3)
        assert not rational_curve_check(f1 + t, f2, f3)


def test_rational_curve_with_rational_functions():
    t = parse_poly("x0", 1)
    one = Polynomial.constant(1, 1)
    # f2 = 1/t, f3 = t, ODE forces f1' = f2' f3 - f3' f2 = -2/t
    # try f1 = t: 1 != -2/t
    assert not rational_curve_check(t, (one, t), t)


CURVE_FORM = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]


def test_ode_tangent_consistency():
    """For curves (1 : f1 : f2 : f3) the differential identity holds exactly
    when every sampled tangent space is isotropic for the curve form."""
    from legquad.symplectic import SymplecticForm

    rng = random.Random(55)
    curve_form = SymplecticForm(CURVE_FORM)
    for trial in range(25):
        f2 = _random_univariate(rng)
        f3 = _random_univariate(rng)
        integrand = f2.partial_derivative(0) * f3 - f3.partial_derivative(0) * f2
        f1 = _integrate(integrand)
        broken = trial % 2 == 1
        if broken:
            f1 = f1 + parse_poly("x0", 1)
        par = [Polynomial.constant(1, 1), f1, f2, f3]
        pres = VarietyPresentation("curve", curve_form, [], parametrization=par)
        ode = rational_curve_check(f1, f2, f3)
        points_ok = all(
            tangent_point_check(pres, [Fraction(v, 2)]) for v in range(-4, 5)
        )
        assert ode == points_ok
        assert ode == (not broken)


def test_generator_scaling_never_changes_verdicts(entries):
    rng = random.Random(9)
    for name in ("twisted-cubic", "four-lines", "segre-3", "complete-intersection"):
        base = entries[name].presentation
        reference = legendrian_verdict(base)
        gens = [g.scale(Fraction(rng.randint(1, 7), rng.randint(1, 5))) for g in base.generators]
        scaled = legendrian_verdict(VarietyPresentation("scaled", base.form, gens))
        assert scaled.verdict == reference.verdict
        assert scaled.cone_dimension == reference.cone_dimension
        assert scaled.degenerate == reference.degenerate


def test_verdict_agrees_with_conormal_at_sample_points(entries):
    """Bracket-closure plus dimension must match the pointwise conormal
    criterion wherever both apply."""
    cases = {
        "twisted-cubic": [[1, 1, 1, 1], [1, 2, 4, 8], [1, -3, 9, -27]],
        "four-lines": [[1, 1, 0, 0], [0, 0, 1, 5], [2, 0, 0, 3]],
        "complete-intersection": [
            [1, 1, 1, 1, 1, 1],
            [1, 2, Fraction(1, 2), 1, Fraction(1, 2), 2],
        ],
        "grl36": [entries["grl36"].base_point],
    }
    for name, points in cases.items():
        pres = entries[name].presentation
        verdict = legendrian_verdict(pres)
        assert verdict.verdict == "legendrian"
        for pt in points:
            assert conormal_point_check(pres, pt), (name, pt)


def _integrate(p: Polynomial) -> Polynomial:
    terms = {}
    for (e,), c in p.terms.items():
        terms[(e + 1,)] = Fraction(c, e + 1)
    return Polynomial(1, terms)


def _random_univariate(rng):
    terms = {}
    for e in range(rng.randint(1, 4)):
        if rng.random() < 0.7:
            terms[(e,)] = Fraction(rng.randint(-4, 4))
    p = Polynomial(1, terms)
    return p if not p.is_zero() else parse_poly("x0", 1)


def _random_homog(rng, nvars, degree):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exps = [0] * nvars
        for _ in range(degree):
            exps[rng.randrange(nvars)] += 1
        terms[tuple(exps)] = Fraction(rng.randint(-4, 4))
    p = Polynomial(nvars, terms)
    if p.is_zero():
        exps = [0] * nvars
        exps[0] = degree
        p = Polynomial(nvars, {tuple(exps): Fraction(1)})
    return p
