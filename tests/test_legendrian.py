import random
from fractions import Fraction

import pytest

from legquad import catalog, legendrian
from legquad.legendrian import (
    VarietyPresentation,
    isotropy_identity,
    legendrian_verdict,
)
from legquad.liealg import bracket_closure
from legquad.poly import Polynomial, parse_poly
from legquad.symplectic import pairing_form, standard_form
from legendrian_oracle import (
    PointNotOnCone,
    PointRankError,
    conormal_point_check,
    degeneracy_check,
    tangent_point_check,
)
from test_symplectic import _random_homog


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


def test_degenerate_flag_matches_the_hyperplane_oracle(entries):
    """`degenerate` is read off the generator degrees, some of degree 1 and
    none of degree 0: it holds exactly when `degeneracy_check` finds a
    hyperplane through the variety, on every catalog entry and on seeded
    generators of degrees 1 to 3, repeated and opposite linear forms among
    them.  (A constant generator has a test of its own, below.)  The flag
    does not depend on the budget, so none is given."""
    cases = [entry.presentation for entry in entries.values()]
    rng = random.Random(41)
    for _ in range(300):
        gens = [_random_homog(rng, 4, rng.choice((1, 1, 2, 2, 2, 3))) for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.3:
            gens.append(gens[0].scale(rng.choice((-1, 2))))
        cases.append(VarietyPresentation("seeded", standard_form(2), gens))
    flags = set()
    for pres in cases:
        flag = legendrian_verdict(pres, budget=0).degenerate
        assert flag == (degeneracy_check(pres) is not None), pres.generators
        flags.add(flag)
    assert flags == {False, True}


def test_a_constant_generator_gives_the_empty_variety_a_verdict(monkeypatch):
    """A nonzero constant among the generators makes the ideal the unit
    ideal: every budget gets not-legendrian, bracket-closed and not
    degenerate, with no dimension, certificate or budget, and one witness
    naming the constant, and neither the closure pass nor F4 runs.  The
    seeded lists mix the constant with generators of degrees 1 to 3."""
    def refuse(*args, **kwargs):
        raise AssertionError("a constant generator needs no closure pass or basis")

    monkeypatch.setattr(legendrian, "bracket_closure", refuse)
    monkeypatch.setattr(legendrian, "initial_ideal", refuse)
    rng = random.Random(42)
    for _ in range(248):
        gens = [_random_homog(rng, 4, rng.choice((0, 1, 2, 2, 3))) for _ in range(rng.randint(1, 4))]
        if all(g.degree() for g in gens):
            gens.insert(rng.randrange(len(gens) + 1), _random_homog(rng, 4, 0))
        pres = VarietyPresentation("seeded", standard_form(2), gens)
        k = next(i for i, g in enumerate(pres.generators) if g.degree() == 0)
        witness = (f"generator {k} is the nonzero constant {pres.generators[k]}: "
                   "the ideal is the unit ideal, the variety empty")
        assert degeneracy_check(pres) is None
        for budget in (0, 1, 5):
            assert legendrian_verdict(pres, budget=budget).to_dict() == {
                "bracket_closed": True, "dimension": None, "degenerate": False,
                "verdict": "not-legendrian", "witnesses": [witness], "budget": None, "certificate": None,
            }


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


def test_conormal_point_checks(recorded_entries):
    tc = recorded_entries["twisted-cubic"].presentation
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


def test_tangent_point_checks(entries, recorded_entries):
    tc = recorded_entries["twisted-cubic"].presentation
    for pt in ([1, 2], [1, 0], [2, 3], [1, -1]):
        assert tangent_point_check(tc, pt)
    cubic2 = catalog.x_f(parse_poly("y0^3", 1))
    assert tangent_point_check(cubic2.presentation, [2])
    cubic3 = entries["xf-cubic-3"].presentation
    assert tangent_point_check(cubic3, [1, 1])


# The cubics of the X_f census, up to linear change: in two variables, then
# the plane cubics; and three charts of other degrees.
CENSUS_CHARTS = [
    ("y0^3", 1), ("y0^2*y1", 2), ("y0*y1*(y0+y1)", 2), ("y0^3 + y1^3", 2),
    ("y0*y1*y2", 3), ("y0*y1*(y0+y1)", 3), ("y2*(y0*y1 - y2^2)", 3), ("y0*(y0*y2 - y1^2)", 3),
    ("y0^3 - y1^2*y2", 3), ("y0^3 + y0^2*y2 - y1^2*y2", 3), ("y0^3 + y1^3 + y2^3", 3),
    ("y0^2*y1", 3), ("y0*(y1^2 + y2^2)", 3), ("y0*y1*y2 + y0^3", 3),
    ("y0^4 + y1^4", 2), ("y0^2*y1^2*y2", 3), ("y0^5", 1),
]


def _two_points(m):
    return [1] * m, [Fraction(k + 2, 3) if k % 2 else -k - 1 for k in range(m)]


def test_isotropy_identity_holds_on_every_chart(entries, recorded_entries):
    """Every parametrized entry, catalog and transcribed, and the census
    charts: the identity holds, and the sampled tangent check agrees at two
    points."""
    charts = [(f"{origin}:{name}", e.presentation)
              for origin, table in (("catalog", entries), ("recorded", recorded_entries))
              for name, e in table.items() if e.presentation.parametrization is not None]
    charts += [(text, catalog.x_f(parse_poly(text, m)).presentation) for text, m in CENSUS_CHARTS]
    assert len(charts) > len(CENSUS_CHARTS) + 11
    for name, pres in charts:
        assert isotropy_identity(pres.parametrization, pres.form), name
        for pt in _two_points(pres.parametrization[0].nvars):
            assert tangent_point_check(pres, pt), (name, pt)


@pytest.mark.parametrize("negated", [1, 5, 28, 54])
def test_isotropy_identity_fails_on_e7_with_one_component_negated(entries, negated):
    pres = entries["e7"].presentation
    par = list(pres.parametrization)
    par[negated] = -par[negated]
    broken = VarietyPresentation("e7-negated", pres.form, [], parametrization=par)
    assert not isotropy_identity(par, pres.form)
    assert not all(tangent_point_check(broken, pt) for pt in _two_points(27))


def test_isotropy_identity_requires_parametrization(entries):
    pres = entries["four-lines"].presentation
    with pytest.raises(ValueError):
        isotropy_identity(pres.parametrization, pres.form)


def test_tangent_checks_for_general_charts():
    rng = random.Random(19)
    for nparams in (1, 2, 3):
        for degree in (1, 2, 3, 4):
            f = _random_homog(rng, nparams, degree)
            entry = catalog.x_f(f)
            assert isotropy_identity(entry.presentation.parametrization, entry.presentation.form)
            for _ in range(5):
                pt = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(nparams)]
                assert tangent_point_check(entry.presentation, pt)


@pytest.mark.parametrize("flipped", [0, 13, 27])
def test_tangent_check_fails_under_e7_form_with_one_pair_flipped(entries, flipped):
    """Both checks read every nonzero entry of the form: e7's chart passes
    under its own pairing of x_i with x_(55-i), rebuilt here, and fails the
    identity, and the tangent check at the same two points, once one pair
    changes sign."""
    pres = entries["e7"].presentation
    nvars = pres.nvars
    pairs = [(i, nvars - 1 - i, 1) for i in range(nvars // 2)]
    true_form = pairing_form(nvars, pairs)
    assert true_form == pres.form
    pairs[flipped] = (flipped, nvars - 1 - flipped, -1)
    wrong = VarietyPresentation("e7-flipped", pairing_form(nvars, pairs), pres.generators,
                                parametrization=pres.parametrization)
    assert isotropy_identity(pres.parametrization, pres.form)
    assert not isotropy_identity(wrong.parametrization, wrong.form)
    for pt in _two_points(27):
        assert tangent_point_check(pres, pt)
        assert not tangent_point_check(wrong, pt)


@pytest.mark.parametrize("flipped", [0, 13, 27])
def test_tangent_check_fails_under_a_fractional_form_with_one_pair_flipped(entries, flipped):
    """Scaling coordinate i of e7's chart by s_i and the pairing of x_i with
    x_(55-i) by 1 / (s_i s_(55-i)) keeps every tangent space isotropic.  With
    s_i of several denominators the form's rows have different denominators
    and the tangent vectors are not integral; the scaled chart still passes
    the identity and the tangent check at two points, and fails them all
    once one pair changes sign."""
    pres = entries["e7"].presentation
    nvars = pres.nvars
    scales = [Fraction(i % 5 + 1, i % 7 + 2) for i in range(nvars)]
    par = [comp.scale(s) for comp, s in zip(pres.parametrization, scales)]
    pairs = [(i, nvars - 1 - i, 1 / (scales[i] * scales[nvars - 1 - i])) for i in range(nvars // 2)]
    scaled = VarietyPresentation("e7-scaled", pairing_form(nvars, pairs), [], parametrization=par)
    assert len({x.denominator for row in scaled.form.matrix for x in row if x}) > 2
    a, b, s = pairs[flipped]
    pairs[flipped] = (a, b, -s)
    wrong = VarietyPresentation("e7-scaled-flipped", pairing_form(nvars, pairs), [], parametrization=par)
    assert isotropy_identity(par, scaled.form) and not isotropy_identity(par, wrong.form)
    for pt in _two_points(27):
        assert tangent_point_check(scaled, pt)
        assert not tangent_point_check(wrong, pt)


def test_tangent_requires_parametrization(entries):
    with pytest.raises(ValueError):
        tangent_point_check(entries["four-lines"].presentation, [1])


# The contact form on P^3 that `legquad curve` reads: it pairs x0 with x1 and
# x2 with x3, so the curve (1 : f1 : f2 : f3) is isotropic exactly when
# f1' = f2' f3 - f3' f2.
CURVE_FORM = pairing_form(4, [(0, 1, 1), (2, 3, 1)])


def _chart(f1, f2, f3):
    return [Polynomial.constant(1, 1), f1, f2, f3]


def _curve(f1, f2, f3) -> VarietyPresentation:
    return VarietyPresentation("curve", CURVE_FORM, [], parametrization=_chart(f1, f2, f3))


def test_rational_curve_examples():
    t = parse_poly("x0", 1)
    zero = Polynomial.zero(1)
    assert isotropy_identity(_chart(zero, zero, zero), CURVE_FORM)
    assert not isotropy_identity(_chart(t, t, t), CURVE_FORM)
    for k, l in ((2, 1), (3, 1), (3, 2), (5, 2)):
        f2 = parse_poly(f"x0^{k}", 1)
        f3 = parse_poly(f"x0^{l}", 1)
        f1 = parse_poly(f"{k - l}/{k + l}*x0^{k + l}", 1)
        assert isotropy_identity(_chart(f1, f2, f3), CURVE_FORM)
        assert not isotropy_identity(_chart(f1 + t, f2, f3), CURVE_FORM)


def test_ode_tangent_consistency():
    """For curves (1 : f1 : f2 : f3) the identity holds exactly when every
    sampled tangent space is isotropic for the curve form."""
    rng = random.Random(55)
    assert CURVE_FORM.matrix == [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
    for trial in range(25):
        f2 = _random_univariate(rng)
        f3 = _random_univariate(rng)
        integrand = f2.partial_derivative(0) * f3 - f3.partial_derivative(0) * f2
        f1 = _integrate(integrand)
        broken = trial % 2 == 1
        if broken:
            f1 = f1 + parse_poly("x0", 1)
        pres = _curve(f1, f2, f3)
        identity = isotropy_identity(pres.parametrization, CURVE_FORM)
        points_ok = all(
            tangent_point_check(pres, [Fraction(v, 2)]) for v in range(-4, 5)
        )
        assert identity == points_ok
        assert identity == (not broken)


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


def test_verdict_agrees_with_conormal_at_sample_points(recorded_entries):
    """Bracket-closure plus dimension must match the pointwise conormal
    criterion wherever both apply."""
    cases = {
        "twisted-cubic": [[1, 1, 1, 1], [1, 2, 4, 8], [1, -3, 9, -27]],
        "four-lines": [[1, 1, 0, 0], [0, 0, 1, 5], [2, 0, 0, 3]],
        "complete-intersection": [
            [1, 1, 1, 1, 1, 1],
            [1, 2, Fraction(1, 2), 1, Fraction(1, 2), 2],
        ],
        "grl36": [recorded_entries["grl36"].base_point],
    }
    for name, points in cases.items():
        pres = recorded_entries[name].presentation
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
