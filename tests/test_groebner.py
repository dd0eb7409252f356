import random
from fractions import Fraction

import pytest

from legquad.groebner import (
    BudgetExceeded,
    GroebnerBasis,
    IdealPresentation,
    ImproperIdealError,
    buchberger,
    is_groebner_basis,
    krull_dimension,
    normal_form,
)
from legquad.poly import Polynomial, parse_poly

from groebner_oracle import krull_dimension_bruteforce, linear_part


def _cubic_ideal():
    gens = [
        parse_poly("x0*x2 - x1^2", 4),
        parse_poly("x1*x3 - x2^2", 4),
        parse_poly("x0*x3 - x1*x2", 4),
    ]
    return IdealPresentation(gens, 4)


def test_twisted_cubic_basis():
    gb = buchberger(_cubic_ideal())
    assert len(gb) == 3
    assert is_groebner_basis(gb.elements)
    # idempotent on its own output
    again = buchberger(IdealPresentation(gb.elements, 4))
    assert [str(g) for g in again] == [str(g) for g in gb]


def test_principal_and_coprime_ideals():
    gb = buchberger(IdealPresentation([parse_poly("x0", 4)], 4))
    assert [str(g) for g in gb] == ["x0"]
    four = buchberger(IdealPresentation([parse_poly("x0*x2", 4), parse_poly("x1*x3", 4)], 4))
    assert sorted(str(g) for g in four) == ["x0*x2", "x1*x3"]


def test_normal_form_examples():
    gb = buchberger(_cubic_ideal())
    assert normal_form(parse_poly("x0*x3 - x1*x2", 4), gb).is_zero()
    one = Polynomial.constant(4, 1)
    assert normal_form(one, gb) == one
    assert normal_form(parse_poly("x0^2*x3 - x0*x1*x2", 4), gb).is_zero()


def test_normal_form_invariance_under_ideal_shifts():
    rng = random.Random(31)
    gb = buchberger(_cubic_ideal())
    gens = _cubic_ideal().generators
    for _ in range(40):
        p = _random_poly(rng, 4, 3)
        q = _random_poly(rng, 4, 2)
        g = gens[rng.randrange(len(gens))]
        assert normal_form(p + q * g, gb) == normal_form(p, gb)


def test_determinism():
    a = buchberger(_cubic_ideal())
    b = buchberger(_cubic_ideal())
    assert [str(g) for g in a] == [str(g) for g in b]


def test_krull_dimension_examples():
    assert krull_dimension(buchberger(_cubic_ideal())) == 2
    zero_ideal = GroebnerBasis([], 5)
    assert krull_dimension(zero_ideal) == 5
    four = buchberger(IdealPresentation([parse_poly("x0*x2", 4), parse_poly("x1*x3", 4)], 4))
    assert krull_dimension(four) == 2


def test_improper_ideal_flagged():
    gb = buchberger(IdealPresentation([parse_poly("x0", 2), parse_poly("x0 + 1", 2)], 2))
    with pytest.raises(ImproperIdealError):
        krull_dimension(gb)


def test_krull_matches_bruteforce_on_random_monomial_ideals():
    rng = random.Random(77)
    for _ in range(20):
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
        gb = buchberger(IdealPresentation(gens, nvars))
        fast = krull_dimension(gb)
        slow = krull_dimension_bruteforce(gb.leading_monomials(), nvars)
        assert fast == slow


def test_linear_part_examples():
    assert linear_part(buchberger(_cubic_ideal())) == []
    gb = buchberger(IdealPresentation([parse_poly("x0 + x1", 4), parse_poly("x2*x3", 4)], 4))
    linear = linear_part(gb)
    assert len(linear) == 1
    assert linear[0] == parse_poly("x0 + x1", 4)


def test_budget_raises_distinctly():
    gens = [
        parse_poly("x0^2 + x1*x2", 4),
        parse_poly("x1^2 + x0*x3", 4),
        parse_poly("x2^2 + x3^2 + x0*x1", 4),
        parse_poly("x0*x2 + x1*x3 + x3^2", 4),
    ]
    with pytest.raises(BudgetExceeded) as err:
        buchberger(IdealPresentation(gens, 4), max_pairs=2)
    assert err.value.budget_name == "groebner_pairs"


def test_basis_is_reduced():
    gb = buchberger(_cubic_ideal())
    lms = gb.leading_monomials()
    from legquad.poly import monomial_divides

    for i, lm in enumerate(lms):
        for j, other in enumerate(lms):
            if i != j:
                assert not monomial_divides(other, lm)
    for g in gb:
        assert g.leading_coefficient() == 1


def _random_poly(rng, nvars, max_deg):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exps = [0] * nvars
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(nvars)] += 1
        terms[tuple(exps)] = Fraction(rng.randint(-5, 5), rng.randint(1, 2))
    return Polynomial(nvars, terms)
