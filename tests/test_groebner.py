import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from legquad.groebner import (
    BudgetExceeded,
    IdealPresentation,
    ImproperIdealError,
    buchberger,
    initial_ideal,
    krull_dimension,
    normal_form,
)
from legquad.poly import Polynomial, grevlex_key, monomials_of_degree, parse_poly

from groebner_oracle import (
    division_buchberger,
    division_remainder,
    is_groebner_basis,
    krull_dimension_bruteforce,
    linear_part,
    monomial_divides,
)
from poly_oracle import leading_coefficient, monic


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
    assert krull_dimension(buchberger(_cubic_ideal()).leading_monomials(), 4) == 2
    assert krull_dimension([], 5) == 5
    four = buchberger(IdealPresentation([parse_poly("x0*x2", 4), parse_poly("x1*x3", 4)], 4))
    assert krull_dimension(four.leading_monomials(), 4) == 2


def test_krull_dimension_of_e7_quadric_leading_monomials(entries):
    """The 133 leading monomials of e7's quadrics, an echelon basis of the
    degree-2 part of its ideal, leave at most 37 variables free: a bound on
    the cone dimension from degree 2 alone.  The memoised subset recursion
    took 1.6 s and 265 MB on them."""
    from liealg_oracle import quadratic_part

    pres = entries["e7"].presentation
    quadrics = quadratic_part(pres.generators, pres.form.dim)
    assert len(quadrics) == 133
    leads = [g.leading_monomial() for g in quadrics]
    assert krull_dimension(leads, pres.form.dim) == 37


def test_krull_matches_bruteforce_on_random_supports():
    """Branch and bound against the subset scan on monomial sets drawn
    directly, with repeated and nested supports among them."""
    rng = random.Random(78)
    for _ in range(150):
        nvars = rng.randint(1, 12)
        monomials = []
        for _ in range(rng.randint(1, 14)):
            exps = [0] * nvars
            for _ in range(rng.randint(1, 4)):
                exps[rng.randrange(nvars)] += 1
            monomials.append(tuple(exps))
        assert krull_dimension(monomials, nvars) == krull_dimension_bruteforce(monomials, nvars)


def test_improper_ideal_flagged():
    gb = buchberger(IdealPresentation([parse_poly("x0", 2), parse_poly("x0 + 1", 2)], 2))
    with pytest.raises(ImproperIdealError):
        krull_dimension(gb.leading_monomials(), 2)


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
        fast = krull_dimension(gb.leading_monomials(), nvars)
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


# The fewest S-pairs under which each basis finishes.  For a homogeneous
# ideal each step's leading monomials depend only on the ideal, not on how
# the step's rows are reduced, so the pairs each step takes, and these
# counts, stay as they are.  "grl36 + x3*x9" adds that monomial to the first
# generator of grl36.
PAIRS_NEEDED = {"twisted-cubic": 3, "segre-4": 36, "grl36": 231, "grl36 + x3*x9": 1431}


@pytest.mark.parametrize("name", PAIRS_NEEDED)
def test_pair_budget_needed_is_unchanged(entries, name):
    base, _, extra = name.partition(" + ")
    pres = entries[base].presentation
    gens = list(pres.generators)
    if extra:
        gens[0] = gens[0] + parse_poly(extra, pres.nvars)
    ideal = IdealPresentation(gens, pres.nvars)
    needed = PAIRS_NEEDED[name]
    for route in (buchberger, initial_ideal):
        assert route(ideal, max_pairs=needed)
        with pytest.raises(BudgetExceeded) as err:
            route(ideal, max_pairs=needed - 1)
        assert err.value.budget_name == "groebner_pairs"


# The catalog entries whose `check` takes its dimension from a basis, and
# seeded perturbed relabelings of others, named (entry, seed), with the
# fewest S-pairs under which each basis finishes, found by bisection on
# `buchberger` when these cases were written.
INITIAL_IDEAL_PAIRS = {
    ("segre-3", None): 15,
    ("segre-4", None): 36,
    ("segre-5", None): 78,
    ("xf-cubic-1", None): 6,
    ("xf-cubic-3", None): 15,
    ("complete-intersection", None): 15,
    ("four-lines", None): 1,
    ("linear-lagrangian", None): 1,
    ("grl36", 0): 465,
    ("grl36", 1): 1378,
    ("segre-5", 0): 253,
    ("segre-4", 0): 120,
    ("twisted-cubic", 0): 15,
}


def _perturbed_relabeling(pres, rng):
    """The generators under a seeded variable permutation, each scaled by a
    seeded nonzero integer, in shuffled order, with one seeded degree-2
    monomial added to one of them."""
    nvars = pres.nvars
    perm = list(range(nvars))
    rng.shuffle(perm)
    gens = []
    for g in pres.generators:
        scale = rng.choice((-3, -2, -1, 1, 2, 3))
        terms = {}
        for e, c in g.terms.items():
            moved = [0] * nvars
            for k, x in enumerate(e):
                moved[perm[k]] = x
            terms[tuple(moved)] = c * scale
        gens.append(Polynomial(nvars, terms))
    rng.shuffle(gens)
    mono = [0] * nvars
    mono[rng.randrange(nvars)] += 1
    mono[rng.randrange(nvars)] += 1
    k = rng.randrange(len(gens))
    gens[k] = gens[k] + Polynomial(nvars, {tuple(mono): rng.choice((-2, -1, 1, 2))})
    return gens


@pytest.mark.parametrize("name, seed", INITIAL_IDEAL_PAIRS)
def test_initial_ideal_is_the_reduced_basis_leads(entries, name, seed):
    """The dimension route reads the minimal leading monomials off the F4
    steps with no interreduction: they are those of the reduced basis,
    pairwise non-dividing, and both routes finish at the same pair budget
    and run out one pair below it."""
    pres = entries[name].presentation
    gens = pres.generators
    if seed is not None:
        gens = _perturbed_relabeling(pres, random.Random(f"{name}:{seed}"))
    ideal = IdealPresentation(gens, pres.nvars)
    needed = INITIAL_IDEAL_PAIRS[name, seed]
    leads = initial_ideal(ideal, max_pairs=needed)
    assert leads == buchberger(ideal, max_pairs=needed).leading_monomials()
    assert not any(a != b and monomial_divides(a, b) for a in leads for b in leads)
    for route in (buchberger, initial_ideal):
        with pytest.raises(BudgetExceeded):
            route(ideal, max_pairs=needed - 1)


def test_basis_is_reduced():
    gb = buchberger(_cubic_ideal())
    lms = gb.leading_monomials()
    for i, lm in enumerate(lms):
        for j, other in enumerate(lms):
            if i != j:
                assert not monomial_divides(other, lm)
    for g in gb:
        assert leading_coefficient(g) == 1


def _random_poly(rng, nvars, max_deg):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exps = [0] * nvars
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(nvars)] += 1
        terms[tuple(exps)] = Fraction(rng.randint(-5, 5), rng.randint(1, 2))
    return Polynomial(nvars, terms)


# -- the Echelon-based basis and normal forms against the division oracle
#    and sympy ---------------------------------------------------------------


def _random_ideal(rng):
    nvars = rng.randint(2, 4)
    degree = rng.randint(1, 3) if rng.random() < 0.5 else None  # None: inhomogeneous
    gens = []
    for _ in range(rng.randint(1, 4)):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            exps = [0] * nvars
            for _ in range(degree if degree is not None else rng.randint(0, 3)):
                exps[rng.randrange(nvars)] += 1
            terms[tuple(exps)] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        gens.append(Polynomial(nvars, terms))
    return IdealPresentation(gens, nvars)


def _random_ideals():
    rng = random.Random(2024)
    unit = IdealPresentation([parse_poly("x0", 2), parse_poly("x0 + 1", 2)], 2)
    return [unit] + [_random_ideal(rng) for _ in range(150)]


def _sympy_basis(ideal):
    xs = sympy.symbols(f"x0:{ideal.nvars}")
    exprs = [
        sum(sympy.Rational(c.numerator, c.denominator) * sympy.prod(x**e for x, e in zip(xs, m))
            for m, c in g.terms.items())
        for g in ideal.generators
    ]
    out = []
    for g in sympy.groebner(exprs, *xs, order="grevlex", domain="QQ").exprs:
        terms = sympy.Poly(g, *xs).terms()
        out.append(monic(Polynomial(ideal.nvars, {m: Fraction(int(c.p), int(c.q)) for m, c in terms})))
    return sorted(out, key=lambda g: grevlex_key(g.leading_monomial()))


def test_basis_matches_division_oracle_and_sympy():
    for ideal in _random_ideals():
        gb = [str(g) for g in buchberger(ideal)]
        assert gb == [str(g) for g in division_buchberger(ideal)], ideal.generators
        assert gb == [str(g) for g in _sympy_basis(ideal)], ideal.generators


def test_initial_ideal_matches_the_basis_on_random_ideals():
    """On inhomogeneous ideals a later element's leading monomial can divide
    an earlier one's, so the minimal ones must be picked out: they are the
    leading monomials of the reduced basis, in the same order, here from
    the pair-at-a-time oracle."""
    for ideal in _random_ideals():
        leads = division_buchberger(ideal).leading_monomials()
        assert initial_ideal(ideal) == leads, ideal.generators


def test_normal_form_matches_division_oracle():
    rng = random.Random(7)
    for ideal in _random_ideals():
        gb = buchberger(ideal)
        for _ in range(5):
            p = _random_poly(rng, ideal.nvars, 4)
            assert normal_form(p, gb) == division_remainder(p, gb.elements)


@st.composite
def homogeneous_ideals(draw):
    """One to three homogeneous generators in at most four variables, each
    of degree at most 3 with up to three terms and small integer
    coefficients."""
    nvars = draw(st.integers(1, 4))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        monomials = monomials_of_degree(nvars, draw(st.integers(1, 3)))
        support = draw(st.lists(st.sampled_from(monomials), min_size=1, max_size=3, unique=True))
        gens.append(Polynomial(nvars, {m: draw(st.integers(-3, 3).filter(bool)) for m in support}))
    return IdealPresentation(gens, nvars)


@settings(max_examples=60, deadline=None)
@given(homogeneous_ideals())
def test_buchberger_returns_a_reduced_basis_unchanged(ideal):
    """A reduced basis is its own reduced Groebner basis: element for
    element, in the same order."""
    try:
        gb = buchberger(ideal, max_pairs=300)
    except BudgetExceeded:
        assume(False)
    again = buchberger(IdealPresentation(gb.elements, ideal.nvars), max_pairs=300)
    assert again.elements == gb.elements
