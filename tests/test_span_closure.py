"""The span closure test of `legquad.liealg.bracket_closure` and the
hyperplane test of `legquad.legendrian` against Groebner normal forms and
reduced bases (`groebner_oracle`)."""

import random
from fractions import Fraction

import pytest

import groebner_oracle
from legquad import catalog
from legquad.legendrian import VarietyPresentation, degeneracy_check
from legquad.liealg import bracket_closure
from legquad.poly import Polynomial, parse_poly
from legquad.symplectic import SymplecticForm, poisson_bracket

# Buchberger does not finish on spinor-s6 and e7 in test time.
BASIS_FINISHES = tuple(n for n in catalog.entry_names() if n not in ("spinor-s6", "e7"))
PERTURBED = ("twisted-cubic", "segre-4", "grl36", "xf-cubic-1", "xf-cubic-3",
             "complete-intersection")
SEEDS = range(5)
BUDGET = 20_000


def _assert_routes_agree(pres: VarietyPresentation):
    gb = groebner_oracle.groebner_basis(pres, BUDGET)
    failing = bracket_closure(pres.generators, pres.form)[0]
    assert failing == groebner_oracle.failing_pairs(pres, gb)
    linear = groebner_oracle.linear_part(gb)
    assert degeneracy_check(pres) == (linear[0] if linear else None)
    return failing


def _permuted(m, perm):
    out = [[Fraction(0)] * len(m) for _ in m]
    for a, row in enumerate(m):
        for b, x in enumerate(row):
            out[perm[a]][perm[b]] = x
    return out


def _random_monomial(rng, nvars, degree):
    exps = [0] * nvars
    for _ in range(degree):
        exps[rng.randrange(nvars)] += 1
    return tuple(exps)


def _relabeled_perturbation(pres: VarietyPresentation, rng) -> VarietyPresentation:
    """Permute the variables (the form carried along), rescale and shuffle
    the generators, then either add one monomial to a generator, append a
    perturbed multiple of a generator one degree up, or append a linear form.
    The last two give generators of mixed degrees."""
    nvars = pres.nvars
    perm = list(range(nvars))
    rng.shuffle(perm)
    form = SymplecticForm(_permuted(pres.form.matrix, perm),
                          dual_matrix=_permuted(pres.form.dual_matrix, perm))
    gens = []
    for g in pres.generators:
        terms = {}
        for exps, c in g.terms.items():
            moved = [0] * nvars
            for k, e in enumerate(exps):
                moved[perm[k]] = e
            terms[tuple(moved)] = c
        gens.append(Polynomial(nvars, terms).scale(rng.choice((-3, -1, 2, Fraction(1, 2)))))
    rng.shuffle(gens)
    kind = rng.choice(("term", "multiple", "linear"))
    if kind == "term":
        k = rng.randrange(len(gens))
        mono = _random_monomial(rng, nvars, gens[k].degree())
        gens[k] = gens[k] + Polynomial(nvars, {mono: rng.choice((-2, 1, 3))})
    elif kind == "multiple":
        g = rng.choice(gens)
        shift = Polynomial.variable(nvars, rng.randrange(nvars))
        mono = _random_monomial(rng, nvars, g.degree() + 1)
        gens.append(shift * g + Polynomial(nvars, {mono: rng.choice((-1, 2))}))
    else:
        gens.append(Polynomial(nvars, {_random_monomial(rng, nvars, 1): rng.choice((-1, 1, 2))
                                       for _ in range(3)}))
    return VarietyPresentation(f"{pres.name}-perturbed", form, [g for g in gens if not g.is_zero()])


@pytest.mark.parametrize("name", BASIS_FINISHES)
def test_span_closure_matches_normal_forms_on_catalog(entries, name):
    assert _assert_routes_agree(entries[name].presentation) == []


@pytest.mark.parametrize("name", PERTURBED)
def test_span_closure_matches_normal_forms_on_perturbations(entries, name):
    rng = random.Random(f"closure:{name}")
    failures = 0
    for _ in SEEDS:
        pres = _relabeled_perturbation(entries[name].presentation, rng)
        failures += len(_assert_routes_agree(pres))
    assert failures, name


def test_unit_ideal_is_closed_and_lies_in_no_hyperplane():
    pres = VarietyPresentation(
        "unit", SymplecticForm([[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]),
        [parse_poly("x0 + x1", 4), Polynomial.constant(4, 3), parse_poly("x2*x3", 4)],
    )
    assert _assert_routes_agree(pres) == []
    assert degeneracy_check(pres) is None


@pytest.mark.parametrize("name", ("spinor-s6", "e7"))
def test_largest_fixtures_are_closed(entries, name):
    pres = entries[name].presentation
    assert bracket_closure(pres.generators, pres.form)[0] == []


def test_bracket_kernel_matches_gradient_products():
    rng = random.Random(31)
    form = SymplecticForm([[0, 0, 2, 0], [0, 0, 0, 1], [-2, 0, 0, 0], [0, -1, 0, 0]])
    for _ in range(40):
        f, g = (
            Polynomial(4, {_random_monomial(rng, 4, rng.randint(0, 4)): rng.randint(-3, 3)
                           for _ in range(rng.randint(1, 4))})
            for _ in range(2)
        )
        assert poisson_bracket(f, g, form) == groebner_oracle.poisson_bracket(f, g, form)
