"""The span closure test of `legquad.liealg.bracket_closure` and the
hyperplane test of `legquad.legendrian` against Groebner normal forms and
reduced bases (`groebner_oracle`)."""

import math
import random
from fractions import Fraction
from typing import List, Tuple

import pytest

import groebner_oracle
import liealg_oracle
from legquad import catalog
from legquad.groebner import initial_ideal
from legquad.legendrian import VarietyPresentation, degeneracy_check
from legquad.liealg import bracket_closure, degree_part
from legquad.poly import MonomialCodec, Polynomial, parse_poly
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


def _relabeled(pres: VarietyPresentation, rng) -> Tuple[SymplecticForm, List[Polynomial]]:
    """Permute the variables (the form carried along), rescale and shuffle
    the generators."""
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
    return form, gens


def _relabeled_perturbation(pres: VarietyPresentation, rng) -> VarietyPresentation:
    """`_relabeled`, then either add one monomial to a generator, append a
    perturbed multiple of a generator one degree up, or append a linear form.
    The last two give generators of mixed degrees."""
    nvars = pres.nvars
    form, gens = _relabeled(pres, rng)
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


# The entries all of whose generators are quadrics; the closure kernel is
# checked on each, and on seeded relabelings and one-monomial perturbations
# of all but the two largest.
ALL_QUADRIC = ("twisted-cubic", "segre-3", "segre-4", "segre-5", "segre-split-3", "segre-split-4",
               "segre-split-5", "gr36", "grl36", "spinor-s6", "e7", "xf-cubic-2", "four-lines")


def _assert_kernel_matches_oracles(gens, form, normal_forms: bool):
    """Failing pairs, structure constants, the bracket table with its D and
    the sp-images of `bracket_closure` against the Fraction routes of
    `liealg_oracle`, each bracket written over the quadrics by the heap
    elimination of an unreduced span, and, when `normal_forms`, against
    the normal-form closure."""
    failing, algebra = bracket_closure(gens, form)
    oracle = liealg_oracle.structure_constants(gens, form)
    assert failing == sorted(pair for pair, col in oracle.items() if col is None)
    if normal_forms:
        pres = VarietyPresentation("kernel", form, gens)
        assert failing == groebner_oracle.failing_pairs(pres, groebner_oracle.groebner_basis(pres, BUDGET))
    if failing:
        assert algebra is None
        return failing
    assert algebra.dim == len(gens) and dict(algebra.structure) == oracle
    den = math.lcm(*[c.denominator for col in oracle.values() for c in col.values()])
    expected = {}
    for (i, j), col in oracle.items():
        expected[i, j] = {k: c * den for k, c in col.items()}
        expected[j, i] = {k: -c * den for k, c in col.items()}
    table, table_den = algebra.bracket_table()
    assert table_den == den
    assert {(i, j): dict(terms) for i, row in enumerate(table) for j, terms in row.items()} == expected
    for (entries, d), image in zip(algebra.sp_entries(), liealg_oracle.sp_images(algebra)):
        assert {pq: Fraction(x, d) for pq, x in entries.items()} == {
            (p, q): x for p, row in enumerate(image) for q, x in enumerate(row) if x}
    return failing


def test_all_quadric_entries_are_listed(entries):
    assert ALL_QUADRIC == tuple(name for name, entry in entries.items()
                                if all(g.degree() == 2 for g in entry.presentation.generators))


@pytest.mark.parametrize("name", ALL_QUADRIC)
def test_closure_kernel_matches_the_oracles(entries, name):
    pres = entries[name].presentation
    assert _assert_kernel_matches_oracles(pres.generators, pres.form, name in BASIS_FINISHES) == []
    if name in ("spinor-s6", "e7"):
        return
    rng = random.Random(f"kernel:{name}")
    normal_forms = pres.nvars < 20  # the division route takes seconds on relabeled gr36
    failures = 0
    for _ in range(3):
        form, gens = _relabeled(pres, rng)
        assert _assert_kernel_matches_oracles(gens, form, normal_forms) == []
        k = rng.randrange(len(gens))
        gens[k] = gens[k] + Polynomial(pres.nvars, {_random_monomial(rng, pres.nvars, 2): rng.choice((-2, 1, 3))})
        failures += len(_assert_kernel_matches_oracles(gens, form, normal_forms))
    assert failures, name


@pytest.mark.parametrize("name", ALL_QUADRIC)
def test_quadric_span_pivots_are_the_initial_quadrics(entries, name):
    """The pivots of I_2 on monomial columns, unpacked, are the degree-2
    leading monomials that F4 reads off the same ideal."""
    pres = entries[name].presentation
    codec = MonomialCodec(pres.nvars, 2)
    pivots = [codec.unpack(k) for k in reversed(degree_part(pres.generators, 2, codec).pivots)]
    leads = initial_ideal(pres.generators, pres.nvars)
    assert pivots == [m for m in leads if sum(m) == 2]


def test_bracket_kernel_matches_the_oracle_under_a_scaled_dual():
    """`poisson_bracket` against the Fraction bracket of `liealg_oracle` on
    forms whose dual is a scalar multiple of the computed one: the block
    form, and a dense skew form, whose dual rows meet several gradient
    entries each."""
    rng = random.Random(37)
    dense = [[0, 1, 2, -1], [-1, 0, 1, 3], [-2, -1, 0, 1], [1, -3, -1, 0]]
    for matrix in ([[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]], dense):
        computed = SymplecticForm(matrix).dual_matrix
        for scale in (Fraction(-3), Fraction(2, 5)):
            form = SymplecticForm(matrix, dual_matrix=[[scale * x for x in row] for row in computed])
            for _ in range(25):
                f, g = (
                    Polynomial(4, {_random_monomial(rng, 4, rng.randint(0, 4)): Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                                   for _ in range(rng.randint(1, 4))})
                    for _ in range(2)
                )
                expected = liealg_oracle.bracket(liealg_oracle.gradient(f), liealg_oracle.gradient(g), form)
                assert poisson_bracket(f, g, form) == Polynomial(4, expected)
