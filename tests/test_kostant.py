"""The Kostant certificate of `legquad.legendrian` against Groebner bases,
the classification scan and inputs built to fail each of its conditions.

A closed quadric input is decided from the algebra of its span when the
certificate holds; every other input falls back to the Groebner basis with
its verdict unchanged.
"""

import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import groebner_oracle
from legquad import catalog
from legquad.classify import enumerate_semisimple_pairs, enumerate_simple
from legquad.groebner import IdealPresentation, buchberger, krull_dimension
from legquad.legendrian import (
    KostantCertificate,
    NotCertified,
    VarietyPresentation,
    kostant_certificate,
    legendrian_verdict,
)
from legquad.liealg import (
    bracket_closure,
    close_and_present,
    identify_algebra,
    split_root_data,
)
from legquad.poly import Polynomial
from legquad.rootdata import _cartan_matrix
from legquad.symplectic import SymplecticForm
from test_span_closure import BUDGET, _permuted, _relabeled_perturbation

# (type, highest weight) of each certified entry, and its cone dimension
CERTIFIED = {
    "twisted-cubic": (["A1"], [(3,)], 2),
    "segre-split-3": (["A1", "A1"], [(1,), (2,)], 3),
    "segre-split-4": (["A1", "A1", "A1"], [(1,), (1,), (1,)], 4),
    "segre-split-5": (["A1", "B2"], [(1,), (1, 0)], 5),
    "gr36": (["A5"], [(0, 0, 1, 0, 0)], 10),
    "grl36": (["C3"], [(0, 0, 1)], 7),
    "xf-cubic-2": (["A1", "A1"], [(1,), (2,)], 3),
    "spinor-s6": (["D6"], [(0, 0, 0, 0, 0, 1)], 16),
    "e7": (["E7"], [(0, 0, 0, 0, 0, 0, 1)], 28),
}
# the Groebner basis does not finish on these in test time
BASIS_UNFINISHED = ("spinor-s6", "e7")
SCALINGS = (-3, -2, -1, 1, 2, 3)


def _groebner_dimension(pres: VarietyPresentation) -> int:
    gb = buchberger(IdealPresentation(pres.generators, pres.nvars))
    return krull_dimension(gb.leading_monomials(), pres.nvars)


def _bracket_witnesses(verdict):
    return [w for w in verdict.witnesses if w.startswith("bracket of generators")]


def _oracle_failing_pairs(pres: VarietyPresentation):
    """The failing generator pairs by division modulo the oracle's basis,
    which shares no code with the closure pass of the verdict."""
    return groebner_oracle.failing_pairs(pres, groebner_oracle.groebner_basis(pres, BUDGET))


def _relabeled(pres: VarietyPresentation, rng) -> VarietyPresentation:
    """Permute the variables, the form and its dual carried along, scale each
    generator by one of +-1, +-2, +-3 and shuffle them."""
    nvars = pres.nvars
    perm = list(range(nvars))
    rng.shuffle(perm)
    gens = []
    for g in pres.generators:
        terms = {}
        for exps, c in g.terms.items():
            moved = [0] * nvars
            for k, e in enumerate(exps):
                moved[perm[k]] = e
            terms[tuple(moved)] = c
        gens.append(Polynomial(nvars, terms).scale(rng.choice(SCALINGS)))
    rng.shuffle(gens)
    form = SymplecticForm(_permuted(pres.form.matrix, perm),
                          dual_matrix=_permuted(pres.form.dual_matrix, perm))
    return VarietyPresentation(f"{pres.name}-relabeled", form, gens)


def _sheared(pres: VarietyPresentation, a: int, b: int) -> VarietyPresentation:
    """The same variety in the coordinates y = S x with y_a = x_a + x_b: a
    generator q becomes q(S^-1 y) and the form S^-T J S^-1."""
    nvars = pres.nvars
    images = [Polynomial.variable(nvars, i) for i in range(nvars)]
    images[a] = images[a] - Polynomial.variable(nvars, b)
    # S^-1 = I - E_ab: J S^-1 takes column a from column b, and S^-T then row a from row b
    matrix = [list(row) for row in pres.form.matrix]
    for row in matrix:
        row[b] -= row[a]
    matrix[b] = [x - y for x, y in zip(matrix[b], matrix[a])]
    gens = [g.substitute(images) for g in pres.generators]
    return VarietyPresentation(f"{pres.name}-sheared", SymplecticForm(matrix), gens)


def _sl2_variety(*blocks: int, trivial_pairs: int = 0) -> VarietyPresentation:
    """sl2 acting on V(k_1) + ... + V(k_m), each k odd, plus trivial_pairs
    symplectic planes it fixes.  V(k) has basis v_0 ... v_k with
    h v_j = (k - 2j) v_j, f v_j = v_(j+1), e v_j = j (k - j + 1) v_(j-1) and
    the invariant form J[i][k - i] = (-1)^i; the generators are the
    quadrics x^T J M x of M = h, e, f, whose sp-images are multiples of M."""
    size = sum(k + 1 for k in blocks) + 2 * trivial_pairs
    form = [[0] * size for _ in range(size)]
    mats = [[[0] * size for _ in range(size)] for _ in range(3)]
    h, e, f = mats
    start = 0
    for k in blocks:
        for i in range(k + 1):
            form[start + i][start + k - i] = (-1) ** i
            h[start + i][start + i] = k - 2 * i
            if i < k:
                f[start + i + 1][start + i] = 1
            if i > 0:
                e[start + i - 1][start + i] = i * (k - i + 1)
        start += k + 1
    for p in range(start, size, 2):
        form[p][p + 1], form[p + 1][p] = 1, -1
    gens = []
    for m in mats:
        terms = {}
        for i, j in itertools.product(range(size), repeat=2):
            x = sum(form[i][l] * m[l][j] for l in range(size))
            if x:
                exps = [0] * size
                exps[i] += 1
                exps[j] += 1
                terms[tuple(exps)] = terms.get(tuple(exps), 0) + Fraction(x)
        gens.append(Polynomial(size, terms))
    name = "+".join(f"V({k})" for k in blocks) + "+V(0)" * (2 * trivial_pairs)
    return VarietyPresentation(name, SymplecticForm(form), gens)


def _assert_falls_back(pres: VarietyPresentation):
    """The verdict is the Groebner route's: span closure and the dimension of
    the basis, with `groebner` as its certificate."""
    verdict = legendrian_verdict(pres)
    closed = not bracket_closure(pres.generators, pres.form)[0]
    dimension = _groebner_dimension(pres)
    assert verdict.certificate == "groebner" and verdict.kostant is None
    assert verdict.bracket_closed == closed
    assert verdict.cone_dimension == dimension
    legendrian = closed and dimension == pres.half_dim
    assert verdict.verdict == ("legendrian" if legendrian else "not-legendrian")
    return verdict


def _certificate_failure(pres: VarietyPresentation) -> str:
    algebra = close_and_present(pres.generators, pres.form)
    with pytest.raises(NotCertified) as err:
        kostant_certificate(pres, algebra)
    return str(err.value)


@pytest.mark.parametrize("name", sorted(CERTIFIED))
def test_certified_entries(entries, name):
    types, weights, dimension = CERTIFIED[name]
    pres = entries[name].presentation
    verdict = legendrian_verdict(pres, budget=1)
    assert verdict.certificate == "kostant" and verdict.budget_name is None
    assert verdict.kostant.types == types and verdict.kostant.highest_weight == weights
    assert verdict.cone_dimension == dimension == pres.half_dim
    assert verdict.verdict == "legendrian" and verdict.witnesses == []
    report = verdict.to_dict()
    assert list(report)[-3:] == ["certificate", "type", "highest_weight"]
    assert report["highest_weight"] == [list(w) for w in weights]


@pytest.mark.parametrize("name", sorted(set(CERTIFIED) - set(BASIS_UNFINISHED)))
def test_certified_dimension_is_the_krull_dimension(entries, name):
    """On the entry and on seeded relabelings: variable permutations with the
    form carried along, and generator scalings by +-1, +-2, +-3."""
    rng = random.Random(f"kostant:{name}")
    base = entries[name].presentation
    types, weights, _ = CERTIFIED[name]
    for pres in [base] + [_relabeled(base, rng) for _ in range(3)]:
        verdict = legendrian_verdict(pres)
        assert verdict.certificate == "kostant", pres.name
        assert (verdict.kostant.types, verdict.kostant.highest_weight) == (types, weights)
        assert verdict.cone_dimension == _groebner_dimension(pres)


@pytest.mark.parametrize("scale", (3, Fraction(-1, 2)))
def test_certificate_is_invariant_under_scaling_the_form(entries, scale):
    """Scaling the form scales the brackets, so the roots of the adjoint
    action and the sp-image entries change scale apart; the weights and the
    simple roots read from the sp-images keep one scale."""
    for name, (types, weights, dimension) in CERTIFIED.items():
        base = entries[name].presentation
        form = SymplecticForm([[x * scale for x in row] for row in base.form.matrix],
                              dual_matrix=[[x / scale for x in row] for row in base.form.dual_matrix])
        verdict = legendrian_verdict(VarietyPresentation(name, form, base.generators))
        assert verdict.certificate == "kostant", name
        assert verdict.kostant == KostantCertificate(types, weights, dimension), name


@functools.lru_cache(maxsize=None)
def _diagram_automorphisms(label: str):
    cartan = _cartan_matrix(label[0], int(label[1:]))
    rank = len(cartan)
    return [p for p in itertools.permutations(range(rank))
            if all(cartan[p[i]][p[j]] == cartan[i][j] for i in range(rank) for j in range(rank))]


@pytest.fixture(scope="module")
def scan_acceptances():
    """(types, weights) of every acceptance of the rank-8 scan under its
    derived caps: simple candidates, pairs and the triple."""
    simple = [((v.type_label,), (v.weight,)) for v in enumerate_simple(8) if v.status == "accepted"]
    products = [(v.factors, v.weights) for v in enumerate_semisimple_pairs(8) if v.status == "accepted"]
    return simple + products


def _orbit_key(types, weights):
    """The factors up to order, each weight up to diagram automorphisms."""
    return tuple(sorted(
        (label, min(tuple(weight[p[i]] for i in range(len(weight))) for p in _diagram_automorphisms(label)))
        for label, weight in zip(types, weights)))


def test_certified_simple_types_are_accepted_by_the_scan(scan_acceptances):
    """The scan keeps one highest weight per diagram automorphism orbit, so
    the spinor variety's omega_6 stands for omega_5 too."""
    accepted = {(types[0], weights[0]) for types, weights in scan_acceptances if len(types) == 1}
    simple = [(t[0], w[0]) for t, w, _ in CERTIFIED.values() if len(t) == 1]
    assert len(simple) == 5
    for label, weight in simple:
        images = {tuple(weight[p[i]] for i in range(len(weight))) for p in _diagram_automorphisms(label)}
        assert any((label, image) in accepted for image in images), (label, weight)
    assert ("D6", (0, 0, 0, 0, 1, 0)) not in accepted
    assert ("D6", (0, 0, 0, 0, 0, 1)) in accepted


def test_certified_types_are_exactly_the_scan_acceptances(entries, scan_acceptances):
    """The paper's list both ways at rank <= 8.  Every Kostant certificate of
    a catalog entry, of one, two or three factors, names a scan acceptance;
    and the constructions of the catalog, the line times each quadric
    (n = 3..17) and the five simple entries, are certified as exactly the
    scan's 20 acceptances, one each."""
    accepted = [_orbit_key(types, weights) for types, weights in scan_acceptances]
    assert len(accepted) == len(set(accepted)) == 20
    for name, (types, weights, _) in CERTIFIED.items():
        assert _orbit_key(types, weights) in accepted, name
    constructions = [catalog.segre_line_quadric(n, split=True).presentation for n in range(3, 18)]
    constructions += [entries[name].presentation
                      for name in ("twisted-cubic", "gr36", "grl36", "spinor-s6", "e7")]
    certified = []
    for pres in constructions:
        verdict = legendrian_verdict(pres)
        assert verdict.certificate == "kostant", pres.name
        certified.append(_orbit_key(verdict.kostant.types, verdict.kostant.highest_weight))
    assert sorted(certified) == sorted(accepted)
    assert _orbit_key(["A1"] * 3, [(1,)] * 3) in certified


@pytest.mark.parametrize("name", ("twisted-cubic", "segre-split-3", "segre-split-5", "grl36"))
def test_dropped_generator_falls_back(entries, name):
    base = entries[name].presentation
    for k in range(len(base.generators)):
        gens = base.generators[:k] + base.generators[k + 1:]
        _assert_falls_back(VarietyPresentation(f"{name}-{k}", base.form, gens))


@pytest.mark.parametrize("name, a, b", [("twisted-cubic", 0, 1), ("twisted-cubic", 2, 0),
                                        ("segre-split-3", 1, 4), ("xf-cubic-2", 0, 5)])
def test_non_diagonal_torus_falls_back(entries, name, a, b):
    """A linear change of coordinates keeps the variety but leaves no torus
    with diagonal sp-images in the generators."""
    pres = _sheared(entries[name].presentation, a, b)
    assert _certificate_failure(pres) == (
        "condition 2: no self-centralizing torus with diagonal sp-images")
    assert _assert_falls_back(pres).verdict == "legendrian"


@pytest.mark.parametrize("added", ((0,), (1,), (0, 1)), ids=["h+g0", "h+g1", "h+g0+g1"])
def test_torus_generator_summed_with_root_vectors_is_certified(entries, added):
    """The torus is every element with a diagonal sp-image, not only the
    basis elements that have one: with h + g0, h + g1 or h + g0 + g1 in
    place of h, no generator has a diagonal image, and the twisted cubic is
    still A1 (3)."""
    base = entries["twisted-cubic"].presentation
    g0, g1, h = base.generators
    for k in added:
        h = h + base.generators[k]
    verdict = legendrian_verdict(VarietyPresentation("twisted-cubic-rewritten", base.form, [g0, g1, h]))
    assert verdict.certificate == "kostant" and verdict.verdict == "legendrian"
    assert verdict.kostant == KostantCertificate(["A1"], [(3,)], 2)


@pytest.mark.parametrize("name", ("twisted-cubic", "segre-split-3", "segre-split-4", "segre-split-5", "grl36"))
def test_certificate_does_not_depend_on_the_basis(entries, name):
    """Seeded replacements of one generator by its sum with another span the
    same algebra, so the Cartan rank, the types and the certificate stay."""
    base = entries[name].presentation
    algebra = close_and_present(base.generators, base.form)
    expected = (split_root_data(algebra).rank, identify_algebra(algebra), legendrian_verdict(base).kostant)
    rng = random.Random(f"basis:{name}")
    for _ in range(4):
        a, b = rng.sample(range(len(base.generators)), 2)
        gens = list(base.generators)
        gens[a] = gens[a] + gens[b]
        algebra = close_and_present(gens, base.form)
        verdict = legendrian_verdict(VarietyPresentation(f"{name}: {a} + {b}", base.form, gens))
        assert verdict.certificate == "kostant", (a, b)
        assert (split_root_data(algebra).rank, identify_algebra(algebra), verdict.kostant) == expected, (a, b)


SHEAR_ENTRIES = ("twisted-cubic", "segre-3", "segre-split-3", "segre-4", "four-lines",
                 "linear-lagrangian", "complete-intersection", "xf-cubic-1", "xf-cubic-2", "grl36")


def _verdict_fields(pres):
    verdict = legendrian_verdict(pres)
    return verdict.verdict, verdict.cone_dimension, verdict.degenerate, verdict.bracket_closed


@pytest.fixture(scope="module")
def unsheared(entries):
    return {name: _verdict_fields(entries[name].presentation) for name in SHEAR_ENTRIES}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SHEAR_ENTRIES), st.data())
def test_shears_keep_the_verdict(entries, unsheared, name, data):
    """One to three shears y_a = x_a + x_b are a change of coordinates: the
    verdict, cone dimension, degeneracy and closure stay; the certificate
    that proves them may change."""
    pres = entries[name].presentation
    nodes = st.integers(0, pres.nvars - 1)
    for _ in range(data.draw(st.integers(1, 3), label="shears")):
        a, b = data.draw(st.lists(nodes, min_size=2, max_size=2, unique=True), label="a, b")
        pres = _sheared(pres, a, b)
    assert _verdict_fields(pres) == unsheared[name]


def test_certificate_and_split_root_data_share_one_root_decomposition(entries, monkeypatch):
    """The certificate reads its weights off the cached `split_root_data`,
    so reading the root data again, as the `algebra` command does, costs no
    second decomposition."""
    from legquad import liealg

    calls = []
    original = liealg.root_decomposition

    def counted(algebra, cartan):
        calls.append(algebra)
        return original(algebra, cartan)

    monkeypatch.setattr(liealg, "root_decomposition", counted)
    pres = entries["grl36"].presentation
    algebra = close_and_present(pres.generators, pres.form)
    kostant_certificate(pres, algebra)
    liealg.split_root_data(algebra)
    assert calls == [algebra]


@pytest.mark.parametrize("name", ("twisted-cubic", "segre-4", "grl36"))
def test_perturbed_inputs_fall_back(entries, name):
    """The perturbed relabelings of the span closure tests: one added
    monomial, or an added generator of degree 1 or 3."""
    rng = random.Random(f"closure:{name}")
    for _ in range(5):
        pres = _relabeled_perturbation(entries[name].presentation, rng)
        verdict = _assert_falls_back(pres)
        failing = _oracle_failing_pairs(pres)
        assert _bracket_witnesses(verdict) == [
            f"bracket of generators {i} and {j} is not in the ideal" for i, j in failing]


def test_verdict_names_every_failing_pair_of_a_quadric_input(entries):
    """The closure pass brackets every pair instead of stopping at the
    first failure, and the verdict names each failing pair."""
    base = entries["grl36"].presentation
    gens = list(base.generators)
    gens[0] = gens[0] + Polynomial(base.nvars, {tuple(int(i in (3, 9)) for i in range(14)): 1})
    pres = VarietyPresentation("grl36-perturbed", base.form, gens)
    failing = _oracle_failing_pairs(pres)
    assert len(failing) > 1
    verdict = legendrian_verdict(pres)
    assert _bracket_witnesses(verdict) == [
        f"bracket of generators {i} and {j} is not in the ideal" for i, j in failing]


def test_dependent_generators_take_the_span_test(entries):
    """A repeated generator, and a multiple of one, leave the span, its
    algebra and the certificate as they are: the algebra is presented on
    the generators that enlarge the span, in order."""
    for name in ("twisted-cubic", "grl36", "e7"):
        base = entries[name].presentation
        types, weights, dimension = CERTIFIED[name]
        for extra in (base.generators[-1], base.generators[0].scale(2)):
            pres = VarietyPresentation(f"{name}-repeated", base.form, base.generators + [extra])
            algebra = close_and_present(pres.generators, pres.form)
            assert algebra.basis == base.generators and algebra.dim == len(base.generators), name
            verdict = legendrian_verdict(pres)
            assert verdict.verdict == "legendrian" and verdict.certificate == "kostant", name
            assert verdict.kostant == KostantCertificate(types, weights, dimension), name


@pytest.mark.parametrize("build, condition", [
    (lambda entries: entries["four-lines"].presentation,
     "condition 1: the quadric algebra is not semisimple"),
    (lambda entries: entries["segre-3"].presentation,
     "condition 2: no self-centralizing torus with diagonal sp-images"),
    # two copies of the twisted cubic's representation under the diagonal sl2
    (lambda entries: _sl2_variety(3, 3), "condition 3: 1 highest weights, on 2 coordinates"),
    (lambda entries: _sl2_variety(1, trivial_pairs=1), "condition 3: 2 highest weights, on 3 coordinates"),
    (lambda entries: _sl2_variety(3, 1), "condition 4: V(lambda) has dimension 4, not 6"),
    (lambda entries: _sl2_variety(1),
     "condition 5: a generator does not vanish at the highest weight vector"),
    (lambda entries: _sl2_variety(5), "condition 6: 3 generators, but the orbit lies on 10 quadrics"),
], ids=["not-semisimple", "non-split", "reducible", "two-highest", "too-small", "not-vanishing",
        "too-few"])
def test_each_condition_rejects_its_input(entries, build, condition):
    """Each input fails exactly at the named condition, and the verdict is
    the Groebner route's."""
    pres = build(entries)
    assert _certificate_failure(pres) == condition
    _assert_falls_back(pres)


def test_sl2_on_the_binary_cubics_is_the_twisted_cubic():
    verdict = legendrian_verdict(_sl2_variety(3))
    assert verdict.certificate == "kostant" and verdict.verdict == "legendrian"
    assert (verdict.kostant.types, verdict.kostant.highest_weight) == (["A1"], [(3,)])


def test_oracle_agrees_on_a_certified_entry(entries):
    """The pair-at-a-time division Buchberger of the oracle gives the same
    dimension as the certificate."""
    pres = entries["segre-split-3"].presentation
    gb = groebner_oracle.groebner_basis(pres, 20_000)
    dimension = krull_dimension(gb.leading_monomials(), pres.nvars)
    assert dimension == legendrian_verdict(pres).cone_dimension == 3
