import functools
import hashlib
import random
from fractions import Fraction

import pytest

import catalog_oracle
from legquad import catalog
from legquad.groebner import buchberger
from legquad.legendrian import legendrian_verdict
from legquad.liealg import degree_part
from legquad.poly import MonomialCodec, Polynomial, parse_poly
from legquad.symplectic import pairing_form, standard_form
from legendrian_oracle import tangent_point_check
from liealg_oracle import quadratic_part
from poly_oracle import evaluate, monomials_of_degree, substitute

EXPECTED_QUADRIC_COUNTS = {
    "twisted-cubic": 3,
    "segre-3": 6,
    "segre-4": 9,
    "segre-5": 13,
    "gr36": 35,
    "grl36": 21,
    "spinor-s6": 66,
    "e7": 133,
}


def test_registry_contains_all_fixtures(entries):
    for name in EXPECTED_QUADRIC_COUNTS:
        assert name in entries


def test_quadric_counts(entries):
    for name, count in EXPECTED_QUADRIC_COUNTS.items():
        pres = entries[name].presentation
        quadrics = [g for g in pres.generators if g.homogeneous_degree() == 2]
        assert len(quadrics) == count, name
        assert len(quadratic_part(pres.generators, pres.nvars)) == count, name


def test_base_points_annihilate_generators(entries):
    for name, entry in entries.items():
        if entry.base_point is None:
            assert name.startswith("segre-") and "split" not in name
            continue
        for g in entry.presentation.generators:
            assert evaluate(g, entry.base_point) == 0, name


def test_entry_names_are_their_keys(entries):
    """Every registry key builds an entry of that name, and its dump opens
    with the key."""
    for name in catalog.entry_names():
        assert entries[name].name == name
        assert catalog.dump_entry(entries[name]).startswith(f"# {name}: ")


def test_twisted_cubic_entry(entries):
    """X_f of y0^3: the chart y -> (1, y, -3 y^2, y^3), under the form that
    pairs x0 with x3 and x1 with x2."""
    pres = entries["twisted-cubic"].presentation
    assert pres.form.matrix == pairing_form(4, [(0, 3, 1), (1, 2, 1)]).matrix
    # the chart point at y = 2 lies on all three quadrics
    pt = [evaluate(c, [2]) for c in pres.parametrization]
    assert pt == [1, 2, -12, 8]
    for g in pres.generators:
        assert evaluate(g, pt) == 0


def test_every_generator_vanishes_on_its_entrys_chart(entries):
    """Each of the 11 parametrized entries: every generator, of any degree,
    is the zero polynomial after the chart is substituted into it."""
    charted = [name for name, entry in entries.items() if entry.presentation.parametrization is not None]
    assert charted == ["twisted-cubic", "segre-split-3", "segre-split-4", "segre-split-5", "gr36", "grl36",
                       "spinor-s6", "e7", "xf-cubic-1", "xf-cubic-2", "xf-cubic-3"]
    for name in charted:
        pres = entries[name].presentation
        for g in pres.generators:
            assert substitute(g, pres.parametrization).is_zero(), (name, str(g))


def test_parametrized_entries_pass_tangent_checks(entries):
    rng = random.Random(101)
    for name, entry in entries.items():
        pres = entry.presentation
        if pres.parametrization is None:
            continue
        m = pres.parametrization[0].nvars
        for _ in range(5):
            params = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(m)]
            assert tangent_point_check(pres, params), name


def test_segre_generator_layout(entries):
    pres = entries["segre-5"].presentation
    # n(n-1)/2 exchange quadrics then the three quadric-form generators
    assert pres.generators[0] == parse_poly("x0*x6 - x1*x5", 10)
    assert pres.generators[-1] == parse_poly(
        "x0*x5 + x1*x6 + x2*x7 + x3*x8 + x4*x9", 10
    )


def test_split_segre_matches_its_form(entries):
    """segre-split-m is `line_times_quadric(m)`: X_f of y0 q for the split
    quadric q of so(m) in m - 2 variables, listed by torus weight, so its
    form pairs x<i> with x<2m-1-i>."""
    q = {3: "y1^2", 4: "y1*y2", 5: "y1*y3 + y2^2"}
    for m in (3, 4, 5):
        pres = entries[f"segre-split-{m}"].presentation
        assert pres.form.matrix == pairing_form(2 * m, [(i, 2 * m - 1 - i, 1) for i in range(m)]).matrix
        assert pres.parametrization[-1] == parse_poly(f"y0*({q[m]})", m - 1)


def test_cubic_norm_entries_are_their_charts(entries):
    """Each row is X_f of its cubic norm f, cut out by the quadrics of its
    chart, in the coordinates 1, the chart variables, their -df partners
    mirrored, and f: x<i> pairs with x<N-1-i>, every generator is a quadric,
    and the chart point at y = (1, ..., 1) is the base point."""
    assert list(catalog._CUBIC_NORMS) == ["twisted-cubic", "gr36", "grl36", "spinor-s6", "e7"]
    for name, (_, params, norm) in catalog._CUBIC_NORMS.items():
        entry = entries[name]
        pres = entry.presentation
        f = parse_poly(norm, params)
        nv = 2 * params + 2
        assert pres.parametrization[0].nvars == params and pres.nvars == nv, name
        assert pres.form.matrix == pairing_form(nv, [(i, nv - 1 - i, 1) for i in range(nv // 2)]).matrix
        par = pres.parametrization
        assert par[0] == Polynomial.constant(params, 1) and par[-1] == f, name
        chart_vars = [next(i for i, e in enumerate(next(iter(p.terms))) if e) for p in par[1:params + 1]]
        assert sorted(chart_vars) == list(range(params)), name
        for j, i in enumerate(chart_vars, start=1):
            assert par[j] == Polynomial.variable(params, i), name
            assert par[nv - 1 - j] == -f.partial_derivative(i), name
        assert all(g.homogeneous_degree() == 2 for g in pres.generators), name
        assert entry.base_point == [evaluate(comp, [1] * params) for comp in par], name


def test_reduced_basis_of_each_row_is_its_quadrics(entries):
    """Listed by torus weight, each row's ideal has a quadratic reduced
    grevlex basis: `buchberger`, within the C(q, 2) S-pairs of q quadrics,
    returns q quadrics spanning the entry's own (3, 35, 21, 66 and 133, and
    m(m-1)/2 + 3 for the line times the split quadric of so(m), m = 3..12).
    In the chart order of `x_f`, e7's basis runs past 20000 pairs."""
    builds = {name: entries[name] for name in catalog._CUBIC_NORMS}
    builds.update((f"line_times_quadric({m})", catalog.line_times_quadric(m)) for m in range(3, 13))
    sizes = {}
    for name, entry in builds.items():
        pres = entry.presentation
        count = len(pres.generators)
        basis = buchberger(pres.generators, pres.nvars, max_pairs=count * (count - 1) // 2)
        assert len(basis) == count and all(g.homogeneous_degree() == 2 for g in basis), name
        codec = MonomialCodec(pres.nvars, 2)
        assert degree_part(list(basis) + pres.generators, 2, codec).rank == count, name
        sizes[name] = count
    assert sizes == {"twisted-cubic": 3, "gr36": 35, "grl36": 21, "spinor-s6": 66, "e7": 133,
                     **{f"line_times_quadric({m})": m * (m - 1) // 2 + 3 for m in range(3, 13)}}


def test_spinor_point_with_one_matrix_entry(entries):
    """The chart point of a skew matrix with one upper entry 1: its
    Pfaffian and every 4x4 sub-Pfaffian vanish, so only x0 and x1 are set."""
    pres = entries["spinor-s6"].presentation
    pt = [Fraction(0)] * 32
    pt[0] = Fraction(1)
    pt[1] = Fraction(1)           # the entry (0, 1)
    for g in pres.generators:
        assert evaluate(g, pt) == 0
    # a generic pure-spinor point: all matrix entries 1
    chart_pt = [evaluate(comp, [Fraction(1)] * 15) for comp in pres.parametrization]
    for g in pres.generators:
        assert evaluate(g, chart_pt) == 0


def test_e7_entry_shape(entries):
    pres = entries["e7"].presentation
    assert pres.nvars == 56 and pres.parametrization[0].nvars == 27
    assert pres.form.matrix == pairing_form(56, [(i, 55 - i, 1) for i in range(28)]).matrix
    assert len(pres.generators) == 133
    assert all(g.homogeneous_degree() == 2 for g in pres.generators)


def test_xf_cubic_fixtures(entries):
    # the y0^3 chart in six variables lies in a hyperplane
    degen = entries["xf-cubic-1"].presentation
    assert any(g.degree() == 1 for g in degen.generators)
    # the y0^2 y1 chart is cut out by six quadrics
    surf = entries["xf-cubic-2"].presentation
    assert len(surf.generators) == 6
    assert all(g.homogeneous_degree() == 2 for g in surf.generators)
    # the third chart at implicit degree 3: three quadrics, two cubics
    listed = entries["xf-cubic-3"].presentation
    degrees = sorted(g.homogeneous_degree() for g in listed.generators)
    assert degrees == [2, 2, 2, 3, 3]


def test_xf_small_chart_is_twisted_cubic():
    entry = catalog.x_f(parse_poly("y0^3", 1), implicit_degree=2)
    pres = entry.presentation
    assert pres.nvars == 4
    assert len(pres.generators) == 3
    assert legendrian_verdict(pres).verdict == "legendrian"


# chart polynomial, chart variables -> how many generators `x_f` lists at
# implicit degree 4 in each degree 1..4: every linear form and quadric on
# the chart, and above degree 2 only the forms outside the span of the
# multiples of those kept below
XF_CENSUS = {
    ("y0*y1*(y0+y1)", 2): [0, 3, 2, 0],
    ("y0*y1*y2", 3): [0, 9, 0, 0],
    ("y0^3+y1^3+y2^3", 3): [0, 4, 0, 4],
    ("y0^3+y1^3", 2): [0, 3, 2, 0],
    ("y0^3", 2): [1, 9, 0, 0],
}


def test_xf_lists_only_new_generators_above_degree_2():
    """The census of `XF_CENSUS`, with no generator lost: at each degree d
    the generators span I_d, the `_implicit_forms` of degree d.  With the
    multiples of the quadrics gone, the homogeneous charts y0^2 y1 and
    y0 y1 y2 keep their Kostant certificate at implicit degrees 3 and 4."""
    for (text, nvars), census in XF_CENSUS.items():
        pres = catalog.x_f(parse_poly(text, nvars), implicit_degree=4).presentation
        degrees = [g.homogeneous_degree() for g in pres.generators]
        assert [degrees.count(d) for d in range(1, 5)] == census, text
        for d in range(1, 5):
            full = catalog._implicit_forms(pres.parametrization, pres.nvars, d)
            assert degree_part(pres.generators, d, MonomialCodec(pres.nvars, d)).rank == len(full), (text, d)
    for text, nvars in (("y0^2*y1", 2), ("y0*y1*y2", 3)):
        for degree in (3, 4):
            verdict = legendrian_verdict(catalog.x_f(parse_poly(text, nvars), implicit_degree=degree).presentation)
            assert (verdict.verdict, verdict.certificate) == ("legendrian", "kostant"), (text, degree)


def test_xf_keeps_the_chart_order_and_names_chart_variables_y():
    """`x_f` and the plane-cubic fixtures list the chart as it is built,
    (1, y, (k-2) f, -df) under the standard form, and write f in its own
    variables y0, y1, ... in their names and notes."""
    f = parse_poly("y0^2*y1 + y1^3", 2)
    entry = catalog.x_f(f)
    pres = entry.presentation
    assert pres.form.matrix == standard_form(3).matrix
    assert pres.parametrization == [Polynomial.constant(2, 1), Polynomial.variable(2, 0), Polynomial.variable(2, 1),
                                    f, -f.partial_derivative(0), -f.partial_derivative(1)]
    assert entry.name == "xf-y0^2.y1+y1^3"
    assert entry.provenance_note == "chart built from the degree-3 polynomial y0^2*y1 + y1^3"
    assert catalog.get_entry("xf-cubic-2").provenance_note == "chart built from the degree-3 polynomial y0^2*y1"
    assert "polynomial -y2*y4*y6 + y1*y5*y6" in catalog.get_entry("gr36").provenance_note


def _random_chart_polynomial(rng: random.Random, rational: bool) -> Polynomial:
    """A homogeneous polynomial of degree 2 to 4 in 1 to 3 variables with
    one to four seeded terms, integer or rational."""
    nvars, degree = rng.randint(1, 3), rng.randint(2, 4)
    monos = monomials_of_degree(nvars, degree)
    terms = {}
    for mono in rng.sample(monos, rng.randint(1, min(4, len(monos)))):
        terms[mono] = Fraction(rng.choice((-3, -2, -1, 1, 2, 5)), rng.choice((1, 2, 3)) if rational else 1)
    return Polynomial(nvars, terms)


def test_implicit_forms_match_the_product_kernel():
    """`_implicit_forms` against the `Polynomial`-product kernel of
    `catalog_oracle`, term for term and in order, at implicit degrees 1 to 3,
    on seeded random charts with integer and rational coefficients.  The
    quadratic charts and y0^3 in two variables have a zero component
    ((k-2) f and -df/dy1), whose monomials are free columns of zero image."""
    rng = random.Random(27)
    charts = [_random_chart_polynomial(rng, rational=bool(k % 2)) for k in range(40)]
    charts.append(parse_poly("y0^3", 2))
    assert any(p.homogeneous_degree() == 2 for p in charts)
    terms = lambda polys: [(p.nvars, list(p.terms.items())) for p in polys]
    for f in charts:
        par = catalog.x_f(f).presentation.parametrization
        for degree in (1, 2, 3):
            want = catalog_oracle.implicit_forms(par, len(par), degree)
            assert terms(catalog._implicit_forms(par, len(par), degree)) == terms(want), (f, degree)


def test_xf_rejects_inhomogeneous():
    with pytest.raises(ValueError, match="f must be homogeneous"):
        catalog.x_f(parse_poly("y0^2 + y0", 1))
    with pytest.raises(ValueError, match="the chart polynomial is zero"):
        catalog.x_f(Polynomial.zero(2))


def test_dump_roundtrip(entries):
    from legquad.cli import parse_variety_file

    for name in ("twisted-cubic", "segre-3", "gr36", "four-lines"):
        entry = entries[name]
        text = catalog.dump_entry(entry)
        pres = parse_variety_file(text)
        assert pres.nvars == entry.presentation.nvars
        assert pres.generators == entry.presentation.generators
        assert pres.form.matrix == entry.presentation.form.matrix
        assert pres.form.dual_matrix == entry.presentation.form.dual_matrix


def _pinned_constructions():
    """label -> builder of every construction the pins cover: the registry,
    both line-times-quadric models for n = 3..17 and two implicit charts.
    The family keeps the labels its pins were first recorded under, so each
    pin keeps its test id: `split=False` labels the sum-of-squares model
    `segre_line_quadric(n)`, and `split=True` the split model
    `line_times_quadric(n)`."""
    out = {name: functools.partial(catalog.get_entry, name) for name in catalog.entry_names()}
    for n in range(3, 18):
        out[f"segre_line_quadric({n}, split=False)"] = functools.partial(catalog.segre_line_quadric, n)
        out[f"segre_line_quadric({n}, split=True)"] = functools.partial(catalog.line_times_quadric, n)
    out["x_f(y0^3, 2)"] = lambda: catalog.x_f(parse_poly("y0^3", 2), implicit_degree=2)
    out["x_f(y0^2*y1 + y1^3, 3)"] = lambda: catalog.x_f(parse_poly("y0^2*y1 + y1^3", 2), implicit_degree=3)
    return out


# sha256 of each construction's dump, name, generator terms in insertion
# order, form and dual matrices, base point, parametrization terms, note,
# and the constants "generated" and None where entries once carried a
# source and a data file checksum
_PINS = {
    'twisted-cubic': 'b0dcb458ce76d1dde3157348417c61099ba8c1621549aa7b874324ca1a4c0334',
    'segre-3': 'c2c13fff09bcd008b6baede627c45fe45e85622016c5b99ee7e4388ea3d73803',
    'segre-4': '35e9419b860a9d9e9acc8835f51fb66c85b2b9a93815ececc62cf69efec38e27',
    'segre-5': 'c44b0c4c56f6396a5a2db5065f7e75ed496ae4d9a50e41f45984b06cfd9bb66c',
    'segre-split-3': '8f8ae7b3c10ef0b397c85b44386654d9bd29f77326c536cbb9859e1ce11387db',
    'segre-split-4': '5f0673d59f1cc725382567825e68d7c16e9a628f3401c0e9d910a664c28a6018',
    'segre-split-5': 'ebaaddfa6308f9afd43c034021d48acfc1054cf559c6574e777aa5b5eb7d066d',
    'gr36': 'f24e024c3c9ab9fff91fc3e1120e41c310a6ad63e006ea8366cb74909426602e',
    'grl36': '48cbf81493a80d49d8b95123da42a1f202313eee5f52baea81268ce8693be2ee',
    'spinor-s6': 'c7084283b8685307b65059c4ab11de3f4483374cad6e25fe591e34d5453316c2',
    'e7': 'a0d1c22b05f22408961a72738a35d424588ef6dc9b815d261277c804ef979ba7',
    'xf-cubic-1': '8dfe56ddcb462a693c22644b55c6f220131913e142992842641477555e10b33d',
    'xf-cubic-2': '15f021d5c986ed36801814d04e58a642931e99f5edf176684320ec023e61b36f',
    'xf-cubic-3': '415fe0f6532f96ebf675fcabf2495f25e68c94957abf4b1cc4fd5c89171b5196',
    'complete-intersection': 'bd08b9f71c36776f778674ea1fcd27b180688869ae12f3bd10b2550f289c3190',
    'four-lines': 'aacc3ccc66784dc991bbc5fe270c471a571de5890bbe81a86241be6f06302cd2',
    'linear-lagrangian': 'b6cf457f503897b1c83b60541e3062469503eb1c7acc758c2f7df89f9a353f3a',
    'segre_line_quadric(3, split=False)': 'c2c13fff09bcd008b6baede627c45fe45e85622016c5b99ee7e4388ea3d73803',
    'segre_line_quadric(3, split=True)': '8f8ae7b3c10ef0b397c85b44386654d9bd29f77326c536cbb9859e1ce11387db',
    'segre_line_quadric(4, split=False)': '35e9419b860a9d9e9acc8835f51fb66c85b2b9a93815ececc62cf69efec38e27',
    'segre_line_quadric(4, split=True)': '5f0673d59f1cc725382567825e68d7c16e9a628f3401c0e9d910a664c28a6018',
    'segre_line_quadric(5, split=False)': 'c44b0c4c56f6396a5a2db5065f7e75ed496ae4d9a50e41f45984b06cfd9bb66c',
    'segre_line_quadric(5, split=True)': 'ebaaddfa6308f9afd43c034021d48acfc1054cf559c6574e777aa5b5eb7d066d',
    'segre_line_quadric(6, split=False)': 'a55e75419db84501a37d8052655c1665cd0720fbf2999d178d4991b4b656cb4a',
    'segre_line_quadric(6, split=True)': 'c171ab196dcdd3f5a7b6eee0642190c76d2ea7351f9a2558b8dc84faa8f8746a',
    'segre_line_quadric(7, split=False)': '5414a3204d405d299b8772b4fc60d086fefc8a59eb7d5e054a0c57e83b0a2c28',
    'segre_line_quadric(7, split=True)': 'b4329bc06fc2541527954f40c7dda775f77e0e85dfe351496502552bc504263f',
    'segre_line_quadric(8, split=False)': 'ca877ff0a23bcb80628a94e1a7501fd3e27f505479a61584e76fad0539993425',
    'segre_line_quadric(8, split=True)': '08a128177ea567bf08b7378756d3dc0443b9b1ae064d8e7cb7c2dcbe807245d1',
    'segre_line_quadric(9, split=False)': 'f674aec9a24c40af8230159dc7ed741a0ac9950be1458529ce6a375ea0e9de97',
    'segre_line_quadric(9, split=True)': '505e86ae7029076e6d91439de2a7018a5911ffa92da37ad5bc11d0b033ef1982',
    'segre_line_quadric(10, split=False)': '70e7fad79e3ccbaa4090dbc335cb3eaf660cf56ee6eff713c354614f9c2b626c',
    'segre_line_quadric(10, split=True)': '2051f71c44d31536dd0d5a8a9235970311b00d805b1c3194a66482701e7ca7d5',
    'segre_line_quadric(11, split=False)': '337e142759030d035eafa5fccd920d1e444f07aad3bf8ca88bf7deaf6aa7e5c3',
    'segre_line_quadric(11, split=True)': '678a2f60e9340d78ebb287bbe6ae2d2f9a800696a1f07d63e7c437d1e6227ccf',
    'segre_line_quadric(12, split=False)': '6bec4e5384d9a2f5b91781cc6e232e74c195c181c96cbf9c7aab4933619c457a',
    'segre_line_quadric(12, split=True)': '2c37855ff5e135645e9fc00a182b01a2dd7438a6f4196aa0508ddd6e5352fad8',
    'segre_line_quadric(13, split=False)': '2611a61ea9f21335194e8ad64bf4c82a552de92644f3e9bfc4694301dc4e1004',
    'segre_line_quadric(13, split=True)': '0041de91897c8d783b9005a0d201de2da9c960a5df212125d543939692fe8f88',
    'segre_line_quadric(14, split=False)': 'c70f6e5f55a25539708eed978a5c2e52a5ffb0e5a01df2570fe2ad1cb0f757fe',
    'segre_line_quadric(14, split=True)': 'f9e8f7c9878f230babbca2c245d47b0ee165850092fa101de88598efc97f000c',
    'segre_line_quadric(15, split=False)': '5ed9d6870169c31b8ee3f39618cfeaae1d1c2052eb2147ada8f90180b9a80382',
    'segre_line_quadric(15, split=True)': '7a9fb5256515f55caa7dc8b7fefc9cd3e314ef3ed272441902e9dce728ef9d1d',
    'segre_line_quadric(16, split=False)': '53efd7072fc7377aed588f0a777b85e35933cbec6fe03edc750b3d7d74912e9a',
    'segre_line_quadric(16, split=True)': 'f2a3c6a03f6c603920b81dd2199708e095802056d386ded872a77956eed55038',
    'segre_line_quadric(17, split=False)': '844e0f0820d8c1e38c781a37207a21e24521f28368b70b613b9a3bb148b149d6',
    'segre_line_quadric(17, split=True)': '990b7401b55b801c5433f1b3fce24110543b6efe1e41c1a57c279ae878853535',
    'x_f(y0^3, 2)': '256c8d25d5e54028188f30403ebac6a51dbc94260a45fb7bec2e2d23afa0233a',
    'x_f(y0^2*y1 + y1^3, 3)': '92b82897c29c597be5f87f7277a24cf52b4de6a0f55ce5c6ff1c46efb6668388',
}


@pytest.mark.parametrize("label", list(_PINS))
def test_construction_is_pinned(label):
    entry = _pinned_constructions()[label]()
    pres = entry.presentation
    terms = lambda polys: None if polys is None else [(p.nvars, list(p.terms.items())) for p in polys]
    fields = [catalog.dump_entry(entry), entry.name, terms(pres.generators), pres.form.matrix,
              pres.form.dual_matrix, entry.base_point, terms(pres.parametrization),
              entry.provenance_note, "generated", None]
    assert hashlib.sha256(repr(fields).encode()).hexdigest() == _PINS[label]
