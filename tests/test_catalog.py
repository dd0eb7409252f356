import random
from fractions import Fraction

import pytest

from legquad import catalog
from legquad.catalog import DataIntegrityError
from legquad.legendrian import tangent_point_check
from legquad.poly import parse_poly
from legquad.symplectic import standard_form
from liealg_oracle import quadratic_part
from symplectic_oracle import dual_form

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
            assert g.evaluate(entry.base_point) == 0, name


def test_transcribed_entries_carry_checksums(entries):
    for name in ("gr36", "grl36", "e7"):
        assert entries[name].checksum
    assert entries["twisted-cubic"].checksum is None
    assert entries["twisted-cubic"].source == "generated"
    assert entries["e7"].source == "transcribed"


def test_checksum_table_guards_loads():
    saved = catalog._CHECKSUMS["e7.txt"]
    catalog._CHECKSUMS["e7.txt"] = "0" * 64
    try:
        with pytest.raises(DataIntegrityError):
            catalog.e7_variety()
    finally:
        catalog._CHECKSUMS["e7.txt"] = saved


def test_twisted_cubic_entry(entries):
    entry = entries["twisted-cubic"]
    pres = entry.presentation
    assert pres.form.matrix == [[0, 0, 0, -1], [0, 0, 3, 0], [0, -3, 0, 0], [1, 0, 0, 0]]
    assert dual_form(pres.form).matrix == [[0, 0, 0, 3], [0, 0, -1, 0], [0, 1, 0, 0], [-3, 0, 0, 0]]
    # the parametrized point (1, 2) lies on all three quadrics
    pt = [c.evaluate([1, 2]) for c in pres.parametrization]
    assert pt == [1, 2, 4, 8]
    for g in pres.generators:
        assert g.evaluate(pt) == 0


def test_parametrized_entries_pass_tangent_checks(entries):
    rng = random.Random(101)
    for name, entry in entries.items():
        pres = entry.presentation
        if pres.parametrization is None:
            continue
        m = pres.param_count()
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
    for n in (3, 4, 5):
        entry = entries[f"segre-split-{n}"]
        pres = entry.presentation
        assert pres.form.dim == 2 * n
        # hyperbolic pairing: the form couples k with n + (n-1-k)
        m = pres.form.matrix
        for k in range(n):
            assert m[k][n + (n - 1 - k)] == 1


def test_gr36_pairing_structure(entries):
    form = entries["gr36"].presentation.form
    signs = [form.matrix[i][10 + i] for i in range(10)]
    assert signs == [1, 1, 1, 1, 1, 1, 1, -1, -1, -1]
    assert all(form.matrix[i][j] == 0 for i in range(10) for j in range(10))


def test_grl36_form_is_standard(entries):
    assert entries["grl36"].presentation.form.matrix == standard_form(7).matrix


def test_grl36_first_listed_quadric(entries):
    first = entries["grl36"].presentation.generators[0]
    assert first == parse_poly("4*y3*y7 - 4*y8*y9 - y12^2", 14)
    base = entries["grl36"].base_point
    assert first.evaluate(base) == 0


def test_spinor_point_with_one_matrix_entry(entries):
    """x = 1, one M entry set, everything else forced to zero."""
    pres = entries["spinor-s6"].presentation
    pt = [Fraction(0)] * 32
    pt[0] = Fraction(1)           # x
    pt[1] = Fraction(1)           # m_01
    for g in pres.generators:
        assert g.evaluate(pt) == 0
    # a generic pure-spinor point: all m entries 1
    chart_pt = [comp.evaluate([Fraction(1)] * 15) for comp in pres.parametrization]
    for g in pres.generators:
        assert g.evaluate(chart_pt) == 0


def test_e7_entry_shape(entries):
    pres = entries["e7"].presentation
    assert pres.nvars == 56
    assert pres.form.matrix == standard_form(28).matrix
    assert all(g.homogeneous_degree() == 2 for g in pres.generators)


def test_xf_cubic_fixtures(entries):
    # the y0^3 chart in six variables lies in a hyperplane
    degen = entries["xf-cubic-1"].presentation
    assert any(g.degree() == 1 for g in degen.generators)
    # the y0^2 y1 chart is cut out by six quadrics
    surf = entries["xf-cubic-2"].presentation
    assert len(surf.generators) == 6
    assert all(g.homogeneous_degree() == 2 for g in surf.generators)
    # the listed equations of the third chart: three quadrics, two cubics
    listed = entries["xf-cubic-3"].presentation
    degrees = sorted(g.homogeneous_degree() for g in listed.generators)
    assert degrees == [2, 2, 2, 3, 3]
    for g in listed.generators:
        assert g.substitute(listed.parametrization).is_zero()


def test_xf_small_chart_is_twisted_cubic():
    entry = catalog.x_f(parse_poly("y0^3", 1), implicit_degree=2)
    pres = entry.presentation
    assert pres.nvars == 4
    assert len(pres.generators) == 3
    from legquad.legendrian import legendrian_verdict

    assert legendrian_verdict(pres).verdict == "legendrian"


def test_xf_rejects_inhomogeneous():
    with pytest.raises(ValueError):
        catalog.x_f(parse_poly("y0^2 + y0", 1))


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

