"""The transcribed and hand-written models of `transcription_oracle`
against their pins, against each other and against the catalog's X_f
builds; and the package against shipping data files.
"""

import hashlib
from pathlib import Path

import pytest

import legquad
import transcription_oracle
from legquad import catalog
from legquad.groebner import buchberger
from legquad.legendrian import legendrian_verdict
from legquad.liealg import degree_part
from legquad.poly import MonomialCodec, parse_poly
from legquad.symplectic import standard_form
from poly_oracle import evaluate, substitute
from symplectic_oracle import dual_form


def test_transcriptions_match_their_pins():
    assert set(transcription_oracle.PINS) == {"gr36.txt", "grl36.txt", "e7.txt"}
    for filename, pin in transcription_oracle.PINS.items():
        blob = (transcription_oracle.DATA / filename).read_bytes()
        assert hashlib.sha256(blob).hexdigest() == pin, filename


def test_substituting_into_gr36_gives_the_grl36_span(recorded_entries):
    """The six linear relations take the 35 Gr(3,6) quadrics onto exactly
    the span of the 21 listed ones, and the wedge pairing onto the
    standard block form."""
    substituted, form = transcription_oracle.substituted_gr36()
    listed = recorded_entries["grl36"].presentation.generators
    codec = MonomialCodec(14, 2)
    # two spans of rank 21 are one span when their sum has rank 21 too
    ranks = [degree_part(polys, 2, codec).rank for polys in (substituted, listed, substituted + listed)]
    assert ranks == [21, 21, 21]
    assert form.matrix == standard_form(7).matrix


def test_gr36_pairing_structure(recorded_entries):
    matrix = recorded_entries["gr36"].presentation.form.matrix
    signs = [matrix[i][10 + i] for i in range(10)]
    assert signs == [1, 1, 1, 1, 1, 1, 1, -1, -1, -1]
    assert all(matrix[i][j] == 0 for i in range(10) for j in range(10))


def test_grl36_first_listed_quadric(recorded_entries):
    first = recorded_entries["grl36"].presentation.generators[0]
    assert first == parse_poly("4*y3*y7 - 4*y8*y9 - y12^2", 14)
    assert evaluate(first, recorded_entries["grl36"].base_point) == 0


def test_twisted_cubic_hand_model(recorded_entries):
    """The hand-written form, its dual rescaled by -3, and the parametrized
    point (1, 2) on all three quadrics."""
    pres = recorded_entries["twisted-cubic"].presentation
    assert pres.form.matrix == [[0, 0, 0, -1], [0, 0, 3, 0], [0, -3, 0, 0], [1, 0, 0, 0]]
    assert dual_form(pres.form).matrix == [[0, 0, 0, 3], [0, 0, -1, 0], [0, 1, 0, 0], [-3, 0, 0, 0]]
    pt = [evaluate(c, [1, 2]) for c in pres.parametrization]
    assert pt == [1, 2, 4, 8]
    for g in pres.generators:
        assert evaluate(g, pt) == 0


@pytest.mark.parametrize("name", ("twisted-cubic", "gr36", "grl36", "e7"))
def test_transcriptions_certify_like_their_charts(entries, recorded_entries, name):
    """By Kostant's theorem the quadrics of a certificate cut out the closed
    orbit in P(V(lambda)), so equal types, lambda and dimension make the
    transcription the catalog's X_f up to a linear change of coordinates.
    The certificate needs no basis, so a pair budget of 1 stops a model it
    does not certify at once."""
    chart = legendrian_verdict(entries[name].presentation, budget=1)
    listed = legendrian_verdict(recorded_entries[name].presentation, budget=1)
    assert chart.certificate == listed.certificate == "kostant"
    assert listed.proof == chart.proof
    assert len(recorded_entries[name].presentation.generators) == len(entries[name].presentation.generators)


def test_hand_written_split_model_certifies_like_line_times_quadric():
    """The line times the hyperbolic quadric, written out as 2x2 minors and
    three quadric-form generators, and X_f of y0 q have the same quadric
    count and the same certificate for m = 3..17, so they are one variety
    up to a linear change of coordinates."""
    for m in range(3, 18):
        built = catalog.line_times_quadric(m).presentation
        recorded = transcription_oracle.segre_split(m).presentation
        chart, listed = legendrian_verdict(built, budget=1), legendrian_verdict(recorded, budget=1)
        assert chart.certificate == listed.certificate == "kostant", m
        assert listed.proof == chart.proof, m
        assert len(recorded.generators) == len(built.generators) == m * (m - 1) // 2 + 3, m


def test_listed_xf_cubic_3_equations_cut_out_the_generated_chart():
    """The five listed equations of the chart of y0 y1 (y0 + y1) vanish
    along the chart, and they generate the ideal of the xf-cubic-3 entry
    that `x_f` builds: the two reduced grevlex bases agree."""
    listed = transcription_oracle.xf_cubic_3().presentation
    assert len(listed.generators) == len(transcription_oracle.XF3_EQUATIONS) == 5
    for g in listed.generators:
        assert substitute(g, listed.parametrization).is_zero(), g
    built = catalog.get_entry("xf-cubic-3").presentation
    assert built.parametrization == listed.parametrization
    assert built.form.matrix == listed.form.matrix
    bases = [buchberger(p.generators, p.nvars) for p in (listed, built)]
    assert bases[0] == bases[1]


def test_the_package_ships_no_data_files():
    """Every catalog entry is generated; the transcriptions are test data."""
    package = Path(legquad.__file__).parent
    shipped = [p.name for p in package.rglob("*") if p.is_file() and p.suffix != ".py" and "__pycache__" not in p.parts]
    assert shipped == []
    assert "package-data" not in (package.parents[1] / "pyproject.toml").read_text()
