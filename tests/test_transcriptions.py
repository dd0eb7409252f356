"""The transcribed Gr(3,6) and Gr_L(3,6) lists of `transcription_oracle`
against their pins, against each other and against the catalog's X_f
builds; and the data files the package ships against its checksum table.
"""

import hashlib
from pathlib import Path

import pytest

import legquad
import transcription_oracle
from legquad import catalog
from legquad.legendrian import legendrian_verdict
from legquad.liealg import degree_part
from legquad.poly import MonomialCodec, parse_poly
from legquad.symplectic import standard_form


def test_transcriptions_match_their_pins():
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
    ranks = [degree_part(polys, 2, codec)[0].rank for polys in (substituted, listed, substituted + listed)]
    assert ranks == [21, 21, 21]
    assert form.matrix == standard_form(7).matrix


def test_gr36_pairing_structure(recorded_entries):
    form = recorded_entries["gr36"].presentation.form
    signs = [form.matrix[i][10 + i] for i in range(10)]
    assert signs == [1, 1, 1, 1, 1, 1, 1, -1, -1, -1]
    assert all(form.matrix[i][j] == 0 for i in range(10) for j in range(10))


def test_grl36_first_listed_quadric(recorded_entries):
    first = recorded_entries["grl36"].presentation.generators[0]
    assert first == parse_poly("4*y3*y7 - 4*y8*y9 - y12^2", 14)
    assert first.evaluate(recorded_entries["grl36"].base_point) == 0


@pytest.mark.parametrize("name", ("gr36", "grl36"))
def test_transcriptions_certify_like_their_charts(entries, recorded_entries, name):
    """By Kostant's theorem the quadrics of a certificate cut out the closed
    orbit in P(V(lambda)), so equal types, lambda and dimension make the
    transcription the catalog's X_f up to a linear change of coordinates."""
    chart = legendrian_verdict(entries[name].presentation)
    listed = legendrian_verdict(recorded_entries[name].presentation)
    assert chart.certificate == listed.certificate == "kostant"
    assert listed.kostant == chart.kostant
    assert len(recorded_entries[name].presentation.generators) == len(entries[name].presentation.generators)


def test_shipped_data_files_are_the_checksummed_ones():
    """No data file ships without a checksum, and no checksum names a file
    that is gone."""
    data = Path(legquad.__file__).parent / "data"
    assert {p.name for p in data.glob("*.txt")} == set(catalog._CHECKSUMS)
