import pytest

import transcription_oracle
from legquad import catalog
from legquad.liealg import close_and_present


@pytest.fixture(scope="session")
def entries():
    """All catalog entries, built once per session."""
    return {name: catalog.get_entry(name) for name in catalog.entry_names()}


@pytest.fixture(scope="session")
def algebras(entries):
    """Quadric Lie algebras of the nine main fixtures, built once."""
    out = {}
    for name in ("twisted-cubic", "segre-3", "segre-4", "segre-5",
                 "segre-split-3", "gr36", "grl36", "spinor-s6", "e7"):
        pres = entries[name].presentation
        quadrics = [g for g in pres.generators if g.homogeneous_degree() == 2]
        out[name] = close_and_present(quadrics, pres.form)
    return out


@pytest.fixture(scope="session")
def recorded_entries(entries):
    """The catalog entries with the twisted cubic, gr36, grl36, e7 and
    segre-split-3/4/5 in the transcribed or hand-written coordinates that
    pinned bases, pair budgets, bracket tables and torus vectors were
    recorded in."""
    oracle = transcription_oracle
    return {**entries, "twisted-cubic": oracle.twisted_cubic(), "gr36": oracle.gr36(),
            "grl36": oracle.grl36(), "e7": oracle.e7(),
            **{f"segre-split-{n}": oracle.segre_split(n) for n in (3, 4, 5)}}
