"""The `result` objects of `gb --json` on the catalog entries whose basis
finishes in test time (all but spinor-s6 and e7), pinned element for element
and in key order against a stored fixture.  The twisted cubic, gr36, grl36
and segre-split-3/4/5 are read in the hand-written and transcribed
coordinates of `transcription_oracle`, which the fixture was written in.

The reduced grevlex basis of an ideal is unique, so any change to the
Groebner kernel that alters an element, the basis order or the dimension
fails here.  To pin an intended change, rewrite the fixture with

    PYTHONPATH=src python tests/test_golden_bases.py --write
"""

import contextlib
import functools
import io
import json
import sys
from pathlib import Path

import pytest

import transcription_oracle
from legquad import catalog, cli

FIXTURE = Path(__file__).parent / "data" / "golden_bases.json"
UNFINISHED = ("spinor-s6", "e7")
TRANSCRIBED = {"twisted-cubic": transcription_oracle.twisted_cubic, "gr36": transcription_oracle.gr36,
               "grl36": transcription_oracle.grl36,
               **{f"segre-split-{n}": functools.partial(transcription_oracle.segre_split, n) for n in (3, 4, 5)}}


def _result(name: str, directory: Path) -> dict:
    entry = TRANSCRIBED[name]() if name in TRANSCRIBED else catalog.get_entry(name)
    path = directory / f"{name}.txt"
    path.write_text(catalog.dump_entry(entry))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["--json", "gb", str(path)]) == 0
    return json.loads(out.getvalue())["result"]


def _bases(directory: Path) -> dict:
    return {n: _result(n, directory) for n in catalog.entry_names() if n not in UNFINISHED}


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


def test_bases_match_the_fixture(golden, tmp_path):
    assert len(golden) == 15
    for name, want in golden.items():
        got = _result(name, tmp_path)
        # json.dumps keeps key order, so this compares order as well as content
        assert json.dumps(got) == json.dumps(want), name


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    import tempfile

    with tempfile.TemporaryDirectory() as directory:
        FIXTURE.write_text(json.dumps(_bases(Path(directory)), indent=1) + "\n")
