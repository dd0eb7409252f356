"""The `result` objects of `check --json` and `algebra --json` on the catalog
entries, pinned key for key and in key order against a stored fixture.

Both run on all 17 entries.  The fixture was written before the monomial
codec went into the kernels, so a kernel change that alters any report fails
here; the `check` reports of spinor-s6 and e7, which only the Kostant
certificate finishes, were added before the verdict read its certificate off
one proof record.
To pin an intended change of the reports, rewrite it with

    PYTHONPATH=src python tests/test_golden_reports.py --write
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from legquad import catalog, cli

FIXTURE = Path(__file__).parent / "data" / "golden_reports.json"


def _result(command: str, name: str, directory: Path) -> dict:
    path = directory / f"{name}.txt"
    if not path.exists():
        path.write_text(catalog.dump_entry(catalog.get_entry(name)))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(["--json", command, str(path)])
    return json.loads(out.getvalue())["result"]


def _reports(directory: Path) -> dict:
    names = catalog.entry_names()
    return {
        "check": {n: _result("check", n, directory) for n in names},
        "algebra": {n: _result("algebra", n, directory) for n in names},
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("command", ("check", "algebra"))
def test_reports_match_the_fixture(golden, command, tmp_path):
    expected = golden[command]
    assert len(expected) == 17
    for name, want in expected.items():
        got = _result(command, name, tmp_path)
        # json.dumps keeps key order, so this compares order as well as content
        assert json.dumps(got) == json.dumps(want), f"{command} {name}"


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    import tempfile

    with tempfile.TemporaryDirectory() as directory:
        FIXTURE.parent.mkdir(exist_ok=True)
        FIXTURE.write_text(json.dumps(_reports(Path(directory)), indent=1) + "\n")
