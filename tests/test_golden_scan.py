"""The `result` object of `classify --json --max-rank 8 --max-dim 100`, the
paper's rerun, pinned verdict for verdict and in order against a stored
fixture.

Every simple, pair and triple verdict is kept, one line each, with its
key order.  A change to `rootdata` or to the scan filters that alters any
verdict, reason, dimension or the order of the lists fails here.  To pin an
intended change of the scan, rewrite the fixture with

    PYTHONPATH=src python tests/test_golden_scan.py --write
"""

import contextlib
import io
import json
import sys
from pathlib import Path

from legquad import cli

FIXTURE = Path(__file__).parent / "data" / "golden_scan.json"
ARGS = ["--json", "classify", "--max-rank", "8", "--max-dim", "100"]


def _result() -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(ARGS) == 0
    return json.loads(out.getvalue())["result"]


def _dump(result: dict) -> str:
    """One line per verdict: the lists in the order the report gives them."""
    blocks = []
    for key, verdicts in result.items():
        lines = ",\n".join("  " + json.dumps(v) for v in verdicts)
        blocks.append(f" {json.dumps(key)}: [\n{lines}\n ]")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def test_scan_matches_the_fixture():
    want = json.loads(FIXTURE.read_text())
    got = _result()
    assert list(got) == list(want)
    for key in want:
        assert len(got[key]) == len(want[key]), key
        for g, w in zip(got[key], want[key]):
            # json.dumps keeps key order, so this compares order as well as content
            assert json.dumps(g) == json.dumps(w), key
    assert sum(len(v) for v in want.values()) == 116


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(_dump(_result()))
