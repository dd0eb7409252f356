"""The `--json` report encoder: `report.dumps` writes the bytes of
`json.dumps(obj, indent=2)`, which stays here as the oracle, on every JSON
tree a report can hold, and on the reports of every command."""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from legquad import catalog, cli
from legquad.report import dumps

_BIG = 2 ** 64

leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=_BIG) | st.integers(max_value=-_BIG)
    | st.floats()  # NaN, the infinities and -0.0 among them
    | st.text()
    | st.text(st.characters(max_codepoint=0x1f)) | st.text(st.characters(min_codepoint=0x80))
)
trees = st.recursive(
    leaves,
    lambda children: st.lists(children) | st.lists(st.integers()) | st.dictionaries(st.text(), children),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(trees)
@example([])
@example({})
@example([[], {}, [[]], {"": {}}, {"a": [[]]}])
@example({"\x00\x1fé \ud83d": ["\"\\/\n\t", "λ", "\U0001f600"]})
@example([_BIG, -_BIG - 1, 10 ** 100, 0, -1])
@example([0.0, -0.0, float("nan"), float("inf"), float("-inf"), 1e300, 5e-324, 0.1])
@example({"t": True, "f": False, "n": None, "l": [True, False, None, 1]})
def test_dumps_is_the_stdlib_indent_2_dump(tree):
    assert dumps(tree) == json.dumps(tree, indent=2)


@pytest.mark.parametrize("value, kind", [
    (Fraction(1, 2), "Fraction"),
    ({"a": [1, Fraction(3)]}, "Fraction"),
    ((1, 2), "tuple"),
    ({1: "one"}, "int"),
    ({"a": {2: None}}, "int"),
])
def test_a_value_outside_the_json_types_raises_type_error(value, kind):
    with pytest.raises(TypeError, match=kind):
        dumps(value)


def _argv(tmp_path):
    """One argument list per report kind: every command, and `check` and
    `algebra` on every catalog entry."""
    paths = {}
    for name in catalog.entry_names():
        paths[name] = tmp_path / f"{name}.txt"
        paths[name].write_text(catalog.dump_entry(catalog.get_entry(name)))
    perturbed = tmp_path / "perturbed.txt"
    perturbed.write_text(paths["twisted-cubic"].read_text() + "x0^2\n")
    cubic, segre = str(paths["twisted-cubic"]), str(paths["segre-4"])
    yield ["classify", "--max-rank", "8", "--max-dim", "100"]
    for name, path in paths.items():
        yield ["check", str(path)]
        yield ["algebra", str(path)]
    yield ["check", str(perturbed)]
    yield ["algebra", str(perturbed)]
    yield ["gb", cubic]
    yield ["--budget", "1", "gb", segre]
    yield ["--budget", "1", "check", segre]
    yield ["nf", cubic, "x0*x2*x3 + x1"]
    yield ["bracket", cubic, "0", "1"]
    yield ["xf", "y0^3 + y1^3"]
    yield ["xf", "y0*y1*y2", "--implicit-degree", "4"]
    yield ["curve", "1/3*t^3", "t^2", "t"]
    yield ["curve", "t", "t", "t"]
    yield ["catalog"]


def test_every_report_is_the_stdlib_dump_of_itself(capsys, tmp_path):
    """The `--json` stdout of each command equals the standard library's
    indent-2 dump of the report it parses to, byte for byte; floats
    round-trip through `repr`, so the timings need no masking."""
    seen = set()
    for argv in _argv(tmp_path):
        code = cli.main(["--json", *argv])
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + "\n", argv
        seen.add(code)
    assert seen == {cli.EXIT_OK, cli.EXIT_NEGATIVE, cli.EXIT_UNDECIDED}
