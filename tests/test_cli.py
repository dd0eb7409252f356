import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import legquad
import transcription_oracle
from legquad import catalog
from legquad.poly import parse_poly
from legquad.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_NEGATIVE,
    EXIT_OK,
    EXIT_UNDECIDED,
    EXIT_USAGE,
    main,
    parse_variety_file,
)


# The twisted cubic under its hand-written form and rescaled dual, the
# coordinates these tests' generators and brackets are written in
_CUBIC_DUMP = catalog.dump_entry(transcription_oracle.twisted_cubic())


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_catalog_listing(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == EXIT_OK
    assert "twisted-cubic" in out and "e7" in out


def test_catalog_pipe_to_check(capsys, tmp_path):
    code, out, _ = run(capsys, "catalog", "twisted-cubic")
    assert code == EXIT_OK
    path = tmp_path / "cubic.txt"
    path.write_text(out)
    code, out, _ = run(capsys, "--json", "check", str(path))
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["result"]["verdict"] == "legendrian"
    assert payload["status"] == "ok"


def test_check_negative_exit_code(capsys, tmp_path):
    path = tmp_path / "plane.txt"
    path.write_text("n=2\nx0\n")
    code, out, _ = run(capsys, "check", str(path))
    assert code == EXIT_NEGATIVE


def test_check_undecided_exit_code(capsys, tmp_path):
    # segre-4 has no split torus over Q, so its dimension needs the basis
    code, out, _ = run(capsys, "catalog", "segre-4")
    path = tmp_path / "segre4.txt"
    path.write_text(out)
    code, _, _ = run(capsys, "--budget", "1", "check", str(path))
    assert code == EXIT_UNDECIDED


def test_successive_calls_are_independent(capsys, tmp_path):
    """The parser is built once per process; no option of one call reaches
    the next."""
    from legquad import cli

    code, out, _ = run(capsys, "catalog", "segre-4")
    segre = tmp_path / "segre4.txt"
    segre.write_text(out)
    lines = tmp_path / "lines.txt"
    lines.write_text("n=2\nx0*x2\nx1*x3\n")
    paired = 'json:[["0", "1", "0", "0"], ["-1", "0", "0", "0"], ["0", "0", "0", "1"], ["0", "0", "-1", "0"]]'
    calls = [
        (["--budget", "1", "--json", "check", str(segre)], EXIT_UNDECIDED, "undecided", "groebner_pairs"),
        (["--json", "check", str(segre)], EXIT_OK, "legendrian", None),
        (["--form", paired, "--json", "check", str(lines)], EXIT_NEGATIVE, "not-legendrian", None),
        (["--json", "check", str(lines)], EXIT_OK, "legendrian", None),
    ]
    for argv, want_code, verdict, budget in calls + calls[::-1]:
        code, out, _ = run(capsys, *argv)
        result = json.loads(out)["result"]
        assert (code, result["verdict"], result["budget"]) == (want_code, verdict, budget), argv
    code, out, _ = run(capsys, "catalog")
    assert code == EXIT_OK and out.startswith("[catalog] status: ok")
    assert cli._parser() is cli._parser()


def test_catalog_e7_piped_to_check():
    """`legquad catalog e7 | legquad check -`: the certificate decides it
    with no Groebner basis."""
    env = dict(os.environ, PYTHONPATH=str(Path(legquad.__file__).parents[1]))
    command = [sys.executable, "-m", "legquad.cli"]
    dump = subprocess.Popen(command + ["catalog", "e7"], stdout=subprocess.PIPE, env=env)
    check = subprocess.Popen(command + ["--json", "check", "-"], stdin=dump.stdout,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    dump.stdout.close()  # the check process holds the only reading end
    try:
        out, err = check.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        # without the certificate the Groebner route would exhaust memory
        check.kill()
        dump.kill()
        raise
    assert dump.wait(timeout=30) == EXIT_OK
    assert check.returncode == EXIT_OK and err == b""
    result = json.loads(out)["result"]
    assert result["verdict"] == "legendrian" and result["dimension"] == 28
    assert result["certificate"] == "kostant" and result["type"] == ["E7"]


def test_catalog_e7_piped_to_gb():
    """`legquad catalog e7 | legquad gb -` finishes at the default budget:
    listed by torus weight, e7's reduced basis is its 133 quadrics."""
    env = dict(os.environ, PYTHONPATH=str(Path(legquad.__file__).parents[1]))
    command = [sys.executable, "-m", "legquad.cli"]
    dump = subprocess.run(command + ["catalog", "e7"], capture_output=True, env=env, timeout=30)
    gb = subprocess.run(command + ["--json", "gb", "-"], input=dump.stdout, capture_output=True,
                        env=env, timeout=60)
    assert dump.returncode == gb.returncode == EXIT_OK and gb.stderr == b""
    result = json.loads(gb.stdout)["result"]
    assert result["size"] == 133 and result["dimension"] == 28


def test_failed_closure_is_decided_under_any_budget(capsys, tmp_path):
    # the budget bounds only the cone dimension; the span test still proves
    # that the perturbed twisted cubic is not closed
    out = _CUBIC_DUMP
    assert "\nx2^2 - x1*x3\n" in out
    path = tmp_path / "perturbed.txt"
    path.write_text(out.replace("\nx2^2 - x1*x3\n", "\nx2^2 - x1*x3 + x0^2\n"))
    code, out, _ = run(capsys, "--budget", "1", "--json", "check", str(path))
    assert code == EXIT_NEGATIVE
    result = json.loads(out)["result"]
    assert result["verdict"] == "not-legendrian"
    assert result["budget"] == "groebner_pairs"
    assert result["bracket_closed"] is False and result["dimension"] is None


def test_curve_exit_codes(capsys):
    code, out, _ = run(capsys, "curve", "t", "t", "t")
    assert code == EXIT_NEGATIVE
    code, out, _ = run(capsys, "curve", "1/3*t^3", "t^2", "t")
    assert code == EXIT_OK


def test_bracket_subcommand(capsys, tmp_path):
    path = tmp_path / "cubic.txt"
    path.write_text(_CUBIC_DUMP)
    code, out, _ = run(capsys, "--json", "bracket", str(path), "0", "1")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["result"]["bracket"] == "-x1*x2 + x0*x3"


def test_gb_and_nf(capsys, tmp_path):
    path = tmp_path / "four.txt"
    path.write_text("n=2\nx0*x2\nx1*x3\n")
    code, out, _ = run(capsys, "--json", "gb", str(path))
    payload = json.loads(out)
    assert code == EXIT_OK and payload["result"]["size"] == 2
    code, out, _ = run(capsys, "--json", "nf", str(path), "x0*x2*x3 + x1")
    payload = json.loads(out)
    assert code == EXIT_OK and payload["result"]["normal_form"] == "x1"


def test_algebra_subcommand(capsys, tmp_path):
    code, out, _ = run(capsys, "catalog", "grl36")
    path = tmp_path / "grl.txt"
    path.write_text(out)
    code, out, _ = run(capsys, "--json", "algebra", str(path))
    payload = json.loads(out)
    assert code == EXIT_OK
    assert payload["result"]["dim"] == 21
    assert payload["result"]["types"] == ["C3"]
    assert payload["result"]["cartan_rank"] == 3
    assert payload["result"]["root_count"] == 18


def test_algebra_subcommand_names_the_missing_cartan(capsys, tmp_path):
    code, out, _ = run(capsys, "catalog", "segre-3")
    path = tmp_path / "segre3.txt"
    path.write_text(out)
    code, out, _ = run(capsys, "--json", "algebra", str(path))
    payload = json.loads(out)
    assert code == EXIT_OK
    assert payload["result"]["semisimple"] is True
    assert payload["result"]["cartan_rank"] is None
    assert payload["result"]["root_count"] is None
    assert payload["result"]["cartan_reason"].startswith("NotAdaptedError")


def _cubic_variant(first: str, extra: str = "") -> str:
    """The hand-written twisted cubic's dump with `first` in place of its
    first generator and `extra` appended."""
    return _CUBIC_DUMP.replace("x2^2 - x1*x3\n", first + "\n") + extra


def test_algebra_on_an_open_span_is_a_negative_answer(capsys, tmp_path):
    """Quadrics the bracket does not close are a mathematical negative, as
    `check` calls them, with every failing pair of generators named."""
    path = tmp_path / "open.txt"
    path.write_text(_cubic_variant("x0^2 - x1*x3 + x2^2"))
    code, out, err = run(capsys, "--json", "algebra", str(path))
    payload = json.loads(out)
    assert code == EXIT_NEGATIVE and err == "" and payload["status"] == "ok"
    assert payload["result"] == {"closed": False, "failing_pairs": [[0, 2]]}
    code, _, _ = run(capsys, "check", str(path))
    assert code == EXIT_NEGATIVE
    # a cubic generator in front: the pairs are indices of the file's generators
    path.write_text(_cubic_variant("x0^3\nx0^2 - x1*x3 + x2^2"))
    code, out, _ = run(capsys, "--json", "algebra", str(path))
    assert code == EXIT_NEGATIVE and json.loads(out)["result"]["failing_pairs"] == [[1, 3]]


def test_algebra_presents_the_span_of_repeated_generators(capsys, tmp_path):
    path = tmp_path / "doubled.txt"
    path.write_text(_cubic_variant("x2^2 - x1*x3", "x0*x3 - x1*x2\n2*x2^2 - 2*x1*x3\n"))
    code, out, _ = run(capsys, "--json", "algebra", str(path))
    result = json.loads(out)["result"]
    assert code == EXIT_OK and result["dim"] == 3 and result["types"] == ["A1"]


def test_algebra_splits_a_basis_that_hides_a_factor(capsys, tmp_path):
    """so(3) + so(3) of a sum of squares, in a basis where a fixed Krylov
    start vector lies in one factor, still splits into its two ideals."""
    from test_liealg import krylov_hiding_basis

    path = tmp_path / "hidden.txt"
    path.write_text("n=6\n" + "".join(f"{q}\n" for q in krylov_hiding_basis()))
    code, out, err = run(capsys, "--json", "algebra", str(path))
    assert code == EXIT_OK, err
    payload = json.loads(out)
    assert payload["status"] == "ok"
    assert payload["result"]["dim"] == 6 and payload["result"]["types"] == ["A1", "A1"]


@pytest.mark.parametrize("chart, dim, reason", [
    ("y0^3 + 2*y1^3 + 4*y2^3 - 6*y0*y1*y2", 9, "an algebra of dimension 9 has a centroid of dimension 3 "),
    ("y0*(y1^2 + y2^2)", 9, "an algebra of dimension 9 has a centroid of dimension 3 "),
    (None, 36, "non-split factor of dimension 36 and rank 4 matches 2 simple types: B4, C4"),
])
def test_algebra_that_identification_cannot_name_is_undecided(capsys, tmp_path, chart, dim, reason):
    """A closed semisimple span with a simple factor that no type is proved
    for over Q is undecided, exit 3, not an input error: the x_f charts at
    implicit degree 2 of a norm cubic and of y0 (y1^2 + y2^2), whose
    centroids are larger than Q, and the anisotropic so(9), which B4 and C4
    share."""
    from test_liealg import _so_quadrics

    if chart is None:
        text = "n=9\n" + "".join(f"{q}\n" for q in _so_quadrics(9, 9))
    else:
        text = catalog.dump_entry(catalog.x_f(parse_poly(chart, 3), implicit_degree=2))
    path = tmp_path / "unnamed.txt"
    path.write_text(text)
    code, out, err = run(capsys, "--json", "algebra", str(path))
    assert code == EXIT_UNDECIDED and err == ""
    payload = json.loads(out)
    assert payload["status"] == "undecided"
    result = payload["result"]
    assert list(result) == ["dim", "semisimple", "types", "types_reason", "cartan_rank", "root_count", "cartan_reason"]
    assert result["dim"] == dim and result["semisimple"] is True and result["types"] is None
    assert result["types_reason"].startswith("NotAdaptedError: " + reason)
    assert result["cartan_rank"] is None and result["root_count"] is None
    assert result["cartan_reason"].startswith("NotAdaptedError")


def test_algebra_on_a_large_coefficient_answers_at_once(tmp_path):
    """segre-4, a sum-of-squares model that only the centroid split names,
    with its first generator times 10^12: its centroid elements' minimal
    polynomials have coefficients far past any divisor search, and it still
    names A1, A1, A1.  It runs in a subprocess with a timeout, so a
    regression fails the test instead of hanging the suite."""
    lines = catalog.dump_entry(catalog.get_entry("segre-4")).splitlines()
    first = next(i for i, line in enumerate(lines) if not line.startswith(("#", "n=", "form=")))
    lines[first] = f"{10**12}*({lines[first]})"
    path = tmp_path / "segre-4-scaled.txt"
    path.write_text("\n".join(lines) + "\n")
    env = dict(os.environ, PYTHONPATH=str(Path(legquad.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "legquad.cli", "--json", "algebra", str(path)],
                          capture_output=True, text=True, env=env, timeout=30)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert json.loads(proc.stdout)["result"]["types"] == ["A1", "A1", "A1"]


def test_classify_subcommand(capsys):
    code, out, _ = run(capsys, "--json", "classify", "--max-rank", "3", "--max-dim", "30")
    assert code == EXIT_OK
    payload = json.loads(out)
    accepted = {(row["type"], tuple(row["weight"])) for row in payload["result"]["accepted_simple"]}
    assert accepted == {("A1", (3,)), ("C3", (0, 0, 1))}


def test_classify_without_a_dimension_cap(capsys):
    """The derived caps bound the scan on their own; the report says no
    extra cap was given, and the triple has keys of its own."""
    code, out, _ = run(capsys, "--json", "classify", "--max-rank", "2")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["inputs"] == {"max_rank": 2, "max_dim": None}
    result = payload["result"]
    assert [row["factors"] for row in result["accepted_triples"]] == [["A1", "A1", "A1"]]
    assert result["rejected_triples"] == []
    assert all(len(row["factors"]) == 2 for key in ("accepted_pairs", "rejected_pairs") for row in result[key])


@pytest.mark.parametrize("flag", ["--max-rank", "--max-dim"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_classify_bounds_must_be_positive(capsys, flag, value):
    code, out, err = run(capsys, "classify", flag, value)
    assert code == EXIT_USAGE and out == ""
    assert f"{flag} must be a positive integer, got {value}" in err


@pytest.mark.parametrize("value", ["0", "-2"])
def test_xf_implicit_degree_must_be_positive(capsys, value):
    code, out, err = run(capsys, "xf", "y0^3", "--implicit-degree", value)
    assert code == EXIT_USAGE and out == ""
    assert f"--implicit-degree must be a positive integer, got {value}" in err


def test_xf_names_a_zero_chart_polynomial(capsys):
    code, out, err = run(capsys, "xf", "0*y0")
    assert code == EXIT_USAGE and out == ""
    assert "the chart polynomial is zero" in err and "homogeneous" not in err


@pytest.mark.parametrize("text, message", [
    ("y" + "9" * 5000, "an integer of 5000 digits is above the limit of 4300 (at position 0)"),
    ("y0^3 + y" + "9" * 50, f"variable index {'9' * 50} out of range (nvars=1000) (at position 58)"),
    ("y0^3 + y1000^3", "variable index 1000 out of range (nvars=1000) (at position 12)"),
])
def test_xf_refuses_an_unusable_variable_index_at_its_position(capsys, text, message):
    """An index too long to read, or at least MAX_XF_VARIABLES, is refused
    by the polynomial reader before any list is sized by it."""
    code, out, err = run(capsys, "xf", text)
    assert code == EXIT_USAGE and out == ""
    assert err == f"error: {message}\n"


def test_xf_reads_an_index_after_whitespace(capsys):
    """The grammar lets whitespace part a variable's letter from its index,
    so the chart has as many variables either way."""
    spaced, joined = (run(capsys, "--json", "xf", text) for text in ("y0^3 + y 1^3", "y0^3 + y1^3"))
    assert spaced[0] == joined[0] == EXIT_OK
    assert json.loads(spaced[1])["result"] == json.loads(joined[1])["result"]


def test_xf_subcommand(capsys):
    code, out, _ = run(capsys, "--json", "xf", "y0^3", "--implicit-degree", "2")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["result"]["tangent_checks_pass"] is True
    assert len(payload["result"]["generators"]) == 3
    # the chart polynomial keeps its own variable names, apart from the x's
    assert payload["inputs"]["poly"] == "y0^3" and payload["result"]["name"] == "xf-y0^3"


def test_seed_is_no_option(capsys):
    """`xf` proves its chart by identities and samples no point, so there is
    no seed to set."""
    code, out, _ = run(capsys, "--seed", "5", "xf", "y0^3")
    assert code == EXIT_USAGE and out == ""


def test_xf_lists_no_multiples_of_its_quadrics(capsys):
    """The chart of y0 y1 y2 is cut out by its nine quadrics, so at implicit
    degree 4 `xf` lists those and no form of degree 3 or 4."""
    code, out, _ = run(capsys, "--json", "xf", "y0*y1*y2", "--implicit-degree", "4")
    assert code == EXIT_OK
    generators = [parse_poly(g, 8) for g in json.loads(out)["result"]["generators"]]
    assert len(generators) == 9
    assert all(g.homogeneous_degree() == 2 for g in generators)


def test_usage_errors(capsys, tmp_path):
    code, _, err = run(capsys, "check", str(tmp_path / "missing.txt"))
    assert code == EXIT_USAGE
    path = tmp_path / "bad.txt"
    path.write_text("n=2\nx0 + @\n")
    code, _, err = run(capsys, "check", str(path))
    assert code == EXIT_USAGE and "error" in err
    path.write_text("x0\n")  # missing header
    code, _, err = run(capsys, "check", str(path))
    assert code == EXIT_USAGE


@pytest.mark.parametrize("name, reason", [("missing.txt", "No such file or directory"),
                                          (".", "Is a directory")], ids=["missing", "directory"])
def test_unreadable_variety_file_exits_1(capsys, tmp_path, name, reason):
    path = tmp_path / name
    code, out, err = run(capsys, "check", str(path))
    assert (code, out, err) == (EXIT_USAGE, "", f"error: cannot read the variety file {str(path)!r}: {reason}\n")


def test_unknown_catalog_name_exits_1(capsys):
    code, out, err = run(capsys, "catalog", "nosuch")
    assert (code, out, err) == (EXIT_USAGE, "", "error: unknown catalog entry 'nosuch'\n")


@pytest.mark.parametrize("argv", [["check"], ["gb"], ["nf", "x0"]], ids=["check", "gb", "nf"])
def test_negative_budget_exits_1(capsys, tmp_path, argv):
    """A negative S-pair cap is malformed input, not a resource verdict;
    a zero cap is a legal budget and gets a report."""
    path = tmp_path / "cubic.txt"
    path.write_text(catalog.dump_entry(catalog.get_entry("twisted-cubic")))
    code, out, err = run(capsys, "--budget", "-3", argv[0], str(path), *argv[1:])
    assert (code, out, err) == (EXIT_USAGE, "", "error: --budget must be a non-negative integer, got -3\n")
    code, out, _ = run(capsys, "--json", "--budget", "0", argv[0], str(path), *argv[1:])
    assert code != EXIT_USAGE and json.loads(out)["inputs"]["file"] == str(path)


def test_non_integer_header_names_its_line(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# a comment\nn=abc\nx0\n")
    code, out, err = run(capsys, "check", str(path))
    assert code == EXIT_USAGE and out == ""
    assert "line 2" in err and "'abc'" in err


@pytest.mark.parametrize("text, override, message", [
    ("n=0\nx0\n", None, "line 1: 'n=' needs a positive integer, got '0'"),
    # 'n=' takes ASCII digits only, up to the n of the largest xf chart
    ("n=\u0662\nx0^2\n", None, "line 1: 'n=' needs a positive integer, got '\u0662'"),
    ("n=0_2\nx0^2\n", None, "line 1: 'n=' needs a positive integer, got '0_2'"),
    ("# too large to build\nn=1000000\nx0^2\n", None, "line 2: 'n=' is at most 1001, got '1000000'"),
    ("n=1002\nx0^2\n", None, "line 1: 'n=' is at most 1001, got '1002'"),
    pytest.param("n=" + "9" * 5000 + "\nx0^2\n", None, f"line 1: 'n=' is at most 1001, got '{'9' * 5000}'",
                 id="n-past-the-int-digit-limit"),
    ("n=2\nx0^2 + x1\n", None, "line 2: generator x0^2 + x1 is not homogeneous"),
    ("n=2\n\n# generators\nx0*x2\nx1^3 - x0\n", None, "line 5: generator x1^3 - x0 is not homogeneous"),
    ("n=2\nform=json:{bad\nx0*x2\n", None,
     "line 2: the form is not valid JSON: Expecting property name enclosed in double quotes at character 2"),
    ('n=1\n# one pair\nform=json:{"matrix": [["0", "1"], ["-1", "0"]]}\nx0*x1\n', None,
     "line 3: the form object has no 'dual' entry"),
    ("n=1\nform=json:[[0, 1], [1, 0]]\nx0*x1\n", None,
     "line 2: bad form: symplectic form matrix must be skew-symmetric"),
    ("n=2\nform=json:[[0, 1], [-1, 0]]\nx0*x2\n", None, "line 2: form dimension 2 does not match n=2"),
    ("n=2\nx0*x2\n", "json:{bad",
     "--form: the form is not valid JSON: Expecting property name enclosed in double quotes at character 2"),
    ("n=2\nform=standard\nx0*x2\n", "no-such-form.json",
     "--form: cannot read the form file 'no-such-form.json': No such file or directory"),
    ("n=2\nform=no-such-form.json\nx0*x2\n", None,
     "line 2: cannot read the form file 'no-such-form.json': No such file or directory"),
    ("n=2\nform=standard\nx0*x2\n", 'json:{"matrix": [["0", "1"], ["-1", "0"]]}',
     "--form: the form object has no 'dual' entry"),
    ("n=2\nn=3\nx0\n", None, "line 2: a second 'n=' line; line 1 has the first"),
    ("n=2\nx0*x2\n3/2\n", None, "line 3: generator 3/2 is a nonzero constant, which cuts out nothing"),
    ("n=1\nform=standard\n# again\nform=standard\nx0*x1\n", "standard",
     "line 4: a second 'form=' line; line 2 has the first"),
])
def test_malformed_variety_files_name_the_line(capsys, tmp_path, text, override, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    argv = (["--form", override] if override else []) + ["algebra", str(path)]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}\n")


@pytest.mark.parametrize("entry, negated, value", [
    ("0.1", "-0.1", Fraction(1, 10)), ("-2.5e-3", "2.5E-3", Fraction(-1, 400)), ("1e400", "-1e400", 10 ** 400),
    ("3", "-3", 3), ('"2/3"', '"-2/3"', Fraction(2, 3)),
])
def test_form_numbers_are_read_exactly(entry, negated, value):
    """A JSON number in a form is read from its literal text, not through a
    binary float."""
    pres = parse_variety_file(f"n=1\nform=json:[[0, {entry}], [{negated}, 0]]\nx0*x1\n")
    assert pres.form.matrix == [[0, value], [-value, 0]]


@pytest.mark.parametrize("form, message", [
    ("[[0, true], [-1, 0]]", "entry true is not a number"),
    ("[[0, 1], [false, 0]]", "entry false is not a number"),
    ("[[0, null], [-1, 0]]", "entry null is not a number"),
    ('{"matrix": [[0, 1], [-1, 0]], "dual": [[0, 1], [true, 0]]}', "entry true is not a number"),
    ("[[0, NaN], [-1, 0]]", "entry NaN is not a finite number"),
    ("[[0, Infinity], [-1, 0]]", "entry Infinity is not a finite number"),
    ("[[0, 1], [-Infinity, 0]]", "entry -Infinity is not a finite number"),
    ("[[0, 1e99999], [-1e99999, 0]]", "the exponent of '1e99999' is too large"),
    ('[["0", "1e10000"], ["-1e10000", "0"]]', "the exponent of '1e10000' is too large"),
    ('[["0", "\u0663"], ["-\u0663", "0"]]', "entry '\u0663' has a character outside ASCII"),
])
def test_forms_with_entries_that_are_no_rationals_exit_1(capsys, tmp_path, form, message):
    """Booleans, null, NaN, the infinities, exponents too large to expand
    and strings outside ASCII are refused as a bad form on the form's line,
    with no traceback."""
    path = tmp_path / "bad.txt"
    path.write_text(f"n=1\n# a form that is no matrix of rationals\nform=json:{form}\nx0*x1\n")
    code, out, err = run(capsys, "check", str(path))
    assert (code, out, err) == (EXIT_USAGE, "", f"error: line 3: bad form: {message}\n")


def test_deeply_nested_parentheses_exit_1_on_their_line(capsys, tmp_path):
    """A generator nested deeper than the parser recurses is a parse error
    on its line, with no traceback."""
    path = tmp_path / "deep.txt"
    path.write_text("n=2\nx0*x2\n" + "(" * 600 + "x0*x1" + ")" * 600 + "\n")
    code, out, err = run(capsys, "check", str(path))
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: line 3: parentheses nested too deeply (at position "), err


def test_a_power_past_the_expansion_cap_exits_1_on_its_line(capsys, tmp_path):
    """A power too large for `poly.MAX_EXPANSION` is refused at the power
    before it is expanded: (x0+x1+x2)^1000, 501501 terms, ran past 300 s
    when it was expanded."""
    path = tmp_path / "power.txt"
    path.write_text("n=3\nx0*x3\n(x0+x1+x2)^1000\n")
    started = time.perf_counter()
    code, out, err = run(capsys, "check", str(path))
    assert time.perf_counter() - started < 1
    assert (code, out) == (EXIT_USAGE, "")
    assert err == (
        "error: line 3: too large to expand: up to 501501 terms times power 1000 exceeds 50000 (at position 10)\n"
    ), err


@pytest.mark.parametrize("line, message", [
    ("x0^\u00b2", "expected an integer (at position 3)"),
    ("x\u0663*x0", "expected an integer (at position 1)"),
])
def test_non_ascii_digits_are_parse_errors_on_their_line(capsys, tmp_path, line, message):
    path = tmp_path / "bad.txt"
    path.write_text(f"n=2\nx0*x2\n{line}\n")
    code, out, err = run(capsys, "check", str(path))
    assert (code, out, err) == (EXIT_USAGE, "", f"error: line 3: {message}\n")


@pytest.mark.parametrize("line", ["x0^" + "9" * 5000, "9" * 5000 + "*x0^2"], ids=["exponent", "coefficient"])
def test_integers_past_the_digit_limit_exit_1_on_their_line(capsys, tmp_path, line):
    """An integer longer than `int` reads from a string (4300 digits) is a
    parse error on its line, not an error with no line."""
    path = tmp_path / "long.txt"
    path.write_text(f"n=1\n{line}\n")
    code, out, err = run(capsys, "check", str(path))
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: line 2: an integer of 5000 digits is above the limit of 4300 (at position "), err


@pytest.mark.parametrize("argv", [["check"], ["gb"], ["nf", "x0"], ["bracket", "0", "0"]],
                         ids=["check", "gb", "nf", "bracket"])
def test_exponents_too_wide_for_a_monomial_code_exit_1(capsys, tmp_path, argv):
    """No kernel allocates for an exponent that no packed monomial code
    holds: each command refuses the file with exit 1."""
    path = tmp_path / "wide.txt"
    path.write_text("n=1\nx0^70000 - x1^70000\n")
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert (code, out, err) == (
        EXIT_USAGE, "", "error: line 2: degree 70000 is too large to pack into a monomial code\n")


@pytest.mark.parametrize("argv, line, degree", [
    (["check"], 4, 40000), (["bracket", "1", "0"], 4, 40000), (["bracket", "0", "2"], 5, 32768),
    (["bracket", "2", "2"], 5, 32768),
], ids=["check", "bracket-1-0", "bracket-0-2", "bracket-2-2"])
def test_brackets_too_wide_for_a_monomial_code_name_the_line(capsys, tmp_path, argv, line, degree):
    """A generator packs, but its brackets do not: `check` and `bracket`
    exit 1 naming its line, while `gb` still answers."""
    path = tmp_path / "wide.txt"
    path.write_text("n=1\nx1^2\n# wide ones\nx0^20000\nx0^16384\n")
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert (code, out, err) == (
        EXIT_USAGE, "", f"error: line {line}: degree {degree} is too large to pack into a monomial code\n")
    code, out, _ = run(capsys, "--json", "gb", str(path))
    assert code == EXIT_OK and json.loads(out)["result"]["dimension"] == 0
    code, out, _ = run(capsys, "bracket", str(path), "0", "0")
    assert code == EXIT_OK


@pytest.mark.parametrize("index", ["5", "-1", "2"])
def test_bracket_generator_index_out_of_range(capsys, tmp_path, index):
    path = tmp_path / "two.txt"
    path.write_text("n=2\nx0*x2\nx1*x3\n")
    code, out, err = run(capsys, "bracket", str(path), "0", index)
    assert code == EXIT_USAGE and out == ""
    assert f"generator index {index} out of range" in err and "2 generators" in err


_LONG = "1" * 5000
_LIMIT = f"an integer of 5000 digits is above the limit of {sys.get_int_max_str_digits()}"


@pytest.mark.parametrize("argv, code, text", [
    (["bracket", "{file}", "\u0662", "0"], EXIT_USAGE, "error: expected a coefficient, variable or '(' (at position 0)"),
    (["bracket", "{file}", "0_1", "0"], EXIT_USAGE, "error: trailing input (at position 1)"),
    (["bracket", "{file}", _LONG, "0"], EXIT_USAGE, f"error: {_LIMIT} (at position 0)"),
    (["classify", "--max-rank", "\u0662"], EXIT_USAGE,
     "argument --max-rank: expected an integer in ASCII digits, got '\u0662'"),
    (["classify", "--max-dim", "1_0"], EXIT_USAGE, "argument --max-dim: expected an integer in ASCII digits, got '1_0'"),
    (["--budget", "\u0660", "check", "{file}"], EXIT_USAGE,
     "argument --budget: expected an integer in ASCII digits, got '\u0660'"),
    (["--budget", _LONG, "check", "{file}"], EXIT_USAGE, "argument --budget: invalid _integer value"),
    (["xf", "y0^3", "--implicit-degree", "\u0662"], EXIT_USAGE,
     "argument --implicit-degree: expected an integer in ASCII digits, got '\u0662'"),
    (["bracket", "{file}", "5", "0"], EXIT_USAGE, "generator index 5 out of range"),
    (["bracket", "{file}", "-1", "0"], EXIT_USAGE, "generator index -1 out of range"),
    (["--json", "bracket", "{file}", "+1", "0"], EXIT_OK, '"f": "x1*x3"'),
    (["--json", "bracket", "{file}", " 1 ", "0"], EXIT_OK, '"f": "x1*x3"'),
    (["--json", "bracket", "{file}", "2", "0"], EXIT_OK, '"f": "x0^2"'),
    (["--json", "classify", "--max-rank", " +2 ", "--max-dim", "010"], EXIT_OK, '"max_dim": 10'),
], ids=["arabic-index", "underscore-index", "long-index", "arabic-max-rank", "underscore-max-dim",
        "arabic-budget", "long-budget", "arabic-implicit-degree", "index-5", "index-minus-1", "index-plus-1",
        "index-spaces", "index-2", "flags-sign-and-zeros"])
def test_command_line_integers_are_ascii_digits(capsys, tmp_path, argv, code, text):
    """Every integer a user types, a generator index or a flag's value, is
    an optional sign and ASCII digits with whitespace around: a token that
    `int` alone reads, in another script's digits or with an underscore,
    is a polynomial that `parse_poly` refuses at its position, or a flag's
    value that argparse refuses naming the flag; exit 1 either way."""
    path = tmp_path / "three.txt"
    path.write_text("n=2\nx0*x2\nx1*x3\nx0^2\n")
    got, out, err = run(capsys, *[arg.replace("{file}", str(path)) for arg in argv])
    assert got == code
    if code == EXIT_USAGE:
        assert out == "" and text in err
    else:
        assert text in out


def test_reports_roundtrip_json(capsys, tmp_path):
    path = tmp_path / "four.txt"
    path.write_text("n=2\nx0*x2\nx1*x3\n")
    code, out, _ = run(capsys, "--json", "check", str(path))
    payload = json.loads(out)
    assert json.loads(json.dumps(payload)) == payload
    assert {"command", "inputs", "result", "timings", "status"} <= set(payload)


@pytest.mark.parametrize("argv, inputs, code", [
    (["check", "{cubic}"], ["file", "n"], EXIT_OK),
    (["check", "{plane}"], ["file", "n"], EXIT_NEGATIVE),
    (["--budget", "1", "check", "{segre}"], ["file", "n"], EXIT_UNDECIDED),
    (["bracket", "{cubic}", "0", "1"], ["file", "f", "g"], EXIT_OK),
    (["gb", "{cubic}"], ["file"], EXIT_OK),
    (["--budget", "1", "gb", "{cubic}"], ["file"], EXIT_UNDECIDED),
    (["nf", "{cubic}", "x0^2"], ["file", "poly"], EXIT_OK),
    (["--budget", "1", "nf", "{cubic}", "x0^2"], ["file"], EXIT_UNDECIDED),
    (["algebra", "{cubic}"], ["file"], EXIT_OK),
    (["algebra", "{open}"], ["file"], EXIT_NEGATIVE),
    (["classify", "--max-rank", "2", "--max-dim", "10"], ["max_rank", "max_dim"], EXIT_OK),
    (["catalog"], [], EXIT_OK),
    (["curve", "t", "t", "t"], ["f1", "f2", "f3"], EXIT_NEGATIVE),
    (["xf", "y0^3"], ["poly"], EXIT_OK),
], ids=["check", "check-negative", "check-budget", "bracket", "gb", "gb-budget", "nf", "nf-budget",
        "algebra", "algebra-open", "classify", "catalog", "curve", "xf"])
def test_every_json_report_keeps_the_contract(capsys, tmp_path, argv, inputs, code):
    """Every command's report has the same keys in the same order, the
    inputs its command names, and status `undecided` exactly at exit 3."""
    files = {"plane": "n=2\nx0\n", "open": _cubic_variant("x0^2 - x1*x3 + x2^2")}
    for key, name in (("cubic", "twisted-cubic"), ("segre", "segre-3")):
        files[key] = catalog.dump_entry(catalog.get_entry(name))
    for key, text in files.items():
        (tmp_path / f"{key}.txt").write_text(text)
    argv = [a.format(**{key: str(tmp_path / f"{key}.txt") for key in files}) for a in argv]
    got, out, _ = run(capsys, "--json", *argv)
    payload = json.loads(out)
    assert got == code
    assert list(payload) == ["command", "inputs", "result", "timings", "status"]
    assert payload["command"] == next(a for a in argv if not a.startswith("-") and not a.isdigit())
    assert list(payload["inputs"]) == inputs
    assert list(payload["timings"]) == (["simple", "pairs"] if argv[0] == "classify" else ["total"])
    assert (payload["status"] == "undecided") == (code == EXIT_UNDECIDED)
    assert payload["status"] in ("ok", "undecided")


def test_parse_variety_file_formats():
    pres = parse_variety_file("n=2\nform=standard\nx0*x2\n# comment\nx1*x3\n")
    assert pres.nvars == 4 and len(pres.generators) == 2
    with pytest.raises(Exception):
        parse_variety_file("form=standard\nx0\n")


def test_closed_stdout_exits_quietly():
    """The reader of the pipe is gone before the report is written, as in
    `legquad --json classify ... | head -c 10`: no traceback, exit 141."""
    env = dict(os.environ, PYTHONPATH=str(Path(legquad.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "legquad.cli", "--json", "classify", "--max-rank", "3",
         "--max-dim", "40"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()  # before the child can have imported legquad
    with proc.stderr:
        err = proc.stderr.read()
    assert proc.wait(timeout=120) == EXIT_BROKEN_PIPE
    assert err == b""


_FRAGMENTS = [
    "n=1", "n=2", "n=0", "n=abc", "n=",
    "form=standard", "form=json:[[0, 1], [-1, 0]]", "form=json:{bad", "form=json:[[0, 1], [1, 0]]",
    "form=no-such-form.json",
    "# a comment", "x0*x1  # a trailing comment", "", "   ",
    "x0*x2", "x1*x3", "x0^2", "x0*x1", "x1", "3/2*x0*x1 - x2*x3", "x0^2 + x1", "x9", "x0*",
    "x0^70000 - x1^70000", "1",
    "form=json:[[0, 1e400], [-1e400, 0]]", "form=json:[[0, NaN], [NaN, 0]]", "form=json:[[0, true], [-1, 0]]",
    "(" * 600 + "x0*x1" + ")" * 600, 'form=json:[["0","\u0663"],["-\u0663","0"]]',
    "(x0+x1+x2)^1000",
]
_EXIT_ONE_PREFIXES = re.compile(r"error: (line \d+: |--form: |missing 'n=<n>' header)")


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["n=2", "n=1", ""]), st.lists(st.sampled_from(_FRAGMENTS), max_size=6))
def test_check_on_fragment_files_exits_cleanly(tmp_path_factory, header, lines):
    """`check` on any short file of headers, forms, comments, blanks and
    polynomials returns an exit code of the command line and raises nothing;
    every usage error names its line, `--form` or the missing header.  Most
    files open with a good header, so that the rest of the file is read."""
    path = tmp_path_factory.mktemp("fuzz") / "input.txt"
    path.write_text("\n".join([header] + lines) + "\n")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["check", str(path)])
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_NEGATIVE, EXIT_UNDECIDED)
    if code == EXIT_USAGE:
        assert _EXIT_ONE_PREFIXES.match(err.getvalue()), err.getvalue()
