"""What importing the package loads and binds.

`legquad` exports its names lazily (PEP 562) and each command imports the
layers it runs, so start-up compiles only those; only `--json` loads the
report encoder.  These tests pin the exported names, the modules each
command loads, and the attributes of `legquad.cli` that perfbench's tracer
patches: a command must call those through the module attribute, or a
patched one misses the call."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import legquad
from legquad import catalog, cli, liealg

SRC = Path(legquad.__file__).parents[1]

# Every name `legquad` exports, by the module that defines it.
EXPORTS = {
    "poly": ["Polynomial", "parse_poly", "format_poly"],
    "symplectic": ["SymplecticForm", "VarietyPresentation", "standard_form", "poisson_bracket"],
    "groebner": ["BudgetExceeded", "buchberger", "initial_ideal", "normal_form", "krull_dimension"],
    "legendrian": ["LegendrianVerdict", "legendrian_verdict", "isotropy_identity"],
    "liealg": ["LieAlgebraPresentation", "CartanData", "close_and_present", "cartan_subalgebra",
               "root_decomposition", "identify_type", "identify_algebra"],
    "rootdata": ["AbstractRootSystem", "build_root_system", "Orbit", "orbit", "is_self_dual", "angle_audit"],
    "classify": ["enumerate_simple", "enumerate_semisimple_pairs", "weight_tables", "CandidateVerdict"],
}
EXPORTED = [(module, name) for module, names in EXPORTS.items() for name in names]

# The attributes of `legquad.cli` that perfbench/tracing.py wraps, by the layer defining each.
TRACED = {
    "legendrian_verdict": "legendrian",
    "close_and_present": "liealg",
    "identify_algebra": "liealg",
    "enumerate_simple": "classify",
    "enumerate_semisimple_pairs": "classify",
}


def _python(code: str, *argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=env, timeout=120)


@pytest.mark.parametrize("module, name", EXPORTED, ids=[name for _, name in EXPORTED])
def test_every_export_resolves_to_its_modules_object(monkeypatch, module, name):
    """Each name resolves, by `from legquad import` and as an attribute, to
    the object of the module defining it, also before anything bound it;
    `dir(legquad)` lists it."""
    defined = getattr(importlib.import_module(f"legquad.{module}"), name)
    monkeypatch.delitem(vars(legquad), name, raising=False)
    namespace = {}
    exec(f"from legquad import {name}", namespace)
    assert namespace[name] is defined
    assert getattr(legquad, name) is defined
    assert name in dir(legquad) and name in legquad.__all__


def test_variety_presentation_resolves_in_the_verdict_engine_too():
    from legquad import legendrian, symplectic

    assert legendrian.VarietyPresentation is symplectic.VarietyPresentation is legquad.VarietyPresentation


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        legquad.no_such_name
    with pytest.raises(ImportError):
        exec("from legquad import no_such_name", {})


def test_a_bare_import_loads_no_module_and_binds_each_on_use():
    """`import legquad` compiles no module of the package, and a module the
    eager imports used to bind, such as `legquad.liealg`, resolves."""
    proc = _python(
        "import json, sys, legquad\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('legquad.'))\n"
        "names = [legquad.liealg.__name__, legquad.linalg.__name__, legquad.classify.__name__]\n"
        "print(json.dumps([loaded, names]))\n"
    )
    assert proc.returncode == 0, proc.stderr
    loaded, names = json.loads(proc.stdout)
    assert loaded == [] and names == ["legquad.liealg", "legquad.linalg", "legquad.classify"]


# `python -m legquad.cli ARGS` through runpy, as `-m` runs it, listing the
# package's modules loaded when the interpreter exits
_LOADED_AT_EXIT = (
    "import atexit, runpy, sys\n"
    "atexit.register(lambda: print(*sorted(m for m in sys.modules if m.startswith('legquad.')),"
    " file=sys.stderr))\n"
    "runpy.run_module('legquad.cli', run_name='__main__', alter_sys=True)\n"
)


@pytest.mark.parametrize("argv, loads, skips", [
    (["classify", "--max-rank", "3", "--max-dim", "40"], {"classify", "rootdata"},
     {"groebner", "legendrian", "liealg", "catalog"}),
    (["check", "{cubic}"], {"legendrian", "groebner"}, {"classify", "catalog", "report"}),
    (["catalog"], {"catalog"}, {"groebner", "legendrian", "liealg"}),
    (["catalog", "twisted-cubic"], {"catalog"}, {"groebner", "legendrian", "liealg", "report"}),
    (["--json", "classify", "--max-rank", "3", "--max-dim", "40"], {"classify", "rootdata", "report"},
     {"groebner", "legendrian", "liealg", "catalog"}),
], ids=["classify", "check", "catalog", "catalog-dump", "classify-json"])
def test_each_command_imports_only_its_layers(tmp_path, argv, loads, skips):
    path = tmp_path / "cubic.txt"
    path.write_text(catalog.dump_entry(catalog.get_entry("twisted-cubic")))
    proc = _python(_LOADED_AT_EXIT, *[arg.format(cubic=path) for arg in argv])
    assert proc.returncode == 0, proc.stderr
    loaded = {m.removeprefix("legquad.") for m in proc.stderr.split()}
    assert loads <= loaded and not skips & loaded, sorted(loaded)


@pytest.mark.parametrize("command, called", [
    ("check", {"parse_variety_file": 1, "legendrian_verdict": 1}),
    ("algebra", {"parse_variety_file": 1, "close_and_present": 1, "identify_algebra": 1}),
])
def test_commands_call_the_traced_names(monkeypatch, capsys, tmp_path, command, called):
    """A recorder put on each traced name of `legquad.cli` sees every call
    the command makes: one per layer it runs, none for the others."""
    path = tmp_path / "cubic.txt"
    path.write_text(catalog.dump_entry(catalog.get_entry("twisted-cubic")))
    names = ["parse_variety_file", "legendrian_verdict", "close_and_present", "identify_algebra"]
    calls = dict.fromkeys(names, 0)
    for name in names:
        def recording(*args, _run=getattr(cli, name), _name=name, **kwargs):
            calls[_name] += 1
            return _run(*args, **kwargs)

        monkeypatch.setattr(cli, name, recording)
    assert cli.main([command, str(path)]) == 0
    assert calls == dict.fromkeys(names, 0) | called


def test_traced_names_are_the_layers_own_functions(capsys, tmp_path):
    """After a run, each traced name of `legquad.cli` is its layer's own
    function, not a wrapper that forwards to it."""
    path = tmp_path / "cubic.txt"
    path.write_text(catalog.dump_entry(catalog.get_entry("twisted-cubic")))
    assert cli.main(["algebra", str(path)]) == 0
    assert cli.close_and_present is liealg.close_and_present
    for name, module in TRACED.items():
        assert getattr(cli, name) is getattr(importlib.import_module(f"legquad.{module}"), name)
        assert name in dir(cli)
