"""The benchmark's own checks: seeded inputs are reproducible, a wrong answer
is caught, the span test agrees with the catalog, and self time and the
reference-speed scaling are computed as documented.  Run with
`python3 -m pytest perfbench`."""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import inputs, oracles, run, speed, tracing


@pytest.fixture(scope="module")
def catalog():
    _, catalog = run.import_legquad()
    return catalog


def _files(directory: Path):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


QUICK = {"check": 1, "check-perturbed": 0, "algebra": 0}


def test_same_seed_gives_identical_files(catalog, tmp_path):
    first, second, other = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for directory, seed in ((first, 7), (second, 7), (other, 8)):
        directory.mkdir()
        run.build_ops("catalog", seed, catalog, directory)
    assert _files(first) == _files(second)
    assert _files(first).keys() == _files(other).keys()
    assert _files(first) != _files(other)


def test_flipped_expected_answer_is_caught(monkeypatch, tmp_path, capsys):
    # with no degenerate entries expected, the two degenerate ones must fail
    monkeypatch.setattr(oracles, "DEGENERATE", frozenset())
    monkeypatch.setattr(run, "VARIANTS", QUICK)
    monkeypatch.setattr(run, "WORK", tmp_path)
    code = run.main(["--workload", "catalog", "--seed", "3", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == 2 and result["attempted"] == len(oracles.VERDICT_ENTRIES)


def test_span_test_agrees_with_the_catalog(catalog):
    rng = random.Random(5)
    for name in oracles.PERTURB_ENTRIES:
        base = inputs.relabel(inputs.from_entry(catalog.get_entry(name)), rng)
        assert inputs.closure_witness(base) is None, name
        perturbed, (a, b) = inputs.perturb(base, rng)
        assert inputs.closure_witness(perturbed) is not None, name
        assert a < b < len(perturbed.gens)


def test_render_round_trips_through_the_parser(catalog):
    cli, _ = run.import_legquad()
    v = inputs.relabel(inputs.from_entry(catalog.get_entry("twisted-cubic")), random.Random(1))
    pres = cli.parse_variety_file(inputs.render(v, "round trip"))
    assert [dict(g.terms) for g in pres.generators] == v.gens
    assert pres.form.matrix == v.matrix and pres.form.dual_matrix == v.dual


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()
    tracer.spans = [
        ["outer", 0.0, 10.0, -1],
        ["inner", 2.0, 5.0, 0],
        ["inner", 6.0, 7.0, 0],
        ["leaf", 3.0, 4.0, 1],
    ]
    times = tracer.self_times()
    assert times["outer"] == (6.0, 1, 10.0)
    assert times["inner"] == (3.0, 2, 4.0)
    assert times["leaf"] == (1.0, 1, 1.0)
    assert tracer.ancestors_named("leaf", "outer") == 1


def test_hooks_install_and_uninstall():
    cli, _ = run.import_legquad()
    original = cli.parse_variety_file
    tracer = tracing.Tracer()
    tracer.install(tracing.HOOKS)
    try:
        assert tracer.missing == []
        assert cli.parse_variety_file is not original
        cli.parse_variety_file("n=1\nx0^2\n")
    finally:
        tracer.uninstall()
    assert cli.parse_variety_file is original
    assert [s[0] for s in tracer.spans] == ["cli.parse", "linalg.rref"]


def test_refuses_to_run_without_sources(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path)
    argv = [sys.executable, "perfbench/run.py", "--workload", "catalog", "--seed", "1",
            "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_reported_metrics_match_benchmark_json(trace, key, monkeypatch, tmp_path, capsys):
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    monkeypatch.setattr(run, "VARIANTS", QUICK)
    monkeypatch.setattr(run, "WORK", tmp_path)
    code = run.main(["--workload", "catalog", "--seed", "1", "--seconds", "0",
                     "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and result["correct"] is True
    expected = {m["name"]: m["unit"] for m in spec[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_times_are_scaled_by_the_reference_loop_around_them():
    sampler = speed.SpeedSampler()
    # the loop ran at the reference speed until t=10, at half of it after
    sampler.samples = [(t * 0.25, speed.REFERENCE_S * (1 if t * 0.25 < 10 else 2))
                       for t in range(80)]
    clock = run.Clock(sampler)
    assert clock.scaled((2.0, 3.0, 1.0)) == pytest.approx(1.0)
    assert clock.scaled((14.0, 15.0, 2.0)) == pytest.approx(1.0)
    # 8 s at full speed and 8 s at half speed hold 12 s of work at full speed
    assert clock.scaled((2.0, 18.0, 16.0)) == pytest.approx(12.0, rel=0.05)
    assert run.Clock().scaled((2.0, 3.0, 1.5)) == 1.5
