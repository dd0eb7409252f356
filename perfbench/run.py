"""Seeded benchmark of the legquad command line, one workload per process.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 35

A run imports legquad from the checkout's `src`, writes its seeded variety
files under `.perfbench_work/`, then calls `legquad.cli.main([..., "--json",
...])` on them one op at a time (one client, closed loop, no threads), which
times parsing, computing and the report as `legquad check FILE --json` does,
without interpreter start-up.  Every report is parsed and checked against the
answers in `oracles.py`.  Untraced times are reported at the reference speed
of `speed.py`; the times as measured are on the `info` line.  The last line
of standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
metrics of a traced pass with `--trace 1`.  A wrong, undecided or failed op
makes the run exit with code 1.  `--all` runs every workload untraced and
traced, each in its own process, and prints every metric with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import importlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

if __name__ == "__main__":
    sys.path[0] = str(ROOT)

from perfbench import inputs, oracles, speed, tracing  # noqa: E402

WORKLOADS = ("catalog", "scan")

# The catalog workload runs three kinds of op; each kind draws its inputs
# from a stream of its own, so one kind's files do not depend on the others.
# Relabelings change the cost of an entry (gr36 check takes 0.5-0.9 s across
# them), so a pass holds several to keep the spread between seeds small.
# The three heaviest algebra entries (about 13 s of the pass) appear once.
KINDS = ("check", "check-perturbed", "algebra")
VARIANTS = {"check": 8, "check-perturbed": 8, "algebra": 2}
SINGLE_VARIANT = frozenset({"segre-5", "spinor-s6", "e7"})
SETUP_REPEATS = 3
TAIL_BEYOND = 10

# ROADMAP baseline table, compared against the traced run.
ROADMAP_BASELINE_S = {
    "identify_algebra segre-5": 9.5,
    "enumerate_simple(8, 100)": 17.7,
    "enumerate_semisimple_pairs(8, 100)": 22.1,
}


class SourceMissing(RuntimeError):
    """The checkout holds no legquad sources to benchmark."""


@dataclass
class Op:
    kind: str
    label: str
    argv: List[str]
    check: Callable[[int, dict], List[str]]


class Clock:
    """perf_counter without the speed sampler's own time; `stamp` pairs the
    real time, which places a measurement among the samples, with it."""

    def __init__(self, sampler: Optional[speed.SpeedSampler] = None):
        self.sampler = sampler

    def stamp(self) -> Tuple[float, float]:
        real = time.perf_counter()
        return real, real - (self.sampler.spent if self.sampler else 0.0)

    def interval(self, began: Tuple[float, float]) -> Tuple[float, float, float]:
        """(real start, real end, seconds) of the interval since `began`."""
        end = self.stamp()
        return began[0], end[0], end[1] - began[1]

    def scaled(self, interval: Tuple[float, float, float]) -> float:
        """Seconds at the reference speed, or as measured without a sampler."""
        start, end, seconds = interval
        return seconds * self.sampler.scale(start, end) if self.sampler else seconds


@dataclass
class Measurement:
    passes: List[List[Tuple[float, float, float]]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def pass_seconds(self, clock: Clock, raw: bool = False) -> List[float]:
        return [sum(iv[2] if raw else clock.scaled(iv) for iv in p) for p in self.passes]

    def latencies(self, clock: Clock) -> List[float]:
        return [clock.scaled(iv) for p in self.passes for iv in p]


# -- set-up -------------------------------------------------------------------


def import_legquad():
    """Fresh import of legquad from the checkout's sources, never from an
    installed copy; a repeat import is part of every set-up."""
    if not (SRC / "legquad" / "__init__.py").is_file():
        raise SourceMissing(f"no legquad sources under {SRC}")
    for name in [m for m in sys.modules if m == "legquad" or m.startswith("legquad.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("legquad.cli")
    catalog = importlib.import_module("legquad.catalog")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SourceMissing(f"legquad was imported from {cli.__file__}, not from {SRC}")
    return cli, catalog


def entry_names(kind: str) -> Tuple[str, ...]:
    return {
        "check": oracles.VERDICT_ENTRIES,
        "check-perturbed": oracles.PERTURB_ENTRIES,
        "algebra": tuple(oracles.ALGEBRA_EXPECTED),
    }[kind]


def build_ops(workload: str, seed: int, catalog, directory: Path,
              clock: Optional[Clock] = None) -> Tuple[List[Op], float]:
    """Write the workload's seeded variety files; returns the ops and the
    seconds spent in catalog.get_entry."""
    clock = clock or Clock()
    if workload == "scan":
        argv = ["--json", "classify", "--max-rank", str(oracles.SCAN_MAX_RANK),
                "--max-dim", str(oracles.SCAN_MAX_DIM)]
        return [Op("classify", "classify", argv, oracles.check_scan)], 0.0
    names = sorted({name for kind in KINDS for name in entry_names(kind)})
    began = clock.stamp()
    bases = {name: inputs.from_entry(catalog.get_entry(name)) for name in names}
    entry_s = clock.scaled(clock.interval(began))
    ops = []
    for kind in KINDS:
        rng = random.Random(f"{kind}:{seed}")
        for variant in range(VARIANTS[kind]):
            for name in entry_names(kind):
                if variant and kind == "algebra" and name in SINGLE_VARIANT:
                    continue
                v = inputs.relabel(bases[name], rng)
                comment = f"{name}, relabeling {variant} for {kind}, seed {seed}"
                if kind == "check":
                    check = functools.partial(
                        oracles.check_verdict, n=v.n, degenerate=name in oracles.DEGENERATE)
                elif kind == "check-perturbed":
                    v, (a, b) = inputs.perturb(v, rng)
                    comment += f"; bracket of generators {a} and {b} leaves the quadric span"
                    check = oracles.check_perturbed
                else:
                    dim, types = oracles.ALGEBRA_EXPECTED[name]
                    check = functools.partial(oracles.check_algebra, dim=dim, types=types)
                path = directory / f"{kind}-{variant:02d}-{name}.txt"
                path.write_text(inputs.render(v, comment))
                command = "algebra" if kind == "algebra" else "check"
                ops.append(Op(kind, name, ["--json", command, str(path)], check))
    return ops, entry_s


def setup(workload: str, seed: int, directory: Path, clock: Clock):
    """Import, catalog builds, input generation and file writing, repeated;
    returns the last repeat's program and ops, each repeat's interval and
    the median seconds in catalog.get_entry."""
    directory.mkdir(parents=True, exist_ok=True)
    repeats, entry_times = [], []
    for _ in range(SETUP_REPEATS):
        began = clock.stamp()
        cli, catalog = import_legquad()
        ops, entry_s = build_ops(workload, seed, catalog, directory, clock)
        repeats.append(clock.interval(began))
        entry_times.append(entry_s)
    return cli, ops, repeats, statistics.median(entry_times)


# -- measuring ----------------------------------------------------------------


def call(cli, op: Op) -> Tuple[Optional[int], str, Optional[str]]:
    """One op through the command line: exit code, report, and the error if
    it raised."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main(op.argv)
    except Exception as exc:  # a crashing op is counted and reported, the run goes on
        return None, out.getvalue(), f"raised {type(exc).__name__}: {exc}"
    return rc, out.getvalue(), None


def judge(op: Op, rc: Optional[int], report: str, error: Optional[str]) -> List[str]:
    """What is wrong with an op's outcome; empty when the answer is right."""
    if error is not None:
        return [error]
    try:
        payload = json.loads(report)
    except ValueError:
        return [f"exit code {rc} without a JSON report"]
    problems = op.check(rc, payload.get("result", {}))
    if payload.get("status") == "undecided":
        problems.append("status undecided")
    return problems


def measure(cli, ops: List[Op], seconds: float, clock: Clock, on_op=None) -> Measurement:
    """Whole passes over the ops, at least one, as many as fit in `seconds`."""
    m = Measurement()
    started = time.perf_counter()
    while True:
        gc.collect()
        intervals = []
        for op in ops:
            if on_op is not None:
                on_op(op)
            began = clock.stamp()
            outcome = call(cli, op)
            intervals.append(clock.interval(began))
            problems = judge(op, *outcome)
            m.attempted += 1
            if problems:
                m.failed += 1
                print(f"wrong answer on {op.label} ({' '.join(op.argv)}): "
                      + "; ".join(problems), file=sys.stderr)
        m.passes.append(intervals)
        spent = time.perf_counter() - started
        if spent + spent / len(m.passes) > seconds:
            return m


def op_tail(latencies: List[float]) -> Optional[dict]:
    """Highest percentile with at least TAIL_BEYOND ops beyond it; only for
    workloads with enough ops per pass for it to sit above the median."""
    if len(latencies) < 2 * TAIL_BEYOND:
        return None
    ordered = sorted(latencies)
    index = len(ordered) - TAIL_BEYOND - 1
    return {
        "value": ordered[index],
        "percentile": 100.0 * (index + 1) / len(ordered),
        "samples": len(ordered),
    }


def seconds_by(key: Callable[[Op], str], ops: List[Op], latencies: List[float]) -> Dict[str, float]:
    """Seconds per pass spent on each group of ops, averaged over the passes."""
    out: Dict[str, float] = {}
    passes = len(latencies) // len(ops)
    for k, seconds in enumerate(latencies):
        name = key(ops[k % len(ops)])
        out[name] = out.get(name, 0.0) + seconds / passes
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- run record ---------------------------------------------------------------


def cpu_model() -> Optional[str]:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_commit() -> Optional[str]:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_record(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seed_used": args.workload != "scan",
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "commit": git_commit(),
        "loadavg_before": os.getloadavg(),
    }


# -- one workload -------------------------------------------------------------


def traced_pass(cli, ops: List[Op]):
    """One pass with every layer hook installed; returns the measurement,
    its clock, the tracer and, per op label, the first and past-the-end span
    index of each op.  Speed samples become spans of their own, so they stay
    out of every layer's self time."""
    tracer = tracing.Tracer()
    bounds: List[Tuple[str, int]] = []
    with speed.SpeedSampler() as sampler:
        sampler.listener = lambda start, end: tracer.record("speed.sample", start, end)
        tracer.install(tracing.HOOKS)
        try:
            m = measure(cli, ops, 0.0, Clock(sampler),
                        on_op=lambda op: bounds.append((op.label, len(tracer.spans))))
        finally:
            tracer.uninstall()
    ranges = [(label, first, bounds[k + 1][1] if k + 1 < len(bounds) else len(tracer.spans))
              for k, (label, first) in enumerate(bounds)]
    return m, Clock(sampler), tracer, ranges


def baseline_check(tracer: tracing.Tracer, ranges, scale) -> Dict[str, dict]:
    """The traced run's figures next to the ROADMAP baseline table, as
    measured and at the reference speed, without the speed sampler's time."""
    samples = [(start, end) for name, start, end, _ in tracer.spans if name == "speed.sample"]

    def inclusive(name: str, label: Optional[str] = None) -> Optional[dict]:
        measured = scaled = 0.0
        seen = False
        for op_label, first, last in ranges:
            if label is not None and op_label != label:
                continue
            for span_name, start, end, _ in tracer.spans[first:last]:
                if span_name == name:
                    own = end - start - sum(e - s for s, e in samples if start <= s < end)
                    measured += own
                    scaled += own * scale(start, end)
                    seen = True
        return {"measured_s": measured, "reference_speed_s": scaled} if seen else None

    figures = {
        "identify_algebra segre-5": inclusive("liealg.identify_algebra", "segre-5"),
        "enumerate_simple(8, 100)": inclusive("classify.enumerate_simple"),
        "enumerate_semisimple_pairs(8, 100)": inclusive("classify.enumerate_semisimple_pairs"),
    }
    return {
        key: dict(value, roadmap_s=ROADMAP_BASELINE_S[key])
        for key, value in figures.items() if value is not None
    }


def reference_summary(sampler: speed.SpeedSampler) -> dict:
    loops = sorted(loop for _, loop in sampler.samples)
    return {
        "samples": len(loops),
        "median_s": statistics.median(loops),
        "p10_s": loops[len(loops) // 10],
        "p90_s": loops[(9 * len(loops)) // 10],
        "unloaded_s": speed.REFERENCE_S,
    }


def run_workload(args) -> int:
    record = run_record(args)
    directory = WORK / f"{args.workload}-{args.seed}"
    with speed.SpeedSampler() as sampler:
        clock = Clock(sampler)
        cli, ops, repeats, entry_s = setup(args.workload, args.seed, directory, clock)
        m = measure(cli, ops, args.seconds, clock)
    record["reference_loop"] = reference_summary(sampler)
    attempted, failed = m.attempted, m.failed
    raw_pass_s = m.pass_seconds(clock, raw=True)
    if args.trace:
        traced, traced_clock, tracer, ranges = traced_pass(cli, ops)
        attempted += traced.attempted
        failed += traced.failed
        traced_s = traced.pass_seconds(traced_clock)[0]
        untraced_s = statistics.median(m.pass_seconds(clock))
        tracer.write(str(directory / "spans.jsonl"))
        layers = tracing.layer_metrics(tracer, traced_clock.sampler.scale)
        layers["catalog.get_entry.s"] = (entry_s, "s")
        layers["trace.overhead_s"] = (traced_s - untraced_s, "s")
        layers["trace.spans"] = (sum(s[0] != "speed.sample" for s in tracer.spans), "count")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        info = {
            "untraced_pass_s": untraced_s,
            "traced_pass_s": traced_s,
            "measured": {"untraced_pass_s": raw_pass_s,
                         "traced_pass_s": traced.pass_seconds(traced_clock, raw=True)[0]},
            "missing_hooks": tracer.missing,
            "baseline": baseline_check(tracer, ranges, traced_clock.sampler.scale),
        }
    else:
        latencies = m.latencies(clock)
        metrics = {
            "setup_s": {"value": statistics.median(clock.scaled(r) for r in repeats), "unit": "s"},
            "wall_s": {"value": statistics.median(m.pass_seconds(clock)), "unit": "s"},
            "op_p50_s": {"value": statistics.median(latencies), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
        info = {
            "fail_frac": failed / attempted,
            "op_tail_s": op_tail(latencies),
            "ops_per_pass": len(ops),
            "pass_s": m.pass_seconds(clock),
            "pass_s_by_kind": seconds_by(lambda op: op.kind, ops, latencies),
            "pass_s_by_entry": seconds_by(lambda op: f"{op.kind} {op.label}", ops, latencies),
            "measured": {
                "setup_s": statistics.median(r[2] for r in repeats),
                "pass_s": raw_pass_s,
                "op_p50_s": statistics.median(iv[2] for p in m.passes for iv in p),
            },
        }
    record["loadavg_after"] = os.getloadavg()
    (directory / f"record-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")
    print("record " + json.dumps(record))
    print("info " + json.dumps(info))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


# -- every workload -----------------------------------------------------------


def run_all(args) -> int:
    """Each workload untraced and traced, each in a process of its own, one
    at a time; prints every metric by name with its unit."""
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                status = 1
                print(f"{workload} trace={trace}: exit code {proc.returncode}")
                sys.stdout.write(proc.stderr)
                if not lines:
                    continue
            result = json.loads(lines[-1])
            info = next((json.loads(l[5:]) for l in lines if l.startswith("info ")), {})
            print(f"\n== {workload} (trace={trace}) correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for name, metric in result["metrics"].items():
                if trace == 0 or metric["value"]:
                    print(f"  {name:42s} {metric['value']:>14.6g} {metric['unit']}")
            for key, value in info.items():
                print(f"  {key:42s} {json.dumps(value)}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced, and print every metric")
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload or --all is required")
    try:
        return run_workload(args)
    except SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
