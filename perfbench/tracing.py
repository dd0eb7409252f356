"""Spans around the program's layer boundaries, for the traced run only.

Each hook replaces one attribute with a wrapper that records a span (name,
start, end, parent span) and, where the layer returns something countable,
adds counts read from the return value.  A hook goes on the name the caller
looks up: `legendrian_verdict` imports `buchberger` into its own module, so
the hook sits on `legquad.legendrian.buchberger`, not on the groebner module.
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple


class Tracer:
    def __init__(self):
        self.spans: List[list] = []          # [name, start, end, parent index]
        self.counts: Dict[str, int] = defaultdict(int)
        self._stack: List[int] = []
        self._installed: List[Tuple[object, str, object]] = []
        self.missing: List[str] = []

    def wrap(self, fn: Callable, name: str, counter: Optional[Callable] = None) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    # a child span, so counting stays out of the layer's self time
                    started = clock()
                    counter(counts, result)
                    spans.append(["trace.count", started, clock(), index])
            finally:
                stack.pop()
                spans[index][2] = clock()
            return result

        traced.__wrapped__ = fn
        return traced

    def record(self, name: str, start: float, end: float) -> None:
        """A span for work the hooks did not wrap, under the open span."""
        self.spans.append([name, start, end, self._stack[-1] if self._stack else -1])

    def install(self, hooks) -> None:
        """Wrap every (module, attribute path, span name, counter) hook; a
        target the program no longer has is listed in `missing`."""
        for module_name, path, name, counter in hooks:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            try:
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except AttributeError:
                self.missing.append(f"{module_name}.{path}")
                continue
            setattr(owner, attr, self.wrap(original, name, counter))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def self_times(self, scale=None) -> Dict[str, Tuple[float, int, float]]:
        """name -> (self seconds, calls, inclusive seconds).  Self time is a
        span's duration minus the time its direct children cover; calls run
        one at a time, so children never overlap.  `scale(start, end)`, when
        given, converts a span's seconds to the reference speed."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, list] = {}
        for k, (name, start, end, _) in enumerate(self.spans):
            factor = scale(start, end) if scale is not None else 1.0
            entry = out.setdefault(name, [0.0, 0, 0.0])
            entry[0] += (end - start - child_time[k]) * factor
            entry[1] += 1
            entry[2] += (end - start) * factor
        return {k: tuple(v) for k, v in out.items()}

    def ancestors_named(self, child: str, ancestor: str) -> int:
        """Number of distinct `ancestor` spans with a `child` span below them."""
        found = set()
        for name, _, _, parent in self.spans:
            if name != child:
                continue
            while parent >= 0:
                if self.spans[parent][0] == ancestor:
                    found.add(parent)
                    break
                parent = self.spans[parent][3]
        return len(found)

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for k, (name, start, end, parent) in enumerate(self.spans):
                handle.write(json.dumps([k, name, start, end, parent]) + "\n")


# -- counters read from return values ---------------------------------------


def count_basis(counts, basis) -> None:
    elements = list(getattr(basis, "elements", basis))
    counts["groebner.basis_size"] += len(elements)
    for g in elements:
        degree = max((sum(e) for e in g.terms), default=0)
        counts["groebner.basis_max_degree"] = max(counts["groebner.basis_max_degree"], degree)
        bits = max(
            (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in g.terms.values()),
            default=0,
        )
        counts["groebner.basis_coeff_bits"] = max(counts["groebner.basis_coeff_bits"], bits)


def count_structure(counts, algebra) -> None:
    structure = getattr(algebra, "structure", {})
    counts["liealg.structure_constants"] += sum(len(col) for col in structure.values())


def count_verdicts(counts, verdicts) -> None:
    for v in verdicts:
        status = getattr(v, "status", "undecided")
        counts[f"classify.{status}"] += 1


HOOKS = [
    # cli: parsing, the command itself, and the second Cartan pass of `algebra`
    ("legquad.cli", "parse_variety_file", "cli.parse", None),
    ("legquad.cli", "main", "cli.main", None),
    ("legquad.cli", "cartan_subalgebra", "cli.algebra.recheck", None),
    ("legquad.cli", "root_decomposition", "cli.algebra.recheck", None),
    # legendrian and the layers its verdict calls
    ("legquad.cli", "legendrian_verdict", "legendrian.legendrian_verdict", None),
    ("legquad.legendrian", "buchberger", "groebner.buchberger", count_basis),
    ("legquad.legendrian", "normal_form", "groebner.normal_form", None),
    ("legquad.legendrian", "krull_dimension", "groebner.krull_dimension", None),
    ("legquad.legendrian", "poisson_bracket", "symplectic.poisson_bracket", None),
    # liealg: closure, identification and both of its routes
    ("legquad.cli", "close_and_present", "liealg.close_and_present", count_structure),
    ("legquad.liealg", "close_and_present", "liealg.close_and_present", count_structure),
    ("legquad.liealg", "LieAlgebraPresentation.is_semisimple", "liealg.is_semisimple", None),
    ("legquad.cli", "identify_algebra", "liealg.identify_algebra", None),
    ("legquad.liealg", "cartan_subalgebra", "liealg.cartan_subalgebra", None),
    ("legquad.liealg", "root_decomposition", "liealg.root_decomposition", None),
    ("legquad.liealg", "identify_type", "liealg.identify_type", None),
    ("legquad.liealg", "decompose_ideals", "liealg.decompose_ideals", None),
    ("legquad.liealg", "subalgebra_presentation", "liealg.subalgebra_presentation", None),
    ("legquad.linalg", "rref", "linalg.rref", None),
    # rootdata, as the scan looks it up
    ("legquad.classify", "is_multiplicity_free", "rootdata.is_multiplicity_free", None),
    ("legquad.classify", "distinct_weight_count", "rootdata.distinct_weight_count", None),
    ("legquad.classify", "weyl_dimension", "rootdata.weyl_dimension", None),
    ("legquad.classify", "cone_orbit_dimension", "rootdata.cone_orbit_dimension", None),
    ("legquad.classify", "is_self_dual", "rootdata.is_self_dual", None),
    ("legquad.classify", "angle_audit", "rootdata.angle_audit", None),
    ("legquad.classify", "build_root_system", "rootdata.build_root_system", None),
    ("legquad.cli", "enumerate_simple", "classify.enumerate_simple", count_verdicts),
    ("legquad.cli", "enumerate_semisimple_pairs", "classify.enumerate_semisimple_pairs",
     count_verdicts),
]

# Span names reported as self time, and the ones also reported as call counts.
SELF_TIME_SPANS = [
    "cli.parse", "cli.main", "legendrian.legendrian_verdict",
    "groebner.buchberger", "groebner.normal_form", "groebner.krull_dimension",
    "symplectic.poisson_bracket",
    "liealg.close_and_present", "liealg.is_semisimple", "liealg.identify_algebra",
    "liealg.cartan_subalgebra", "liealg.root_decomposition", "liealg.identify_type",
    "liealg.decompose_ideals", "liealg.subalgebra_presentation",
    "linalg.rref",
    "rootdata.is_multiplicity_free", "rootdata.distinct_weight_count",
    "rootdata.weyl_dimension", "rootdata.cone_orbit_dimension", "rootdata.is_self_dual",
    "rootdata.angle_audit", "rootdata.build_root_system",
    "classify.enumerate_simple", "classify.enumerate_semisimple_pairs",
]
CALL_COUNT_SPANS = [
    "cli.parse", "groebner.buchberger", "groebner.normal_form", "symplectic.poisson_bracket",
    "linalg.rref", "rootdata.is_multiplicity_free", "rootdata.distinct_weight_count",
    "rootdata.weyl_dimension",
]
COUNTS = [
    "groebner.basis_size", "groebner.basis_max_degree", "groebner.basis_coeff_bits",
    "liealg.structure_constants",
    "classify.accepted", "classify.rejected", "classify.undecided",
]


def layer_metrics(tracer: Tracer, scale=None) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric of one traced pass, name -> (value, unit)."""
    times = tracer.self_times(scale)
    out: Dict[str, Tuple[float, str]] = {}
    for name in SELF_TIME_SPANS:
        out[f"{name}.self_s"] = (times.get(name, (0.0, 0, 0.0))[0], "s")
    for name in CALL_COUNT_SPANS:
        out[f"{name}.calls"] = (times.get(name, (0.0, 0, 0.0))[1], "count")
    out["cli.algebra.recheck_s"] = (times.get("cli.algebra.recheck", (0.0, 0, 0.0))[2], "s")
    for name in COUNTS:
        out[name] = (tracer.counts.get(name, 0), "count")
    out["liealg.route_nonsplit"] = (
        tracer.ancestors_named("liealg.decompose_ideals", "liealg.identify_algebra"), "count"
    )
    return out
