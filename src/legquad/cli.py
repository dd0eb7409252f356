"""Command-line front door: parse inputs, dispatch, emit reports.

Each command returns its answer (inputs, result, exit code) and reports
nothing itself; `classify` adds its stage timings, `gb` and `nf` answer an
exhausted Groebner budget, and `catalog NAME` writes its dump and returns
None.  `main` alone times the command, derives the status and prints the
one report; under `--json` its text is `json.dumps(report, indent=2)` byte
for byte, written by `report.dumps`.

Start-up is most of a small command's time, so this module imports at its
top only what reading a variety file needs (`poly`, `symplectic`), and each
command imports the layers it runs: `classify` loads no Groebner, verdict
or Lie algebra layer, `check` no scan, and only `--json` loads the report
encoder.

Exit codes partition outcomes: 0 for a positive or neutral result, 2 for a
mathematical negative (not legendrian, quadrics not closed, equation
fails), 3 for an undecided answer (a resource ran out, or `algebra` met a
simple factor that identification cannot name over Q), 1 for usage or
parse errors.  A report's status is `undecided` exactly at exit 3 and `ok`
otherwise, so a resource limit is never reported as a mathematical answer.  When standard output is closed before the report
is written (`legquad ... | head -c 10`), the command exits quietly with 141,
the status a shell reports for a process that SIGPIPE ended.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import time
from typing import Dict, List, Optional, Tuple

from . import lazy_attributes
from .poly import Polynomial, PolyParseError, field_bits, parse_poly
from .symplectic import SymplecticForm, VarietyPresentation, pairing_form, poisson_bracket, standard_form

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NEGATIVE = 2
EXIT_UNDECIDED = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE
MAX_XF_VARIABLES = 1000  # an xf chart in m variables has 2m + 2 coordinates
MAX_N = MAX_XF_VARIABLES + 1  # the largest 'n=', that of the largest xf chart
# an integer a user types: optional sign, ASCII digits (`int` reads any script's)
_INTEGER = re.compile(r"\s*[-+]?[0-9]+\s*")


class InputError(ValueError):
    pass


Answer = Tuple[dict, dict, int]  # what a command answers: its inputs, result and exit code

# Layer functions that stay attributes of this module, each bound to its
# layer's own function on first use.  A command calls them through the
# module (`_module.legendrian_verdict`), so one replaced by perfbench's
# tracer or a test sees every call.
__getattr__, __dir__ = lazy_attributes(globals(), {
    "legendrian_verdict": "legendrian",
    "close_and_present": "liealg",
    "identify_algebra": "liealg",
    "enumerate_simple": "classify",
    "enumerate_semisimple_pairs": "classify",
})
_module = sys.modules[__name__]


def _load_presentation(args) -> VarietyPresentation:
    try:
        text = _read_source(args.file)
    except OSError as exc:
        raise InputError(f"cannot read the variety file {args.file!r}: {exc.strerror}") from None
    override = getattr(args, "form", None)
    return parse_variety_file(text, form_override=override)


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as handle:
        return handle.read()


def parse_variety_file(text: str, form_override: Optional[str] = None) -> VarietyPresentation:
    """Input format: 'n=<n>' header, n in ASCII digits from 1 to MAX_N,
    optional 'form=<file|standard|json:...>', then one generator per line;
    '#' starts a comment.  A non-None form_override wins over the header.
    Errors name the line they are on, or `--form` when the override is at
    fault.  The presentation's `lines` gives the line of each generator,
    for the errors found later."""
    n = None
    form_spec, form_origin = "standard", "the default form"
    gen_lines: List[tuple] = []
    headers: Dict[str, int] = {}  # 'n=' or 'form=' -> the line that has it
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key = "n=" if line.startswith("n=") else "form=" if line.startswith("form=") else None
        if key and headers.setdefault(key, lineno) != lineno:
            raise InputError(f"line {lineno}: a second {key!r} line; line {headers[key]} has the first")
        if key == "n=":
            digits = line[2:].strip().lstrip("0")
            if not (digits.isascii() and digits.isdigit()):
                raise InputError(f"line {lineno}: 'n=' needs a positive integer, got {line[2:]!r}")
            if len(digits) > len(str(MAX_N)) or (n := int(digits)) > MAX_N:
                raise InputError(f"line {lineno}: 'n=' is at most {MAX_N}, got {line[2:]!r}")
        elif key == "form=":
            form_spec, form_origin = line[5:].strip(), f"line {lineno}"
        else:
            gen_lines.append((lineno, line))
    if n is None:
        raise InputError("missing 'n=<n>' header")
    if form_override:
        form_spec, form_origin = form_override, "--form"
    form = _parse_form(form_spec, n, form_origin)
    if form.dim != 2 * n:
        raise InputError(f"{form_origin}: form dimension {form.dim} does not match n={n}")
    gens, lines = [], []
    for lineno, line in gen_lines:
        try:
            g = parse_poly(line, 2 * n)
        except PolyParseError as exc:
            raise InputError(f"line {lineno}: {exc}") from None
        if not g.is_homogeneous():
            raise InputError(f"line {lineno}: generator {g} is not homogeneous")
        if not g.terms:
            continue  # the zero polynomial cuts out nothing
        degree = sum(next(iter(g.terms)))  # that of every term, as g is homogeneous
        if degree == 0:
            raise InputError(f"line {lineno}: generator {g} is a nonzero constant, which cuts out nothing")
        try:
            field_bits(degree)
        except ValueError as exc:
            raise InputError(f"line {lineno}: {exc}") from None
        gens.append(g)
        lines.append(lineno)
    pres = VarietyPresentation("input", form, gens)
    pres.lines = lines
    return pres


def _parse_form(spec: str, n: int, origin: str) -> SymplecticForm:
    """The form of a 'form=' value or a `--form` override; errors name
    `origin`."""
    if spec == "standard":
        return standard_form(n)
    if spec.startswith("json:"):
        source = spec[5:]
    else:
        try:
            source = _read_source(spec)
        except OSError as exc:
            raise InputError(f"{origin}: cannot read the form file {spec!r}: {exc.strerror}") from None
    try:
        return SymplecticForm.from_json(source)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{origin}: the form is not valid JSON: {exc.msg} at character {exc.pos + 1}"
        ) from None
    except KeyError as exc:
        raise InputError(f"{origin}: the form object has no {exc} entry") from None
    except (TypeError, ValueError) as exc:
        raise InputError(f"{origin}: bad form: {exc}") from None


def _report(args, inputs: dict, result: dict, status: str, timings: dict) -> None:
    payload = {
        "command": args.command,
        "inputs": inputs,
        "result": result,
        "timings": {k: round(v, 6) for k, v in timings.items()},
        "status": status,
    }
    if args.json:
        from .report import dumps
        print(dumps(payload))
    else:
        _print_text(payload)


def _print_text(payload: dict) -> None:
    print(f"[{payload['command']}] status: {payload['status']}")
    for key, value in payload["result"].items():
        if isinstance(value, list) and value and isinstance(value[0], dict):
            for item in value:
                print("  " + json.dumps(item))
        else:
            print(f"  {key}: {value}")


def _cmd_check(args) -> Answer:
    pres = _load_presentation(args)
    try:
        verdict = _module.legendrian_verdict(pres, budget=_budget(args))
    except ValueError as exc:
        raise _with_line(exc, pres, pres.generators) from None
    code = {"legendrian": EXIT_OK, "not-legendrian": EXIT_NEGATIVE, "undecided": EXIT_UNDECIDED}
    return {"file": args.file, "n": pres.half_dim}, verdict.to_dict(), code[verdict.verdict]


def _integer(text: str) -> int:
    """An integer argument (`_INTEGER`); argparse names the flag of a bad one."""
    if _INTEGER.fullmatch(text) is None:
        raise argparse.ArgumentTypeError(f"expected an integer in ASCII digits, got {text!r}")
    return int(text)


def _parse_poly_or_index(token: str, pres: VarietyPresentation) -> Polynomial:
    """A generator by its index, an `_integer`; `parse_poly` reads any other
    token, or refuses it at its position."""
    try:
        index = _integer(token)
    except (argparse.ArgumentTypeError, ValueError):  # ValueError: past Python's digit limit
        return parse_poly(token, pres.nvars)
    if not 0 <= index < len(pres.generators):
        raise InputError(
            f"generator index {index} out of range: the file has {len(pres.generators)} generators"
        )
    return pres.generators[index]


def _with_line(exc: ValueError, pres: VarietyPresentation, operands) -> ValueError:
    """A bracket's monomial-code error, led by the line of the first generator
    among `operands` whose brackets no code holds; else `exc` itself."""
    for line, g in zip(pres.lines, pres.generators):
        if any(g is p for p in operands):
            try:
                field_bits(2 * g.degree())
            except ValueError:
                return InputError(f"line {line}: {exc}")
    return exc


def _cmd_bracket(args) -> Answer:
    pres = _load_presentation(args)
    f = _parse_poly_or_index(args.f, pres)
    g = _parse_poly_or_index(args.g, pres)
    try:
        br = poisson_bracket(f, g, pres.form)
    except ValueError as exc:
        raise _with_line(exc, pres, (f, g)) from None
    return {"file": args.file, "f": str(f), "g": str(g)}, {"bracket": str(br)}, EXIT_OK


def _budget(args) -> int:
    """The S-pair budget: `--budget`, or the Groebner layer's default."""
    from .groebner import DEFAULT_PAIR_BUDGET
    return DEFAULT_PAIR_BUDGET if args.budget is None else args.budget


def _cmd_gb(args) -> Answer:
    from .groebner import BudgetExceeded, buchberger, krull_dimension
    pres = _load_presentation(args)
    try:
        basis = buchberger(pres.generators, pres.nvars, max_pairs=_budget(args))
    except BudgetExceeded as exc:
        return {"file": args.file}, {"budget": exc.budget_name}, EXIT_UNDECIDED
    dimension = krull_dimension([g.leading_monomial() for g in basis], pres.nvars)
    result = {"size": len(basis), "dimension": dimension, "elements": [str(g) for g in basis]}
    return {"file": args.file}, result, EXIT_OK


def _cmd_nf(args) -> Answer:
    from .groebner import BudgetExceeded, buchberger, normal_form
    pres = _load_presentation(args)
    p = parse_poly(args.poly, pres.nvars)
    try:
        basis = buchberger(pres.generators, pres.nvars, max_pairs=_budget(args))
    except BudgetExceeded as exc:
        return {"file": args.file}, {"budget": exc.budget_name}, EXIT_UNDECIDED
    r = normal_form(p, basis)
    return {"file": args.file, "poly": str(p)}, {"normal_form": str(r), "in_ideal": r.is_zero()}, EXIT_OK


def _cmd_algebra(args) -> Answer:
    """The quadric algebra; a span the bracket leaves is a negative answer
    naming every failing pair of generators, by their index in the file,
    and a simple factor that identification cannot name over Q leaves the
    types undecided, with the reason."""
    from .liealg import NotAdaptedError, NotClosedError, split_root_data
    pres = _load_presentation(args)
    index = [k for k, g in enumerate(pres.generators) if g.homogeneous_degree() == 2]
    try:
        algebra = _module.close_and_present([pres.generators[k] for k in index], pres.form)
    except NotClosedError as exc:
        pairs = [[index[i], index[j]] for i, j in exc.pairs]
        return {"file": args.file}, {"closed": False, "failing_pairs": pairs}, EXIT_NEGATIVE
    semisimple = algebra.is_semisimple()
    result = {"dim": algebra.dim, "semisimple": semisimple}
    code = EXIT_OK
    if semisimple:
        try:
            result["types"] = _module.identify_algebra(algebra)
        except NotAdaptedError as exc:
            result.update(types=None, types_reason=f"NotAdaptedError: {exc}")
            code = EXIT_UNDECIDED
        try:
            full = split_root_data(algebra)
            result.update(cartan_rank=full.rank, root_count=len(full.roots))
        except NotAdaptedError as exc:
            # a non-split real form: no rational Cartan subalgebra to report
            result.update(cartan_rank=None, root_count=None, cartan_reason=f"NotAdaptedError: {exc}")
    return {"file": args.file}, result, code


def _require_positive(*flags: Tuple[str, Optional[int]]) -> None:
    """Reject the first (flag, value) given a value below 1; None is unset."""
    for flag, value in flags:
        if value is not None and value < 1:
            raise InputError(f"{flag} must be a positive integer, got {value}")


def _cmd_classify(args) -> Tuple[dict, dict, int, dict]:
    """An `Answer` and the timings of the simple and the product scan, which
    read one weight table; the simple timing includes building it."""
    from .classify import weight_tables
    _require_positive(("--max-rank", args.max_rank), ("--max-dim", args.max_dim))
    t0 = time.perf_counter()
    tables = weight_tables(args.max_rank, args.max_dim)
    simple = _module.enumerate_simple(tables)
    t1 = time.perf_counter()
    products = _module.enumerate_semisimple_pairs(tables)
    groups = {
        "simple": simple,
        "pairs": [v for v in products if len(v.factors) == 2],
        "triples": [v for v in products if len(v.factors) == 3],
    }
    result = {
        f"{status}_{name}": [v.to_dict() for v in verdicts if (v.status == "accepted") == (status == "accepted")]
        for status in ("accepted", "rejected") for name, verdicts in groups.items()
    }
    timings = {"simple": t1 - t0, "pairs": time.perf_counter() - t1}
    return {"max_rank": args.max_rank, "max_dim": args.max_dim}, result, EXIT_OK, timings


def _cmd_catalog(args) -> Optional[Answer]:
    """The entry list, or None once the named entry is dumped."""
    from . import catalog
    if args.name is None:
        return {}, {"entries": catalog.entry_names()}, EXIT_OK
    if args.name not in catalog.entry_names():
        raise InputError(f"unknown catalog entry {args.name!r}")
    sys.stdout.write(catalog.dump_entry(catalog.get_entry(args.name)))
    return None


def _cmd_curve(args) -> Answer:
    """The curve (1 : f1 : f2 : f3) is isotropic for the form pairing
    (x0, x1) and (x2, x3) exactly when f1' = f2' f3 - f3' f2, the identity
    that `isotropy_identity` checks on that chart."""
    from .legendrian import isotropy_identity
    polys = [parse_poly(text.replace("t", "x0"), 1) for text in (args.f1, args.f2, args.f3)]
    chart = [Polynomial.constant(1, 1)] + polys
    form = pairing_form(4, [(0, 1, 1), (2, 3, 1)])
    holds = isotropy_identity(chart, form)
    inputs = {"f1": str(polys[0]), "f2": str(polys[1]), "f3": str(polys[2])}
    return inputs, {"equation_holds": holds}, EXIT_OK if holds else EXIT_NEGATIVE


def _cmd_xf(args) -> Answer:
    from . import catalog
    from .legendrian import isotropy_identity
    _require_positive(("--implicit-degree", args.implicit_degree))
    f = _parse_xf_poly(args.poly)
    entry = catalog.x_f(f, implicit_degree=args.implicit_degree)
    pres = entry.presentation
    tangent_ok = isotropy_identity(pres.parametrization, pres.form)
    result = {
        "name": entry.name,
        "ambient_dim": pres.nvars,
        "generators": [str(g) for g in pres.generators],
        "tangent_checks_pass": tangent_ok,
    }
    return {"poly": catalog.chart_text(f)}, result, EXIT_OK if tangent_ok else EXIT_NEGATIVE


def _parse_xf_poly(text: str) -> Polynomial:
    """f in the variables up to the largest index in the text, below
    MAX_XF_VARIABLES; `parse_poly` refuses a larger index, or one too long
    to read, at its position."""
    indices = [m.lstrip("0") or "0" for m in re.findall(r"[xy]\s*([0-9]+)", text)]
    if not indices:
        raise InputError("no variables found in the chart polynomial")
    width = len(str(MAX_XF_VARIABLES))
    nvars = max(int(i) + 1 if len(i) <= width else MAX_XF_VARIABLES for i in indices)
    return parse_poly(text, min(nvars, MAX_XF_VARIABLES))


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process:
    parsing does not change it, and every call gets a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="legquad",
        description="Exact verdicts and classification for legendrian varieties cut out by quadrics.",
    )
    parser.add_argument("--json", action="store_true", help="emit machine-readable reports")
    parser.add_argument("--text", dest="json", action="store_false", help="emit plain text (default)")
    parser.add_argument("--budget", type=_integer, default=None,
                        help="cap on processed S-pairs in basis computations")
    parser.add_argument("--form", default=None,
                        help="override the input file's form: 'standard', a JSON file path, or json:<...>")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="legendrian verdict for a variety file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("bracket", help="Poisson bracket of two polynomials or generator indices")
    p.add_argument("file")
    p.add_argument("f")
    p.add_argument("g")
    p.set_defaults(func=_cmd_bracket)

    p = sub.add_parser("gb", help="reduced Groebner basis of the input ideal")
    p.add_argument("file")
    p.set_defaults(func=_cmd_gb)

    p = sub.add_parser("nf", help="normal form of a polynomial modulo the input ideal")
    p.add_argument("file")
    p.add_argument("poly")
    p.set_defaults(func=_cmd_nf)

    p = sub.add_parser("algebra", help="extract and identify the quadric algebra")
    p.add_argument("file")
    p.set_defaults(func=_cmd_algebra)

    p = sub.add_parser("classify", help="rerun the classification scan")
    p.add_argument("--max-rank", type=_integer, default=8)
    p.add_argument("--max-dim", type=_integer, default=None,
                   help="an extra cap on dim V; the scan's own caps are derived")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("catalog", help="list catalog entries or dump one in check format")
    p.add_argument("name", nargs="?")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("curve", help="test the planar-curve differential identity")
    p.add_argument("f1")
    p.add_argument("f2")
    p.add_argument("f3")
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("xf", help="build the chart variety of a form and self-check")
    p.add_argument("poly")
    p.add_argument("--implicit-degree", type=_integer, default=None)
    p.set_defaults(func=_cmd_xf)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        if args.budget is not None and args.budget < 0:
            raise InputError(f"--budget must be a non-negative integer, got {args.budget}")
        t0 = time.perf_counter()
        answer = args.func(args)
        code = EXIT_OK
        if answer is not None:
            inputs, result, code, *stages = answer
            timings = stages[0] if stages else {"total": time.perf_counter() - t0}
            _report(args, inputs, result, "undecided" if code == EXIT_UNDECIDED else "ok", timings)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # stop the interpreter's own flush at exit from failing again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except ValueError as exc:  # InputError, PolyParseError and the libraries' input errors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
