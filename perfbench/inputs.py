"""Seeded inputs: relabeled and perturbed catalog varieties as variety files.

Everything here works on plain data (exponent tuples mapped to Fractions,
matrices as lists of Fractions) and writes its own text, so the files depend
only on the catalog's generators and the seed, not on how the program prints
or computes anything.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

Exponent = Tuple[int, ...]
Poly = Dict[Exponent, Fraction]
Matrix = List[List[Fraction]]

SCALINGS = (-3, -2, -1, 1, 2, 3)


@dataclass
class Variety:
    source: str          # catalog entry the variety was derived from
    n: int               # half the ambient dimension
    matrix: Matrix       # the form
    dual: Matrix         # the dual form used by the bracket
    gens: List[Poly]

    @property
    def nvars(self) -> int:
        return 2 * self.n


def from_entry(entry) -> Variety:
    """Copy a catalog entry's generators and form into plain data."""
    pres = entry.presentation
    gens = [{tuple(e): Fraction(c) for e, c in g.terms.items()} for g in pres.generators]
    matrix = [[Fraction(x) for x in row] for row in pres.form.matrix]
    dual = [[Fraction(x) for x in row] for row in pres.form.dual_matrix]
    return Variety(entry.name, len(matrix) // 2, matrix, dual, gens)


def relabel(v: Variety, rng: random.Random) -> Variety:
    """Random variable permutation (form and dual carried along), shuffled
    generator order and random nonzero integer scalings.  Every answer of
    check and algebra is invariant under it."""
    perm = list(range(v.nvars))
    rng.shuffle(perm)
    gens = []
    for g in v.gens:
        scale = rng.choice(SCALINGS)
        gens.append({_permute(e, perm): c * scale for e, c in g.items()})
    rng.shuffle(gens)
    return Variety(v.source, v.n, _permute_matrix(v.matrix, perm), _permute_matrix(v.dual, perm), gens)


def _permute(exps: Exponent, perm: Sequence[int]) -> Exponent:
    out = [0] * len(exps)
    for k, e in enumerate(exps):
        out[perm[k]] = e
    return tuple(out)


def _permute_matrix(m: Matrix, perm: Sequence[int]) -> Matrix:
    out = [[Fraction(0)] * len(m) for _ in m]
    for a, row in enumerate(m):
        for b, x in enumerate(row):
            out[perm[a]][perm[b]] = x
    return out


def perturb(v: Variety, rng: random.Random) -> Tuple[Variety, Tuple[int, int]]:
    """Add one seeded degree-2 monomial to one seeded generator of an
    all-quadric variety, redrawing from the same stream until the span test
    finds a generator bracket outside the quadric span.  Returns the
    perturbed variety and that witness pair."""
    while True:
        index = rng.randrange(len(v.gens))
        i, j = sorted((rng.randrange(v.nvars), rng.randrange(v.nvars)))
        mono = [0] * v.nvars
        mono[i] += 1
        mono[j] += 1
        coeff = Fraction(rng.choice(SCALINGS))
        gens = [dict(g) for g in v.gens]
        target = gens[index]
        key = tuple(mono)
        target[key] = target.get(key, Fraction(0)) + coeff
        if not target[key]:
            del target[key]
        if not target:
            continue
        candidate = Variety(v.source, v.n, v.matrix, v.dual, gens)
        witness = closure_witness(candidate)
        if witness is not None:
            return candidate, witness


def closure_witness(v: Variety) -> Optional[Tuple[int, int]]:
    """First generator pair whose Poisson bracket lies outside the span of the
    generators, or None.  For quadric generators the bracket is a quadric and
    the degree-2 part of the ideal is exactly that span, so a witness proves
    the ideal is not closed under the bracket."""
    span = _Span()
    for g in v.gens:
        span.add(g)
    for a in range(len(v.gens)):
        for b in range(a + 1, len(v.gens)):
            br = poisson_bracket(v.gens[a], v.gens[b], v.dual)
            if br and not span.contains(br):
                return a, b
    return None


def poisson_bracket(f: Poly, g: Poly, dual: Matrix) -> Poly:
    """sum_ij dual[i][j] * df/dx_i * dg/dx_j on plain polynomials."""
    grad_f = [_derivative(f, i) for i in range(len(dual))]
    grad_g = [_derivative(g, j) for j in range(len(dual))]
    out: Poly = {}
    for i, dfi in enumerate(grad_f):
        if not dfi:
            continue
        for j, w in enumerate(dual[i]):
            if not w or not grad_g[j]:
                continue
            for ea, ca in dfi.items():
                for eb, cb in grad_g[j].items():
                    key = tuple(x + y for x, y in zip(ea, eb))
                    s = out.get(key, Fraction(0)) + w * ca * cb
                    if s:
                        out[key] = s
                    else:
                        out.pop(key, None)
    return out


def _derivative(p: Poly, var: int) -> Poly:
    out: Poly = {}
    for e, c in p.items():
        if e[var]:
            d = list(e)
            d[var] -= 1
            out[tuple(d)] = c * e[var]
    return out


class _Span:
    """Exact row echelon form over monomial coordinates, for span membership."""

    def __init__(self):
        self.rows: List[Tuple[Exponent, Poly]] = []   # (pivot monomial, row with pivot 1)

    def _reduce(self, vec: Poly) -> Poly:
        work = dict(vec)
        for pivot, row in self.rows:
            c = work.get(pivot)
            if c:
                for e, x in row.items():
                    s = work.get(e, Fraction(0)) - c * x
                    if s:
                        work[e] = s
                    else:
                        work.pop(e, None)
        return work

    def add(self, vec: Poly) -> None:
        work = self._reduce(vec)
        if not work:
            return
        pivot = max(work)
        inv = 1 / work[pivot]
        row = {e: x * inv for e, x in work.items()}
        # keep every row free of the new pivot so one pass reduces fully
        for k, (p, r) in enumerate(self.rows):
            c = r.get(pivot)
            if c:
                for e, x in row.items():
                    s = r.get(e, Fraction(0)) - c * x
                    if s:
                        r[e] = s
                    else:
                        r.pop(e, None)
        self.rows.append((pivot, row))

    def contains(self, vec: Poly) -> bool:
        return not self._reduce(vec)


def render(v: Variety, comment: str) -> str:
    """Variety file text in the check format, independent of program printing."""
    lines = [f"# {comment}", f"n={v.n}"]
    if v.matrix == _standard(v.n) and v.dual == v.matrix:
        lines.append("form=standard")
    else:
        form = {"matrix": _matrix_text(v.matrix), "dual": _matrix_text(v.dual)}
        lines.append("form=json:" + json.dumps(form, separators=(",", ":")))
    lines.extend(format_poly(g) for g in v.gens)
    return "\n".join(lines) + "\n"


def _standard(n: int) -> Matrix:
    m = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        m[i][n + i] = Fraction(1)
        m[n + i][i] = Fraction(-1)
    return m


def _matrix_text(m: Matrix) -> List[List[str]]:
    return [[str(x) for x in row] for row in m]


def format_poly(p: Poly) -> str:
    """Terms in descending exponent order, e.g. '2*x0*x3 - 1/2*x1^2'."""
    chunks = []
    for e in sorted(p, reverse=True):
        c = p[e]
        mono = "*".join(f"x{i}" if k == 1 else f"x{i}^{k}" for i, k in enumerate(e) if k)
        body = mono if abs(c) == 1 else f"{abs(c)}*{mono}"
        if chunks:
            chunks.append(f"{'-' if c < 0 else '+'} {body}")
        else:
            chunks.append(f"-{body}" if c < 0 else body)
    return " ".join(chunks)
