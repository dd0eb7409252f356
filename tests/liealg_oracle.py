"""Test oracle for the structure constants of `legquad.liealg.close_and_present`.

This is the route the package took before its brackets ran on packed integer
monomials: gradients and brackets over Fractions keyed by exponent tuples,
the dual matrix read as Fractions, and each bracket written over the basis by
one tracked `linalg.Echelon` over grevlex columns, with no rescaling after.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from legquad import linalg
from legquad.liealg import StructureConstants
from legquad.poly import Exponent, Polynomial, grevlex_columns
from legquad.symplectic import SymplecticForm

Gradient = Dict[int, List[Tuple[Exponent, Fraction]]]


def gradient(p: Polynomial) -> Gradient:
    out: Gradient = {}
    for m, c in p.terms.items():
        for i, e in enumerate(m):
            if e:
                out.setdefault(i, []).append((m[:i] + (e - 1,) + m[i + 1 :], c * e))
    return out


def bracket(grad_f: Gradient, grad_g: Gradient, form: SymplecticForm) -> Dict[Exponent, Fraction]:
    out: Dict[Exponent, Fraction] = {}
    for i, df in grad_f.items():
        for j, w in enumerate(form.dual_matrix[i]):
            dg = grad_g.get(j)
            if not w or dg is None:
                continue
            for m1, c1 in df:
                for m2, c2 in dg:
                    key = tuple(x + y for x, y in zip(m1, m2))
                    out[key] = out.get(key, 0) + w * c1 * c2
    return {m: c for m, c in out.items() if c}


def structure_constants(quadrics: Sequence[Polynomial], form: SymplecticForm) -> StructureConstants:
    """[b_i, b_j] over the basis for i < j, or None for a bracket that
    leaves the span."""
    columns = grevlex_columns(quadrics)
    span = linalg.Echelon(track=True)
    for q in quadrics:
        span.add({columns[m]: c for m, c in q.terms.items()})
    grads = [gradient(q) for q in quadrics]
    structure: StructureConstants = {}
    for i in range(len(quadrics)):
        for j in range(i + 1, len(quadrics)):
            br = bracket(grads[i], grads[j], form)
            if br:
                inside = all(m in columns for m in br)
                structure[(i, j)] = (
                    span.coefficients({columns[m]: c for m, c in br.items()}) if inside else None
                )
    return structure
