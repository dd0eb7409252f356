"""Test oracle for legquad.poly: the Euler identity sum x_i dp/dx_i =
deg(p) p, on `Polynomial` arithmetic alone, and the polynomial helpers only
the tests and the other oracles call: coefficients, monic scaling, the
gradient, the monomials of one degree, evaluation at a point and
substitution."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from typing import List, Sequence

from legquad.poly import Exponent, Polynomial, grevlex_key


def coefficient(p: Polynomial, exps: Exponent) -> Fraction:
    return p.terms.get(tuple(exps), Fraction(0))


def leading_coefficient(p: Polynomial) -> Fraction:
    return p.terms[p.leading_monomial()]


def monic(p: Polynomial) -> Polynomial:
    return p.scale(1 / leading_coefficient(p)) if p.terms else p


def gradient(p: Polynomial) -> List[Polynomial]:
    return [p.partial_derivative(i) for i in range(p.nvars)]


def monomials_of_degree(nvars: int, degree: int) -> List[Exponent]:
    """Every monomial of the given degree in nvars variables, largest
    grevlex monomial first."""
    supports = combinations_with_replacement(range(nvars), degree)
    monomials = [tuple(map(support.count, range(nvars))) for support in supports]
    return sorted(monomials, key=grevlex_key, reverse=True)


def euler_weighted_sum(p: Polynomial) -> Polynomial:
    """Sum of x_i * dp/dx_i over all variables; input must be homogeneous.

    For a homogeneous p this equals deg(p) * p, which the callers rely on.
    """
    if not p.is_homogeneous():
        raise ValueError("euler_weighted_sum requires a homogeneous polynomial")
    total = Polynomial.zero(p.nvars)
    for i in range(p.nvars):
        total = total + Polynomial.variable(p.nvars, i) * p.partial_derivative(i)
    return total


def evaluate(p: Polynomial, point: Sequence) -> Fraction:
    """Exact value at a rational point; point length must equal nvars."""
    if len(point) != p.nvars:
        raise ValueError(f"point has {len(point)} coordinates, expected {p.nvars}")
    pt = [Fraction(x) for x in point]
    total = Fraction(0)
    for m, c in p.terms.items():
        value = c
        for x, e in zip(pt, m):
            if e:
                value *= x ** e
        total += value
    return total


def substitute(p: Polynomial, images: Sequence[Polynomial]) -> Polynomial:
    """Compose: replace x_i by images[i] (all over a common ring)."""
    if len(images) != p.nvars:
        raise ValueError("one image polynomial per variable is required")
    target_nvars = images[0].nvars
    result = Polynomial.zero(target_nvars)
    for m, c in p.terms.items():
        term = Polynomial.constant(target_nvars, c)
        for img, e in zip(images, m):
            for _ in range(e):
                term = term * img
        result = result + term
    return result
