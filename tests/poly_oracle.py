"""Test oracle for legquad.poly: the Euler identity sum x_i dp/dx_i =
deg(p) p, on `Polynomial` arithmetic alone."""

from __future__ import annotations

from legquad.poly import Polynomial


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
