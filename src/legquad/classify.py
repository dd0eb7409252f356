"""Rerun of the representation-theoretic classification scan.

For every simple type up to the rank bound, the scan tests every nonzero
dominant weight lambda under a derived dimension cap (one per diagram
automorphism orbit), and every tensor product of such factors that the same
bound allows, against the necessary conditions for the highest weight orbit
to be a legendrian variety cut out by quadrics:

  (ii)  dim V equals twice the cone dimension of the orbit,
  (iii) V is self-dual,
  (iv)  all weights have multiplicity one; multiplicities are at least one
        and sum to dim V, so this is tested exactly as "V has dim V distinct
        weights", with the dominant weights found by subtracting positive
        roots from lambda and each Weyl orbit size a product over root heights,
  (v)   the quadrics through the orbit span a space of exactly dim(g):
        dim Sym^2 V - dim V(2 lambda) = dim g, read from `rootdata`'s
        closed-orbit count, which the Kostant certificate also reads.

Condition (v) is the quadric-count form of the requirement that the fixed
algebra is the full quadratic part of the orbit's ideal; without it the scan
would also accept orbits whose quadric algebra is strictly larger than the
group being tested (the spin variety of so_11 equals that of so_12, and the
seven-dimensional quadric orbit of g_2 equals that of so_7).

The caps follow from (ii).  The cone over the closed orbit has dimension
1 + #(roots moved by lambda) <= 1 + |Phi+|, so every V(lambda) of dimension
above 2 |Phi+| + 2 fails (ii), and the simple scan tests every weight under
that cap.  A product of k >= 2 nontrivial factors of dimensions N_i, with
cones c_i <= N_i (an orbit cone lies in its space), passes (ii) only if
prod N_i = 2 (1 + sum (c_i - 1)) <= 2 (sum N_i - k + 1):

  k = 2   (N_1 - 2)(N_2 - 2) <= 2.  Either one factor is A1(1), the only
          two-dimensional irreducible, and then the other has
          N_X = c_X + 1 <= |Phi_X+| + 2; or (N_1, N_2) is (3, 3) or (3, 4).
  k >= 3  raising one N_i >= 2 by one raises the left side by at least
          2^(k-1) >= 4 and the right side by 2, so only N_i = 2 for all i
          can pass, where 2^k <= 2 (k + 1) leaves k = 3: A1(1)^(x)3.

So up to the rank bound the scan is complete, and an optional `max_dim`
only cuts it further.  Every filter is exact and uncapped, so no candidate
is left undecided.  Acceptance means "survives every filter"; sufficiency
is settled by the explicit constructions in the catalog, not re-proved here.

Each type's weights are grown one coordinate at a time, and each carries its
pairing vector p = <lambda + rho, alpha^vee> over the positive roots: raising
lambda_i by one adds column i of the coroot table to p.  dim V, the cone
dimension and the quadric count of (v) are read off p by `rootdata`.  A
weight, or a tensor factor, reaches the filters as one `rootdata.Orbit`
(rs, lambda, dim V, p, cone), the record the Kostant certificate builds with
`rootdata.orbit`, and no filter recomputes p, dim V or the cone.

The weights are grown once per type, under the simple scan's cap, into the
`WeightTables` that `weight_tables` returns, and both scans take that table
as their one input: `legquad classify` builds one per call.  The product scan
reads its factors from the same table, as `_products` picks every product by
its factors' dimensions and the scan skips every product above `max_dim`, so
the weights above the product caps reach no verdict.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import prod
from operator import add
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .rootdata import (
    AbstractRootSystem,
    Orbit,
    angle_audit,
    build_root_system,
    distinct_weight_count,
    is_canonical_weight,
    is_self_dual,
    pairing_cone_dimension,
    pairing_dimension,
    product_quadrics,
    rho_pairings,
    segre_cone_dimension,
    simple_types_up_to,
    type_dimension,
)


@dataclass
class CandidateVerdict:
    type_label: str
    weight: Tuple[int, ...]
    dim_v: int
    dim_cone: int
    status: str                   # "accepted" | "rejected"
    reason: str = ""
    self_dual: Optional[bool] = None
    multiplicity_free: Optional[bool] = None
    quadric_count: Optional[int] = None
    algebra_dim: Optional[int] = None
    angle_audit_passed: Optional[bool] = None

    def to_dict(self) -> dict:
        return {
            "type": self.type_label,
            "weight": list(self.weight),
            "dim_V": self.dim_v,
            "dim_cone": self.dim_cone,
            "status": self.status,
            "reason": self.reason,
            "self_dual": self.self_dual,
            "multiplicity_free": self.multiplicity_free,
            "quadric_count": self.quadric_count,
            "algebra_dim": self.algebra_dim,
            "angle_audit": self.angle_audit_passed,
        }


def _evaluate_candidate(o: Orbit) -> CandidateVerdict:
    """Filters (iii)-(v) plus the angle audit, for a candidate with dim V equal
    to twice the cone dimension."""
    rs = o.rs
    verdict = CandidateVerdict(rs.type_label, o.weight, o.dim, o.cone, status="rejected")
    verdict.self_dual = is_self_dual(o)
    if not verdict.self_dual:
        verdict.reason = "representation is not self-dual"
        return verdict
    verdict.multiplicity_free = distinct_weight_count(o) == o.dim
    if not verdict.multiplicity_free:
        verdict.reason = "representation contains a multiple weight"
        return verdict
    verdict.quadric_count = product_quadrics([o])
    verdict.algebra_dim = type_dimension(rs.label, rs.rank)
    if verdict.quadric_count != verdict.algebra_dim:
        verdict.reason = (
            f"orbit lies on {verdict.quadric_count} quadrics but the algebra "
            f"has dimension {verdict.algebra_dim}"
        )
        return verdict
    verdict.angle_audit_passed = angle_audit(o)
    if not verdict.angle_audit_passed:
        verdict.reason = "nilradical roots contain an obtuse pair"
        return verdict
    verdict.status = "accepted"
    return verdict


class WeightTables(NamedTuple):
    """The canonical weights of every simple type up to a rank bound under
    the simple scan's cap 2 |Phi+| + 2, and under `max_dim` when one is
    given, type by type and each type's in lexicographic order."""
    max_dim: Optional[int]
    factors: Tuple[Orbit, ...]


def weight_tables(max_rank: int, max_dim: Optional[int] = None) -> WeightTables:
    """The one weight table that both scans of a call read."""
    factors: List[Orbit] = []
    for label, rank in simple_types_up_to(max_rank):
        rs = build_root_system(label, rank)
        cap = 2 * len(rs.positive_roots) + 2
        factors += _canonical_weights(rs, cap if max_dim is None else min(cap, max_dim))
    return WeightTables(max_dim, tuple(factors))


def enumerate_simple(tables: WeightTables) -> List[CandidateVerdict]:
    """A verdict on every entry of `tables`: every canonical weight of every
    simple type under the derived cap 2 |Phi+| + 2, and under `max_dim` when
    one is given."""
    verdicts: List[CandidateVerdict] = []
    for f in tables.factors:
        if f.dim == 2 * f.cone:
            verdicts.append(_evaluate_candidate(f))
            continue
        side = "below" if f.dim < 2 * f.cone else "exceeds"
        verdicts.append(CandidateVerdict(
            f.rs.type_label, f.weight, f.dim, f.cone, "rejected",
            f"dimension {side} twice the orbit dimension"))
    return verdicts


def _canonical_weights(rs: AbstractRootSystem, cap: int) -> List[Orbit]:
    """The nonzero canonical dominant weights with dim V(lambda) <= cap, in
    lexicographic order, each as its `Orbit`: its dimension, pairing vector
    and cone dimension.

    The Weyl dimension grows strictly in every coordinate, so the weights are
    grown one coordinate at a time, and a prefix is raised only while it,
    padded with zeros, is still under the cap.  The padded prefix has the
    prefix's own p, and raising its coordinate i by one adds column i of the
    coroot table, so each probe costs one vector sum and one product.
    """
    layer = [((), 1, rho_pairings(rs, (0,) * rs.rank))]
    for column in rs.coroot_columns:
        grown = []
        for prefix, dim, p in layer:
            grown.append((prefix + (0,), dim, p))
            for k in itertools.count(1):
                p = tuple(map(add, p, column))
                dim = pairing_dimension(rs, p)
                if dim > cap:
                    break
                grown.append((prefix + (k,), dim, p))
        layer = grown
    return [Orbit(rs, w, dim, p, pairing_cone_dimension(rs, p)) for w, dim, p in layer
            if any(w) and is_canonical_weight(rs.label, rs.rank, w)]


# ---------------------------------------------------------------------------
# Semisimple (tensor product) scan.
# ---------------------------------------------------------------------------


@dataclass
class PairVerdict:
    """One tensor product of k >= 2 factors; the name is from k = 2."""
    factors: Tuple[str, ...]
    weights: Tuple[Tuple[int, ...], ...]
    dim_v: int
    dim_cone: int
    status: str
    reason: str = ""

    def to_dict(self) -> dict:
        return {
            "factors": list(self.factors),
            "weights": [list(w) for w in self.weights],
            "dim_V": self.dim_v,
            "dim_cone": self.dim_cone,
            "status": self.status,
            "reason": self.reason,
        }


def _products(factors: Sequence[Orbit]) -> Iterator[Sequence[Orbit]]:
    """The tensor products of `factors` that the bound allows."""
    line, three, four = ([f for f in factors if f.dim == n] for n in (2, 3, 4))
    yield from ((a, x) for a in line for x in factors if x.dim <= len(x.rs.positive_roots) + 2)
    yield from itertools.combinations_with_replacement(three, 2)
    yield from itertools.product(three, four)
    yield from itertools.combinations_with_replacement(line, 3)


def enumerate_semisimple_pairs(tables: WeightTables) -> List[PairVerdict]:
    """Every tensor product V(lambda_1) (x) ... (x) V(lambda_k) of k >= 2
    canonical factors from `tables` that the bound allows: A1(1) (x) X with
    dim X <= |Phi_X+| + 2, the pairs of dimensions (3, 3) and (3, 4), and
    A1(1)^(x)3; with dim V <= the tables' `max_dim` when one is given.  A
    factor's automorphisms act on it alone, so each factor is canonical on
    its own.
    """
    verdicts: List[PairVerdict] = []
    # a factor recurs in many products: decide each once, in this call only
    self_dual = functools.cache(is_self_dual)
    multiplicity_free = functools.cache(lambda f: distinct_weight_count(f) == f.dim)
    max_dim = tables.max_dim
    for product in _products(tables.factors):
        dim_v = prod(f.dim for f in product)
        if max_dim is not None and dim_v > max_dim:
            continue
        cone = segre_cone_dimension(product)
        verdict = PairVerdict(
            tuple(f.rs.type_label for f in product), tuple(f.weight for f in product),
            dim_v, cone, status="rejected",
        )
        verdicts.append(verdict)
        if dim_v != 2 * cone:
            verdict.reason = f"dimension {dim_v} differs from twice the product cone dimension {cone}"
        elif not all(map(self_dual, product)):
            verdict.reason = "a tensor factor is not self-dual"
        # the weights of the product are the tuples of factor weights
        elif not all(map(multiplicity_free, product)):
            verdict.reason = "tensor product contains a multiple weight"
        else:
            quadrics = product_quadrics(product)
            algebra = sum(type_dimension(f.rs.label, f.rs.rank) for f in product)
            if quadrics != algebra:
                verdict.reason = f"orbit lies on {quadrics} quadrics but the algebra has dimension {algebra}"
            else:
                verdict.status = "accepted"
    verdicts.sort(key=lambda v: (v.factors, v.weights))
    return verdicts
