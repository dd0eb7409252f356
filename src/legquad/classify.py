"""Rerun of the representation-theoretic classification scan.

For every simple type and every weight along an edge of the Weyl chamber the
enumerator walks k * omega_i upward and tests the necessary conditions for
the highest weight orbit to be a legendrian variety cut out by quadrics:

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

Every filter is exact and uncapped, so no candidate is left undecided.
Acceptance means "survives every filter"; sufficiency is settled by the
explicit constructions in the catalog, not re-proved here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .rootdata import (
    AbstractRootSystem,
    angle_audit,
    build_root_system,
    closed_orbit_cone_dimension,
    closed_orbit_quadrics,
    cone_orbit_dimension,
    distinct_weight_count,
    is_multiplicity_free,
    is_self_dual,
    simple_types_up_to,
    type_dimension,
    weyl_dimension,
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


def _evaluate_candidate(
    rs: AbstractRootSystem, coeffs: Tuple[int, ...], dim_v: int, cone: int
) -> CandidateVerdict:
    """Filters (iii)-(v) plus the angle audit, for a candidate with dim V equal
    to twice the cone dimension."""
    verdict = CandidateVerdict(rs.type_label, coeffs, dim_v, cone, status="rejected")
    verdict.self_dual = is_self_dual(rs, coeffs)
    if not verdict.self_dual:
        verdict.reason = "representation is not self-dual"
        return verdict
    verdict.multiplicity_free = is_multiplicity_free(rs, coeffs)
    if not verdict.multiplicity_free:
        verdict.reason = "representation contains a multiple weight"
        return verdict
    verdict.quadric_count = closed_orbit_quadrics([(rs, coeffs)])
    verdict.algebra_dim = type_dimension(rs.label, rs.rank)
    if verdict.quadric_count != verdict.algebra_dim:
        verdict.reason = (
            f"orbit lies on {verdict.quadric_count} quadrics but the algebra "
            f"has dimension {verdict.algebra_dim}"
        )
        return verdict
    verdict.angle_audit_passed = angle_audit(rs, coeffs)
    if not verdict.angle_audit_passed:
        verdict.reason = "nilradical roots contain an obtuse pair"
        return verdict
    verdict.status = "accepted"
    return verdict


def enumerate_simple(max_rank: int, max_dim: int) -> List[CandidateVerdict]:
    """Walk every Weyl chamber edge of every simple type up to the bounds.

    The cone dimension is constant along an edge while the representation
    dimension is strictly increasing in k, so each edge crosses the
    twice-the-orbit threshold at most once.
    """
    if max_rank < 1 or max_dim < 1:
        raise ValueError("bounds must be positive")
    verdicts: List[CandidateVerdict] = []
    for label, rank in simple_types_up_to(max_rank):
        rs = build_root_system(label, rank)
        for edge in range(rank):
            if not is_canonical_weight(label, rank, _edge_weight(rank, edge, 1)):
                continue
            cone = cone_orbit_dimension(rs, _edge_weight(rank, edge, 1))
            k = 1
            while True:
                coeffs = _edge_weight(rank, edge, k)
                dim_v = weyl_dimension(rs, coeffs)
                if dim_v > max_dim:
                    break
                if dim_v == 2 * cone:
                    verdicts.append(_evaluate_candidate(rs, coeffs, dim_v, cone))
                else:
                    reason = ("dimension below twice the orbit dimension; walking the edge"
                              if dim_v < 2 * cone else
                              "dimension exceeds twice the orbit dimension; edge exhausted")
                    verdicts.append(CandidateVerdict(rs.type_label, coeffs, dim_v, cone, "rejected", reason))
                    if dim_v > 2 * cone:
                        break
                k += 1
    return verdicts


def _edge_weight(rank: int, edge: int, k: int) -> Tuple[int, ...]:
    coeffs = [0] * rank
    coeffs[edge] = k
    return tuple(coeffs)


def is_canonical_weight(label: str, rank: int, coeffs: Tuple[int, ...]) -> bool:
    """Convention for the orbit representative: A-weights lean on the early
    nodes, D4 leans on the vector node, higher D on the last spin node, E6 on
    nodes 1 and 3."""
    if label == "A":
        return tuple(coeffs) >= tuple(reversed(coeffs))
    if label == "D" and rank == 4:
        c1, _, c3, c4 = coeffs
        return (c1, c3, c4) == tuple(sorted((c1, c3, c4), reverse=True))
    if label == "D":
        return coeffs[rank - 2] <= coeffs[rank - 1]
    if label == "E" and rank == 6:
        return (coeffs[0], coeffs[2]) >= (coeffs[5], coeffs[4])
    return True


# ---------------------------------------------------------------------------
# Semisimple (two-factor) scan.
# ---------------------------------------------------------------------------


@dataclass
class PairVerdict:
    factors: Tuple[str, str]
    weights: Tuple[Tuple[int, ...], Tuple[int, ...]]
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


def _factor_representations(max_rank: int, max_dim: int):
    """All (type, weight, dim) with dim at most max_dim, per simple factor."""
    out = []
    for label, rank in simple_types_up_to(max_rank):
        rs = build_root_system(label, rank)
        for coeffs, dim in _dominant_weights_with_dim_cap(rs, max_dim):
            if is_canonical_weight(label, rank, coeffs):
                out.append((rs, coeffs, dim))
    return out


def _dominant_weights_with_dim_cap(rs: AbstractRootSystem, max_dim: int):
    """(weight, dim V(weight)) for the nonzero dominant weights whose
    representation dimension fits the cap.

    The Weyl dimension is monotone in every coefficient, which bounds the
    search box coordinate-wise.
    """
    rank = rs.rank
    bounds = []
    for i in range(rank):
        k = 1
        while weyl_dimension(rs, _edge_weight(rank, i, k)) <= max_dim:
            k += 1
        bounds.append(k - 1)
    for combo in itertools.product(*(range(b + 1) for b in bounds)):
        if not any(combo):
            continue
        dim = weyl_dimension(rs, combo)
        if dim <= max_dim:
            yield combo, dim


def enumerate_semisimple_pairs(max_rank: int, max_dim: int) -> List[PairVerdict]:
    """Two-factor tensor candidates g_a + g_b acting on W_a (x) W_b.

    A semisimple-but-not-simple algebra forces one factor to act with
    exactly two distinct weights; the survivors are the line-times-quadric
    family.  Splittings with three or more simple factors are covered by the
    orthogonal factor decomposing further (so_4), not enumerated separately.
    """
    if max_rank < 1 or max_dim < 1:
        raise ValueError("bounds must be positive")
    factors = _factor_representations(max_rank, max_dim // 2)
    verdicts: List[PairVerdict] = []
    for rs_a, wa, dim_a in factors:
        if distinct_weight_count(rs_a, wa) != 2:
            continue
        for rs_b, wb, dim_b in factors:
            dim_v = dim_a * dim_b
            if dim_v > max_dim:
                continue
            pair = [(rs_a, wa), (rs_b, wb)]
            cone = closed_orbit_cone_dimension(pair)
            verdict = PairVerdict(
                (rs_a.type_label, rs_b.type_label), (wa, wb), dim_v, cone, status="rejected"
            )
            if dim_v != 2 * cone:
                verdict.reason = (
                    f"dimension {dim_v} differs from twice the product cone dimension {cone}"
                )
                verdicts.append(verdict)
                continue
            if not is_self_dual(rs_a, wa) or not is_self_dual(rs_b, wb):
                verdict.reason = "a tensor factor is not self-dual"
                verdicts.append(verdict)
                continue
            if not is_multiplicity_free(rs_b, wb):
                verdict.reason = "tensor product contains a multiple weight"
                verdicts.append(verdict)
                continue
            quadrics = closed_orbit_quadrics(pair)
            algebra = type_dimension(rs_a.label, rs_a.rank) + type_dimension(rs_b.label, rs_b.rank)
            if quadrics != algebra:
                verdict.reason = (
                    f"orbit lies on {quadrics} quadrics but the algebra has dimension {algebra}"
                )
                verdicts.append(verdict)
                continue
            verdict.status = "accepted"
            verdicts.append(verdict)
    # Pairs without a two-weight factor are all rejected; one line each would flood the report.
    verdicts.sort(key=lambda v: (v.factors, v.weights))
    return verdicts
