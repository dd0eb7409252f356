"""Readings of the classification scan's verdict lists that only the tests
take: the accepted candidates, as the paper's tables list them."""

from __future__ import annotations

from typing import List, Sequence, Tuple

from legquad.classify import CandidateVerdict, PairVerdict


def accepted_simple(verdicts: Sequence[CandidateVerdict]) -> List[Tuple[str, Tuple[int, ...]]]:
    return [(v.type_label, v.weight) for v in verdicts if v.status == "accepted"]


def accepted_pairs(verdicts: Sequence[PairVerdict]) -> List[Tuple[Tuple[str, str], Tuple]]:
    """The accepted products of two factors; the product scan also lists the
    one of three."""
    return [(v.factors, v.weights) for v in verdicts if v.status == "accepted" and len(v.factors) == 2]
