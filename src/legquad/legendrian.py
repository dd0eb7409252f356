"""Legendrianity verdicts for projective varieties given by ideal generators.

The decision procedure follows the bracket-closure criterion: a variety cut
out by an ideal I is legendrian exactly when I is closed under the Poisson
bracket and every irreducible component of the affine cone has dimension n
(half the ambient dimension).  Equidimensionality of components is not
decidable without primary decomposition, so verdicts check the total cone
dimension only.

Closure is linear algebra, and every input takes the one bracket pass of
`liealg.bracket_closure`: a bracket of degree d lies in the homogeneous
ideal exactly when it lies in the degree-d part I_d, the span of the
generator multiples of degree d (`liealg.degree_part`).  When the generators
are quadrics, I_2 is their span, and the same pass gives the Lie algebra of
that span.  `degeneracy_check` reads a hyperplane off I_1's last pivot,
whose row is on monomial codes (`poly.MonomialCodec`).

The cone dimension comes from the first of `CERTIFICATES` that proves it:
each returns a `Proof` (its name, the dimension and the report keys it
appends) or raises NotCertified naming the condition that fails.
`kostant_certificate` comes first: when the generators span a closed
quadric algebra g that is semisimple, a torus with diagonal sp-images gives
every coordinate a weight, V is the irreducible V(lambda) and the
generators span the quadrics of the closed orbit of G in P(V), Kostant's
theorem makes the ideal that orbit's ideal, and the dimension comes from
root data with no Groebner basis: conditions 4 and 6 and the dimension read
one `rootdata.Orbit` per simple factor, the record the scan's filters read.
`groebner_certificate` refuses no input: it takes the dimension from the
grevlex initial ideal (`groebner.initial_ideal`: the F4 steps of a Groebner
basis, with no interreduction), so an exhausted budget leaves the dimension
undecided but never hides a failed closure.

A variety given by a chart phi in m parameters instead has
`isotropy_identity(phi, form)`: its closure is isotropic exactly when m
polynomial pairings vanish.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .groebner import (
    BudgetExceeded,
    DEFAULT_PAIR_BUDGET,
    initial_ideal,
    krull_dimension,
)
from .liealg import (
    LieAlgebraPresentation,
    NotAdaptedError,
    bracket_closure,
    degree_part,
    simple_factors,
    split_root_data,
)
from .poly import MonomialCodec, Polynomial
from .rootdata import (
    build_root_system,
    canonical_weight,
    orbit,
    product_quadrics,
    segre_cone_dimension,
    type_key,
)
from .symplectic import SymplecticForm, VarietyPresentation


@dataclass
class Proof:
    """What a certificate proved: its name, the dimension of the affine
    cone, and the keys it appends to the report after `certificate`."""

    certificate: str
    dimension: int
    keys: Dict[str, list] = field(default_factory=dict)


class NotCertified(ValueError):
    """A condition of a certificate fails; the message names it."""


@dataclass
class LegendrianVerdict:
    bracket_closed: bool
    degenerate: bool
    verdict: str                    # "legendrian" | "not-legendrian" | "undecided"
    witnesses: List[str] = field(default_factory=list)
    budget_name: Optional[str] = None
    proof: Optional[Proof] = None   # None when the budget ran out

    @property
    def cone_dimension(self) -> Optional[int]:
        return None if self.proof is None else self.proof.dimension

    @property
    def certificate(self) -> Optional[str]:
        """What proved the dimension, or None when the budget ran out."""
        return None if self.proof is None else self.proof.certificate

    def to_dict(self) -> dict:
        return {
            "bracket_closed": self.bracket_closed,
            "dimension": self.cone_dimension,
            "degenerate": self.degenerate,
            "verdict": self.verdict,
            "witnesses": list(self.witnesses),
            "budget": self.budget_name,
            "certificate": self.certificate,
            **(self.proof.keys if self.proof else {}),
        }


def degeneracy_check(v: VarietyPresentation) -> Optional[Polynomial]:
    """A hyperplane containing the variety, when one exists: the monic
    reduced row of I_1 with the smallest grevlex leading monomial, which is
    the first degree-1 element of the reduced Groebner basis.  The unit ideal
    gets None, as its reduced basis is {1}."""
    if any(g.degree() == 0 for g in v.generators):
        return None
    codec = MonomialCodec(v.nvars, 1)
    span = degree_part(v.generators, 1, codec)
    if not span.pivots:
        return None
    lead = span.pivots[-1]  # its row has no other pivot column, so it is reduced
    row = span.rows[lead]
    return codec.polynomial(row, row[lead])


def kostant_certificate(v: VarietyPresentation, algebra: Optional[LieAlgebraPresentation],
                        budget: int = DEFAULT_PAIR_BUDGET) -> Proof:
    """Prove that the generators of `v`, which span the quadric algebra g,
    generate the ideal of the closed orbit X of G in P(V), and give the
    dimension of its cone, with its types and lambda as report keys; raise
    NotCertified naming the first condition that fails.  It takes no
    S-pairs, so it ignores `budget`.

    By Kostant's theorem (Lichtenstein, Proc. AMS 84, 1982) the ideal of X
    in P(V(lambda)) is generated by its quadrics, the complement of
    V(2 lambda)* in S^2 V*.  The conditions:

    0. The generators are quadrics closed under the bracket, and `algebra`
       is the Lie algebra g of their span (`liealg.bracket_closure`).
    1. g is semisimple.
    2. A torus with diagonal sp-images splits g (`split_root_data`), so
       each coordinate is a weight vector, and the roots, simple roots of
       `simple_factors` among them, are integer weights in the same scale.
    3. Exactly one weight lambda has no weight at lambda + alpha_i for a
       simple root alpha_i, and one coordinate has it.  The alpha_i-string
       through lambda then runs down exactly <lambda, alpha_i^vee> steps, so
       the string lengths are lambda's Dynkin labels, and the top coordinate
       vector generates V(lambda).
    4. The Weyl dimension of V(lambda), a product over the simple factors,
       is N, so V = V(lambda).
    5. No generator has the square of the top coordinate, so the generators
       vanish at the highest weight vector; being G-stable, they vanish on X.
    6. dim g = C(N + 1, 2) - dim V(2 lambda): the generators span all the
       quadrics through X.

    The ideal is then I(X), and the cone over X, a product of the factors'
    orbits under the Segre map, has dimension 1 + sum (cone_i - 1).  Each
    factor is one `rootdata.Orbit`, the record the scan tests, with lambda
    as the scan writes it (`rootdata.canonical_weight`).
    """
    if algebra is None:
        raise NotCertified("condition 0: the generators span no closed quadric algebra")
    if not algebra.is_semisimple():
        raise NotCertified("condition 1: the quadric algebra is not semisimple")
    try:
        cd = split_root_data(algebra)
    except NotAdaptedError as exc:
        raise NotCertified(f"condition 2: {exc}") from None
    coordinates = cd.weights
    present = set(coordinates)
    simple_roots = [
        (label, [cd.root_spaces[i][0] for i in nodes])
        for label, nodes in simple_factors(cd)
    ]
    simple = [alpha for _, roots in simple_roots for alpha in roots]
    tops = [mu for mu in present
            if not any(tuple(m + a for m, a in zip(mu, alpha)) in present for alpha in simple)]
    if len(tops) != 1 or coordinates.count(tops[0]) != 1:
        raise NotCertified(
            f"condition 3: {len(tops)} highest weights, on "
            f"{sum(coordinates.count(mu) for mu in tops)} coordinates"
        )
    lam = tops[0]

    def string_length(alpha) -> int:
        p = 0
        while tuple(m - (p + 1) * a for m, a in zip(lam, alpha)) in present:
            p += 1
        return p

    orbits = sorted(
        (orbit(build_root_system(*type_key(label)),
               canonical_weight(label, [string_length(alpha) for alpha in roots]))
         for label, roots in simple_roots),
        key=lambda o: (type_key(o.rs.type_label), o.weight),
    )
    nvars = v.nvars
    dim_v = math.prod(o.dim for o in orbits)
    if dim_v != nvars:
        raise NotCertified(f"condition 4: V(lambda) has dimension {dim_v}, not {nvars}")
    top = coordinates.index(lam)
    square = tuple(2 * (k == top) for k in range(nvars))
    if any(square in g.terms for g in v.generators):
        raise NotCertified("condition 5: a generator does not vanish at the highest weight vector")
    quadrics = product_quadrics(orbits)
    if algebra.dim != quadrics:
        raise NotCertified(
            f"condition 6: {algebra.dim} generators, but the orbit lies on {quadrics} quadrics"
        )
    keys = {"type": [o.rs.type_label for o in orbits], "highest_weight": [list(o.weight) for o in orbits]}
    return Proof("kostant", segre_cone_dimension(orbits), keys)


def groebner_certificate(v: VarietyPresentation, algebra: Optional[LieAlgebraPresentation],
                         budget: int = DEFAULT_PAIR_BUDGET) -> Proof:
    """The dimension of the cone from the grevlex initial ideal, whose
    S-pairs `budget` caps; it holds on every input, and raises
    BudgetExceeded when the budget runs out."""
    leads = initial_ideal(v.generators, v.nvars, max_pairs=budget)
    return Proof("groebner", krull_dimension(leads, v.nvars))


CERTIFICATES = (kostant_certificate, groebner_certificate)


def legendrian_verdict(v: VarietyPresentation, budget: int = DEFAULT_PAIR_BUDGET) -> LegendrianVerdict:
    """Combine bracket closure, cone dimension and degeneracy into one verdict.

    The cone dimension is the first proof of `CERTIFICATES`, walked in
    order on the input and the algebra of its closed quadric span (None for
    any other input); a refusal passes to the next certificate.  `budget`
    caps the S-pairs of a certificate that needs a Groebner basis.  When it
    runs out, a failed closure still decides the verdict (not-legendrian);
    a closed ideal stays undecided.
    """
    n = v.half_dim
    failing, algebra = bracket_closure(v.generators, v.form)
    closed = not failing
    witnesses = [f"bracket of generators {i} and {j} is not in the ideal" for i, j in failing]
    proof, budget_name = None, None
    try:
        for certify in CERTIFICATES:
            with contextlib.suppress(NotCertified):
                proof = certify(v, algebra, budget)
                break
    except BudgetExceeded as exc:
        budget_name = exc.budget_name
        witnesses.append("groebner basis not computed within budget")
    dimension = None if proof is None else proof.dimension
    if dimension is not None and dimension != n:
        witnesses.append(f"cone dimension {dimension} differs from n = {n}")
    verdict = ("undecided" if closed and dimension is None
               else "legendrian" if closed and dimension == n else "not-legendrian")
    return LegendrianVerdict(bracket_closed=closed, degenerate=degeneracy_check(v) is not None,
                             verdict=verdict, witnesses=witnesses, budget_name=budget_name, proof=proof)


def isotropy_identity(phi: Sequence[Polynomial], form: SymplecticForm) -> bool:
    """Whether the closure of the variety that the chart phi parametrizes,
    one component per coordinate of the form, is isotropic, proved by
    polynomial identities: omega(phi, d_k phi) is the zero polynomial for
    every chart parameter k.

    These m pairings are enough.  With g_k = omega(phi, d_k phi),
    d_l g_k - d_k g_l = 2 omega(d_l phi, d_k phi), so once every g_k
    vanishes, omega vanishes on the span of phi and its partials, the
    tangent space of the cone at phi.  den * J phi is read off the form's
    integer rows once, a scale no zero test sees; no point is sampled."""
    if not phi or len(phi) != form.dim:
        raise ValueError("a parametrization needs one component per coordinate of the form")
    zero = Polynomial.zero(phi[0].nvars)
    j_phi = [sum((phi[b].scale(a) for b, a in row), zero) for row in form.rows]
    return all(  # each sum is omega(d_k phi, phi) = -g_k
        not sum((d * y for comp, y in zip(phi, j_phi) if (d := comp.partial_derivative(k))), zero)
        for k in range(zero.nvars)
    )
