"""Test oracles for `legquad.liealg`.

The structure constants of `close_and_present` take the route the package
took before its brackets ran on packed integer monomials: gradients and
brackets over Fractions keyed by exponent tuples, the dual matrix read as
Fractions, and each bracket written over the basis by the heap elimination
of one tracked `linalg.Echelon` over grevlex columns, never reduced, with no
rescaling after.

The brackets of vectors, ad-matrices, the Killing form, the diagonal test
and the torus search below are dense Fraction routes, kept here as the
independent side of the tests of the bracket table.

`quadric_term_root_decomposition` is the root decomposition the package
ran before it read the integer sp-images: each basis quadric's Fraction
terms c x_p x_q grouped by their weight w_p + w_q.

The last sections hold routes only the tests take: the Jacobi identity on
basis triples, the echelon basis of a generator list's quadrics, exact
exponentials of nilpotent sp-images and the block view of an sp element.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from legquad import linalg
from legquad.liealg import CartanData, LieAlgebraPresentation, NotAdaptedError, _coordinate_weights
from legquad.poly import Exponent, Polynomial, grevlex_key
from legquad.symplectic import SymplecticForm

from linalg_oracle import (
    Matrix, Vector, identity, is_symmetric, mat, mat_add, mat_eq_zero, mat_mul, mat_scale, mat_vec,
    transpose, zeros,
)

Gradient = Dict[int, List[Tuple[Exponent, Fraction]]]
StructureConstants = Dict[Tuple[int, int], Optional[Dict[int, Fraction]]]


def grevlex_columns(polys: Sequence[Polynomial]) -> Dict[Exponent, int]:
    """Column index of every monomial of `polys`, largest grevlex monomial
    first, so that row echelon forms pivot on leading monomials."""
    monomials = sorted({m for p in polys for m in p.terms}, key=grevlex_key, reverse=True)
    return {m: col for col, m in enumerate(monomials)}


def gradient(p: Polynomial) -> Gradient:
    out: Gradient = {}
    for m, c in p.terms.items():
        for i, e in enumerate(m):
            if e:
                out.setdefault(i, []).append((m[:i] + (e - 1,) + m[i + 1 :], c * e))
    return out


def bracket(grad_f: Gradient, grad_g: Gradient, form: SymplecticForm) -> Dict[Exponent, Fraction]:
    out: Dict[Exponent, Fraction] = {}
    dual = form.dual_matrix
    for i, df in grad_f.items():
        for j, w in enumerate(dual[i]):
            dg = grad_g.get(j)
            if not w or dg is None:
                continue
            for m1, c1 in df:
                for m2, c2 in dg:
                    key = tuple(x + y for x, y in zip(m1, m2))
                    out[key] = out.get(key, 0) + w * c1 * c2
    return {m: c for m, c in out.items() if c}


def _heap_coefficients(span: linalg.Echelon, vec: Mapping[int, Fraction]) -> Optional[Dict[int, Fraction]]:
    """vec over the stored inputs of a tracked span that is never reduced,
    by the heap elimination `Echelon.add` runs, or None outside the span:
    the way the package wrote vectors before it read them off a reduced
    span."""
    work, den = linalg.integral(vec)
    combo: Dict[int, int] = {}
    m = span._reduce(work, combo)  # work = m * den * vec + sum_i combo[i] * (scale_i * input_i)
    if work:
        return None
    return {i: Fraction(-combo[i] * span._scales[i], m * den) for i in sorted(combo)}


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
                    _heap_coefficients(span, {columns[m]: c for m, c in br.items()}) if inside else None
                )
    return structure


# ---------------------------------------------------------------------------
# Dense Fraction routes of the adjoint action, the Killing form and the torus
# search: the package's arithmetic before it read one sparse integer bracket
# table.  Brackets read `bracket_coeffs` only, and sp-images are the 2 W A of
# `symplectic_oracle.quadric_to_sp`, so neither shares the table or the
# sparse sp-entries of `liealg`.
# ---------------------------------------------------------------------------


def unit(dim: int, i: int) -> Vector:
    v = [Fraction(0)] * dim
    v[i] = Fraction(1)
    return v


def dense(vec: Mapping[int, Fraction], dim: int) -> Vector:
    """The dense coordinate list of a sparse vector of the package (index
    -> nonzero value): the one bridge from its vectors to the dense routes
    here."""
    return [Fraction(vec.get(i, 0)) for i in range(dim)]


def bracket_coeffs(algebra: LieAlgebraPresentation, i: int, j: int) -> Dict[int, Fraction]:
    """[b_i, b_j] as a sparse coefficient vector over the basis, read off
    the Fraction structure constants."""
    if i == j:
        return {}
    if i < j:
        return dict(algebra.structure.get((i, j), {}))
    return {k: -v for k, v in algebra.structure.get((j, i), {}).items()}


def bracket_vectors(algebra: LieAlgebraPresentation, u: Sequence, v: Sequence) -> Dict[int, Fraction]:
    out: Dict[int, Fraction] = {}
    ui = [(i, Fraction(x)) for i, x in enumerate(u) if x]
    vj = [(j, Fraction(x)) for j, x in enumerate(v) if x]
    for i, uc in ui:
        for j, vc in vj:
            if i == j:
                continue
            for k, c in bracket_coeffs(algebra, i, j).items():
                s = out.get(k, Fraction(0)) + uc * vc * c
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
    return out


def ad_matrix(algebra: LieAlgebraPresentation, vec: Sequence) -> Matrix:
    """Matrix of ad(v) on basis coordinates, one dense bracket per column."""
    out = zeros(algebra.dim, algebra.dim)
    for j in range(algebra.dim):
        for k, c in bracket_vectors(algebra, vec, unit(algebra.dim, j)).items():
            out[k][j] = c
    return out


def killing_matrix(algebra: LieAlgebraPresentation) -> Matrix:
    """tr(ad_i ad_j) over Fraction structure constants."""
    by_pair: Dict[Tuple[int, int], List[Tuple[int, Fraction]]] = {}
    for (i, k), col in algebra.structure.items():
        for l, c in col.items():
            by_pair.setdefault((k, l), []).append((i, c))
            by_pair.setdefault((i, l), []).append((k, -c))
    kappa = zeros(algebra.dim, algebra.dim)
    for (k, l), left in by_pair.items():
        right = by_pair.get((l, k))
        if right:
            for i, c in left:
                for j, d in right:
                    kappa[i][j] += c * d
    return kappa


@functools.lru_cache(maxsize=4)
def sp_images(algebra: LieAlgebraPresentation) -> List[Matrix]:
    """2 W A for the dual matrix W and the dense symmetric matrix A of each
    basis quadric (x^T A x), as `symplectic_oracle.quadric_to_sp` writes it, the
    product taken along the nonzero entries of W and A."""
    n = algebra.form.dim
    nonzero = [[(r, w) for r, w in enumerate(row) if w] for row in algebra.form.dual_matrix]
    out = []
    for b in algebra.basis:
        a = zeros(n, n)
        for exps, c in b.terms.items():
            r, q = [i for i, e in enumerate(exps) for _ in range(e)]
            a[r][q] += c if r == q else c / 2
            if r != q:
                a[q][r] += c / 2
        image = zeros(n, n)
        for p in range(n):
            for r, w in nonzero[p]:
                for q, x in enumerate(a[r]):
                    if x:
                        image[p][q] += 2 * w * x
        out.append(image)
    return out


def sp_image(algebra: LieAlgebraPresentation, vec: Sequence) -> Matrix:
    out = zeros(algebra.form.dim, algebra.form.dim)
    for c, image in zip(vec, sp_images(algebra)):
        if c:
            out = mat_add(out, mat_scale(image, c))
    return out


def diagonal_candidates(algebra: LieAlgebraPresentation) -> List[int]:
    """Basis indices whose dense sp-images have no off-diagonal entry."""
    out = []
    for idx, image in enumerate(sp_images(algebra)):
        if all(image[p][q] == 0 for p in range(len(image)) for q in range(len(image)) if p != q):
            out.append(idx)
    return out


def cartan_data(algebra: LieAlgebraPresentation) -> CartanData:
    """`liealg.root_decomposition(algebra, liealg.cartan_subalgebra(algebra))`
    on the dense routes above; raises NotAdaptedError where it does."""
    return _root_decomposition(algebra, _cartan_subalgebra(algebra))


def _nullspace(rows: Matrix, ncols: int) -> List[Vector]:
    """The canonical kernel basis of dense rows, by the package's kernel."""
    kernel = linalg.sparse_nullspace((dict(enumerate(row)) for row in rows), range(ncols))
    return [dense(v, ncols) for v in kernel]


def _centralizer(algebra, vectors: List[Vector]) -> List[Vector]:
    if not vectors:
        return [list(r) for r in identity(algebra.dim)]
    if len(vectors) > 1:
        generic = [Fraction(0)] * algebra.dim
        for a, h in enumerate(vectors):
            for i, x in enumerate(h):
                generic[i] += (a + 1) * x
        kernel = _nullspace(ad_matrix(algebra, generic), algebra.dim)
        if all(not bracket_vectors(algebra, v, h) for v in kernel for h in vectors):
            return kernel
    rows: List[Vector] = []
    for h in vectors:
        rows.extend(ad_matrix(algebra, h))
    return _nullspace(rows, algebra.dim)


def _cartan_subalgebra(algebra) -> CartanData:
    if algebra.dim == 0:
        return CartanData([])
    candidates = diagonal_candidates(algebra)
    if candidates:
        vectors = [unit(algebra.dim, i) for i in candidates]
        central = _centralizer(algebra, vectors)
        if len(central) == len(vectors):
            return CartanData(vectors)
        widened = _diagonal_subspace(algebra, central)
        central2 = _centralizer(algebra, widened)
        if len(central2) == len(widened):
            return CartanData(widened)
    for seed in (1, 3, 7):
        generic = [Fraction((seed * (i + 1)) % (algebra.dim + 2) + 1) for i in range(algebra.dim)]
        central = _centralizer(algebra, [generic])
        if all(not bracket_vectors(algebra, central[a], central[b])
               for a in range(len(central)) for b in range(a + 1, len(central))):
            central2 = _centralizer(algebra, central)
            if len(central2) == len(central):
                return CartanData(central)
    raise NotAdaptedError("no self-centralizing torus found; basis not adapted")


def _span_combination(space: List[Vector], coeffs: Sequence) -> Vector:
    vec = [Fraction(0)] * len(space[0])
    for a, c in enumerate(coeffs):
        for i, x in enumerate(space[a]):
            vec[i] += c * x
    return vec


def _diagonal_subspace(algebra, within: List[Vector]) -> List[Vector]:
    dim2n = algebra.form.dim
    rows = [sp_image(algebra, v) for v in within]
    constraints = []
    for p in range(dim2n):
        for q in range(dim2n):
            row = [rows[a][p][q] for a in range(len(within))]
            if p != q and any(x != 0 for x in row):
                constraints.append(row)
    if not constraints:
        return [_span_combination(within, r) for r in identity(len(within))]
    return [_span_combination(within, c) for c in _nullspace(constraints, len(within))]


def _root_decomposition(algebra, cartan: CartanData) -> CartanData:
    ad_mats = [ad_matrix(algebra, h) for h in cartan.cartan_vectors]
    root_spaces: List[Tuple[Vector, Vector]] = []
    leftover: List[int] = []
    zero_count = 0
    for j in range(algebra.dim):
        root: Vector = []
        for ad_h in ad_mats:
            support = [k for k in range(algebra.dim) if ad_h[k][j]]
            if not support:
                root.append(Fraction(0))
            elif support == [j]:
                root.append(ad_h[j][j])
            else:
                leftover.append(j)
                break
        else:
            if any(root):
                root_spaces.append((root, unit(algebra.dim, j)))
            else:
                zero_count += 1
    if leftover:
        spaces = [[unit(algebra.dim, j) for j in leftover]]
        for ad_h, h in zip(ad_mats, cartan.cartan_vectors):
            rho = sp_image(algebra, h)
            weights = [rho[p][p] for p in range(algebra.form.dim)]
            candidates = sorted({wp + wq for wp in weights for wq in weights})
            spaces = [piece for space in spaces for piece in _split_by_eigenvalue(ad_h, space, candidates)]
        for space in spaces:
            for vec in space:
                root = [_eigen_ratio(mat_vec(ad_h, vec), vec) for ad_h in ad_mats]
                if None in root:
                    raise NotAdaptedError("torus action is not rationally diagonalizable")
                if any(root):
                    root_spaces.append((root, vec))
                else:
                    zero_count += 1
    if zero_count != cartan.rank or len(root_spaces) + cartan.rank != algebra.dim:
        raise NotAdaptedError("root decomposition does not exhaust the algebra")
    return CartanData(
        cartan.cartan_vectors,
        root_spaces=sorted(root_spaces, key=lambda rv: tuple(rv[0]), reverse=True),
    )


def quadric_term_root_decomposition(algebra: LieAlgebraPresentation, cartan: CartanData) -> CartanData:
    """`liealg.root_decomposition` with each weight part read off the basis
    quadrics' terms: x_p x_q has weight w_p + w_q, and the kernels run over
    the Fraction coefficients, keyed by (weight, monomial)."""
    weights = _coordinate_weights(algebra, cartan.cartan_vectors)
    parts: List[Dict[Tuple[int, ...], Dict[Exponent, Fraction]]] = []
    for quadric in algebra.basis:
        part: Dict[Tuple[int, ...], Dict[Exponent, Fraction]] = {}
        for exps, c in quadric.terms.items():
            p, q = [k for k, e in enumerate(exps) for _ in range(e)]
            part.setdefault(tuple(a + b for a, b in zip(weights[p], weights[q])), {})[exps] = c
        parts.append(part)
    mixed = {mu for part in parts if len(part) > 1 for mu in part}
    pairs = []
    leftover = []
    for j, part in enumerate(parts):
        if mixed.isdisjoint(part):
            pairs.append((next(iter(part)), {j: Fraction(1)}))
        else:
            leftover.append(j)
    rows: Dict[Tuple[Tuple[int, ...], Exponent], Dict[int, Fraction]] = {}
    for j in leftover:
        for mu, part in parts[j].items():
            for exps, c in part.items():
                rows.setdefault((mu, exps), {})[j] = c
    for mu in mixed:
        kernel = linalg.sparse_nullspace([row for (nu, _), row in rows.items() if nu != mu], leftover)
        pairs.extend((mu, vec) for vec in kernel)
    pairs.sort(key=lambda pair: pair[0])
    root_spaces = [(tuple(-x for x in mu), vec) for mu, vec in pairs if any(mu)]
    if len(pairs) - len(root_spaces) != cartan.rank:
        raise NotAdaptedError("no self-centralizing torus with diagonal sp-images")
    return CartanData(cartan.cartan_vectors, root_spaces, weights)


def _split_by_eigenvalue(ad_h: Matrix, space: List[Vector], candidates: List[Fraction]) -> List[List[Vector]]:
    if not space:
        return []
    pieces = []
    found = 0
    for lam in candidates:
        shifted = [[x - lam * y for x, y in zip(mat_vec(ad_h, v), v)] for v in space]
        kernel = _nullspace(transpose(shifted), len(space))
        if kernel:
            pieces.append([_span_combination(space, c) for c in kernel])
            found += len(kernel)
    if found != len(space):
        raise NotAdaptedError("torus action is not rationally diagonalizable")
    return pieces


def _eigen_ratio(image: Vector, vec: Vector) -> Optional[Fraction]:
    lam = None
    for x, y in zip(image, vec):
        if y == 0:
            if x != 0:
                return None
            continue
        ratio = Fraction(x) / Fraction(y)
        if lam is None:
            lam = ratio
        elif ratio != lam:
            return None
    return lam if lam is not None else Fraction(0)


# ---------------------------------------------------------------------------
# The Jacobi identity, and the quadrics of a generator list.
# ---------------------------------------------------------------------------


def bracket_ints(algebra: LieAlgebraPresentation, u: Mapping[int, int], v: Mapping[int, int]) -> Dict[int, int]:
    """D * [u, v] for integer coordinate vectors u and v (index -> value),
    nonzero entries only, read off the bracket table."""
    table = algebra.bracket_table()[0]
    out: Dict[int, int] = {}
    for i, x in u.items():
        for j, y in v.items():
            for k, n in table[i].get(j, ()):
                out[k] = out.get(k, 0) + x * y * n
    return {k: s for k, s in out.items() if s}


def verify_jacobi(algebra: LieAlgebraPresentation, max_triples: Optional[int] = None) -> bool:
    """Jacobi identity on basis triples; optionally a deterministic sample."""
    triples = list(itertools.combinations(range(algebra.dim), 3))
    if max_triples is not None and len(triples) > max_triples:
        step = max(1, len(triples) // max_triples)
        triples = triples[::step][:max_triples]
    for i, j, k in triples:
        total: Dict[int, int] = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for l, v in bracket_ints(algebra, {a: 1}, bracket_ints(algebra, {b: 1}, {c: 1})).items():
                total[l] = total.get(l, 0) + v
        if any(total.values()):
            return False
    return True


def quadratic_part(generators: Sequence[Polynomial], nvars: int) -> List[Polynomial]:
    """Echelon basis of the span of the degree-2 generators, leading
    coefficients 1, in the order the generators contribute them."""
    quadrics = [g for g in generators if not g.is_zero() and g.homogeneous_degree() == 2]
    columns = grevlex_columns(quadrics)
    monomials = list(columns)
    span = linalg.Echelon()
    for g in quadrics:
        span.add({columns[m]: c for m, c in g.terms.items()})
    return [
        Polynomial(nvars, {monomials[j]: Fraction(x, row[lead]) for j, x in row.items()})
        for lead, row in span.rows.items()
    ]


# ---------------------------------------------------------------------------
# Exponentials and the block form of sp elements.
# ---------------------------------------------------------------------------


def exp_nilpotent_action(matrix: Sequence[Sequence], vector: Sequence, budget: Optional[int] = None) -> Vector:
    """Exact exp(M) v for nilpotent M; rejects non-nilpotent input.

    The power series is summed up to the nilpotency index, so the result is
    an exact rational vector.
    """
    m = mat(matrix)
    dim = len(m)
    limit = budget if budget is not None else dim
    power = m
    index = None
    for k in range(1, limit + 1):
        if mat_eq_zero(power):
            index = k
            break
        power = mat_mul(power, m)
    if index is None:
        if not mat_eq_zero(power):
            raise ValueError("matrix is not nilpotent within the budget")
        index = limit + 1
    out = [Fraction(x) for x in vector]
    term = [Fraction(x) for x in vector]
    factorial = 1
    for k in range(1, index):
        term = mat_vec(m, term)
        factorial *= k
        out = [a + b / factorial for a, b in zip(out, term)]
    return out


def exp_orbit_points(
    algebra: LieAlgebraPresentation,
    cartan: CartanData,
    base_point: Sequence,
    count: int,
    seed: int,
) -> List[Vector]:
    """Deterministic sample of points in the orbit of the base point.

    Root vectors act nilpotently, so products of their exact exponentials
    map cone points to cone points.
    """
    rng = random.Random(seed)
    roots = cartan.root_spaces
    if not roots:
        raise ValueError("no root vectors to exponentiate")
    points: List[Vector] = []
    for _ in range(count):
        vec = [Fraction(x) for x in base_point]
        for _ in range(rng.randint(1, 3)):
            _, eigvec = roots[rng.randrange(len(roots))]
            rho = sp_image(algebra, dense(eigvec, algebra.dim))
            t = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            vec = exp_nilpotent_action(mat_scale(rho, t), vec)
        points.append(vec)
    return points


@dataclass
class BlockView:
    """Named blocks of an sp element written in the standard block basis."""

    lam0: Fraction
    a1: Vector
    a2: Vector
    b: Vector
    c: Vector
    mu: Fraction
    nu: Fraction
    A: Matrix
    B: Matrix
    C: Matrix

    def vanishes_at_base_point(self) -> bool:
        """Block constraints of algebras whose quadrics vanish at the first
        basis vector: mu = 0, b = 0 and nu = 0."""
        return self.mu == 0 and all(x == 0 for x in self.b) and self.nu == 0


def block_view(matrix: Sequence[Sequence], n: int) -> BlockView:
    """Decompose a 2n x 2n sp matrix into the named blocks.

    The splitting is (1, n-1 | 1, n-1) in both directions; membership in sp
    for the standard form is verified via the block relations.
    """
    m = mat(matrix)
    if len(m) != 2 * n:
        raise ValueError("matrix size does not match n")
    p_block = [row[:n] for row in m[:n]]
    q_block = [row[n:] for row in m[:n]]
    r_block = [row[:n] for row in m[n:]]
    s_block = [row[n:] for row in m[n:]]
    if not is_symmetric(q_block) or not is_symmetric(r_block):
        raise ValueError("matrix is not in sp for the standard form")
    if s_block != [[-p_block[j][i] for j in range(n)] for i in range(n)]:
        raise ValueError("matrix is not in sp for the standard form")
    return BlockView(
        lam0=p_block[0][0],
        a1=[p_block[i][0] for i in range(1, n)],
        a2=[p_block[0][j] for j in range(1, n)],
        b=[r_block[i][0] for i in range(1, n)],
        c=[q_block[i][0] for i in range(1, n)],
        mu=r_block[0][0],
        nu=q_block[0][0],
        A=[row[1:] for row in p_block[1:]],
        B=[row[1:] for row in r_block[1:]],
        C=[row[1:] for row in q_block[1:]],
    )
