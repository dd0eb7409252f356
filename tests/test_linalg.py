import bisect
import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from legquad import linalg

import linalg_oracle
from linalg_oracle import det


def _rref(a):
    """The canonical RREF of a dense matrix read off `linalg.Echelon`, with
    the shape of `a` (zero rows past the rank), and its pivot columns."""
    cols = len(a[0]) if a else 0
    ech = linalg.Echelon()
    for row in a:
        ech.add({j: Fraction(x) for j, x in enumerate(row) if x})
    ech.reduce_fully()
    zero = Fraction(0)
    out = [
        [Fraction(row[j], row[p]) if j in row else zero for j in range(cols)]
        for p, row in sorted(ech.rows.items())
    ]
    out.extend([zero] * cols for _ in range(len(a) - len(out)))
    return out, ech.pivots


def test_rref_and_rank():
    m = linalg_oracle.mat([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    red, pivots = _rref(m)
    assert pivots == [0, 1]
    assert red == linalg_oracle.mat([[1, 0, 1], [0, 1, 1], [0, 0, 0]])


def test_nullspace_orthogonal_to_rows():
    rng = random.Random(4)
    for _ in range(30):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 6)
        m = [[Fraction(rng.randint(-4, 4)) for _ in range(cols)] for _ in range(rows)]
        kernel = linalg.sparse_nullspace(map(dict, map(enumerate, m)), range(cols))
        for v in kernel:
            assert all(sum(row[j] * x for j, x in v.items()) == 0 for row in m)
        assert len(_rref(m)[1]) + len(kernel) == cols


def test_solve_and_inverse():
    m = linalg_oracle.mat([[2, 1], [1, 1]])
    x = linalg_oracle.solve(m, [3, 2])
    assert x == [1, 1]
    inv = linalg_oracle.inverse(m)
    assert linalg_oracle.mat_mul(m, inv) == linalg_oracle.identity(2)
    assert linalg_oracle.solve(linalg_oracle.mat([[1, 1], [1, 1]]), [0, 1]) is None


def test_det_matches_cofactor_on_small_random():
    rng = random.Random(12)

    def cofactor_det(m):
        n = len(m)
        if n == 1:
            return m[0][0]
        total = Fraction(0)
        for j in range(n):
            minor = [row[:j] + row[j + 1 :] for row in m[1:]]
            total += (-1) ** j * m[0][j] * cofactor_det(minor)
        return total

    for _ in range(25):
        n = rng.randint(1, 4)
        m = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        assert det(m) == cofactor_det(m)


def test_symmetry_predicates():
    assert linalg_oracle.is_symmetric([[1, 2], [2, 3]])
    assert not linalg_oracle.is_symmetric([[1, 2], [0, 3]])


# -- the sparse kernel against the dense oracle and sympy ---------------------


def _random_sparse(rng, rows, cols, density=0.35):
    """Sparse rational matrix with duplicate and zero rows mixed in."""
    m = []
    for _ in range(rows):
        roll = rng.random()
        if m and roll < 0.1:
            m.append(list(m[rng.randrange(len(m))]))                      # duplicate
        elif roll < 0.15:
            m.append([Fraction(0)] * cols)                                # zero row
        elif len(m) >= 2 and roll < 0.3:
            a, b = rng.sample(range(len(m)), 2)                           # dependent
            s, t = Fraction(rng.randint(-3, 3), rng.randint(1, 4)), Fraction(rng.randint(-3, 3))
            m.append([s * x + t * y for x, y in zip(m[a], m[b])])
        else:
            m.append([Fraction(rng.randint(-9, 9), rng.randint(1, 6)) if rng.random() < density
                      else Fraction(0) for _ in range(cols)])
    return m


def _sympy(m, cols):
    return sympy.Matrix(len(m), cols, [sympy.Rational(x.numerator, x.denominator) for row in m for x in row])


def _from_sympy(sm):
    return [[Fraction(int(x.p), int(x.q)) for x in sm.row(i)] for i in range(sm.rows)]


@pytest.mark.parametrize("seed", range(6))
def test_rref_rank_nullspace_match_oracle_and_sympy(seed):
    rng = random.Random(seed)
    for _ in range(15):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        m = _random_sparse(rng, rows, cols)
        red, pivots = _rref(m)
        assert (red, pivots) == linalg_oracle.rref(m)
        sred, spivots = _sympy(m, cols).rref()
        assert pivots == list(spivots) and red == _from_sympy(sred)
        assert _sympy(m, cols).rank() == len(pivots)
        kernel = linalg.sparse_nullspace(map(dict, map(enumerate, m)), range(cols))
        assert_in_column_order(kernel)
        assert kernel == _sparse(linalg_oracle.nullspace(m, cols))
        assert kernel == _sparse([[Fraction(int(x.p), int(x.q)) for x in v] for v in _sympy(m, cols).nullspace()])
        assert linalg_oracle.row_space_basis(m) == red[: len(pivots)]


@pytest.mark.parametrize("seed", range(4))
def test_solve_and_inverse_match_sympy(seed):
    rng = random.Random(100 + seed)
    for _ in range(15):
        n = rng.randint(1, 6)
        m = _random_sparse(rng, n, n, density=0.6)
        b = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
        sm = _sympy(m, n)
        if sm.rank() == n:
            assert linalg_oracle.inverse(m) == _from_sympy(sm.inv())
            expected = [Fraction(int(x.p), int(x.q)) for x in sm.LUsolve(sympy.Matrix(b))]
            assert linalg_oracle.solve(m, b) == expected
        else:
            with pytest.raises(ValueError):
                linalg_oracle.inverse(m)
            x = linalg_oracle.solve(m, b)
            consistent = sm.rank() == sm.row_join(_sympy([[v] for v in b], 1)).rank()
            assert (x is not None) == consistent
            if x is not None:
                assert linalg_oracle.mat_vec(m, x) == b


def test_kernel_edge_cases():
    assert _rref([]) == ([], [])
    assert linalg.sparse_nullspace([], range(2)) == [{0: 1}, {1: 1}] == _sparse(linalg_oracle.nullspace([], 2))
    assert linalg_oracle.nullspace([], 2) == linalg_oracle.identity(2)
    zeros = linalg_oracle.zeros(3, 2)
    assert _rref(zeros) == (zeros, []) == linalg_oracle.rref(zeros)
    assert linalg.sparse_nullspace([{}] * 3, range(2)) == [{0: 1}, {1: 1}] == _sparse(linalg_oracle.nullspace(zeros))
    assert linalg_oracle.nullspace(zeros) == linalg_oracle.identity(2)
    assert linalg_oracle.row_space_basis(zeros) == []
    dup = linalg_oracle.mat([[Fraction(1, 2), Fraction(-2, 3)]] * 3)
    assert _rref(dup) == (linalg_oracle.mat([[1, Fraction(-4, 3)], [0, 0], [0, 0]]), [0])
    assert linalg_oracle.solve(dup, [Fraction(1, 2), Fraction(1, 2), 1]) is None
    assert linalg_oracle.solve(dup, [1, 1, 1]) == [2, 0]
    assert linalg_oracle.inverse([]) == [] and linalg_oracle.solve([], []) == []
    with pytest.raises(ValueError):
        linalg_oracle.inverse(dup[:2])


def test_span_membership_recovers_coefficients():
    rng = random.Random(7)
    for _ in range(40):
        cols = rng.randint(1, 10)
        inputs = [{j: x for j, x in enumerate(row) if x}
                  for row in _random_sparse(rng, rng.randint(1, 8), cols)]
        span = linalg.Echelon(track=True)
        kept = [i for i, row in enumerate(inputs) if span.add(row)]
        assert span.stored_inputs == kept
        assert span.rank == len(kept) == len(_rref(
            [[row.get(j, Fraction(0)) for j in range(cols)] for row in inputs])[1])
        plain = linalg.Echelon()
        assert [plain.add(row) for row in inputs] == [i in kept for i in range(len(inputs))]
        assert plain.pivots == span.pivots == sorted(span.pivots)
        for row in plain.rows.values():
            assert all(type(x) is int for x in row.values())
            assert row[min(row)] > 0 and math.gcd(*row.values()) == 1
        # a known combination of the independent inputs comes back exactly
        weights = {i: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for i in kept}
        vec = {}
        for i, w in weights.items():
            for j, x in inputs[i].items():
                vec[j] = vec.get(j, Fraction(0)) + w * x
        vec = {j: x for j, x in vec.items() if x}
        assert span.contains(vec)
        assert span.coefficients(vec) == {i: w for i, w in weights.items() if w}
        # a nonzero entry in a column without a pivot puts a vector off the span
        free = [j for j in range(cols) if j not in span.pivots]
        if free:
            vec[free[0]] = vec.get(free[0], Fraction(0)) + 1
            assert not span.contains(vec)
            assert span.coefficients(vec) is None


def test_reduced_span_reads_coefficients_like_a_dense_solve():
    """`coefficients` reads a vector off the reduced tracked span: on random
    sparse systems it equals the dense solve of `linalg_oracle` over the
    stored inputs, and gives None exactly where that solve has no solution.
    Adding rows after a read leaves the span unreduced, and the next read
    reduces it again."""
    rng = random.Random(23)
    for _ in range(60):
        cols = rng.randint(1, 9)
        inputs = [{j: x for j, x in enumerate(row) if x}
                  for row in _random_sparse(rng, rng.randint(2, 9), cols)]
        span = linalg.Echelon(track=True)
        half = len(inputs) // 2
        for stage in (inputs[:half], inputs[half:]):
            for row in stage:
                span.add(row)
            kept = span.stored_inputs
            columns = [[inputs[i].get(j, Fraction(0)) for i in kept] for j in range(cols)]
            for _ in range(4):
                weights = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in kept]
                vec = [sum((w * c for w, c in zip(weights, row)), Fraction(0)) for row in columns]
                if rng.random() < 0.4:
                    vec[rng.randrange(cols)] += rng.randint(1, 3)
                x = linalg_oracle.solve(columns, vec) if kept else (None if any(vec) else [])
                read = span.coefficients({j: v / 2 for j, v in enumerate(vec) if v})
                if x is None:
                    assert read is None
                else:
                    assert read == {i: c / 2 for i, c in zip(kept, x) if c}
            assert span._reduced


def test_adopted_rows_keep_the_row_invariants():
    """Rows already in stored form go in as they are, entries in other
    pivot columns included, and the span is the one `add` builds."""
    rng = random.Random(19)
    for _ in range(40):
        cols = rng.randint(2, 9)
        rows = {}
        for lead in rng.sample(range(cols), rng.randint(1, cols)):
            row = {lead: rng.randint(1, 5)}
            row.update({j: rng.randint(-6, 6) for j in range(lead + 1, cols) if rng.random() < 0.5})
            row = {j: x for j, x in row.items() if x}
            g = math.gcd(*row.values())
            rows[lead] = {j: x // g for j, x in row.items()}
        adopted, added = linalg.Echelon(), linalg.Echelon()
        for lead, row in rows.items():
            adopted.adopt(dict(row))
            assert added.add(row)
        assert adopted.pivots == added.pivots == sorted(rows)
        for lead, row in adopted.rows.items():
            assert row == rows[lead] and min(row) == lead
        probe = {j: Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for j in range(cols)}
        assert adopted.remainder(probe) == added.remainder(probe)
        adopted.reduce_fully()
        added.reduce_fully()
        assert adopted.rows == added.rows


@st.composite
def sparse_systems(draw):
    """Rows in stored form to adopt, each with a lead of its own, then rows
    to add: a few small nonzero integers each, in up to 24 columns."""
    ncols = draw(st.integers(2, 24))
    rows = st.dictionaries(
        st.integers(0, ncols - 1), st.integers(-4, 4).filter(bool), min_size=1, max_size=4
    )
    adopted = {}
    for row in draw(st.lists(rows, max_size=14)):
        lead = min(row)
        g = math.gcd(*row.values()) if row[lead] > 0 else -math.gcd(*row.values())
        if lead not in adopted:
            adopted[lead] = {j: x // g for j, x in row.items()}
    return list(adopted.values()), draw(st.lists(rows, min_size=1, max_size=20))


class _WalkEchelon(linalg.Echelon):
    """The elimination the heap replaced: walk every pivot from the row's
    lead on and clear each one the row holds."""

    def _reduce(self, work, combo):
        m = 1
        for p in self.pivots[bisect.bisect_left(self.pivots, min(work, default=0)):]:
            if p in work:
                m *= self._clear(work, p, combo)
        return m


def _eliminations(echelon, adopted, added):
    """Adopt, then add; what is stored, in insertion order, and every
    coefficient and remainder read back."""
    span = echelon(track=True)
    for row in adopted:
        span.adopt(dict(row))
    enlarged = [span.add(row) for row in added]
    probes = added + [{j: x + 1 for j, x in row.items()} for row in added]
    read = [(span.coefficients(v), span.remainder(v)) for v in probes]
    return enlarged, list(span.rows.items()), span.pivots, read


@settings(max_examples=200, deadline=None)
@given(sparse_systems())
def test_heap_and_walk_store_the_same_rows(system):
    """The heap and the pivot walk clear the same columns in the same
    order, so they store identical rows and recover identical
    coefficients."""
    adopted, added = system
    heap = _eliminations(linalg.Echelon, adopted, added)
    assert heap == _eliminations(_WalkEchelon, adopted, added)


def test_adopt_rejects_rows_not_in_stored_form():
    span = linalg.Echelon()
    span.adopt({1: 2, 3: -3})
    with pytest.raises(ValueError, match="already a pivot"):
        span.adopt({1: 1, 2: 5})
    with pytest.raises(ValueError):
        span.adopt({0: Fraction(1, 2), 4: 1})  # not integer
    with pytest.raises(ValueError):
        span.adopt({0: Fraction(1), 4: 1})  # a Fraction, though integral
    with pytest.raises(ValueError):
        span.adopt({0: 2, 4: 4})  # not primitive
    with pytest.raises(ValueError):
        span.adopt({0: -1, 4: 1})  # negative lead
    with pytest.raises(ValueError):
        span.adopt({0: 1, 4: 0})  # a stored zero
    with pytest.raises(ValueError):
        span.adopt({})
    assert span.pivots == [1] and span.rows == {1: {1: 2, 3: -3}}
    tracked = linalg.Echelon(track=True)
    tracked.adopt({0: 1, 2: 3})
    assert tracked.coefficients({0: 2, 2: 6}) == {0: 2}


def test_sparse_nullspace_matches_nullspace():
    rng = random.Random(12)
    for _ in range(30):
        cols = rng.randint(1, 7)
        m = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(cols)]
             for _ in range(rng.randint(0, 5))]
        sparse = _sparse(m)
        kernel = linalg.sparse_nullspace(sparse, range(cols))
        assert_in_column_order(kernel)
        assert kernel == _sparse(linalg_oracle.nullspace(m, cols))


def test_kernel_over_a_column_subset_in_the_given_order():
    """Rows whose entries lie in a strict subset of the columns, listed out
    of order: the kernel over that subset is the oracle's canonical kernel of
    the submatrix on those columns in increasing order, one vector per free
    column in the order given, each with its entries in increasing column
    order."""
    rng = random.Random(31)
    for _ in range(40):
        universe = rng.randint(3, 12)
        columns = rng.sample(range(universe), rng.randint(1, universe - 1))
        if columns == sorted(columns) and len(columns) > 1:
            columns.reverse()
        ordered = sorted(columns)
        sub = _random_sparse(rng, rng.randint(0, 6), len(ordered))
        rows = [{ordered[k]: x for k, x in enumerate(row) if x} for row in sub]
        span = linalg.Echelon()
        for row in rows:
            span.add(row)
        kernel = span.kernel(columns)
        assert_in_column_order(kernel)
        # the oracle's vector of free column f ends with its 1 at f
        by_free = {max(v): v for v in ({ordered[k]: x for k, x in enumerate(v) if x}
                                       for v in linalg_oracle.nullspace(sub, len(ordered)))}
        assert [max(v) for v in kernel] == [f for f in columns if f in by_free]
        assert kernel == [by_free[f] for f in columns if f in by_free]
        assert all(set(v) <= set(columns) for v in kernel)


def _sparse(m):
    """The rows of a dense matrix as sparse rows, nonzero entries only."""
    return [{j: x for j, x in enumerate(row) if x} for row in m]


def assert_in_column_order(kernel):
    for v in kernel:
        assert list(v) == sorted(v) and all(type(x) is Fraction and x for x in v.values())
