"""Exact linear algebra over the rationals, on one sparse elimination kernel.

A coordinate vector is a sparse dict, index -> nonzero Fraction
(`SparseVector`); `integral` scales one to integers.  Every row elimination
in the package runs on `Echelon`: sparse rows of integers, kept
fraction-free with their content divided out, which suits the sparse
systems the package solves (Groebner steps and normal forms, quadric spans,
ad-matrices, centroid systems of d^3 rows in d^2 columns).  `Echelon.kernel`
and `sparse_nullspace` give canonical kernel bases, and a tracked `Echelon`
writes a vector over the rows it stored off its reduced rows, which gives
the symplectic form its dual and the quadric algebras their structure
constants.  The dense routes are test oracles (`tests/linalg_oracle.py`).
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

SparseVector = Dict[int, Fraction]  # index -> nonzero value
SparseRow = Dict[int, int]


def integral(vec: Mapping) -> Tuple[SparseRow, int]:
    """(den * vec as integers, nonzero entries only, and den) for the least
    common denominator den of vec's entries, Fractions or ints."""
    den = lcm(*[x.denominator for x in vec.values()])
    if den == 1:
        return {k: x.numerator for k, x in vec.items() if x}, 1
    return {k: x.numerator * (den // x.denominator) for k, x in vec.items() if x}, den


def _eliminate(work: SparseRow, row: SparseRow, a: int, b: int) -> None:
    """work <- a * work - b * row, in place, dropping zeros."""
    if a != 1:
        for k in work:
            work[k] *= a
    for k, v in row.items():
        s = work.get(k, 0) - b * v
        if s:
            work[k] = s
        else:
            del work[k]


def _primitive(work: SparseRow, combo: Optional[SparseRow]) -> None:
    """Divide out the content, jointly with `combo`, and make the leading
    (smallest-column) entry of `work` positive."""
    parts = [work] if combo is None else [work, combo]
    g = gcd(*(v for part in parts for v in part.values()))
    if work[min(work)] < 0:
        g = -g
    if g != 1:
        for part in parts:
            for k in part:
                part[k] //= g


class Echelon:
    """Sparse row echelon form over Q, fraction-free, with optional
    coefficient recovery against the rows it stored.

    Rows map column to integer.  Each stored row has its content divided
    out (jointly with its coefficients, when they are tracked), a positive
    leading entry, and a leading column of its own.  A row stored by `add`
    has no entry in the leading column of an earlier row; `adopt` stores a
    row that is already in that form as it is, and the elimination clears
    pivot columns in increasing order, so the entries such a row keeps in
    other pivot columns are cleared after it.  `pivots` lists the leading
    columns in increasing order.  With `track=True` each row also carries
    its integer coefficients, eliminated alongside it, over the inputs that
    `add` stored (returned True for), numbered in that order, each cleared
    of its denominators by one integer scale; `combination` reads them.

    The elimination takes a row's pivot columns off a heap: it starts with
    the row's own, and each elimination pushes the pivot columns it adds,
    so a row on a tall system of short rows, such as a Groebner step after
    its reducers are adopted, touches only the pivots it meets.  Walking
    every pivot from the row's lead on instead clears the same columns in
    the same order, but took 9.4 s against 0.83-0.93 s on the heap for the
    closure test of segre-4 with two sextic products added (2-vCPU Xeon,
    best of five); walking short rows only measured no faster on `catalog`.
    """

    def __init__(self, track: bool = False):
        self.pivots: List[int] = []
        self.rows: Dict[int, SparseRow] = {}  # leading column -> row, in insertion order
        self._combos: Optional[Dict[int, SparseRow]] = {} if track else None
        self._scales: List[int] = []  # tracked: stored input i is (its integer row) / _scales[i]
        self._reduced = True

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _clear(self, work: SparseRow, p: int, combo: Optional[SparseRow]) -> int:
        """work <- a * work - b * (row of pivot p) with the least a > 0 that
        clears column p; the same step on `combo`; returns a."""
        row = self.rows[p]
        g = gcd(row[p], work[p])
        a, b = row[p] // g, work[p] // g
        _eliminate(work, row, a, b)
        if combo is not None:
            _eliminate(combo, self._combos[p], a, b)
        return a

    def _reduce(self, work: SparseRow, combo: Optional[SparseRow]) -> int:
        """Clear every pivot column of `work`, in increasing order, off the
        heap of the class docstring; returns the product m of the factors,
        so that work = m * (input) - (combination of stored rows)."""
        m = 1
        rows = self.rows
        heap = [k for k in work if k in rows]
        heapify(heap)
        while heap:
            p = heappop(heap)
            if p in work:  # a pushed column may have cancelled since
                added = [k for k in rows[p] if k not in work and k in rows]
                m *= self._clear(work, p, combo)
                for k in added:
                    heappush(heap, k)
        return m

    def add(self, vec: Mapping, den: int = 1) -> bool:
        """Insert the row vec / den (vec: column -> rational); False when it
        lies in the span."""
        work, d = integral(vec)
        combo = None if self._combos is None else {len(self._scales): 1}
        self._reduce(work, combo)
        if not work:
            return False
        _primitive(work, combo)
        lead = min(work)
        insort(self.pivots, lead)
        self.rows[lead] = work
        self._reduced = False
        if combo is not None:
            self._combos[lead] = combo
            self._scales.append(d * den)
        return True

    def adopt(self, row: SparseRow) -> None:
        """Store a row that is already in stored form, with no elimination:
        integer entries with content 1 and a positive leading entry.  Its
        leading column must not be a pivot yet; its other entries may lie in
        pivot columns.  `row` is kept, not copied; a tracked span refuses it."""
        if self._combos is not None:
            raise ValueError("a tracked span adopts no row")
        if not row or not all(type(x) is int and x for x in row.values()):
            raise ValueError("an adopted row has nonzero integer entries")
        lead = min(row)
        if row[lead] <= 0 or gcd(*row.values()) != 1:
            raise ValueError("an adopted row is primitive with a positive leading entry")
        if lead in self.rows:
            raise ValueError(f"column {lead} is already a pivot")
        insort(self.pivots, lead)
        self.rows[lead] = row
        self._reduced = False

    def remainder(self, vec: Mapping) -> Dict[int, Fraction]:
        """vec minus a vector of the span, with no entry in a pivot column
        (zero exactly when vec lies in the span)."""
        work, den = integral(vec)
        m = self._reduce(work, None)
        return {k: Fraction(x, m * den) for k, x in work.items()}

    def contains(self, vec: Mapping) -> bool:
        return not self.remainder(vec)

    def combination(self, work: SparseRow) -> Optional[Tuple[SparseRow, int]]:
        """(c, s) with the integer row `work` = sum_i (c[i] / s) * input_i
        over the stored inputs, i in storing order, or None outside the
        span; needs track=True.  On the reduced span row p alone has an
        entry in pivot column p, its lead l_p, so a vector of it is the sum
        of (work[p] / l_p) * row p: one pass over those rows over s the lcm
        of the leads met, and one residual check."""
        if not self._reduced:
            self.reduce_fully()
        rows, combos = self.rows, self._combos
        hit = work.keys() & rows.keys()
        scale = lcm(*[rows[p][p] for p in hit])
        acc: SparseRow = {}
        combo: SparseRow = {}
        for p in hit:
            row = rows[p]
            s = work[p] * (scale // row[p])
            for k, x in row.items():
                acc[k] = acc.get(k, 0) + s * x
            for i, c in combos[p].items():
                combo[i] = combo.get(i, 0) + s * c
        scaled = work if scale == 1 else {k: scale * x for k, x in work.items()}
        if acc != scaled and {k: x for k, x in acc.items() if x} != scaled:
            return None
        # row p = sum_i combos[p][i] * (scale_i * input_i)
        scales = self._scales
        return {i: c * scales[i] for i, c in sorted(combo.items()) if c}, scale

    def reduce_fully(self) -> None:
        """Clear each pivot column in the rows above it too, so that every
        row is its canonical reduced row echelon row times a positive integer,
        tracked combinations carried along; `add` and `adopt` undo it."""
        if self._reduced:
            return
        for p in reversed(self.pivots):
            row = self.rows[p]
            combo = None if self._combos is None else self._combos[p]
            later = [q for q in row if q != p and q in self.rows]
            for q in later:
                self._clear(row, q, combo)
            if later:
                _primitive(row, combo)
        self._reduced = True

    def kernel(self, columns: Iterable[int]) -> List[SparseVector]:
        """Canonical basis of the vectors over `columns`, which hold every
        row entry, that every row annihilates: one per free column f, in the
        order given, with minus the reduced row's entry at f in each pivot
        column and 1 at f, in increasing column order, since a row's entries
        follow its pivot.  Runs `reduce_fully` first."""
        self.reduce_fully()
        basis: Dict[int, SparseVector] = {f: {} for f in columns if f not in self.rows}
        for p in self.pivots:
            row = self.rows[p]
            for f, x in row.items():
                if f != p:
                    basis[f][p] = Fraction(-x, row[p])
        for f, vec in basis.items():
            vec[f] = Fraction(1)
        return list(basis.values())


def sparse_nullspace(rows: Iterable[Mapping], columns: Iterable[int]) -> List[SparseVector]:
    """The right kernel of sparse rows (column -> integer or rational) over
    `columns`, which hold every entry of every row: `Echelon.kernel`'s
    canonical basis."""
    ech = Echelon()
    for row in rows:
        ech.add(row)
    return ech.kernel(columns)
