"""Small exact linear algebra over Fraction, on sparse dict rows.

Rows are dicts column-key -> Fraction.  Column keys can be any hashable
(words, index tuples).  Everything here is desk-scale Gaussian elimination;
no floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

Row = Dict[Hashable, Fraction]


def _clean(row: Row) -> Row:
    return {k: v for k, v in row.items() if v != 0}


class RowSpace:
    """Incrementally built row space; supports rank queries."""

    def __init__(self):
        # pivot column -> reduced row with 1 at that column
        self.pivots: Dict[Hashable, Row] = {}

    def reduce(self, row: Row) -> Row:
        row = dict(row)
        for col in list(row):
            if row.get(col, 0) == 0:
                continue
            piv = self.pivots.get(col)
            if piv is not None:
                factor = row[col]
                for c2, v2 in piv.items():
                    row[c2] = row.get(c2, Fraction(0)) - factor * v2
        return _clean(row)

    def add(self, row: Row) -> bool:
        """Insert a row; returns True if it increased the rank."""
        red = self.reduce(row)
        if not red:
            return False
        # pick a deterministic pivot column
        col = min(red, key=repr)
        inv = Fraction(1) / red[col]
        red = {c: v * inv for c, v in red.items()}
        # back-substitute into existing pivot rows
        for pcol, prow in self.pivots.items():
            if col in prow:
                factor = prow[col]
                for c2, v2 in red.items():
                    prow[c2] = prow.get(c2, Fraction(0)) - factor * v2
                self.pivots[pcol] = _clean(prow)
        self.pivots[col] = red
        return True

    @property
    def rank(self) -> int:
        return len(self.pivots)


def rank_of_rows(rows: Iterable[Row]) -> int:
    space = RowSpace()
    for row in rows:
        space.add(row)
    return space.rank


def intersection_dimension(rows_a: Sequence[Row], rows_b: Sequence[Row]) -> int:
    """dim(span A  ∩  span B) = rank A + rank B - rank (A ∪ B)."""
    ra = rank_of_rows(rows_a)
    rb = rank_of_rows(rows_b)
    rab = rank_of_rows(list(rows_a) + list(rows_b))
    return ra + rb - rab


def invert_matrix(mat: Sequence[Sequence[Fraction]]) -> List[List[Fraction]]:
    """Exact inverse of a square rational matrix; raises on singular input."""
    n = len(mat)
    aug = [
        [Fraction(mat[r][c]) for c in range(n)]
        + [Fraction(1) if c == r else Fraction(0) for c in range(n)]
        for r in range(n)
    ]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def mat_mul(a, b):
    """Product of two dense rational matrices, skipping zero entries."""
    out = [[Fraction(0)] * len(b[0]) for _ in a]
    for row, ai in zip(out, a):
        for v, bk in zip(ai, b):
            if v:
                for j, w in enumerate(bk):
                    if w:
                        row[j] += v * w
    return out
