"""Small exact linear algebra over Fraction on dense matrices: desk-scale
Gaussian elimination, no floating point anywhere."""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence


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

