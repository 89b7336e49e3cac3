"""Small exact linear algebra over Fraction: desk-scale Gaussian
elimination on sparse rows, no floating point anywhere."""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence

from .scalars import axpy


def invert_matrix(mat: Sequence[Sequence[Fraction]]) -> List[List[Fraction]]:
    """Exact inverse of a square rational matrix; raises on singular input.
    Each row of the augmented matrix is a map {column: nonzero entry}, so
    a sparse matrix (a signed permutation, say) costs few operations."""
    n = len(mat)
    aug = [{c: Fraction(v) for c, v in enumerate(row) if v} for row in mat]
    for r, row in enumerate(aug):
        row[n + r] = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if col in aug[r]), None)
        if piv is None:
            raise ValueError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        pivot = aug[col] = {c: v * inv for c, v in aug[col].items()}
        for r, row in enumerate(aug):
            f = row.get(col) if r != col else None
            if f:
                axpy(row, -f, pivot)
    zero = Fraction(0)
    return [[row.get(n + c, zero) for c in range(n)] for row in aug]
