"""Exact inversion of rational matrices."""

from fractions import Fraction

import pytest

from quadlie.linalg import invert_matrix


def _product(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def test_dense_hilbert_matrix_inverts_exactly():
    """The 4x4 Hilbert matrix is dense, so every column clears entries
    below and above its pivot; its inverse is the integral matrix of the
    closed form and the products both ways are exactly the identity."""
    hilbert = [[Fraction(1, i + j + 1) for j in range(4)] for i in range(4)]
    inv = invert_matrix(hilbert)
    assert inv == [[16, -120, 240, -140],
                   [-120, 1200, -2700, 1680],
                   [240, -2700, 6480, -4200],
                   [-140, 1680, -4200, 2800]]
    assert _product(hilbert, inv) == _identity(4)
    assert _product(inv, hilbert) == _identity(4)


def test_zero_pivot_takes_a_row_swap():
    """A zero in the leading position makes the elimination swap rows
    before it can pivot; the result is still the exact inverse."""
    mat = [[0, 2, 1], [3, 1, 0], [1, Fraction(1, 2), 2]]
    inv = invert_matrix(mat)
    assert _product(mat, inv) == _identity(3)
    assert _product(inv, mat) == _identity(3)


def test_singular_matrix_raises():
    with pytest.raises(ValueError, match="singular"):
        invert_matrix([[1, 2], [2, 4]])
