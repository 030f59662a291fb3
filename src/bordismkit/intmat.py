"""Exact integer matrix helpers for character matrices.

Everything here is exact: one fraction-free Gauss–Jordan elimination that
gives the dual basis of a basis and its determinant (the basis test of both
rings, keyed by their modulus and called only by ``algebra``'s one hook
``Polynomial._dual_rows``), and the extended Euclid recurrence.  No library
code takes a determinant any other way: ``algebra.basis_search`` builds its
cofactors and determinants from its prefixes' minors.  Matrices are tuples of int tuples; sizes are tiny
(rank ≤ 6), so clarity wins over speed.
"""

from __future__ import annotations

import math
from typing import Sequence

Matrix = Sequence[Sequence[int]]


def dual_basis(mat: Matrix, modulus: int = 0) -> tuple[list[tuple[int, ...]], int] | None:
    """(rows of (A^{-1})^T, det A) when A is a square basis over Z
    (``modulus`` 0: det ±1) or GF(2) (``modulus`` 2: det odd, rows mod 2 and
    det 1), else None; row i of (A^{-1})^T pairs to 1 with row i of A and to
    0 with the others.

    One fraction-free Gauss–Jordan elimination of [A | I]: each step clears
    the pivot column above and below the pivot, every division is exact, and
    it ends at [d·I | d·A^{-1}] with d·(sign of the row swaps) = det A, so A
    is a basis when gcd(d, modulus) = 1.  The rows d·(d·A^{-1}) = ±d·adj A
    are A^{-1} when d = ±1, and A^{-1} mod 2 when d is odd.
    """
    n = len(mat)
    if any(len(row) != n for row in mat):
        return None
    a = [[int(v) for v in row] + [int(i == j) for j in range(n)]
         for i, row in enumerate(mat)]
    prev = sign = 1
    for k in range(n):
        for r in range(k, n):
            if a[r][k]:
                if r != k:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                break
        else:
            return None
        pivot_row = a[k]
        p = pivot_row[k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], pivot_row)]
        prev = p
    if math.gcd(prev, modulus) != 1:
        return None
    if modulus:
        return [tuple(prev * a[i][n + j] % modulus for i in range(n)) for j in range(n)], 1
    return [tuple(prev * a[i][n + j] for i in range(n)) for j in range(n)], sign * prev


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x·a + y·b = g, the extended Euclid recurrence."""
    if b == 0:
        return a, 1, 0
    g, x, y = ext_gcd(b, a % b)
    return g, y, x - (a // b) * y
