"""Exact integer matrix helpers for character matrices.

Everything here is exact: Bareiss elimination for determinants, adjugate
inverses for unimodular matrices, and an integral functional φ with φ(v) = 1
for a primitive vector v (used by the torus-graph congruence axiom).  Matrices are
tuples of int tuples; sizes are tiny (rank ≤ 6), so clarity wins over speed.
"""

from __future__ import annotations

from math import gcd
from typing import Sequence

Matrix = Sequence[Sequence[int]]


def det(mat: Matrix) -> int:
    """Exact determinant via fraction-free Bareiss elimination."""
    n = len(mat)
    if n == 0:
        return 1
    a = [list(map(int, row)) for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1]


def adjugate(mat: Matrix) -> list[list[int]]:
    n = len(mat)
    if n == 1:
        return [[1]]
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [mat[r][c] for c in range(n) if c != j]
                for r in range(n)
                if r != i
            ]
            out[j][i] = (-1) ** (i + j) * det(minor)
    return out


def inverse_transpose_unimodular(mat: Matrix) -> list[tuple[int, ...]]:
    """Rows of (A^{-1})^T for unimodular A — the dual basis of A's rows.

    Row i of the result pairs to 1 with row i of A and to 0 with the others.
    """
    d = det(mat)
    if d not in (1, -1):
        raise ValueError(f"matrix is not unimodular (det={d})")
    adj = adjugate(mat)  # A^{-1} = adj/det, so (A^{-1})^T = adj^T/det
    n = len(mat)
    return [tuple(d * adj[i][j] for i in range(n)) for j in range(n)]


def is_primitive(vec: Sequence[int]) -> bool:
    g = 0
    for v in vec:
        g = gcd(g, v)
    return g == 1


def integral_functional(vec: Sequence[int]) -> tuple[int, ...]:
    """An integer vector u with u·vec = 1, for primitive vec.

    Built coordinate by coordinate with the extended Euclid recurrence.
    """
    if not is_primitive(vec):
        raise ValueError("vector is not primitive")
    n = len(vec)
    u = [0] * n
    g = 0
    for i, v in enumerate(vec):
        if v == 0:
            continue
        if g == 0:
            g = abs(v)
            u[i] = 1 if v > 0 else -1
            continue
        new_g, x, y = _ext_gcd(g, abs(v))
        # x*g + y*|v| = new_g; fold the old combination by x
        for j in range(i):
            u[j] *= x
        u[i] = y if v > 0 else -y
        g = new_g
        if g == 1:
            break
    assert sum(a * b for a, b in zip(u, vec)) == 1
    return tuple(u)


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    if b == 0:
        return a, 1, 0
    g, x, y = _ext_gcd(b, a % b)
    return g, y, x - (a // b) * y
