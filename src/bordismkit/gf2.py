"""GF(2) linear algebra on int bitsets.

Vectors over GF(2) are packed into Python ints (bit i = coordinate i), which
keeps the small dense problems that dominate this package — n×n character
matrices with n ≤ 6 — allocation free and exact.  ``RankAccumulator`` folds
long streams of wide rows (the generator span in :mod:`.bott`) with pivots
keyed by their leading bit, as the elimination in ``kernel_space`` does.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def pack(vec: Sequence[int]) -> int:
    """Pack a 0/1 coordinate sequence into a bitset int (coordinate 0 = bit 0)."""
    out = 0
    for i, v in enumerate(vec):
        if v & 1:
            out |= 1 << i
    return out


def unpack(bits: int, n: int) -> tuple[int, ...]:
    return tuple((bits >> i) & 1 for i in range(n))


def rank(rows: Iterable[int]) -> int:
    """Rank of a set of bitset rows via elimination on lowest set bits."""
    pivots: list[int] = []
    for row in rows:
        row = _reduce(row, pivots)
        if row:
            pivots.append(row)
    return len(pivots)


def _reduce(row: int, pivots: list[int]) -> int:
    for p in pivots:
        low = p & -p
        if row & low:
            row ^= p
    return row


def is_invertible(rows: Sequence[int], n: int) -> bool:
    return len(rows) == n and rank(rows) == n


def invert(rows: Sequence[int], n: int) -> list[int]:
    """Inverse of an invertible n×n bitset matrix (rows of the inverse).

    Raises ValueError when the matrix is singular.
    """
    work = list(rows)
    inv = [1 << i for i in range(n)]
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if (work[r] >> col) & 1:
                pivot = r
                break
        if pivot is None:
            raise ValueError("matrix is singular over GF(2)")
        work[col], work[pivot] = work[pivot], work[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        for r in range(n):
            if r != col and ((work[r] >> col) & 1):
                work[r] ^= work[col]
                inv[r] ^= inv[col]
    return inv


def transpose(rows: Sequence[int], n: int) -> list[int]:
    out = [0] * n
    for i, row in enumerate(rows):
        for j in range(n):
            if (row >> j) & 1:
                out[j] |= 1 << i
    return out


def inverse_transpose(rows: Sequence[int], n: int) -> list[int]:
    """Rows of (A^{-1})^T, i.e. the dual basis of the rows of A."""
    return transpose(invert(rows, n), n)


def solve(rows: Sequence[int], n: int, rhs: int) -> int | None:
    """Solve x·A = rhs for a row vector x (bitset), or None if unsolvable.

    ``rows`` are the rows of A; the combination returned is a bitset over row
    indices.  Used for span-membership with witness extraction.
    """
    # eliminate [A | I] style, tracking combinations
    work = [(row, 1 << i) for i, row in enumerate(rows)]
    pivots: list[tuple[int, int]] = []
    for row, comb in work:
        for prow, pcomb in pivots:
            low = prow & -prow
            if row & low:
                row ^= prow
                comb ^= pcomb
        if row:
            pivots.append((row, comb))
    acc = 0
    for prow, pcomb in pivots:
        low = prow & -prow
        if rhs & low:
            rhs ^= prow
            acc ^= pcomb
    if rhs:
        return None
    return acc


class RankAccumulator:
    """Incremental GF(2) rank over streaming bitset rows.

    ``pivots`` maps the leading bit of each pivot row to the row, so reducing
    a row touches only the pivots its own leading bits hit.
    """

    def __init__(self) -> None:
        self.pivots: dict[int, int] = {}

    def _reduce(self, row: int) -> int:
        pivots = self.pivots
        while row:
            hit = pivots.get(row.bit_length() - 1)
            if hit is None:
                return row
            row ^= hit
        return 0

    def add(self, row: int) -> bool:
        """Reduce ``row`` against current pivots; returns True if rank grew."""
        row = self._reduce(row)
        if row:
            self.pivots[row.bit_length() - 1] = row
            return True
        return False

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def contains(self, row: int) -> bool:
        return self._reduce(row) == 0
