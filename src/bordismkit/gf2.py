"""GF(2) linear algebra on int bitsets.

Vectors over GF(2) are packed into Python ints (bit i = coordinate i), which
keeps the coloring checks and the wide eliminations allocation free and
exact.  A given n×n basis is proved by ``intmat.dual_basis`` mod 2, the
elimination of both rings (the hook ``algebra.Polynomial._dual_rows``).
``span`` is the one independence test for the few vectors at a vertex of a
coloring search.  ``RankAccumulator`` is the one elimination of wide rows,
with pivots keyed by their leading bit: it folds the generator span in
:mod:`.bott` and the rank of ``kernel_space``, and, tracking combinations,
finds the kernel basis when ``KernelSpace.basis`` is first read and the
witnesses of ``surjectivity_probe``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence


def pack(vec: Sequence[int]) -> int:
    """Pack a 0/1 coordinate sequence into a bitset int (coordinate 0 = bit 0)."""
    out = 0
    for i, v in enumerate(vec):
        if v & 1:
            out |= 1 << i
    return out


def unpack(bits: int, n: int) -> tuple[int, ...]:
    return tuple((bits >> i) & 1 for i in range(n))


def bits(x: int) -> Iterator[int]:
    """Indices of the set bits of ``x``, lowest first."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def span(vectors: Iterable[int]) -> set[int]:
    """Every element of the span of ``vectors``; k vectors are independent
    exactly when their span has 2^k elements."""
    out = {0}
    for x in vectors:
        out |= {s ^ x for s in out}
    return out


class RankAccumulator:
    """Incremental GF(2) rank over streaming bitset rows.

    ``pivots`` maps the leading bit of each pivot row to the row, so reducing
    a row touches only the pivots its own leading bits hit.

    With ``track=True`` each pivot also carries its combination: the bitset
    of added rows (bit i = the i-th row passed to ``add``) that sums to it.
    ``express`` then writes a row in terms of the added rows, and after an
    ``add`` that did not raise the rank, ``relation`` is the combination of
    added rows, that row included, that sums to zero.
    """

    def __init__(self, track: bool = False) -> None:
        self.pivots: dict[int, int] = {}
        self._combinations: dict[int, int] | None = {} if track else None
        self.relation = 0
        self._added = 0

    def _reduce(self, row: int) -> int:
        pivots = self.pivots
        while row:
            hit = pivots.get(row.bit_length() - 1)
            if hit is None:
                return row
            row ^= hit
        return 0

    def express(self, row: int) -> tuple[int, int]:
        """(remainder, combination): what is left of ``row`` after the pivots
        it hits, and the combination of added rows those pivots sum to."""
        pivots, combinations = self.pivots, self._combinations
        comb = 0
        while row:
            lead = row.bit_length() - 1
            hit = pivots.get(lead)
            if hit is None:
                break
            row ^= hit
            comb ^= combinations[lead]
        return row, comb

    def add(self, row: int) -> bool:
        """Reduce ``row`` against current pivots; returns True if rank grew."""
        if self._combinations is None:
            row = self._reduce(row)
            comb = 0
        else:
            row, comb = self.express(row)
            comb ^= 1 << self._added
            self._added += 1
        if row:
            lead = row.bit_length() - 1
            self.pivots[lead] = row
            if self._combinations is not None:
                self._combinations[lead] = comb
            return True
        self.relation = comb
        return False

    @property
    def rank(self) -> int:
        return len(self.pivots)
