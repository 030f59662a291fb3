"""Kernels of the deletion differential composed with dualization.

``kernel_space`` works over GF(2): the row of each faithful degree-n
monomial m is d(m*) in the degree-(n-1) square-free monomials, read off the
faithful basis search by character id (``_rows``).  The dimension of the
kernel (g with d(g*) = 0) is the rank deficit of the rows, from an untracked
``gf2.RankAccumulator``; the basis, the vanishing combinations of a tracked
one, is built when ``KernelSpace.basis`` is first read.

``kernel_sample_unitary`` is the integer analogue restricted to a finite
window: all faithful monomials whose characters have entries bounded by a
given weight.  The left kernel of the integer row matrix is computed by
streaming unimodular row reduction, so the reported basis generates the full
kernel lattice of the window (any integral relation among the rows is an
integer combination of the basis).  The pivot rows are kept reduced on each
other's pivot columns wherever the pivot divides (Gauss-Jordan), so an
incoming row mostly picks up entries off the pivot columns.  The columns are
eliminated newest first, so a row that brings a new column pivots there and
the earlier pivot rows mostly have nothing to clear; every window pivot is
+-1, and then the basis is the one any unit-pivot elimination returns,
whatever the column order (``_left_kernel``).

The window is a box of characters searched by ``algebra.basis_search`` over
Z, and the rows d(m*) are lookups in its cofactor table and a sort, with no
inversion.  Their columns, the (n-1)-monomials, are integer ids that compare
as the monomials do, so a row's new columns are keyed in monomial order.
Everything is Python integer arithmetic, so nothing is rounded or bounded.

``support_floor`` reads a floor on the support of every nonzero kernel
element of a window off the shape of these rows, without building them.  A
relation with one monomial needs a zero row and a relation with two needs a
proportional pair of rows.  Every row d(m*) is +-1 on the n deletions of m*,
which are distinct, so no row is zero; for n >= 2 the deletions fix m* and
so m, so no two rows are proportional and the floor is 3.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
from collections import defaultdict
from collections.abc import Hashable, Iterable, Iterator, Mapping
from typing import NamedTuple

from . import algebra, gf2, intmat
from .algebra import PRIMAL, Char, ExtPolynomial, Gf2Polynomial, Monomial
from .errors import ResourceLimitError, ValidationError

DEFAULT_MAX_N = 4
DEFAULT_SAMPLE_MAX_N = 3
DEFAULT_SAMPLE_MAX_WEIGHT = 2


def max_rank_limit() -> int:
    """Ambient rank cap, overridable through BORDISMKIT_MAX_N."""
    raw = os.environ.get("BORDISMKIT_MAX_N", "")
    if not raw:
        return DEFAULT_MAX_N
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValidationError(f"BORDISMKIT_MAX_N={raw!r} is not an integer") from exc
    return algebra.exact_int(value, "BORDISMKIT_MAX_N", 0)


def _log10_basis_count(n: int, k: int) -> float:
    """log10 of the number of unordered independent k-subsets of GF(2)^n.

    The count is prod_{i<k} (2^n - 2^i) / k!; in log10 it stays cheap to
    compute and to print for any n.  A factor 1 - 2^(i-n) with n - i > 64
    rounds to 1, so only the last 64 factors are summed.
    """
    corrections = sum(math.log10(1 - 0.5 ** (n - i)) for i in range(max(0, k - 64), k))
    return k * n * math.log10(2) + corrections - math.lgamma(k + 1) / math.log(10)


def _power_of_ten(log10: float) -> str:
    """10^x as text for x = ``log10``, with only the digits a float holds
    (15): to one decimal below 10^14, to 15 significant digits above."""
    return f"10^{log10:.1f}" if abs(log10) < 1e14 else f"10^({log10:.15g})"


class KernelSpace:
    """GF(2) kernel of g -> d(g*) in homogeneous degree n; ``basis`` is
    built on its first read and kept."""

    __slots__ = ("n", "dim", "monomials", "_basis")

    def __init__(self, n: int, dim: int, monomials: list[Monomial]) -> None:
        self.n = n
        self.dim = dim
        self.monomials = monomials
        self._basis: list[Gf2Polynomial] | None = None

    def __repr__(self) -> str:
        return f"KernelSpace(n={self.n}, dim={self.dim})"

    @property
    def basis(self) -> list[Gf2Polynomial]:
        """One polynomial per row that does not raise the rank: the relation
        it closes, over the faithful monomials."""
        if self._basis is None:
            n, monomials = self.n, self.monomials
            acc = gf2.RankAccumulator(track=True)
            basis = []
            for row in _rows(n):
                if not acc.add(row):
                    # faithful monomials are canonical and distinct
                    terms = {monomials[j]: 1 for j in gf2.bits(acc.relation)}
                    basis.append(Gf2Polynomial._of(n, PRIMAL, terms))
            self._basis = basis
        return self._basis

    def contains(self, p: Gf2Polynomial) -> bool:
        """Whether p is a GF(2) polynomial of this rank in the image (``algebra.in_image``)."""
        return isinstance(p, Gf2Polynomial) and p.n == self.n and algebra.in_image(p)


def _rows(n: int) -> Iterator[int]:
    """The row d(m*) of each faithful monomial m, in search order, as a
    bitset over the (n-1)-monomials numbered by first appearance.

    All by character id of ``algebra._faithful_search``: row j of the dual
    basis of kept ids A is the cofactor vector of A without row j mod 2, so
    m* is the set of those ids, held as one bit per id, and a deletion of m*
    is that mask less one bit.  The characters are in lex order, so deleting
    in increasing id order numbers the columns as the sorted monomials would.
    """
    found = algebra._faithful_search(n)
    position = {c: i for i, c in enumerate(found.chars)}
    dual_bit = {s: 1 << position[tuple([a & 1 for a in v])] for s, v in found.cofactors.items()}
    col_ids: dict[int, int] = {}
    for ids, _ in found.kept:
        star = sorted([dual_bit[ids[:j] + ids[j + 1:]] for j in range(n)])
        mask = sum(star)
        row = 0
        for bit in star:
            row ^= 1 << col_ids.setdefault(mask ^ bit, len(col_ids))
        yield row


def kernel_space(n: int, max_n: int | None = None) -> KernelSpace:
    """The GF(2) kernel for ambient rank n: its dimension now, by the rank
    of the rows alone, and its basis when ``basis`` is first read."""
    n = algebra.exact_int(n, "ambient rank", 1)
    cap = max_rank_limit() if max_n is None else algebra.exact_int(max_n, "rank cap", 0)
    if n > cap:
        raise ResourceLimitError(
            f"rank {n} exceeds the configured maximum {cap}; the elimination "
            f"would run over a {_power_of_ten(_log10_basis_count(n, n))} x "
            f"{_power_of_ten(_log10_basis_count(n, n - 1))} matrix "
            f"(set BORDISMKIT_MAX_N={n} or pass max_n={n} to allow it)")
    monomials = algebra.all_faithful_monomials_gf2(n)
    acc = gf2.RankAccumulator()
    for row in _rows(n):
        acc.add(row)
    return KernelSpace(n, len(monomials) - acc.rank, monomials)


# ---------------------------------------------------------------------------
# integral window kernels

def _search(n: int, weight_bound: int) -> algebra.BasisSearch:
    """The basis search over Z of the nonzero characters of [-w, w]^n."""
    chars = [c for c in itertools.product(range(-weight_bound, weight_bound + 1), repeat=n)
             if any(c)]
    return algebra.basis_search(chars, n, 0)


def _dual_characters(window: algebra.BasisSearch) -> list[Char]:
    """Every +-v of the cofactor table, in lex order: the characters the
    dual-basis rows of the window can take."""
    return sorted({u for v in window.cofactors.values() for u in (v, tuple(-a for a in v))})


def _window_rows(window: algebra.BasisSearch) -> Iterator[tuple[tuple[int, int], ...]]:
    """The rows d(m*) of the window, read off the cofactor table, each as
    its (column id, coefficient) pairs in increasing column order.

    Row j of the dual basis of a kept A with det d is
    d (-1)^(n-1-j) v_(A without row j) (``algebra.basis_search``), held as
    its position in ``_dual_characters``.  Sorting the positions gives m*
    and the sign ``algebra.dual`` folds in; d then deletes one character at
    a time with alternating signs.  A column, an (n-1)-monomial, is keyed by
    its positions read as base-K digits (K dual characters), so column ids
    compare as the monomials do, and deleting a later character of m* gives
    a smaller column.
    """
    n = window.n
    duals = _dual_characters(window)
    pos = {u: i for i, u in enumerate(duals)}
    # per prefix: positions of +v and -v
    signed = {s: (pos[v], pos[tuple(-a for a in v)]) for s, v in window.cofactors.items()}
    flip = [(n - 1 - j) & 1 for j in range(n)]
    # deleting character j of m*: digit weights of the others, and (-1)^j
    drops = [([len(duals) ** (n - 2 - i + (i > j)) if i != j else 0 for i in range(n)],
              (-1) ** j) for j in reversed(range(n))]
    for ids, d in window.kept:
        neg = d < 0
        codes = [signed[ids[:j] + ids[j + 1:]][flip[j] ^ neg] for j in range(n)]
        sign, star = algebra.sort_monomial(codes)
        yield tuple((sum(map(operator.mul, star, w)), sign * s) for w, s in drops)


def _left_kernel(rows: Iterable[Mapping[Hashable, int] | Iterable[tuple[Hashable, int]]]
                 ) -> tuple[int, list[dict[int, int]]]:
    """Rank and an integral basis of {x : sum_i x_i row_i = 0}.

    Each row is a mapping or (column, value) pairs; a column is any sortable,
    hashable key.  The columns are eliminated newest first: a column gets an
    int key when a row first brings it, below every key given before, and a
    row's new columns keep their sorted order among themselves.  So a row
    that brings a new column pivots there (it holds the smallest key), and
    since no earlier pivot row holds that column there is mostly nothing to
    clear (a fill-reducing order in Markowitz's sense).

    Streaming row reduction of [M | I] by unimodular operations: combinations
    of rows that reduce to zero span the full left-kernel lattice.  Each
    incoming row reduces at its smallest key first, by a quotient where
    the pivot divides the entry and by the gcd step otherwise.  A row that
    becomes the pivot p at column c is then reduced on the later pivot
    columns it holds, in increasing order, and subtracted from every earlier
    pivot row whose entry at c is a multiple of p, combinations alike.  So
    pivot rows are reduced on each other's pivot columns wherever the pivot
    divides, and with unit pivots they are zero there: an incoming row
    picks up entries off the pivot columns only.

    The order of the columns cannot change a window's basis.  With unit
    pivots only (every window), row i becomes a pivot exactly when it is
    independent over Q of rows 0..i-1, so the pivot rows P are the first row
    basis whatever the column order, and a dependent row k gets e_k - c_k,
    c_k its unique coordinates over the rows of P: the rank and the basis
    are those of the echelon pass on the caller's columns.  With other
    pivots every step is still unimodular on [M | I] with its columns
    renamed, which leaves the left kernel as it is, and the pivot rows keep
    distinct leading columns, so they stay independent: the combinations of
    the rows that reached zero are part of a basis of Z^N and span every
    integral relation, a basis of the same lattice, though not always the
    one the echelon pass returns.
    """
    pivots: dict[int, tuple[dict[int, int], dict[int, int]]] = {}
    # column -> pivot columns whose rows may hold it (stale entries skipped)
    holders: defaultdict[int, list[int]] = defaultdict(list)
    kernel: list[dict[int, int]] = []
    # the caller's column -> its key, below every key given before it
    key: dict[Hashable, int] = {}
    for i, r in enumerate(rows):
        row = dict(r)
        if not row.keys() <= key.keys():
            fresh = sorted([c for c in row if c not in key])
            key.update(zip(fresh, range(-len(key) - len(fresh), -len(key))))
        row = {key[c]: v for c, v in row.items()}
        comb = {i: 1}
        while row:
            col = min(row)
            val = row[col]
            hit = pivots.get(col)
            if hit is None:
                break
            prow, pcomb = hit
            piv = prow[col]
            if val % piv == 0:
                q = val // piv
                _addmul(row, prow, -q)
                _addmul(comb, pcomb, -q)
            else:
                g = math.gcd(piv, val)
                _, a, b = intmat.ext_gcd(piv, val)
                u, v = -(val // g), piv // g  # second row of a unimodular 2x2
                pivots[col] = (_combine(prow, row, a, b), _combine(pcomb, comb, a, b))
                for k in pivots[col][0]:
                    holders[k].append(col)
                row = _combine(prow, row, u, v)
                comb = _combine(pcomb, comb, u, v)
        else:
            kernel.append(comb)
            continue
        # the new pivot row, reduced on the later pivot columns it holds
        for c in sorted([c for c in row if c in pivots]):
            val = row.get(c)
            prow, pcomb = pivots[c]
            if val and val % prow[c] == 0:
                q = val // prow[c]
                _addmul(row, prow, -q)
                _addmul(comb, pcomb, -q)
        # clears its column from the earlier pivot rows
        piv = row[col]
        for p in holders.pop(col, ()):
            prow, pcomb = pivots[p]
            val = prow.get(col)
            if val and val % piv == 0:
                q = -(val // piv)
                for k, v in row.items():
                    nv = prow.get(k)
                    if nv is None:
                        prow[k] = q * v
                        holders[k].append(p)
                    elif nv + q * v:
                        prow[k] = nv + q * v
                    else:
                        del prow[k]
                _addmul(pcomb, comb, q)
        pivots[col] = (row, comb)
        for k in row:
            holders[k].append(col)
    return len(pivots), kernel


def _addmul(dst: dict, src: dict, factor: int) -> None:
    for k, v in src.items():
        nv = dst.get(k, 0) + factor * v
        if nv:
            dst[k] = nv
        else:
            dst.pop(k, None)


def _combine(r1: dict, r2: dict, c1: int, c2: int) -> dict:
    out = {}
    for k in set(r1) | set(r2):
        v = c1 * r1.get(k, 0) + c2 * r2.get(k, 0)
        if v:
            out[k] = v
    return out


class WindowKernel(NamedTuple):
    """Integral kernel of g -> d(g*) restricted to a finite character window."""

    n: int
    weight_bound: int
    dim: int
    rank: int
    monomials: list[Monomial]
    basis: list[ExtPolynomial]

    def __repr__(self) -> str:
        return (f"WindowKernel(n={self.n}, weight_bound={self.weight_bound}, "
                f"dim={self.dim}, rank={self.rank})")


def _check_ranks(n: int, weight_bound: int) -> tuple[int, int]:
    return (algebra.exact_int(n, "ambient rank", 1),
            algebra.exact_int(weight_bound, "weight bound", 0))


def _check_window(n: int, weight_bound: int, max_n: int | None,
                  max_weight_bound: int | None, weight_fixed: bool = False
                  ) -> tuple[int, int]:
    """(n, weight bound) as read, once the window is within its caps."""
    n, weight_bound = _check_ranks(n, weight_bound)
    cap_n = (DEFAULT_SAMPLE_MAX_N if max_n is None
             else algebra.exact_int(max_n, "rank cap", 0))
    cap_w = (DEFAULT_SAMPLE_MAX_WEIGHT if max_weight_bound is None
             else algebra.exact_int(max_weight_bound, "weight cap", 0))
    hit = []
    if n > cap_n:
        hit.append(f"n <= {cap_n} (pass max_n={n} to allow it)")
    if weight_bound > cap_w:
        how = ("fixed for the probe" if weight_fixed
               else f"pass max_weight_bound={weight_bound} to allow it")
        hit.append(f"weight_bound <= {cap_w} ({how})")
    if hit:
        chars = (2 * weight_bound + 1) ** n - 1
        raise ResourceLimitError(
            f"window (n={n}, weight_bound={weight_bound}) exceeds the cap "
            f"{' and '.join(hit)}; it would scan C({chars}, {n}) candidate monomials")
    return n, weight_bound


def kernel_sample_unitary(n: int, weight_bound: int = 1,
                          max_n: int | None = None,
                          max_weight_bound: int | None = None) -> WindowKernel:
    """Integral kernel basis over the window of weight-bounded monomials."""
    n, weight_bound = _check_window(n, weight_bound, max_n, max_weight_bound)
    window = _search(n, weight_bound)
    monomials = window.monomials()
    rank, combos = _left_kernel(_window_rows(window))
    basis = []
    for comb in combos:
        # window monomials are canonical, distinct and sorted, so the
        # smallest index holds the smallest monomial
        sign = 1 if comb[min(comb)] > 0 else -1
        terms = {monomials[i]: sign * c for i, c in comb.items()}
        basis.append(ExtPolynomial._of(n, PRIMAL, terms))
    return WindowKernel(n=n, weight_bound=weight_bound, dim=len(basis),
                        rank=rank, monomials=monomials, basis=basis)


def support_floor(n: int, weight_bound: int) -> int:
    """Proven lower bound on the support of nonzero kernel elements of a window.

    A relation with support 1 needs a zero row d(m*), and one with support 2
    a pair of rows proportional over Q.  Every row is +-1 on the n deletions
    of m*, and these are distinct (n-1)-monomials, so no row is zero.  For
    n >= 2 two rows are proportional only when they have the same columns;
    the deletions fix m*, and m* fixes m, so no two rows are, and the floor
    is 3.  At n = 1 every row is +-1 on the empty monomial, so the rows of
    (1) and (-1) are proportional and the floor is 2 once the window holds
    them (weight_bound >= 1).  An empty window has no nonzero kernel
    element, and its floor stays 3.  The argument covers every element of
    the window kernel, not just a basis.  No window is built, so no cap
    applies.
    """
    n, weight_bound = _check_ranks(n, weight_bound)
    return 2 if n == 1 and weight_bound else 3
