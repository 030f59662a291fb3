"""Kernels of the deletion differential composed with dualization.

``kernel_space`` works over GF(2): the row of each faithful degree-n
monomial m is d(m*), m* from ``algebra.faithful_duals_gf2``, in the
degree-(n-1) square-free monomials, and the kernel (g with d(g*) = 0) is
read off from the vanishing combinations of ``gf2.RankAccumulator``.

``kernel_sample_unitary`` is the integer analogue restricted to a finite
window: all faithful monomials whose characters have entries bounded by a
given weight.  The left kernel of the integer row matrix is computed by
streaming unimodular row reduction, so the reported basis generates the full
kernel lattice of the window (any integral relation among the rows is an
integer combination of the basis).

Both the window search and its rows rest on one table: for each
(n-1)-subset S of the window's characters, the cofactor vector v_S with
v_S . x = det[S; x] for every x, built from n exact (n-1)-minors.
``window_monomials`` keeps S + (x) exactly when v_S . x = +-1, which is the
same test as a full determinant.  For a kept A with det d, Laplace expansion
gives v_(A without row j) . A_i = 0 for i != j and (-1)^(n-1-j) d for i = j,
so d (-1)^(n-1-j) v_(A without row j) is row j of the dual basis (A^-1)^T:
the rows d(m*) come from table lookups and a sort, without inverting A.
Everything is Python integer arithmetic, so nothing is rounded or bounded.

``support_floor`` turns the same row matrix into a proof: a relation with one
monomial needs a zero row, a relation with two needs a proportional pair of
rows, so when neither exists every nonzero kernel element of the window —
basis element or not — has support at least 3.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from . import algebra, gf2, intmat
from .algebra import PRIMAL, ExtPolynomial, Gf2Polynomial, Monomial
from .errors import ResourceLimitError, ValidationError

DEFAULT_MAX_N = 4
DEFAULT_SAMPLE_MAX_N = 3
DEFAULT_SAMPLE_MAX_WEIGHT = 2


def max_rank_limit() -> int:
    """Ambient rank cap, overridable through BORDISMKIT_MAX_N."""
    raw = os.environ.get("BORDISMKIT_MAX_N", "")
    if raw:
        try:
            return int(raw)
        except ValueError as exc:
            raise ValidationError(f"BORDISMKIT_MAX_N={raw!r} is not an integer") from exc
    return DEFAULT_MAX_N


def _log10_basis_count(n: int, k: int) -> float:
    """log10 of the number of unordered independent k-subsets of GF(2)^n.

    The count is prod_{i<k} (2^n - 2^i) / k!; in log10 it stays cheap to
    compute and to print for any n.  A factor 1 - 2^(i-n) with n - i > 64
    rounds to 1, so only the last 64 factors are summed.
    """
    corrections = sum(math.log10(1 - 0.5 ** (n - i)) for i in range(max(0, k - 64), k))
    return k * n * math.log10(2) + corrections - math.lgamma(k + 1) / math.log(10)


@dataclass(frozen=True)
class KernelSpace:
    """GF(2) kernel of g -> d(g*) in homogeneous degree n."""

    n: int
    dim: int
    basis: list[Gf2Polynomial] = field(repr=False)
    monomials: list[Monomial] = field(repr=False)

    def contains(self, p: Gf2Polynomial) -> bool:
        if p.n != self.n or p.space != PRIMAL:
            return False
        return algebra.differential(algebra.dual(p)).is_zero()


def kernel_space(n: int, max_n: int | None = None) -> KernelSpace:
    """Exact kernel basis over GF(2) for ambient rank n."""
    if n < 1:
        raise ValidationError(f"ambient rank must be positive, got {n}")
    cap = max_rank_limit() if max_n is None else max_n
    if n > cap:
        raise ResourceLimitError(
            f"rank {n} exceeds the configured maximum {cap}; the elimination "
            f"would run over a 10^{_log10_basis_count(n, n):.1f} x "
            f"10^{_log10_basis_count(n, n - 1):.1f} matrix "
            f"(set BORDISMKIT_MAX_N={n} or pass max_n={n} to allow it)")
    duals = algebra.faithful_duals_gf2(n)
    monomials = list(duals)
    col_ids: dict[Monomial, int] = {}
    rows: list[int] = []
    for star in duals.values():
        bits = 0
        for j in range(n):
            deleted = star[:j] + star[j + 1:]
            if deleted not in col_ids:
                col_ids[deleted] = len(col_ids)
            bits ^= 1 << col_ids[deleted]
        rows.append(bits)

    acc = gf2.RankAccumulator(track=True)
    basis: list[Gf2Polynomial] = []
    for row in rows:
        if not acc.add(row):
            # faithful monomials are canonical and distinct
            terms = {monomials[j]: 1 for j in gf2.bits(acc.relation)}
            basis.append(Gf2Polynomial._of(n, PRIMAL, terms))
    return KernelSpace(n=n, dim=len(basis), basis=basis, monomials=monomials)


# ---------------------------------------------------------------------------
# integral window kernels


def _cofactor(sub: Monomial, n: int) -> tuple[int, ...]:
    """The vector v with v . x = det[sub; x] for every x (Laplace on the last row)."""
    return tuple((-1) ** (n - 1 + k) * intmat.det([c[:k] + c[k + 1:] for c in sub])
                 for k in range(n))


def window_monomials(n: int, weight_bound: int,
                     cofactors: dict[Monomial, tuple[int, ...]] | None = None
                     ) -> list[Monomial]:
    """Faithful monomials whose character entries all lie in [-w, w], in lex order.

    ``cofactors``, when given, receives the cofactor table the search built.
    """
    chars = [c for c in itertools.product(range(-weight_bound, weight_bound + 1), repeat=n)
             if any(c)]
    table = {} if cofactors is None else cofactors
    out = []
    for idx in itertools.combinations(range(len(chars)), n - 1):
        prefix = tuple(chars[i] for i in idx)
        v = table[prefix] = _cofactor(prefix, n)
        if math.gcd(*v) != 1:  # every det[prefix; x] is a multiple of gcd(v)
            continue
        for x in chars[idx[-1] + 1 if idx else 0:]:
            if sum(map(operator.mul, v, x)) in (1, -1):
                out.append(prefix + (x,))
    return out


def _window_rows(monomials: list[Monomial],
                 cofactors: dict[Monomial, tuple[int, ...]]) -> Iterator[dict[Monomial, int]]:
    """The rows d(m*) of the window, read off the cofactor table.

    Sorting the dual-basis rows gives m* and the sign ``algebra.dual`` folds
    in; d then deletes one character at a time with alternating signs.
    """
    for mono in monomials:
        n = len(mono)
        d = sum(map(operator.mul, cofactors[mono[:-1]], mono[-1]))
        dual_rows = []
        for j in range(n):
            v = cofactors[mono[:j] + mono[j + 1:]]
            dual_rows.append(v if d * (-1) ** (n - 1 - j) == 1 else tuple(-a for a in v))
        sign, star = algebra.sort_monomial(dual_rows)
        yield {star[:j] + star[j + 1:]: sign * (-1) ** j for j in range(n)}


def _left_kernel(rows: Iterable[dict[Monomial, int]]) -> tuple[int, list[dict[int, int]]]:
    """Rank and an integral basis of {x : sum_i x_i row_i = 0}.

    Streaming row reduction of [M | I] by unimodular operations: combinations
    of rows that reduce to zero span the full left-kernel lattice.
    """
    pivots: dict[Monomial, tuple[dict[Monomial, int], dict[int, int]]] = {}
    kernel: list[dict[int, int]] = []
    for i, r in enumerate(rows):
        row = dict(r)
        comb = {i: 1}
        while row:
            col = min(row)
            val = row[col]
            hit = pivots.get(col)
            if hit is None:
                pivots[col] = (row, comb)
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
                row = _combine(prow, row, u, v)
                comb = _combine(pcomb, comb, u, v)
        else:
            kernel.append(comb)
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


@dataclass(frozen=True)
class WindowKernel:
    """Integral kernel of g -> d(g*) restricted to a finite character window."""

    n: int
    weight_bound: int
    dim: int
    rank: int
    monomials: list[Monomial] = field(repr=False)
    basis: list[ExtPolynomial] = field(repr=False)


def _check_window(n: int, weight_bound: int, max_n: int | None,
                  max_weight_bound: int | None) -> None:
    if n < 1:
        raise ValidationError(f"ambient rank must be positive, got {n}")
    if weight_bound < 0:
        raise ValidationError(f"weight bound must be nonnegative, got {weight_bound}")
    cap_n = DEFAULT_SAMPLE_MAX_N if max_n is None else max_n
    cap_w = DEFAULT_SAMPLE_MAX_WEIGHT if max_weight_bound is None else max_weight_bound
    hit = []
    if n > cap_n:
        hit.append(f"n <= {cap_n} (pass max_n={n} to allow it)")
    if weight_bound > cap_w:
        hit.append(f"weight_bound <= {cap_w} (pass max_weight_bound={weight_bound} "
                   "to allow it)")
    if hit:
        chars = (2 * weight_bound + 1) ** n - 1
        raise ResourceLimitError(
            f"window (n={n}, weight_bound={weight_bound}) exceeds the cap "
            f"{' and '.join(hit)}; it would scan C({chars}, {n}) candidate monomials")


def kernel_sample_unitary(n: int, weight_bound: int = 1,
                          max_n: int | None = None,
                          max_weight_bound: int | None = None) -> WindowKernel:
    """Integral kernel basis over the window of weight-bounded monomials."""
    _check_window(n, weight_bound, max_n, max_weight_bound)
    cofactors: dict[Monomial, tuple[int, ...]] = {}
    monomials = window_monomials(n, weight_bound, cofactors)
    rank, combos = _left_kernel(_window_rows(monomials, cofactors))
    basis = []
    for comb in combos:
        # window monomials are canonical and the combination has no zeros
        terms = {monomials[i]: c for i, c in comb.items()}
        if terms[min(terms)] < 0:
            terms = {m: -c for m, c in terms.items()}
        basis.append(ExtPolynomial._of(n, PRIMAL, terms))
    return WindowKernel(n=n, weight_bound=weight_bound, dim=len(basis),
                        rank=rank, monomials=monomials, basis=basis)


def support_floor(n: int, weight_bound: int, max_n: int | None = None,
                  max_weight_bound: int | None = None) -> int:
    """Proven lower bound on the support of nonzero kernel elements of a window.

    Checks two structural facts about the rows d(m*): no row is zero (so no
    relation has support 1) and, when it holds, no two rows are proportional
    over Q (so no relation has support 2).  The argument covers every element
    of the window kernel, not just a basis.  The window caps are those of
    ``kernel_sample_unitary``.
    """
    _check_window(n, weight_bound, max_n, max_weight_bound)
    cofactors: dict[Monomial, tuple[int, ...]] = {}
    monomials = window_monomials(n, weight_bound, cofactors)
    seen: dict[tuple, Monomial] = {}
    floor = 3
    for mono, row in zip(monomials, _window_rows(monomials, cofactors)):
        if not row:
            return 1
        items = tuple(sorted(row.items()))
        if items[0][1] < 0:
            items = tuple((k, -v) for k, v in items)
        if items in seen:
            floor = 2
        else:
            seen[items] = mono
    return floor
