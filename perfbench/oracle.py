"""Reference answers derived without bordismkit.

Every function here is written from the mathematics, not from the library,
so a check that compares a library answer with one of these does not pass
merely because both sides share a bug.  Polynomials are plain dicts
``{monomial: coefficient}`` where a monomial is a tuple of integer character
tuples; GF(2) polynomials are sets of monomials.
"""

from __future__ import annotations

import functools
import itertools
import math


def kernel_dim(n: int) -> int:
    """Rank-n GF(2) kernel dimension |sum_k (-1)^k f_k|.

    f_k = prod_{i<k} (2^n - 2^i) / k! counts the independent k-subsets of
    GF(2)^n; the kernel is the top homology of that (shellable) matroid
    complex, so its dimension is the reduced Euler characteristic.
    Gives 0, 1, 13, 511 for n = 1..4.
    """
    total = 0
    for k in range(n + 1):
        f = 1
        for i in range(k):
            f *= (1 << n) - (1 << i)
        total += (-1) ** k * (f // math.factorial(k))
    return abs(total)


def det(rows) -> int:
    """Determinant by cofactor expansion along the first row."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j, a in enumerate(rows[0]):
        if a:
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            total += (-1) ** j * a * det(minor)
    return total


def _sort_sign(chars) -> tuple[int, tuple]:
    """(sign of the sorting permutation, sorted tuple); sign 0 on a repeat."""
    chars = list(chars)
    inversions = sum(1 for i, j in itertools.combinations(range(len(chars)), 2)
                     if chars[i] > chars[j])
    ordered = tuple(sorted(chars))
    if len(set(ordered)) != len(ordered):
        return 0, ordered
    return (-1) ** inversions, ordered


def _dual_rows(rows) -> list[tuple[int, ...]]:
    """Rows of (A^{-1})^T = cofactor(A) / det(A) for unimodular A."""
    d = det(rows)
    if d not in (1, -1):
        raise ValueError(f"monomial {rows} is not unimodular (det {d})")
    n = len(rows)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = [r[:j] + r[j + 1:] for k, r in enumerate(rows) if k != i]
            row.append((-1) ** (i + j) * det(minor) * d)
        out.append(tuple(row))
    return out


@functools.lru_cache(maxsize=None)
def _dual_monomial(mono: tuple) -> tuple[int, tuple]:
    sign_a = 1 if det([list(r) for r in mono]) > 0 else -1
    _, b = _sort_sign(_dual_rows([list(r) for r in mono]))
    sign_b = 1 if det([list(r) for r in b]) > 0 else -1
    return sign_a * sign_b, b


def z_dual(poly: dict) -> dict:
    """Dual of an integer faithful polynomial.

    c on A  ->  c * sign(det A) * sign(det B) on B, with B the dual-basis
    rows of A in sorted order.
    """
    out: dict = {}
    for mono, c in poly.items():
        sign, b = _dual_monomial(mono)
        out[b] = out.get(b, 0) + c * sign
    return {m: c for m, c in out.items() if c}


def z_differential(poly: dict) -> dict:
    """Alternating deletion differential on sorted exterior monomials."""
    out: dict = {}
    for mono, c in poly.items():
        for j in range(len(mono)):
            sub = mono[:j] + mono[j + 1:]
            out[sub] = out.get(sub, 0) + (-1) ** j * c
    return {m: c for m, c in out.items() if c}


def in_z_kernel(poly: dict) -> bool:
    """Whether d(g*) = 0 for an integer polynomial g."""
    return not z_differential(z_dual(poly))


def mod2(poly: dict) -> frozenset:
    """Coordinate- and coefficient-wise reduction of an integer polynomial."""
    out: set = set()
    for mono, c in poly.items():
        if c % 2 == 0:
            continue
        chars = [tuple(v & 1 for v in ch) for ch in mono]
        if not all(any(ch) for ch in chars):
            continue
        sign, ordered = _sort_sign(chars)
        if sign:
            out.symmetric_difference_update({ordered})
    return frozenset(out)


def unimodular_count(n: int, weight_bound: int) -> int:
    """Number of n-subsets of nonzero characters in [-w, w]^n with det ±1."""
    chars = [c for c in itertools.product(range(-weight_bound, weight_bound + 1),
                                          repeat=n) if any(c)]
    return sum(1 for sub in itertools.combinations(chars, n)
               if det([list(c) for c in sub]) in (1, -1))


def cp_product_chern_numbers(factors) -> dict[tuple[int, int], int]:
    """Chern numbers c1^i c2^j [M] with i + 2j = n for M = prod CP^{k_r}.

    H*(M) = Z[x_r] / (x_r^{k_r + 1}) with total Chern class
    prod_r (1 + x_r)^{k_r + 1}; the fundamental class pairs to 1 with
    prod_r x_r^{k_r}.
    """
    factors = tuple(factors)
    r = len(factors)
    n = sum(factors)

    def unit(idx: int) -> tuple[int, ...]:
        return tuple(1 if s == idx else 0 for s in range(r))

    def mul(p: dict, q: dict) -> dict:
        out: dict = {}
        for e, a in p.items():
            for f, b in q.items():
                g = tuple(x + y for x, y in zip(e, f))
                if all(x <= k for x, k in zip(g, factors)):
                    out[g] = out.get(g, 0) + a * b
        return out

    c1 = {unit(s): k + 1 for s, k in enumerate(factors)}
    c2: dict = {}
    for s, k in enumerate(factors):
        e = tuple(2 if t == s else 0 for t in range(r))
        c2[e] = c2.get(e, 0) + math.comb(k + 1, 2)
    for s, t in itertools.combinations(range(r), 2):
        e = tuple(1 if u in (s, t) else 0 for u in range(r))
        c2[e] = c2.get(e, 0) + (factors[s] + 1) * (factors[t] + 1)
    top = tuple(factors)
    out = {}
    for j in range(n // 2 + 1):
        i = n - 2 * j
        p = {(0,) * r: 1}
        for _ in range(i):
            p = mul(p, c1)
        for _ in range(j):
            p = mul(p, c2)
        out[(i, j)] = p.get(top, 0)
    return out


def partitions(n: int) -> list[tuple[int, ...]]:
    """Partitions of n, largest part first, in descending order."""
    out: list[tuple[int, ...]] = []

    def walk(rest: int, cap: int, acc: tuple[int, ...]) -> None:
        if rest == 0:
            out.append(acc)
            return
        for part in range(min(rest, cap), 0, -1):
            walk(rest - part, part, acc + (part,))

    walk(n, n, ())
    return out


def partitions_up_to(max_degree: int, max_parts: int) -> list[tuple[int, ...]]:
    """The empty partition and every partition of 1..max_degree into at
    most max_parts parts."""
    return [()] + [mu for d in range(1, max_degree + 1) for mu in partitions(d)
                   if len(mu) <= max_parts]
