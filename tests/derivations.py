"""Answers derived from the mathematics, reading no bordismkit code.

A test that compares a library answer with one of these does not pass
merely because both sides share a bug.  The module imports only the
standard library (a scan in test_package.py), unlike the oracles in
elimination_oracles.py and localization_oracles.py, which re-implement
code paths the library replaced.
"""

import itertools
import math


def kernel_dim(n):
    """dim over GF(2) of the rank-n kernel of g -> d(g*): |sum_k (-1)^k f_k|.

    f_k = (2^n - 1)(2^n - 2)...(2^n - 2^(k-1)) / k! counts the independent
    k-sets of nonzero vectors of GF(2)^n (f_0 = 1).  Their complex is a
    matroid's, so shellable, and the kernel is its top homology, whose
    dimension is the reduced Euler characteristic up to sign
    (docs/decisions/0001, derivation 1).
    """
    ordered = 1   # ordered independent k-tuples
    total = 0
    for k in range(n + 1):
        total += (-1) ** k * (ordered // math.factorial(k))
        ordered *= 2 ** n - 2 ** k
    return abs(total)


def cohomology_chern_numbers(shape):
    """c1^i c2^j [M] (i + 2j = n) of M = CP^k1 x ... x CP^km, from H*(M) alone.

    H*(M) = Z[x_1..x_m] / (x_l^(k_l + 1)), total Chern class
    prod_l (1 + x_l)^(k_l + 1), and [M] pairs to 1 with prod_l x_l^k_l.
    Classes are {exponent tuple: integer} truncated to the ring.
    """
    m, n = len(shape), sum(shape)

    def times(a, b):
        out = {}
        for (ea, ca), (eb, cb) in itertools.product(a.items(), b.items()):
            e = tuple(x + y for x, y in zip(ea, eb))
            if all(x <= k for x, k in zip(e, shape)):
                out[e] = out.get(e, 0) + ca * cb
        return out

    total = {(0,) * m: 1}
    for l, k in enumerate(shape):
        total = times(total, {tuple(a if t == l else 0 for t in range(m)): math.comb(k + 1, a)
                              for a in range(k + 2)})
    c1 = {e: c for e, c in total.items() if sum(e) == 1}
    c2 = {e: c for e, c in total.items() if sum(e) == 2}
    numbers = {}
    for j in range(n // 2 + 1):
        i = n - 2 * j
        cls = {(0,) * m: 1}
        for factor in [c1] * i + [c2] * j:
            cls = times(cls, factor)
        numbers[(i, j)] = cls.get(tuple(shape), 0)
    return numbers
