"""Eliminations the library ran before it moved onto shared routines.

* The inline GF(2) eliminations that ``kernel_space`` and
  ``surjectivity_probe`` ran before both moved onto ``gf2.RankAccumulator``:
  each walks its own pivot dict and tracks its own combinations.
* The pivot DFS that enumerated the faithful GF(2) monomials before
  ``algebra.basis_search`` found the bases of both rings.
* The monomial-keyed table of faithful GF(2) duals that ``kernel_space``
  read off the search before it read the dual of each basis by character
  id; its tests check it against the dual-basis hook.
* The Bareiss determinant that the integer window's cofactors used before
  the window search built them from its prefixes' minors.
* The adjugate inverse (n² Bareiss minors) and the determinant/rank
  faithfulness predicates that ``intmat.dual_basis``, the one dual-basis
  hook of both rings, replaced; the GF(2) predicate runs its own small
  rank, not the elimination mod 2.
* The extended-Euclid functional φ with φ(v) = 1 for a primitive v, which
  the torus-graph congruence axiom used before it read φ off the vertex
  dual basis.
* The scan of every window row d(m*) for zero or proportional rows, which
  ``kernels.support_floor`` ran before it returned the floor of its row
  argument.
* The streaming echelon left kernel of the integer window rows, which
  ``kernels._left_kernel`` ran before it kept its pivot rows reduced on
  each other's pivot columns (Gauss-Jordan), with its ``_addmul`` and
  ``_combine``.
* The backtracking walk over every basis GF(2) coloring of a polytope,
  facet by facet, which ``polytopes.random_gf2_coloring`` drew from and
  ``all_gf2_colorings`` listed before both gave way to the one orbit walk
  ``polytopes.orbit_representatives``; it checks the orbit counts.

Kept verbatim as test oracles, so the library's shared routines are checked
against code that does not use them.
"""

from math import gcd

from bordismkit import algebra, gf2, kernels
from bordismkit.algebra import PRIMAL, ExtPolynomial, Gf2Polynomial
from bordismkit.intmat import ext_gcd
from bordismkit.polytopes import Coloring


def faithful_monomials_gf2(n):
    """All unordered bases of GF(2)^n as canonical monomials, sorted, by a
    DFS that reduces each candidate against the pivots picked so far."""
    chars = algebra.nonzero_chars_gf2(n)
    packed = [gf2.pack(c) for c in chars]
    out = []

    def extend(start, picked, pivots):
        if len(picked) == n:
            out.append(tuple(chars[i] for i in picked))
            return
        for i in range(start, len(chars)):
            reduced = packed[i]
            for p in pivots:        # each pivot clears its own lowest bit
                if reduced & (p & -p):
                    reduced ^= p
            if reduced:
                extend(i + 1, picked + [i], pivots + [reduced])

    extend(0, [], [])
    return out


def faithful_duals_gf2(n):
    """Each faithful GF(2) monomial of rank n -> its dual, in
    ``all_faithful_monomials_gf2`` order, read off the search's cofactors
    mod 2; every value is one of the enumerated monomials, not a copy."""
    found = algebra._faithful_search(n)
    monomials = found.monomials()
    position = {c: i for i, c in enumerate(found.chars)}
    row = {s: position[tuple(a & 1 for a in v)] for s, v in found.cofactors.items()}
    by_ids = {ids: m for (ids, _), m in zip(found.kept, monomials)}
    return {m: by_ids[tuple(sorted(row[ids[:j] + ids[j + 1:]] for j in range(n)))]
            for (ids, _), m in zip(found.kept, monomials)}


def kernel_basis(n):
    """The rank-n GF(2) kernel basis, by the elimination ``kernel_space`` used."""
    monomials = faithful_monomials_gf2(n)
    col_ids = {}
    rows = []
    for mono in monomials:
        star = algebra.sort_monomial(Gf2Polynomial._dual_rows(mono, n)[0])[1]
        bits = 0
        for j in range(n):
            deleted = star[:j] + star[j + 1:]
            if deleted not in col_ids:
                col_ids[deleted] = len(col_ids)
            bits ^= 1 << col_ids[deleted]
        rows.append(bits)

    pivots = {}
    basis = []
    for i, row in enumerate(rows):
        comb = 1 << i
        while row:
            lead = row.bit_length() - 1
            hit = pivots.get(lead)
            if hit is None:
                pivots[lead] = (row, comb)
                break
            row ^= hit[0]
            comb ^= hit[1]
        else:
            members = [monomials[j] for j in range(i + 1) if comb >> j & 1]
            basis.append(Gf2Polynomial(n, members, space=PRIMAL))
    return basis


def probe_witnesses(n, weight_bound):
    """(index, witness or None) per kernel basis element, by the elimination
    ``surjectivity_probe`` used."""
    target_basis = kernels.kernel_space(n).basis
    window = kernels.kernel_sample_unitary(n, weight_bound)
    reduced = [algebra.mod2_reduce(p) for p in window.basis]

    cols = {}

    def bits_of(p):
        bits = 0
        for mono in p.monomials:
            bits |= 1 << cols.setdefault(mono, len(cols))
        return bits

    pivots = {}
    for i, q in enumerate(reduced):
        row, comb = bits_of(q), 1 << i
        while row:
            lead = row.bit_length() - 1
            if lead not in pivots:
                pivots[lead] = (row, comb)
                break
            prow, pcomb = pivots[lead]
            row ^= prow
            comb ^= pcomb

    out = []
    for index, g in enumerate(target_basis):
        row, comb = bits_of(g), 0
        while row:
            lead = row.bit_length() - 1
            if lead not in pivots:
                break
            prow, pcomb = pivots[lead]
            row ^= prow
            comb ^= pcomb
        if row:
            out.append((index, None))
            continue
        witness = ExtPolynomial(n, {}, space=PRIMAL)
        for i, p in enumerate(window.basis):
            if comb >> i & 1:
                witness = witness + p
        out.append((index, witness))
    return out


def support_floor(n, weight_bound):
    """The window's support floor by scanning its rows: 1 on a zero row, 2
    on a pair of rows proportional over Q, else 3 (floors <= 3 only)."""
    seen = set()
    floor = 3
    for row in kernels._window_rows(kernels._search(n, weight_bound)):
        if not row:
            return 1
        if row[0][1] < 0:
            row = tuple((k, -v) for k, v in row)
        if row in seen:
            floor = 2
        else:
            seen.add(row)
    return floor


def left_kernel(rows):
    """Rank and an integral basis of {x : sum_i x_i row_i = 0} by streaming
    row reduction of [M | I]: each row reduces at its smallest column
    first, by a quotient where the pivot divides the entry and by the gcd
    step otherwise, and a pivot row changes only when a gcd step replaces
    it."""
    pivots = {}
    kernel = []
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
                g = gcd(piv, val)
                _, a, b = ext_gcd(piv, val)
                u, v = -(val // g), piv // g  # second row of a unimodular 2x2
                pivots[col] = (_combine(prow, row, a, b), _combine(pcomb, comb, a, b))
                row = _combine(prow, row, u, v)
                comb = _combine(pcomb, comb, u, v)
        else:
            kernel.append(comb)
    return len(pivots), kernel


def _addmul(dst, src, factor):
    for k, v in src.items():
        nv = dst.get(k, 0) + factor * v
        if nv:
            dst[k] = nv
        else:
            dst.pop(k, None)


def _combine(r1, r2, c1, c2):
    out = {}
    for k in set(r1) | set(r2):
        v = c1 * r1.get(k, 0) + c2 * r2.get(k, 0)
        if v:
            out[k] = v
    return out


def gf2_colorings(p):
    """Every basis GF(2) coloring of ``p``, by a backtracking walk facet by
    facet: each facet tries every nonzero character in increasing order."""
    n, m = p.dim, p.num_facets
    chars = [gf2.pack(c) for c in algebra.nonzero_chars_gf2(n)]
    at_vertex = [[] for _ in range(m)]
    for i, v in enumerate(p.vertices):
        for f in v:
            at_vertex[f].append(i)
    assign = [0] * m

    def vertex_ok(vi, upto):
        rows = [assign[f] for f in p.vertices[vi] if f <= upto]
        return len(gf2.span(rows)) == 1 << len(rows)

    def extend(f):
        if f == m:
            yield Coloring("gf2", {i: gf2.unpack(assign[i], n) for i in range(m)})
            return
        for c in chars:
            assign[f] = c
            if all(vertex_ok(vi, f) for vi in at_vertex[f]):
                yield from extend(f + 1)

    return list(extend(0))


def det(mat):
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


def adjugate(mat):
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


def inverse_transpose_unimodular(mat):
    """Rows of (A^{-1})^T for unimodular A — the dual basis of A's rows.

    Row i of the result pairs to 1 with row i of A and to 0 with the others.
    """
    d = det(mat)
    if d not in (1, -1):
        raise ValueError(f"matrix is not unimodular (det={d})")
    adj = adjugate(mat)  # A^{-1} = adj/det, so (A^{-1})^T = adj^T/det
    n = len(mat)
    return [tuple(d * adj[i][j] for i in range(n)) for j in range(n)]


def rank_gf2(rows):
    """Rank of bitset rows: clear each pivot's lowest bit from the rest."""
    rows = list(rows)
    rank = 0
    while rows:
        pivot = rows.pop()
        if pivot:
            low = pivot & -pivot
            rows = [r ^ pivot if r & low else r for r in rows]
            rank += 1
    return rank


def is_faithful_monomial_gf2(mono, n):
    if len(mono) != n:
        return False
    return rank_gf2(gf2.pack(c) for c in mono) == n


def is_faithful_monomial_z(mono, n):
    if len(mono) != n:
        return False
    return det(mono) in (1, -1)


def is_primitive(vec):
    g = 0
    for v in vec:
        g = gcd(g, v)
    return g == 1


def integral_functional(vec):
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
        new_g, x, y = ext_gcd(g, abs(v))
        # x*g + y*|v| = new_g; fold the old combination by x
        for j in range(i):
            u[j] *= x
        u[i] = y if v > 0 else -y
        g = new_g
        if g == 1:
            break
    assert sum(a * b for a, b in zip(u, vec)) == 1
    return tuple(u)
