"""Generator classes from colored products of simplices.

Every product of simplices Delta^{k_1} x ... x Delta^{k_r} with k_1 + ... +
k_r = n carries basis colorings (one nonzero character per facet, forming a
basis at every vertex); the manifolds behind these colored shapes generate
the whole group in ambient rank n, so enumerating their coloring polynomials
yields an explicit generating family for the kernel.  Compositions of n that
agree up to reordering give polytopes that differ by a relabeling of facets
and coordinates, and the relabeled colorings are reached anyway, so only
partitions are walked.

GL(n, 2) acts freely on the basis colorings of a polytope, color by color,
and the coloring polynomial follows it: P(g.c) = g.P(c).  The colors at any
one vertex form a basis, so each orbit holds exactly one coloring with the
standard basis e_1, ..., e_n on the facets of the lexicographically first
vertex (McKay, "Isomorph-free exhaustive generation", J. Algorithms 1998).
``polytopes.orbit_representatives``, the one walk over basis colorings,
reaches those colorings by a DFS over the other facets.  The polynomials of
a shape are then the GL(n, 2)-orbits of its representatives' polynomials:
for each representative whose polynomial the shape has not seen yet, a BFS
under the transposition (1 2), the n-cycle and the transvection
e_1 -> e_1 + e_2, which generate GL(n, 2), reaches the whole orbit and
carries a witnessing coloring g.c along.

Inside the walk a polynomial is held as its key: the bitset of its monomials
over the faithful monomials in ``algebra.all_faithful_monomials_gf2`` order,
which is the row ``spanning_rank`` folds.  Dualizing permutes the faithful
monomials, so the keys' span has the rank of the duals' span after every
fold, and nothing in the walk is dualized.

``iter_bott_generators`` streams one (polytope, coloring, polynomial) triple
per distinct polynomial of each shape, shape by shape in ``partitions`` order.
``spanning_rank`` folds only each representative's key and the three
generator images of every coloring whose key raised the rank.  The key of g.c
is the key of c under the permutation g induces on the faithful monomials, so
that span is GL(n, 2)-invariant and equals the stream's (docs/decisions/0004).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Iterable, Iterator, NamedTuple

from . import algebra, gf2, polytopes
from .algebra import DUAL, Gf2Polynomial, Monomial
from .errors import ResourceLimitError, ValidationError
from .mvpoly import partitions
from .polytopes import Coloring, SimplePolytope, orbit_representatives

DEFAULT_MAX_N = 4


class BottGenerator(NamedTuple):
    polytope: SimplePolytope
    coloring: Coloring
    polynomial: Gf2Polynomial  # dual-space coloring polynomial


def gl2_order(n: int) -> int:
    """|GL(n, 2)|, the number of colorings each representative stands for."""
    out = 1
    for i in range(n):
        out *= (1 << n) - (1 << i)
    return out


def _check_rank(n: int, max_n: int | None) -> int:
    n = algebra.exact_int(n, "ambient rank", 1)
    cap = DEFAULT_MAX_N if max_n is None else max_n
    if n > cap:
        # a shape with r parts has r facets off the first vertex, each taking
        # one of 2^n - 1 colors; summed over all compositions of n this is
        # (2^n - 1) 2^(n(n-1)); in log10, summing only the last 64 factors of
        # |GL(n,2)| (the rest round to 1), the message is cheap for any n
        log2 = math.log10(2)
        log_reps = n * n * log2 + math.log10(1 - 0.5 ** n)
        log_gl = n * n * log2 + sum(math.log10(1 - 0.5 ** (n - i))
                                    for i in range(max(0, n - 64), n))
        log_colorings = log_reps + log_gl
        raise ResourceLimitError(
            f"rank {n} exceeds the generator enumeration cap n <= {cap}; the "
            f"orbit walk would visit up to 10^{log_reps:.1f} representative "
            f"colorings, standing for up to 10^{log_colorings:.1f} basis "
            f"colorings (pass max_n={n} to allow it)")
    return n


def _gl_generators(n: int) -> list[list[int]]:
    """Images of every packed character under (1 2), the n-cycle and the
    transvection e_1 -> e_1 + e_2; GL(1, 2) is trivial and needs none."""
    if n == 1:
        return []
    chars = range(1 << n)
    mask = (1 << n) - 1
    return [[c ^ ((c ^ c >> 1) & 1) * 3 for c in chars],
            [(c << 1 | c >> (n - 1)) & mask for c in chars],
            [c ^ (c & 1) << 1 for c in chars]]


def _mask(mono: Monomial) -> int:
    """A monomial as the set bitmask of its packed characters."""
    return sum(1 << gf2.pack(c) for c in mono)


def _key_bits(n: int) -> tuple[dict[int, int], list[Monomial]]:
    """Faithful monomials of rank n: mask -> key bit, and the index of that
    bit -> the monomial."""
    monomial_of = algebra.all_faithful_monomials_gf2(n)
    return {_mask(m): 1 << i for i, m in enumerate(monomial_of)}, monomial_of


class _OrbitWalk:
    """The stream of (polytope, coloring, key), one per distinct polynomial of
    each shape; ``representatives`` counts the representatives walked so far."""

    def __init__(self, n: int):
        self.n = n
        self.representatives = 0
        self.bit_of, self.monomial_of = _key_bits(n)

    def _key(self, colors: tuple[int, ...], vertices: list[tuple[int, ...]]) -> int:
        bit_of = self.bit_of
        key = 0
        for v in vertices:
            mask = 0
            for f in v:
                mask |= 1 << colors[f]
            key ^= bit_of[mask]
        return key

    def __iter__(self) -> Iterator[tuple[SimplePolytope, tuple[int, ...], int]]:
        generators = _gl_generators(self.n)
        for shape in partitions(self.n):
            polytope = polytopes.product_of_simplices(shape)
            vertices = [tuple(v) for v in polytope.vertices]
            seen: set[int] = set()
            for rep in orbit_representatives(polytope):
                self.representatives += 1
                key = self._key(rep, vertices)
                if key in seen:
                    continue
                seen.add(key)
                yield polytope, rep, key
                queue = deque([rep])
                while queue:
                    colors = queue.popleft()
                    for table in generators:
                        image = tuple([table[c] for c in colors])
                        key = self._key(image, vertices)
                        if key not in seen:
                            seen.add(key)
                            queue.append(image)
                            yield polytope, image, key

    def closure(self, acc: gf2.RankAccumulator) -> Iterator[int]:
        """Fold into ``acc`` each representative's key and, after each fold that
        raises the rank, the keys of its three generator images; yield each key."""
        generators = _gl_generators(self.n)
        for shape in partitions(self.n):
            polytope = polytopes.product_of_simplices(shape)
            vertices = [tuple(v) for v in polytope.vertices]
            for rep in orbit_representatives(polytope):
                self.representatives += 1
                queue = [rep]
                while queue:
                    colors = queue.pop()
                    key = self._key(colors, vertices)
                    if acc.add(key):
                        queue += [tuple([table[c] for c in colors]) for table in generators]
                    yield key


def iter_bott_generators(n: int, max_n: int | None = None) -> Iterator[BottGenerator]:
    """Stream generator triples over all shapes of rank n, one per distinct
    polynomial of each shape."""
    n = _check_rank(n, max_n)
    walk = _OrbitWalk(n)
    unpacked = [gf2.unpack(c, n) for c in range(1 << n)]
    for polytope, colors, key in walk:
        coloring = Coloring("gf2", {f: unpacked[c] for f, c in enumerate(colors)})
        # key monomials are canonical and distinct
        terms = {walk.monomial_of[i]: 1 for i in gf2.bits(key)}
        yield BottGenerator(polytope, coloring, Gf2Polynomial._of(n, DUAL, terms))


def bott_generators(n: int, max_n: int | None = None) -> list[BottGenerator]:
    """All generator triples of rank n, one per distinct polynomial of each shape."""
    return list(iter_bott_generators(n, max_n=max_n))


def dual_span_rank(polynomials: Iterable[Gf2Polynomial], n: int) -> int:
    """GF(2) rank of the span of the duals of the given faithful polynomials
    (the rank of their own span: dualizing permutes the faithful monomials)."""
    bit_of, _ = _key_bits(n)
    acc = gf2.RankAccumulator()
    for p in polynomials:
        if p.n != n:
            raise ValidationError(f"polynomial has rank {p.n}, expected {n}")
        key = 0
        try:
            for m in p.terms:
                key |= bit_of[_mask(m)]  # distinct monomials, distinct bits
        except KeyError:
            raise ValidationError(f"non-faithful monomial {m}") from None
        acc.add(key)
    return acc.rank


class SpanningReport(NamedTuple):
    n: int
    rank: int
    distinct: int  # keys folded: representatives and the images of rank-raising colorings
    colorings: int  # representatives walked x |GL(n, 2)|
    stopped_early: bool


def spanning_rank(n: int, target: int | None = None,
                  max_n: int | None = None) -> SpanningReport:
    """Rank of the span of dual generator polynomials.

    Folds the keys of ``_OrbitWalk.closure``; their span is the stream's, with
    the rank of the duals' span.  With ``target`` set, stops as soon as the
    rank reaches it (the span only grows, so the reached rank is final as long
    as the target is an upper bound, e.g. the kernel dimension).
    """
    n = _check_rank(n, max_n)
    walk = _OrbitWalk(n)
    acc = gf2.RankAccumulator()
    stopped = False
    for folded, _ in enumerate(walk.closure(acc), 1):  # never empty
        if target is not None and acc.rank >= target:
            stopped = True
            break
    return SpanningReport(n, acc.rank, folded, walk.representatives * gl2_order(n),
                          stopped)
