"""Simple polytopes as vertex-facet incidence structures, with facet colorings.

A polytope here is purely combinatorial: ``dim`` = n, ``num_facets`` = m, and
vertices given as n-element sets of facet indices.  Simplicity is enforced
(every vertex lies on exactly n facets, every facet holds a vertex, every
(n-1)-set of facets lies on at most 2 vertices, and the edge graph is
n-regular and connected).

Colorings assign a nonzero character to each facet so that the colors at
every vertex form a basis — invertible over GF(2), determinant ±1 over Z.
``Coloring.vertex_duals`` proves it once per vertex with the target ring's
dual-basis hook (``algebra.RINGS[target]._dual_rows``), and the graph
builders in :mod:`.graphs` read their edge weights off those same rows.
The GF(2) coloring polynomial (sum over vertices of the product of incident
facet colors) lives in the dual space; its dual is the edge-colored graph
polynomial of the 1-skeleton.

Each GL(n, 2) orbit of basis GF(2) colorings holds one coloring with e_1,
..., e_n at the first vertex.  ``orbit_representatives`` is the one walk over
them: :mod:`.bott` enumerates it, and ``random_gf2_coloring`` moves the first
coloring of a shuffled walk by a uniform g in GL(n, 2).
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator, Mapping, Sequence

from . import algebra, gf2
from .algebra import Gf2Polynomial
from .errors import ValidationError

Vertex = frozenset[int]


def _facet_id(f: object) -> int:
    return algebra.exact_int(f, "facet id")


class SimplePolytope:
    """Abstract simple n-polytope: facet indices 0..m-1 and vertex incidences."""

    __slots__ = ("dim", "num_facets", "vertices", "_adj")

    def __init__(self, dim: int, num_facets: int, vertices: Iterable[Iterable[int]]):
        self.dim = algebra.exact_int(dim, "polytope dimension", 1)
        self.num_facets = algebra.exact_int(num_facets, "facet count", 0)
        self.vertices = [frozenset(map(_facet_id, v)) for v in vertices]
        self._validate()

    def _validate(self) -> None:
        n, m = self.dim, self.num_facets
        if len(self.vertices) < n + 1:
            raise ValidationError(f"a simple {n}-polytope has at least {n + 1} vertices, "
                                  f"got {len(self.vertices)}")
        if len(set(self.vertices)) != len(self.vertices):
            raise ValidationError("duplicate vertex facet-sets")
        for v in self.vertices:
            if len(v) != n:
                raise ValidationError(f"vertex {sorted(v)} does not lie on exactly {n} facets")
            if any(f < 0 or f >= m for f in v):
                raise ValidationError(f"vertex {sorted(v)} references an unknown facet")
        # every facet holds a vertex: this bounds m before anything is sized by it
        covered = set().union(*self.vertices)
        if len(covered) < m:
            missing = next(f for f in range(m) if f not in covered)
            raise ValidationError(f"no vertex lies on facet {missing}")
        # every (n-1)-set of facets lies in at most 2 vertices; those pairs are edges
        by_ridge: dict[Vertex, list[int]] = {}
        for i, v in enumerate(self.vertices):
            for f in v:
                by_ridge.setdefault(v - {f}, []).append(i)
        if any(len(on) > 2 for on in by_ridge.values()):
            raise ValidationError("a facet (n-1)-set lies on more than two vertices")
        adj: list[list[int]] = [[] for _ in self.vertices]
        for on in by_ridge.values():
            if len(on) == 2:
                i, j = on
                adj[i].append(j)
                adj[j].append(i)
        self._adj = [sorted(nb) for nb in adj]
        if any(len(nb) != n for nb in self._adj):
            raise ValidationError("edge graph is not n-regular")
        # connectivity
        seen = {0}
        stack = [0]
        while stack:
            for w in self._adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != len(self.vertices):
            raise ValidationError("edge graph is not connected")

    def edges(self) -> list[tuple[int, int]]:
        return [(i, j) for i, nb in enumerate(self._adj) for j in nb if i < j]

    def __repr__(self) -> str:
        return (f"SimplePolytope(dim={self.dim}, facets={self.num_facets}, "
                f"vertices={len(self.vertices)})")

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, SimplePolytope)
                and self.dim == other.dim
                and self.num_facets == other.num_facets
                and sorted(self.vertices, key=sorted) == sorted(other.vertices, key=sorted))


def simplex(k: int) -> SimplePolytope:
    """The k-simplex: k+1 facets, vertices = all k-element facet subsets."""
    k = algebra.exact_int(k, "simplex dimension", 1)
    verts = [frozenset(range(k + 1)) - {i} for i in range(k + 1)]
    return SimplePolytope(k, k + 1, verts)


def product(p1: SimplePolytope, p2: SimplePolytope) -> SimplePolytope:
    """Cartesian product; p2's facet indices are shifted past p1's."""
    off = p1.num_facets
    verts = [v1 | frozenset(f + off for f in v2)
             for v1 in p1.vertices for v2 in p2.vertices]
    return SimplePolytope(p1.dim + p2.dim, off + p2.num_facets, verts)


def connected_sum(p1: SimplePolytope, v1: Vertex | Iterable[int],
                  p2: SimplePolytope, v2: Vertex | Iterable[int],
                  pairing: Mapping[int, int]) -> SimplePolytope:
    """Vertex connected sum: cut v1 and v2, glue the cut faces via ``pairing``.

    ``pairing`` maps each facet at v1 to a facet at v2; each paired couple
    merges into a single facet of the sum.  The merged facet keeps p1's index;
    unmerged p2 facets are appended.  Facets that end up with no vertices are
    dropped (this happens only in the degenerate 1-dimensional case).
    """
    v1, v2 = frozenset(map(_facet_id, v1)), frozenset(map(_facet_id, v2))
    if v1 not in p1.vertices:
        raise ValidationError("v1 is not a vertex of the first polytope")
    if v2 not in p2.vertices:
        raise ValidationError("v2 is not a vertex of the second polytope")
    if p1.dim != p2.dim:
        raise ValidationError("connected sum needs equal dimensions")
    pairing = {_facet_id(a): _facet_id(b) for a, b in pairing.items()}
    if set(pairing) != set(v1) or set(pairing.values()) != set(v2):
        raise ValidationError("pairing must biject the facets at v1 with those at v2")

    inverse = {b: a for a, b in pairing.items()}
    p2_map: dict[int, int] = {}
    next_id = p1.num_facets
    for f in range(p2.num_facets):
        if f in inverse:
            p2_map[f] = inverse[f]
        else:
            p2_map[f] = next_id
            next_id += 1

    verts = [v for v in p1.vertices if v != v1]
    verts += [frozenset(p2_map[f] for f in v) for v in p2.vertices if v != v2]

    # drop facets that lost all their vertices, renumbering densely
    used = sorted(set().union(*verts)) if verts else []
    renum = {f: i for i, f in enumerate(used)}
    verts = [frozenset(renum[f] for f in v) for v in verts]
    try:
        return SimplePolytope(p1.dim, len(used), verts)
    except ValidationError as exc:
        raise ValidationError(f"non-simple sum: {exc}") from exc


# ---------------------------------------------------------------------------
# colorings


class Coloring:
    """Facet coloring into GF(2)^n or Z^n characters."""

    __slots__ = ("target", "map")

    def __init__(self, target: str, colors: Mapping[int, Sequence[int]]):
        if target not in algebra.RINGS:
            raise ValidationError(f"unknown coloring target {target!r}")
        self.target = target
        self.map = {_facet_id(f): tuple([algebra.exact_int(x, "color entry") for x in c])
                    for f, c in colors.items()}

    def validate(self, p: SimplePolytope) -> None:
        self.vertex_duals(p)

    def vertex_duals(self, p: SimplePolytope) -> list[dict[int, tuple[int, ...]]]:
        """Validate the coloring of ``p`` and return, per vertex, its dual basis:
        facet F at the vertex ↦ the row pairing to 1 with λ(F) and to 0 with
        the other colors there.

        The dual basis exists exactly when the colors form a basis, so this
        one elimination per vertex is the basis test.
        """
        n = p.dim
        if set(self.map) != set(range(p.num_facets)):
            raise ValidationError("coloring must cover every facet exactly once")
        ring = algebra.RINGS[self.target]
        for c in self.map.values():
            ring._check_char(c, n)
        duals: list[dict[int, tuple[int, ...]]] = []
        bad = []
        for i, v in enumerate(p.vertices):
            fs = sorted(v)
            found = ring._dual_rows([self.map[f] for f in fs], n)
            if found is None:
                bad.append(i)
            else:
                duals.append(dict(zip(fs, found[0])))
        if bad:
            raise ValidationError(
                f"facet colors do not form a basis at vertices {bad}")
        return duals

    def mod2(self) -> "Coloring":
        return Coloring("gf2", {f: algebra.char_mod2(c) for f, c in self.map.items()})


def coloring_polynomial(p: SimplePolytope, coloring: Coloring) -> Gf2Polynomial:
    """GF(2) coloring polynomial Σ_v Π_{F∋v} λ(F), in the dual space."""
    if coloring.target != "gf2":
        raise ValidationError("coloring_polynomial expects a GF(2) coloring")
    coloring.validate(p)
    monos = [tuple(coloring.map[f] for f in sorted(v)) for v in p.vertices]
    return Gf2Polynomial(p.dim, monos, space=algebra.DUAL)


# ---------------------------------------------------------------------------
# basis colorings: one representative per GL(n, 2) orbit


def orbit_representatives(p: SimplePolytope,
                          rng: random.Random | None = None) -> Iterator[tuple[int, ...]]:
    """Basis colorings of p with e_1, ..., e_n on the facets of the first vertex.

    Colorings are tuples of packed characters indexed by facet; the facets of
    the lexicographically first vertex get 1, 2, 4, ... in facet order, and
    the rest are filled in facet order.  Without an rng each free facet tries
    its colors in increasing order, so the representatives come out in
    lexicographic order; with one, each tries them in a shuffled order.
    """
    vertices = sorted(tuple(sorted(v)) for v in p.vertices)
    colors = [0] * p.num_facets
    for j, f in enumerate(vertices[0]):
        colors[f] = 1 << j
    free = [f for f in range(p.num_facets) if not colors[f]]
    # at every vertex through free[i]: its facets colored before free[i]
    before = [[[g for g in v if g != f and (colors[g] or g < f)]
               for v in vertices if f in v] for f in free]
    palette = range(1, 1 << p.dim)

    def walk(i: int) -> Iterator[tuple[int, ...]]:
        if i == len(free):
            yield tuple(colors)
            return
        spans = [gf2.span(colors[g] for g in others) for others in before[i]]
        order = palette if rng is None else rng.sample(palette, len(palette))
        for c in order:
            if not any(c in s for s in spans):
                colors[free[i]] = c
                yield from walk(i + 1)

    yield from walk(0)


def random_gf2_coloring(p: SimplePolytope, rng: random.Random) -> Coloring:
    """g.c for the first representative c of a shuffled orbit walk and a
    uniform g in GL(n, 2).  GL(n, 2) acts freely and every orbit has a
    representative, so every basis coloring of p can be drawn."""
    n = p.dim
    rep = next(orbit_representatives(p, rng), None)
    if rep is None:
        raise ValidationError("polytope admits no valid GF(2) coloring")
    # g column by column, each drawn outside the span of the earlier ones;
    # image[x] = g(x) on the 2^j characters x spanned by e_1, ..., e_j
    image = [0]
    while len(image) < 1 << n:
        c = rng.randrange(1 << n)
        if c not in image:
            image += [x ^ c for x in image]
    return Coloring("gf2", {f: gf2.unpack(image[c], n) for f, c in enumerate(rep)})


def random_unimodular_matrix(n: int, rng: random.Random) -> list[list[int]]:
    """Product of 12 random elementary operations on the identity; det = ±1."""
    n = algebra.exact_int(n, "rank n", 1)
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(12):
        kind = rng.randrange(3)
        if n > 1:
            i, j = rng.sample(range(n), 2)
        else:
            i = j = 0
        if kind == 0 and i != j:
            s = rng.choice((1, -1))
            m[i] = [a + s * b for a, b in zip(m[i], m[j])]
        elif kind == 1 and i != j:
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [-a for a in m[i]]
    return m


def _check_shape(factors: Sequence[int]) -> None:
    if not factors or any(not isinstance(k, int) or k < 1 for k in factors):
        raise ValidationError("a product of simplices needs a nonempty shape of "
                              f"positive integer parts, got {tuple(factors)}")


def standard_z_coloring(factors: Sequence[int]) -> Coloring:
    """Standard unitary coloring of Δ^{k1}×⋯×Δ^{kr}: e-basis plus −(Σe) per factor."""
    _check_shape(factors)
    n = sum(factors)
    colors: dict[int, tuple[int, ...]] = {}
    fid = 0
    off = 0
    for k in factors:
        for i in range(k):
            c = [0] * n
            c[off + i] = 1
            colors[fid] = tuple(c)
            fid += 1
        colors[fid] = tuple(-1 if off <= j < off + k else 0 for j in range(n))
        fid += 1
        off += k
    return Coloring("z", colors)


def random_z_coloring(factors: Sequence[int], rng: random.Random) -> Coloring:
    """Random valid Z coloring of a product of simplices.

    Starts from the standard coloring, flips facet signs independently, and
    applies a global unimodular change of coordinates — all three moves
    preserve the det ±1 vertex condition.
    """
    base = standard_z_coloring(factors)
    n = sum(factors)
    u = random_unimodular_matrix(n, rng)
    out = {}
    for f, c in base.map.items():
        if rng.random() < 0.5:
            c = tuple(-x for x in c)
        out[f] = tuple(sum(c[i] * u[i][j] for i in range(n)) for j in range(n))
    return Coloring("z", out)


def product_of_simplices(factors: Sequence[int]) -> SimplePolytope:
    _check_shape(factors)
    p = simplex(factors[0])
    for k in factors[1:]:
        p = product(p, simplex(k))
    return p
