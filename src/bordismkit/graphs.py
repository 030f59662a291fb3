"""Edge-colored graphs over GF(2) and torus graphs over Z.

``ColoredGraph`` carries the GF(2) story: an n-regular graph with nonzero
edge colors satisfying (P1) (incident colors form a basis at every vertex)
and (P2) (the color multisets at the two ends of an edge agree modulo the
edge's own color).  Its coloring polynomial Σ_v Π_{e∋v} α(e) lives in the
primal space and always passes the image test.

``TorusGraph`` is the Z analogue: oriented edges with weights α(e), axioms
α(ē) = ±α(e), vertex bases, and the congruence matching, plus an orientation
σ: V → {±1} with σ(i(e))α(e) = −σ(i(ē))α(ē).  σ is pinned down (up to a
global sign) by propagation from vertex 0; ``torus_graph_from_pair`` fixes
the global sign at the vertex with the smallest sorted facet set, the vertex
the JSON form lists first, so a polytope's torus polynomial does not depend
on the order its vertices come in.

Both graph builders read their edge weights off ``Coloring.vertex_duals``:
at each vertex the weights are the dual basis of the facet colors.  That
one elimination per vertex is also the proof that the pair is valid.  The
graphs it yields satisfy the axioms by construction: a dual basis is a
basis, and along an edge both end weights and the differences of the dual
rows of each shared facet annihilate the n−1 shared colors, so they are
multiples of one primitive vector.  Derived graphs are therefore not
validated again; ``validate`` is for graphs read from outside.  There the
ring's ``_dual_rows`` at each vertex is again the whole proof: it exists
exactly when the colors form a basis, and over Z its row φ for the weight of
an edge (φ·α(e) = 1) reduces both ends' weights modulo α(e) for the congruence
axiom.  A σ read from outside is checked against the orientation relation.

The torus polynomial of an oriented graph is Σ_v σ(v)·(wedge of the vertex
weights written in det-normalized order); on canonical monomials the vertex
term reads σ(v)·δ(W_v)·(sorted wedge) with δ = sign of the sorted weight
determinant, read off the ``_dual_rows`` elimination that proves W_v a
basis.  For every graph arising from a Z-colored polytope pair the result
satisfies the unitary image criterion — the per-edge cancellation in d(g*)
is exactly the orientation relation.
"""

from __future__ import annotations

import operator
from typing import Iterator, Mapping, Sequence

from . import algebra, gf2
from .algebra import Char, ExtPolynomial, Gf2Polynomial
from .errors import ValidationError
from .polytopes import Coloring, SimplePolytope

# per vertex: its out-edges, their weights W_v, and the hook's (dual rows, det W_v)
VertexBasis = tuple[list[tuple[int, int]], list[Char], tuple[list[Char], int]]


def _vertex_count(num_vertices: int) -> int:
    num_vertices = int(num_vertices)
    if num_vertices < 0:
        raise ValidationError(f"vertex count must be nonnegative, got {num_vertices}")
    return num_vertices


def _rank(n: int) -> int:
    """The rank, checked before anything is sized by the vertex count: at
    n = 0 every vertex has the right degree, so all of them would be walked."""
    n = int(n)
    if n < 1:
        raise ValidationError("rank n must be at least 1")
    return n


def _first_wrong_degree(degrees: Mapping[int, int], num_vertices: int, n: int) -> int | None:
    """The first vertex whose degree is not n, from the degrees of the
    vertices that have edges: its cost follows the edges, not the vertex
    count.  A vertex without edges has degree 0, and the first of those is
    among the first len(degrees) + 1."""
    bad = [v for v, d in degrees.items() if d != n]
    isolated = next(v for v in range(len(degrees) + 1) if v not in degrees)
    if isolated < num_vertices:
        bad.append(isolated)
    return min(bad, default=None)


class ColoredGraph:
    """Undirected graph with nonzero GF(2)^n edge colors."""

    __slots__ = ("n", "num_vertices", "alpha")

    def __init__(self, n: int, num_vertices: int,
                 alpha: Mapping[frozenset[int], Sequence[int]]):
        self.n = _rank(n)
        self.num_vertices = _vertex_count(num_vertices)
        self.alpha: dict[frozenset[int], Char] = {}
        for e, c in alpha.items():
            e = frozenset(int(v) for v in e)
            if len(e) != 2:
                raise ValidationError(f"edge {sorted(e)} must join two distinct vertices")
            if any(v < 0 or v >= num_vertices for v in e):
                raise ValidationError(f"edge {sorted(e)} references an unknown vertex")
            self.alpha[e] = Gf2Polynomial._check_char(tuple(c), self.n)

    def validate(self) -> None:
        """Check n-regularity and properties (P1), (P2)."""
        self._vertex_colors()

    def _vertex_colors(self) -> list[list[Char]]:
        """Each vertex's incident colors in neighbor order, once (P1) and
        (P2) hold; raises at the first failure."""
        nbrs: dict[int, list[tuple[int, Char]]] = {}
        for e, c in self.alpha.items():
            u, v = e
            nbrs.setdefault(u, []).append((v, c))
            nbrs.setdefault(v, []).append((u, c))
        bad = _first_wrong_degree({v: len(row) for v, row in nbrs.items()},
                                  self.num_vertices, self.n)
        # only the vertices before the first bad one are walked
        colors = [[c for _, c in sorted(nbrs.get(v, ()))]
                  for v in range(self.num_vertices if bad is None else bad)]
        packed = []
        for v, cs in enumerate(colors):
            if Gf2Polynomial._dual_rows(cs, self.n) is None:
                raise ValidationError(
                    f"(P1) fails: edge colors at vertex {v} are not a basis")
            packed.append([gf2.pack(c) for c in cs])
        if bad is not None:
            raise ValidationError(f"(P1) fails: vertex {bad} has degree "
                                  f"{len(nbrs.get(bad, ()))}, expected {self.n}")
        for e, c in self.alpha.items():
            u, v = sorted(e)
            a = gf2.pack(c)
            left = sorted(min(x, x ^ a) for x in packed[u])
            right = sorted(min(x, x ^ a) for x in packed[v])
            if left != right:
                raise ValidationError(
                    f"(P2) fails along edge {u}-{v}: color multisets differ mod alpha(e)")
        return colors

    def coloring_polynomial(self) -> Gf2Polynomial:
        monos = [tuple(cs) for cs in self._vertex_colors()]
        return Gf2Polynomial(self.n, monos, space=algebra.PRIMAL)


def graph_coloring_polynomial(graph: ColoredGraph) -> Gf2Polynomial:
    """Σ over vertices of the product of incident edge colors (primal space)."""
    return graph.coloring_polynomial()


def graphs_equivalent(g1: ColoredGraph, g2: ColoredGraph) -> bool:
    """Bordism equivalence: equality of coloring polynomials."""
    if g1.n != g2.n:
        raise ValidationError("graphs live in different ranks")
    return g1.coloring_polynomial() == g2.coloring_polynomial()


def one_skeleton(p: SimplePolytope, coloring: Coloring) -> ColoredGraph:
    """Edge-colored 1-skeleton of a GF(2)-colored polytope.

    The color of an edge is the vertex-basis element dual to the facet not
    containing it — the unique nonzero vector pairing to zero with the n−1
    facet colors along the edge, hence independent of the chosen endpoint.
    """
    if coloring.target != "gf2":
        raise ValidationError("one_skeleton expects a GF(2) coloring")
    alpha = {frozenset(e): a for e, a in _edge_weights(p, coloring).items()
             if e[0] < e[1]}
    return ColoredGraph(p.dim, len(p.vertices), alpha)


def _edge_weights(p: SimplePolytope, coloring: Coloring) -> dict[tuple[int, int], Char]:
    """α(i, j) for both orientations of every edge: i's dual row for the
    facet at i that j does not share.  Raises unless the pair is valid."""
    duals = coloring.vertex_duals(p)
    alpha: dict[tuple[int, int], Char] = {}
    for i, j in p.edges():
        shared = p.vertices[i] & p.vertices[j]
        alpha[(i, j)] = duals[i][next(iter(p.vertices[i] - shared))]
        alpha[(j, i)] = duals[j][next(iter(p.vertices[j] - shared))]
    return alpha


# ---------------------------------------------------------------------------
# torus graphs


class TorusGraph:
    """Oriented-edge graph with Z^n weights and optional orientation σ."""

    __slots__ = ("n", "num_vertices", "alpha", "sigma")

    def __init__(self, n: int, num_vertices: int,
                 alpha: Mapping[tuple[int, int], Sequence[int]],
                 sigma: Sequence[int] | None = None):
        self.n = _rank(n)
        self.num_vertices = _vertex_count(num_vertices)
        self.alpha: dict[tuple[int, int], Char] = {}
        for (u, v), c in alpha.items():
            u, v = int(u), int(v)
            if u == v or min(u, v) < 0 or max(u, v) >= num_vertices:
                raise ValidationError(f"bad oriented edge ({u},{v})")
            self.alpha[(u, v)] = ExtPolynomial._check_char(tuple(c), self.n)
        for (u, v) in list(self.alpha):
            if (v, u) not in self.alpha:
                raise ValidationError(f"edge ({u},{v}) is missing its reversal")
        self.sigma = None if sigma is None else [algebra.exact_int(s, "sigma") for s in sigma]
        if self.sigma is not None:
            if len(self.sigma) != num_vertices or any(s not in (1, -1) for s in self.sigma):
                raise ValidationError("sigma must assign ±1 to every vertex")

    def _out_edges(self) -> dict[int, list[tuple[int, int]]]:
        """The sorted out-edges of every vertex that has some."""
        out: dict[int, list[tuple[int, int]]] = {}
        for e in sorted(self.alpha):
            out.setdefault(e[0], []).append(e)
        return out

    def _vertex_bases(self) -> Iterator[VertexBasis]:
        """Per vertex: its out-edges, their weights W_v, and the hook's
        (dual rows, det W_v); raises at the first vertex failing axiom (2)."""
        out = self._out_edges()
        bad = _first_wrong_degree({v: len(edges) for v, edges in out.items()},
                                  self.num_vertices, self.n)
        # only the vertices before the first bad one are walked
        for v in range(self.num_vertices if bad is None else bad):
            edges = out.get(v, [])
            rows = [self.alpha[e] for e in edges]
            found = ExtPolynomial._dual_rows(rows, self.n)
            if found is None:
                raise ValidationError(
                    f"axiom (2) fails: weights at vertex {v} are not a Z-basis")
            yield edges, rows, found
        if bad is not None:
            raise ValidationError(f"axiom (2) fails: vertex {bad} has valence "
                                  f"{len(out.get(bad, ()))}, expected {self.n}")

    def validate(self) -> None:
        """Torus graph axioms: reversal signs, vertex bases, congruence
        matching, and the orientation relation when σ is set.

        The dual basis of each vertex's weights is the basis proof, and its
        row φ for α(u, v) (φ·α(u, v) = 1) gives the canonical representatives
        x − φ(x)·α(u, v) of the weights in Z^n / Z·α(u, v) that congruence
        compares.  σ is checked here because graphs read from outside carry
        it; derived graphs satisfy the relation by construction.
        """
        for (u, v), a in self.alpha.items():
            back = self.alpha[(v, u)]
            if back != a and back != tuple(-x for x in a):
                raise ValidationError(
                    f"axiom (1) fails: alpha({v},{u}) is not ±alpha({u},{v})")
        bases = list(self._vertex_bases())
        weights = [rows for _, rows, _ in bases]
        duals = [{w: phi for (_, w), phi in zip(edges, dual)} for edges, _, (dual, _) in bases]

        def residues(xs: list[Char], a: Char, phi: Char) -> list[Char]:
            out = []
            for x in xs:
                k = sum(map(operator.mul, phi, x))
                out.append(tuple(xi - k * ai for xi, ai in zip(x, a)))
            return sorted(out)

        for (u, v), a in self.alpha.items():
            if u > v:
                continue
            phi = duals[u][v]
            if residues(weights[u], a, phi) != residues(weights[v], a, phi):
                raise ValidationError(
                    f"axiom (3) fails along edge {u}-{v}: no color bijection mod alpha(e)")
        if self.sigma is None:
            return
        for (u, v), a in self.alpha.items():
            su, sv = self.sigma[u], self.sigma[v]
            if u < v and [su * x for x in a] != [-sv * x for x in self.alpha[(v, u)]]:
                raise ValidationError(
                    f"orientation fails along edge {u}-{v}: "
                    f"sigma({u})alpha({u},{v}) is not -sigma({v})alpha({v},{u})")

    def orient(self) -> "TorusGraph":
        """Compute σ by constraint propagation, σ(vertex 0) = +1.

        The relation σ(i(e))α(e) = −σ(i(ē))α(ē) fixes σ up to a global sign;
        inconsistency on some cycle means the axial data is non-orientable.
        """
        out = self._out_edges()
        sigma: dict[int, int] = {0: 1}
        stack = [0]
        while stack:
            u = stack.pop()
            for (_, v) in out.get(u, ()):
                a, back = self.alpha[(u, v)], self.alpha[(v, u)]
                eps = 1 if back == a else -1
                want = -eps * sigma[u]
                if v in sigma:
                    if sigma[v] != want:
                        raise ValidationError("non-orientable axial data")
                else:
                    sigma[v] = want
                    stack.append(v)
        if len(sigma) != self.num_vertices:
            raise ValidationError("torus graph is not connected")
        # the weights passed the constructor's checks already
        oriented = TorusGraph.__new__(TorusGraph)
        oriented.n, oriented.num_vertices = self.n, self.num_vertices
        oriented.alpha = dict(self.alpha)
        oriented.sigma = [sigma[v] for v in range(self.num_vertices)]
        return oriented


def torus_graph_from_pair(p: SimplePolytope, coloring: Coloring) -> TorusGraph:
    """Oriented torus graph of a Z-colored pair: weights are dual-basis rows
    per vertex, and σ = +1 at the vertex with the smallest sorted facet set."""
    if coloring.target != "z":
        raise ValidationError("torus_graph_from_pair expects a Z coloring")
    graph = TorusGraph(p.dim, len(p.vertices), _edge_weights(p, coloring)).orient()
    first = min(range(len(p.vertices)), key=lambda v: sorted(p.vertices[v]))
    if graph.sigma[first] < 0:
        graph.sigma = [-s for s in graph.sigma]
    return graph


def torus_polynomial(graph: TorusGraph) -> ExtPolynomial:
    """Σ_v σ(v)·(vertex weight wedge in det-normalized order), primal space."""
    if graph.sigma is None:
        raise ValidationError("torus graph is not oriented; call orient() first")
    terms = [(rows, s * det)
             for s, (_, rows, (_, det)) in zip(graph.sigma, graph._vertex_bases())]
    # sorting W_v in the constructor turns det W_v into δ(W_v)
    return ExtPolynomial(graph.n, terms, space=algebra.PRIMAL)
