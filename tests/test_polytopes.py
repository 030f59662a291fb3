"""Simple polytopes, colorings, products, and connected sums."""

import hashlib
import itertools
import random
import re

import elimination_oracles
import pytest

from bordismkit.algebra import DUAL
from bordismkit.errors import ValidationError
from bordismkit.mvpoly import partitions
from bordismkit.polytopes import (Coloring, SimplePolytope, coloring_polynomial,
                                  connected_sum, product, product_of_simplices,
                                  random_gf2_coloring, random_unimodular_matrix,
                                  random_z_coloring, simplex, standard_z_coloring)

RP2_COLORING = Coloring("gf2", {0: (1, 0), 1: (0, 1), 2: (1, 1)})


def test_simplex_combinatorics():
    for k in (1, 2, 3, 4):
        p = simplex(k)
        assert p.dim == k
        assert p.num_facets == k + 1
        assert len(p.vertices) == k + 1


def test_product_combinatorics():
    p = product(simplex(1), simplex(2))
    assert p.dim == 3
    assert p.num_facets == 5
    assert len(p.vertices) == 2 * 3


def test_product_of_simplices_shapes():
    cube = product_of_simplices((1, 1, 1))
    assert (cube.dim, cube.num_facets, len(cube.vertices)) == (3, 6, 8)
    p = product_of_simplices((2, 1))
    assert (p.dim, p.num_facets, len(p.vertices)) == (3, 5, 6)


def test_edges_are_the_pairs_on_a_common_ridge():
    # in lex order of (i, j), i < j: the order graph edge weights and
    # sigma pinning read
    for n in range(1, 5):
        for shape in partitions(n):
            p = product_of_simplices(shape)
            verts = p.vertices
            adjacent = [[j for j, w in enumerate(verts) if len(v & w) == n - 1]
                        for v in verts]
            edges = p.edges()
            assert edges == [(i, j) for i, j in itertools.combinations(
                range(len(verts)), 2) if j in adjacent[i]], shape
            # each vertex's neighbors, read back from the edges, are the
            # vertices sharing n - 1 facets with it, n of them
            assert [sorted({j for e in edges if i in e for j in e} - {i})
                    for i in range(len(verts))] == adjacent, shape
            assert all(len(nb) == n for nb in adjacent), shape


@pytest.mark.parametrize("n,m,vertices,message", [
    (1, 3, [[0], [1], [2]], "a facet (n-1)-set lies on more than two vertices"),
    (2, 4, [[0, 1], [1, 2], [2, 3]], "edge graph is not n-regular"),
    (2, 6, [[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]], "edge graph is not connected"),
])
def test_edge_graph_rejections(n, m, vertices, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        SimplePolytope(n, m, vertices)


def test_non_simple_rejected():
    # a square facet-set where one vertex only meets one facet
    with pytest.raises(ValidationError):
        SimplePolytope(2, 3, [(0, 1), (1, 2), (0,)])


@pytest.mark.parametrize("m", [3, 10**8, 10**30])
def test_a_facet_with_no_vertex_is_rejected(m):
    # checked before anything is sized by the facet count, so a huge m is
    # refused at once
    with pytest.raises(ValidationError, match=r"^no vertex lies on facet 2$"):
        SimplePolytope(1, m, [[0], [1]])


def test_connected_sum_of_tetrahedra():
    p = simplex(3)
    v1, v2 = p.vertices[0], p.vertices[-1]
    pairing = dict(zip(sorted(v1), sorted(v2)))
    s = connected_sum(p, v1, p, v2, pairing)
    assert s.dim == 3
    assert s.num_facets == 5
    assert len(s.vertices) == 2 * 4 - 2


def test_connected_sum_validates_pairing():
    p = simplex(2)
    with pytest.raises(ValidationError):
        connected_sum(p, p.vertices[0], p, p.vertices[1], {0: 0})


def test_coloring_requires_basis_at_each_vertex():
    with pytest.raises(ValidationError,
                       match=r"^facet colors do not form a basis at vertices \[2\]$"):
        coloring_polynomial(simplex(2),
                            Coloring("gf2", {0: (1, 0), 1: (1, 0), 2: (0, 1)}))


def test_coloring_rejections_come_in_order():
    # facet cover, then characters, then every vertex without a basis; the
    # graph builders raise what validate raises
    from bordismkit.graphs import one_skeleton, torus_graph_from_pair
    cases = [
        ("gf2", {0: (1, 0), 1: (1, 0)},
         "coloring must cover every facet exactly once"),
        ("z", {0: (0, 0), 1: (0, 1), 3: (1, 1)},
         "coloring must cover every facet exactly once"),
        ("gf2", {0: (2, 0), 1: (1, 0), 2: (1, 0)},
         "GF(2) character (2, 0) has entries outside {0,1}"),
        ("z", {0: (1, 0), 1: (1, 0), 2: (0, 0)}, "zero character is not allowed"),
        ("z", {0: (1, 0), 1: (1, 0), 2: (1, 1, 1)},
         "character (1, 1, 1) does not have length 2"),
        ("gf2", {0: (1, 0), 1: (1, 0), 2: (1, 0)},
         "facet colors do not form a basis at vertices [0, 1, 2]"),
        ("z", {0: (1, 0), 1: (0, 1), 2: (1, 0)},
         "facet colors do not form a basis at vertices [1]"),
        ("z", {0: (1, 0), 1: (0, 1), 2: (2, 2)},
         "facet colors do not form a basis at vertices [0, 1]"),
    ]
    p = simplex(2)
    for target, colors, message in cases:
        lam = Coloring(target, colors)
        build = one_skeleton if target == "gf2" else torus_graph_from_pair
        for run in (lam.validate, lambda q: build(q, lam)):
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                run(p)


def test_rp2_coloring_polynomial():
    p = coloring_polynomial(simplex(2), RP2_COLORING)
    assert p.space == DUAL
    assert p.monomials == {((0, 1), (1, 0)), ((0, 1), (1, 1)), ((1, 0), (1, 1))}


def test_all_gf2_colorings_of_triangle():
    # three distinct nonzero colors, any order: 3! of them
    colorings = elimination_oracles.gf2_colorings(simplex(2))
    assert len(colorings) == 6
    polys = {coloring_polynomial(simplex(2), c) for c in colorings}
    assert len(polys) == 1  # all give the same polynomial


def test_coloring_counts_for_cubes():
    # opposite facets may share colors, so these exceed the injective counts
    assert len(elimination_oracles.gf2_colorings(product_of_simplices((1, 1)))) == 18
    assert len(elimination_oracles.gf2_colorings(product_of_simplices((1, 1, 1)))) == 4200


def test_random_gf2_coloring_is_valid():
    rng = random.Random(3)
    for shape in ((2,), (1, 1), (2, 1), (1, 1, 1)):
        p = product_of_simplices(shape)
        lam = random_gf2_coloring(p, rng)
        coloring_polynomial(p, lam)  # validates


def test_random_gf2_coloring_reaches_every_coloring():
    # g.c over a uniform g reaches every coloring of every orbit
    for p, count in ((simplex(2), 6), (product_of_simplices((1, 1)), 18)):
        want = {tuple(sorted(c.map.items())) for c in elimination_oracles.gf2_colorings(p)}
        assert len(want) == count
        drawn = set()
        for seed in range(200):
            lam = random_gf2_coloring(p, random.Random(seed))
            lam.validate(p)
            drawn.add(tuple(sorted(lam.map.items())))
        assert drawn == want


# sha256 over shapes (2,), (1,1), (3,), (1,2), (1,1,1), (2,2), (4,) and seeds
# 0-29 of repr(sorted(map.items())) of each seeded random_gf2_coloring: the
# shuffled orbit walk and the columns of g draw from the rng in one fixed
# order, so the colorings that ``verify`` and the benchmark's inputs draw from
# a seed stay put
RANDOM_GF2_DIGEST = "d74c494245083fedc75f753475be416742834863cbae0cb98a1416f88bf13c35"


def test_random_gf2_coloring_draws_in_a_fixed_order():
    assert random_gf2_coloring(simplex(2), random.Random(0)).map == {
        0: (0, 1), 1: (1, 1), 2: (1, 0)}
    assert random_gf2_coloring(product_of_simplices((1, 2)), random.Random(3)).map == {
        0: (1, 1, 1), 1: (1, 0, 1), 2: (0, 1, 1), 3: (0, 1, 0), 4: (0, 0, 1)}
    h = hashlib.sha256()
    for shape in ((2,), (1, 1), (3,), (1, 2), (1, 1, 1), (2, 2), (4,)):
        p = product_of_simplices(shape)
        for seed in range(30):
            lam = random_gf2_coloring(p, random.Random(seed))
            h.update(repr(sorted(lam.map.items())).encode())
    assert h.hexdigest() == RANDOM_GF2_DIGEST


@pytest.mark.parametrize("shape", [(), (0,), (2, -1), (1.5,), ("2",)])
def test_a_product_of_simplices_needs_positive_integer_parts(shape):
    message = ("a product of simplices needs a nonempty shape of positive "
               f"integer parts, got {shape}")
    for build in (product_of_simplices, standard_z_coloring,
                  lambda s: random_z_coloring(s, random.Random(0))):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            build(shape)


def test_standard_z_coloring_cp2():
    lam = standard_z_coloring((2,))
    assert lam.target == "z"
    assert lam.map == {0: (1, 0), 1: (0, 1), 2: (-1, -1)}


def test_random_z_coloring_valid_and_varied():
    from bordismkit.graphs import torus_graph_from_pair
    rng = random.Random(5)
    seen = set()
    for _ in range(10):
        lam = random_z_coloring((2,), rng)
        torus_graph_from_pair(product_of_simplices((2,)), lam)  # validates
        seen.add(tuple(sorted(lam.map.items())))
    assert len(seen) > 1


def test_random_unimodular_matrix_is_unimodular():
    rng = random.Random(9)
    for _ in range(200):
        n = rng.randint(1, 4)
        rows = random_unimodular_matrix(n, rng)
        assert abs(_det(rows)) == 1


@pytest.mark.parametrize("n", [0, -1])
def test_random_unimodular_matrix_needs_rank_at_least_one(n):
    # the refusal comes before the first draw; rank 0 used to raise IndexError
    rng = random.Random(0)
    with pytest.raises(ValidationError, match="^rank n must be at least 1$"):
        random_unimodular_matrix(n, rng)
    assert rng.getstate() == random.Random(0).getstate()


def _det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * _det(minor)
    return total


def test_coloring_mod2():
    lam = standard_z_coloring((2,)).mod2()
    assert lam.target == "gf2"
    assert lam.map == {0: (1, 0), 1: (0, 1), 2: (1, 1)}
