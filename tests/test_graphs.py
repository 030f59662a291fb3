"""Edge-colored 1-skeletons and torus graphs."""

import random

import pytest

from bordismkit import algebra, gf2, intmat, jsonio
from bordismkit.algebra import ExtPolynomial
from bordismkit.errors import ValidationError
from bordismkit.graphs import (ColoredGraph, TorusGraph,
                               graph_coloring_polynomial, graphs_equivalent,
                               one_skeleton, torus_graph_from_pair,
                               torus_polynomial)
from bordismkit.polytopes import (Coloring, product_of_simplices,
                                  random_gf2_coloring, random_z_coloring,
                                  simplex, standard_z_coloring)

RP2_COLORING = Coloring("gf2", {0: (1, 0), 1: (0, 1), 2: (1, 1)})

CP1_POLY = ExtPolynomial(1, {((-1,),): -1, ((1,),): 1})
CP2_POLY = ExtPolynomial(2, {((-1, 0), (-1, 1)): -1,
                             ((0, -1), (1, -1)): 1,
                             ((0, 1), (1, 0)): -1})
CP1XCP1_POLY = ExtPolynomial(2, {((-1, 0), (0, -1)): 1,
                                 ((-1, 0), (0, 1)): -1,
                                 ((0, -1), (1, 0)): 1,
                                 ((0, 1), (1, 0)): -1})


# every shape of rank 1-4
SHAPES = ((1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1),
          (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))


def torus_poly_of(factors):
    p = product_of_simplices(factors)
    g = torus_graph_from_pair(p, standard_z_coloring(factors))
    return torus_polynomial(g)


# -- GF(2) skeletons -------------------------------------------------------


def test_rp2_one_skeleton_edges():
    g = one_skeleton(simplex(2), RP2_COLORING)
    assert g.num_vertices == 3
    assert len(g.alpha) == 3
    g.validate()


def test_skeleton_polynomial_is_dual_of_coloring_polynomial():
    # the polytope polynomial (dual space) dualizes to the skeleton polynomial
    from bordismkit.polytopes import coloring_polynomial
    rng = random.Random(51)
    for shape in ((2,), (1, 1), (3,), (2, 1), (1, 1, 1)):
        p = product_of_simplices(shape)
        for _ in range(10):
            lam = random_gf2_coloring(p, rng)
            skel = graph_coloring_polynomial(one_skeleton(p, lam))
            assert skel == algebra.dual(coloring_polynomial(p, lam))
            assert algebra.in_image(skel)


def test_degree_violation_caught():
    g = ColoredGraph(2, 3, {frozenset((0, 1)): (1, 0),
                            frozenset((1, 2)): (0, 1)})
    with pytest.raises(ValidationError):
        g.validate()


def test_dependent_colors_caught():
    alpha = {frozenset((0, 1)): (1, 0), frozenset((1, 2)): (1, 0),
             frozenset((0, 2)): (0, 1)}
    with pytest.raises(ValidationError,
                       match=r"^\(P1\) fails: edge colors at vertex 1 are not a basis$"):
        ColoredGraph(2, 3, alpha).validate()


def test_graphs_equivalent_is_polynomial_equality():
    g1 = one_skeleton(simplex(2), RP2_COLORING)
    other = Coloring("gf2", {0: (0, 1), 1: (1, 0), 2: (1, 1)})
    g2 = one_skeleton(simplex(2), other)
    assert graphs_equivalent(g1, g2)


# -- torus graphs -----------------------------------------------------------


def test_cp1_torus_polynomial():
    assert torus_poly_of((1,)) == CP1_POLY


def test_cp2_torus_polynomial():
    assert torus_poly_of((2,)) == CP2_POLY


def test_product_torus_polynomial():
    assert torus_poly_of((1, 1)) == CP1XCP1_POLY


def test_torus_polynomials_pass_unitary_membership():
    for factors in ((1,), (2,), (1, 1), (3,), (2, 1)):
        assert algebra.in_image_unitary(torus_poly_of(factors))


def test_torus_graph_axioms_validated():
    # pinning sigma at the smallest vertex keeps sigma(vertex 0) = +1 on
    # standard colorings, so the CP^k signs do not move
    for shape in SHAPES:
        g = torus_graph_from_pair(product_of_simplices(shape),
                                  standard_z_coloring(shape))
        g.validate()
        assert g.sigma is not None
        assert g.sigma[0] == 1


def test_reversal_axiom_enforced():
    alpha = {(0, 1): (1,), (1, 0): (2,)}
    with pytest.raises(ValidationError):
        TorusGraph(1, 2, alpha).validate()


def test_missing_reversal_rejected():
    with pytest.raises(ValidationError):
        TorusGraph(1, 2, {(0, 1): (1,)})


def test_non_unimodular_weights_rejected():
    alpha = {(0, 1): (2,), (1, 0): (-2,)}
    with pytest.raises(ValidationError,
                       match=r"^axiom \(2\) fails: weights at vertex 0 are not a Z-basis$"):
        TorusGraph(1, 2, alpha).validate()
    # a triangle whose weights at vertex 0, (1,1) and (1,-1), span index 2
    alpha = {(0, 1): (1, 1), (1, 0): (1, 1),
             (0, 2): (1, -1), (2, 0): (1, -1),
             (1, 2): (0, 1), (2, 1): (0, 1)}
    with pytest.raises(ValidationError,
                       match=r"^axiom \(2\) fails: weights at vertex 0 are not a Z-basis$"):
        TorusGraph(2, 3, alpha).validate()


def test_valence_axiom_enforced():
    # a single edge at rank 2: both ends have valence 1
    alpha = {(0, 1): (1, 0), (1, 0): (1, 0)}
    with pytest.raises(ValidationError,
                       match=r"^axiom \(2\) fails: vertex 0 has valence 1, expected 2$"):
        TorusGraph(2, 2, alpha).validate()


def test_congruence_axiom_enforced():
    # a triangle whose vertex weights are Z-bases and whose reversals agree
    # up to sign, but along edge 0-1 (weight (1,0)) the other weights are
    # (0,1) at vertex 0 and (1,-1) at vertex 1: (0,1) and (0,-1) mod (1,0)
    alpha = {(0, 1): (1, 0), (1, 0): (1, 0),
             (0, 2): (0, 1), (2, 0): (0, 1),
             (1, 2): (1, -1), (2, 1): (-1, 1)}
    with pytest.raises(ValidationError, match=r"^axiom \(3\) fails along edge 0-1: "
                                              r"no color bijection mod alpha\(e\)$"):
        TorusGraph(2, 3, alpha).validate()


def test_orient_flips_are_global():
    # re-orienting an already-oriented graph reproduces sigma up to nothing:
    # sigma(0) is pinned to +1
    g = torus_graph_from_pair(product_of_simplices((1, 1)),
                              standard_z_coloring((1, 1)))
    again = g.orient()
    assert again.sigma == g.sigma


def test_unoriented_graph_has_no_polynomial():
    g = torus_graph_from_pair(product_of_simplices((1,)),
                              standard_z_coloring((1,)))
    bare = TorusGraph(g.n, g.num_vertices, g.alpha)
    with pytest.raises(ValidationError):
        torus_polynomial(bare)


def test_mod2_of_torus_poly_is_skeleton_poly():
    # reduction compatibility between the two graph flavors
    for factors in ((2,), (1, 1), (2, 1)):
        p = product_of_simplices(factors)
        lam = standard_z_coloring(factors)
        lhs = algebra.mod2_reduce(torus_polynomial(torus_graph_from_pair(p, lam)))
        rhs = graph_coloring_polynomial(one_skeleton(p, lam.mod2()))
        assert lhs == rhs


def test_derived_graphs_satisfy_the_axioms():
    # the builders do not re-validate; a valid pair yields a valid graph
    rng = random.Random(1107)
    for shape in SHAPES:
        p = product_of_simplices(shape)
        for _ in range(3):
            one_skeleton(p, random_gf2_coloring(p, rng)).validate()
            lam = random_z_coloring(shape, rng)
            g = torus_graph_from_pair(p, lam)
            g.validate()
            assert (algebra.mod2_reduce(torus_polynomial(g))
                    == graph_coloring_polynomial(one_skeleton(p, lam.mod2())))


def test_vertex_bases_are_proved_once(monkeypatch):
    # one dual basis per vertex: CP2 x CP1 has 6 vertices
    calls = dict.fromkeys(("det", "dual_basis", "inverse_transpose", "rank"), 0)
    for module, name in ((intmat, "det"), (intmat, "dual_basis"),
                         (gf2, "inverse_transpose"), (gf2, "rank")):
        def counted(*args, _real=getattr(module, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(module, name, counted)
    p, lam = product_of_simplices((2, 1)), standard_z_coloring((2, 1))
    mod2 = lam.mod2()
    torus_graph_from_pair(p, lam)
    assert calls == {"det": 0, "dual_basis": 6, "inverse_transpose": 0, "rank": 0}
    calls.update(dict.fromkeys(calls, 0))
    one_skeleton(p, mod2)
    assert calls == {"det": 0, "dual_basis": 0, "inverse_transpose": 6, "rank": 0}


def test_orientation_survives_a_json_round_trip():
    # sigma is pinned at the vertex the JSON form lists first
    rng = random.Random(2024)
    for shape in SHAPES[1:]:
        p = product_of_simplices(shape)
        for _ in range(8):
            lam = random_z_coloring(shape, rng)
            obj = jsonio.polytope_to_obj(p, lam)
            q, mu = jsonio.polytope_from_obj(jsonio.parse_text(jsonio.canonical_dumps(obj)))
            assert (torus_polynomial(torus_graph_from_pair(q, mu))
                    == torus_polynomial(torus_graph_from_pair(p, lam)))
