"""Edge-colored 1-skeletons and torus graphs."""

import random
from collections import Counter

import elimination_oracles
import pytest

from bordismkit import algebra, gf2, jsonio
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


def cube_skeleton_obj():
    p = product_of_simplices((1, 1, 1))
    return jsonio.colored_graph_to_obj(
        one_skeleton(p, standard_z_coloring((1, 1, 1)).mod2()))


def test_decoded_graph_messages_are_exact():
    # edges come in sorted order: 0-1, 0-2, 0-4, 1-3, ..., 6-7
    obj = cube_skeleton_obj()
    jsonio.graph_from_obj(obj).validate()
    cases = []
    short = cube_skeleton_obj()
    del short["edges"][0]
    cases.append((short, "(P1) fails: vertex 0 has degree 2, expected 3"))
    dependent = cube_skeleton_obj()
    dependent["edges"][0]["alpha"] = [0, 1, 0]
    cases.append((dependent, "(P1) fails: edge colors at vertex 0 are not a basis"))
    mismatched = cube_skeleton_obj()
    mismatched["edges"][11]["alpha"] = [1, 1, 1]
    cases.append((mismatched, "(P2) fails along edge 2-6: "
                              "color multisets differ mod alpha(e)"))
    for bad, message in cases:
        g = jsonio.graph_from_obj(bad)
        assert isinstance(g, ColoredGraph)
        for run in (g.validate, g.coloring_polynomial):
            with pytest.raises(ValidationError) as exc:
                run()
            assert str(exc.value) == message


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


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("graph", [ColoredGraph, TorusGraph])
def test_graphs_need_rank_at_least_one(graph, n):
    # checked before the vertex count sizes anything (it was walked at n = 0)
    with pytest.raises(ValidationError, match=f"^rank n must be at least 1, got {n}$"):
        graph(n, 10**30, {})


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


def test_orientation_relation_enforced():
    g = torus_graph_from_pair(product_of_simplices((2,)), standard_z_coloring((2,)))
    obj = jsonio.torus_graph_to_obj(g)
    obj["sigma"] = [1, -1, 1]
    bad = jsonio.graph_from_obj(obj)
    with pytest.raises(ValidationError,
                       match=r"^orientation fails along edge 0-1: "
                             r"sigma\(0\)alpha\(0,1\) is not -sigma\(1\)alpha\(1,0\)$"):
        bad.validate()
    # a global flip keeps the relation
    TorusGraph(g.n, g.num_vertices, g.alpha, [-s for s in g.sigma]).validate()


def oracle_message(g):
    """The first failing axiom of g, with the congruence functional from the
    extended-Euclid oracle, the basis test by determinant, and σ checked by
    the rule ``orient`` propagates; None if g passes."""
    for (u, v), a in g.alpha.items():
        back = g.alpha[(v, u)]
        if back != a and back != tuple(-x for x in a):
            return f"axiom (1) fails: alpha({v},{u}) is not ±alpha({u},{v})"
    weights = []
    for v in range(g.num_vertices):
        rows = [g.alpha[(v, w)] for w in range(g.num_vertices) if (v, w) in g.alpha]
        if len(rows) != g.n:
            return f"axiom (2) fails: vertex {v} has valence {len(rows)}, expected {g.n}"
        if not elimination_oracles.is_faithful_monomial_z(rows, g.n):
            return f"axiom (2) fails: weights at vertex {v} are not a Z-basis"
        weights.append(rows)
    for (u, v), a in g.alpha.items():
        if u > v:
            continue
        phi = elimination_oracles.integral_functional(a)

        def residues(xs):
            return sorted(tuple(xi - sum(f * y for f, y in zip(phi, x)) * ai
                                for xi, ai in zip(x, a)) for x in xs)

        if residues(weights[u]) != residues(weights[v]):
            return f"axiom (3) fails along edge {u}-{v}: no color bijection mod alpha(e)"
    if g.sigma is not None:
        for (u, v), a in g.alpha.items():
            eps = 1 if g.alpha[(v, u)] == a else -1
            if u < v and g.sigma[v] != -eps * g.sigma[u]:
                return (f"orientation fails along edge {u}-{v}: "
                        f"sigma({u})alpha({u},{v}) is not -sigma({v})alpha({v},{u})")
    return None


def corrupt(g, rng):
    """A copy of g with one corruption: a weight shifted or scaled (at one
    end, or at both ends keeping the reversal sign), the out-weights of two
    edges at a vertex swapped (their reversals following), or σ flipped at
    one vertex."""
    alpha, sigma = dict(g.alpha), list(g.sigma)
    kind = rng.choice(("shift", "scale", "swap", "sigma") if g.n > 1
                      else ("shift", "scale", "sigma"))
    u, v = rng.choice(sorted(alpha))

    def put(u, v, a, both):
        sign = 1 if alpha[(v, u)] == alpha[(u, v)] else -1
        alpha[(u, v)] = a
        if both:
            alpha[(v, u)] = tuple(sign * x for x in a)

    if kind == "shift":
        a = list(alpha[(u, v)])
        a[rng.randrange(g.n)] += rng.choice((-2, -1, 1, 2))
        if not any(a):
            a[0] += 1
        put(u, v, tuple(a), rng.random() < 0.7)
    elif kind == "scale":
        put(u, v, tuple(rng.choice((-2, 2, 3)) * x for x in alpha[(u, v)]),
            rng.random() < 0.7)
    elif kind == "swap":
        w = rng.choice([e[1] for e in alpha if e[0] == u and e[1] != v])
        a, b = alpha[(u, v)], alpha[(u, w)]
        put(u, v, b, True)
        put(u, w, a, True)
    else:
        x = rng.randrange(g.num_vertices)
        sigma[x] = -sigma[x]
    return kind, TorusGraph(g.n, g.num_vertices, alpha, sigma)


def test_validate_matches_the_congruence_oracle_on_corrupted_graphs():
    rng = random.Random(1212)
    seen = Counter()
    for shape in SHAPES:
        p = product_of_simplices(shape)
        for _ in range(55):
            kind, bad = corrupt(torus_graph_from_pair(p, random_z_coloring(shape, rng)), rng)
            want = oracle_message(bad)
            try:
                bad.validate()
                got = None
            except ValidationError as exc:
                got = str(exc)
            assert got == want, (shape, kind, bad.alpha, bad.sigma)
            seen[kind, want and want.split(" fails")[0]] += 1
    heads = {head for _, head in seen}
    assert {"axiom (1)", "axiom (2)", "axiom (3)", "orientation"} <= heads
    # a flipped σ breaks only the orientation relation
    assert {head for kind, head in seen if kind == "sigma"} == {"orientation"}
    assert sum(seen.values()) == 55 * len(SHAPES)


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


def test_a_vertex_that_is_not_a_basis_has_no_polynomial_term():
    # weight ±3 spans index 3 in Z; the sign of a vertex term comes from the
    # basis proof, so an unvalidated graph cannot slip a non-basis through
    g = TorusGraph(1, 2, {(0, 1): (3,), (1, 0): (-3,)}, sigma=[1, 1])
    with pytest.raises(ValidationError,
                       match=r"axiom \(2\) fails: weights at vertex 0 are not a Z-basis"):
        torus_polynomial(g)


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


def test_vertex_bases_are_proved_once(monkeypatch, dual_basis_calls):
    # one dual basis per vertex basis up to row order and duality: CP2 x CP1
    # has 6 vertices; ``dual_basis`` is counted by modulus, 0 over Z and 2
    # over GF(2), and the hook's memo of proofs starts empty
    # no library module takes a determinant at all (tests/test_package.py)
    span_calls = [0]

    def counted_span(*args, _real=gf2.span):
        span_calls[0] += 1
        return _real(*args)
    monkeypatch.setattr(gf2, "span", counted_span)

    def calls():
        out = {"dual_basis": dual_basis_calls[0], "dual_basis mod 2": dual_basis_calls[2],
               "span": span_calls[0]}
        dual_basis_calls.clear()
        span_calls[0] = 0
        return out

    p, lam = product_of_simplices((2, 1)), standard_z_coloring((2, 1))
    mod2 = lam.mod2()
    calls()
    torus = torus_graph_from_pair(p, lam)
    assert calls() == {"dual_basis": 6, "dual_basis mod 2": 0, "span": 0}
    # the six mod-2 color bases are three sets, two vertices each, and
    # {e3, e2, e1+e2} has the dual {e3, e1+e2, e1}: two eliminations
    skeleton = one_skeleton(p, mod2)
    assert calls() == {"dual_basis": 0, "dual_basis mod 2": 2, "span": 0}
    # validation proves the vertex bases again, each the dual of a facet
    # basis already proved, so the memo answers it; its dual rows give the
    # congruence functionals
    torus.validate()
    assert calls() == {"dual_basis": 0, "dual_basis mod 2": 0, "span": 0}
    skeleton.validate()
    assert calls() == {"dual_basis": 0, "dual_basis mod 2": 0, "span": 0}
    # the sign δ(W_v) of each vertex term comes from the elimination that
    # proves W_v a basis, not from a determinant
    torus_polynomial(torus)
    assert calls() == {"dual_basis": 0, "dual_basis mod 2": 0, "span": 0}
    # with the memo emptied, each step proves its bases itself
    for step, want in ((torus.validate, (6, 0)), (skeleton.validate, (0, 2)),
                       (lambda: torus_polynomial(torus), (6, 0))):
        algebra._PROOFS.clear()
        step()
        assert calls() == {"dual_basis": want[0], "dual_basis mod 2": want[1], "span": 0}


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
