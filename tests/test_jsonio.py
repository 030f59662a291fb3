"""Canonical JSON round trips: equal values in, identical bytes out."""

import pytest

from bordismkit import jsonio
from bordismkit.algebra import DUAL, ExtPolynomial, Gf2Polynomial
from bordismkit.bordism import UNITARY, UNORIENTED, BordismClass
from bordismkit.errors import InputFormatError, ValidationError
from bordismkit.graphs import ColoredGraph, TorusGraph, one_skeleton, torus_graph_from_pair
from bordismkit.localization import FixedPointData
from bordismkit.polytopes import (Coloring, product_of_simplices, simplex,
                                  standard_z_coloring)

RP2 = Gf2Polynomial(2, [((0, 1), (1, 0)), ((0, 1), (1, 1)), ((1, 0), (1, 1))])
CP2 = ExtPolynomial(2, {((-1, 0), (-1, 1)): -1, ((0, -1), (1, -1)): 1,
                        ((0, 1), (1, 0)): -1})
RP2_COLORING = Coloring("gf2", {0: (1, 0), 1: (0, 1), 2: (1, 1)})


def roundtrip(obj, from_obj):
    text = jsonio.canonical_dumps(obj)
    value = from_obj(jsonio.parse_text(text))
    return value, text


# -- polynomials ----------------------------------------------------------


def test_gf2_polynomial_roundtrip():
    obj = jsonio.polynomial_to_obj(RP2)
    value, text = roundtrip(obj, jsonio.polynomial_from_obj)
    assert value == RP2
    assert jsonio.canonical_dumps(jsonio.polynomial_to_obj(value)) == text


def test_ext_polynomial_roundtrip():
    for p in (CP2, ExtPolynomial(2), ExtPolynomial(3, {(): 5}, space=DUAL)):
        obj = jsonio.polynomial_to_obj(p)
        value, text = roundtrip(obj, jsonio.polynomial_from_obj)
        assert value == p
        assert jsonio.canonical_dumps(jsonio.polynomial_to_obj(value)) == text


def test_gf2_coefficients_normalize_mod_two():
    base = {"n": 2, "ring": "gf2", "space": "primal"}
    odd = dict(base, terms=[{"chars": [[1, 0]], "coeff": 3}])
    even = dict(base, terms=[{"chars": [[1, 0]], "coeff": 2}])
    neg = dict(base, terms=[{"chars": [[1, 0]], "coeff": -1}])
    want = Gf2Polynomial(2, [((1, 0),)])
    assert jsonio.polynomial_from_obj(odd) == want
    assert jsonio.polynomial_from_obj(neg) == want
    assert jsonio.polynomial_from_obj(even).is_zero()
    # an even coefficient drops its monomial unchecked, a zero character too
    zero = dict(base, terms=[{"chars": [[0, 0]], "coeff": 2}])
    assert jsonio.polynomial_from_obj(zero).is_zero()
    # two odd entries of one monomial, in either character order, cancel
    twice = dict(base, terms=[{"chars": [[0, 1], [1, 0]], "coeff": 1},
                              {"chars": [[1, 0], [0, 1]], "coeff": 3}])
    assert jsonio.polynomial_from_obj(twice).is_zero()


def test_polynomial_structural_errors():
    good = jsonio.polynomial_to_obj(RP2)
    with pytest.raises(InputFormatError):
        jsonio.polynomial_from_obj([])
    for key in ("n", "ring", "space", "terms"):
        broken = {k: v for k, v in good.items() if k != key}
        with pytest.raises(InputFormatError):
            jsonio.polynomial_from_obj(broken)
    with pytest.raises(InputFormatError):
        jsonio.polynomial_from_obj(dict(good, n=True))  # bool is not an int
    with pytest.raises(InputFormatError):
        jsonio.polynomial_from_obj(dict(good, ring="tropical"))
    with pytest.raises(InputFormatError):
        jsonio.polynomial_from_obj(dict(good, terms=[{"chars": [["x"]], "coeff": 1}]))


def test_polynomial_domain_errors_pass_through():
    # structurally fine but mathematically invalid: the constructor speaks
    with pytest.raises(ValidationError):
        jsonio.polynomial_from_obj({"n": 2, "ring": "gf2", "space": "primal",
                                    "terms": [{"chars": [[0, 0]], "coeff": 1}]})
    with pytest.raises(ValidationError):
        jsonio.polynomial_from_obj({"n": 2, "ring": "gf2", "space": "primal",
                                    "terms": [{"chars": [[1, 0], [1, 0]], "coeff": 1}]})


def test_parse_text_rejects_bad_json():
    with pytest.raises(InputFormatError):
        jsonio.parse_text("{")


# -- classes ----------------------------------------------------------------


def test_class_roundtrip_both_flavors():
    for cls in (BordismClass(UNORIENTED, RP2), BordismClass(UNITARY, CP2)):
        obj = jsonio.class_to_obj(cls)
        value, text = roundtrip(obj, jsonio.class_from_obj)
        assert value == cls
        assert jsonio.canonical_dumps(jsonio.class_to_obj(value)) == text


def test_class_object_is_flat():
    # a class document is a polynomial document plus a flavor tag
    obj = jsonio.class_to_obj(BordismClass(UNORIENTED, RP2))
    assert jsonio.polynomial_from_obj(obj) == RP2


def test_class_errors():
    obj = jsonio.class_to_obj(BordismClass(UNORIENTED, RP2))
    with pytest.raises(InputFormatError):
        jsonio.class_from_obj(dict(obj, flavor="oriented"))
    nonmember = dict(obj, terms=[{"chars": [[1, 0], [0, 1]], "coeff": 1}])
    with pytest.raises(ValidationError):
        jsonio.class_from_obj(nonmember)


# -- polytopes ----------------------------------------------------------------


def test_polytope_roundtrip_plain_and_colored():
    p = product_of_simplices((2,))
    for coloring in (None, RP2_COLORING, standard_z_coloring((2,))):
        obj = jsonio.polytope_to_obj(p, coloring)
        (q, c), text = roundtrip(obj, jsonio.polytope_from_obj)
        assert q == p
        assert jsonio.canonical_dumps(jsonio.polytope_to_obj(q, c)) == text
        if coloring is None:
            assert c is None
        else:
            assert c.target == coloring.target
            assert c.map == coloring.map
    obj = jsonio.polytope_to_obj(simplex(3))
    (q, c), _ = roundtrip(obj, jsonio.polytope_from_obj)
    assert q == simplex(3) and c is None


def test_polytope_errors():
    good = jsonio.polytope_to_obj(simplex(2), RP2_COLORING)
    with pytest.raises(InputFormatError):
        jsonio.polytope_from_obj(dict(good, vertices=[[0, "1"]]))
    bad_target = dict(good, coloring=dict(good["coloring"], target="rational"))
    with pytest.raises(InputFormatError):
        jsonio.polytope_from_obj(bad_target)
    bad_key = dict(good, coloring={"target": "gf2", "map": {"a": [1, 0]}})
    with pytest.raises(InputFormatError):
        jsonio.polytope_from_obj(bad_key)
    # a vertex list that is not a simple polytope is a domain error
    broken = dict(good, vertices=[[0], [1]])
    broken.pop("coloring")
    with pytest.raises(ValidationError):
        jsonio.polytope_from_obj(broken)


# -- graphs ---------------------------------------------------------------------


def test_colored_graph_roundtrip():
    g = one_skeleton(product_of_simplices((2,)), RP2_COLORING)
    obj = jsonio.colored_graph_to_obj(g)
    value, text = roundtrip(obj, jsonio.graph_from_obj)
    assert isinstance(value, ColoredGraph)
    assert value.n == g.n and value.alpha == g.alpha
    assert jsonio.canonical_dumps(jsonio.colored_graph_to_obj(value)) == text


def test_torus_graph_roundtrip_with_sigma():
    g = torus_graph_from_pair(product_of_simplices((1, 1)),
                              standard_z_coloring((1, 1)))
    obj = jsonio.torus_graph_to_obj(g)
    value, text = roundtrip(obj, jsonio.graph_from_obj)
    assert isinstance(value, TorusGraph)
    assert value.alpha == g.alpha
    assert tuple(value.sigma) == tuple(g.sigma)
    assert jsonio.canonical_dumps(jsonio.torus_graph_to_obj(value)) == text


def test_torus_graph_roundtrip_without_sigma():
    g = torus_graph_from_pair(product_of_simplices((1,)),
                              standard_z_coloring((1,)))
    unoriented = TorusGraph(g.n, g.num_vertices, g.alpha, None)
    obj = jsonio.torus_graph_to_obj(unoriented)
    assert "sigma" not in obj
    value, text = roundtrip(obj, jsonio.graph_from_obj)
    assert isinstance(value, TorusGraph)
    assert value.sigma is None
    assert jsonio.canonical_dumps(jsonio.torus_graph_to_obj(value)) == text


def test_graph_edge_direction_decides_the_type():
    one_way = {"n": 1, "vertices": 2,
               "edges": [{"u": 0, "v": 1, "alpha": [1]}]}
    assert isinstance(jsonio.graph_from_obj(one_way), ColoredGraph)


def test_graph_errors():
    dup = {"n": 1, "vertices": 2,
           "edges": [{"u": 0, "v": 1, "alpha": [1]},
                     {"u": 0, "v": 1, "alpha": [1]}]}
    with pytest.raises(InputFormatError):
        jsonio.graph_from_obj(dup)
    bad_alpha = {"n": 1, "vertices": 2,
                 "edges": [{"u": 0, "v": 1, "alpha": [True]}]}
    with pytest.raises(InputFormatError):
        jsonio.graph_from_obj(bad_alpha)
    bad_sigma = {"n": 1, "vertices": 2, "sigma": ["+"],
                 "edges": [{"u": 0, "v": 1, "alpha": [1]},
                           {"u": 1, "v": 0, "alpha": [-1]}]}
    with pytest.raises(InputFormatError):
        jsonio.graph_from_obj(bad_sigma)


# -- localization data -------------------------------------------------------------


def test_fixed_point_data_roundtrip():
    for p in (RP2, CP2):
        data = FixedPointData.from_polynomial(p)
        obj = jsonio.fixed_point_data_to_obj(data)
        value, text = roundtrip(obj, jsonio.fixed_point_data_from_obj)
        assert value.flavor == data.flavor
        assert value.points == data.points
        assert jsonio.canonical_dumps(jsonio.fixed_point_data_to_obj(value)) == text


def test_fixed_point_sign_defaults_to_plus_one():
    obj = {"flavor": "gf2", "n": 1, "points": [{"weights": [[1]]}]}
    data = jsonio.fixed_point_data_from_obj(obj)
    assert data.points[0].sign == 1
    with pytest.raises(InputFormatError):
        jsonio.fixed_point_data_from_obj(
            {"flavor": "gf2", "n": 1, "points": [{"weights": [[1]], "sign": True}]})


def test_canonical_dumps_is_deterministic():
    a = jsonio.canonical_dumps({"b": 1, "a": [2, 3]})
    assert a == '{"a":[2,3],"b":1}\n'
