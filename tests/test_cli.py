"""End-to-end command-line checks through real subprocesses."""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

from bordismkit import bott, jsonio, kernels
from bordismkit.algebra import ExtPolynomial, Gf2Polynomial, dual
from bordismkit.bordism import UNITARY, UNORIENTED, BordismClass
from bordismkit.errors import ValidationError
from bordismkit.graphs import one_skeleton, torus_graph_from_pair, torus_polynomial
from bordismkit.polytopes import (Coloring, coloring_polynomial,
                                  product_of_simplices, standard_z_coloring)

RP2 = Gf2Polynomial(2, [((0, 1), (1, 0)), ((0, 1), (1, 1)), ((1, 0), (1, 1))])
CP1 = ExtPolynomial(1, {((-1,),): -1, ((1,),): 1})
CP2 = ExtPolynomial(2, {((-1, 0), (-1, 1)): -1, ((0, -1), (1, -1)): 1,
                        ((0, 1), (1, 0)): -1})
RP2_COLORING = Coloring("gf2", {0: (1, 0), 1: (0, 1), 2: (1, 1)})

SINGLE_MONOMIAL = ('{"n":2,"ring":"gf2","space":"primal",'
                   '"terms":[{"chars":[[0,1],[1,0]],"coeff":1}]}')


def run_cli(*argv, stdin=None, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "bordismkit.cli", *argv],
        capture_output=True, text=True, input=stdin, timeout=timeout)


def dumps(obj):
    return jsonio.canonical_dumps(obj)


# -- exit codes and exact bytes ------------------------------------------


def test_dim_exact_output():
    r = run_cli("dim", "--n", "3")
    assert r.returncode == 0
    assert r.stdout == '{"dim":13}\n'


def test_dim_with_window():
    r = run_cli("dim", "--n", "2", "--weight-bound", "1")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out == {"dim": 1, "weight_bound": 1, "window_dim": 13}


def test_dim_over_cap_is_a_domain_error():
    r = run_cli("dim", "--n", "99")
    assert r.returncode == 1
    err = json.loads(r.stdout)["error"]
    assert err["code"] == "resource-limit"


def test_dim_far_over_cap_reports_the_cap():
    # the matrix size is given as a log10 bound, so no huge integer is printed
    r = run_cli("dim", "--n", "200")
    assert r.returncode == 1
    assert "Traceback" not in r.stderr
    err = json.loads(r.stdout)["error"]
    assert err["code"] == "resource-limit"
    assert "BORDISMKIT_MAX_N=200" in err["message"]
    assert "10^11665.8 x 10^11608.2 matrix" in err["message"]


def test_a_negative_rank_cap_in_the_environment_is_a_domain_error():
    r = subprocess.run([sys.executable, "-m", "bordismkit.cli", "dim", "--n", "1"],
                       capture_output=True, text=True,
                       env={**os.environ, "BORDISMKIT_MAX_N": "-1"})
    assert r.returncode == 1
    assert json.loads(r.stdout)["error"] == {
        "code": "validation-error",
        "message": "BORDISMKIT_MAX_N must be at least 0, got -1"}


def test_check_single_monomial_exact_output():
    r = run_cli("check", SINGLE_MONOMIAL)
    assert r.returncode == 0
    assert r.stdout == '{"in_image":false,"reason":"d(g*) != 0"}\n'


def test_check_reads_stdin():
    r = run_cli("check", "-", stdin=dumps(jsonio.polynomial_to_obj(RP2)))
    assert r.returncode == 0
    assert json.loads(r.stdout) == {"in_image": True, "reason": "d(g*) = 0"}


def test_malformed_json_exits_two():
    r = run_cli("check", "{oops")
    assert r.returncode == 2
    assert json.loads(r.stdout)["error"]["code"] == "input-format"


def test_missing_file_exits_two():
    r = run_cli("check", "/no/such/artifact.json")
    assert r.returncode == 2


def test_repeated_character_is_a_domain_error():
    bad = ('{"n":2,"ring":"gf2","space":"primal",'
           '"terms":[{"chars":[[1,0],[1,0]],"coeff":1}]}')
    r = run_cli("check", bad)
    assert r.returncode == 1
    assert json.loads(r.stdout)["error"]["code"] == "validation-error"


# -- error paths: a wrong input is an error object, never a traceback ----------

# rank 3 monomials with fewer and with more than 3 characters
WRONG_DEGREE = {"under": [[0, 1, 1], [1, 0, 0]],
                "over": [[0, 1, 1], [1, 0, 0], [0, 0, 1], [1, 1, 0]]}


@pytest.mark.parametrize("verb", ["check", "dual", "diff", "reduce", "chern"])
@pytest.mark.parametrize("ring", ["gf2", "z-ext"])
@pytest.mark.parametrize("degree", sorted(WRONG_DEGREE))
def test_wrong_degree_monomials_never_raise_a_traceback(verb, ring, degree):
    obj = {"n": 3, "ring": ring, "space": "primal",
           "terms": [{"chars": WRONG_DEGREE[degree], "coeff": 1}]}
    r = run_cli(verb, dumps(obj))
    assert "Traceback" not in r.stderr
    out = json.loads(r.stdout)
    assert r.stdout == dumps(out)
    if verb in ("dual", "chern"):  # only a basis has a dual and is a fixed point
        assert r.returncode == 1 and out["error"]["code"] == "validation-error"
    if r.returncode == 0:
        assert "error" not in out
    else:
        assert r.returncode in (1, 2)
        assert r.stdout.count("\n") == 1
        assert set(out) == {"error"} and set(out["error"]) == {"code", "message"}


# -- piping verbs into each other ---------------------------------------------


def test_dual_round_trips_byte_identically(tmp_path):
    src = tmp_path / "rp2.json"
    src.write_text(dumps(jsonio.polynomial_to_obj(RP2)))
    first = run_cli("dual", str(src))
    assert first.returncode == 0
    second = run_cli("dual", "-", stdin=first.stdout)
    assert second.returncode == 0
    assert second.stdout == src.read_text()


def test_dual_requires_faithful_input():
    r = run_cli("dual", SINGLE_MONOMIAL.replace("[[0,1],[1,0]]", "[[1,1],[0,1],[1,0]]"))
    assert r.returncode == 1


def test_diff_of_kernel_element_is_zero():
    r = run_cli("diff", "-", stdin=dumps(jsonio.polynomial_to_obj(dual(CP1))))
    assert r.returncode == 0
    assert json.loads(r.stdout)["terms"] == []


# -- geometry verbs --------------------------------------------------------------


def test_poly_of_polytope_matches_library(tmp_path):
    p = product_of_simplices((2,))
    src = tmp_path / "colored.json"
    src.write_text(dumps(jsonio.polytope_to_obj(p, RP2_COLORING)))
    r = run_cli("poly-of-polytope", str(src))
    assert r.returncode == 0
    want = jsonio.polynomial_to_obj(coloring_polynomial(p, RP2_COLORING))
    assert r.stdout == dumps(want)


def test_poly_of_polytope_needs_a_coloring():
    r = run_cli("poly-of-polytope", dumps(
        jsonio.polytope_to_obj(product_of_simplices((2,)))).strip())
    assert r.returncode == 1


def test_poly_of_polytope_rejects_non_canonical_facet_keys():
    # int() accepts each key below, so "01" would name facet 1 a second time
    # and silently win
    segment = {"dim": 1, "facets": 2, "vertices": [[0], [1]]}
    good = dict(segment, coloring={"target": "gf2", "map": {"0": [1], "1": [1]}})
    assert run_cli("poly-of-polytope", json.dumps(good)).returncode == 0
    for key in ("01", " 1", "1_0", "-1"):
        obj = dict(segment, coloring={"target": "gf2",
                                      "map": {"0": [1], "1": [1], key: [1]}})
        r = run_cli("poly-of-polytope", json.dumps(obj))
        assert r.returncode == 2, key
        assert json.loads(r.stdout)["error"] == {
            "code": "input-format",
            "message": f"coloring.map key {key!r} is not a facet index"}


@pytest.mark.parametrize("verb, target", [("poly-of-polytope", "gf2"),
                                          ("torus-poly", "z")])
@pytest.mark.parametrize("facets", [10**8, 10**30])
def test_a_facet_with_no_vertex_is_refused_at_once(verb, target, facets):
    # a segment that claims more facets than its vertices lie on; the
    # coloring covers only facets 0 and 1
    obj = {"dim": 1, "facets": facets, "vertices": [[0], [1]],
           "coloring": {"target": target, "map": {"0": [1], "1": [-1]}}}
    r = run_cli(verb, json.dumps(obj), timeout=20)
    assert r.returncode == 1
    assert json.loads(r.stdout)["error"] == {
        "code": "validation-error", "message": "no vertex lies on facet 2"}


@pytest.mark.parametrize("vertices", [10**7, 10**30])
@pytest.mark.parametrize("verb, edges, message", [
    ("poly-of-graph", [], "(P1) fails: vertex 0 has degree 0, expected 2"),
    # a torus graph without sigma: one edge and its reversal
    ("torus-poly", [{"u": 0, "v": 1, "alpha": [1, 0]}, {"u": 1, "v": 0, "alpha": [-1, 0]}],
     "axiom (2) fails: vertex 0 has valence 1, expected 2"),
    # without edges a graph reads as either kind, and each verb reports the
    # axiom it fails, not that the graph is the other verb's kind
    ("torus-poly", [], "axiom (2) fails: vertex 0 has valence 0, expected 2")])
def test_a_vertex_count_the_edges_cannot_reach_is_refused_at_once(verb, edges, message,
                                                                  vertices):
    # the first vertex of the wrong degree is found from the edges; sizing
    # per-vertex lists by the count took 15 s and 1.4 GB at 10^7 vertices
    obj = {"n": 2, "vertices": vertices, "edges": edges}
    r = run_cli(verb, json.dumps(obj), timeout=5)
    assert r.returncode == 1
    assert json.loads(r.stdout)["error"] == {"code": "validation-error", "message": message}


@pytest.mark.parametrize("vertices", [10**7, 10**30])
@pytest.mark.parametrize("verb", ["poly-of-graph", "torus-poly"])
def test_a_rank_0_graph_is_refused_before_its_vertices_are_walked(verb, vertices):
    # at n = 0 every vertex has the right degree, so the rank is checked
    # before any vertex is walked
    obj = {"n": 0, "vertices": vertices, "edges": []}
    r = run_cli(verb, json.dumps(obj), timeout=5)
    assert r.returncode == 1
    assert json.loads(r.stdout)["error"] == {"code": "validation-error",
                                             "message": "rank n must be at least 1, got 0"}


def test_poly_of_graph_and_cross_verb_guard(tmp_path):
    p = product_of_simplices((2,))
    skel = one_skeleton(p, RP2_COLORING)
    r = run_cli("poly-of-graph", dumps(jsonio.colored_graph_to_obj(skel)).strip())
    assert r.returncode == 0
    # the graph polynomial is the dual of the polytope's coloring polynomial
    assert json.loads(r.stdout) == jsonio.polynomial_to_obj(
        dual(coloring_polynomial(p, RP2_COLORING)))

    torus = torus_graph_from_pair(p, standard_z_coloring((2,)))
    wrong = run_cli("poly-of-graph", dumps(jsonio.torus_graph_to_obj(torus)).strip())
    assert wrong.returncode == 1
    assert "torus-poly" in json.loads(wrong.stdout)["error"]["message"]


def test_torus_poly_from_graph_and_from_polytope():
    p = product_of_simplices((1,))
    g = torus_graph_from_pair(p, standard_z_coloring((1,)))
    from_graph = run_cli("torus-poly", dumps(jsonio.torus_graph_to_obj(g)).strip())
    assert from_graph.returncode == 0
    assert json.loads(from_graph.stdout) == jsonio.polynomial_to_obj(CP1)

    colored = dumps(jsonio.polytope_to_obj(p, standard_z_coloring((1,))))
    from_polytope = run_cli("torus-poly", colored.strip())
    assert from_polytope.stdout == from_graph.stdout


def test_torus_poly_proves_each_vertex_basis_once(dual_basis_calls, capsys):
    # validation proves every vertex basis of a graph read from JSON and the
    # polynomial reads the proofs back from the hook's memo: one dual basis
    # per vertex, 6 on CP2 x CP1.  Building the graph here proved the same
    # bases already (its weights are the duals of the facet colors), so the
    # memo is emptied first; with it kept the verb would eliminate nothing
    from bordismkit import algebra, cli

    p, lam = product_of_simplices((2, 1)), standard_z_coloring((2, 1))
    g = torus_graph_from_pair(p, lam)
    want = dumps(jsonio.polynomial_to_obj(torus_polynomial(g)))
    algebra._PROOFS.clear()
    dual_basis_calls.clear()
    assert cli.main(["torus-poly", dumps(jsonio.torus_graph_to_obj(g)).strip()]) == 0
    assert dual_basis_calls[0] == 6
    assert capsys.readouterr().out == want
    # the polytope route prints the same bytes
    assert run_cli("torus-poly", dumps(jsonio.polytope_to_obj(p, lam)).strip()).stdout == want


@pytest.mark.parametrize("facets, message", [
    (-5, "facet count must be at least 0, got -5"),
    (0, "a simple 1-polytope has at least 2 vertices, got 0"),
])
def test_a_polytope_with_no_vertices_is_refused(facets, message):
    obj = {"dim": 1, "facets": facets, "vertices": [],
           "coloring": {"target": "gf2", "map": {}}}
    r = run_cli("poly-of-polytope", json.dumps(obj))
    assert r.returncode == 1
    assert json.loads(r.stdout)["error"] == {"code": "validation-error", "message": message}


@pytest.mark.parametrize("verb, graph", [
    ("poly-of-graph", '{"n":2,"vertices":-3,"edges":[]}'),
    ("torus-poly", '{"n":1,"vertices":-3,"edges":[{"u":0,"v":1,"alpha":[1]},'
                   '{"u":1,"v":0,"alpha":[-1]}]}'),
])
def test_a_negative_vertex_count_is_refused(verb, graph):
    r = run_cli(verb, graph)
    assert r.returncode == 1
    assert json.loads(r.stdout)["error"] == {
        "code": "validation-error", "message": "vertex count must be at least 0, got -3"}


@pytest.mark.parametrize("graph, message", [
    # weight 3 spans index 3 in Z at both vertices
    ('{"n":1,"vertices":2,"edges":[{"u":0,"v":1,"alpha":[3]},'
     '{"u":1,"v":0,"alpha":[-3]}],"sigma":[1,1]}',
     "axiom (2) fails: weights at vertex 0 are not a Z-basis"),
    # the CP^2 torus graph with sigma flipped at vertex 1
    ('{"n":2,"vertices":3,"edges":[{"u":0,"v":1,"alpha":[-1,1]},'
     '{"u":0,"v":2,"alpha":[-1,0]},{"u":1,"v":0,"alpha":[1,-1]},'
     '{"u":1,"v":2,"alpha":[0,-1]},{"u":2,"v":0,"alpha":[1,0]},'
     '{"u":2,"v":1,"alpha":[0,1]}],"sigma":[1,-1,1]}',
     "orientation fails along edge 0-1: "
     "sigma(0)alpha(0,1) is not -sigma(1)alpha(1,0)"),
], ids=("index-3-weight", "flipped-sigma"))
def test_torus_poly_validates_graph_input(graph, message):
    r = run_cli("torus-poly", graph)
    assert r.returncode == 1
    assert "Traceback" not in r.stderr
    assert json.loads(r.stdout)["error"] == {"code": "validation-error",
                                                 "message": message}


@pytest.mark.parametrize("graph", [
    # one edge and its reversal at rank 1: every axiom holds, sigma is absent
    '{"n":1,"vertices":2,"edges":[{"u":0,"v":1,"alpha":[1]},{"u":1,"v":0,"alpha":[-1]}]}',
    '{"n":2,"vertices":0,"edges":[]}',
], ids=("one-edge", "no-vertices"))
def test_torus_poly_names_a_missing_sigma(graph):
    # the CLI names the JSON field; the library keeps its orient() advice
    r = run_cli("torus-poly", graph)
    assert r.returncode == 1
    assert json.loads(r.stdout)["error"] == {
        "code": "validation-error",
        "message": 'torus graph has no "sigma" field; torus-poly needs the '
                   'orientation of every vertex'}
    g = jsonio.graph_from_obj(json.loads(graph), edgeless_torus=True)
    with pytest.raises(ValidationError, match=r"not oriented; call orient\(\) first"):
        torus_polynomial(g)


def test_torus_poly_rejects_gf2_graphs():
    skel = one_skeleton(product_of_simplices((2,)), RP2_COLORING)
    r = run_cli("torus-poly", dumps(jsonio.colored_graph_to_obj(skel)).strip())
    assert r.returncode == 1
    assert "poly-of-graph" in json.loads(r.stdout)["error"]["message"]


# -- numbers and reports --------------------------------------------------------


def test_chern_sweep_for_cp1():
    r = run_cli("chern", dumps(jsonio.polynomial_to_obj(CP1)).strip())
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["n"] == 1 and out["degree_bound"] == 2
    assert all(entry["j"] == 0 for entry in out["numbers"])
    by_ij = {(e["i"], e["j"]): e for e in out["numbers"]}
    assert by_ij[(1, 0)] == {"i": 1, "j": 0, "polynomial": True,
                             "integral": True, "constant": 2}


def test_chern_accepts_fixed_point_data():
    # CP^1 as raw fixed-point data: two points, both of positive sign
    obj = {"flavor": "z", "n": 1,
           "points": [{"sign": 1, "weights": [[1]]},
                      {"sign": 1, "weights": [[-1]]}]}
    r = run_cli("chern", json.dumps(obj), "--degree-bound", "1")
    assert r.returncode == 0
    by_ij = {(e["i"], e["j"]): e for e in json.loads(r.stdout)["numbers"]}
    assert by_ij[(1, 0)]["constant"] == 2


def test_chern_exact_output_for_cp2():
    r = run_cli("chern", dumps(jsonio.polynomial_to_obj(CP2)).strip())
    assert r.returncode == 0
    assert r.stdout == (
        '{"degree_bound":4,"n":2,"numbers":['
        '{"constant":0,"i":0,"integral":true,"j":0,"polynomial":true},'
        '{"constant":3,"i":0,"integral":true,"j":1,"polynomial":true},'
        '{"constant":null,"i":0,"integral":true,"j":2,"polynomial":true},'
        '{"constant":0,"i":1,"integral":true,"j":0,"polynomial":true},'
        '{"constant":0,"i":1,"integral":true,"j":1,"polynomial":true},'
        '{"constant":9,"i":2,"integral":true,"j":0,"polynomial":true},'
        '{"constant":null,"i":2,"integral":true,"j":1,"polynomial":true},'
        '{"constant":0,"i":3,"integral":true,"j":0,"polynomial":true},'
        '{"constant":null,"i":4,"integral":true,"j":0,"polynomial":true}]}\n')


def test_chern_rejects_a_negative_degree_bound():
    r = run_cli("chern", dumps(jsonio.polynomial_to_obj(CP2)).strip(),
                "--degree-bound", "-3")
    assert r.returncode == 1
    err = json.loads(r.stdout)["error"]
    assert err == {"code": "validation-error",
                   "message": "degree cap must be at least 0, got -3"}


def test_chern_rejects_an_unknown_flavor_as_input_format():
    obj = {"flavor": "q", "n": 1, "points": [{"sign": 1, "weights": [[1]]}]}
    r = run_cli("chern", json.dumps(obj))
    assert r.returncode == 2
    assert json.loads(r.stdout)["error"] == {
        "code": "input-format", "message": "unknown fixed-point flavor 'q'"}


def test_chern_rejects_a_dual_space_polynomial():
    # the dual space holds facet colors, not tangent weights
    star = run_cli("dual", dumps(jsonio.polynomial_to_obj(CP2)).strip())
    r = run_cli("chern", "-", stdin=star.stdout)
    assert r.returncode == 1
    assert json.loads(r.stdout)["error"] == {
        "code": "validation-error", "message": "polynomial is not in the primal space"}


@pytest.mark.parametrize("chars, weights", [
    ([[1, 2], [2, 4]], "((1, 2), (2, 4))"),     # det 0
    ([[1, 1], [1, -1]], "((1, -1), (1, 1))"),   # det -2
], ids=("dependent", "index-2"))
def test_chern_names_a_non_faithful_monomial_one_way(chars, weights):
    # a singular monomial and one of index 2 fail the same basis proof
    obj = {"n": 2, "ring": "z-ext", "space": "primal",
           "terms": [{"chars": chars, "coeff": 1}]}
    r = run_cli("chern", json.dumps(obj))
    assert r.returncode == 1
    assert json.loads(r.stdout)["error"] == {
        "code": "validation-error",
        "message": f"non-faithful fixed point with weights {weights}"}


@pytest.mark.parametrize("n", [0, -3])
def test_chern_rejects_fixed_point_data_of_rank_below_one(n):
    r = run_cli("chern", json.dumps({"flavor": "z", "n": n, "points": []}))
    assert r.returncode == 1
    assert json.loads(r.stdout)["error"] == {
        "code": "validation-error", "message": f"rank n must be at least 1, got {n}"}


def test_chern_names_a_gf2_weight_outside_zero_one():
    # a GF(2) weight is refused as the data is read, before the sweep asks
    # for integer data, as a GF(2) coloring's colors are
    obj = {"flavor": "gf2", "n": 2, "points": [{"weights": [[1, 0], [1, -1]]}]}
    r = run_cli("chern", json.dumps(obj))
    assert r.returncode == 1
    assert json.loads(r.stdout)["error"] == {
        "code": "validation-error",
        "message": "GF(2) character (1, -1) has entries outside {0,1}"}


def test_chern_refuses_an_oversized_sweep_at_once():
    r = subprocess.run(
        [sys.executable, "-m", "bordismkit.cli", "chern",
         json.dumps({"flavor": "z", "n": 100000, "points": []})],
        capture_output=True, text=True, timeout=30)
    assert r.returncode == 1
    err = json.loads(r.stdout)["error"]
    assert err["code"] == "resource-limit"
    assert "has 10000200001 numbers, over the limit of 10000" in err["message"]
    assert "--degree-bound" in err["message"]


def test_reduce_class_and_bare_polynomial():
    cls = dumps(jsonio.class_to_obj(BordismClass(UNITARY, CP2)))
    r = run_cli("reduce", "-", stdin=cls)
    assert r.returncode == 0
    want = jsonio.class_to_obj(BordismClass(UNORIENTED, RP2))
    assert r.stdout == dumps(want)

    bare = run_cli("reduce", dumps(jsonio.polynomial_to_obj(CP1)).strip())
    assert bare.returncode == 0
    assert json.loads(bare.stdout)["terms"] == []


def test_reduce_rejects_gf2_input():
    r = run_cli("reduce", dumps(jsonio.polynomial_to_obj(RP2)).strip())
    assert r.returncode == 1


def test_generators_report():
    r = run_cli("generators", "--n", "2")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["n"] == 2
    assert out["count"] == 2
    assert out["kernel_dim"] == 1
    assert out["spanning_rank"] == 1
    assert out["spans_kernel"] is True
    assert len(out["generators"]) == 2


def test_generators_exact_output_for_ranks_one_and_two():
    r = run_cli("generators", "--n", "1")
    assert r.returncode == 0
    assert r.stdout == ('{"count":1,"generators":[{"n":1,"ring":"gf2","space":"dual",'
                        '"terms":[]}],"kernel_dim":0,"n":1,"spanning_rank":0,'
                        '"spans_kernel":true}\n')
    r = run_cli("generators", "--n", "2")
    assert r.returncode == 0
    assert r.stdout == ('{"count":2,"generators":[{"n":2,"ring":"gf2","space":"dual",'
                        '"terms":[{"chars":[[0,1],[1,0]],"coeff":1},'
                        '{"chars":[[0,1],[1,1]],"coeff":1},'
                        '{"chars":[[1,0],[1,1]],"coeff":1}]},'
                        '{"n":2,"ring":"gf2","space":"dual","terms":[]}],'
                        '"kernel_dim":1,"n":2,"spanning_rank":1,"spans_kernel":true}\n')


def test_generators_exact_output_for_rank_three():
    # the verb reads its rank off the closure (bott.spanning_rank); the bytes
    # are the ones the full stream re-keyed by dual_span_rank gives
    polys = [g.polynomial for g in bott.bott_generators(3)]
    rank = bott.dual_span_rank(polys, 3)
    kernel_dim = kernels.kernel_space(3).dim
    r = run_cli("generators", "--n", "3")
    assert r.returncode == 0
    assert r.stdout == dumps({
        "n": 3, "count": len(polys), "kernel_dim": kernel_dim,
        "spanning_rank": rank, "spans_kernel": rank == kernel_dim,
        "generators": [jsonio.polynomial_to_obj(p) for p in polys]})
    assert (len(polys), rank, kernel_dim) == (51, 13, 13)


@pytest.mark.parametrize("argv", [
    ["dim", "--n", "2"], ["generators", "--n", "2"],
    *([verb, "-"] for verb in ("check", "dual", "diff", "poly-of-polytope",
                               "poly-of-graph", "torus-poly", "chern", "reduce"))],
    ids=lambda argv: argv[0])
def test_json_only_verbs_take_no_format_option(argv, capsys):
    # JSON is their only output, so only verify has a --format
    from bordismkit import cli
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--format", "json"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --format json" in capsys.readouterr().err


def test_verify_json_report():
    r = run_cli("verify", "--format", "json")
    out = json.loads(r.stdout)
    assert out["total"] == 10
    assert len(out["results"]) == 10
    assert out["results"][0]["name"] == "dimension-golden-numbers"
    assert (r.returncode == 0) == (out["passed"] == out["total"])
    for entry in out["results"]:
        assert isinstance(entry["passed"], bool)
        assert entry["detail"]


# -- the parser is built from one verb table -------------------------------

VERBS = ["dim", "check", "dual", "diff", "poly-of-polytope", "poly-of-graph",
         "torus-poly", "chern", "reduce", "generators", "verify"]


def _parse_exit(parse, argv):
    """(exit code, stdout, stderr) of a parse that exits, as argparse prints them."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", [
    ["--help"], [], ["no-such-verb"], ["dim"], ["generators"], ["chern"],
    ["dim", "--n", "2", "--format", "json"], ["dim", "--n", "two"],
    ["verify", "--format", "xml"],
    *([verb, "--help"] for verb in VERBS)], ids=lambda argv: " ".join(argv) or "no verb")
def test_the_one_verb_parser_prints_what_the_full_parser_prints(argv, monkeypatch):
    # main builds only the named verb's subparser (every one for help, no
    # verb or an unknown verb); help, usage and errors are the same bytes
    # and exit code as the parser built with every verb
    from bordismkit import cli
    monkeypatch.setenv("COLUMNS", "80")
    full = _parse_exit(cli._build_parser().parse_args, argv)
    assert _parse_exit(cli.main, argv) == full
    assert full[0] in (0, 2) and (full[1] or full[2])


def test_a_named_verb_builds_only_its_subparser():
    from bordismkit import cli
    assert list(cli._VERBS) == VERBS
    text = cli._build_parser("chern").format_help()
    assert "equivariant Chern number sweep" in text
    assert "dimension of the rank-n kernel space" not in text


def test_the_process_entry_exits_with_mains_code_and_runs_atexit():
    # entry() freezes the collector before exit; shutdown still runs the
    # atexit handlers and flushes stdout, and the exit code is main's
    code = ("import atexit, sys\n"
            "from bordismkit import cli\n"
            "atexit.register(lambda: print('atexit ran'))\n"
            "sys.argv = ['bordismkit'] + sys.argv[1:]\n"
            "cli.entry()\n")
    for argv, rc, first in ((["dim", "--n", "2"], 0, '{"dim":1}'),
                            (["dim", "--n", "99"], 1, '{"error":'),
                            (["check", "{oops"], 2, '{"error":')):
        r = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True)
        assert r.returncode == rc, r.stderr
        assert r.stdout.startswith(first) and r.stdout.endswith("atexit ran\n")
