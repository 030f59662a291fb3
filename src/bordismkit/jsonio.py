"""Canonical JSON encoding of the package's value types.

Every encoder emits a deterministic form — keys sorted, terms in canonical
monomial order, compact separators, one trailing newline — so equal values
serialize to identical bytes and any emitted document parses back to an equal
value.  Decoders raise ``InputFormatError`` for structural problems (wrong
type, missing field) and let the value constructors raise ``ValidationError``
for mathematical ones; the CLI maps the two to different exit codes.
"""

from __future__ import annotations

import json
from typing import Any

from . import algebra, bordism
from .algebra import ExtPolynomial, Gf2Polynomial, Polynomial
from .bordism import BordismClass
from .errors import InputFormatError
from .graphs import ColoredGraph, TorusGraph
from .localization import FixedPoint, FixedPointData
from .polytopes import Coloring, SimplePolytope

GF2_RING = "gf2"
Z_RING = "z-ext"


def canonical_dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def parse_text(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"not valid JSON: {exc}") from None


def _need(obj: Any, key: str, kind: type | tuple[type, ...], where: str) -> Any:
    if not isinstance(obj, dict):
        raise InputFormatError(f"{where} must be a JSON object")
    if key not in obj:
        raise InputFormatError(f"{where} is missing {key!r}")
    val = obj[key]
    if not isinstance(val, kind) or isinstance(val, bool):
        raise InputFormatError(f"{where}.{key} has the wrong type")
    return val


def _is_int_list(val: Any) -> bool:
    return isinstance(val, list) and all(
        isinstance(x, int) and not isinstance(x, bool) for x in val)


def _char_list(val: Any, where: str) -> tuple[tuple[int, ...], ...]:
    if not isinstance(val, list):
        raise InputFormatError(f"{where} must be a list of characters")
    if not all(map(_is_int_list, val)):
        raise InputFormatError(f"{where} entries must be integer vectors")
    return tuple(map(tuple, val))


# ---------------------------------------------------------------------------
# polynomials


def polynomial_to_obj(p: Polynomial) -> dict:
    terms = [{"chars": [list(c) for c in m], "coeff": coeff}
             for m, coeff in p.sorted_terms()]
    ring = GF2_RING if p.modulus == 2 else Z_RING
    return {"n": p.n, "ring": ring, "space": p.space, "terms": terms}


def polynomial_from_obj(obj: Any) -> Polynomial:
    n = _need(obj, "n", int, "polynomial")
    ring = _need(obj, "ring", str, "polynomial")
    space = _need(obj, "space", str, "polynomial")
    raw = _need(obj, "terms", list, "polynomial")
    terms = []
    for i, t in enumerate(raw):
        chars = _char_list(_need(t, "chars", list, f"terms[{i}]"), f"terms[{i}].chars")
        coeff = _need(t, "coeff", int, f"terms[{i}]")
        terms.append((chars, coeff))
    if ring == GF2_RING:
        # coefficients count mod 2: an even one drops its monomial unchecked
        return Gf2Polynomial(n, [chars for chars, coeff in terms if coeff % 2], space)
    if ring == Z_RING:
        return ExtPolynomial(n, terms, space)
    raise InputFormatError(f"unknown polynomial ring {ring!r}")


# ---------------------------------------------------------------------------
# bordism classes


def class_to_obj(a: BordismClass) -> dict:
    out = polynomial_to_obj(a.polynomial)
    out["flavor"] = a.flavor
    return out


def class_from_obj(obj: Any) -> BordismClass:
    flavor = _need(obj, "flavor", str, "class")
    if flavor not in bordism.FLAVORS:
        raise InputFormatError(f"unknown class flavor {flavor!r}")
    return BordismClass(flavor, polynomial_from_obj(obj))


# ---------------------------------------------------------------------------
# polytopes and colorings


def polytope_to_obj(p: SimplePolytope, coloring: Coloring | None = None) -> dict:
    out = {
        "dim": p.dim,
        "facets": p.num_facets,
        "vertices": [sorted(v) for v in sorted(p.vertices, key=sorted)],
    }
    if coloring is not None:
        out["coloring"] = {
            "target": coloring.target,
            "map": {str(f): list(c) for f, c in sorted(coloring.map.items())},
        }
    return out


def polytope_from_obj(obj: Any) -> tuple[SimplePolytope, Coloring | None]:
    dim = _need(obj, "dim", int, "polytope")
    facets = _need(obj, "facets", int, "polytope")
    vertices = _need(obj, "vertices", list, "polytope")
    if not all(map(_is_int_list, vertices)):
        raise InputFormatError("polytope.vertices entries must be facet index lists")
    polytope = SimplePolytope(dim, facets, vertices)
    coloring = None
    if "coloring" in obj:
        cobj = obj["coloring"]
        target = _need(cobj, "target", str, "coloring")
        if target not in algebra.RINGS:
            raise InputFormatError(f"unknown coloring target {target!r}")
        cmap = _need(cobj, "map", dict, "coloring")
        parsed = {}
        for key, val in cmap.items():
            # only the canonical decimal form, so no two keys name one facet
            if not (isinstance(key, str) and key.isdecimal() and str(int(key)) == key):
                raise InputFormatError(f"coloring.map key {key!r} is not a facet index")
            if not _is_int_list(val):
                raise InputFormatError(f"coloring.map[{key}] must be an integer vector")
            parsed[int(key)] = tuple(val)
        coloring = Coloring(target, parsed)
    return polytope, coloring


# ---------------------------------------------------------------------------
# graphs


def colored_graph_to_obj(g: ColoredGraph) -> dict:
    edges = []
    for e in sorted(g.alpha, key=sorted):
        u, v = sorted(e)
        edges.append({"u": u, "v": v, "alpha": list(g.alpha[e])})
    return {"n": g.n, "vertices": g.num_vertices, "edges": edges}


def torus_graph_to_obj(g: TorusGraph) -> dict:
    edges = [{"u": u, "v": v, "alpha": list(g.alpha[(u, v)])}
             for u, v in sorted(g.alpha)]
    out = {"n": g.n, "vertices": g.num_vertices, "edges": edges}
    if g.sigma is not None:
        out["sigma"] = list(g.sigma)
    return out


def graph_from_obj(obj: Any, edgeless_torus: bool = False) -> ColoredGraph | TorusGraph:
    """Decode a graph; directed duplicate edges mean a torus graph, and so
    does no edge at all if ``edgeless_torus``."""
    n = _need(obj, "n", int, "graph")
    num_vertices = _need(obj, "vertices", int, "graph")
    raw = _need(obj, "edges", list, "graph")
    edges: list[tuple[int, int, tuple[int, ...]]] = []
    for i, e in enumerate(raw):
        u = _need(e, "u", int, f"edges[{i}]")
        v = _need(e, "v", int, f"edges[{i}]")
        alpha = e.get("alpha")
        if not _is_int_list(alpha):
            raise InputFormatError(f"edges[{i}].alpha must be an integer vector")
        edges.append((u, v, tuple(alpha)))
    directed = {(u, v) for u, v, _ in edges}
    if len(directed) != len(edges):
        raise InputFormatError("duplicate edge entries")
    if (edgeless_torus and not edges) or any((v, u) in directed for u, v in directed):
        alpha = {(u, v): a for u, v, a in edges}
        sigma = obj.get("sigma")
        if sigma is not None and not _is_int_list(sigma):
            raise InputFormatError("sigma must be a list of ±1")
        return TorusGraph(n, num_vertices, alpha, sigma)
    return ColoredGraph(n, num_vertices,
                        {frozenset((u, v)): a for u, v, a in edges})


# ---------------------------------------------------------------------------
# localization data


def fixed_point_data_to_obj(d: FixedPointData) -> dict:
    return {
        "flavor": d.flavor,
        "n": d.n,
        "points": [{"sign": pt.sign, "weights": [list(w) for w in pt.weights]}
                   for pt in d.points],
    }


def fixed_point_data_from_obj(obj: Any) -> FixedPointData:
    flavor = _need(obj, "flavor", str, "fixed-point data")
    if flavor not in algebra.RINGS:
        raise InputFormatError(f"unknown fixed-point flavor {flavor!r}")
    n = _need(obj, "n", int, "fixed-point data")
    raw = _need(obj, "points", list, "fixed-point data")
    points = []
    for i, p in enumerate(raw):
        weights = _char_list(_need(p, "weights", list, f"points[{i}]"),
                             f"points[{i}].weights")
        sign = p.get("sign", 1)
        if not isinstance(sign, int) or isinstance(sign, bool):
            raise InputFormatError(f"points[{i}].sign must be ±1")
        points.append(FixedPoint(sign, weights))
    return FixedPointData(flavor, n, points)

