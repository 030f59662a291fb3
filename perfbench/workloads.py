"""The benchmark's workloads: inputs, operations and answer checks.

A library workload is a fixed list of operations.  ``inputs`` makes its
seeded inputs once per run; ``build`` turns them into ``(label, thunk)``
pairs in each worker; the worker times the thunks; ``check`` then judges
every answer against ``oracle`` and returns ``{label: None or reason}``.  Operations call only
names in ``bordismkit.__all__`` and ``localization.Gf2IntegralityTable``,
never pass ``backend=`` and never set the size-cap environment variables.

``cli_script`` builds the cli workload's seeded script of cold CLI
invocations together with the bytes each one must print, computed
in-process with the library and ``jsonio.canonical_dumps``.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from fractions import Fraction

import oracle

# Window and floor expectations proven in the package's documentation of
# support_floor: a weight-2 window admits no relation of support 1, and of
# support 2 only at n = 1.
FLOORS = {1: 2, 2: 3, 3: 3}


def inputs(workload: str, seed: int) -> dict:
    """A library workload's seeded inputs, as JSON-ready data."""
    return _localize_inputs(seed) if workload == "localize" else {}


def build(workload: str, spec: dict) -> tuple[list[tuple[str, object]], dict]:
    """Operations and input-size facts for a library workload."""
    return {"span": _span, "window": _window, "localize": _localize}[workload](spec)


def check(workload: str, answers: dict) -> dict[str, str | None]:
    """Judge every answer; None means correct."""
    return {"span": _check_span, "window": _check_window,
            "localize": _check_localize}[workload](answers)


# ---------------------------------------------------------------------------
# span: GF(2) kernels and the generator span


def _span(spec: dict):
    import bordismkit as bk

    ops = [(f"kernel_space({n})", lambda n=n: bk.kernel_space(n).dim)
           for n in range(1, 5)]
    ops.append(("spanning_rank(3)", lambda: bk.spanning_rank(3).rank))
    ops.append(("spanning_rank(4,target=511)",
                lambda: bk.spanning_rank(4, target=511).rank))
    return ops, {}


def _check_span(answers: dict) -> dict[str, str | None]:
    out = {}
    for label, got in answers.items():
        n = int(label.split("(")[1][0])
        want = oracle.kernel_dim(n)
        if isinstance(got, Exception):
            out[label] = f"raised {got!r}"
        elif got != want:
            out[label] = f"got {got}, closed form gives {want}"
        elif label.startswith("spanning") and got != answers.get(f"kernel_space({n})"):
            out[label] = f"rank {got} differs from the computed kernel dimension"
        else:
            out[label] = None
    return out


# ---------------------------------------------------------------------------
# window: integer windows, support floors, surjectivity


def _window(spec: dict):
    import bordismkit as bk

    ops = [(f"support_floor({n},2)", lambda n=n: bk.support_floor(n, 2))
           for n in (1, 2, 3)]
    ops += [(f"kernel_sample_unitary({n},{w})",
             lambda n=n, w=w: bk.kernel_sample_unitary(n, w))
            for n, w in ((3, 1), (2, 2))]
    ops.append(("surjectivity_probe(2,1)", lambda: bk.surjectivity_probe(2, 1)))
    return ops, {}


def _z_terms(p) -> dict:
    """Plain {monomial: coeff} of a library polynomial, via its JSON form."""
    from bordismkit import jsonio

    obj = jsonio.polynomial_to_obj(p)
    return {tuple(tuple(c) for c in t["chars"]): t["coeff"] for t in obj["terms"]}


def _check_window(answers: dict) -> dict[str, str | None]:
    import bordismkit as bk

    out = {}
    for label, got in answers.items():
        if isinstance(got, Exception):
            out[label] = f"raised {got!r}"
            continue
        args = [int(x) for x in label.split("(")[1].rstrip(")").split(",")]
        problem = None
        if label.startswith("support_floor"):
            if got != FLOORS[args[0]]:
                problem = f"floor {got}, expected {FLOORS[args[0]]}"
        elif label.startswith("kernel_sample_unitary"):
            n, w = args
            count = oracle.unimodular_count(n, w)
            if len(got.monomials) != count:
                problem = f"{len(got.monomials)} window monomials, expected {count}"
            elif got.rank + got.dim != count:
                problem = f"rank {got.rank} + dim {got.dim} != {count} monomials"
            elif not all(oracle.in_z_kernel(_z_terms(b)) for b in got.basis):
                problem = "a basis element has d(b*) != 0"
        else:
            n = args[0]
            target = bk.kernel_space(n).basis
            if got.kernel_dim != oracle.kernel_dim(n):
                problem = f"kernel dim {got.kernel_dim}"
            elif not got.full_coverage or len(got.entries) != len(target):
                problem = "probe does not cover the mod-2 kernel"
            else:
                for e in got.entries:
                    terms = _z_terms(e.witness)
                    if not oracle.in_z_kernel(terms):
                        problem = f"witness {e.index} is not in the integer kernel"
                    elif oracle.mod2(terms) != frozenset(_z_terms(target[e.index])):
                        problem = f"witness {e.index} does not reduce to its target"
        out[label] = problem
    return out


# ---------------------------------------------------------------------------
# localize: localization sums, Chern numbers, integrality tables, products

RANDOM_DRAWS = 3     # random colorings per shape, stratified by size
POOL = 8             # nonzero candidates drawn per shape before stratifying
MAX_TRIES = 2000     # draws allowed per shape to find them

# Integrality-table traffic, as in the library's one caller of
# Gf2IntegralityTable (acceptance.equivalence_sampling, run by ``verify``):
# one table at rank 3 over () and the partitions of degree <= 6 into <= 3
# parts, queried on every partition by 100 random nonzero kernel elements and
# 100 random faithful polynomials of 1-8 monomials; sample i is also checked
# with integrality_check_gf2 when i % 40 == 0.
TABLE_DEGREE = 6
TABLE_KERNEL = 100
TABLE_FAITHFUL = 100
TABLE_MAX_SUPPORT = 8
REFERENCE_EVERY = 40


def _sweep(data, cap: int) -> dict:
    import bordismkit as bk

    out = {}
    for i in range(cap + 1):
        for j in range((cap - i) // 2 + 1):
            if j and data.n < 2:
                continue
            r = bk.equivariant_chern_number(data, i, j)
            out[(i, j)] = (r.is_polynomial, r.integral,
                           r.is_polynomial and r.value.is_zero(), r.constant)
    return out


def _manifold_op(shape, coloring, cap_of_n):
    import bordismkit as bk

    def run():
        p = bk.product_of_simplices(shape)
        poly = bk.torus_polynomial(bk.torus_graph_from_pair(p, coloring))
        data = bk.FixedPointData.from_polynomial(poly)
        return poly, _sweep(data, cap_of_n(data.n))
    return run


def _stratified(pool: list, size, draws: int) -> list:
    """``draws`` members of a seeded pool at evenly spaced ranks of ``size``.

    Localization cost grows with the input size, so picking across the
    size range keeps a workload's total cost close to seed-independent while
    still covering small and large inputs.
    """
    ranked = sorted(range(len(pool)), key=lambda k: (size(pool[k]), k))
    return [pool[ranked[(2 * i + 1) * len(pool) // (2 * draws)]] for i in range(draws)]


def _random_colorings(shape, rng: random.Random, draws: int) -> list[dict]:
    """Random colorings of a shape whose torus polynomial does not cancel.

    With random facet signs the polynomial of a shape with a factor of
    rank 1 cancels to zero in 44-95% of draws (a boundary, whose numbers
    are trivially zero), so draws continue until POOL nonzero ones are
    found; they are then stratified by the total size of their weights.
    """
    import bordismkit as bk

    p = bk.product_of_simplices(shape)
    pool = []
    for _ in range(MAX_TRIES):
        col = bk.random_z_coloring(shape, rng)
        data = bk.FixedPointData.from_polynomial(
            bk.torus_polynomial(bk.torus_graph_from_pair(p, col)))
        weights = [v for pt in data.points for w in pt.weights for v in w]
        if weights:
            pool.append({"shape": list(shape), "map": col.map,
                         "points": len(data.points), "size": sum(map(abs, weights)),
                         "max_abs_entry": max(map(abs, weights))})
            if len(pool) == POOL:
                break
    return _stratified(pool, lambda item: item["size"], draws) if pool else []


def _faithful_gf2_monomials(n: int) -> list[tuple]:
    chars = [c for c in itertools.product((0, 1), repeat=n) if any(c)]
    return [m for m in itertools.combinations(chars, n)
            if oracle.det([list(c) for c in m]) % 2]


def _localize_inputs(seed: int) -> dict:
    import bordismkit as bk

    rng = random.Random(seed)
    manifolds = [item for n in range(2, 5) for shape in oracle.partitions(n)
                 for item in _random_colorings(shape, rng, RANDOM_DRAWS)]
    small = [m for m in manifolds if sum(m["shape"]) == 2]
    small += [{"shape": [1], "map": bk.random_z_coloring((1,), rng).map}
              for _ in range(3)]
    pairs = rng.sample(list(itertools.combinations(range(len(small)), 2)), 8)

    basis = bk.kernel_space(3).basis
    kernel_elems = []
    while len(kernel_elems) < TABLE_KERNEL:
        p = bk.Gf2Polynomial(3, [], space=bk.PRIMAL)
        for b in basis:
            if rng.random() < 0.5:
                p = p + b
        if not p.is_zero():
            kernel_elems.append(sorted(p.monomials))
    faithful = _faithful_gf2_monomials(3)
    others = [sorted(rng.sample(faithful, rng.randint(1, TABLE_MAX_SUPPORT)))
              for _ in range(TABLE_FAITHFUL)]
    return {
        "manifolds": manifolds,
        "small": small,
        "pairs": pairs,
        "kernel": kernel_elems,
        "other": others,
        "sizes": {"random_manifolds": len(manifolds),
                  "fixed_points": sum(m["points"] for m in manifolds),
                  "max_abs_entry": max(m["max_abs_entry"] for m in manifolds),
                  "table_query_monomials": sum(map(len, kernel_elems + others))},
    }


def _coloring(item: dict):
    import bordismkit as bk

    return (tuple(item["shape"]),
            bk.Coloring("z", {int(f): tuple(c) for f, c in item["map"].items()}))


def _localize(spec: dict):
    import bordismkit as bk
    from bordismkit import localization

    ops = []
    # standard-colored products of CP^k: full sweep, checked against H*(M)
    for n in range(1, 5):
        for shape in oracle.partitions(n):
            ops.append((f"standard{list(shape)}",
                        _manifold_op(shape, bk.standard_z_coloring(shape),
                                     lambda m: 2 * m)))

    # random torus manifolds on every shape of rank 2-4; rank 4 is swept
    # only up to degree n, because its equivariant numbers above degree n
    # cost 0.8-3.8 s each and swing with the entries far more than a
    # run can average out
    manifolds = [_coloring(item) for item in spec["manifolds"]]
    for k, (shape, col) in enumerate(manifolds):
        cap = (lambda m: 2 * m) if sum(shape) < 4 else (lambda m: m)
        ops.append((f"random{list(shape)}#{k}", _manifold_op(shape, col, cap)))

    # signed integrality of the random rank 2-3 manifolds (reference check)
    for k, (shape, col) in enumerate(manifolds):
        if sum(shape) <= 3:
            ops.append((f"integrality_z#{k}", _integrality_z_op(shape, col)))

    # a GF(2) integrality table, then many cheap queries against it
    partitions = oracle.partitions_up_to(TABLE_DEGREE, 3)
    table: list = []
    ops.append(("Gf2IntegralityTable(3)",
                lambda: table.append(localization.Gf2IntegralityTable(3, partitions))
                or len(partitions)))
    samples = ([("kernel", m) for m in spec["kernel"]]
               + [("other", m) for m in spec["other"]])
    for i, (kind, monos) in enumerate(samples):
        p = bk.Gf2Polynomial(3, [tuple(map(tuple, m)) for m in monos], space=bk.PRIMAL)
        ops.append((f"passes:{kind}#{i}",
                    lambda p=p: [table[0].passes(p, mu) for mu in partitions]))
        if i % REFERENCE_EVERY == 0:
            ops.append((f"reference:{kind}#{i}", _reference_gf2_op(p, partitions)))

    # the class ring: products, swaps and reductions of unitary classes
    small = [_coloring(item) for item in spec["small"]]
    for a, b in spec["pairs"]:
        ops.append((f"classes#{a}x{b}", _classes_op(small[a], small[b])))
    return ops, spec["sizes"]


def _integrality_z_op(shape, col):
    import bordismkit as bk

    def run():
        p = bk.product_of_simplices(shape)
        data = bk.FixedPointData.from_polynomial(
            bk.torus_polynomial(bk.torus_graph_from_pair(p, col)))
        n = data.n
        return [bk.integrality_check_z(data, bk.SymmetricFunction.monomial(mu),
                                       signed=True)
                for mu in oracle.partitions_up_to(n + 1, n)]
    return run


def _reference_gf2_op(p, partitions):
    import bordismkit as bk

    def run():
        data = bk.FixedPointData.from_polynomial(p)
        return [bk.integrality_check_gf2(data, bk.SymmetricFunction.monomial(mu))
                for mu in partitions]
    return run


def _classes_op(first, second):
    import bordismkit as bk

    def run():
        a, b = (bk.BordismClass(bk.UNITARY, bk.torus_polynomial(
            bk.torus_graph_from_pair(bk.product_of_simplices(shape), col)))
            for shape, col in (first, second))
        ab, ba = bk.multiply(a, b), bk.multiply(b, a)
        return {"a": a, "ab": ab, "reduced_a": bk.reduce(a), "reduced_ab": bk.reduce(ab),
                "product_of_reduced": bk.multiply(bk.reduce(a), bk.reduce(b)),
                "swap_is_ba": bk.swap_conjugate(ab, a.n) == ba}
    return run


def _gf2_terms(p) -> frozenset:
    from bordismkit import jsonio

    obj = jsonio.polynomial_to_obj(p)
    return frozenset(tuple(tuple(c) for c in t["chars"])
                     for t in obj["terms"] if t["coeff"] % 2)


def _check_manifold(label: str, got) -> str | None:
    poly, numbers = got
    n = poly.n
    for (i, j), (is_poly, integral, zero, constant) in numbers.items():
        degree = i + 2 * j
        if not (is_poly and integral):
            return f"c1^{i} c2^{j} is not an integral polynomial"
        if degree < n and not zero:
            return f"c1^{i} c2^{j} has degree {degree} < {n} but is nonzero"
        if degree == n and constant is None:
            return f"c1^{i} c2^{j} has degree {n} but is not a number"
    if label.startswith("standard"):
        shape = json.loads(label[len("standard"):])
        for (i, j), want in oracle.cp_product_chern_numbers(shape).items():
            got_c = numbers[(i, j)][3]
            if Fraction(got_c) != want:
                return f"c1^{i} c2^{j} = {got_c}, cohomology ring gives {want}"
    return None


def _check_localize(answers: dict) -> dict[str, str | None]:
    out = {}
    for label, got in answers.items():
        if isinstance(got, Exception):
            out[label] = f"raised {got!r}"
        elif label.startswith(("standard", "random")):
            out[label] = _check_manifold(label, got)
        elif label.startswith("integrality_z"):
            out[label] = None if all(got) else "a signed integrality check failed"
        elif label.startswith("Gf2IntegralityTable"):
            out[label] = None
        elif label.startswith("passes:kernel"):
            out[label] = None if all(got) else "a kernel element failed a partition"
        elif label.startswith("passes:other"):
            out[label] = None if all(isinstance(x, bool) for x in got) else "not a verdict"
        elif label.startswith("reference"):
            table = answers.get(label.replace("reference", "passes"))
            out[label] = None if table == got else "table and reference disagree"
        else:
            out[label] = _check_classes(got)
    return out


def _check_classes(got: dict) -> str | None:
    a, ab = _z_terms(got["a"].polynomial), _z_terms(got["ab"].polynomial)
    reduced_a, reduced_ab = (_gf2_terms(got[k].polynomial) for k in ("reduced_a", "reduced_ab"))
    if not got["swap_is_ba"]:
        return "swap_conjugate(a*b) != b*a"
    if reduced_ab != _gf2_terms(got["product_of_reduced"].polynomial):
        return "reduce is not multiplicative"
    if reduced_a != oracle.mod2(a):
        return "reduce disagrees with coordinate-wise reduction"
    if reduced_ab != oracle.mod2(ab):
        return "reduce(a*b) disagrees with coordinate-wise reduction"
    if not oracle.in_z_kernel(ab):
        return "a*b is not in the integer kernel"
    return None


# ---------------------------------------------------------------------------
# cli: a seeded script of cold CLI invocations


def cli_script(seed: int, workdir: str) -> list[dict]:
    """Invocations with their expected stdout, built in-process.

    Each entry has ``argv`` (after ``python -m bordismkit.cli``), optional
    ``stdin`` text or ``stdin_from`` (index of an earlier invocation whose
    actual stdout is piped in), ``expected`` stdout text, and ``problem``:
    None unless the in-process answer already disagrees with an
    independent derivation.
    """
    import bordismkit as bk
    from bordismkit import jsonio

    rng = random.Random(seed)
    dumps = jsonio.canonical_dumps
    script: list[dict] = []

    def add(argv, expected, stdin=None, stdin_from=None, problem=None):
        script.append({"argv": argv, "stdin": stdin, "stdin_from": stdin_from,
                       "expected": expected, "problem": problem})

    def artifact(name: str, obj) -> str:
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dumps(obj))
        return path

    def as_read(polytope, coloring):
        # the CLI computes on the decoded artifact, whose vertex order is the
        # canonical one; the torus-graph orientation follows vertex order
        return jsonio.polytope_from_obj(jsonio.parse_text(
            dumps(jsonio.polytope_to_obj(polytope, coloring))))

    for n in (3, 4):
        dim = bk.kernel_space(n).dim
        add(["dim", "--n", str(n)], dumps({"dim": dim}),
            problem=None if dim == oracle.kernel_dim(n) else f"dim {dim}")

    # a random kernel element over GF(2): in the image
    g = bk.Gf2Polynomial(3, [], space=bk.PRIMAL)
    for b in bk.kernel_space(3).basis:
        if rng.random() < 0.5:
            g = g + b
    ok, reason = bk.in_image_verdict(g)
    add(["check", artifact("check.json", jsonio.polynomial_to_obj(g))],
        dumps({"in_image": ok, "reason": reason}),
        problem=None if ok else "a kernel element is not in the image")

    # a random faithful integer polynomial: dual twice, differential, reduce
    window = [m for m in itertools.combinations(
        [c for c in itertools.product((-1, 0, 1), repeat=3) if any(c)], 3)
        if oracle.det([list(c) for c in m]) in (1, -1)]
    terms = [(m, rng.choice((-2, -1, 1, 2))) for m in rng.sample(window, 6)]
    z = bk.ext_polynomial(3, terms)
    z_text = dumps(jsonio.polynomial_to_obj(z))
    first = len(script)
    add(["dual", "-"], dumps(jsonio.polynomial_to_obj(bk.dual(z))), stdin=z_text)
    add(["dual", "-"], z_text, stdin_from=first)
    add(["diff", artifact("diff.json", jsonio.polynomial_to_obj(z))],
        dumps(jsonio.polynomial_to_obj(bk.differential(z))))
    reduced = bk.mod2_reduce(z)
    add(["reduce", artifact("reduce.json", jsonio.polynomial_to_obj(z))],
        dumps(jsonio.polynomial_to_obj(reduced)),
        problem=None if _gf2_terms(reduced) == oracle.mod2(_z_terms(z))
        else "mod-2 reduction disagrees with coordinate-wise reduction")

    # a random torus manifold over the 3-simplex (its polynomial never
    # cancels): torus polynomial and Chern sweep
    shape = (3,)
    polytope, coloring = as_read(bk.product_of_simplices(shape),
                                 bk.random_z_coloring(shape, rng))
    torus = bk.torus_polynomial(bk.torus_graph_from_pair(polytope, coloring))
    add(["torus-poly", artifact("polytope.json",
                                jsonio.polytope_to_obj(polytope, coloring))],
        dumps(jsonio.polynomial_to_obj(torus)))
    add(["chern", artifact("chern.json", jsonio.polynomial_to_obj(torus))],
        dumps(_chern_sweep(bk.FixedPointData.from_polynomial(torus))))

    # a random GF(2) coloring of a rank-3 shape
    shape = rng.choice(oracle.partitions(3))
    polytope = bk.product_of_simplices(shape)
    polytope, gf2_coloring = as_read(polytope, bk.random_gf2_coloring(polytope, rng))
    add(["poly-of-polytope", artifact("gf2polytope.json",
                                      jsonio.polytope_to_obj(polytope, gf2_coloring))],
        dumps(jsonio.polynomial_to_obj(bk.coloring_polynomial(polytope, gf2_coloring))))

    gens = bk.bott_generators(3)
    polys = [gen.polynomial for gen in gens]
    rank = bk.dual_span_rank(polys, 3)
    kernel_dim = bk.kernel_space(3).dim
    add(["generators", "--n", "3"], dumps({
        "n": 3, "count": len(gens), "kernel_dim": kernel_dim,
        "spanning_rank": rank, "spans_kernel": rank == kernel_dim,
        "generators": [jsonio.polynomial_to_obj(p) for p in polys]}),
        problem=None if rank == oracle.kernel_dim(3) else f"span rank {rank}")
    return script


def _chern_sweep(data) -> dict:
    import bordismkit as bk

    def number(value):
        f = Fraction(value)
        return int(f) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"

    cap = 2 * data.n
    numbers = []
    for i in range(cap + 1):
        for j in range((cap - i) // 2 + 1):
            if j and data.n < 2:
                continue
            r = bk.equivariant_chern_number(data, i, j)
            numbers.append({"i": i, "j": j, "polynomial": r.is_polynomial,
                            "integral": r.integral,
                            "constant": None if r.constant is None else number(r.constant)})
    return {"degree_bound": cap, "n": data.n, "numbers": numbers}
