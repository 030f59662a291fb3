"""Bundled verification suite: ten self-contained checks over the library.

Each criterion is a function returning (passed, detail); ``run_all`` executes
them in order and prints one PASS/FAIL line per criterion.  All randomness is
seeded, so the suite is deterministic.  The CLI ``verify`` verb and the test
suite both drive it.
"""

from __future__ import annotations

import random
import time
from typing import Callable, NamedTuple, TextIO

from . import algebra, bordism, bott, gf2, kernels, mvpoly
from .algebra import Char, ExtPolynomial, Gf2Polynomial, Monomial
from .bordism import BordismClass, UNITARY, UNORIENTED
from .graphs import (graph_coloring_polynomial, one_skeleton,
                     torus_graph_from_pair, torus_polynomial)
from .localization import (FixedPointData, Gf2IntegralityTable,
                           SymmetricFunction, equivariant_chern_number,
                           integrality_check_gf2)
from .polytopes import (Coloring, coloring_polynomial, connected_sum, product,
                        product_of_simplices, random_gf2_coloring,
                        random_unimodular_matrix, simplex, standard_z_coloring)


class CriterionResult(NamedTuple):
    index: int
    name: str
    passed: bool
    detail: str
    seconds: float


def format_line(r: CriterionResult) -> str:
    status = "PASS" if r.passed else "FAIL"
    return f"{status}  {r.index:2d} {r.name} ({r.seconds:.2f}s): {r.detail}"


# ---------------------------------------------------------------------------
# shared construction helpers

RP2_COLORING = Coloring("gf2", {0: (1, 0), 1: (0, 1), 2: (1, 1)})


def _torus_class(factors: tuple[int, ...]) -> BordismClass:
    """Unitary class of a product of complex projective spaces CP^k."""
    p = product_of_simplices(factors)
    g = torus_graph_from_pair(p, standard_z_coloring(factors))
    return BordismClass(UNITARY, torus_polynomial(g))


def _rp2_class() -> BordismClass:
    poly = algebra.dual(coloring_polynomial(simplex(2), RP2_COLORING))
    return BordismClass(UNORIENTED, poly)


def _random_faithful_gf2(n: int, monos: list[Monomial], rng: random.Random,
                         max_support: int) -> Gf2Polynomial:
    """A sum of distinct monomials of ``monos``, all faithful of rank n."""
    picked = rng.sample(monos, rng.randint(1, min(max_support, len(monos))))
    return Gf2Polynomial(n, picked, space=algebra.PRIMAL)


def _random_kernel_gf2(space: kernels.KernelSpace, rng: random.Random) -> Gf2Polynomial:
    while True:
        out = Gf2Polynomial(space.n, (), space=algebra.PRIMAL)
        for b in space.basis:
            if rng.random() < 0.5:
                out = out + b
        if not out.is_zero():
            return out


def _random_ext(n: int, rng: random.Random) -> ExtPolynomial:
    terms = []
    for _ in range(rng.randint(1, 6)):
        degree = rng.randint(0, n + 2)
        mono = tuple(tuple(rng.randint(-2, 2) for _ in range(n))
                     for _ in range(degree))
        if any(not any(c) for c in mono):
            continue
        terms.append((mono, rng.randint(-3, 3)))
    return ExtPolynomial(n, terms, space=algebra.PRIMAL)


def _random_faithful_ext(n: int, rng: random.Random) -> ExtPolynomial:
    terms = []
    for _ in range(rng.randint(1, 5)):
        rows = random_unimodular_matrix(n, rng)
        mono = tuple(tuple(r) for r in rows)
        terms.append((mono, rng.choice((-3, -2, -1, 1, 2, 3))))
    p = ExtPolynomial(n, terms, space=algebra.PRIMAL)
    return p if not p.is_zero() else _random_faithful_ext(n, rng)


def _random_unitary_class(n: int, rng: random.Random,
                          window: kernels.WindowKernel) -> BordismClass:
    poly = ExtPolynomial(n, {}, space=algebra.PRIMAL)
    for b in window.basis:
        if rng.random() < min(1.0, 3.0 / max(len(window.basis), 1)):
            poly = poly + b.scale(rng.choice((-2, -1, 1, 2)))
    return BordismClass(UNITARY, poly)


def _aligned_coloring(l2: Coloring, n: int, basis_from: list[Char],
                      basis_to: list[Char]) -> Coloring:
    """Recolor so the facets colored by ``basis_from`` get ``basis_to`` by
    x ↦ Σ_k (φ_k·x)·basis_to[k], φ the dual basis of basis_from; a linear
    isomorphism preserves the coloring condition."""
    pairs = [(gf2.pack(phi), gf2.pack(to)) for phi, to
             in zip(Gf2Polynomial._dual_rows(basis_from, n)[0], basis_to)]
    aligned = {}
    for f, c in l2.map.items():
        x, y = gf2.pack(c), 0
        for phi, to in pairs:
            if (phi & x).bit_count() & 1:
                y ^= to
        aligned[f] = gf2.unpack(y, n)
    return Coloring("gf2", aligned)


# ---------------------------------------------------------------------------
# criteria


def dimension_golden_numbers() -> tuple[bool, str]:
    want = {1: 0, 2: 1, 3: 13, 4: 510}
    got = {}
    seconds = {}
    for n in want:
        t0 = time.perf_counter()
        got[n] = kernels.kernel_space(n).dim
        seconds[n] = time.perf_counter() - t0
    ok = got == want and seconds[4] < 10.0
    detail = (f"computed dims {got} vs published {want}; "
              f"n=4 in {seconds[4]:.2f}s (budget 10s)")
    return ok, detail


def generator_spanning() -> tuple[bool, str]:
    want = {3: 13, 4: 510}
    got = {}
    full = {}
    t4 = 0.0
    for n in want:
        dim = kernels.kernel_space(n).dim
        t0 = time.perf_counter()
        report = bott.spanning_rank(n, target=dim)
        if n == 4:
            t4 = time.perf_counter() - t0
        got[n] = report.rank
        full[n] = report.rank == dim
    ok = got == want and t4 < 300.0
    detail = (f"computed ranks {got} vs published {want}; rank equals kernel "
              f"dim (duals span the full kernel): {full}; n=4 in {t4:.1f}s "
              f"(budget 300s)")
    return ok, detail


def rp2_chain() -> tuple[bool, str]:
    p = simplex(2)
    poly = coloring_polynomial(p, RP2_COLORING)
    g = algebra.dual(poly)
    if not algebra.in_image(g):
        return False, "dual of the colored-simplex polynomial fails in_image"
    skel = graph_coloring_polynomial(one_skeleton(p, RP2_COLORING))
    if g != skel:
        return False, "dual polynomial differs from the 1-skeleton polynomial"
    data = FixedPointData.from_polynomial(g)
    parts = [()] + mvpoly.partitions_up_to(6, 2)
    bad = [mu for mu in parts
           if not integrality_check_gf2(data, SymmetricFunction((mu,)))]
    if bad:
        return False, f"integrality fails for partitions {bad}"
    return True, ("dual passes in_image, equals the 1-skeleton polynomial, "
                  f"and is integral for all {len(parts)} monomial symmetric "
                  "functions of degree <= 6")


def equivalence_sampling() -> tuple[bool, str]:
    n = 3
    rng = random.Random(20260818)
    space = kernels.kernel_space(n)
    parts = [()] + mvpoly.partitions_up_to(2 * n, n)
    table = Gf2IntegralityTable(n, parts)
    faithful = algebra.all_faithful_monomials_gf2(n)
    samples = ([_random_kernel_gf2(space, rng) for _ in range(100)]
               + [_random_faithful_gf2(n, faithful, rng, 8) for _ in range(100)])
    forward_breaks = 0
    converse_misses = 0
    members = 0
    for i, g in enumerate(samples):
        member = algebra.in_image(g)
        integral = all(table.passes(g, mu) for mu in parts)
        if member:
            members += 1
            if not integral:
                forward_breaks += 1
        elif integral:
            converse_misses += 1
        if i % 40 == 0:  # tie the batch table to the reference checker
            data = FixedPointData.from_polynomial(g)
            for mu in parts:
                if (integrality_check_gf2(data, SymmetricFunction((mu,)))
                        != table.passes(g, mu)):
                    return False, "batch table disagrees with integrality_check_gf2"
    ok = forward_breaks == 0
    detail = (f"{len(samples)} samples ({members} in image), {len(parts)} "
              f"symmetric functions each; forward breaks: {forward_breaks}; "
              f"bounded-degree converse misses (logged, not asserted): "
              f"{converse_misses}")
    return ok, detail


def formula_properties() -> tuple[bool, str]:
    rng = random.Random(1482)
    shapes = {1: [(1,)], 2: [(2,), (1, 1)], 3: [(3,), (2, 1), (1, 1, 1)]}
    for trial in range(50):
        n1 = rng.randint(1, 3)
        n2 = rng.randint(1, 4 - n1)
        p1 = product_of_simplices(rng.choice(shapes[n1]))
        p2 = product_of_simplices(rng.choice(shapes[n2]))
        l1 = random_gf2_coloring(p1, rng)
        l2 = random_gf2_coloring(p2, rng)
        both = Coloring("gf2", {
            **{f: c + (0,) * n2 for f, c in l1.map.items()},
            **{f + p1.num_facets: (0,) * n1 + c for f, c in l2.map.items()},
        })
        lhs = coloring_polynomial(product(p1, p2), both)
        g1 = algebra.embed_chars(coloring_polynomial(p1, l1), n1 + n2, 0)
        g2 = algebra.embed_chars(coloring_polynomial(p2, l2), n1 + n2, n1)
        if lhs != g1.wedge(g2):
            return False, f"product formula fails on trial {trial}"
    for trial in range(50):
        n = rng.randint(2, 3)
        p1 = product_of_simplices(rng.choice(shapes[n]))
        p2 = product_of_simplices(rng.choice(shapes[n]))
        l1 = random_gf2_coloring(p1, rng)
        l2 = random_gf2_coloring(p2, rng)
        v1 = rng.choice(p1.vertices)
        v2 = rng.choice(p2.vertices)
        f1s, f2s = sorted(v1), sorted(v2)
        l2a = _aligned_coloring(l2, n, [l2.map[f] for f in f2s],
                                [l1.map[f] for f in f1s])
        summed = connected_sum(p1, v1, p2, v2, dict(zip(f1s, f2s)))
        cmap = dict(l1.map)
        merged = set(f2s)
        nxt = p1.num_facets
        for f in range(p2.num_facets):
            if f not in merged:
                cmap[nxt] = l2a.map[f]
                nxt += 1
        if summed.num_facets != nxt:
            return False, f"facet bookkeeping broke on trial {trial}"
        lhs = coloring_polynomial(summed, Coloring("gf2", cmap))
        rhs = coloring_polynomial(p1, l1) + coloring_polynomial(p2, l2a)
        if lhs != rhs:
            return False, f"connected-sum formula fails on trial {trial}"
    return True, ("product and connected-sum formulas hold on 50 randomly "
                  "colored polytope pairs each (total rank <= 4)")


def unitary_oracles() -> tuple[bool, str]:
    for factors in ((1,), (1, 1), (2,)):
        p = product_of_simplices(factors)
        g = torus_polynomial(torus_graph_from_pair(p, standard_z_coloring(factors)))
        if not algebra.in_image_unitary(g):
            return False, f"torus polynomial of shape {factors} fails in_image_unitary"
    rng = random.Random(61)
    for trial in range(1000):
        n = rng.randint(1, 4)
        p = _random_ext(n, rng)
        if not algebra.differential(algebra.differential(p)).is_zero():
            return False, f"d(d(p)) != 0 on trial {trial}"
    faithful = {n: algebra.all_faithful_monomials_gf2(n) for n in range(1, 5)}
    for trial in range(1000):
        n = rng.randint(1, 4)
        q = (_random_faithful_ext(n, rng) if trial % 2
             else _random_faithful_gf2(n, faithful[n], rng, 6))
        if algebra.dual(algebra.dual(q)) != q:
            return False, f"dual not involutive on trial {trial}"
    return True, ("CP¹, CP¹×CP¹, CP² torus polynomials pass in_image_unitary; "
                  "d∘d = 0 on 1000 random exterior polynomials; dual is "
                  "involutive on 1000 random faithful inputs")


def localization_numbers() -> tuple[bool, str]:
    t0 = time.perf_counter()
    cp1 = FixedPointData.from_polynomial(_torus_class((1,)).polynomial)
    cp2 = FixedPointData.from_polynomial(_torus_class((2,)).polynomial)
    got = (equivariant_chern_number(cp1, 1, 0).constant,
           equivariant_chern_number(cp2, 2, 0).constant,
           equivariant_chern_number(cp2, 0, 1).constant)
    seconds = time.perf_counter() - t0
    ok = got == (2, 9, 3) and seconds < 1.0
    return ok, (f"CP¹ (1,0) = {got[0]}, CP² (2,0) = {got[1]}, CP² (0,1) = "
                f"{got[2]} (want 2, 9, 3) in {seconds:.3f}s (budget 1s)")


def fixed_point_lower_bound() -> tuple[bool, str]:
    floors = {}
    bounds = {}
    for n in (1, 2, 3):
        bounds[n] = (n + 1) // 2 + 1
        floors[n] = kernels.support_floor(n, 2)
        if floors[n] < bounds[n]:
            return False, (f"n={n}: weight-bound-2 window admits kernel "
                           f"elements of support {floors[n]} < {bounds[n]}")
    return True, (f"row argument over weight-bound-2 windows (each row d(m*) is "
                  f"±1 on the n deletions of m*, which fix m* for n >= 2): support "
                  f"floors {floors} meet the bounds {bounds}")


def reduction_homomorphism() -> tuple[bool, str]:
    rng = random.Random(41)
    win1 = kernels.kernel_sample_unitary(1, 2)
    win2 = kernels.kernel_sample_unitary(2, 1)
    for trial in range(100):
        win = win1 if trial % 2 else win2
        a = _random_unitary_class(win.n, rng, win)
        b = _random_unitary_class(win.n, rng, win)
        if bordism.reduce(bordism.add(a, b)) != bordism.add(
                bordism.reduce(a), bordism.reduce(b)):
            return False, f"reduce not additive on trial {trial}"
        c = _random_unitary_class(1, rng, win1)
        if bordism.reduce(bordism.multiply(a, c)) != bordism.multiply(
                bordism.reduce(a), bordism.reduce(c)):
            return False, f"reduce not multiplicative on trial {trial}"
    if bordism.reduce(_torus_class((2,))) != _rp2_class():
        return False, "reduce of the CP² class is not the RP² class"
    probe = bordism.surjectivity_probe(2, weight_bound=1)
    if not probe.full_coverage:
        return False, ("surjectivity probe misses part of the rank-2 kernel: "
                       f"{probe.hits}/{probe.kernel_dim}")
    return True, ("additive and multiplicative on 100 random class pairs; "
                  "reduce(CP² class) = RP² class; preimages found for a "
                  "spanning set of the rank-2 kernel within weight bound 1 "
                  f"({probe.hits}/{probe.kernel_dim})")


def noncommutativity_witness() -> tuple[bool, str]:
    rng = random.Random(97)
    win1 = kernels.kernel_sample_unitary(1, 2)
    win2 = kernels.kernel_sample_unitary(2, 1)
    space2 = kernels.kernel_space(2)
    space3 = kernels.kernel_space(3)
    for trial in range(100):
        if trial % 2:
            a = _random_unitary_class(1, rng, win1)
            b = _random_unitary_class(2, rng, win2)
        else:
            a = BordismClass(UNORIENTED, _random_kernel_gf2(space2, rng))
            b = BordismClass(UNORIENTED, _random_kernel_gf2(space3, rng))
        if bordism.multiply(a, b) != bordism.swap_conjugate(
                bordism.multiply(b, a), b.n):
            return False, f"swap-conjugacy fails on trial {trial}"
    a = _torus_class((1,))
    b = _torus_class((2,))
    ab = bordism.multiply(a, b)
    ba = bordism.multiply(b, a)
    if ab == ba:
        return False, "CP¹ and CP² classes commute unexpectedly"
    if ab != bordism.swap_conjugate(ba, b.n):
        return False, "swap-conjugacy fails on the CP¹/CP² witness"
    return True, ("multiply(a,b) = swap_conjugate(multiply(b,a)) on 100 "
                  "random class pairs; CP¹×CP² ≠ CP²×CP¹ witnesses "
                  "noncommutativity at rank split 1+2")


CRITERIA: tuple[tuple[str, Callable[[], tuple[bool, str]]], ...] = (
    ("dimension-golden-numbers", dimension_golden_numbers),
    ("generator-spanning", generator_spanning),
    ("rp2-chain", rp2_chain),
    ("equivalence-sampling", equivalence_sampling),
    ("formula-properties", formula_properties),
    ("unitary-oracles", unitary_oracles),
    ("localization-numbers", localization_numbers),
    ("fixed-point-lower-bound", fixed_point_lower_bound),
    ("reduction-homomorphism", reduction_homomorphism),
    ("noncommutativity-witness", noncommutativity_witness),
)


def run_criterion(index: int) -> CriterionResult:
    """Run criterion ``index`` (1-based); a crash counts as a failure."""
    name, fn = CRITERIA[index - 1]
    t0 = time.perf_counter()
    try:
        passed, detail = fn()
    except Exception as exc:
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    return CriterionResult(index, name, passed, detail, time.perf_counter() - t0)


def run_all(stream: TextIO | None = None) -> list[CriterionResult]:
    results = []
    for index in range(1, len(CRITERIA) + 1):
        r = run_criterion(index)
        results.append(r)
        if stream is not None:
            print(format_line(r), file=stream, flush=True)
    return results
