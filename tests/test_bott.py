"""Generator enumeration over products of simplices and its span."""

import itertools
import json
import math
import random
import re
import subprocess
import sys
import time
from decimal import Decimal, localcontext

import elimination_oracles
import pytest

from bordismkit import algebra, bott, gf2, kernels, mvpoly
from bordismkit.algebra import DUAL, Gf2Polynomial
from bordismkit.errors import ResourceLimitError, ValidationError
from bordismkit.polytopes import (Coloring, coloring_polynomial,
                                  product_of_simplices)

# rank -> (generators, distinct polynomials, rank of the span of their duals);
# at n = 3 two distinct colorings of distinct shapes share one polynomial
GENERATOR_COUNTS = {1: (1, 1, 0), 2: (2, 2, 1), 3: (51, 50, 13)}


def test_partitions_order():
    assert bott.partitions(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_partitions_are_the_one_walk_in_mvpoly():
    assert bott.partitions is mvpoly.partitions
    assert mvpoly.partitions(0) == [()]
    assert mvpoly.partitions_up_to(4, 2) == [(1,), (2,), (1, 1), (3,), (2, 1),
                                             (4,), (3, 1), (2, 2)]


def test_no_enumerated_basis_is_inverted(dual_basis_calls):
    # kernel_space reads the 840 rank-4 duals off the basis search's
    # cofactors, and the orbit walk keys polynomials by their own monomials
    kernels.kernel_space(4)
    assert dual_basis_calls[2] == 0
    assert bott.spanning_rank(4, target=511).rank == 511
    assert dual_basis_calls[2] == 0


def test_the_span_builds_no_monomial(monkeypatch):
    # spanning_rank and dual_span_rank read key bits only; the faithful
    # monomials are built where a key becomes a polynomial again
    calls = []
    real = algebra.BasisSearch.monomials
    monkeypatch.setattr(algebra.BasisSearch, "monomials",
                        lambda self: calls.append(self.n) or real(self))
    polys = [g.polynomial for g in bott.bott_generators(3)]
    assert calls == [3]
    assert bott.spanning_rank(4).rank == 511
    assert bott.dual_span_rank(polys, 3) == 13
    assert calls == [3]


def test_the_walk_reads_the_one_default_cap(monkeypatch):
    # the walk has no cap constant of its own: kernels.DEFAULT_MAX_N moves it
    assert not hasattr(bott, "DEFAULT_MAX_N")
    monkeypatch.setattr(kernels, "DEFAULT_MAX_N", 2)
    for call in (lambda: bott.spanning_rank(3), lambda: bott.bott_generators(3)):
        with pytest.raises(ResourceLimitError, match=r"cap n <= 2; .*max_n=3"):
            call()
    assert bott.spanning_rank(3, max_n=3).rank == 13


def _dual_keyed_walk(n):
    """The orbit walk keyed as it was before it stopped dualizing, with the
    monomial of each key bit: bit i of a key is the dual of the i-th faithful
    monomial, from the GF(2) ring's dual-basis hook."""
    faithful = elimination_oracles.faithful_monomials_gf2(n)
    duals = [algebra.sort_monomial(Gf2Polynomial._dual_rows(m, n)[0])[1] for m in faithful]
    walk = bott._OrbitWalk(n)
    walk.bit_of = {bott._mask(m): 1 << i for i, m in enumerate(duals)}
    return walk, duals


# rank -> keys the closure folds: in full, and up to the kernel dimension
CLOSURE_FOLDS = {1: (1, 1), 2: (7, 1), 3: (70, 35), 4: (2162, 1541)}


def _closure(walk):
    """The accumulator after the walk's full closure, and its rank-raising keys."""
    acc = gf2.RankAccumulator()
    raising = []
    for key in walk.closure(acc):
        if acc.rank > len(raising):
            raising.append(key)
    return acc, raising


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_walk_matches_the_dual_keyed_oracle(n):
    walk, duals = _dual_keyed_walk(n)
    want = list(walk)
    got = list(bott.iter_bott_generators(n))
    assert len(got) == len(want)
    # the masks read off the search's character ids are the monomials' own
    monomials = algebra.all_faithful_monomials_gf2(n)
    assert bott._key_bits(n) == {bott._mask(m): 1 << i for i, m in enumerate(monomials)}
    bit = {m: 1 << i for i, m in enumerate(monomials)}
    old, new = gf2.RankAccumulator(), gf2.RankAccumulator()
    ranks = []
    for g, (polytope, colors, dual_key) in zip(got, want):
        assert g.polytope == polytope
        assert g.coloring.map == {f: gf2.unpack(c, n) for f, c in enumerate(colors)}
        assert g.polynomial.terms == {duals[i]: 1 for i in gf2.bits(dual_key)}
        # dualizing permutes the key bits, so the rank after every fold agrees
        old.add(dual_key)
        new.add(sum(map(bit.__getitem__, g.polynomial.terms)))
        assert new.rank == old.rank
        ranks.append(old.rank)
    colorings = walk.representatives * bott.gl2_order(n)
    full, early = CLOSURE_FOLDS[n]
    assert bott.spanning_rank(n) == (n, ranks[-1], full, colorings, False)
    dim = kernels.kernel_space(n).dim
    assert bott.spanning_rank(n, target=dim)[:3] == (n, dim, early)
    # the closure's span holds every key of the full stream, in either keying,
    # and has its rank, so the two spans are equal
    for keyed, keys in ((_dual_keyed_walk(n)[0], [k for _, _, k in want]),
                        (bott._OrbitWalk(n), [sum(map(bit.__getitem__, g.polynomial.terms))
                                              for g in got])):
        acc, _ = _closure(keyed)
        assert acc.rank == ranks[-1]
        assert all(acc._reduce(key) == 0 for key in keys)
    reached = ranks.index(dim) + 1
    polys = [g.polynomial for g in got]
    for k in {1, max(1, reached // 2), reached}:
        assert bott.dual_span_rank(polys[:k], n) == ranks[k - 1]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rank_raising_keys_lie_in_the_kernel(n):
    # the span of the raising keys is the span of every generator, so rank =
    # kernel dim with every raising dual in the kernel proves generation
    space = kernels.kernel_space(n)
    monomials = algebra.all_faithful_monomials_gf2(n)
    acc, raising = _closure(bott._OrbitWalk(n))
    assert len(raising) == acc.rank == space.dim
    for key in raising:
        terms = {monomials[i]: 1 for i in gf2.bits(key)}
        assert space.contains(algebra.dual(Gf2Polynomial._of(n, DUAL, terms)))


def test_span_is_the_independence_test():
    assert gf2.span([]) == {0}
    assert gf2.span([0b011, 0b101]) == {0, 0b011, 0b101, 0b110}
    assert len(gf2.span([0b011, 0b101, 0b110])) == 4     # dependent
    assert len(gf2.span([0b001, 0b010, 0b100])) == 8


def test_generator_counts_and_span():
    for n, (count, distinct, rank) in GENERATOR_COUNTS.items():
        gens = bott.bott_generators(n)
        assert len(gens) == count
        polys = [g.polynomial for g in gens]
        assert len(set(polys)) == distinct
        assert bott.dual_span_rank(polys, n) == rank


@pytest.mark.parametrize("polynomial,message", [
    # one character is no basis of GF(2)^2
    (algebra.gf2_polynomial(2, [[(1, 0)]]), "non-faithful monomial ((1, 0),)"),
    (algebra.gf2_polynomial(2, [[(1, 0), (1, 1)], [(1, 0), (0, 1), (1, 1)]]),
     "non-faithful monomial ((0, 1), (1, 0), (1, 1))"),
    # two characters of GF(2)^3 pack like a basis of GF(2)^2
    (algebra.gf2_polynomial(3, [[(1, 0, 0), (0, 1, 0)]]), "polynomial has rank 3, expected 2"),
])
def test_dual_span_rank_refuses_what_it_cannot_key(polynomial, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        bott.dual_span_rank([polynomial], 2)


def test_generators_live_in_dual_space():
    for g in bott.bott_generators(2):
        assert g.polynomial.space == DUAL
        assert g.polytope.dim == 2
        assert set(g.coloring.map) == set(range(g.polytope.num_facets))


def test_generator_duals_land_in_kernel():
    space = kernels.kernel_space(3)
    for g in bott.bott_generators(3):
        assert space.contains(algebra.dual(g.polynomial))


def test_spanning_rank_matches_kernel_dim():
    for n in (2, 3):
        dim = kernels.kernel_space(n).dim
        report = bott.spanning_rank(n, target=dim)
        assert report.rank == dim
        assert report.n == n


def test_spanning_rank_early_stop_flag():
    # the scan must stop well short of a full pass
    report = bott.spanning_rank(3, target=1)
    assert report.rank >= 1
    assert report.stopped_early
    full = bott.spanning_rank(3)
    assert not full.stopped_early
    assert report.colorings < full.colorings
    assert full.colorings == 5208


def test_spanning_rank_checks_the_target_after_every_fold():
    # at n = 1 the one key is 0 and raises nothing, yet it reaches a target of 0
    assert bott.spanning_rank(1, target=0) == (1, 0, 1, 1, True)
    assert bott.spanning_rank(3, target=1)[:4] == (3, 1, 1, 168)


def test_spanning_rank_without_target_scans_everything():
    report = bott.spanning_rank(2)
    assert report.rank == 1
    assert not report.stopped_early
    assert report.distinct == 7


def test_generator_polynomials_equal_polytope_polynomials():
    from bordismkit.polytopes import coloring_polynomial
    for g in bott.bott_generators(2):
        assert g.polynomial == coloring_polynomial(g.polytope, g.coloring)


def test_enumeration_cap():
    with pytest.raises(ResourceLimitError):
        bott.spanning_rank(6)
    with pytest.raises(ResourceLimitError):
        next(bott.iter_bott_generators(6))


# shape -> (basis colorings, distinct coloring polynomials)
SHAPES = {
    (2,): (6, 1),         # triangle
    (1, 1): (18, 1),      # square
    (3,): (168, 7),       # tetrahedron
    (2, 1): (840, 43),    # prism
    (1, 1, 1): (4200, 1),  # cube
}

# rank 4: orbit representatives per shape, in partitions(4) order
RANK4_REPRESENTATIVES = {(4,): 1, (3, 1): 9, (2, 2): 7, (2, 1, 1): 69,
                         (1, 1, 1, 1): 543}


def test_gl2_order():
    assert [bott.gl2_order(n) for n in range(6)] == [1, 1, 6, 168, 20160, 9999360]


def test_orbit_counts_match_the_full_walk():
    # the oracle walks every basis coloring facet by facet; it is the
    # independent check of both the orbit count and the polynomial orbits
    for shape, (colorings, distinct) in SHAPES.items():
        p = product_of_simplices(shape)
        n = p.dim
        reps = list(bott.orbit_representatives(p))
        assert len(reps) * bott.gl2_order(n) == colorings
        full = elimination_oracles.gf2_colorings(p)
        assert len(full) == colorings
        assert len({coloring_polynomial(p, c) for c in full}) == distinct
        stream = [g for g in bott.iter_bott_generators(n) if g.polytope == p]
        assert len(stream) == distinct
        assert len({g.polynomial for g in stream}) == distinct


def test_representatives_are_lex_ordered_basis_colorings():
    for shape in SHAPES:
        p = product_of_simplices(shape)
        n = p.dim
        first = min(sorted(v) for v in p.vertices)
        reps = list(bott.orbit_representatives(p))
        assert reps == sorted(set(reps))
        for rep in reps:
            assert len(rep) == p.num_facets
            assert all(0 < c < 1 << n for c in rep)
            assert [rep[f] for f in first] == [1 << j for j in range(n)]
            coloring = Coloring("gf2", {f: gf2.unpack(c, n) for f, c in enumerate(rep)})
            coloring.validate(p)


def test_shuffled_walk_yields_the_same_representatives():
    # an rng only reorders each free facet's colors
    rng = random.Random(11)
    for shape in SHAPES:
        p = product_of_simplices(shape)
        reps = list(bott.orbit_representatives(p))
        for _ in range(3):
            shuffled = list(bott.orbit_representatives(p, rng))
            assert sorted(shuffled) == reps, shape


def test_stream_witnesses_carry_their_polynomials():
    for g in bott.bott_generators(3):
        assert g.polynomial.space == DUAL
        assert g.polynomial == coloring_polynomial(g.polytope, g.coloring)


def test_rank_four_walk():
    for shape, count in RANK4_REPRESENTATIVES.items():
        p = product_of_simplices(shape)
        assert sum(1 for _ in bott.orbit_representatives(p)) == count
    assert sum(1 for _ in bott.iter_bott_generators(4)) == 18931
    full = bott.spanning_rank(4)
    assert full == bott.SpanningReport(n=4, rank=511, distinct=2162,
                                       colorings=629 * 20160, stopped_early=False)


def test_span_of_each_shape():
    # each shape's generators alone: the rank of their duals' span, and every
    # polynomial's term count against the parity of the shape's vertex
    # count prod(k_i + 1), read off the shape alone.  At rank 4 the shapes
    # with a part 1, whose vertex counts are even, together span 510, one
    # short of the kernel; (2, 2) alone, and (4) with (2, 1, 1), span all 511
    # (docs/decisions/0001, "Spans by shape")
    want = {2: {(2,): 1, (1, 1): 0},
            3: {(3,): 7, (2, 1): 13, (1, 1, 1): 0},
            4: {(4,): 168, (3, 1): 420, (2, 2): 511, (2, 1, 1): 510, (1, 1, 1, 1): 0}}
    for n, ranks in want.items():
        by_shape = {}
        walk = itertools.groupby(bott.iter_bott_generators(n), key=lambda g: g.polytope)
        for shape, (polytope, gens) in zip(bott.partitions(n), walk):   # the walk's order
            vertices = math.prod(k + 1 for k in shape)
            assert len(polytope.vertices) == vertices
            polys = by_shape[shape] = [g.polynomial for g in gens]
            assert {len(p.terms) % 2 for p in polys} == {vertices % 2}, shape
        assert {shape: bott.dual_span_rank(polys, n) for shape, polys in by_shape.items()} == ranks
    with_interval = [p for shape, polys in by_shape.items() if 1 in shape for p in polys]
    assert bott.dual_span_rank(with_interval, 4) == 510
    assert bott.dual_span_rank(by_shape[(4,)] + by_shape[(2, 1, 1)], 4) == 511


def test_spanning_rank_with_and_without_target():
    for n, dim in {1: 0, 2: 1, 3: 13, 4: 511}.items():
        assert bott.spanning_rank(n).rank == dim
        assert bott.spanning_rank(n, target=dim).rank == dim
    early = bott.spanning_rank(4, target=511)
    assert early.stopped_early
    assert early.distinct < 18931


def test_cap_messages_name_cap_estimate_and_override():
    for call in (lambda: bott.spanning_rank(5),
                 lambda: next(bott.iter_bott_generators(5))):
        with pytest.raises(ResourceLimitError) as exc:
            call()
        msg = str(exc.value)
        assert "cap n <= 4" in msg
        assert "up to 10^7.5 representative colorings" in msg
        assert "up to 10^14.5 basis colorings" in msg
        assert "pass max_n=5 to allow it" in msg
    with pytest.raises(ResourceLimitError, match="cap n <= 1.*max_n=2"):
        bott.spanning_rank(2, max_n=1)
    assert bott.spanning_rank(2, max_n=2).rank == 1


def test_cap_message_sums_only_the_last_factors():
    # the bound summed over all n factors of |GL(n,2)|, written out here;
    # the rest round to 1, so the message must not change
    log2 = math.log10(2)
    for n in range(5, 81):
        log_reps = n * n * log2 + math.log10(1 - 0.5 ** n)
        log_gl = sum(n * log2 + math.log10(1 - 0.5 ** (n - i)) for i in range(n))
        with pytest.raises(ResourceLimitError) as exc:
            bott.spanning_rank(n)
        assert (f"up to 10^{log_reps:.1f} representative colorings, standing for "
                f"up to 10^{log_reps + log_gl:.1f} basis colorings") in str(exc.value)


def test_huge_rank_refusals_print_only_the_digits_a_float_holds():
    # at n = 10^9 the log10 counts are about 3 x 10^17, where a float holds
    # 15 significant digits; each is written out here in 50-digit decimals
    # (Stirling's series for log10 k!) and rounded to those 15
    n = 10 ** 9

    def log10(x):
        return x.ln() / Decimal(10).ln()

    def log10_factorial(k):
        k = Decimal(k)
        ln = k * k.ln() - k + (Decimal(math.tau) * k).ln() / 2 + 1 / (12 * k)
        return ln / Decimal(10).ln()

    def log10_bases(k):
        # sum_{i<k} log10(1 - 2^(i-n)); the factors below 2^-200 add nothing
        tail = sum(log10(1 - Decimal(2) ** (i - n)) for i in range(max(0, k - 200), k))
        return k * n * log10(Decimal(2)) + tail - log10_factorial(k)

    with localcontext() as ctx:
        ctx.prec = 50
        reps = n * n * log10(Decimal(2)) + log10(1 - Decimal(2) ** -n)
        colorings = reps + log10_bases(n) + log10_factorial(n)
        matrix = log10_bases(n), log10_bases(n - 1)
    with pytest.raises(ResourceLimitError) as exc:
        kernels.kernel_space(n, max_n=4)
    assert "run over a 10^({:.15g}) x 10^({:.15g}) matrix".format(*matrix) in str(exc.value)
    with pytest.raises(ResourceLimitError) as exc:
        bott.spanning_rank(n)
    assert (f"up to 10^({reps:.15g}) representative colorings, standing for "
            f"up to 10^({colorings:.15g}) basis colorings") in str(exc.value)
    assert "10^(3.01029995663981e+17) representative" in str(exc.value)


def test_cap_refuses_a_huge_rank_at_once():
    start = time.perf_counter()
    r = subprocess.run([sys.executable, "-m", "bordismkit.cli", "generators",
                        "--n", "1000000000"], capture_output=True, text=True,
                       timeout=60)
    assert r.returncode == 1
    assert json.loads(r.stdout)["error"]["code"] == "resource-limit"
    assert time.perf_counter() - start < 30
