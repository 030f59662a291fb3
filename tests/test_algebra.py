"""Core polynomial algebra: canonicalization, dual, differential, membership."""

import itertools
import random

import elimination_oracles
import pytest

from bordismkit import (algebra, bordism, bott, graphs, intmat, kernels, localization,
                        mvpoly, polytopes)
from bordismkit.algebra import (DUAL, PRIMAL, ExtPolynomial, Gf2Polynomial,
                                ext_polynomial, gf2_polynomial)
from bordismkit.errors import ValidationError

# Hand-checked dual pairs: B = rows of A^{-T}, characters kept sorted.
#   [[1,0],[1,1]] is an involution over GF(2); its inverse-transpose has
#   rows (1,1) and (0,1).
DUAL_PAIR_GF2 = (((1, 0), (1, 1)), ((0, 1), (1, 1)))

# The CP^1 torus polynomial x - (-x); it is its own dual.
CP1 = ExtPolynomial(1, {((-1,),): -1, ((1,),): 1})

# The CP^2 torus polynomial and its hand-computed dual.
CP2 = ExtPolynomial(2, {((-1, 0), (-1, 1)): -1,
                        ((0, -1), (1, -1)): 1,
                        ((0, 1), (1, 0)): -1})
CP2_DUAL = ExtPolynomial(2, {((-1, -1), (0, 1)): -1,
                             ((-1, -1), (1, 0)): 1,
                             ((0, 1), (1, 0)): -1}, space=DUAL)

RP2_MONOS = [((0, 1), (1, 0)), ((0, 1), (1, 1)), ((1, 0), (1, 1))]


def random_gf2_faithful(n, rng, max_support=6):
    monos = algebra.all_faithful_monomials_gf2(n)
    k = rng.randint(1, min(max_support, len(monos)))
    return Gf2Polynomial(n, rng.sample(monos, k))


def random_ext(n, rng):
    terms = []
    for _ in range(rng.randint(1, 6)):
        deg = rng.randint(0, n + 2)
        mono = tuple(tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(deg))
        if any(not any(c) for c in mono):
            continue
        terms.append((mono, rng.randint(-4, 4)))
    return ExtPolynomial(n, terms)


# -- construction and canonical form ------------------------------------


def test_gf2_mod2_cancellation():
    p = gf2_polynomial(2, [RP2_MONOS[0], RP2_MONOS[0], RP2_MONOS[1]])
    assert p.monomials == {RP2_MONOS[1]}


def test_gf2_chars_sorted():
    p = gf2_polynomial(2, [[(1, 0), (0, 1)]])
    assert p.monomials == {((0, 1), (1, 0))}


def test_gf2_repeated_char_rejected():
    with pytest.raises(ValidationError):
        gf2_polynomial(2, [[(1, 0), (1, 0)]])


def test_gf2_zero_char_rejected():
    with pytest.raises(ValidationError):
        gf2_polynomial(2, [[(0, 0), (1, 0)]])


def test_ext_sign_folds_into_coefficient():
    # swapping two characters costs a sign
    swapped = ext_polynomial(2, [([(1, 0), (0, 1)], 1)])
    sorted_ = ext_polynomial(2, [([(0, 1), (1, 0)], -1)])
    assert swapped == sorted_


def test_ext_repeated_char_vanishes():
    p = ext_polynomial(2, [([(1, 2), (1, 2)], 5)])
    assert p.is_zero()


def test_ext_add_sub_scale():
    a = CP1 + CP1
    assert a == CP1.scale(2)
    assert (a - CP1) == CP1
    assert CP1.scale(0).is_zero()


def test_space_mismatch_rejected():
    p = Gf2Polynomial(2, RP2_MONOS, space=PRIMAL)
    q = Gf2Polynomial(2, RP2_MONOS, space=DUAL)
    with pytest.raises(ValidationError):
        p + q


def test_faithful_monomial_counts():
    assert len(algebra.all_faithful_monomials_gf2(1)) == 1
    assert len(algebra.all_faithful_monomials_gf2(2)) == 3
    assert len(algebra.all_faithful_monomials_gf2(3)) == 28


def test_faithful_monomials_match_the_pivot_dfs_oracle():
    for n in range(1, 5):
        assert (algebra.all_faithful_monomials_gf2(n)
                == elimination_oracles.faithful_monomials_gf2(n)), n


def test_basis_search_reads_one_gcd_test_for_both_rings():
    # the same characters searched over Z and over GF(2): (1,1),(1,-1) has
    # det -2, a basis of Q^2 but neither of Z^2 nor, reduced, of GF(2)^2
    chars = [(0, 1), (1, -1), (1, 0), (1, 1)]
    over_z = algebra.basis_search(chars, 2, 0)
    over_gf2 = algebra.basis_search(chars, 2, 2)
    assert over_z.kept == [((0, 1), -1), ((0, 2), -1), ((0, 3), -1),
                           ((1, 2), 1), ((2, 3), 1)]
    assert over_gf2.kept == over_z.kept
    assert ((1, 3), -2) not in over_z.kept
    # cofactors: v . x = det[prefix; x]
    assert over_z.cofactors == {(0,): (-1, 0), (1,): (1, 1), (2,): (0, 1), (3,): (-1, 1)}
    # a prefix with no unit gcd is pruned: (2, 2) has gcd 2, (1, 1) is odd
    assert algebra.basis_search([(1, 1), (2, 2)], 2, 0).cofactors == {(0,): (-1, 1)}
    assert algebra.basis_search([(2, 0), (0, 1)], 2, 2).cofactors == {(1,): (-1, 0)}


@pytest.mark.parametrize("search", [
    lambda: algebra.basis_search([], 0, 0), lambda: algebra.basis_search([], 0, 2),
    lambda: algebra.basis_search([(1,)], -1, 0),
    lambda: algebra.all_faithful_monomials_gf2(0),
    lambda: elimination_oracles.faithful_duals_gf2(0)])
def test_basis_search_needs_rank_at_least_one(search):
    # rank 0 used to fail with an IndexError inside the walk
    with pytest.raises(ValidationError, match="^rank n must be at least 1, got (0|-1)$"):
        search()


# -- dual ----------------------------------------------------------------


def gf2_dual(mono, n):
    """The sorted rows of the GF(2) ring's dual-basis hook."""
    return algebra.sort_monomial(Gf2Polynomial._dual_rows(mono, n)[0])[1]


def test_dual_monomial_frozen_pair():
    mono, want = DUAL_PAIR_GF2
    assert gf2_dual(mono, 2) == want
    assert gf2_dual(want, 2) == mono


def test_faithful_dual_table_is_the_involution_of_dual_monomial():
    for n in range(1, 5):
        duals = elimination_oracles.faithful_duals_gf2(n)
        assert list(duals) == algebra.all_faithful_monomials_gf2(n)
        for mono, star in duals.items():
            assert star == gf2_dual(mono, n)
            assert duals[star] == mono
        # the values are the enumerated monomials, not equal copies of them
        assert {id(m) for m in duals.values()} == {id(m) for m in duals}
    self_dual = [m for m, star in elimination_oracles.faithful_duals_gf2(4).items()
                 if m == star]
    assert len(self_dual) == 14


def test_dual_flips_space_tag():
    p = Gf2Polynomial(2, RP2_MONOS, space=PRIMAL)
    assert algebra.dual(p).space == DUAL
    assert algebra.dual(algebra.dual(p)).space == PRIMAL


def test_dual_cp1_self_dual():
    d = algebra.dual(CP1)
    assert d.terms == CP1.terms and d.space == DUAL


def test_dual_cp2_frozen():
    assert algebra.dual(CP2) == CP2_DUAL


def test_dual_requires_faithful():
    with pytest.raises(ValidationError):
        algebra.dual(gf2_polynomial(2, [[(1, 1)]]))  # degree 1 < n


@pytest.mark.parametrize("chars", [
    [(0, 1, 1), (1, 0, 0)],                        # 2 characters in rank 3
    [(1, 0, 0), (0, 1, 0)],
    [(0, 1, 1), (1, 0, 0), (0, 0, 1), (1, 1, 0)],  # 4 characters in rank 3
    [(2, 0, 0), (0, 1, 0), (0, 0, 1)],             # det 2
    [(1, 1, 0), (0, 1, 1), (1, 2, 1)],             # singular
])
def test_dual_z_needs_a_basis(chars):
    p = ext_polynomial(3, [(chars, 1)])
    with pytest.raises(ValidationError, match="non-faithful"):
        algebra.dual(p)
    assert not algebra.is_faithful(p)
    assert algebra.in_image_verdict(p) == (False, "not faithful")


def test_is_faithful_matches_the_det_and_rank_predicates():
    rng = random.Random(61)
    verdicts = {Gf2Polynomial: set(), ExtPolynomial: set()}
    for _ in range(400):
        n = rng.randint(1, 4)
        p = random_ext(n, rng)
        faithful_monos = algebra.all_faithful_monomials_gf2(n)
        monos = rng.sample(faithful_monos, min(len(faithful_monos), rng.randint(0, 4)))
        chars = algebra.nonzero_chars_gf2(n)
        for _ in range(rng.randint(0, 2)):  # wrong degrees and dependent characters
            monos.append(tuple(rng.sample(chars, min(len(chars), rng.randint(0, n + 1)))))
        q = Gf2Polynomial(n, monos)
        for poly, faithful in ((p, elimination_oracles.is_faithful_monomial_z),
                               (q, elimination_oracles.is_faithful_monomial_gf2)):
            want = all(faithful(m, n) for m in poly.terms)
            assert algebra.is_faithful(poly) == want, poly
            verdicts[type(poly)].add(want)
            if want:
                algebra.dual(poly)
            else:
                with pytest.raises(ValidationError):
                    algebra.dual(poly)
    assert all(v == {True, False} for v in verdicts.values())


def pairs_to_identity_mod2(chars, rows):
    """Row j of ``rows`` pairs to 1 with chars[j] and to 0 with the others, mod 2."""
    n = len(chars)
    return all(sum(a * b for a, b in zip(chars[i], rows[j])) % 2 == (i == j)
               for i in range(n) for j in range(n))


def gf2_tuples():
    """Every ordered n-tuple of nonzero GF(2) characters at n <= 3, and 5,000
    seeded ones at n = 4 and at n = 5."""
    for n in (1, 2, 3):
        for chars in itertools.product(algebra.nonzero_chars_gf2(n), repeat=n):
            yield n, chars
    rng = random.Random(30)
    for n in (4, 5):
        nonzero = algebra.nonzero_chars_gf2(n)
        for _ in range(5000):
            yield n, tuple(rng.choice(nonzero) for _ in range(n))


def test_gf2_hook_proves_exactly_the_bases():
    # the one elimination, read mod 2, against the oracle's own small rank
    verdicts = set()
    for n, chars in gf2_tuples():
        found = Gf2Polynomial._dual_rows(chars, n)
        basis = elimination_oracles.is_faithful_monomial_gf2(chars, n)
        assert (found is not None) == basis, chars
        verdicts.add(basis)
        if basis:
            rows, det = found
            assert det == 1
            assert all(v in (0, 1) for row in rows for v in row), chars
            assert pairs_to_identity_mod2(chars, rows), chars
    assert verdicts == {True, False}


def test_an_odd_determinant_is_a_basis_over_gf2_only():
    circulant = [[1, 1, 0, 1], [1, 1, 1, 0], [0, 1, 1, 1], [1, 0, 1, 1]]
    assert elimination_oracles.det(circulant) == -3
    assert intmat.dual_basis(circulant) is None
    rows, det = intmat.dual_basis(circulant, 2)
    assert det == 1
    assert pairs_to_identity_mod2(circulant, rows)
    chars = tuple(map(tuple, circulant))
    assert ExtPolynomial._dual_rows(chars, 4) is None
    assert Gf2Polynomial._dual_rows(chars, 4) == (rows, 1)


def test_every_basis_proof_goes_through_the_ring_hooks(monkeypatch, dual_basis_calls):
    # each elimination comes from the ``_dual_rows`` hook of its ring, keyed
    # by the ring's modulus, and the dual, colorings, both graph kinds and
    # fixed points all reach the hook; each action starts from an empty
    # proof memo, so it eliminates once per basis up to row order and duality
    calls = dict.fromkeys(("gf2", "z"), 0)
    for name, ring in (("gf2", Gf2Polynomial), ("z", ExtPolynomial)):
        def hook(chars, n, _real=ring._dual_rows, _name=name):
            calls[_name] += 1
            return _real(chars, n)
        monkeypatch.setattr(ring, "_dual_rows", staticmethod(hook))

    def reached(action, gf2_calls, z_calls, eliminations=None):
        calls.update(dict.fromkeys(calls, 0))
        dual_basis_calls.clear()
        algebra._PROOFS.clear()
        action()
        assert calls == {"gf2": gf2_calls, "z": z_calls}
        assert ((dual_basis_calls[2], dual_basis_calls[0])
                == (eliminations or (gf2_calls, z_calls)))

    rp2 = Gf2Polynomial(2, RP2_MONOS)
    rp2_coloring = polytopes.Coloring("gf2", {0: (1, 0), 1: (0, 1), 2: (1, 1)})
    triangle = polytopes.simplex(2)
    prism = polytopes.product_of_simplices((2, 1))
    lam = polytopes.standard_z_coloring((2, 1))
    # RP2's three bases are two up to duality: {(0,1), (1,1)} has the dual
    # {(1,0), (1,1)}, stored when the first is proved, so every action on
    # them makes three hook calls and two eliminations
    rp2_bases = (2, 0)
    reached(lambda: algebra.dual(rp2), 3, 0, rp2_bases)
    reached(lambda: algebra.dual(CP2), 0, 3)
    reached(lambda: rp2_coloring.vertex_duals(triangle), 3, 0, rp2_bases)
    reached(lambda: lam.vertex_duals(prism), 0, 6)
    skeleton = graphs.one_skeleton(triangle, rp2_coloring)
    torus = graphs.torus_graph_from_pair(prism, lam)
    reached(skeleton.validate, 3, 0, rp2_bases)
    reached(torus.validate, 0, 6)
    reached(lambda: localization.FixedPointData.from_polynomial(rp2), 3, 0, rp2_bases)
    # CP^2 twice over: three distinct points, each proved once
    reached(lambda: localization.FixedPointData.from_polynomial(CP2.scale(2)), 0, 3)


def _proof_memo_cases(rng, n, modulus):
    """Seeded n-row inputs for the proof memo, as (label, rows): a basis, its
    rows reversed, swapped, shuffled and negated, and inputs that are not
    bases or not square (over GF(2) some entries lie outside {0,1})."""
    base = [tuple(v % 2 if modulus else v for v in row)
            for row in polytopes.random_unimodular_matrix(n, rng)]
    swapped = [base[1], base[0]] + base[2:] if n > 1 else base
    doubled = [tuple(2 * v for v in base[0])] + base[1:]
    tripled = [tuple(3 * v for v in base[0])] + base[1:]
    return [
        ("basis", base),
        ("reversed", base[::-1]),
        ("swapped", swapped),
        ("shuffled", rng.sample(base, n)),
        ("negated", [tuple(-v for v in row) if rng.random() < 0.5 else row
                     for row in rng.sample(base, n)]),
        ("doubled row", doubled),
        ("tripled row", tripled),
        ("repeated row", [base[0]] + base[:-1]),
        ("ragged", base[:-1] + [base[-1][:-1]]),
        ("too few", base[:-1]),
        ("too many", base + [base[0]]),
    ]


@pytest.mark.parametrize("modulus", [2, 0])
def test_the_proof_memo_answers_as_the_elimination_does(modulus, dual_basis_calls):
    # _dual_rows keeps each proof per (sorted rows, modulus) and stores the
    # dual's entry after each elimination; in every row order, on a hit or a
    # miss, it must answer exactly as intmat.dual_basis on the caller's rows
    ring = {2: Gf2Polynomial, 0: ExtPolynomial}[modulus]
    rng = random.Random(3200 + modulus)
    seen = set()
    for n in range(1, 6):
        for _ in range(12):
            for label, rows in _proof_memo_cases(rng, n, modulus):
                want = intmat.dual_basis(rows, modulus) if len(rows) == n else None
                for _ in range(2):  # a miss or a hit, then a hit
                    assert ring._dual_rows(rows, n) == want, (label, rows)
                if want is None:
                    continue
                seen.add(label)
                # the answer's own dual is the input back, served by the
                # entry stored when the input was proved
                dual_rows, det = want
                back = intmat.dual_basis(dual_rows, modulus)
                dual_basis_calls.clear()
                assert ring._dual_rows(dual_rows, n) == back, (label, rows)
                assert dual_basis_calls == {}, (label, rows)
    assert {"basis", "swapped", "negated"} <= seen
    # a non-basis is kept as None, and over GF(2) an odd multiple of a row
    # is still a basis
    assert ("tripled row" in seen) == (modulus == 2)
    assert len(algebra._PROOFS) <= algebra.MAX_PROOFS


def test_repeated_rows_are_refused_with_no_elimination(dual_basis_calls):
    # the sort that orders the rows for the memo key finds the repeat
    for ring in (ExtPolynomial, Gf2Polynomial):
        assert ring._dual_rows([(0, 1), (0, 1)], 2) is None
    assert dual_basis_calls == {}


def test_a_proof_can_be_changed_by_its_caller():
    # every answer is a fresh list, so editing one changes no later answer
    for ring, chars in ((ExtPolynomial, ((0, 1), (1, 0))), (Gf2Polynomial, RP2_MONOS[1])):
        first = ring._dual_rows(chars, 2)
        first[0].reverse()
        again = ring._dual_rows(chars, 2)
        assert again == intmat.dual_basis(chars, ring.modulus)
        assert again[0] is not first[0]


def test_the_proof_memo_is_emptied_at_its_bound(monkeypatch):
    monkeypatch.setattr(algebra, "MAX_PROOFS", 8)
    algebra._PROOFS.clear()
    rng = random.Random(8)
    for _ in range(40):
        rows = polytopes.random_unimodular_matrix(3, rng)
        assert ExtPolynomial._dual_rows(rows, 3) == intmat.dual_basis(rows)
        assert len(algebra._PROOFS) <= 8
    algebra._PROOFS.clear()


def test_the_faithful_search_is_made_once_per_rank(dual_basis_calls):
    # the readers of the GF(2) basis search share one search per rank and
    # hand out fresh lists and dicts equal to a cold search's
    assert algebra.nonzero_chars_gf2(0) == algebra.nonzero_chars_gf2(-1) == []
    for n in range(1, 5):
        cold = algebra.basis_search(algebra.nonzero_chars_gf2(n), n, 2).monomials()
        cold_duals = {m: algebra.sort_monomial(intmat.dual_basis(m, 2)[0])[1] for m in cold}
        monomials = algebra.all_faithful_monomials_gf2(n)
        search = algebra._SEARCHES[n]
        duals = elimination_oracles.faithful_duals_gf2(n)
        assert algebra._SEARCHES[n] is search
        assert monomials == cold and list(duals) == cold and duals == cold_duals
        monomials.clear()
        duals.clear()
        assert algebra.all_faithful_monomials_gf2(n) == cold
        assert elimination_oracles.faithful_duals_gf2(n) == cold_duals
        kernels.kernel_space(n).basis
        bott._key_bits(n)
        assert algebra._SEARCHES[n] is search
    assert sorted(algebra._SEARCHES) == [1, 2, 3, 4]


@pytest.mark.parametrize("build", [
    lambda: ext_polynomial(2, [(((1.5, 0), (0, 1)), 1.5)]),
    lambda: ext_polynomial(2, [(((1, 0), (0, 1)), 1.5)]),
    lambda: ext_polynomial(2, [(((1.5, 0), (0, 1)), 1)]),
    lambda: gf2_polynomial(2, [[("1", 0), (0, 1)]]),
    lambda: polytopes.Coloring("z", {0: (1.7,), 1: (-1,)}),
    lambda: localization.FixedPointData("z", 1, [localization.FixedPoint(1, ((1.9,),))]),
    lambda: localization.FixedPointData("z", 1, [localization.FixedPoint(1.0, ((1,),))]),
    lambda: graphs.TorusGraph(1, 2, {(0, 1): (1.5,), (1, 0): (-1,)}),
    lambda: graphs.TorusGraph(1, 2, {(0, 1): (1,), (1, 0): (-1,)}, sigma=[1, -1.0]),
], ids=["ext coefficient and character", "ext coefficient", "ext character",
        "gf2 character", "coloring", "fixed-point weight", "fixed-point sign",
        "torus graph alpha", "torus graph sigma"])
def test_inexact_integers_are_refused(build):
    # an integer input is read by operator.index, so a float or a string is
    # refused, not truncated (1.5 -> 1) or parsed ("1" -> 1)
    with pytest.raises(ValidationError, match="must be an integer, got"):
        build()


def _integer_arguments():
    """(id, build, the message) for every integer argument read by
    ``exact_int``: 1.5 and "1" for each, and one below the bound where
    there is one."""
    segment = polytopes.simplex(1)
    empty = localization.FixedPointData("z", 2, [])
    zero = bordism.BordismClass.zero(bordism.UNITARY, 2)
    cases = [
        # (argument, build from the value, what the message names, bound)
        ("polytope dimension", lambda v: polytopes.SimplePolytope(v, 2, [[0], [1]]),
         "polytope dimension", 1),
        ("facet count", lambda v: polytopes.SimplePolytope(1, v, [[0], [1]]),
         "facet count", 0),
        ("vertex facet", lambda v: polytopes.SimplePolytope(1, 2, [[0], [v]]),
         "facet id", None),
        ("simplex", polytopes.simplex, "simplex dimension", 1),
        ("connected_sum vertex",
         lambda v: polytopes.connected_sum(segment, [v], segment, [0], {0: 0}),
         "facet id", None),
        ("connected_sum pairing",
         lambda v: polytopes.connected_sum(segment, [0], segment, [0], {v: 0}),
         "facet id", None),
        ("coloring facet", lambda v: polytopes.Coloring("z", {v: (1,), 1: (-1,)}),
         "facet id", None),
        ("random_unimodular_matrix",
         lambda v: polytopes.random_unimodular_matrix(v, random.Random(0)), "rank n", 1),
        ("ColoredGraph rank", lambda v: graphs.ColoredGraph(v, 2, {}), "rank n", 1),
        ("ColoredGraph vertex count", lambda v: graphs.ColoredGraph(1, v, {}),
         "vertex count", 0),
        ("ColoredGraph edge end",
         lambda v: graphs.ColoredGraph(1, 2, {frozenset((0, v)): (1,)}), "vertex id", None),
        ("TorusGraph rank", lambda v: graphs.TorusGraph(v, 2, {}), "rank n", 1),
        ("TorusGraph vertex count", lambda v: graphs.TorusGraph(1, v, {}),
         "vertex count", 0),
        ("TorusGraph edge end",
         lambda v: graphs.TorusGraph(1, 2, {(0, v): (1,), (1, 0): (-1,)}), "vertex id", None),
        ("polynomial rank", lambda v: ExtPolynomial(v), "rank n", 1),
        ("scale", lambda v: CP1.scale(v), "scale factor", None),
        ("basis_search", lambda v: algebra.basis_search([(1,)], v, 0), "rank n", 1),
        ("all_faithful_monomials_gf2", algebra.all_faithful_monomials_gf2, "rank n", 1),
        ("kernel_space", kernels.kernel_space, "ambient rank", 1),
        ("kernel_space cap", lambda v: kernels.kernel_space(1, max_n=v), "rank cap", 0),
        ("kernel_sample_unitary rank", lambda v: kernels.kernel_sample_unitary(v, 1),
         "ambient rank", 1),
        ("kernel_sample_unitary weight", lambda v: kernels.kernel_sample_unitary(2, v),
         "weight bound", 0),
        ("kernel_sample_unitary rank cap",
         lambda v: kernels.kernel_sample_unitary(1, 1, max_n=v), "rank cap", 0),
        ("kernel_sample_unitary weight cap",
         lambda v: kernels.kernel_sample_unitary(1, 1, max_weight_bound=v), "weight cap", 0),
        ("surjectivity_probe cap", lambda v: bordism.surjectivity_probe(1, 1, max_n=v),
         "rank cap", 0),
        ("support_floor rank", lambda v: kernels.support_floor(v, 1), "ambient rank", 1),
        ("support_floor weight", lambda v: kernels.support_floor(1, v), "weight bound", 0),
        ("spanning_rank", bott.spanning_rank, "ambient rank", 1),
        ("spanning_rank target", lambda v: bott.spanning_rank(1, target=v), "target rank", 0),
        ("spanning_rank cap", lambda v: bott.spanning_rank(1, max_n=v), "rank cap", 0),
        ("bott_generators cap", lambda v: bott.bott_generators(1, max_n=v), "rank cap", 0),
        ("bott_generators", bott.bott_generators, "ambient rank", 1),
        ("swap_conjugate", lambda v: bordism.swap_conjugate(zero, v), "split", None),
        ("permute_coords", lambda v: algebra.permute_coords(CP1, (v,)), "permutation entry", 0),
        ("FixedPointData rank", lambda v: localization.FixedPointData("z", v, []),
         "rank n", 1),
        ("SymmetricFunction part", lambda v: localization.SymmetricFunction(((v,),)),
         "partition part", 1),
        ("Gf2IntegralityTable rank", lambda v: localization.Gf2IntegralityTable(v, [(1,)]),
         "rank n", 1),
        ("Gf2IntegralityTable part", lambda v: localization.Gf2IntegralityTable(3, [(v,)]),
         "partition part", 1),
        ("Chern index i", lambda v: localization.equivariant_chern_number(empty, v, 0),
         "Chern index i", 0),
        ("Chern index j", lambda v: localization.equivariant_chern_number(empty, 0, v),
         "Chern index j", 0),
        ("chern_sweep cap", lambda v: localization.chern_sweep(empty, v), "degree cap", 0),
        ("vanishing_test cap", lambda v: localization.vanishing_test(CP1, v), "degree cap", 0),
        ("MPoly variables", mvpoly.MPoly, "variable count", 0),
        ("MPoly exponent", lambda v: mvpoly.MPoly(2, {(v, 1): 3}), "exponent", 0),
        ("MPoly coefficient", lambda v: mvpoly.MPoly(1, {(0,): v}), "coefficient", None),
        ("partitions", mvpoly.partitions, "partition size", 0),
        ("gl2_order", bott.gl2_order, "rank n", 0),
        ("nonzero_chars_gf2", algebra.nonzero_chars_gf2, "rank n", None),
        ("embed_chars offset", lambda v: algebra.embed_chars(CP1, 2, v), "offset", 0),
        ("embed_chars total", lambda v: algebra.embed_chars(CP1, v, 0), "total rank", 1),
    ]
    for name, build, what, least in cases:
        yield f"{name}-1.5", lambda b=build: b(1.5), f"{what} must be an integer, got 1.5"
        yield f"{name}-'1'", lambda b=build: b("1"), f"{what} must be an integer, got '1'"
        if least is not None:
            yield (f"{name}-{least - 1}", lambda b=build, v=least - 1: b(v),
                   f"{what} must be at least {least}, got {least - 1}")
    # the shape check reads exact ints too (isinstance), with one message
    # for the whole shape
    shape = "a product of simplices needs a nonempty shape of positive integer parts, got "
    for parts in ((2, 1.5), (2, "1"), (2, 0)):
        yield (f"product_of_simplices-{parts[1]!r}",
               lambda s=parts: polytopes.product_of_simplices(s), shape + repr(parts))
    # inexact ids that were truncated: to a 1-polytope with vertices {0}, {1},
    # to facets 0 and 1, and to the edge (0, 1)
    yield ("polytope truncated", lambda: polytopes.SimplePolytope(1.7, 2, [[0], [1.2]]),
           "polytope dimension must be an integer, got 1.7")
    yield ("coloring truncated", lambda: polytopes.Coloring("z", {0.5: (1,), 1.9: (-1,)}),
           "facet id must be an integer, got 0.5")
    yield ("torus graph truncated",
           lambda: graphs.TorusGraph(1, 2, {(0, 1.9): (1,), (1, 0): (-1,)}),
           "vertex id must be an integer, got 1.9")
    # the block must fit: total rank at least offset + the rank embedded
    yield ("embed_chars past the end", lambda: algebra.embed_chars(CP1, 2, 2),
           "total rank must be at least 3, got 2")


INTEGER_ARGUMENTS = list(_integer_arguments())


@pytest.mark.parametrize("build, message", [case[1:] for case in INTEGER_ARGUMENTS],
                         ids=[case[0] for case in INTEGER_ARGUMENTS])
def test_every_integer_argument_is_read_exactly(build, message):
    # a float or a string is refused, not truncated or parsed, and a value
    # below the argument's bound is refused: always a ValidationError naming
    # the argument, never a TypeError from deeper down
    with pytest.raises(ValidationError) as raised:
        build()
    assert str(raised.value) == message


def test_dual_involutive_random():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(1, 4)
        p = random_gf2_faithful(n, rng)
        assert algebra.dual(algebra.dual(p)) == p


def test_dual_z_involutive_on_unimodular_monomials():
    from bordismkit.polytopes import random_unimodular_matrix
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 4)
        terms = [(tuple(tuple(r) for r in random_unimodular_matrix(n, rng)),
                  rng.choice((-3, -1, 1, 2)))
                 for _ in range(rng.randint(1, 4))]
        p = ExtPolynomial(n, terms)
        assert algebra.dual(algebra.dual(p)) == p


def test_dual_z_folds_in_both_determinant_signs():
    # the calibrated convention, c on A -> c·sign(det A)·sign(det B) on B, read
    # off Bareiss determinants and the adjugate oracle, not off the sort
    from bordismkit.polytopes import random_unimodular_matrix
    rng = random.Random(13)
    seen = set()
    for _ in range(200):
        n = rng.randint(2, 4)
        p = ExtPolynomial(n, [(tuple(map(tuple, random_unimodular_matrix(n, rng))), 1)])
        (a, c), = p.terms.items()
        (b, k), = algebra.dual(p).terms.items()
        assert list(b) == sorted(elimination_oracles.inverse_transpose_unimodular(a))
        assert k == c * elimination_oracles.det(a) * elimination_oracles.det(b)
        seen.add(elimination_oracles.det(a) * elimination_oracles.det(b))
    assert seen == {1, -1}


def test_dual_additive():
    rng = random.Random(13)
    for _ in range(100):
        n = rng.randint(2, 3)
        p, q = random_gf2_faithful(n, rng), random_gf2_faithful(n, rng)
        assert algebra.dual(p + q) == algebra.dual(p) + algebra.dual(q)


# -- differential ---------------------------------------------------------


def test_differential_single_monomial_z():
    p = ext_polynomial(2, [([(0, 1), (1, 0)], 1)])
    d = algebra.differential(p)
    assert d.terms == {((1, 0),): 1, ((0, 1),): -1}


def test_differential_degree_one_gives_constant():
    p = ext_polynomial(1, [([(1,)], 3)])
    assert algebra.differential(p).terms == {(): 3}


def test_differential_cp1_is_zero():
    assert algebra.differential(CP1).is_zero()


def test_differential_squares_to_zero():
    rng = random.Random(17)
    for _ in range(500):
        n = rng.randint(1, 4)
        p = random_ext(n, rng)
        assert algebra.differential(algebra.differential(p)).is_zero()
        q = random_gf2_faithful(n, rng)
        assert algebra.differential(algebra.differential(q)).is_zero()


def test_differential_linear():
    rng = random.Random(19)
    for _ in range(100):
        p, q = random_ext(3, rng), random_ext(3, rng)
        assert (algebra.differential(p + q)
                == algebra.differential(p) + algebra.differential(q))


def random_ext_odd_chars(n, rng):
    # characters that stay nonzero mod 2: at least one odd coordinate each
    terms = []
    for _ in range(rng.randint(1, 6)):
        deg = rng.randint(0, n + 2)
        mono = []
        for _ in range(deg):
            c = [rng.randint(-2, 2) for _ in range(n)]
            c[rng.randrange(n)] = rng.choice((-1, 1))
            mono.append(tuple(c))
        terms.append((tuple(mono), rng.randint(-4, 4)))
    return ExtPolynomial(n, terms)


def test_differential_mod2_compatible():
    # reducing then differentiating agrees with differentiating then
    # reducing, as long as every character survives reduction; two
    # characters in one monomial may still collide mod 2 — their deletion
    # terms cancel in pairs
    rng = random.Random(23)
    for _ in range(200):
        p = random_ext_odd_chars(rng.randint(1, 3), rng)
        assert (algebra.mod2_reduce(algebra.differential(p))
                == algebra.differential(algebra.mod2_reduce(p)))


def test_differential_mod2_boundary():
    # a character that is zero mod 2 breaks the chain property: the
    # monomial dies under reduction but its boundary does not
    p = ExtPolynomial(2, {((2, 2),): 1})
    assert algebra.differential(algebra.mod2_reduce(p)).is_zero()
    reduced_boundary = algebra.mod2_reduce(algebra.differential(p))
    assert reduced_boundary.monomials == frozenset({()})


# -- membership -----------------------------------------------------------


def test_in_image_zero_polynomial():
    ok, reason = algebra.in_image_verdict(Gf2Polynomial(3))
    assert ok and reason == "zero polynomial (bounding class)"


def test_in_image_single_monomial_fails():
    ok, reason = algebra.in_image_verdict(gf2_polynomial(2, [[(0, 1), (1, 0)]]))
    assert not ok and reason == "d(g*) != 0"


def test_in_image_rp2():
    ok, reason = algebra.in_image_verdict(Gf2Polynomial(2, RP2_MONOS))
    assert ok and reason == "d(g*) = 0"


def test_in_image_rejects_dual_space():
    ok, reason = algebra.in_image_verdict(Gf2Polynomial(2, RP2_MONOS, space=DUAL))
    assert not ok and "primal" in reason


def test_in_image_not_faithful():
    ok, reason = algebra.in_image_verdict(gf2_polynomial(2, [[(1, 1)]]))
    assert not ok and reason == "not faithful"


def test_in_image_unitary_cp2():
    assert algebra.in_image_unitary(CP2)
    assert algebra.in_image_unitary(CP1)


def test_in_image_unitary_single_term_fails():
    p = ext_polynomial(2, [([(0, 1), (1, 0)], 1)])
    assert not algebra.in_image_unitary(p)


# -- mod-2 reduction -------------------------------------------------------


def test_mod2_reduce_cp1_bounds():
    assert algebra.mod2_reduce(CP1).is_zero()


def test_mod2_reduce_cp2_is_rp2():
    assert algebra.mod2_reduce(CP2) == Gf2Polynomial(2, RP2_MONOS)


def test_mod2_reduce_even_coefficients_drop():
    assert algebra.mod2_reduce(CP2.scale(2)).is_zero()


def test_mod2_reduce_multiplicative():
    rng = random.Random(29)
    for _ in range(150):
        n = rng.randint(1, 3)
        p, q = random_ext(n, rng), random_ext(n, rng)
        assert (algebra.mod2_reduce(p.wedge(q))
                == algebra.mod2_reduce(p).wedge(algebra.mod2_reduce(q)))


def random_faithful_ext(n, rng):
    from bordismkit.polytopes import random_unimodular_matrix
    terms = [(tuple(tuple(r) for r in random_unimodular_matrix(n, rng)),
              rng.choice((-3, -2, -1, 1, 2, 3)))
             for _ in range(rng.randint(1, 5))]
    return ExtPolynomial(n, terms)


def test_mod2_reduce_commutes_with_dual_and_embedding():
    # GF(2) is the modulus-2 image of the same code: reducing first or last
    # gives the same dual, the same block embedding and the same block product
    rng = random.Random(41)
    nonzero = 0
    for _ in range(200):
        n = rng.randint(1, 4)
        p = random_faithful_ext(n, rng)
        q = random_faithful_ext(rng.randint(1, 4), rng)
        nonzero += not algebra.mod2_reduce(p).is_zero()
        assert (algebra.mod2_reduce(algebra.dual(p))
                == algebra.dual(algebra.mod2_reduce(p)))
        total = n + q.n
        offset = rng.randint(0, total - n)
        assert (algebra.mod2_reduce(algebra.embed_chars(p, total, offset))
                == algebra.embed_chars(algebra.mod2_reduce(p), total, offset))
        product = algebra.embed_chars(p, total, 0).wedge(algebra.embed_chars(q, total, n))
        assert (algebra.mod2_reduce(product)
                == algebra.embed_chars(algebra.mod2_reduce(p), total, 0).wedge(
                    algebra.embed_chars(algebra.mod2_reduce(q), total, n)))
    assert nonzero > 100  # the reductions are mostly not zero


# -- embeddings and coordinate permutations --------------------------------


def test_embed_blocks_commute_with_wedge():
    a = algebra.embed_chars(CP1, 2, 0)
    b = algebra.embed_chars(CP1, 2, 1)
    prod = a.wedge(b)
    want = ExtPolynomial(2, {((-1, 0), (0, -1)): 1, ((-1, 0), (0, 1)): -1,
                             ((0, -1), (1, 0)): 1, ((0, 1), (1, 0)): -1})
    assert prod == want


def test_permute_coords_identity_and_involution():
    rng = random.Random(31)
    for _ in range(100):
        n = rng.randint(2, 4)
        p = random_ext(n, rng)
        ident = tuple(range(n))
        assert algebra.permute_coords(p, ident) == p
        perm = list(range(n))
        rng.shuffle(perm)
        perm = tuple(perm)
        inverse = tuple(perm.index(i) for i in range(n))
        assert algebra.permute_coords(
            algebra.permute_coords(p, perm), inverse) == p


@pytest.mark.parametrize("perm", [(0, 0), (1,), (0, 2)])
def test_permute_coords_refuses_a_non_permutation(perm):
    # a repeated entry would hold the zero character, a short one would cut
    # the characters to the wrong length, and one out of range was an
    # IndexError
    p = gf2_polynomial(2, [((1, 0), (0, 1))])
    with pytest.raises(ValidationError) as raised:
        algebra.permute_coords(p, perm)
    assert str(raised.value) == f"{perm} is not a permutation of range(2)"


def test_permute_coords_gf2_matches_mod2():
    rng = random.Random(37)
    for _ in range(100):
        n = rng.randint(2, 4)
        p = random_ext(n, rng)
        perm = list(range(n))
        rng.shuffle(perm)
        perm = tuple(perm)
        assert (algebra.permute_coords(algebra.mod2_reduce(p), perm)
                == algebra.mod2_reduce(algebra.permute_coords(p, perm)))
