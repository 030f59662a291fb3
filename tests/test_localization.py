"""Fixed-point data, integrality checks, and equivariant Chern numbers."""

import math
import random

import pytest

import localization_oracles
from bordismkit import algebra, bott, jsonio, kernels, localization, mvpoly
from bordismkit.algebra import ExtPolynomial, Gf2Polynomial
from bordismkit.errors import ResourceLimitError, ValidationError
from bordismkit.graphs import torus_graph_from_pair, torus_polynomial
from bordismkit.localization import (MAX_CHERN_NUMBERS, FixedPoint,
                                     FixedPointData, Gf2IntegralityTable,
                                     SymmetricFunction,
                                     chern_sweep, equivariant_chern_number,
                                     integrality_check_gf2,
                                     integrality_check_z, vanishing_test)
from bordismkit.polytopes import (product_of_simplices, random_z_coloring,
                                  standard_z_coloring)
from derivations import cohomology_chern_numbers

RP2 = Gf2Polynomial(2, [((0, 1), (1, 0)), ((0, 1), (1, 1)), ((1, 0), (1, 1))])
CP1 = ExtPolynomial(1, {((-1,),): -1, ((1,),): 1})
CP2 = ExtPolynomial(2, {((-1, 0), (-1, 1)): -1,
                        ((0, -1), (1, -1)): 1,
                        ((0, 1), (1, 0)): -1})

# CP^2 equivariant Chern evaluations, checked by hand against the classical
# values: c1^2 = 9, c2 = 3 (Euler characteristic), and the odd-degree sums
# vanish identically.
CP2_NUMBERS = {(1, 0): 0, (2, 0): 9, (0, 1): 3, (3, 0): 0, (1, 1): 0}


def e_n_function(n):
    return SymmetricFunction(((1,) * n,))


# -- symmetric functions ----------------------------------------------------


def test_symmetric_function_canonicalizes():
    f = SymmetricFunction(((1, 3, 2),))
    assert f.partitions == ((3, 2, 1),)
    assert f.degree() == 6
    assert f.max_parts() == 3


def test_symmetric_function_rejects_bad_parts():
    with pytest.raises(ValidationError):
        SymmetricFunction(((0, 1),))
    with pytest.raises(ValidationError):
        SymmetricFunction(((2,), (2,)))


def test_elementary_and_one():
    assert SymmetricFunction.one().partitions == ((),)
    assert e_n_function(3).partitions == ((1, 1, 1),)
    assert SymmetricFunction.monomial((2, 1)).partitions == ((2, 1),)


# -- fixed point data --------------------------------------------------------


def test_from_polynomial_gf2():
    data = FixedPointData.from_polynomial(RP2)
    assert data.flavor == "gf2"
    assert len(data.points) == 3
    assert all(pt.sign == 1 for pt in data.points)


def test_from_polynomial_z_signs():
    # every CP^2 fixed point carries sign +1 once the ordering sign of the
    # stored coefficient is unfolded against the weight determinant
    data = FixedPointData.from_polynomial(CP2)
    assert data.flavor == "z"
    assert len(data.points) == 3
    assert all(pt.sign == 1 for pt in data.points)


def test_from_polynomial_z_multiplicity():
    data = FixedPointData.from_polynomial(CP1.scale(2))
    assert len(data.points) == 4


def test_fixed_point_data_validates_faithfulness():
    with pytest.raises(ValidationError):
        FixedPointData("z", 2, [FixedPoint(1, ((2, 0), (0, 1)))])
    with pytest.raises(ValidationError, match="non-faithful"):
        FixedPointData("gf2", 2, [FixedPoint(1, ((1, 1), (1, 1)))])


def test_gf2_fixed_points_refuse_weights_outside_zero_one():
    # each point is a basis mod 2, but read raw, (-1, 0) and (1, 0) would be
    # two coprime factors, and the sum would pass.  Reduced mod 2 it is
    # three copies of 1/(x1 (x1 + x2)), not a polynomial
    points = [((-1, -1), (-1, 0)), ((-1, -1), (-1, 2)), ((-1, 0), (-1, 1))]
    reduced = [tuple(tuple(v % 2 for v in w) for w in weights) for weights in points]
    assert not integrality_check_gf2(FixedPointData("gf2", 2, [FixedPoint(1, w) for w in reduced]),
                                     SymmetricFunction.one())
    with pytest.raises(ValidationError, match=r"GF\(2\) character \(-1, -1\) has entries"):
        FixedPointData("gf2", 2, [FixedPoint(1, w) for w in points])
    obj = {"flavor": "gf2", "n": 2, "points": [{"weights": [list(c) for c in w]} for w in points]}
    with pytest.raises(ValidationError, match="entries outside"):
        jsonio.fixed_point_data_from_obj(obj)


def test_gf2_integrality_reads_the_weights_mod_2():
    # random bases mod 2 with entries in {-1, 0, 1, 2}: GF(2) data takes
    # them only when every entry is 0 or 1, and on the data reduced mod 2
    # every verdict is the summand loop's
    rng = random.Random(163)
    verdicts, refused = set(), 0
    for _ in range(40):
        n = rng.randint(1, 3)
        raw, count = [], rng.randint(1, 4)
        while len(raw) < count:
            weights = tuple(tuple(rng.choice((-1, 0, 1, 2)) for _ in range(n)) for _ in range(n))
            if algebra.Gf2Polynomial._dual_rows(
                    [tuple(v % 2 for v in w) for w in weights], n) is not None:
                raw.append(weights)
        if any(v not in (0, 1) for weights in raw for w in weights for v in w):
            refused += 1
            with pytest.raises(ValidationError, match="entries outside"):
                FixedPointData("gf2", n, [FixedPoint(1, w) for w in raw])
        data = FixedPointData("gf2", n, [
            FixedPoint(1, tuple(tuple(v % 2 for v in w) for w in weights)) for weights in raw])
        for mu in [()] + mvpoly.partitions_up_to(n + 1, n):
            got = integrality_check_gf2(data, SymmetricFunction.monomial(mu))
            assert got == localization_oracles.sum_is_polynomial(data, [mu]), (raw, mu)
            verdicts.add(got)
    assert verdicts == {True, False} and refused


@pytest.mark.parametrize("ring", [ExtPolynomial, Gf2Polynomial])
@pytest.mark.parametrize("mono", [
    ((0, 1, 1), (1, 0, 0)),
    ((0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 1, 0)),
])
def test_from_polynomial_rejects_monomials_of_the_wrong_degree(ring, mono):
    p = ExtPolynomial(3, [(mono, 1)]) if ring is ExtPolynomial else Gf2Polynomial(3, [mono])
    with pytest.raises(ValidationError, match="are not 3 characters of length 3"):
        FixedPointData.from_polynomial(p)


def test_from_polynomial_rejects_the_dual_space():
    # a dual polynomial's characters are facet colors, not tangent weights
    for p in (CP2, RP2):
        with pytest.raises(ValidationError, match="not in the primal space"):
            FixedPointData.from_polynomial(algebra.dual(p))


@pytest.mark.parametrize("n", [0, -3])
def test_fixed_point_data_needs_rank_at_least_one(n):
    with pytest.raises(ValidationError, match="rank n must be at least 1"):
        FixedPointData("z", n, [])


def test_each_distinct_fixed_point_basis_is_proved_once(dual_basis_calls):
    # the rank-3 window kernel element with the largest coefficient sum
    g = max(kernels.kernel_sample_unitary(3, 1).basis,
            key=lambda b: sum(map(abs, b.terms.values())))
    assert (g.support(), sum(map(abs, g.terms.values()))) == (65, 82)
    # no library module takes a determinant at all (tests/test_package.py)
    dual_basis_calls.clear()
    assert len(FixedPointData.from_polynomial(g)) == 82
    # one per distinct weight tuple up to duality, not per unit: two of the
    # 65 monomials are duals of earlier ones, whose proofs stored them; the
    # sign comes from the same elimination, so no determinant is taken
    assert dual_basis_calls[0] == 63
    dual_basis_calls.clear()
    vanishing_test(g, 1)
    # the image test and the data meet only bases the hook has proved
    assert dual_basis_calls[0] == 0


def test_a_repeated_pipeline_proves_nothing_again(dual_basis_calls):
    # the hook keeps every basis proof for the process, so the same graph,
    # polynomial and fixed points built a second time eliminate nothing
    p, lam = product_of_simplices((2, 1)), standard_z_coloring((2, 1))

    def pipeline():
        return FixedPointData.from_polynomial(torus_polynomial(torus_graph_from_pair(p, lam)))

    first = pipeline()
    assert dual_basis_calls[0] == 6
    dual_basis_calls.clear()
    assert pipeline().points == first.points
    assert dual_basis_calls == {}


def test_gf2_flavor_forces_positive_signs():
    # signs carry no information over GF(2); the constructor normalizes them
    data = FixedPointData("gf2", 1, [FixedPoint(-1, ((1,),))])
    assert [pt.sign for pt in data.points] == [1]


# -- integrality --------------------------------------------------------------


def test_rp2_integral_for_all_low_degree_functions():
    data = FixedPointData.from_polynomial(RP2)
    for mu in [()] + mvpoly.partitions_up_to(6, 2):
        assert integrality_check_gf2(data, SymmetricFunction((mu,)))


def test_single_monomial_fails_integrality():
    data = FixedPointData.from_polynomial(
        Gf2Polynomial(2, [((0, 1), (1, 0))]))
    results = [integrality_check_gf2(data, SymmetricFunction.monomial(mu))
               for mu in mvpoly.partitions_up_to(4, 2)]
    assert not all(results)


def test_e_n_always_integral():
    # e_n evaluates to the product of the point's own forms, clearing the
    # denominator at that point entirely
    rng = random.Random(59)
    monos = algebra.all_faithful_monomials_gf2(3)
    for _ in range(30):
        g = Gf2Polynomial(3, rng.sample(monos, rng.randint(1, 6)))
        data = FixedPointData.from_polynomial(g)
        assert integrality_check_gf2(data, e_n_function(3))


def test_integrality_z_unsigned_vs_signed():
    # a single integer fixed point has a bare 1/x term: never integral
    single = FixedPointData("z", 1, [FixedPoint(1, ((1,),))])
    assert not integrality_check_z(single, SymmetricFunction.one())
    # CP^1 passes unsigned (canonical units cancel) and signed
    data = FixedPointData.from_polynomial(CP1)
    assert integrality_check_z(data, SymmetricFunction.one())
    assert integrality_check_z(data, SymmetricFunction.one(), signed=True)


def test_integrality_validates_max_parts():
    data = FixedPointData.from_polynomial(CP1)
    with pytest.raises(ValidationError):
        integrality_check_z(data, SymmetricFunction(((1, 1),)))


def test_batch_table_matches_reference():
    rng = random.Random(61)
    parts = [()] + mvpoly.partitions_up_to(4, 2)
    table = Gf2IntegralityTable(2, parts)
    monos = algebra.all_faithful_monomials_gf2(2)
    for _ in range(40):
        g = Gf2Polynomial(2, rng.sample(monos, rng.randint(1, 3)))
        data = FixedPointData.from_polynomial(g)
        for mu in parts:
            assert (table.passes(g, mu)
                    == integrality_check_gf2(data, SymmetricFunction((mu,))))


def test_batch_table_input_checks():
    table = Gf2IntegralityTable(2, [(1,)])
    with pytest.raises(ValidationError):
        table.passes(Gf2Polynomial(2, [((0, 1), (1, 0))]), (2,))
    with pytest.raises(ValidationError):
        table.passes(Gf2Polynomial(3, [], space="primal"), (1,))
    with pytest.raises(ValidationError, match="^partition part must be at least 1, got 0$"):
        table.passes(RP2, (1, 0))
    # a dual polynomial's characters are facet colors, not weights
    with pytest.raises(ValidationError, match="^polynomial is not in the primal space$"):
        table.passes(algebra.gf2_polynomial(2, [[(0, 1), (1, 0)]],
                                            space=algebra.DUAL), (1,))
    # the table and its queries read a partition in any order of its parts,
    # as a tuple or a list; a canonical tuple is looked up as it is
    table = Gf2IntegralityTable(2, [(1, 2), (3,)])
    for g in (RP2, Gf2Polynomial(2, [((0, 1), (1, 0))])):
        data = FixedPointData.from_polynomial(g)
        for mu in ((2, 1), (1, 2), [1, 2], [2, 1], (3,), [3]):
            want = integrality_check_gf2(data, SymmetricFunction((mu,)))
            assert table.passes(g, mu) == want, (g, mu)
    with pytest.raises(ValidationError, match="^partition part must be at least 1, got 0$"):
        table.passes(RP2, [1, 0])
    with pytest.raises(ValidationError, match=r"^partition \(2, 2\) is not in the table$"):
        table.passes(RP2, [2, 2])


@pytest.mark.parametrize("mu, message", [
    ((2.0, 1), "partition part must be an integer, got 2.0"),
    ([1.5, 2], "partition part must be an integer, got 1.5"),
    (("3",), "partition part must be an integer, got '3'"),
    ([[1], 2], "partition part must be an integer, got [1]"),
    (3, "a partition is a sequence of parts, got 3"),
    (None, "a partition is a sequence of parts, got None"),
])
def test_batch_table_queries_read_partitions_exactly(mu, message):
    # a query is looked up as it is only when it is a tuple of ints, so an
    # inexact part that equals a table part (2.0 == 2), an unhashable part
    # or a partition that is no sequence goes to the canonical form and is
    # refused there, never as a TypeError
    table = Gf2IntegralityTable(2, [(1, 2), (3,)])
    with pytest.raises(ValidationError) as raised:
        table.passes(RP2, mu)
    assert str(raised.value) == message
    assert table.passes(RP2, (x for x in (1, 2))) == table.passes(RP2, (2, 1))


@pytest.mark.parametrize("n", [0, -1])
def test_batch_table_needs_rank_at_least_one(n):
    with pytest.raises(ValidationError, match=f"^rank n must be at least 1, got {n}$"):
        Gf2IntegralityTable(n, [()])


@pytest.mark.parametrize("n", [3, 4])
def test_batch_table_takes_the_enumerated_bases_unproved(dual_basis_calls, n):
    # all_faithful_monomials_gf2 yields bases, so none is inverted again
    # (28 and 840 inversions before)
    Gf2IntegralityTable(n, [()])
    assert dual_basis_calls[2] == 0


def test_batch_table_at_rank_three_matches_reference():
    # at rank 3 each bitset holds the remainders of seven factors
    rng = random.Random(73)
    parts = [()] + mvpoly.partitions_up_to(6, 3)
    table = Gf2IntegralityTable(3, parts)
    basis = kernels.kernel_space(3).basis
    monos = algebra.all_faithful_monomials_gf2(3)
    samples = []
    while len(samples) < 12:
        g = Gf2Polynomial(3, [])
        for b in basis:
            if rng.random() < 0.5:
                g = g + b
        if not g.is_zero():
            samples.append(g)
    samples += [Gf2Polynomial(3, rng.sample(monos, rng.randint(1, 8))) for _ in range(12)]
    verdicts = set()
    for k, g in enumerate(samples):
        data = FixedPointData.from_polynomial(g)
        for mu in parts:
            want = integrality_check_gf2(data, SymmetricFunction((mu,)))
            assert table.passes(g, mu) == want, (k, mu)
            assert want or k >= 12  # kernel elements pass every partition
            verdicts.add(want)
    assert verdicts == {True, False}
    dependent = ((0, 0, 1), (0, 1, 0), (0, 1, 1))
    with pytest.raises(ValidationError, match="non-faithful"):
        table.passes(Gf2Polynomial(3, [monos[0], dependent]), (1,))
    with pytest.raises(ValidationError, match="not in the table"):
        table.passes(samples[0], (7,))
    with pytest.raises(ValidationError, match="not in the table"):
        table.passes(samples[0], (2, 2, 2, 1))


@pytest.mark.parametrize("n, parts", [
    (2, [()] + mvpoly.partitions_up_to(6, 2)),
    (3, [()] + mvpoly.partitions_up_to(6, 3)),
    (4, [(), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1), (2, 1, 1), (1, 1, 1, 1)])])
def test_batch_table_bits_do_not_depend_on_the_shared_base(n, parts):
    # the partitions of one degree share a base per factor from the summed
    # bound, which is at least the largest single one: no bit moves
    assert Gf2IntegralityTable(n, parts)._bits == localization_oracles.gf2_table_bits(n, parts)


# -- Chern numbers -------------------------------------------------------------


def test_cp1_chern_number():
    data = FixedPointData.from_polynomial(CP1)
    r = equivariant_chern_number(data, 1, 0)
    assert r.is_polynomial and r.integral and r.constant == 2


def test_cp2_chern_numbers():
    data = FixedPointData.from_polynomial(CP2)
    for (i, j), want in CP2_NUMBERS.items():
        r = equivariant_chern_number(data, i, j)
        assert r.is_polynomial and r.integral, (i, j)
        assert r.constant == want, (i, j)


def test_chern_requires_z_flavor():
    data = FixedPointData.from_polynomial(RP2)
    with pytest.raises(ValidationError):
        equivariant_chern_number(data, 1, 0)


def test_chern_c2_needs_rank_two():
    data = FixedPointData.from_polynomial(CP1)
    with pytest.raises(ValidationError):
        equivariant_chern_number(data, 0, 1)


def test_chern_sign_sensitivity():
    # flipping one fixed-point sign of CP^1 yields the non-polynomial 2/x sum
    data = FixedPointData("z", 1, [FixedPoint(1, ((1,),)),
                                   FixedPoint(-1, ((-1,),))])
    r = equivariant_chern_number(data, 0, 0)
    assert not r.is_polynomial


def sweep_indices(n):
    return [(i, j) for i in range(2 * n + 1) for j in range((2 * n - i) // 2 + 1)
            if not (j and n < 2)]


def fixed_point_data(shape, coloring):
    return FixedPointData.from_polynomial(
        torus_polynomial(torus_graph_from_pair(product_of_simplices(shape), coloring)))


def exact(r):
    value = None if r.value is None else sorted(
        (e, type(c).__name__, c) for e, c in r.value.terms.items())
    return (r.is_polynomial, r.integral, value, r.constant)


@pytest.mark.parametrize("shape", [(1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)])
def test_chern_sweep_matches_the_cohomology_ring(shape):
    n = sum(shape)
    want = cohomology_chern_numbers(shape)
    data = fixed_point_data(shape, standard_z_coloring(shape))
    for i, j in sweep_indices(n):
        r = equivariant_chern_number(data, i, j)
        assert r.is_polynomial and r.integral, (i, j)
        if i + 2 * j < n:
            assert r.value.is_zero(), (i, j)
        elif i + 2 * j == n:
            assert r.constant == want[(i, j)], (i, j)


def counting(monkeypatch, *names):
    """Wrap localization functions by name and count their calls."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def wrapper(*args, _name=name, _original=getattr(localization, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(localization, name, wrapper)
    return calls


@pytest.mark.parametrize("n", [4, 5])
def test_values_come_from_the_lattice_from_rank_five(monkeypatch, n):
    # up to rank 4 and degree n a value is one Kronecker evaluation, above
    # either a simplex lattice (docs/decisions/0003); both match H*(M)
    calls = counting(monkeypatch, "_kronecker_value", "_lattice_value")
    shape = (1,) * n
    data = fixed_point_data(shape, standard_z_coloring(shape))
    for (i, j), want in cohomology_chern_numbers(shape).items():
        before = dict(calls)
        assert equivariant_chern_number(data, i, j).constant == want, (i, j)
        took = "_lattice_value" if n > 4 else "_kronecker_value"
        assert {k: calls[k] - before[k] for k in calls} == {
            k: int(k == took) for k in calls}, (i, j)
    # below degree n the value is 0 and neither is read
    before = dict(calls)
    assert equivariant_chern_number(data, 3, 0).value.is_zero()
    assert calls == before


@pytest.mark.parametrize("shape", [(2, 1), (1, 1, 1), (3,)])
def test_chern_sweep_does_not_depend_on_call_order(shape):
    rng = random.Random(67)
    colorings = [standard_z_coloring(shape), random_z_coloring(shape, rng)]
    for coloring in colorings:
        indices = sweep_indices(sum(shape))
        fresh = {ij: exact(equivariant_chern_number(fixed_point_data(shape, coloring), *ij))
                 for ij in indices}
        data = fixed_point_data(shape, coloring)
        backwards = {}
        for ij in reversed(indices):
            r = equivariant_chern_number(data, *ij)
            backwards[ij] = exact(r)
            if r.value is not None:
                r.value.terms.clear()  # a returned value must not share state
        assert backwards == fresh
        middle = indices[len(indices) // 2]
        assert exact(equivariant_chern_number(data, *middle)) == fresh[middle]


def test_integrality_checks_on_one_data_object_match_fresh_ones():
    # signed and bare sums, the reduction mod 2 and Chern numbers share one
    # object's cofactors and, per degree, its Kronecker values.  Asked in a
    # seeded random order, with many asks per degree, each answer equals a
    # fresh object's and the summand loop's
    for n in range(1, 5):
        rng = random.Random(71 + n)
        poly = torus_polynomial(torus_graph_from_pair(product_of_simplices((n,)),
                                                      random_z_coloring((n,), rng)))
        data = FixedPointData.from_polynomial(poly)
        reduced = FixedPointData.from_polynomial(algebra.mod2_reduce(poly))
        parts = [()] + mvpoly.partitions_up_to(n + 1, n)
        top = n if n == 4 else 2 * n   # above it one sum costs seconds in the oracle
        asks = [("z", mu, signed) for mu in parts for signed in (True, False)]
        asks += [("gf2", mu, False) for mu in parts]
        asks += [("chern", i, j) for i in range(top + 1) for j in range((top - i) // 2 + 1)
                 if not (j and n < 2)]
        rng.shuffle(asks)
        verdicts = set()
        for kind, *ask in asks:
            if kind == "chern":
                r = equivariant_chern_number(data, *ask)
                assert exact(r) == exact(equivariant_chern_number(
                    FixedPointData("z", n, data.points), *ask)), ask
                value = None if r.value is None else r.value.terms
                assert ((r.is_polynomial, r.integral, value, r.constant)
                        == localization_oracles.chern_number(data, *ask)), ask
                continue
            mu, signed = ask
            f = SymmetricFunction.monomial(mu)
            if kind == "z":
                got = integrality_check_z(data, f, signed=signed)
                assert got == integrality_check_z(FixedPointData("z", n, data.points), f,
                                                  signed=signed), ask
                assert got == localization_oracles.sum_is_polynomial(data, [mu], signed), ask
            else:
                got = integrality_check_gf2(reduced, f)
                fresh = FixedPointData("gf2", n, reduced.points)
                assert got == integrality_check_gf2(fresh, f), ask
                assert got == localization_oracles.sum_is_polynomial(reduced, [mu]), ask
            verdicts.add((kind, signed, got))
        # above rank 1 some bare sums of CP^n fail, where its signed sums pass (ABBV)
        assert {("z", True, True), ("z", False, False)} <= verdicts or n == 1


def test_a_sweep_evaluates_each_plane_once_per_degree(monkeypatch):
    # every (i, j) with one i + 2j reads the same Kronecker values: CP^3 has
    # 6 factors, so its default sweep (i + 2j <= 6) evaluates 6 planes at 7
    # degrees and values at the 4 degrees 3..6.  Bare integrality checks of
    # degrees 0..3 evaluate 6 planes at 4 degrees; the signed ones share the
    # sweep's.  (5, 1) above degree 2n tries the 6 planes at one point
    # each, then evaluates them at degree 7, and reads one lattice.  A
    # second pass on the same data builds nothing, and every answer equals
    # a fresh data object's
    kronecker = [0]

    def counted(*args, _real=localization._kronecker_values):
        kronecker[0] += 1
        return _real(*args)
    monkeypatch.setattr(localization, "_kronecker_values", counted)
    calls = counting(monkeypatch, "_lattice_terms")
    fs = [e_n_function(2), SymmetricFunction(((), (1,), (2, 1)))]

    def one_pass(data):
        return ([integrality_check_z(data, f, signed=signed)
                 for f in fs for signed in (True, False)],
                [exact(r) for r in chern_sweep(data)[1]],
                exact(equivariant_chern_number(data, 5, 1)))

    data = fixed_point_data((3,), standard_z_coloring((3,)))
    assert len(localization._localization(data).chars) == 6
    first = one_pass(data)
    assert first[0] == [True] * 4
    assert all(r[0] for r in first[1]) and len(first[1]) == len(sweep_indices(3))
    assert first[2][0]
    want = ([6 * 7 + 4 + 6 * 4 + 6 + 6], {"_lattice_terms": 1})
    assert (kronecker, calls) == want
    assert one_pass(data) == first
    assert (kronecker, calls) == want
    assert one_pass(FixedPointData("z", 3, data.points)) == first


@pytest.mark.parametrize("n", [7, 8])
def test_identity_point_sweeps_reject_at_one_point_per_plane(monkeypatch, n):
    # one fixed point with weights x_1, ..., x_n: no e1^i e2^j is divisible
    # by x_1 ... x_n.  Each number is rejected at the first plane's one
    # point, before any plane's Kronecker terms are built: at rank 7 the
    # sweep takes a millisecond, where its planes' Kronecker tests take
    # 15 s
    built = []
    monkeypatch.setattr(localization, "_plane_terms", lambda *args: built.append(args))
    identity = tuple(tuple(int(a == b) for b in range(n)) for a in range(n))
    cap, numbers = chern_sweep(FixedPointData("z", n, [FixedPoint(1, identity)]))
    assert [r.is_polynomial for r in numbers] == [False] * ((cap + 2) ** 2 // 4)
    assert built == []


# -- differential checks against the pre-accumulator algorithms -------------


def torus_manifolds(n, rng):
    """Fixed-point data of the standard and one random coloring of each shape."""
    for shape in bott.partitions(n):
        for coloring in (standard_z_coloring(shape), random_z_coloring(shape, rng)):
            yield shape, fixed_point_data(shape, coloring)


def random_signed_data(n, rng):
    """Random signs on random unimodular weights: mostly not a manifold."""
    points = []
    for _ in range(rng.randint(1, 5)):
        rows = [[rng.choice((1, -1)) * int(a == b) for b in range(n)] for a in range(n)]
        for _ in range(2 * n if n > 1 else 0):
            a, b = rng.sample(range(n), 2)
            step = rng.choice((1, -1))
            rows[a] = [x + step * y for x, y in zip(rows[a], rows[b])]
        points.append(FixedPoint(rng.choice((1, -1)), tuple(map(tuple, rows))))
    return FixedPointData("z", n, points)


def assert_chern_matches_oracle(data, indices):
    outcomes = set()
    for i, j in indices:
        r = equivariant_chern_number(data, i, j)
        got = (r.is_polynomial, r.integral,
               None if r.value is None else r.value.terms, r.constant)
        assert got == localization_oracles.chern_number(data, i, j), (data.points, i, j)
        if r.constant is not None:
            assert type(r.constant) is int
        outcomes.add(r.is_polynomial)
    return outcomes


def mutants(data, rng):
    """The data with one point's sign flipped, and with one point dropped
    (none for data without points)."""
    points = list(data.points)
    if not points:
        return []
    g = rng.randrange(len(points))
    flipped = points[:g] + [FixedPoint(-points[g].sign, points[g].weights)] + points[g + 1:]
    return [FixedPointData("z", data.n, q) for q in (flipped, points[:g] + points[g + 1:]) if q]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_chern_numbers_match_the_summand_loop(n):
    # each torus manifold, seen through a unimodular change of coordinates
    # with entries of 10^3 and more, and with one sign flipped or one point
    # dropped.  Ranks 1-3 go up to degree 2n + 3, past the Kronecker value
    # (d_S <= n) into the lattice (d_S > n); rank 4 only up to degree n:
    # above it one sum costs seconds in the oracle
    rng = random.Random(131 + n)
    top = n if n == 4 else 2 * n + 3
    indices = [(i, j) for i in range(top + 1) for j in range((top - i) // 2 + 1)
               if not (j and n < 2)]
    outcomes = set()
    for _, data in torus_manifolds(n, rng):
        assert assert_chern_matches_oracle(data, indices) == {True}
        for other in [moved(data, big_unimodular(n, rng))] + mutants(data, rng):
            outcomes |= assert_chern_matches_oracle(other, indices)
    assert outcomes == {True, False}


def both_values(data, i, j):
    """The (i, j) number, and its value's terms read by the Kronecker point
    and by the lattice (none unless a polynomial of degree >= 0)."""
    r = equivariant_chern_number(data, i, j)
    n, d, loc = data.n, i + 2 * j, localization._localization(data)
    if not r.is_polynomial or d < n or not any(loc.signed):
        return r, []
    reads = (localization._kronecker_value, localization._lattice_value)
    return r, [{(d - n - sum(e), *e): c for e, c in read(loc, i, j).items() if c}
               for read in reads]


def value_at(terms, x):
    return sum(c * math.prod(v ** e for v, e in zip(x, expt)) for expt, c in terms.items())


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_both_value_methods_match_the_summand_loop(n):
    # the standard and a seeded random coloring of every shape, and their
    # mutants, for d_S = 0..2n+3 at ranks 1-3 and 0..n+3 at ranks 4-5: each
    # method's value holds ints and equals the library's, and the summand
    # loop's.  At ranks 4-5, where the loop takes up to a second per
    # number, it runs on CP^n and its mutants at a few degrees, and every
    # other value is checked against the oracle's sum at 3 seeded points
    rng = random.Random(167 + n)
    top = 3 * n + 3 if n < 4 else 2 * n + 3
    loop_degrees = (range(n, top + 1) if n < 4 else
                    range(n, top + 1, 2) if n == 4 else (n, n + 2, top))
    cpn = fixed_point_data((n,), standard_z_coloring((n,)))
    datas = [(True, cpn)] + [(True, m) for m in mutants(cpn, rng)]
    for shape in bott.partitions(n):
        for coloring in (standard_z_coloring(shape), random_z_coloring(shape, rng)):
            data = fixed_point_data(shape, coloring)
            datas += [(n < 4, x) for x in [data] + mutants(data, rng)]
    verdicts = set()
    for full, data in datas:
        for d in range(n, top + 1):
            js = range(d // 2 + 1 if n > 1 else 1)
            if n >= 4:   # one j per degree
                js = [d % (d // 2 + 1)]
            for j in js:
                r, values = both_values(data, d - 2 * j, j)
                verdicts.add(r.is_polynomial)
                if values:
                    assert values == [r.value.terms] * 2, (data.points, d, j)
                    assert all(type(c) is int for c in r.value.terms.values())
                if full and d in loop_degrees:
                    want = localization_oracles.chern_number(data, d - 2 * j, j)
                    assert (r.is_polynomial, r.integral, r.value and r.value.terms,
                            r.constant) == want, (data.points, d, j)
                elif r.is_polynomial:
                    for _ in range(3):
                        x = [rng.randint(-99, 99) for _ in range(n)]
                        want = localization_oracles.chern_value_at(data, d - 2 * j, j, x)
                        assert want is None or value_at(r.value.terms, x) == want, (d, j, x)
    # at rank 1 a term x^i / x of degree >= 0 is a polynomial
    assert verdicts == ({True, False} if n > 1 else {True})


@pytest.mark.parametrize("n", [2, 3, 4])
def test_chern_planes_on_the_lattice_match_the_summand_loop(monkeypatch, n):
    # above degree 2n, with every plane of a Chern number tested on its
    # simplex lattice, as the planes with large Kronecker integers are, every
    # verdict and value is the summand loop's, on the manifolds and their
    # mutants
    monkeypatch.setattr(localization, "LATTICE_BITS_PER_POINT", 0)
    planes = []

    def lattice(loc, t, *args, _real=localization._lattice):
        planes.append(t)
        return _real(loc, t, *args)
    monkeypatch.setattr(localization, "_lattice", lattice)
    rng = random.Random(191 + n)
    indices = [(d - 2 * j, j) for d in range(2 * n + 1, 2 * n + (4 if n < 4 else 2))
               for j in range(d // 2 + 1)]
    outcomes = set()
    for _, data in torus_manifolds(n, rng):
        for other in [data] + mutants(data, rng):
            outcomes |= assert_chern_matches_oracle(other, indices)
    assert outcomes == {True, False} and any(t is not None for t in planes)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_a_lattice_plane_rejects_alone(monkeypatch, n):
    # with the one-point probe emptied and every Chern plane on its simplex
    # lattice, a non-polynomial sum above degree 2n can be rejected only on
    # some plane's lattice: the verdicts on the manifolds with one sign
    # flipped are the summand loop's
    monkeypatch.setattr(localization, "LATTICE_BITS_PER_POINT", 0)
    probed = []

    def empty_probe(loc, signed):
        probed.append(signed)
        return [[] for _ in loc.chars]
    monkeypatch.setattr(localization, "_probe_terms", empty_probe)
    rng = random.Random(211 + n)
    d = 2 * n + 1
    indices = [(d - 2 * j, j) for j in range(d // 2 + 1)]
    outcomes = set()
    for _, data in torus_manifolds(n, rng):
        for flipped in mutants(data, rng)[:1]:
            outcomes |= assert_chern_matches_oracle(flipped, indices)
    assert False in outcomes and probed


def test_planes_take_the_lattice_where_kronecker_integers_are_large():
    # the default sweeps of CP^4 and CP^5 reach at most about 150 bits per
    # lattice point on any plane, and every plane of CP^6 at degree 12 over
    # 220
    cp4, cp5, cp6 = (localization._localization(fixed_point_data((n,), standard_z_coloring((n,))))
                     for n in (4, 5, 6))
    for loc in (cp4, cp5):
        assert all(plane[3] is not None
                   for plane in localization._plane_terms(loc, True, 2 * loc.n, True))
    assert all(plane[3] is None for plane in localization._plane_terms(cp6, True, 12, True))


def test_division_keeps_int_coefficients_past_non_unit_leads():
    # CP^2 under a seed-15 coloring has factors leading with 2, 3 and 5;
    # both value methods divide N(x) by D(x) exactly, and the lattice
    # divides its differences by their spacing, so its (4, 0) value holds
    # ints read either way
    data = fixed_point_data((2,), random_z_coloring((2,), random.Random(15)))
    loc = localization._localization(data)
    assert {next(v for v in c if v) for c in loc.chars} == {2, 3, 5}
    r, values = both_values(data, 4, 0)
    assert r.value.terms == {(2, 0): -137, (1, 1): 117, (0, 2): -25}
    assert values == [r.value.terms] * 2
    assert all(type(c) is int for c in r.value.terms.values())


def test_chern_numbers_of_random_signed_data_match_the_summand_loop():
    rng = random.Random(137)
    outcomes = set()
    for k in range(45):
        n = 1 + k % 3
        outcomes |= assert_chern_matches_oracle(random_signed_data(n, rng), sweep_indices(n))
    assert outcomes == {True, False}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_integrality_checks_match_the_summand_loop(n):
    rng = random.Random(139 + n)
    parts = [()] + mvpoly.partitions_up_to(n + 1, n)
    for shape, data in torus_manifolds(n, rng):
        reduced = FixedPointData.from_polynomial(algebra.mod2_reduce(
            torus_polynomial(torus_graph_from_pair(product_of_simplices(shape),
                                                   standard_z_coloring(shape)))))
        for mu in parts:
            f = SymmetricFunction.monomial(mu)
            for signed in (False, True):
                assert integrality_check_z(data, f, signed=signed) == \
                    localization_oracles.sum_is_polynomial(data, [mu], signed), (shape, mu)
            assert integrality_check_gf2(reduced, f) == \
                localization_oracles.sum_is_polynomial(reduced, [mu]), (shape, mu)


def test_integrality_checks_at_rank_five_match_the_summand_loop():
    # from rank 5 every plane is first tried at one point: CP^5 and a
    # seeded random coloring of CP^3 x CP^2, their mutants, signed and bare,
    # and the manifolds' reductions mod 2, for every m_mu of degree <= 3
    rng = random.Random(181)
    parts = [()] + mvpoly.partitions_up_to(3, 4)
    verdicts = set()
    for shape, coloring in (((5,), standard_z_coloring((5,))),
                            ((3, 2), random_z_coloring((3, 2), rng))):
        data = fixed_point_data(shape, coloring)
        reduced = FixedPointData.from_polynomial(algebra.mod2_reduce(torus_polynomial(
            torus_graph_from_pair(product_of_simplices(shape), coloring))))
        for mu in parts:
            f = SymmetricFunction.monomial(mu)
            for other in [data] + mutants(data, rng):
                for signed in (False, True):
                    want = localization_oracles.sum_is_polynomial(other, [mu], signed)
                    assert integrality_check_z(other, f, signed=signed) == want, (shape, mu)
                    verdicts.add(want)
            assert integrality_check_gf2(reduced, f) == \
                localization_oracles.sum_is_polynomial(reduced, [mu]), (shape, mu)
    assert verdicts == {True, False}


# -- integrality by hyperplane evaluation, against the summand loop ----------

# functions mixing partition degrees: each degree must vanish by itself
MIXED = [((1,), (2,)), ((), (1, 1)), ((), (1,)), ((1,), (1, 1), (3,))]


def big_unimodular(n, rng):
    """A det ±1 matrix with entries of 10^3 and more (the identity at n = 1)."""
    rows = [[int(a == b) for b in range(n)] for a in range(n)]
    for a in range(n) if n > 1 else ():
        b = rng.choice([k for k in range(n) if k != a])
        step = rng.choice((1, -1)) * rng.randint(1000, 5000)
        rows[a] = [x + step * y for x, y in zip(rows[a], rows[b])]
    return rows


def moved(data, matrix, flavor="z"):
    """The data with every weight w sent to w * matrix (mod 2 over GF(2))."""
    n = data.n

    def image(w):
        row = tuple(sum(w[i] * matrix[i][j] for i in range(n)) for j in range(n))
        return tuple(v & 1 for v in row) if flavor == "gf2" else row
    return FixedPointData(flavor, n, [FixedPoint(pt.sign, tuple(map(image, pt.weights)))
                                      for pt in data.points])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_hyperplane_evaluation_matches_the_summand_loop(n):
    # a manifold (CP^n) seen through a unimodular change of coordinates with
    # entries of 10^3 and more, and random signed data through the same
    # change, signed and bare, and their reductions mod 2
    rng = random.Random(151 + n)
    degree = n + 1 if n < 4 else n   # above it one sum costs seconds in the oracle
    fs = ([((),)] + [(mu,) for mu in mvpoly.partitions_up_to(degree, n)]
          + [f for f in MIXED if max(map(len, f)) <= n])
    manifold = fixed_point_data((n,), standard_z_coloring((n,)))
    signed_points = FixedPointData("z", n, random_signed_data(n, rng).points[:3])
    verdicts = {}
    for kind, data in (("manifold", manifold), ("random", signed_points)):
        matrix = big_unimodular(n, rng)
        z, reduced = moved(data, matrix), moved(data, matrix, "gf2")
        if n > 1:
            assert max(abs(v) for pt in z.points for w in pt.weights for v in w) >= 1000
        for parts in fs:
            f = SymmetricFunction(parts)
            for signed in (False, True):
                want = localization_oracles.sum_is_polynomial(z, parts, signed)
                assert integrality_check_z(z, f, signed=signed) == want, (kind, parts, signed)
                verdicts.setdefault((kind, signed), set()).add(want)
            want = localization_oracles.sum_is_polynomial(reduced, parts)
            assert integrality_check_gf2(reduced, f) == want, (kind, parts)
            verdicts.setdefault((kind, "gf2"), set()).add(want)
    # a manifold's signed sums are polynomials (ABBV); random signs are not
    assert verdicts[("manifold", True)] == {True}
    assert set().union(*verdicts.values()) == {True, False}


@pytest.mark.parametrize("flavor, weights", [("z", ((-1, 0), (0, -1))),
                                             ("gf2", ((1, 0), (0, 1)))])
def test_each_degree_of_a_mixed_function_is_tested_alone(flavor, weights):
    # one point: N = f(w) and D = chi.  On each hyperplane m_(1) + m_(2)
    # restricts to -y + y^2 (y + y^2 mod 2), so both degrees evaluated at
    # one point y = 1 would cancel; the sum is not a polynomial
    data = FixedPointData(flavor, 2, [FixedPoint(1, weights)])
    oracle = localization_oracles
    ring = oracle.GF2 if flavor == "gf2" else oracle.Q
    forms = [oracle.linear(w, ring) for w in weights]
    num = oracle.add(*(oracle.eval_monomial_symmetric(mu, forms, 2, ring)
                       for mu in ((1,), (2,))), ring)
    for axis in ((1, 0), (0, 1)):
        _, rem = oracle.divmod_linear(num, oracle.linear(axis, ring), ring)
        total = sum(rem.values())   # the restriction at y = 1
        assert rem and (total % 2 if flavor == "gf2" else total) == 0
    f = SymmetricFunction(((1,), (2,)))
    assert not localization_oracles.sum_is_polynomial(data, f.partitions)
    check = integrality_check_gf2 if flavor == "gf2" else integrality_check_z
    assert not check(data, f)


@pytest.mark.parametrize("n, degree", [(2, 4), (3, 6)])
def test_batch_table_matches_the_table_over_every_factor(n, degree):
    rng = random.Random(149)
    parts = [()] + mvpoly.partitions_up_to(degree, n)
    table = Gf2IntegralityTable(n, parts)
    oracle = localization_oracles.Gf2IntegralityTable(n, parts)
    monos = algebra.all_faithful_monomials_gf2(n)
    verdicts = set()
    for _ in range(30):
        g = Gf2Polynomial(n, rng.sample(monos, rng.randint(1, min(8, len(monos)))))
        for mu in parts:
            want = oracle.passes(g, mu)
            assert table.passes(g, mu) == want, (g, mu)
            verdicts.add(want)
    assert verdicts == {True, False}


# -- vanishing and support -----------------------------------------------------


def test_vanishing_test_zero_polynomial():
    assert vanishing_test(ExtPolynomial(2))


def test_vanishing_test_sees_nonzero_chern_numbers():
    # CP^1 is a kernel element but its degree-1 Chern number is 2
    assert not vanishing_test(CP1)


def test_vanishing_test_rejects_nonmembers():
    with pytest.raises(ValidationError):
        vanishing_test(ExtPolynomial(2, {((0, 1), (1, 0)): 1}))
    with pytest.raises(ValidationError):
        vanishing_test(RP2)


def test_vanishing_test_reports_errors_in_a_fixed_order():
    # the type first, then the cap, then kernel membership; a zero g passes
    # only with a valid cap
    not_kernel = ExtPolynomial(2, {((0, 1), (1, 0)): 1})
    with pytest.raises(ValidationError, match="integer-coefficient"):
        vanishing_test(RP2, -1)
    with pytest.raises(ValidationError, match="^degree cap must be at least 0, got -1$"):
        vanishing_test(not_kernel, -1)
    with pytest.raises(ValidationError, match="^degree cap must be at least 0, got -1$"):
        vanishing_test(ExtPolynomial(2), -1)
    with pytest.raises(ValidationError, match="not a kernel element"):
        vanishing_test(not_kernel, 3)


def test_chern_sweep_order_rank_rule_and_cap():
    for g in (CP1, CP2):
        data = FixedPointData.from_polynomial(g)
        for bound in (None, 0, 3):
            cap, numbers = chern_sweep(data, bound)
            assert cap == (2 * g.n if bound is None else bound)
            want = [(i, j) for i in range(cap + 1) for j in range((cap - i) // 2 + 1)
                    if not (j and g.n < 2)]
            got = list(numbers)
            assert [(r.i, r.j) for r in got] == want
            assert got == [equivariant_chern_number(data, i, j) for i, j in want]
    with pytest.raises(ValidationError, match="^degree cap must be at least 0, got -1$"):
        chern_sweep(FixedPointData.from_polynomial(CP2), -1)


def test_chern_sweep_refuses_more_numbers_than_its_limit():
    # floor((cap + 2)^2 / 4) numbers from rank 2 on, cap + 1 below; a sweep
    # at the limit is accepted, one past it is refused before any number
    assert MAX_CHERN_NUMBERS == 10_000
    cp1, cp2 = FixedPointData.from_polynomial(CP1), FixedPointData.from_polynomial(CP2)
    for data, cap, count in ((cp1, 10_000, 10_001), (cp2, 199, 10_100)):
        assert chern_sweep(data, cap - 1)[0] == cap - 1
        with pytest.raises(ResourceLimitError, match=f"has {count} numbers, over "
                           "the limit of 10000; pass a smaller degree cap"):
            chern_sweep(data, cap)
    # the default cap 2n
    with pytest.raises(ResourceLimitError, match="has 10000200001 numbers"):
        chern_sweep(FixedPointData("z", 100_000, []))
