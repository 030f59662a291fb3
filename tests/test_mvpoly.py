"""Sparse integer polynomials, integer m_mu values, and the oracles'
division by linear forms."""

import math
import random

import pytest

import localization_oracles as oracle
from bordismkit import mvpoly
from bordismkit.errors import ValidationError
from bordismkit.mvpoly import MPoly


def random_terms(rng, nv):
    terms = {}
    for _ in range(rng.randint(0, 14)):
        expt = tuple(rng.randint(0, 4) for _ in range(nv))
        terms[expt] = rng.choice((1, -1, 2, -3, 5, 7, -12))
    return terms


def random_poly(rng, nv):
    return MPoly(nv, random_terms(rng, nv))


def random_form(rng, nv, ring, leads=(0, 0, 1, -1, 2, 3, -2)):
    """A linear form nonzero in the ring, its pivot coefficient often not 1."""
    while True:
        form = oracle.linear([rng.choice(leads) for _ in range(nv)], ring)
        if form:
            return form


def pivot_of(form):
    return min(e.index(1) for e in form)


def split(rng, nv, form, ring):
    """(q, r, q*form + r) in the ring, r free of the form's pivot."""
    q = oracle.normal(random_terms(rng, nv), ring)
    r = oracle.normal({e: c for e, c in random_terms(rng, nv).items()
                       if not e[pivot_of(form)]}, ring)
    return q, r, oracle.add(oracle.mul(q, form, ring), r, ring)


@pytest.mark.parametrize("ring", [oracle.GF2, oracle.Q])
def test_divmod_linear_meets_its_definition(ring):
    # the oracles' division in each ring they compute in: p == q*f + r with
    # r free of the pivot variable pins both, so q*f + r divides back to
    # (q, r), and any p splits as q*f + r with r free of the pivot
    rng = random.Random(97 if ring == oracle.GF2 else 89)
    for _ in range(400):
        nv = rng.randint(1, 4)
        f = random_form(rng, nv, ring)
        q, r, p = split(rng, nv, f, ring)
        assert oracle.divmod_linear(p, f, ring) == (q, r)
        p = oracle.normal(random_terms(rng, nv), ring)
        quo, rem = oracle.divmod_linear(p, f, ring)
        assert oracle.add(oracle.mul(quo, f, ring), rem, ring) == p
        assert all(e[pivot_of(f)] == 0 for e in rem)
        assert all(quo.values()) and all(rem.values())


@pytest.mark.parametrize("ring", [oracle.GF2, oracle.Q])
def test_unit_pivot_quotients_keep_integer_coefficients(ring):
    # a pivot coefficient of 1 or -1 divides in Z, and read mod 2 it is 1:
    # in each ring the oracle's quotient and remainder of an integer
    # polynomial have integer coefficients
    rng = random.Random(113)
    for _ in range(300):
        nv = rng.randint(1, 4)
        f = random_form(rng, nv, ring)
        if f[max(f)] not in (1, -1):   # the pivot, the first variable f mentions
            continue
        _, _, p = split(rng, nv, f, ring)
        for num in (p, oracle.normal(random_terms(rng, nv), ring)):
            quo, rem = oracle.divmod_linear(num, f, ring)
            assert all(c == int(c) for c in list(quo.values()) + list(rem.values()))


def test_canonical_partition():
    assert mvpoly.canonical_partition([1, 3, 2]) == (3, 2, 1)
    assert mvpoly.canonical_partition(()) == ()
    for bad in ((2, 0), (-1,)):
        with pytest.raises(ValidationError, match="must be positive"):
            mvpoly.canonical_partition(bad)


def test_terms_round_trip_the_constructor():
    rng = random.Random(107)
    for _ in range(200):
        nv = rng.randint(1, 5)
        terms = {}
        for _ in range(rng.randint(0, 10)):
            expt = tuple(rng.randint(0, 9) for _ in range(nv))
            terms[expt] = rng.choice((1, -2, 3))
        p = MPoly(nv, terms)
        assert p.terms == terms
        assert MPoly(nv, p.terms) == p
        assert MPoly(nv, list(p.terms.items())) == p


def test_terms_is_a_copy():
    p = MPoly(2, {(1, 0): 2, (0, 3): -1})
    before = MPoly(2, {(1, 0): 2, (0, 3): -1})
    p.terms.clear()
    p.terms[(5, 5)] = 7
    assert p == before and p.terms == {(1, 0): 2, (0, 3): -1}
    with pytest.raises(AttributeError):
        p.terms = {}


def test_eq_hash_and_repr_agree():
    rng = random.Random(109)
    for _ in range(200):
        nv = rng.randint(1, 4)
        p = random_poly(rng, nv)
        shuffled = list(p.terms.items())
        rng.shuffle(shuffled)
        twin = MPoly(nv, shuffled)
        assert twin == p and hash(twin) == hash(p) and repr(twin) == repr(p)
        other = MPoly(nv, shuffled + [((0,) * nv, 1)])
        assert other != p and repr(other) != repr(p)
    assert repr(MPoly(2, {(0, 0): 3, (2, 1): -1, (0, 1): 2})) == \
        "MPoly(2, 3*1 + 2*x1 + -1*x0^2*x1)"
    assert repr(MPoly(3, [((1, 0, 1), 1), ((0, 0, 0), 3), ((0, 0, 0), -3)])) == \
        "MPoly(3, 1*x0*x2)"
    assert repr(MPoly.zero(2)) == "MPoly(2, 0)"
    assert MPoly(2, {(1, 0): 1}) != MPoly(3, {(1, 0, 0): 1})


def test_constructors_build_what_the_general_constructor_builds():
    assert MPoly.zero(3) == MPoly(3) == MPoly(3, {(0, 0, 0): 0})
    for value in (0, 1, 2, -3):
        assert MPoly(3, {(0, 0, 0): value}).constant_value() == value
    assert MPoly.zero(2).constant_value() == 0
    assert MPoly(2, {(0, 1): 1}).constant_value() is None
    assert MPoly(2, {(0, 0): 4, (1, 0): 1}).constant_value() is None
    for bad in ({(1,): 1}, {(0, -1): 1}):
        with pytest.raises(ValidationError, match="bad exponent tuple"):
            MPoly(2, bad)


def test_large_exponents_are_kept_exactly():
    # exponents are tuples, not packed fields, so no exponent can carry
    # into its neighbour, however large
    top = (1 << 32) - 1
    for expt in ((top, 0), (top, 1), (top + 1, 0), (0, 1 << 80)):
        p = MPoly(2, {expt: 3, (1, 0): 1})
        assert p.terms == {expt: 3, (1, 0): 1}
        assert p != MPoly(2, {(expt[0] + 1, expt[1]): 3, (1, 0): 1})


@pytest.mark.parametrize("ring", [oracle.GF2, oracle.Q])
def test_monomial_symmetric_matches_the_permutation_set(ring):
    # m_mu at integers, as the hyperplane evaluations read it (mod 2 in the
    # GF(2) table), against the permutation-set oracle on constant forms:
    # k = 0..7 values with zeros and repeats, every partition of degree <= 6;
    # at all-ones values it counts the distinct rearrangements of mu padded
    # with zeros, k! / ((k - l)! * the product of the multiplicities' factorials)
    rng = random.Random(151)
    for k in range(8):
        draws = [[0, 2, 2, -1, 0, 3, -3][:k]]
        draws += [[rng.choice((0, 1, -1, 2, -3, 10**6 + 3)) for _ in range(k)]
                  for _ in range(3)]
        for mu in [()] + mvpoly.partitions_up_to(6, 6):
            count = 0
            if len(mu) <= k:
                count = math.factorial(k) // math.factorial(k - len(mu))
                for part in set(mu):
                    count //= math.factorial(mu.count(part))
            assert mvpoly.monomial_symmetric_value(mu, [1] * k) == count, (k, mu)
        for values in draws:
            consts = [oracle.constant(1, v, ring) for v in values]
            for mu in [()] + mvpoly.partitions_up_to(6, 6):
                got = mvpoly.monomial_symmetric_value(mu, values)
                if len(mu) > k:
                    assert got == 0, (values, mu)
                    continue
                want = oracle.eval_monomial_symmetric(mu, consts, 1, ring)
                assert oracle.constant(1, got, ring) == want, (values, mu)


def test_monomial_symmetric_frozen_value():
    # m_(2,1)(1, 2, 3) = sum over i != j of x_i^2 x_j, worked by hand
    assert mvpoly.monomial_symmetric_value((2, 1), (1, 2, 3)) == 2 + 3 + 4 + 12 + 9 + 18 == 48
    # at 12 ones, C(12, 6) and 12! / (8! 2! 2!): the 12! permutations of the
    # padded partition are never listed
    assert mvpoly.monomial_symmetric_value((1,) * 6, [1] * 12) == 924
    assert mvpoly.monomial_symmetric_value((2, 2, 1, 1), [1] * 12) == 2970
