"""Sparse integer polynomials and their exact division by linear forms."""

import math
import random

import pytest

import localization_oracles as oracle
from bordismkit import mvpoly
from bordismkit.errors import ValidationError
from bordismkit.mvpoly import MPoly


def random_poly(rng, nv):
    terms = {}
    for _ in range(rng.randint(0, 14)):
        expt = tuple(rng.randint(0, 4) for _ in range(nv))
        terms[expt] = rng.choice((1, -1, 2, -3, 5, 7, -12))
    return MPoly(nv, terms)


def random_form(rng, nv):
    """A nonzero linear form, its pivot coefficient often not 1."""
    while True:
        form = MPoly.linear([rng.choice((0, 0, 1, -1, 2, 3, -2)) for _ in range(nv)])
        if not form.is_zero():
            return form


def pivot_of(form):
    return min(i for e in form.terms for i, v in enumerate(e) if v)


def plus(p, r):
    """p + r, as the combination p*1 + r*1."""
    one = MPoly.constant(p.nv, 1)
    return mvpoly.combination([(1, p, one), (1, r, one)], p.nv)


def test_divide_linear_meets_its_definition():
    # the quotient by a linear form in its pivot variable is unique: q*f
    # divides back to q with int coefficients, q*f + r with r free of the
    # pivot never divides, and every p divides exactly when the
    # Fraction-valued oracle over Q leaves no remainder and an integer
    # quotient
    rng = random.Random(89)
    verdicts = set()
    for _ in range(400):
        nv = rng.randint(1, 4)
        q, f = random_poly(rng, nv), random_form(rng, nv)
        back = mvpoly.divide_linear(q * f, f)
        assert back == q and all(type(c) is int for c in back.terms.values())
        pivot = pivot_of(f)
        r = MPoly(nv, {e: c for e, c in random_poly(rng, nv).terms.items() if not e[pivot]})
        if not r.is_zero():
            assert mvpoly.divide_linear(plus(q * f, r), f) is None
        p = rng.choice((random_poly(rng, nv), q * f, plus(q * f, r)))
        got = mvpoly.divide_linear(p, f)
        quo, rem = oracle.divmod_linear(p.terms, f.terms, oracle.Q)
        divides = not rem and all(c.denominator == 1 for c in quo.values())
        assert (got is not None) == divides
        if divides:
            assert got.terms == quo
        verdicts.add(divides)
    assert verdicts == {True, False}


def test_divide_linear_lead_coefficient_two():
    # (2x + y) * (x^2 - y) + 5z, divided by 2x + y
    f = MPoly.linear((2, 1, 0))
    want = MPoly(3, {(2, 0, 0): 1, (0, 1, 0): -1})
    got = mvpoly.divide_linear(want * f, f)
    assert got == want and all(type(c) is int for c in got.terms.values())
    assert mvpoly.divide_linear(plus(want * f, MPoly(3, {(0, 0, 1): 5})), f) is None
    # 2x + 2y is not primitive: it divides x + y over Q, not over Z
    assert mvpoly.divide_linear(MPoly.linear((1, 1, 0)), MPoly.linear((2, 2, 0))) is None
    assert mvpoly.divide_linear(MPoly.zero(3), f) == MPoly.zero(3)


def test_divide_linear_divides_over_z_as_over_q_for_primitive_forms():
    # Gauss's lemma: a primitive form that divides an integer polynomial
    # over Q divides it over Z, so the Fraction-valued oracle's quotient is
    # integral; k times the form divides q*form over Q always, and over Z
    # only when k divides q's content
    rng = random.Random(173)
    for _ in range(300):
        nv = rng.randint(1, 4)
        form = random_form(rng, nv)
        content = math.gcd(*form.terms.values())
        form = MPoly(nv, {e: c // content for e, c in form.terms.items()})
        q, k = random_poly(rng, nv), rng.choice((1, 2, 3))
        quo, rem = oracle.divmod_linear((q * form).terms, form.terms, oracle.Q)
        assert not rem and all(c.denominator == 1 for c in quo.values())
        assert mvpoly.divide_linear(q * form, form) == q
        q_content = math.gcd(*q.terms.values())
        want = MPoly(nv, {e: c // k for e, c in q.terms.items()}) if q_content % k == 0 else None
        multiple = MPoly(nv, {e: k * c for e, c in form.terms.items()})
        assert mvpoly.divide_linear(q * form, multiple) == want


def test_divide_linear_rejects_non_linear_divisors():
    p = MPoly(2, {(1, 1): 1})
    x = MPoly.linear((1, 0))
    for bad in (MPoly(2, {(1, 1): 1}), MPoly.zero(2), MPoly(2, {(1, 0): 1, (0, 0): 1}), x * x):
        with pytest.raises(ValidationError, match="nonzero linear form"):
            mvpoly.divide_linear(p, bad)
    with pytest.raises(ValidationError, match="different rings"):
        mvpoly.divide_linear(p, MPoly.linear((1, 0, 0)))


def read_in(p, ring):
    """p's terms as the oracles hold them in the ring (mod 2 over GF(2))."""
    return oracle.normal(p.terms, ring)


@pytest.mark.parametrize("ring", [oracle.GF2, oracle.Q])
def test_divmod_linear_meets_its_definition(ring):
    # the oracles' division in each ring they compute in: p == q*f + r with
    # r free of the pivot variable pins both, and wherever the library's
    # divide_linear finds a quotient over Z, read in the ring it is the
    # oracle's, with no remainder; over Q the library refuses only where the
    # oracle leaves a remainder or a non-integral quotient
    rng = random.Random(97 if ring == oracle.GF2 else 89)
    verdicts = set()
    for _ in range(400):
        nv = rng.randint(1, 4)
        f = random_form(rng, nv)
        fr = read_in(f, ring)
        if not fr:
            continue
        q = random_poly(rng, nv)
        r = MPoly(nv, {e: c for e, c in random_poly(rng, nv).terms.items()
                       if not e[pivot_of(f)]})
        p = rng.choice((random_poly(rng, nv), q * f, plus(q * f, r)))
        pr = read_in(p, ring)
        quo, rem = oracle.divmod_linear(pr, fr, ring)
        assert oracle.add(oracle.mul(quo, fr, ring), rem, ring) == pr
        pivot = min(e.index(1) for e in fr)
        assert all(e[pivot] == 0 for e in rem)
        assert all(quo.values()) and all(rem.values())
        got = mvpoly.divide_linear(p, f)
        if got is not None:
            assert not rem and read_in(got, ring) == quo
        elif ring == oracle.Q:
            assert rem or any(c.denominator != 1 for c in quo.values())
        verdicts.add(got is not None)
    assert verdicts == {True, False}


@pytest.mark.parametrize("ring", [oracle.GF2, oracle.Q])
def test_unit_pivot_quotients_keep_integer_coefficients(ring):
    # a pivot coefficient of 1 or -1 divides in Z, and read mod 2 it is 1:
    # in each ring the oracle's quotient and remainder have integer
    # coefficients, and the library's divide_linear refuses only where a
    # remainder is left, over Q exactly there
    rng = random.Random(113)
    seen = set()
    for _ in range(300):
        nv = rng.randint(1, 4)
        coeffs = [rng.choice((0, 0, 1, -1, 2, 3)) for _ in range(nv)]
        if next((c for c in coeffs if c), 0) not in (1, -1):
            continue
        form = MPoly.linear(coeffs)
        q = random_poly(rng, nv)
        r = MPoly(nv, {e: c for e, c in random_poly(rng, nv).terms.items()
                       if not e[pivot_of(form)]})
        p = rng.choice((random_poly(rng, nv), plus(q * form, r)))
        quo, rem = oracle.divmod_linear(read_in(p, ring), read_in(form, ring), ring)
        assert all(c == int(c) for c in list(quo.values()) + list(rem.values()))
        got = mvpoly.divide_linear(p, form)
        if got is not None:
            assert not rem and read_in(got, ring) == quo
            assert all(type(c) is int for c in got.terms.values())
        elif ring == oracle.Q:
            assert rem
        seen.add(got is not None)
    assert seen == {True, False}


@pytest.mark.parametrize("ring", [oracle.GF2, oracle.Q])
def test_product_matches_the_tuple_key_loop(ring):
    # the oracles' term-by-term product on exponent tuples, in each ring
    # they compute in: the library's over Z, read there, is theirs
    rng = random.Random(101 if ring == oracle.GF2 else 103)
    for _ in range(300):
        nv = rng.randint(1, 5)
        a, b = random_poly(rng, nv), random_poly(rng, nv)
        got = a * b
        assert all(type(c) is int for c in got.terms.values())
        assert read_in(got, ring) == oracle.mul(read_in(a, ring), read_in(b, ring), ring)


def test_product_starts_from_its_first_factor(monkeypatch):
    rng = random.Random(109)
    factors = [random_poly(rng, 3) for _ in range(4)]
    calls = []
    real = mvpoly.combination
    monkeypatch.setattr(mvpoly, "combination",
                        lambda *args: calls.append(1) or real(*args))
    assert mvpoly.product(factors[:1], 3) is factors[0]
    assert mvpoly.product([], 3) == MPoly.constant(3, 1)
    assert not calls
    a, b, c, d = factors
    assert mvpoly.product(factors, 3) == ((a * b) * c) * d
    assert len(calls) == 3 + 3      # the product's and the check's


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
        other = plus(p, MPoly.constant(nv, 1))
        assert other != p and repr(other) != repr(p)
    assert repr(MPoly(2, {(0, 0): 3, (2, 1): -1, (0, 1): 2})) == \
        "MPoly(2, 3*1 + 2*x1 + -1*x0^2*x1)"
    assert repr(MPoly(3, [((1, 0, 1), 1), ((0, 0, 0), 3), ((0, 0, 0), -3)])) == \
        "MPoly(3, 1*x0*x2)"
    assert repr(MPoly.zero(2)) == "MPoly(2, 0)"
    assert MPoly(2, {(1, 0): 1}) != MPoly(3, {(1, 0, 0): 1})


def test_constructors_build_what_the_general_constructor_builds():
    assert MPoly.zero(3) == MPoly(3)
    for value in (0, 1, 2, -3):
        assert MPoly.constant(3, value) == MPoly(3, {(0, 0, 0): value})
    coeffs = (0, 3, -1, 2)
    assert MPoly.linear(coeffs) == MPoly(4, {
        tuple(int(i == k) for i in range(4)): a for k, a in enumerate(coeffs) if a})
    assert MPoly.constant(2, 7).constant_value() == 7
    assert MPoly.zero(2).constant_value() == 0
    assert MPoly.linear((0, 1)).constant_value() is None
    # a linear form is a divisor; its quotient of itself is 1
    assert mvpoly.divide_linear(MPoly.linear((0, 1)), MPoly.linear((0, 1))) == \
        MPoly.constant(2, 1)


def test_degree_guard_raises_instead_of_wrapping():
    top = (1 << mvpoly.W) - 1
    x = MPoly.linear((1, 0))
    big = MPoly(2, {(top, 0): 1})
    assert big.terms == {(top, 0): 1}
    with pytest.raises(ValidationError):
        big * x
    with pytest.raises(ValidationError):
        x * big
    with pytest.raises(ValidationError):
        MPoly(2, {(top, 1): 1})
    with pytest.raises(ValidationError):
        MPoly(1, {(top + 1,): 1})
    # a bound on the total degree: x0^(top-1) * x1 stays below it
    assert (MPoly(2, {(top - 1, 0): 1}) * MPoly.linear((0, 1))).terms == \
        {(top - 1, 1): 1}


@pytest.mark.parametrize("ring", [oracle.GF2, oracle.Q])
def test_combination_matches_a_sum_of_scaled_products(ring):
    # the oracles' product, scaled copy and sum per triple, in each ring
    rng = random.Random(127 if ring == oracle.GF2 else 131)
    for _ in range(200):
        nv = rng.randint(1, 4)
        triples = [(rng.choice((0, 1, 2, 3, -1, -4, 5)), random_poly(rng, nv), random_poly(rng, nv))
                   for _ in range(rng.randint(0, 5))]
        got = mvpoly.combination(iter(triples), nv)
        assert all(c for c in got.terms.values())
        want = {}
        for k, a, b in triples:
            want = oracle.add(want, oracle.scaled(
                oracle.mul(read_in(a, ring), read_in(b, ring), ring), k, ring), ring)
        assert read_in(got, ring) == want


def test_combination_edge_cases():
    x, y = MPoly.linear((1, -2)), MPoly.linear((3, 1))
    assert mvpoly.combination([], 2) == MPoly.zero(2)
    assert mvpoly.combination([(1, x, y)], 2) == x * y
    assert mvpoly.combination([(0, x, y)], 2).is_zero()
    # terms cancel to zero, and nothing of them is kept
    zero = mvpoly.combination([(2, x, y), (-1, y, x), (-1, x, y)], 2)
    assert zero.is_zero() and zero.terms == {}
    assert mvpoly.combination([(3, x, y), (-1, y, x)], 2) == \
        mvpoly.combination([(2, x, y)], 2)
    # the degree guard, and the ring check
    top = (1 << mvpoly.W) - 1
    big = MPoly(2, {(top, 0): 1})
    with pytest.raises(ValidationError):
        mvpoly.combination([(1, big, x)], 2)
    with pytest.raises(ValidationError):
        mvpoly.combination([(1, x, MPoly.linear((1, 0, 0)))], 2)
    with pytest.raises(ValidationError):
        mvpoly.combination([(1, x, x)], 3)


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
