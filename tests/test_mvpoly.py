"""Exact division of sparse polynomials by linear forms."""

import itertools
import random
from fractions import Fraction

import pytest

import localization_oracles
from bordismkit import mvpoly
from bordismkit.errors import ValidationError
from bordismkit.mvpoly import GF2, Q, MPoly


def random_poly(rng, nv, ring):
    terms = {}
    for _ in range(rng.randint(0, 14)):
        expt = tuple(rng.randint(0, 4) for _ in range(nv))
        terms[expt] = rng.choice((1, -1, 2, -3, 5, Fraction(1, 3), Fraction(-7, 2)))
    return MPoly(nv, ring, terms)


def random_form(rng, nv, ring):
    """A nonzero linear form; over Q its pivot coefficient is never 1."""
    while True:
        coeffs = [rng.choice((0, 0, 1, -1, 2, 3)) for _ in range(nv)]
        if ring == Q:
            nonzero = [k for k, a in enumerate(coeffs) if a]
            if nonzero:
                coeffs[nonzero[0]] = rng.choice((2, -1, 3, -2, Fraction(1, 2)))
        form = MPoly.linear(coeffs, ring)
        if not form.is_zero():
            return form


def pivot_of(form):
    return min(i for e in form.terms for i, v in enumerate(e) if v)


@pytest.mark.parametrize("ring", [GF2, Q])
def test_divmod_linear_meets_its_definition(ring):
    # p == q*f + r with r free of the pivot variable: the quotient and
    # remainder of division by a linear form are unique, so this pins both
    rng = random.Random(97 if ring == GF2 else 89)
    for _ in range(400):
        nv = rng.randint(1, 4)
        p = random_poly(rng, nv, ring)
        f = random_form(rng, nv, ring)
        q, r = mvpoly.divmod_linear(p, f)
        assert q * f + r == p
        pivot = pivot_of(f)
        assert all(e[pivot] == 0 for e in r.terms)
        assert all(c for c in q.terms.values()) and all(c for c in r.terms.values())


def test_divmod_linear_lead_coefficient_two():
    # (2x + y) * (x^2 - y) + 5z over Q, divided by 2x + y
    f = MPoly.linear((2, 1, 0), Q)
    want_q = MPoly(3, Q, {(2, 0, 0): 1, (0, 1, 0): -1})
    r0 = MPoly(3, Q, {(0, 0, 1): 5})
    q, r = mvpoly.divmod_linear(want_q * f + r0, f)
    assert q == want_q and r == r0
    assert all(isinstance(c, Fraction) for c in q.terms.values())


def test_divmod_linear_rejects_non_linear_divisors():
    p = MPoly(2, Q, {(1, 1): 1})
    with pytest.raises(ValidationError):
        mvpoly.divmod_linear(p, MPoly(2, Q, {(1, 1): 1}))
    with pytest.raises(ValidationError):
        mvpoly.divmod_linear(p, MPoly.zero(2, Q))
    for ring in (GF2, Q):
        x = MPoly.linear((1, 0), ring)
        for bad in (x + MPoly.constant(2, ring, 1), x * x):   # x + 1 and x^2
            with pytest.raises(ValidationError, match="nonzero linear form"):
                mvpoly.divmod_linear(MPoly(2, ring, {(1, 1): 1}), bad)


@pytest.mark.parametrize("ring", [GF2, Q])
def test_unit_pivot_quotients_keep_integer_coefficients(ring):
    # a pivot coefficient of 1 divides exactly in Z, so ints stay ints; any
    # other lead gives Fractions, and no coefficient is ever a float
    rng = random.Random(113)
    seen = set()
    for _ in range(300):
        nv = rng.randint(1, 4)
        p = MPoly(nv, ring, {tuple(rng.randint(0, 3) for _ in range(nv)):
                             rng.choice((1, -1, 2, -3, 7)) for _ in range(rng.randint(0, 12))})
        coeffs = [rng.choice((0, 0, 1, -1, 2, 3)) for _ in range(nv)]
        form = MPoly.linear(coeffs, ring)
        if form.is_zero():
            continue
        q, r = mvpoly.divmod_linear(p, form)
        assert q * form + r == p
        types = {type(c) for c in list(q.terms.values()) + list(r.terms.values())}
        assert float not in types
        unit = ring == GF2 or next(c for c in coeffs if c) == 1
        if unit:
            assert types <= {int}
        seen.add((unit, Fraction in types))
    assert (True, False) in seen and (ring == GF2 or (False, True) in seen)


def tuple_key_product(a, b):
    """The product as it was computed on exponent tuples, term by term."""
    acc = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            v = acc.get(e, 0) + c1 * c2
            if a.ring == GF2:
                v &= 1
            if v:
                acc[e] = v
            else:
                acc.pop(e, None)
    return acc


@pytest.mark.parametrize("ring", [GF2, Q])
def test_product_matches_the_tuple_key_loop(ring):
    rng = random.Random(101 if ring == GF2 else 103)
    for _ in range(300):
        nv = rng.randint(1, 5)
        a, b = random_poly(rng, nv, ring), random_poly(rng, nv, ring)
        want = tuple_key_product(a, b)
        got = (a * b).terms
        assert got == want
        assert a * b == MPoly(nv, ring, want)
        # the loop restarted a cancelled coefficient from int 0, so types
        # agree term by term whenever every product has one type
        if len({type(x * y) for x in a.terms.values() for y in b.terms.values()}) == 1:
            assert sorted((e, type(c)) for e, c in got.items()) == \
                sorted((e, type(c)) for e, c in want.items())


@pytest.mark.parametrize("ring", [GF2, Q])
def test_product_starts_from_its_first_factor(ring, monkeypatch):
    rng = random.Random(109)
    factors = [random_poly(rng, 3, ring) for _ in range(4)]
    calls = []
    real = mvpoly.combination
    monkeypatch.setattr(mvpoly, "combination",
                        lambda *args: calls.append(1) or real(*args))
    assert mvpoly.product(factors[:1], 3, ring) is factors[0]
    assert mvpoly.product([], 3, ring) == MPoly.constant(3, ring, 1)
    assert not calls
    a, b, c, d = factors
    assert mvpoly.product(factors, 3, ring) == ((a * b) * c) * d
    assert len(calls) == 3 + 3      # the product's and the check's


def test_canonical_partition():
    assert mvpoly.canonical_partition([1, 3, 2]) == (3, 2, 1)
    assert mvpoly.canonical_partition(()) == ()
    for bad in ((2, 0), (-1,)):
        with pytest.raises(ValidationError, match="must be positive"):
            mvpoly.canonical_partition(bad)


@pytest.mark.parametrize("ring", [GF2, Q])
def test_terms_round_trip_the_constructor(ring):
    rng = random.Random(107)
    for _ in range(200):
        nv = rng.randint(1, 5)
        terms = {}
        for _ in range(rng.randint(0, 10)):
            expt = tuple(rng.randint(0, 9) for _ in range(nv))
            terms[expt] = 1 if ring == GF2 else rng.choice((1, -2, Fraction(3, 4)))
        p = MPoly(nv, ring, terms)
        assert p.terms == terms
        assert MPoly(nv, ring, p.terms) == p
        assert MPoly(nv, ring, list(p.terms.items())) == p


def test_terms_is_a_copy():
    p = MPoly(2, Q, {(1, 0): 2, (0, 3): -1})
    before = MPoly(2, Q, {(1, 0): 2, (0, 3): -1})
    p.terms.clear()
    p.terms[(5, 5)] = 7
    assert p == before and p.terms == {(1, 0): 2, (0, 3): -1}
    with pytest.raises(AttributeError):
        p.terms = {}


def test_eq_hash_and_repr_agree():
    rng = random.Random(109)
    for ring in (GF2, Q):
        for _ in range(100):
            nv = rng.randint(1, 4)
            p = random_poly(rng, nv, ring)
            shuffled = list(p.terms.items())
            rng.shuffle(shuffled)
            twin = MPoly(nv, ring, shuffled)
            assert twin == p and hash(twin) == hash(p) and repr(twin) == repr(p)
            other = p + MPoly.constant(nv, ring, 1)
            assert other != p and repr(other) != repr(p)
    assert repr(MPoly(2, Q, {(0, 0): 3, (2, 1): -1, (0, 1): Fraction(1, 2)})) == \
        "MPoly(2, 'q', 3*1 + 1/2*x1 + -1*x0^2*x1)"
    assert repr(MPoly(3, GF2, {(1, 0, 1): 1, (0, 0, 0): 3, (0, 2, 0): 2})) == \
        "MPoly(3, 'gf2', 1 + x0*x2)"
    assert repr(MPoly.zero(2, GF2)) == "MPoly(2, 'gf2', 0)"
    assert MPoly(2, Q, {(1, 0): 1}) != MPoly(2, GF2, {(1, 0): 1})
    assert MPoly(2, Q, {(1, 0): 1}) != MPoly(3, Q, {(1, 0, 0): 1})


def test_constructors_build_what_the_general_constructor_builds():
    for ring in (GF2, Q):
        assert MPoly.zero(3, ring) == MPoly(3, ring)
        for value in (0, 1, 2, -3, Fraction(5, 2)):
            if ring == GF2 and isinstance(value, Fraction):
                continue
            assert MPoly.constant(3, ring, value) == MPoly(3, ring, {(0, 0, 0): value})
        coeffs = (0, 3, -1, 2)
        assert MPoly.linear(coeffs, ring) == MPoly(4, ring, {
            tuple(int(i == k) for i in range(4)): a for k, a in enumerate(coeffs) if a})
    assert MPoly.constant(2, Q, 7).constant_value() == 7
    assert MPoly.linear((0, 1), Q).constant_value() is None
    # a linear form is a divisor; its quotient of itself is 1
    assert mvpoly.divmod_linear(MPoly.linear((0, 1), Q), MPoly.linear((0, 1), Q)) == \
        (MPoly.constant(2, Q, 1), MPoly.zero(2, Q))
    for build in (lambda: MPoly(2, "z"), lambda: MPoly.zero(2, "z"),
                  lambda: MPoly.constant(2, "z", 1), lambda: MPoly.linear((1, 0), "z")):
        with pytest.raises(ValidationError, match="unknown coefficient ring"):
            build()


def test_degree_guard_raises_instead_of_wrapping():
    top = (1 << mvpoly.W) - 1
    x = MPoly.linear((1, 0), Q)
    big = MPoly(2, Q, {(top, 0): 1})
    assert big.terms == {(top, 0): 1}
    with pytest.raises(ValidationError):
        big * x
    with pytest.raises(ValidationError):
        x * big
    with pytest.raises(ValidationError):
        MPoly(2, GF2, {(top, 1): 1})
    with pytest.raises(ValidationError):
        MPoly(1, Q, {(top + 1,): 1})
    # a bound on the total degree: x0^(top-1) * x1 stays below it
    assert (MPoly(2, Q, {(top - 1, 0): 1}) * MPoly.linear((0, 1), Q)).terms == \
        {(top - 1, 1): 1}


def scaled_sum_of_products(triples, nv, ring):
    """sum k*a*b by the tuple-key product, a scaled copy and a sum per triple."""
    out = MPoly.zero(nv, ring)
    for k, a, b in triples:
        prod = tuple_key_product(a, b)
        if ring == GF2:
            k &= 1
        out = out + MPoly(nv, ring, {e: c * k for e, c in prod.items()})
    return out


@pytest.mark.parametrize("ring", [GF2, Q])
def test_combination_matches_a_sum_of_scaled_products(ring):
    rng = random.Random(127 if ring == GF2 else 131)
    for _ in range(200):
        nv = rng.randint(1, 4)
        triples = [(rng.choice((0, 1, 2, 3, -1, -4, Fraction(1, 2) if ring == Q else 5)),
                    random_poly(rng, nv, ring), random_poly(rng, nv, ring))
                   for _ in range(rng.randint(0, 5))]
        got = mvpoly.combination(iter(triples), nv, ring)
        assert got == scaled_sum_of_products(triples, nv, ring)
        assert all(c for c in got.terms.values())


def test_combination_edge_cases():
    for ring in (GF2, Q):
        x, y = MPoly.linear((1, 0), ring), MPoly.linear((1, 1), ring)
        assert mvpoly.combination([], 2, ring) == MPoly.zero(2, ring)
        assert mvpoly.combination([(1, x, y)], 2, ring) == x * y
    # over GF(2) an even k drops its term and an odd one keeps it
    x, y = MPoly.linear((1, 0), GF2), MPoly.linear((1, 1), GF2)
    assert mvpoly.combination([(2, x, y), (-4, y, y)], 2, GF2).is_zero()
    assert mvpoly.combination([(3, x, y), (2, y, y)], 2, GF2) == x * y
    assert mvpoly.combination([(1, x, y), (1, y, x)], 2, GF2).is_zero()
    # over Q terms cancel to zero, and nothing of them is kept
    x, y = MPoly.linear((1, -2), Q), MPoly.linear((3, 1), Q)
    zero = mvpoly.combination([(2, x, y), (-1, y, x), (Fraction(-1, 1), x, y)], 2, Q)
    assert zero.is_zero() and zero.terms == {}
    half = mvpoly.combination([(Fraction(1, 2), x, y), (Fraction(1, 2), x, y)], 2, Q)
    assert half == x * y
    # the degree guard, and the ring check
    top = (1 << mvpoly.W) - 1
    big = MPoly(2, Q, {(top, 0): 1})
    with pytest.raises(ValidationError):
        mvpoly.combination([(1, big, x)], 2, Q)
    with pytest.raises(ValidationError):
        mvpoly.combination([(1, x, MPoly.linear((1, 0), GF2))], 2, Q)
    with pytest.raises(ValidationError):
        mvpoly.combination([(1, x, x)], 3, Q)


def test_rearrangements_are_the_distinct_permutations():
    for k in range(8):
        for mu in [()] + mvpoly.partitions_up_to(6, k):
            padded = mu + (0,) * (k - len(mu))
            walk = list(mvpoly._rearrangements(padded))
            assert len(walk) == len(set(walk)) and walk == sorted(walk)
            assert set(walk) == set(itertools.permutations(padded)), (k, mu)


@pytest.mark.parametrize("ring", [GF2, Q])
def test_monomial_symmetric_matches_the_permutation_set(ring):
    # m_mu at integers, as the hyperplane evaluations read it (mod 2 in the
    # GF(2) table), against the permutation-set oracle on constant forms
    rng = random.Random(151)
    for _ in range(60):
        k = rng.randint(0, 5)
        values = [rng.choice((0, 1, -1, 2, -3, 10**6 + 3)) for _ in range(k)]
        consts = [MPoly.constant(1, ring, v) for v in values]
        for mu in [()] + mvpoly.partitions_up_to(4, k):
            got = mvpoly.monomial_symmetric_value(mu, values)
            want = localization_oracles.eval_monomial_symmetric(mu, consts, 1, ring)
            assert MPoly.constant(1, ring, got) == want, (values, mu)
        assert mvpoly.monomial_symmetric_value((1,) * (k + 1), values) == 0
