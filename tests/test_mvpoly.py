"""Exact division of sparse polynomials by linear forms."""

import random
from fractions import Fraction

import pytest

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
    assert mvpoly.divides_linear(f, want_q * f)
    assert not mvpoly.divides_linear(f, want_q * f + r0)


def test_divmod_linear_rejects_non_linear_divisors():
    p = MPoly(2, Q, {(1, 1): 1})
    with pytest.raises(ValidationError):
        mvpoly.divmod_linear(p, MPoly(2, Q, {(1, 1): 1}))
    with pytest.raises(ValidationError):
        mvpoly.divmod_linear(p, MPoly.zero(2, Q))
