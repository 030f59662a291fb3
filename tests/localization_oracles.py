"""Localization sums as the library computed them before one accumulation pass.

* Polynomials as {exponent tuple: coefficient} dicts with their own
  term-by-term arithmetic: over GF(2) every result is reduced mod 2, over Q
  coefficients are ints or Fractions.
* m_mu over ``set(itertools.permutations(...))``: every permutation of the
  padded partition is built, and the duplicates are dropped by a set.  Each
  arrangement is a product that starts from the constant 1 and is added into
  a fresh copy of the running sum.
* Localization numerators as a loop of ``add`` and ``mul``: each point's
  term is one product, then a scaled copy, then added into a copy of the
  sum.  The points are not folded, and the factors and cofactors are rebuilt
  here from the points.
* Division with remainder by a linear form on exponent tuples, with every
  quotient coefficient over Q a Fraction, whatever the pivot coefficient.
* The GF(2) integrality table that divides every term by all 2^n - 1 forms.
* The GF(2) table's bits with one Kronecker base per (factor, partition),
  from the largest single monomial's bound, as the library built them
  before every partition of a degree shared one base from the summed bound.
  It reads the library's local frames and Kronecker helpers, since what it
  checks is that the base moves no bit, and reads the bits off one at a time.
* A Chern sum at one integer point, summand by summand over Fractions.

Kept as test oracles, so the library's plane tests, its two ways of reading
a Chern number's value and its own-factor table are checked against code
that uses none of them.
"""

import itertools
import math
from fractions import Fraction

from bordismkit import algebra, localization, mvpoly

GF2 = "gf2"
Q = "q"


def normal(terms, ring):
    """The {exponent tuple: coefficient} dict with zero coefficients dropped,
    each reduced mod 2 over GF(2)."""
    if ring == GF2:
        return {e: 1 for e, c in terms.items() if c % 2}
    return {e: c for e, c in terms.items() if c}


def constant(nv, value, ring):
    return normal({(0,) * nv: value}, ring)


def linear(coeffs, ring):
    nv = len(coeffs)
    return normal({tuple(int(i == k) for i in range(nv)): a for k, a in enumerate(coeffs)},
                  ring)


def add(p, q, ring):
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + c
    return normal(out, ring)


def mul(p, q, ring):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return normal(out, ring)


def scaled(p, k, ring):
    return normal({e: c * k for e, c in p.items()}, ring)


def divmod_linear(p, form, ring):
    """(quotient, remainder) of p by a linear form, pivot = its first variable."""
    coeffs = {e.index(1): c for e, c in form.items()}
    pivot = min(coeffs)
    lead = coeffs.pop(pivot)
    rem, quo = dict(p), {}
    for d in range(max((e[pivot] for e in rem), default=0), 0, -1):
        for e in [e for e in rem if e[pivot] == d]:
            c = rem.pop(e)
            q = c if ring == GF2 else Fraction(c) / lead
            qe = e[:pivot] + (d - 1,) + e[pivot + 1:]
            quo[qe] = q
            for var, a in coeffs.items():
                ne = qe[:var] + (qe[var] + 1,) + qe[var + 1:]
                v = rem.get(ne, 0) - q * a
                if ring == GF2:
                    v %= 2
                if v:
                    rem[ne] = v
                else:
                    rem.pop(ne, None)
    return quo, rem


def eval_monomial_symmetric(mu, forms, nv, ring):
    """m_mu at the forms, over the set of all permutations of the padded mu."""
    mu = tuple(sorted(mu, reverse=True))
    padded = mu + (0,) * (len(forms) - len(mu))
    out = {}
    for arrangement in set(itertools.permutations(padded)):
        term = constant(nv, 1, ring)
        for f, d in zip(forms, arrangement):
            for _ in range(d):
                term = mul(term, f, ring)
        out = add(out, term, ring)
    return out


def _canonical(char, ring):
    if ring == GF2:
        return char, 1
    lead = next(v for v in char if v)
    return (tuple(-v for v in char), -1) if lead < 0 else (char, 1)


def _numerator(data, value, signed):
    """(N, factors, ring) with N = sum_p [sign_p] unit_p value(forms_p) (D / chi_p)."""
    ring = GF2 if data.flavor == "gf2" else Q
    n = data.n
    chars = sorted({_canonical(w, ring)[0] for pt in data.points for w in pt.weights})
    factors = {c: linear(c, ring) for c in chars}
    num = {}
    for pt in data.points:
        own = [_canonical(w, ring) for w in pt.weights]
        unit = 1
        for _, u in own:
            unit *= u
        cof = constant(n, 1, ring)
        for c in chars:
            if c not in {o for o, _ in own}:
                cof = mul(cof, factors[c], ring)
        forms = [linear(w, ring) for w in pt.weights]
        term = mul(value(forms, n, ring), cof, ring)
        num = add(num, scaled(term, (pt.sign if signed else 1) * unit, ring), ring)
    return num, [factors[c] for c in chars], ring


def _divide_out(num, factors, ring):
    for form in factors:
        num, rem = divmod_linear(num, form, ring)
        if rem:
            return None
    return num


def sum_is_polynomial(data, partitions, signed=False):
    """Whether sum_p [sign_p] f(w_p) / chi_p is a polynomial, f = sum of m_mu."""
    def value(forms, n, ring):
        out = {}
        for mu in partitions:
            out = add(out, eval_monomial_symmetric(mu, forms, n, ring), ring)
        return out
    return _divide_out(*_numerator(data, value, signed)) is not None


def chern_number(data, i, j):
    """(is_polynomial, integral, value terms, constant) of the (i, j) sum."""
    def value(forms, n, ring):
        out = constant(n, 1, ring)
        e1 = eval_monomial_symmetric((1,), forms, n, ring)
        for _ in range(i):
            out = mul(out, e1, ring)
        if j:
            e2 = eval_monomial_symmetric((1, 1), forms, n, ring)
            for _ in range(j):
                out = mul(out, e2, ring)
        return out
    terms = _divide_out(*_numerator(data, value, signed=True))
    if terms is None:
        return False, False, None, None
    integral = all(Fraction(c).denominator == 1 for c in terms.values())
    constant_term = None
    if not terms:
        constant_term = 0
    elif set(terms) == {(0,) * data.n}:
        constant_term = terms[(0,) * data.n]
    return True, integral, terms, constant_term


class Gf2IntegralityTable:
    """Per (partition, monomial) the set of (character, remainder monomial)
    pairs left when the term is divided by every one of the 2^n - 1 forms."""

    def __init__(self, n, partitions):
        chars = algebra.nonzero_chars_gf2(n)
        forms = {c: linear(c, GF2) for c in chars}
        self.n = n
        self.rows = {mu: {} for mu in partitions}
        for mono in algebra.all_faithful_monomials_gf2(n):
            cofactor = constant(n, 1, GF2)
            for c in chars:
                if c not in mono:
                    cofactor = mul(cofactor, forms[c], GF2)
            for mu in partitions:
                term = mul(eval_monomial_symmetric(mu, [forms[c] for c in mono], n, GF2),
                           cofactor, GF2)
                self.rows[mu][mono] = frozenset(
                    (c, e) for c in chars for e in divmod_linear(term, forms[c], GF2)[1])

    def passes(self, p, mu):
        acc = frozenset()
        for mono in p.terms:
            acc = acc ^ self.rows[mu][mono]
        return not acc


def gf2_table_bits(n, partitions):
    """{mu: {monomial: bits}} of the GF(2) table, one base per (factor, mu)."""
    points = [localization.FixedPoint(1, m) for m in algebra.all_faithful_monomials_gf2(n)]
    loc = localization._Localization(localization.FixedPointData._of("gf2", n, points))
    bits = {}
    for mu in map(mvpoly.canonical_partition, partitions):
        rows = [0] * len(loc.weights)
        if len(mu) < n:
            for t in range(len(loc.chars)):
                forms, members = localization._frame(loc, t)
                degree = sum(mu) + len(forms) - (n - 1)   # of the local numerator
                slots = localization._slots(n - 1, degree)
                b = max(own_l1 ** sum(mu) * cof_l1
                        for *_, own_l1, cof_l1 in members).bit_length()
                vals = localization._kronecker_values(forms, degree, b)
                mask = ((1 << b * slots) - 1) // ((1 << b) - 1)   # each slot's lowest bit
                for g, others, cof, scale, _, _ in members:
                    value = (mvpoly.monomial_symmetric_value(mu, [m * vals[s] for s, m in others])
                             * scale * math.prod(vals[s] for s in cof))
                    value &= mask
                    while value:   # each set bit, at a slot bottom b*s, as bit s
                        low = value & -value
                        rows[g] |= 1 << ((low.bit_length() - 1) // b + t * slots)
                        value ^= low
        bits[mu] = dict(zip(loc.weights, rows))
    return bits


def chern_value_at(data, i, j, x):
    """The (i, j) sum sum_p sign_p e1(w_p)^i e2(w_p)^j / chi_p at the
    integer point x, as a Fraction, one summand at a time (None when a
    weight vanishes at x)."""
    total = Fraction(0)
    for pt in data.points:
        values = [sum(a * v for a, v in zip(w, x)) for w in pt.weights]
        if not all(values):
            return None
        e1 = sum(values)
        e2 = sum(a * b for a, b in itertools.combinations(values, 2))
        total += Fraction(pt.sign * e1 ** i * e2 ** j, math.prod(values))
    return total
