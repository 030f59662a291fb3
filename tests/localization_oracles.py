"""Localization sums as the library computed them before one accumulation pass.

* m_mu over ``set(itertools.permutations(...))``: every permutation of the
  padded partition is built, and the duplicates are dropped by a set.  Each
  arrangement is a product that starts from the constant 1 and is added into
  a fresh copy of the running sum.
* Localization numerators as a loop of ``+`` and ``*``: each point's term is
  one product, then a scaled copy, then added into a copy of the sum.  The
  points are not folded, and the factors and cofactors are rebuilt here from
  the points.
* Division by a linear form on exponent tuples, with every quotient
  coefficient over Q a Fraction, whatever the pivot coefficient.
* The GF(2) integrality table that divides every term by all 2^n - 1 forms.
* The GF(2) table's bits with one Kronecker base per (factor, partition),
  from the largest single monomial's bound, as the library built them
  before every partition of a degree shared one base from the summed bound.
  It reads the library's plane data and Kronecker helpers, since what it
  checks is that the base moves no bit, and reads the bits off one at a time.

Kept as test oracles, so the library's accumulator, unit-pivot division and
own-factor table are checked against code that uses none of them.
"""

import itertools
import math
from fractions import Fraction

from bordismkit import algebra, localization, mvpoly
from bordismkit.mvpoly import GF2, Q, MPoly


def divmod_linear(p, form):
    """(quotient, remainder) of p by a linear form, pivot = its first variable."""
    gf2 = p.ring == GF2
    coeffs = {e.index(1): c for e, c in form.terms.items()}
    pivot = min(coeffs)
    lead = coeffs.pop(pivot)
    rem, quo = p.terms, {}
    for d in range(max((e[pivot] for e in rem), default=0), 0, -1):
        for e in [e for e in rem if e[pivot] == d]:
            c = rem.pop(e)
            q = c if gf2 else Fraction(c) / lead
            qe = e[:pivot] + (d - 1,) + e[pivot + 1:]
            quo[qe] = q
            for var, a in coeffs.items():
                ne = qe[:var] + (qe[var] + 1,) + qe[var + 1:]
                v = rem.get(ne, 0) - q * a
                if gf2:
                    v &= 1
                if v:
                    rem[ne] = v
                else:
                    rem.pop(ne, None)
    return MPoly(p.nv, p.ring, quo), MPoly(p.nv, p.ring, rem)


def scaled(p, k):
    """A scaled copy of p."""
    if p.ring == GF2:
        return p if k & 1 else MPoly.zero(p.nv, p.ring)
    return MPoly(p.nv, p.ring, {e: c * k for e, c in p.terms.items()})


def eval_monomial_symmetric(mu, forms, nv, ring):
    """m_mu at the forms, over the set of all permutations of the padded mu."""
    mu = tuple(sorted(mu, reverse=True))
    padded = mu + (0,) * (len(forms) - len(mu))
    out = MPoly.zero(nv, ring)
    for arrangement in set(itertools.permutations(padded)):
        term = MPoly.constant(nv, ring, 1)
        for f, d in zip(forms, arrangement):
            for _ in range(d):
                term = term * f
        out = out + term
    return out


def _canonical(char, ring):
    if ring == GF2:
        return char, 1
    lead = next(v for v in char if v)
    return (tuple(-v for v in char), -1) if lead < 0 else (char, 1)


def _numerator(data, value, signed):
    """(N, factors) with N = sum_p [sign_p] unit_p value(forms_p) (D / chi_p)."""
    ring = GF2 if data.flavor == "gf2" else Q
    n = data.n
    chars = sorted({_canonical(w, ring)[0] for pt in data.points for w in pt.weights})
    factors = {c: MPoly.linear(c, ring) for c in chars}
    num = MPoly.zero(n, ring)
    for pt in data.points:
        own = [_canonical(w, ring) for w in pt.weights]
        unit = 1
        for _, u in own:
            unit *= u
        cof = MPoly.constant(n, ring, 1)
        for c in chars:
            if c not in {o for o, _ in own}:
                cof = cof * factors[c]
        forms = [MPoly.linear(w, ring) for w in pt.weights]
        term = value(forms, n, ring) * cof
        num = num + scaled(term, (pt.sign if signed else 1) * unit)
    return num, [factors[c] for c in chars]


def _divide_out(num, factors):
    for form in factors:
        num, rem = divmod_linear(num, form)
        if not rem.is_zero():
            return None
    return num


def sum_is_polynomial(data, partitions, signed=False):
    """Whether sum_p [sign_p] f(w_p) / chi_p is a polynomial, f = sum of m_mu."""
    def value(forms, n, ring):
        out = MPoly.zero(n, ring)
        for mu in partitions:
            out = out + eval_monomial_symmetric(mu, forms, n, ring)
        return out
    num, factors = _numerator(data, value, signed)
    return _divide_out(num, factors) is not None


def chern_number(data, i, j):
    """(is_polynomial, integral, value terms, constant) of the (i, j) sum."""
    def value(forms, n, ring):
        out = MPoly.constant(n, ring, 1)
        e1 = eval_monomial_symmetric((1,), forms, n, ring)
        for _ in range(i):
            out = out * e1
        if j:
            e2 = eval_monomial_symmetric((1, 1), forms, n, ring)
            for _ in range(j):
                out = out * e2
        return out
    num, factors = _numerator(data, value, signed=True)
    quo = _divide_out(num, factors)
    if quo is None:
        return False, False, None, None
    terms = quo.terms
    integral = all(Fraction(c).denominator == 1 for c in terms.values())
    constant = None
    if not terms:
        constant = 0
    elif set(terms) == {(0,) * data.n}:
        constant = terms[(0,) * data.n]
    return True, integral, terms, constant


class Gf2IntegralityTable:
    """Per (partition, monomial) the set of (character, remainder monomial)
    pairs left when the term is divided by every one of the 2^n - 1 forms."""

    def __init__(self, n, partitions):
        chars = algebra.nonzero_chars_gf2(n)
        forms = {c: MPoly.linear(c, GF2) for c in chars}
        self.n = n
        self.rows = {mu: {} for mu in partitions}
        for mono in algebra.all_faithful_monomials_gf2(n):
            cofactor = MPoly.constant(n, GF2, 1)
            for c in chars:
                if c not in mono:
                    cofactor = cofactor * forms[c]
            for mu in partitions:
                term = eval_monomial_symmetric(
                    mu, [forms[c] for c in mono], n, GF2) * cofactor
                self.rows[mu][mono] = frozenset(
                    (c, e) for c in chars for e in divmod_linear(term, forms[c])[1].terms)

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
            degree = sum(mu) + len(loc.chars) - n
            slots = localization._slots(n - 1, degree)
            for t in range(len(loc.chars)):
                forms, members = localization._frame(loc, t)
                b = max(own_l1 ** sum(mu) * cof_l1
                        for _, _, _, own_l1, cof_l1 in members).bit_length()
                vals = localization._kronecker_values(forms, degree, b)
                mask = ((1 << b * slots) - 1) // ((1 << b) - 1)   # each slot's lowest bit
                for g, others, cof, _, _ in members:
                    value = (mvpoly.monomial_symmetric_value(mu, [vals[s] for s, _ in others])
                             * math.prod(vals[s] for s in cof))
                    value &= mask
                    while value:   # each set bit, at a slot bottom b*s, as bit s
                        low = value & -value
                        rows[g] |= 1 << ((low.bit_length() - 1) // b + t * slots)
                        value ^= low
        bits[mu] = dict(zip(loc.weights, rows))
    return bits
