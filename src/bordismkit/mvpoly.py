"""Sparse multivariate polynomials for localization sums.

Exact coefficient arithmetic in two rings: GF(2) (coefficients implicit, a
polynomial is the set of its monomials) and Q (int/Fraction coefficients).
Just enough structure for localization work: products of linear forms,
monomial symmetric function evaluation, and exact division with remainder by
a linear form, which is how divisibility of a localization numerator by the
common denominator is decided factor by factor.  The division is one pass
over the dividend: its terms are grouped by their exponent in the pivot
variable and each group feeds only the next one down, so a polynomial of T
terms costs O(T) term operations instead of a rescan per quotient term.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import ValidationError

GF2 = "gf2"
Q = "q"

Expt = tuple[int, ...]


class MPoly:
    """Sparse polynomial: {exponent tuple: coefficient}, zero coeffs dropped."""

    __slots__ = ("nv", "ring", "terms")

    def __init__(self, nv: int, ring: str,
                 terms: Mapping[Expt, object] | Iterable[tuple[Expt, object]] = ()):
        if ring not in (GF2, Q):
            raise ValidationError(f"unknown coefficient ring {ring!r}")
        self.nv = nv
        self.ring = ring
        acc: dict[Expt, object] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for expt, coeff in items:
            expt = tuple(int(e) for e in expt)
            if len(expt) != nv or any(e < 0 for e in expt):
                raise ValidationError(f"bad exponent tuple {expt} for {nv} variables")
            if ring == GF2:
                coeff = int(coeff) & 1
            acc[expt] = acc.get(expt, 0) + coeff
            if ring == GF2:
                acc[expt] &= 1
            if not acc[expt]:
                del acc[expt]
        self.terms = acc

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nv: int, ring: str) -> "MPoly":
        return cls(nv, ring)

    @classmethod
    def constant(cls, nv: int, ring: str, value) -> "MPoly":
        return cls(nv, ring, {(0,) * nv: value})

    @classmethod
    def linear(cls, coeffs: Sequence[int], ring: str) -> "MPoly":
        nv = len(coeffs)
        terms = {}
        for i, a in enumerate(coeffs):
            if a:
                e = [0] * nv
                e[i] = 1
                terms[tuple(e)] = a
        return cls(nv, ring, terms)

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "MPoly") -> None:
        if not isinstance(other, MPoly):
            raise TypeError("expected an MPoly")
        if self.nv != other.nv or self.ring != other.ring:
            raise ValidationError("polynomials live in different rings")

    def __add__(self, other: "MPoly") -> "MPoly":
        self._check(other)
        acc = dict(self.terms)
        for expt, coeff in other.terms.items():
            v = acc.get(expt, 0) + coeff
            if self.ring == GF2:
                v &= 1
            if v:
                acc[expt] = v
            else:
                acc.pop(expt, None)
        return _from_dict(self.nv, self.ring, acc)

    def __neg__(self) -> "MPoly":
        if self.ring == GF2:
            return self
        return _from_dict(self.nv, self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def __mul__(self, other: "MPoly") -> "MPoly":
        self._check(other)
        acc: dict[Expt, object] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                v = acc.get(e, 0) + c1 * c2
                if self.ring == GF2:
                    v &= 1
                if v:
                    acc[e] = v
                else:
                    acc.pop(e, None)
        return _from_dict(self.nv, self.ring, acc)

    def scale(self, k) -> "MPoly":
        if self.ring == GF2:
            return self if int(k) & 1 else MPoly.zero(self.nv, self.ring)
        if not k:
            return MPoly.zero(self.nv, self.ring)
        return _from_dict(self.nv, self.ring, {e: c * k for e, c in self.terms.items()})

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MPoly):
            return NotImplemented
        return (self.nv == other.nv and self.ring == other.ring
                and self.terms == other.terms)

    def __hash__(self) -> int:
        return hash((self.nv, self.ring, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if self.is_zero():
            return f"MPoly({self.nv}, {self.ring!r}, 0)"
        bits = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(f"x{i}^{p}" if p > 1 else f"x{i}"
                            for i, p in enumerate(e) if p) or "1"
            bits.append(f"{c}*{mono}" if self.ring != GF2 else mono)
        return f"MPoly({self.nv}, {self.ring!r}, {' + '.join(bits)})"

    def constant_value(self):
        """The coefficient of x^0 if the polynomial is constant, else None."""
        if self.is_zero():
            return 0
        if self.terms.keys() == {(0,) * self.nv}:
            return self.terms[(0,) * self.nv]
        return None

    def homogeneous_degree(self) -> int | None:
        degs = {sum(e) for e in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def has_integer_coeffs(self) -> bool:
        return all(Fraction(c).denominator == 1 for c in self.terms.values())


def _from_dict(nv: int, ring: str, terms: dict[Expt, object]) -> MPoly:
    p = MPoly.__new__(MPoly)
    p.nv = nv
    p.ring = ring
    p.terms = terms
    return p


def product(factors: Iterable[MPoly], nv: int, ring: str) -> MPoly:
    out = MPoly.constant(nv, ring, 1)
    for f in factors:
        out = out * f
    return out


# ---------------------------------------------------------------------------
# division by linear forms


def divmod_linear(p: MPoly, form: MPoly) -> tuple[MPoly, MPoly]:
    """Quotient and remainder of p by a linear form, exactly.

    The division runs with respect to the first variable the form mentions
    (the pivot); the remainder is then free of that variable, so ``r == 0``
    decides divisibility.  Over Q the quotient lives in Fraction.

    One pass: p's terms are bucketed by their pivot exponent and the buckets
    are walked from the top down.  A term c*x^e in bucket d gives the
    quotient term (c/lead)*x^(e - pivot), and subtracting that times the rest
    of the form only touches bucket d - 1, so every term is visited once.
    What is left in bucket 0 is the remainder.
    """
    p._check(form)
    if form.homogeneous_degree() != 1:
        raise ValidationError("divisor must be a nonzero linear form")
    pivot = min(i for e in form.terms for i, v in enumerate(e) if v)
    lead = next(c for e, c in form.terms.items() if e[pivot])
    rest = [(e.index(1), c) for e, c in form.terms.items() if not e[pivot]]
    gf2 = p.ring == GF2
    buckets: dict[int, dict[Expt, object]] = {}
    for e, c in p.terms.items():
        buckets.setdefault(e[pivot], {})[e] = c
    quo: dict[Expt, object] = {}
    for d in range(max(buckets, default=0), 0, -1):
        here = buckets.get(d)
        if not here:
            continue
        below = buckets.setdefault(d - 1, {})
        for e, c in here.items():
            factor = c if gf2 else Fraction(c, 1) / lead
            qe = e[:pivot] + (d - 1,) + e[pivot + 1:]
            quo[qe] = factor
            for k, a in rest:
                ne = qe[:k] + (qe[k] + 1,) + qe[k + 1:]
                v = below.get(ne, 0) - factor * a
                if gf2:
                    v &= 1
                if v:
                    below[ne] = v
                else:
                    del below[ne]
    return (_from_dict(p.nv, p.ring, quo),
            _from_dict(p.nv, p.ring, buckets.get(0, {})))


def divides_linear(form: MPoly, p: MPoly) -> bool:
    return divmod_linear(p, form)[1].is_zero()


# ---------------------------------------------------------------------------
# symmetric function evaluation


def eval_monomial_symmetric(mu: Sequence[int], forms: Sequence[MPoly],
                            nv: int, ring: str) -> MPoly:
    """m_mu evaluated at the given list of (linear) forms.

    m_mu(y_1, ..., y_k) = sum over distinct exponent rearrangements of mu
    (padded with zeros to k slots) of the corresponding monomial in the y's.
    """
    k = len(forms)
    mu = tuple(sorted((int(x) for x in mu), reverse=True))
    if any(x <= 0 for x in mu):
        raise ValidationError(f"partition parts must be positive, got {mu}")
    if len(mu) > k:
        raise ValidationError(
            f"partition {mu} has more parts than the {k} available variables")
    padded = mu + (0,) * (k - len(mu))
    out = MPoly.zero(nv, ring)
    powers: list[dict[int, MPoly]] = []
    for f in forms:
        cache = {0: MPoly.constant(nv, ring, 1)}
        powers.append(cache)

    def power(i: int, d: int) -> MPoly:
        cache = powers[i]
        if d not in cache:
            cache[d] = power(i, d - 1) * forms[i]
        return cache[d]

    for arrangement in set(itertools.permutations(padded)):
        term = MPoly.constant(nv, ring, 1)
        for i, d in enumerate(arrangement):
            if d:
                term = term * power(i, d)
        out = out + term
    return out


def partitions_up_to(max_degree: int, max_parts: int) -> list[tuple[int, ...]]:
    """All partitions of 1..max_degree into at most max_parts parts."""
    out: list[tuple[int, ...]] = []

    def walk(rest: int, cap: int, acc: tuple[int, ...]) -> None:
        if rest == 0:
            out.append(acc)
            return
        if len(acc) == max_parts:
            return
        for part in range(min(rest, cap), 0, -1):
            walk(rest - part, part, acc + (part,))

    for d in range(1, max_degree + 1):
        walk(d, d, ())
    return out
