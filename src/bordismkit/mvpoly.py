"""Sparse multivariate polynomials over Z for localization sums.

Just enough structure for the Chern numbers above degree n or rank 4 (the
others are read off one big-integer evaluation, see ``localization``):
products of linear forms, accumulated in one pass by ``combination``, and
exact division by a linear form, which gives such a Chern number's quotient
by the common denominator factor by factor.  Every factor there is a
primitive form, so by Gauss's lemma it divides an integer polynomial over Q
exactly when it does over Z, and the division never leaves the integers.
Monomial symmetric functions are evaluated only at integers, for the
hyperplane evaluations.

Terms are kept under packed exponents: variable i's exponent sits in bits
[W*i, W*(i+1)) of one int (W = 32), so a product of monomials is one int
addition.  Each polynomial carries an upper bound on its total degree, and a
constructor or product that could exceed 2^W - 1 raises ValidationError
rather than carry into the next field.  ``terms`` unpacks a fresh
{exponent tuple: coefficient} dict on every read, so what a caller does with
it never reaches the polynomial (or a memo that holds it).
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping, Sequence

from .errors import ValidationError

W = 32                  # bits per variable in a packed exponent
_MASK = (1 << W) - 1    # also the largest total degree a polynomial may reach

Expt = tuple[int, ...]


def _unpack(key: int, nv: int) -> Expt:
    return tuple((key >> (W * i)) & _MASK for i in range(nv))


def _check_degree(deg: int) -> int:
    if deg > _MASK:
        raise ValidationError(
            f"total degree {deg} exceeds the packed-exponent limit {_MASK}")
    return deg


class MPoly:
    """Sparse polynomial: {packed exponent: int coefficient}, zero coeffs dropped."""

    __slots__ = ("nv", "_terms", "_deg")

    def __init__(self, nv: int,
                 terms: Mapping[Expt, int] | Iterable[tuple[Expt, int]] = ()):
        self.nv = nv
        acc: dict[int, int] = {}
        deg = 0
        items = terms.items() if isinstance(terms, Mapping) else terms
        for expt, coeff in items:
            expt = tuple(int(e) for e in expt)
            if len(expt) != nv or any(e < 0 for e in expt):
                raise ValidationError(f"bad exponent tuple {expt} for {nv} variables")
            deg = max(deg, _check_degree(sum(expt)))
            key = sum(e << (W * i) for i, e in enumerate(expt))
            acc[key] = acc.get(key, 0) + coeff
            if not acc[key]:
                del acc[key]
        self._terms = acc
        self._deg = deg

    @property
    def terms(self) -> dict[Expt, int]:
        """A fresh {exponent tuple: coefficient} dict of the nonzero terms."""
        return {_unpack(k, self.nv): c for k, c in self._terms.items()}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nv: int) -> "MPoly":
        return _from_dict(nv, {}, 0)

    @classmethod
    def constant(cls, nv: int, value: int) -> "MPoly":
        return _from_dict(nv, {0: value} if value else {}, 0)

    @classmethod
    def linear(cls, coeffs: Sequence[int]) -> "MPoly":
        return _from_dict(len(coeffs), {1 << (W * i): a for i, a in enumerate(coeffs) if a}, 1)

    # -- ring operations ---------------------------------------------------

    def __mul__(self, other: "MPoly") -> "MPoly":
        return combination(((1, self, other),), self.nv)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.nv == other.nv and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.nv, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        if self.is_zero():
            return f"MPoly({self.nv}, 0)"
        bits = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(f"x{i}^{p}" if p > 1 else f"x{i}"
                            for i, p in enumerate(e) if p) or "1"
            bits.append(f"{c}*{mono}")
        return f"MPoly({self.nv}, {' + '.join(bits)})"

    def constant_value(self) -> int | None:
        """The coefficient of x^0 if the polynomial is constant, else None."""
        if self.is_zero():
            return 0
        if self._terms.keys() == {0}:
            return self._terms[0]
        return None


def _from_dict(nv: int, terms: dict[int, int], deg: int) -> MPoly:
    p = MPoly.__new__(MPoly)
    p.nv = nv
    p._terms = terms
    p._deg = deg
    return p


def product(factors: Iterable[MPoly], nv: int) -> MPoly:
    """The product of the factors, starting from the first; the empty product is 1."""
    out = None
    for f in factors:
        out = f if out is None else out * f
    return MPoly.constant(nv, 1) if out is None else out


def combination(terms: Iterable[tuple[int, MPoly, MPoly]], nv: int) -> MPoly:
    """The sum of k*a*b over (k, a, b) triples, accumulated in one dict: the
    one multiplication loop (``a * b`` is the triple (1, a, b)).  A zero k
    adds nothing; cancelled terms are dropped at the end."""
    acc: dict[int, int] = {}
    get = acc.get
    deg = 0
    for k, a, b in terms:
        if a.nv != nv or b.nv != nv:
            raise ValidationError("polynomials live in different rings")
        if not k:
            continue
        deg = max(deg, _check_degree(a._deg + b._deg))
        if len(a._terms) > len(b._terms):
            a, b = b, a             # the shorter operand drives the outer loop
        right = list(b._terms.items())
        for k1, c1 in a._terms.items():
            if k != 1:
                c1 = k * c1
            for k2, c2 in right:
                key = k1 + k2
                acc[key] = get(key, 0) + c1 * c2
    return _from_dict(nv, {key: c for key, c in acc.items() if c}, deg)


# ---------------------------------------------------------------------------
# division by linear forms


def divide_linear(p: MPoly, form: MPoly) -> MPoly | None:
    """The quotient p / form when the linear form divides p over Z, else None.

    The division runs with respect to the first variable the form mentions
    (the pivot).  The quotient by a linear form in its pivot variable is
    unique, so its coefficients are those of the quotient over Q: p is
    divisible exactly when every one is an integer and nothing is left free
    of the pivot.  For a primitive form that is divisibility over Q as well
    (Gauss's lemma).

    One pass: p's terms are bucketed by their pivot exponent and the buckets
    are walked from the top down.  A term c*x^e in bucket d gives the
    quotient term (c/lead)*x^(e - pivot), None unless lead divides c, and
    subtracting that times the rest of the form only touches bucket d - 1,
    so every term is visited once and T terms cost O(T) term operations.
    The division fails at the first such coefficient, or when bucket 0, the
    remainder, is not empty.
    """
    if p.nv != form.nv:
        raise ValidationError("polynomials live in different rings")
    # each key of a linear form is one bit, at the bottom of a variable's field
    if not form._terms or any(k & (k - 1) or (k.bit_length() - 1) % W for k in form._terms):
        raise ValidationError("divisor must be a nonzero linear form")
    one = min(form._terms)          # x_pivot: the lowest variable has the lowest key
    shift = one.bit_length() - 1
    lead = form._terms[one]
    rest = [(k, c) for k, c in form._terms.items() if k != one]
    buckets: dict[int, dict[int, int]] = {}
    for k, c in p._terms.items():
        buckets.setdefault((k >> shift) & _MASK, {})[k] = c
    quo: dict[int, int] = {}
    for d in range(max(buckets, default=0), 0, -1):
        here = buckets.get(d)
        if not here:
            continue
        below = buckets.setdefault(d - 1, {})
        for k, c in here.items():
            factor, left = divmod(c, lead)
            if left:
                return None
            qk = k - one
            quo[qk] = factor
            for a_k, a in rest:
                nk = qk + a_k
                v = below.get(nk, 0) - factor * a
                if v:
                    below[nk] = v
                else:
                    del below[nk]
    return None if buckets.get(0) else _from_dict(p.nv, quo, p._deg)


# ---------------------------------------------------------------------------
# symmetric function evaluation


def monomial_symmetric_value(mu: tuple[int, ...], values: Sequence[int]) -> int:
    """m_mu at integer values, exactly: the sum of x^a over the distinct
    rearrangements a of mu padded with zeros; mu is canonical (see
    ``canonical_partition``), and 0 when it has more parts than values.

    A rearrangement puts mu's largest part d, of multiplicity m, on m of the
    positions and the rest of mu on the others, so m_mu is the sum over
    m-sets S of prod_S(x)^d times m_rest at the values off S: each
    rearrangement is built once, with no search over repeats."""
    if len(mu) > len(values):
        return 0
    if not mu:
        return 1
    d, m = mu[0], mu.count(mu[0])
    rest = mu[m:]
    total = 0
    for chosen in itertools.combinations(range(len(values)), m):
        term = 1
        for i in chosen:
            term *= values[i]
        term **= d
        if rest:
            term *= monomial_symmetric_value(
                rest, [v for i, v in enumerate(values) if i not in chosen])
        total += term
    return total


def canonical_partition(mu: Iterable[int]) -> tuple[int, ...]:
    """The parts of ``mu`` as ints, largest first; every part must be positive."""
    mu = tuple(sorted((int(x) for x in mu), reverse=True))
    if any(x <= 0 for x in mu):
        raise ValidationError(f"partition parts must be positive, got {mu}")
    return mu


def partitions(n: int) -> list[tuple[int, ...]]:
    """Partitions of n in descending lexicographic order, largest part first."""
    out: list[tuple[int, ...]] = []

    def walk(rest: int, cap: int, acc: tuple[int, ...]) -> None:
        if rest == 0:
            out.append(acc)
            return
        for part in range(min(rest, cap), 0, -1):
            walk(rest - part, part, acc + (part,))

    walk(n, n, ())
    return out


def partitions_up_to(max_degree: int, max_parts: int) -> list[tuple[int, ...]]:
    """All partitions of 1..max_degree into at most max_parts parts."""
    return [mu for d in range(1, max_degree + 1) for mu in partitions(d)
            if len(mu) <= max_parts]
