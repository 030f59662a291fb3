"""Fixed-point localization sums and integrality checks.

A faithful polynomial is read as fixed-point data: one point per unit of
coefficient, carrying the monomial's characters as tangent weights (and, in
the integer flavor, a sign recovered from the coefficient and the weight
matrix determinant, matching the convention that folds ordering signs into
canonical coefficients; the determinant comes from the ring's ``_dual_rows``
elimination that proves the weights a basis).  Localization expressions are
then rational sums

    sum_p  [sign_p] * f(weights_p) / product(weights_p)

and the checks decide whether such a sum is a genuine polynomial.  All the
weight forms appearing are primitive (rows of invertible integer matrices),
so after normalizing each to a canonical sign the common denominator D is a
product of pairwise coprime linear forms, and divisibility of the numerator
N can be settled one linear factor ℓ at a time.

Integrality never builds N: ℓ divides N exactly when N vanishes on the
hyperplane ℓ = 0, where only the points holding ℓ contribute.  Each degree
of f gives one homogeneous restricted sum in n − 1 variables, tested by one
exact big-integer evaluation at a Kronecker point whose base exceeds an L1
bound on its coefficients (docs/decisions/0002); f is a sum of m_mu.  A
Chern number's value S is homogeneous of degree d_S = i + 2j − n.  Up to
rank 4 and d_S = n its verdict is the same plane test with f = e1^i e2^j,
and its value one more exact evaluation, S(x) = N(x) / D(x) at a Kronecker
point whose base exceeds Mahler's bound on S's coefficients, read back
digit by digit (docs/decisions/0003).  Above either, the big integers would
cost more than the sparse quotient, so N is built with ``mvpoly`` and
divided by each factor.

Everything these sums share is built once per FixedPointData and kept in
its private ``_memo``, a ``_Localization``: the canonical factors of D and
the points folded by equal weights (each with its summed units and signed
units, and its cofactor's factors) at construction, and in one dict read
through ``memo(build, *args)``, on first use, each factor's hyperplane and
the whole space (``_frame``: the factors there, and each point's L1 norms),
per degree of f the evaluations' Kronecker values and cofactor products
(per plane, by signed or bare units, and for the value), and for Chern
numbers by division the factors as MPolys, each folded point's cofactor
D/chi_p and the ladders cof*e1^i and e2^j, grown only as far as the indices
asked for.  Such a numerator is one ``mvpoly.combination`` pass over a
factor pair per folded point, so it costs that pass plus the divisions.
This is safe because the points are an immutable tuple fixed at
construction, the memo lives and dies with its data object (there is no
module-level cache), and every returned polynomial is a fresh sum, never a
memo entry.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, NamedTuple, Sequence

from . import algebra, mvpoly
from .algebra import Char, ExtPolynomial, Gf2Polynomial, Monomial, Polynomial
from .errors import ResourceLimitError, ValidationError
from .mvpoly import MPoly

GF2 = "gf2"
Z = "z"
# counts numbers, not their cost (CHANGES.md FOUND, ROADMAP item 4); the
# largest sweep in use has 25
MAX_CHERN_NUMBERS = 10_000


class SymmetricFunction:
    """A finite sum of monomial symmetric functions, given by partitions."""

    __slots__ = ("partitions",)

    def __init__(self, partitions: Sequence[Sequence[int]] = ((),)):
        canon = [mvpoly.canonical_partition(mu) for mu in partitions]
        # summands are distinct by definition; a repeated partition is a typo
        if len(set(canon)) != len(canon):
            raise ValidationError("repeated partition in symmetric function")
        self.partitions = tuple(sorted(canon))

    @classmethod
    def one(cls) -> "SymmetricFunction":
        return cls(((),))

    @classmethod
    def monomial(cls, mu: Sequence[int]) -> "SymmetricFunction":
        return cls((tuple(mu),))

    @classmethod
    def elementary(cls, k: int) -> "SymmetricFunction":
        return cls(((1,) * k,))

    def degree(self) -> int:
        return max((sum(mu) for mu in self.partitions), default=0)

    def max_parts(self) -> int:
        return max((len(mu) for mu in self.partitions), default=0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymmetricFunction):
            return NotImplemented
        return self.partitions == other.partitions

    def __hash__(self) -> int:
        return hash(self.partitions)

    def __repr__(self) -> str:
        names = " + ".join("1" if not mu else "m" + str(list(mu))
                           for mu in self.partitions)
        return f"SymmetricFunction({names})"


class FixedPoint(NamedTuple):
    sign: int
    weights: Monomial


def _check_weights(weights: Sequence[Char], n: int) -> Monomial:
    weights = tuple(tuple(int(v) for v in w) for w in weights)
    if len(weights) != n or any(len(w) != n for w in weights):
        raise ValidationError(f"point weights {weights} are not {n} characters of length {n}")
    return weights


def _basis_det(ring: type[Polynomial], weights: Monomial, n: int) -> int:
    """det of the weights (±1; 1 over GF(2)), from the ring's basis proof."""
    found = ring._dual_rows(weights, n)
    if found is None:
        raise ValidationError(f"non-faithful fixed point with weights {weights}")
    return found[1]


class FixedPointData:
    """Weights (and signs, integer flavor) of an isolated fixed-point set."""

    __slots__ = ("flavor", "n", "points", "_memo")

    def __init__(self, flavor: str, n: int, points: Sequence[FixedPoint]):
        if flavor not in algebra.RINGS:
            raise ValidationError(f"unknown flavor {flavor!r}")
        if n < 1:
            raise ValidationError("rank n must be at least 1")
        ring = algebra.RINGS[flavor]
        checked = []
        proved: set[Monomial] = set()   # each distinct basis is proved once
        for pt in points:
            sign = int(pt.sign)
            if flavor == GF2:
                sign = 1
            elif sign not in (1, -1):
                raise ValidationError(f"fixed-point sign must be ±1, got {pt.sign}")
            weights = _check_weights(pt.weights, n)
            if weights not in proved:
                for w in weights:
                    ring._check_char(w, n)     # GF(2) refuses entries outside {0,1}
                _basis_det(ring, weights, n)   # raises unless a basis
            proved.add(weights)
            checked.append(FixedPoint(sign, weights))
        self.flavor, self.n, self.points, self._memo = flavor, n, tuple(checked), None

    @classmethod
    def _of(cls, flavor: str, n: int, points: Sequence[FixedPoint]) -> "FixedPointData":
        """Unchecked constructor: ``points`` are normalized and proved bases."""
        data = object.__new__(cls)
        data.flavor, data.n, data.points, data._memo = flavor, n, tuple(points), None
        return data

    @classmethod
    def from_polynomial(cls, p: Polynomial) -> "FixedPointData":
        """Read a faithful polynomial as fixed-point data.

        A term c*m contributes |c| points with the monomial's characters as
        weights and sign sgn(c)*det m (1 over GF(2)) — undoing the fold of the
        ordering sign into the canonical coefficient; det m comes from the one
        elimination that proves m a basis.  A dual polynomial's characters
        are facet colors, not weights, so it is refused.
        """
        if p.space != algebra.PRIMAL:
            raise ValidationError("polynomial is not in the primal space")
        pts = []
        for mono, coeff in p.sorted_terms():
            det = _basis_det(type(p), _check_weights(mono, p.n), p.n)
            pts.extend([FixedPoint(det if coeff > 0 else -det, mono)] * abs(coeff))
        return cls._of(GF2 if p.modulus == 2 else Z, p.n, pts)

    def __len__(self) -> int:
        return len(self.points)

    def __repr__(self) -> str:
        return f"FixedPointData(flavor={self.flavor!r}, n={self.n}, points={len(self.points)})"


# ---------------------------------------------------------------------------
# localization denominators


def _canonical_char(char: Char) -> tuple[Char, int]:
    """Normalize a character to a canonical sign.

    Returns (canonical, unit) with char == unit * canonical; a GF(2)
    character has 0/1 entries, so it leads with 1 and its unit is 1.
    """
    lead = next(v for v in char if v)
    if lead < 0:
        return tuple(-v for v in char), -1
    return char, 1


class _Localization:
    """What every localization sum over one FixedPointData shares.

    D is the least common denominator: every distinct canonical weight form,
    each to the first power (weights within a point are rows of an invertible
    matrix, hence pairwise non-proportional, so each chi_p is square-free).
    Points with equal weights are folded into one, carrying the sum of their
    units (``bare``) and of their signed units (``signed``), its weights as
    (factor index, unit) pairs and its cofactor D/chi_p as the indices of
    the factors not among them (``cof``).  The rest is built on first use by
    ``memo(build, *args)``, once per key: each factor's hyperplane and the
    whole space (``_frame``), the evaluations' parts that every f of one
    degree d shares (``_plane_terms`` by signed or bare units and d,
    ``_value_terms`` by d; their B and slot spacing read only the units and
    d), and the sparse route's factors, cofactors and ladders (``_ladders``).
    """

    __slots__ = ("n", "gf2", "chars", "weights", "own", "cof", "bare", "signed", "_memo")

    def __init__(self, data: FixedPointData):
        self.n = data.n
        self.gf2 = data.flavor == GF2
        folded: dict[Monomial, list[int]] = {}   # weights -> [unit, bare, signed]
        for pt in data.points:
            acc = folded.get(pt.weights)
            if acc is None:
                unit = 1
                for w in pt.weights:
                    unit *= _canonical_char(w)[1]
                acc = folded[pt.weights] = [unit, 0, 0]
            acc[1] += acc[0]
            acc[2] += pt.sign * acc[0]
        canon = [[_canonical_char(w) for w in weights] for weights in folded]
        self.chars = sorted({c for own in canon for c, _ in own})
        index = {c: t for t, c in enumerate(self.chars)}
        self.weights = list(folded)
        self.own = [tuple((index[c], u) for c, u in own) for own in canon]
        every = set(index.values())
        self.cof = [tuple(sorted(every.difference(s for s, _ in own))) for own in self.own]
        self.bare = [acc[1] for acc in folded.values()]
        self.signed = [acc[2] for acc in folded.values()]
        self._memo: dict[tuple, object] = {}

    def memo(self, build, *args):
        """build(self, *args), once per key."""
        key = (build, *args)
        if key not in self._memo:
            self._memo[key] = build(self, *args)
        return self._memo[key]


def _frame(loc: _Localization, t: int | None) -> tuple[list, list]:
    """Factor t's hyperplane ℓ = 0, or the whole space when t is None:
    (every factor's coefficients there, and per folded point holding ℓ
    (every point when t is None): (point, its other weights as (factor,
    unit), its cofactor's factors, the sum of its weights' L1 norms there,
    the product of its cofactor's)).

    x_k = ℓ_p·y_k (k ≠ p, the first variable ℓ mentions) and
    x_p = −Σ ℓ_k·y_k map onto ℓ = 0, so a form a restricts to
    ℓ_p·a_k − a_p·ℓ_k, read mod 2 over GF(2).  A point not holding ℓ is
    left out: its cofactor has ℓ as a factor.
    """
    forms = loc.chars
    if t is not None:
        ell = forms[t]
        p = next(k for k, v in enumerate(ell) if v)
        forms = [tuple(ell[p] * c[k] - c[p] * ell[k] for k in range(loc.n) if k != p)
                 for c in forms]
        if loc.gf2:
            forms = [tuple(a & 1 for a in form) for form in forms]
    l1 = [sum(map(abs, form)) for form in forms]
    members = []
    for g, (own, cof) in enumerate(zip(loc.own, loc.cof)):
        others = tuple(x for x in own if x[0] != t)
        if len(others) < len(own) or t is None:
            members.append((g, others, cof, sum(l1[s] for s, _ in own),
                            math.prod(l1[s] for s in cof)))
    return forms, members


def _localization(data: FixedPointData) -> _Localization:
    # the points are an immutable tuple, so the memo stays valid for the
    # data object's lifetime and dies with it
    if data._memo is None:
        data._memo = _Localization(data)
    return data._memo


# ---------------------------------------------------------------------------
# integrality checks


def _slots(r: int, degree: int) -> int:
    """The b-bit slots a form of this degree in r variables reaches at the
    Kronecker point."""
    return (degree + 1) ** (r - 1) if r else 1


def _kronecker_values(forms: list[tuple[int, ...]], degree: int, b: int) -> list[int]:
    """Each restricted form at y_1 = 1, y_k = B^((degree+1)^(k-2)), B = 2^b,
    where a form of this degree puts each coefficient in its own slot."""
    shifts = [0] + [b * (degree + 1) ** k for k in range(len(forms[0]) - 1)]
    return [sum(a << s for a, s in zip(form, shifts) if a) for form in forms]


def _slot_bits(value: int, b: int) -> int:
    """The bits of ``value`` >= 0 at the slot bottoms b*s, as bit s: one
    pass over its binary digits, LSB first, every b-th kept."""
    return int(bin(value)[:1:-1][::b][::-1], 2)


def _e1_e2_power(values: Sequence[int], i: int, j: int) -> int:
    """e1^i * e2^j at integer values, exactly."""
    e1 = sum(values)
    if not j:
        return e1 ** i
    return e1 ** i * ((e1 * e1 - sum(v * v for v in values)) // 2) ** j


def _bound(units: Sequence[int], members: list, d: int) -> int:
    """An L1 bound on the coefficients of sum_g k_g f(w_g) D/chi_g over a
    frame's members, f of degree d: L1(f(w)) <= (sum of the L1(w_i))^d,
    for a sum of distinct m_mu of degree d and for e1^i e2^j
    (docs/decisions/0002, 0003)."""
    return sum(abs(units[g]) * own_l1 ** d * cof_l1 for g, _, _, own_l1, cof_l1 in members)


def _evaluate(units: Sequence[int], forms: list, members: list, degree: int, b: int
              ) -> tuple[list[int], list[tuple]]:
    """(the frame's forms at the Kronecker point, per member g with
    k_g != 0: (g, k_g times its cofactor's product, its other weights) there)."""
    vals = _kronecker_values(forms, degree, b)
    return vals, [(g, units[g] * math.prod(vals[s] for s in cof), [u * vals[s] for s, u in others])
                  for g, others, cof, _, _ in members if units[g]]


def _plane_terms(loc: _Localization, signed: bool, d: int) -> list[tuple]:
    """Per factor t of D with a nonzero bound, for every f of degree d and
    the signed or bare units (mod 2 over GF(2)): (t, b, the slot mask (-1
    over Z), its ``_evaluate`` terms)."""
    units = loc.signed if signed else loc.bare
    if loc.gf2:
        units = [k & 1 for k in units]
    degree = d + len(loc.chars) - loc.n
    out = []
    for t in range(len(loc.chars)):
        forms, members = loc.memo(_frame, t)
        b = _bound(units, members, d).bit_length()
        if b:
            # over GF(2) the 0/1 lift's coefficients are its digits: the
            # lowest bit of every slot holds their parities
            mask = ((1 << b * _slots(loc.n - 1, degree)) - 1) // ((1 << b) - 1) if loc.gf2 else -1
            out.append((t, b, mask, _evaluate(units, forms, members, degree, b)[1]))
    return out


def _planes_vanish(loc: _Localization, signed: bool, d: int, f_at) -> bool:
    """Whether every factor ℓ of D divides N = sum_p k_p f(w_p) D/chi_p, for
    f homogeneous of degree d with integer values f_at(values): per factor,
    N on ℓ = 0 is tested by one exact evaluation whose base exceeds an L1
    bound on its coefficients (docs/decisions/0002); all but f is shared."""
    return not any(sum(kc * f_at(ys) for _, kc, ys in terms) & mask
                   for _, _, mask, terms in loc.memo(_plane_terms, signed, d))


def _sum_is_polynomial(data: FixedPointData, f: SymmetricFunction, signed: bool) -> bool:
    """Whether sum_p [sign_p] f(weights_p) / chi_p is a polynomial, one
    degree of f at a time."""
    if f.max_parts() > data.n:
        raise ValidationError(
            f"symmetric function needs {f.max_parts()} variables, data has {data.n}")
    loc = _localization(data)
    value_at = mvpoly.monomial_symmetric_value
    by_degree: dict[int, list] = {}
    for mu in f.partitions:
        if len(mu) < loc.n:   # one weight vanishes on ℓ = 0, and m_mu of n parts with it
            by_degree.setdefault(sum(mu), []).append(mu)
    return all(_planes_vanish(loc, signed, d, lambda ys: sum(value_at(mu, ys) for mu in parts))
               for d, parts in by_degree.items())


def integrality_check_gf2(data: FixedPointData, f: SymmetricFunction) -> bool:
    """Whether sum_p f(weights_p) / chi_p is a polynomial over GF(2)."""
    if data.flavor != GF2:
        raise ValidationError("expected GF(2) fixed-point data")
    return _sum_is_polynomial(data, f, signed=False)


def integrality_check_z(data: FixedPointData, f: SymmetricFunction,
                        signed: bool = False) -> bool:
    """Whether sum_p f(weights_p) / chi_p is a polynomial over Z.

    The bare (unsigned) sum is the default; ``signed=True`` weights each term
    by the point's sign instead.
    """
    if data.flavor != Z:
        raise ValidationError("expected integer fixed-point data")
    return _sum_is_polynomial(data, f, signed)


class Gf2IntegralityTable:
    """Batch integrality checker for GF(2) polynomials at a fixed rank.

    Faithful monomials at rank n draw their characters from the common pool
    of 2^n − 1 nonzero vectors, so the localization sum can always be put
    over the full denominator D = product of ALL those linear forms: the
    term of a point with monomial m becomes f(m's forms)·(D/χ_m), and a
    factor ℓ divides the total iff the terms' restrictions to ℓ = 0 cancel
    mod 2.  Only m's own factors are tested, since every other one divides
    D/χ_m.  Those restrictions depend only on (monomial, partition, factor),
    so they are read once, from the hyperplane data of the localization of
    all faithful monomials (every character occurs in one, so there D is
    the full product): each is one evaluation at a Kronecker point, whose
    base and cofactor products every partition of one degree shares
    (``_plane_terms`` with every unit 1), and its parity digits go to one
    bit per (factor, slot) of an int per (monomial, partition).  The factors
    fill disjoint bits, so the XOR of those ints is every per-factor XOR at
    once.  A query is one XOR per monomial and one test for zero, and agrees
    with ``integrality_check_gf2`` on every input (the extra factors of D
    are units for the divisibility questions asked).
    """

    __slots__ = ("n", "partitions", "_bits")

    def __init__(self, n: int, partitions: Sequence[Sequence[int]]):
        self.n = n
        self.partitions = tuple(map(mvpoly.canonical_partition, partitions))
        # the enumeration yields bases, so they are not proved again
        data = FixedPointData._of(GF2, n, [FixedPoint(1, m)
                                           for m in algebra.all_faithful_monomials_gf2(n)])
        loc = _Localization(data)
        for mu in self.partitions:
            if len(mu) > n:
                raise ValidationError(
                    f"partition {mu} has more parts than the {n} available variables")
        value_at = mvpoly.monomial_symmetric_value
        self._bits = {}  # mu -> monomial -> bits
        shared: dict[int, list] = {}   # one degree's plane terms at a time, every unit 1
        for mu in sorted(self.partitions, key=sum):
            rows = [0] * len(loc.weights)
            if len(mu) < n:   # else m_mu vanishes on every plane, as one weight does
                d = sum(mu)
                if d not in shared:
                    shared = {d: _plane_terms(loc, False, d)}
                slots = _slots(n - 1, d + len(loc.chars) - n)
                for t, b, _, terms in shared[d]:
                    for g, kc, ys in terms:
                        rows[g] |= _slot_bits(kc * value_at(mu, ys), b) << (t * slots)
            self._bits[mu] = dict(zip(loc.weights, rows))

    def passes(self, p: Gf2Polynomial, mu: Sequence[int]) -> bool:
        """Whether the monomial symmetric function m_mu gives a polynomial sum."""
        mu = mvpoly.canonical_partition(mu)
        rows = self._bits.get(mu)
        if rows is None:
            raise ValidationError(f"partition {mu} is not in the table")
        if p.n != self.n:
            raise ValidationError(f"polynomial has rank {p.n}, table has {self.n}")
        if p.space != algebra.PRIMAL:
            raise ValidationError("polynomial is not in the primal space")
        acc = 0
        for mono in p.terms:
            try:
                acc ^= rows[mono]
            except KeyError:
                raise ValidationError(f"non-faithful monomial {mono}") from None
        return not acc


# ---------------------------------------------------------------------------
# equivariant Chern numbers


def _ladders(loc: _Localization) -> tuple[list[MPoly], list[tuple]]:
    """The factors of D as MPolys, and per folded point its weights, e1 as
    one linear form (the weights' column sums) and the ladders [D/chi_p]
    and [1]."""
    n = loc.n
    factors = [MPoly.linear(c) for c in loc.chars]
    one = MPoly.constant(n, 1)
    return factors, [(weights, MPoly.linear([sum(col) for col in zip(*weights)]),
                      [mvpoly.product((factors[s] for s in cof), n)], [one])
                     for weights, cof in zip(loc.weights, loc.cof)]


def _quotient_by_division(loc: _Localization, i: int, j: int) -> MPoly | None:
    """The (i, j) sum as the sparse quotient N/D, or None.

    N = sum_p k_p (cof_p e1^i) e2^j is one ``mvpoly.combination`` pass, the
    ladders grown only as far as asked, and is divided by one factor at a
    time, None as soon as one does not divide.  The factors are pairwise
    coprime primitive linear forms, so this decides divisibility by their
    product, and over Z, as over Q (Gauss's lemma).
    """
    n = loc.n
    factors, points = loc.memo(_ladders)
    terms = []
    for k, (weights, e1, up, e2) in zip(loc.signed, points):
        if k:
            while len(up) <= i:
                up.append(up[-1] * e1)
            if j and len(e2) == 1:
                forms = [MPoly.linear(w) for w in weights]
                e2.append(mvpoly.combination(
                    ((1, a, b) for a, b in itertools.combinations(forms, 2)), n))
            while len(e2) <= j:
                e2.append(e2[-1] * e2[1])
            terms.append((k, up[i], e2[j]))
    num = mvpoly.combination(terms, n)
    for form in factors:
        num = mvpoly.divide_linear(num, form)
        if num is None:
            return None
    return num


def _signed_digits(value: int, b: int, count: int) -> list[int]:
    """The ``count`` lowest base-2^b digits of value, each in
    [-2^(b-1), 2^(b-1)), when b is a multiple of 8 and they fit: one offset
    of 2^(b-1) per digit and one ``to_bytes``, linear in the size of value."""
    width, half = b // 8, 1 << (b - 1)
    offset = int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")
    raw = (value + offset).to_bytes(width * count, "little")
    return [int.from_bytes(raw[k:k + width], "little") - half
            for k in range(0, width * count, width)]


def _value_terms(loc: _Localization, d: int) -> tuple | None:
    """For every (i, j) with i + 2j = d: (b, D(x), the whole space's
    ``_evaluate`` terms at x), or None."""
    n, degree = loc.n, d - loc.n
    forms, members = loc.memo(_frame, None)
    bound = _bound(loc.signed, members, d)
    # N = 0: below degree 0 deg N < deg D, so D | N forces it; a zero bound
    # means every k_p is 0
    if degree < 0 or not bound:
        return None
    bound <<= n * degree
    b = max(2 * bound, 2 * max(abs(v) for c in forms for v in c)).bit_length()
    b = -(-b // 8) * 8   # whole bytes, for the decode
    vals, terms = _evaluate(loc.signed, forms, members, max(degree, 1), b)
    return b, math.prod(vals), terms


def _quotient_by_evaluation(loc: _Localization, i: int, j: int) -> MPoly | None:
    """The (i, j) sum S = N/D from one exact evaluation, once each factor's
    plane says it is a polynomial (docs/decisions/0003).

    S is homogeneous of degree d_S = i + 2j - n, and 0 if d_S < 0.  At
    x = (1, B, B^s, ..., B^(s^(n-2))), s = max(d_S + 1, 2), each monomial of
    S lands on its own power of B, and S(x) = N(x) / D(x) exactly.  B = 2^b
    exceeds twice Mahler's bound 2^(n d_S) ||N||_1 on S's coefficients, so
    they are S(x)'s signed base-B digits, and twice every |ℓ_k|, so no
    factor vanishes at x.
    """
    n, d = loc.n, i + 2 * j
    if not _planes_vanish(loc, True, d, lambda ys: _e1_e2_power(ys, i, j)):
        return None
    shared = loc.memo(_value_terms, d)
    if shared is None:
        return MPoly.zero(n)
    b, at_x, summands = shared
    degree, spacing = d - n, max(d - n, 1)
    value, rem = divmod(sum(kc * _e1_e2_power(xs, i, j) for _, kc, xs in summands), at_x)
    if rem:
        raise ArithmeticError(f"the ({i}, {j}) sum is a polynomial, "
                              "yet D(x) does not divide N(x)")
    terms = {}
    for slot, c in enumerate(_signed_digits(value, b, (spacing + 1) ** (n - 1))):
        if c:
            expt = []
            for _ in range(n - 1):
                slot, e = divmod(slot, spacing + 1)
                expt.append(e)
            if sum(expt) > degree:
                raise ArithmeticError(f"the ({i}, {j}) sum has a term above degree {degree}")
            terms[(degree - sum(expt), *expt)] = c
    return MPoly(n, terms)


# The evaluations' integers have b * (deg + 1)^(n - 2) bits on a hyperplane
# (deg = d + |factors of D| - n) and CPython multiplies them by Karatsuba, so
# their cost grows as deg^(1.58 (n - 2)) while the sparse quotient's grows as
# its deg^(n - 1) terms: evaluation wins up to rank 4 and d_S <= n, and loses
# above either (docs/decisions/0003)
MAX_EVALUATION_RANK = 4


class ChernNumber(NamedTuple):
    i: int
    j: int
    is_polynomial: bool
    integral: bool           # always is_polynomial (Gauss's lemma)
    value: MPoly | None      # the simplified sum when it is a polynomial
    constant: int | None     # its value when constant

    def is_zero(self) -> bool:
        return self.is_polynomial and self.value.is_zero()


def equivariant_chern_number(data: FixedPointData, i: int, j: int) -> ChernNumber:
    """The localization sum for the (i, j) equivariant Chern number.

    N/D with N = sum_p sign_p e1(w_p)^i e2(w_p)^j (D/chi_p).  Whether it is
    a polynomial is decided on each factor's hyperplane and its value, of
    degree d_S = i + 2j - n, comes from one exact evaluation when d_S <= n
    and n <= MAX_EVALUATION_RANK; otherwise N is divided by each factor in
    turn (docs/decisions/0003).  The factors are primitive, so by Gauss's
    lemma a polynomial sum has integer coefficients.
    """
    if data.flavor != Z:
        raise ValidationError("expected integer fixed-point data")
    if i < 0 or j < 0:
        raise ValidationError("Chern number indices must be nonnegative")
    if j and data.n < 2:
        raise ValidationError("e2 needs at least two weights per point")
    by_evaluation = data.n <= MAX_EVALUATION_RANK and i + 2 * j <= 2 * data.n
    quotient = _quotient_by_evaluation if by_evaluation else _quotient_by_division
    quo = quotient(_localization(data), i, j)
    if quo is None:
        return ChernNumber(i, j, False, False, None, None)
    return ChernNumber(i, j, True, True, quo, quo.constant_value())


def _degree_cap(n: int, degree_cap: int | None) -> int:
    cap = 2 * n if degree_cap is None else int(degree_cap)
    if cap < 0:
        raise ValidationError("degree cap must be nonnegative")
    return cap


def chern_sweep(data: FixedPointData, degree_cap: int | None = None
                ) -> tuple[int, Iterator[ChernNumber]]:
    """(cap, the Chern numbers with i + 2j <= cap in (i, j) order).

    The cap (default 2n) and the count against ``MAX_CHERN_NUMBERS`` are
    checked before any number is computed as the iterator is read.  e2 needs
    two weights per point, so below rank 2 only j = 0 is swept.
    """
    cap = _degree_cap(data.n, degree_cap)
    count = (cap + 2) ** 2 // 4 if data.n >= 2 else cap + 1
    if count > MAX_CHERN_NUMBERS:
        raise ResourceLimitError(
            f"a Chern sweep to degree {cap} has {count} numbers, over the limit "
            f"of {MAX_CHERN_NUMBERS}; pass a smaller degree cap (--degree-bound)")
    return cap, (equivariant_chern_number(data, i, j) for i in range(cap + 1)
                 for j in range((cap - i) // 2 + 1 if data.n >= 2 else 1))


def vanishing_test(g: ExtPolynomial, degree_cap: int | None = None) -> bool:
    """All equivariant Chern numbers with i + 2j <= cap vanish on g.

    g must be a kernel element (zero, or faithful with d(g*) = 0); the cap
    defaults to 2n.  A bad cap is reported before a bad g.
    """
    if not isinstance(g, ExtPolynomial):
        raise ValidationError("expected an integer-coefficient polynomial")
    cap = _degree_cap(g.n, degree_cap)
    if g.is_zero():
        return True
    if not algebra.in_image(g):
        raise ValidationError("polynomial is not a kernel element")
    _, numbers = chern_sweep(FixedPointData.from_polynomial(g), cap)
    return all(r.is_zero() for r in numbers)


class SupportReport(NamedTuple):
    n: int
    bound: int
    samples: int
    nonzero_samples: int
    min_support: int | None
    violations: tuple[int, ...]  # indices of nonzero samples below the bound

    @property
    def ok(self) -> bool:
        return not self.violations


def min_fixed_points_check(n: int, samples: Sequence[ExtPolynomial]) -> SupportReport:
    """Check the ceil(n/2)+1 support bound on kernel samples; report the minimum."""
    bound = (n + 1) // 2 + 1
    min_support: int | None = None
    nonzero = 0
    violations = []
    for idx, g in enumerate(samples):
        if g.n != n:
            raise ValidationError(f"sample {idx} has ambient rank {g.n}, expected {n}")
        support = g.support()
        if support == 0:
            continue
        nonzero += 1
        if min_support is None or support < min_support:
            min_support = support
        if support < bound:
            violations.append(idx)
    return SupportReport(n, bound, len(samples), nonzero, min_support, tuple(violations))
