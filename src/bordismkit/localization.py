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
hyperplane ℓ = 0, where only the points holding ℓ contribute, and there N is
a nonzero polynomial times the local numerator: those points' sum over the
product of their own distinct restricted weight forms (docs/decisions/0002).
Each degree of f gives one homogeneous local numerator in n − 1 variables,
tested by one exact big-integer evaluation at a Kronecker point whose base
exceeds an L1 bound on its coefficients.  Over Z, above rank 4 or degree
2n, every plane is first evaluated at one small point where no local form
vanishes, and a nonzero value rejects at once; there a Chern number's
plane whose Kronecker integers would be large is tested at the small
points of a simplex lattice instead.  f is a sum of m_mu, or e1^i e2^j for a Chern number, whose verdict
is the same plane test.  A Chern number's value S is homogeneous of degree
d_S = i + 2j − n and has integer coefficients; it is read off exact values
S(x) = N(x) / D(x), at one Kronecker point whose base exceeds Mahler's bound
on its coefficients up to rank 4 and d_S = n, and at the points of a
shifted simplex lattice, by Newton divided differences, above either
(docs/decisions/0003).  No polynomial is multiplied or divided.

Everything these sums share is built once per FixedPointData and kept in
its private ``_memo``, a ``_Localization``: the canonical factors of D and
the points folded by equal weights (each with its summed units and signed
units) at construction, and in one dict read through ``memo(build, *args)``,
on first use, each factor's hyperplane and the whole space with their local
denominators (``_frame``), and per units and degree of f the evaluation
points' form values and cofactor products.  This is safe because the points
are an immutable tuple fixed at construction, the memo lives and dies with
its data object (the one module-level memo a data object reaches is the
basis proofs of ``algebra``'s dual-basis hook, docs/decisions/0005), and
every returned polynomial is fresh, never a memo entry.
"""

from __future__ import annotations

import math
import operator
from typing import Iterator, NamedTuple, Sequence

from . import algebra, mvpoly
from .algebra import Char, ExtPolynomial, Gf2Polynomial, Monomial, Polynomial, exact_int
from .errors import ResourceLimitError, ValidationError
from .mvpoly import MPoly

GF2 = "gf2"
Z = "z"
# counts numbers, not their cost: a sweep under it is still unbounded in
# the rank, and in the factors of D and the degree of the numbers that pass
# the one-point rejection, whose planes cost (deg + 1)^(n - 2) Kronecker
# slots or C(deg + n - 2, n - 2) lattice points each (the default sweeps of
# the torus manifolds of rank 6 take 8-32 s each on a 2-core Xeon VM); the
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
    weights = tuple(tuple([exact_int(v, "weight entry") for v in w]) for w in weights)
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
        for pt in points:
            sign = exact_int(pt.sign, "fixed-point sign")
            if flavor == GF2:
                sign = 1
            elif sign not in (1, -1):
                raise ValidationError(f"fixed-point sign must be ±1, got {pt.sign}")
            weights = _check_weights(pt.weights, n)
            for w in weights:
                ring._check_char(w, n)     # GF(2) refuses entries outside {0,1}
            _basis_det(ring, weights, n)   # raises unless a basis
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
    units (``bare``) and of their signed units (``signed``) and its weights
    as (factor index, unit) pairs.  The rest is built on first use by
    ``memo(build, *args)``, once per key: each factor's hyperplane and the
    whole space with their local denominators (``_frame``), each plane's
    one-point rejection terms (``_probe_terms`` by signed or bare units), the
    evaluations' parts that every f of one degree d shares (``_plane_terms``
    by units, d and plane, ``_value_terms`` and ``_lattice_terms`` by d;
    their points read only the units and d).
    """

    __slots__ = ("n", "gf2", "chars", "weights", "own", "bare", "signed", "_memo")

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
    """Factor t's hyperplane ℓ = 0, or the whole space when t is None, over
    its local denominator: (the local forms, per member: (point, its other
    weights as (local form, multiplier), its cofactor's local forms, its
    scale, the sum of its weights' L1 norms there, |scale| times the product
    of its cofactor's)).

    The members are the folded points holding ℓ (every point when t is
    None); any other point's cofactor has ℓ as a factor.  x_k = ℓ_p·y_k
    (k ≠ p, the first variable ℓ mentions) and x_p = −Σ ℓ_k·y_k map onto
    ℓ = 0, so a form a restricts to ℓ_p·a_k − a_p·ℓ_k, read mod 2 over GF(2).
    Each restriction is a scalar (a sign times its content) times a canonical
    primitive form; the local forms are the distinct ones (the factors of D
    when t is None), and a member's scale is the lcm of the members' scalar
    products divided by its own (docs/decisions/0002).
    """
    held = [g for g, own in enumerate(loc.own) if t is None or any(s == t for s, _ in own)]
    index: dict[Char, int] = {}
    local: dict[int, tuple[int, int]] = {}   # factor -> (local form, scalar)
    if t is not None:
        ell = loc.chars[t]
        p = next(k for k, v in enumerate(ell) if v)
    for g in held:
        for s, _ in loc.own[g]:
            if s == t or s in local:
                continue
            form = loc.chars[s]
            if t is not None:
                form = tuple(ell[p] * form[k] - form[p] * ell[k] for k in range(loc.n) if k != p)
                if loc.gf2:
                    form = tuple(a & 1 for a in form)
            form, sign = _canonical_char(form)
            content = math.gcd(*form)
            if content > 1:
                form = tuple(a // content for a in form)
            local[s] = (index.setdefault(form, len(index)), sign * content)
    forms = list(index)
    l1 = [sum(map(abs, form)) for form in forms]
    rows = [(g, tuple((local[s][0], u * local[s][1]) for s, u in loc.own[g] if s != t),
             math.prod(local[s][1] for s, _ in loc.own[g] if s != t)) for g in held]
    lcm = math.lcm(*(abs(scalar) for _, _, scalar in rows))
    members = []
    for g, others, scalar in rows:
        mine = {f for f, _ in others}
        cof = tuple(f for f in range(len(forms)) if f not in mine)
        scale = lcm // scalar
        members.append((g, others, cof, scale, sum(abs(m) * l1[f] for f, m in others),
                        abs(scale) * math.prod(l1[f] for f in cof)))
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
    """Each local form at y_1 = 1, y_k = B^((degree+1)^(k-2)), B = 2^b,
    where a form of this degree puts each coefficient in its own slot."""
    if not forms:
        return []
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


def _units(loc: _Localization, signed: bool) -> list[int]:
    units = loc.signed if signed else loc.bare
    return [k & 1 for k in units] if loc.gf2 else units


def _bound(units: Sequence[int], members: list, d: int) -> int:
    """An L1 bound on the coefficients of sum_g k_g s_g f(w_g) L/chi_g over a
    frame's members, f of degree d: L1(f(w)) <= (sum of the L1(w_i))^d,
    for a sum of distinct m_mu of degree d and for e1^i e2^j
    (docs/decisions/0002, 0003)."""
    return sum(abs(units[g]) * own_l1 ** d * cof_l1 for g, *_, own_l1, cof_l1 in members)


def _evaluate(units: Sequence[int], members: list, vals: list[int]) -> list[tuple]:
    """Per member g with k_g != 0, given its frame's forms' values: (g, k_g
    times its scale and its cofactor's product, its other weights) there."""
    at = vals.__getitem__
    return [(g, units[g] * scale * math.prod(map(at, cof)), [m * at(f) for f, m in others])
            for g, others, cof, scale, _, _ in members if units[g]]


def _probe_terms(loc: _Localization, signed: bool) -> list[list[tuple]]:
    """Per factor of D, its plane's ``_evaluate`` terms at the degree-1
    Kronecker point with 2^b > 2·max|coefficient| of its local forms, where
    none of them vanishes (integer data only)."""
    units = _units(loc, signed)
    out = []
    for t in range(len(loc.chars)):
        forms, members = loc.memo(_frame, t)
        b = (2 * max((abs(a) for form in forms for a in form), default=0)).bit_length()
        out.append(_evaluate(units, members, _kronecker_values(forms, 1, b)))
    return out


def _simplex(r: int, m: int) -> list[tuple[int, ...]]:
    """Every a in N^r with a_1 + ... + a_r <= m, in lex order."""
    if not r:
        return [()]
    return [(e, *rest) for e in range(m + 1) for rest in _simplex(r - 1, m - e)]


# bits of a plane's Kronecker integers per point of its simplex lattice above
# which e1^i e2^j, a few sums and powers of small integers per point, is
# tested faster on the lattice: the default sweeps of the standard torus
# manifolds of ranks 4-5 reach at most about 150 on any plane, and Kronecker
# wins there; at rank 6 most planes have over 220, and the lattice wins
# (docs/decisions/0002)
LATTICE_BITS_PER_POINT = 192


def _plane_terms(loc: _Localization, signed: bool, d: int, lattice_ok: bool) -> list:
    """Per factor of D, for every f of degree d and the signed or bare units
    (mod 2 over GF(2)): None when its bound is 0, else (b, the slots per
    value, the slot mask (-1 over Z), its ``_evaluate`` terms), the terms
    None when ``lattice_ok`` and its Kronecker integers would pass
    ``LATTICE_BITS_PER_POINT`` bits per point of its simplex lattice."""
    units = _units(loc, signed)
    out = []
    for t in range(len(loc.chars)):
        forms, members = loc.memo(_frame, t)
        b = _bound(units, members, d).bit_length()
        degree = d + len(forms) - (loc.n - 1)   # of the local numerator
        slots = _slots(loc.n - 1, degree)
        if not b:
            out.append(None)
        elif lattice_ok and loc.n > 1 and b * slots > (
                LATTICE_BITS_PER_POINT * math.comb(degree + loc.n - 2, loc.n - 2)):
            out.append((b, slots, -1, None))
        else:
            # over GF(2) the 0/1 lift's coefficients are its digits: the
            # lowest bit of every slot holds their parities
            mask = ((1 << b * slots) - 1) // ((1 << b) - 1) if loc.gf2 else -1
            out.append((b, slots, mask,
                        _evaluate(units, members, _kronecker_values(forms, degree, b))))
    return out


def _lattice(loc: _Localization, t: int | None, units: Sequence[int], degree: int,
             shift: Sequence[int]) -> Iterator[tuple]:
    """Frame t at each point x = (1, shift + a), a on the simplex lattice
    {a >= 0, |a| <= degree} in the frame's variables after the first, which
    is unisolvent for that degree, one point at a time: (a, its forms'
    values, its ``_evaluate`` terms)."""
    forms, members = loc.memo(_frame, t)
    for a in _simplex(len(shift), degree):
        x = (1, *map(operator.add, shift, a))
        vals = [sum(map(operator.mul, form, x)) for form in forms]
        yield a, vals, _evaluate(units, members, vals)


def _small_kronecker(n: int, d: int) -> bool:
    """Whether the Kronecker integers of a degree-d sum stay small: up to
    rank 4 and degree 2n (d_S <= n).  The one rule, measured at ranks 1-6,
    for a Chern value's method, for trying planes at one point first and
    for letting Chern planes move to their lattices (docs/decisions/0003)."""
    return n <= 4 and d <= 2 * n


def _planes_vanish(loc: _Localization, signed: bool, d: int, f_at,
                   lattice_ok: bool = False) -> bool:
    """Whether every factor ℓ of D divides N = sum_p k_p f(w_p) D/chi_p, for
    f homogeneous of degree d with integer values f_at(values).  On ℓ = 0
    that is whether the local numerator, over the points holding ℓ and their
    own denominator, vanishes (docs/decisions/0002): by one exact
    evaluation whose base exceeds an L1 bound on its coefficients.  Over Z,
    above rank 4 or degree 2n, every plane is first tried at one point, and
    a nonzero value there rejects before any plane's terms are built; there,
    for an f cheap at small integers (``lattice_ok``), a plane whose
    Kronecker integers would be large is tested at every point of its
    simplex lattice instead.  All but f is shared."""
    large = not loc.gf2 and not _small_kronecker(loc.n, d)
    if large and any(sum(kc * f_at(ys) for _, kc, ys in terms)
                     for terms in loc.memo(_probe_terms, signed)):
        return False
    for t, plane in enumerate(loc.memo(_plane_terms, signed, d, large and lattice_ok)):
        if plane is None:
            continue
        _, _, mask, terms = plane
        if terms is None:   # one point at a time: a plane's lattice is too large to keep
            degree = d + len(loc.memo(_frame, t)[0]) - (loc.n - 1)
            if any(sum(kc * f_at(ys) for _, kc, ys in at) for *_, at in
                   _lattice(loc, t, _units(loc, signed), degree, [0] * (loc.n - 2))):
                return False
        elif sum(kc * f_at(ys) for _, kc, ys in terms) & mask:
            return False
    return True


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
    of 2^n − 1 nonzero vectors.  A factor ℓ divides a polynomial's sum
    exactly when its local numerator on ℓ = 0 vanishes mod 2, and that
    numerator may be put over the local denominator of ALL faithful
    monomials holding ℓ (the product of the 2^(n−1) − 1 nonzero forms of the
    plane), since a nonzero multiple of a sum vanishes exactly when the sum
    does: the term of a monomial m holding ℓ is f(m's forms there) times the
    local forms not among m's.  Only m's own factors are tested, since every
    other one divides D/χ_m.  Those terms depend only on (monomial,
    partition, factor), so they are read once, from the hyperplane data of
    the localization of all faithful monomials: each is one evaluation at a
    Kronecker point, whose base and cofactor products every partition of
    one degree shares (``_plane_terms`` with every unit 1), and its parity
    digits go to one bit per (factor, slot) of an int per (monomial,
    partition).  GL(n, 2) permutes the planes, so every plane has the same
    slot count and the factors fill disjoint bits: the XOR of those ints is
    every per-factor XOR at once.  A query is one XOR per monomial and one
    test for zero, and agrees with ``integrality_check_gf2`` on every input.
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
                    shared = {d: _plane_terms(loc, False, d, False)}
                for t, (b, slots, _, terms) in enumerate(shared[d]):
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


def _signed_digits(value: int, b: int, count: int) -> list[int]:
    """The ``count`` lowest base-2^b digits of value, each in
    [-2^(b-1), 2^(b-1)), when b is a multiple of 8 and they fit: one offset
    of 2^(b-1) per digit and one ``to_bytes``, linear in the size of value."""
    width, half = b // 8, 1 << (b - 1)
    offset = int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")
    raw = (value + offset).to_bytes(width * count, "little")
    return [int.from_bytes(raw[k:k + width], "little") - half
            for k in range(0, width * count, width)]


def _value_terms(loc: _Localization, d: int) -> tuple:
    """For every (i, j) with i + 2j = d: (b, D(x), the whole space's
    ``_evaluate`` terms at the Kronecker point x)."""
    n, degree = loc.n, d - loc.n
    forms, members = loc.memo(_frame, None)
    bound = _bound(loc.signed, members, d) << n * degree
    b = max(2 * bound, 2 * max(abs(v) for c in forms for v in c)).bit_length()
    b = -(-b // 8) * 8   # whole bytes, for the decode
    vals = _kronecker_values(forms, max(degree, 1), b)
    return b, math.prod(vals), _evaluate(loc.signed, members, vals)


def _quotient(summands: list, at_x: int, i: int, j: int) -> int:
    """S(x) = N(x) / D(x) for the (i, j) sum, exactly."""
    value, rem = divmod(sum(kc * _e1_e2_power(xs, i, j) for _, kc, xs in summands), at_x)
    if rem:
        raise ArithmeticError(f"the ({i}, {j}) sum is a polynomial, "
                              "yet D(x) does not divide N(x)")
    return value


def _kronecker_value(loc: _Localization, i: int, j: int) -> dict:
    """The coefficients of S(1, y) from one exact evaluation.

    At x = (1, B, B^s, ..., B^(s^(n-2))), s = max(d_S + 1, 2), each monomial
    of S lands on its own power of B.  B = 2^b exceeds twice Mahler's bound
    2^(n d_S) ||N||_1 on S's coefficients, so they are S(x)'s signed base-B
    digits, and twice every |ℓ_k|, so no factor vanishes at x.
    """
    n, degree = loc.n, i + 2 * j - loc.n
    b, at_x, summands = loc.memo(_value_terms, i + 2 * j)
    spacing = max(degree, 1)
    terms = {}
    for slot, c in enumerate(_signed_digits(_quotient(summands, at_x, i, j), b,
                                            (spacing + 1) ** (n - 1))):
        if c:
            expt = []
            for _ in range(n - 1):
                slot, e = divmod(slot, spacing + 1)
                expt.append(e)
            if sum(expt) > degree:
                raise ArithmeticError(f"the ({i}, {j}) sum has a term above degree {degree}")
            terms[tuple(expt)] = c
    return terms


def _lattice_terms(loc: _Localization, d: int) -> tuple[list[int], list[tuple]]:
    """For every (i, j) with i + 2j = d, d_S = d - n: (the shift c, per
    lattice point a: (a, D(x), the whole space's ``_evaluate`` terms at
    x = (1, c + a))), a on the simplex {a >= 0, |a| <= d_S} in n - 1
    variables.  c_q exceeds every |coefficient| times the largest sum of
    the coordinates before it, so the last variable a factor mentions
    outweighs the rest and no factor vanishes at any x
    (docs/decisions/0003)."""
    n, m = loc.n, d - loc.n
    top = max(abs(v) for form in loc.memo(_frame, None)[0] for v in form)
    shift, reach = [], 1   # reach: the largest sum of the coordinates so far
    for _ in range(n - 1):
        shift.append(top * reach + 1)
        reach += shift[-1] + m
    return shift, [(a, math.prod(vals), terms)
                   for a, vals, terms in _lattice(loc, None, loc.signed, m, shift)]


def _lattice_value(loc: _Localization, i: int, j: int) -> dict:
    """The coefficients of S(1, y), of degree m = d_S, from its values at the
    shifted simplex lattice, which is unisolvent for degree m (Chung and
    Yao, SIAM J. Numer. Anal. 14, 1977).

    Newton divided differences at the consecutive nodes c_k, c_k + 1, ...,
    one axis at a time, give the coefficients of S(1, y) in the basis
    prod_k (y_k - c_k)(y_k - c_k - 1)...; Horner's rule per axis expands it.
    S has integer coefficients (Gauss's lemma), so every divided difference
    is an integer, and a remainder raises ``ArithmeticError``.
    """
    shift, points = loc.memo(_lattice_terms, i + 2 * j)
    coeffs = {a: _quotient(summands, at_x, i, j) for a, at_x, summands in points}
    lines_of = []
    for k in range(len(shift)):
        lines: dict[tuple, list] = {}
        for a in coeffs:   # lex order, so each line's a_k ascends from 0
            lines.setdefault(a[:k] + a[k + 1:], []).append(a)
        lines_of.append(lines.values())
    for lines in lines_of:
        for line in lines:
            f = [coeffs[a] for a in line]
            for level in range(1, len(f)):
                for t in range(len(f) - 1, level - 1, -1):
                    f[t], rem = divmod(f[t] - f[t - 1], level)
                    if rem:
                        raise ArithmeticError(f"the ({i}, {j}) sum has a non-integer "
                                              "divided difference")
            coeffs.update(zip(line, f))
    for c, lines in zip(shift, lines_of):
        for line in lines:
            poly: list[int] = []
            for t in range(len(line) - 1, -1, -1):   # poly * (y - c - t) + f_t
                poly = [0] + poly
                for e in range(len(poly) - 1):
                    poly[e] -= (c + t) * poly[e + 1]
                poly[0] += coeffs[line[t]]
            coeffs.update(zip(line, poly))
    return coeffs


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
    a polynomial is decided on each factor's hyperplane.  Its value S, of
    degree d_S = i + 2j - n, is 0 below degree 0 and otherwise read off
    exact evaluations, of one Kronecker point up to rank 4 and d_S = n and
    of a simplex lattice above either (docs/decisions/0003).  The factors
    are primitive, so by Gauss's lemma a polynomial sum has integer
    coefficients.
    """
    if data.flavor != Z:
        raise ValidationError("expected integer fixed-point data")
    if i < 0 or j < 0:
        raise ValidationError("Chern number indices must be nonnegative")
    if j and data.n < 2:
        raise ValidationError("e2 needs at least two weights per point")
    loc, n, d = _localization(data), data.n, i + 2 * j
    if not _planes_vanish(loc, True, d, lambda ys: _e1_e2_power(ys, i, j), lattice_ok=True):
        return ChernNumber(i, j, False, False, None, None)
    quo = MPoly.zero(n)
    if d >= n and any(loc.signed):   # else deg N < deg D, or N = 0
        read = _kronecker_value if _small_kronecker(n, d) else _lattice_value
        quo = MPoly(n, {(d - n - sum(e), *e): c for e, c in read(loc, i, j).items() if c})
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
