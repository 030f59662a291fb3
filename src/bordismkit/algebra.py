"""Faithful polynomials, dualization, and the deletion differential.

One polynomial type serves both rings.  A ``Polynomial`` holds its rank
``n``, a ``space`` tag ("primal" or "dual"), a coefficient ``modulus`` and
``terms``, a dict from canonical monomials to nonzero coefficients:

* ``Gf2Polynomial`` (modulus 2) — square-free polynomials over GF(2) on
  nonzero characters in GF(2)^n.  Every coefficient is 1.
* ``ExtPolynomial`` (modulus 0) — elements of the free exterior Z-algebra
  on nonzero characters in Z^n.

A canonical monomial lists its characters in lexicographic order with the
reordering sign folded into the coefficient, and a repeated character makes
it vanish, so equal elements have equal representations.  Over GF(2) the
sign is trivial and the wedge is the square-free product, so sums, wedges,
the dual, the differential, the image test, mod-2 reduction, block
embeddings, coordinate permutations, the character check and the basis test
are written once, and the rings differ only in their modulus (and in
``Gf2Polynomial``'s monomial-list constructor).  ``RINGS`` names the two
classes "gf2" and "z".  ``mod2_reduce`` maps the Z ring onto the GF(2) ring.

A monomial is *faithful* when its characters are a basis (determinant odd
over GF(2), ±1 over Z), that is, when their dual basis exists.  The hook
``_dual_rows(chars, n)``, one ``intmat.dual_basis`` keyed by the modulus,
returns the dual basis and det(chars) (1 over GF(2)), or None unless
``chars`` are a basis.  Every given basis in the package (monomials,
polytope and graph vertices, fixed points) is proved by it, and no basis
gets a second determinant.  The hook keeps each proof for the process, up
to row order and duality (``_PROOFS``, docs/decisions/0005), so a basis
met again as a vertex, its dual or a fixed point is not eliminated again;
``dual_basis`` is a pure function, so every input is still checked and
every answer is the elimination's.  ``dual`` sorts those rows into the dual
monomial and swaps the space tag; ``in_image_verdict`` dualizes once and
tests membership in the geometric image via d(g*) = 0.

Bases are searched for in one place, ``basis_search``, over Z or GF(2) by
one gcd test: it enumerates the faithful GF(2) monomials of a rank (once
per rank and process, ``_SEARCHES``) and the unimodular monomials of an
integer window (``kernels``), and its cofactor table gives each found basis
its dual with no inversion.

Every integer the package is given is read by ``exact_int``
(``operator.index``, with an optional lower bound): ranks, dimensions,
counts, facet and vertex ids, weight bounds, degree caps, Chern indices,
partition parts, exponents, coefficients, character entries, signs, the
scale factor and the swap split.  A float or a string is refused with a
ValidationError naming the argument, never truncated or parsed.

Sign convention for the Z dual (the calibrated design decision): a
faithful monomial is dualized by rewriting it in a determinant-positive
character order, taking the dual-basis rows in that same order, and
re-canonicalizing.  On canonical representations this reads

    dual(c on A) = c · sign(det A) · sign(det B) on B,

with A the sorted character matrix and B the sorted dual-basis matrix.  This
is an involution, reduces mod 2 to the plain GF(2) dual, and is exactly
multiplicative for block products, which is what keeps the kernel closed
under products.  Calibration notes live in the test suite next to the
hand-checked examples.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from . import intmat
from .errors import ValidationError

Char = tuple[int, ...]
Monomial = tuple[Char, ...]

PRIMAL = "primal"
DUAL = "dual"


# ---------------------------------------------------------------------------
# characters and monomials


def exact_int(value: object, what: str, least: int | None = None) -> int:
    """``value`` as an int when it is an exact integer (``operator.index``),
    at least ``least`` when that is given, else ValidationError: 1.5 or the
    string "1" is refused, not truncated or parsed."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValidationError(f"{what} must be an integer, got {value!r}") from None
    if least is not None and value < least:
        raise ValidationError(f"{what} must be at least {least}, got {value}")
    return value


def char_mod2(char: Char) -> Char:
    return tuple(v & 1 for v in char)


def sort_monomial(chars: Iterable[Char]) -> tuple[int, Monomial]:
    """Sort characters lexicographically; return (permutation sign, monomial).

    Returns sign 0 when a character repeats (the wedge vanishes).
    """
    chars = list(chars)
    sign = 1
    # insertion sort so the parity comes out with no extra bookkeeping
    for i in range(1, len(chars)):
        j = i
        while j > 0 and chars[j - 1] > chars[j]:
            chars[j - 1], chars[j] = chars[j], chars[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(chars, chars[1:]):
        if a == b:
            return 0, ()
    return sign, tuple(chars)


# ---------------------------------------------------------------------------
# polynomials


def _canonical(pairs: Iterable[tuple[Iterable[Char], int]]
               ) -> Iterator[tuple[Monomial, int]]:
    """Sort each monomial's characters, folding the sign into the coefficient;
    a monomial with a repeated character vanishes."""
    for chars, coeff in pairs:
        sign, mono = sort_monomial(chars)
        if sign:
            yield mono, sign * coeff


def _collect(pairs: Iterable[tuple[Monomial, int]], modulus: int,
             acc: dict[Monomial, int] | None = None) -> dict[Monomial, int]:
    """Sum (canonical monomial, coefficient) pairs into ``acc``, mod ``modulus``."""
    acc = {} if acc is None else acc
    for mono, coeff in pairs:
        coeff += acc.get(mono, 0)
        if modulus:
            coeff %= modulus
        if coeff:
            acc[mono] = coeff
        elif mono in acc:
            del acc[mono]
    return acc


class Polynomial:
    """A polynomial on characters, stored as {canonical monomial: coefficient}.

    Coefficients are nonzero and reduced mod ``modulus`` (2 over GF(2), 0 for
    Z).  Use the subclasses ``Gf2Polynomial`` and ``ExtPolynomial``.
    """

    __slots__ = ("n", "space", "terms")
    modulus: int

    def __init__(self, n: int,
                 terms: Mapping[Monomial, int] | Iterable[tuple[Monomial, int]] = (),
                 space: str = PRIMAL):
        if space not in (PRIMAL, DUAL):
            raise ValidationError(f"unknown space {space!r}")
        self.n = n = exact_int(n, "rank n", 1)
        self.space = space
        modulus = self.modulus
        pairs = []
        for mono, coeff in (terms.items() if isinstance(terms, Mapping) else terms):
            coeff = exact_int(coeff, "coefficient")
            if modulus:
                coeff %= modulus
            if coeff == 0:
                continue
            mono = tuple(self._check_char(c, n) for c in mono)
            sign, canonical = sort_monomial(mono)
            if sign == 0:
                if modulus == 2:
                    raise ValidationError(f"repeated character in monomial {mono}")
                continue
            pairs.append((canonical, sign * coeff))
        self.terms = _collect(pairs, modulus)

    @classmethod
    def _of(cls, n: int, space: str, terms: dict[Monomial, int]) -> "Polynomial":
        """Unchecked constructor: ``terms`` canonical, nonzero and reduced."""
        p = object.__new__(cls)
        p.n = n
        p.space = space
        p.terms = terms
        return p

    @classmethod
    def _check_char(cls, char: Char, n: int) -> Char:
        """A nonzero integer character of length n; GF(2) adds 0/1 entries."""
        char = tuple([exact_int(v, "character entry") for v in char])
        if len(char) != n:
            raise ValidationError(f"character {char} does not have length {n}")
        if not any(char):
            raise ValidationError("zero character is not allowed")
        if cls.modulus and any(v not in (0, 1) for v in char):
            raise ValidationError(f"GF(2) character {char} has entries outside {{0,1}}")
        return char

    @classmethod
    def _dual_rows(cls, chars: Sequence[Char], n: int) -> tuple[list[Char], int] | None:
        """(the dual basis of ``chars`` in order, det(chars)); None unless a
        basis.  The count is checked first: no rows have the empty dual.

        Each proof is made once per process up to row order and duality
        (docs/decisions/0005): the rows are sorted by ``sort_monomial``, so
        repeated rows answer None with no elimination, and ``_PROOFS``
        keeps, per (sorted rows, modulus), ``intmat.dual_basis`` of the
        sorted rows, and after an elimination also the dual's own entry, the
        input back.  A hit is put back in the caller's row order, its det
        times the sign of the sorting permutation over Z, and is always a
        fresh list.
        """
        if len(chars) != n:
            return None
        modulus = cls.modulus
        rows = list(map(tuple, chars))
        sign, ordered = sort_monomial(rows)
        if not sign:   # a repeated row
            return None
        key = (ordered, modulus)
        proof = _PROOFS.get(key, _UNPROVED)
        if proof is _UNPROVED:
            proof = intmat.dual_basis(ordered, modulus)
            if len(_PROOFS) > MAX_PROOFS - 2:
                _PROOFS.clear()
            _PROOFS[key] = proof
            if proof is not None:
                _remember_dual(key, proof)
        if proof is None:
            return None
        dual, det = proof
        dual_of = dict(zip(ordered, dual))
        return [dual_of[row] for row in rows], det if modulus else sign * det

    def _sum(self, pairs: Iterable[tuple[Monomial, int]], *, n: int | None = None,
             space: str | None = None) -> "Polynomial":
        return self._of(n or self.n, space or self.space, _collect(pairs, self.modulus))

    # -- basics ----------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.modulus == other.modulus
            and self.n == other.n
            and self.space == other.space
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.modulus, self.n, self.space, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        body = " ".join(
            f"{'+' if c > 0 else '-'}{abs(c)}*{'^'.join(map(str, m)) if m else '1'}"
            for m, c in self.sorted_terms())
        return f"{type(self).__name__}(n={self.n}, {body or 0}, space={self.space!r})"

    @property
    def monomials(self) -> frozenset[Monomial]:
        return frozenset(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        return sorted(self.terms.items())

    def support(self) -> int:
        """Number of monomials with nonzero coefficient."""
        return len(self.terms)

    def _check_compatible(self, other: "Polynomial") -> None:
        if type(other) is not type(self):
            raise TypeError(f"expected {type(self).__name__}, got {type(other).__name__}")
        if self.n != other.n or self.space != other.space:
            raise ValidationError("polynomials live in different spaces")

    # -- arithmetic ------------------------------------------------------
    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        return self._of(self.n, self.space,
                        _collect(other.terms.items(), self.modulus, dict(self.terms)))

    def __neg__(self) -> "Polynomial":
        return self.scale(-1)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def scale(self, k: int) -> "Polynomial":
        k = exact_int(k, "scale factor")
        return self._sum((m, k * c) for m, c in self.terms.items())

    def wedge(self, other: "Polynomial") -> "Polynomial":
        """Exterior product (same ambient rank); over GF(2) the square-free
        product.  Monomials with a repeated character vanish."""
        self._check_compatible(other)
        return self._sum(_canonical((m1 + m2, c1 * c2)
                                    for m1, c1 in self.terms.items()
                                    for m2, c2 in other.terms.items()))


class Gf2Polynomial(Polynomial):
    """Square-free polynomial over GF(2) on characters in GF(2)^n."""

    __slots__ = ()
    modulus = 2

    def __init__(self, n: int, monomials: Iterable[Monomial] = (), space: str = PRIMAL):
        super().__init__(n, ((m, 1) for m in monomials), space)


class ExtPolynomial(Polynomial):
    """Element of the free exterior Z-algebra on characters in Z^n."""

    __slots__ = ()
    modulus = 0


# ---------------------------------------------------------------------------
# the process-lifetime proof memo read by ``Polynomial._dual_rows``

ProofKey = tuple[tuple[Char, ...], int]  # (rows in sorted order, modulus)
Proof = tuple[list[Char], int]           # (dual rows in key order, det of the key rows)

# (sorted rows, modulus) -> the dual basis and det of the sorted rows, or None
# for a non-basis; emptied when it reaches MAX_PROOFS entries (the localize
# benchmark pass ends holding about 750)
_PROOFS: dict[ProofKey, Proof | None] = {}
MAX_PROOFS = 4096
_UNPROVED = object()


def _remember_dual(key: ProofKey, proof: Proof) -> None:
    """Store the entry of a proved basis's dual: the dual of the dual is the
    basis, with the same det (±1 over Z), and mod 2 over GF(2), as the
    elimination reads it."""
    rows, modulus = key
    dual, det = proof
    if modulus:
        rows = tuple(tuple(v % modulus for v in row) for row in rows)
    back_of = dict(zip(dual, rows))
    sign, ordered = sort_monomial(dual)
    _PROOFS[ordered, modulus] = ([back_of[row] for row in ordered],
                                 det if modulus else sign * det)


# coloring targets and fixed-point flavors
RINGS: dict[str, type[Polynomial]] = {"gf2": Gf2Polynomial, "z": ExtPolynomial}

# the public constructor names: each ring's class is its one validating way in
gf2_polynomial = Gf2Polynomial
ext_polynomial = ExtPolynomial


# ---------------------------------------------------------------------------
# faithfulness, dual, differential


def is_faithful(p: Polynomial) -> bool:
    """True when every monomial's characters are a basis, that is, when every
    monomial has a dual.

    The zero polynomial is vacuously faithful (it represents the bounding
    class).
    """
    return all(p._dual_rows(m, p.n) is not None for m in p.terms)


def dual(p: Polynomial) -> Polynomial:
    """Monomial-wise dual-basis transform; flips the primal/dual space tag.

    Sorting the dual rows (det A) into B folds in sign(det A)·sign(det B).
    Raises ValidationError on the first monomial that is not faithful.
    """
    pairs = []
    for mono, coeff in p.terms.items():
        found = p._dual_rows(mono, p.n)
        if found is None:
            raise ValidationError(f"cannot dualize non-faithful monomial {mono}")
        pairs.append((found[0], coeff))
    return p._sum(_canonical(pairs), space=DUAL if p.space == PRIMAL else PRIMAL)


def differential(p: Polynomial) -> Polynomial:
    """Deletion differential d.

    d(s1 ∧ ··· ∧ sk) = Σ (−1)^{i+1} (delete si) on canonically ordered
    monomials, d(s1) = 1, d(1) = 0; over GF(2) the signs drop out.  Square of
    the differential is zero in both rings.
    """
    return p._sum((mono[:j] + mono[j + 1:], -coeff if j % 2 else coeff)
                  for mono, coeff in p.terms.items() for j in range(len(mono)))


# ---------------------------------------------------------------------------
# membership


def in_image_verdict(p: Polynomial) -> tuple[bool, str]:
    """Membership of a polynomial (either ring) in the geometric image, with reason."""
    if not isinstance(p, Polynomial):
        raise TypeError("in_image expects a polynomial")
    if p.space != PRIMAL:
        return False, "polynomial is not in the primal space"
    if p.is_zero():
        return True, "zero polynomial (bounding class)"
    try:
        star = dual(p)
    except ValidationError:
        return False, "not faithful"
    if differential(star).is_zero():
        return True, "d(g*) = 0"
    return False, "d(g*) != 0"


def in_image(p: Polynomial) -> bool:
    return in_image_verdict(p)[0]


# the unitary name of the same test, kept for the Z reading
in_image_unitary = in_image


# ---------------------------------------------------------------------------
# mod-2 reduction, block embeddings and coordinate permutations


def mod2_reduce(p: Polynomial) -> Gf2Polynomial:
    """Coordinate-wise and coefficient-wise reduction mod 2.

    Monomials whose characters collide (or vanish) mod 2 are dropped: in the
    square-free target a repeated character means the monomial is zero.  For
    faithful monomials this never fires — an integrally invertible character
    matrix stays invertible mod 2 — so on the classes we care about the
    reduction is literally coordinate-wise.  Dropping instead of raising keeps
    the map total and multiplicative on arbitrary elements.
    """
    pairs = []
    for mono, coeff in p.terms.items():
        reduced = [char_mod2(c) for c in mono]
        if all(any(c) for c in reduced):
            pairs.append((reduced, coeff))
    return Gf2Polynomial._of(p.n, p.space, _collect(_canonical(pairs), 2))


def embed_chars(p: Polynomial, total: int, offset: int) -> Polynomial:
    """Pad every character with zeros to rank ``total``, starting at ``offset``
    (the block embedding used by the class product)."""
    offset = exact_int(offset, "offset", 0)
    total = exact_int(total, "total rank", offset + p.n)
    head, tail = (0,) * offset, (0,) * (total - offset - p.n)
    return p._sum(_canonical((tuple(head + c + tail for c in mono), coeff)
                             for mono, coeff in p.terms.items()), n=total)


def permute_coords(p: Polynomial, perm: tuple[int, ...]) -> Polynomial:
    """Reorder the coordinates of every character: new coordinate k is old perm[k]."""
    perm = tuple([exact_int(i, "permutation entry", 0) for i in perm])
    if sorted(perm) != list(range(p.n)):
        raise ValidationError(f"{perm} is not a permutation of range({p.n})")
    return p._sum(_canonical((tuple(tuple(c[i] for i in perm) for c in mono), coeff)
                             for mono, coeff in p.terms.items()))


# ---------------------------------------------------------------------------
# the basis search


class BasisSearch(NamedTuple):
    """The bases a search kept, with the cofactors of their prefixes."""

    n: int
    chars: list[Char]  # the searched characters, in lex order
    kept: list[tuple[tuple[int, ...], int]]  # (character ids, det) of each basis
    cofactors: dict[tuple[int, ...], tuple[int, ...]]  # (n-1)-prefix ids -> v

    def monomials(self) -> list[Monomial]:
        return [tuple(map(self.chars.__getitem__, ids)) for ids, _ in self.kept]


def basis_search(chars: list[Char], n: int, modulus: int) -> BasisSearch:
    """The n-subsets of ``chars`` (in lex order) that are bases over Z
    (``modulus`` 0) or GF(2) (``modulus`` 2), in ``combinations`` order.

    A depth-first walk over prefixes: a k-prefix carries its k-minors (one
    per k-subset of the columns), each child's from its parent's by Laplace
    expansion on the new row.  Their gcd divides the determinant of every
    completion, so a prefix whose minors have no unit gcd with the modulus
    is skipped with its subtree.  At depth n-1 the minors give the cofactor
    vector v with v . x = det[S; x], and S + (x) is kept when
    gcd(v . x, modulus) = 1: +-1 over Z, odd over GF(2).  Both tests are
    that gcd, whatever the ring.

    Row j of the dual basis (A^-1)^T of a kept A is, by Laplace expansion,
    det A (-1)^(n-1-j) v_(A without row j), and v_(A without row j) mod 2;
    each such prefix is in the table, as its minors' gcd divides det A.
    """
    n = exact_int(n, "rank n", 1)
    cols = [[c[k] for c in chars] for k in range(n)]
    subsets = [list(itertools.combinations(range(n), k)) for k in range(n + 1)]
    where = [{s: i for i, s in enumerate(level)} for level in subsets]
    # plans[k]: per (k+1)-subset K, the terms (sign, column, parent minor) of
    # the expansion of its minor on the new row k
    plans = [[[((-1) ** (k + j), c, where[k][K[:j] + K[j + 1:]]) for j, c in enumerate(K)]
              for K in subsets[k + 1]] for k in range(n)]
    cofactors: dict[tuple[int, ...], tuple[int, ...]] = {}
    kept: list[tuple[tuple[int, ...], int]] = []
    top = len(chars)

    def visit(prefix: tuple[int, ...], minors: list[int], start: int) -> None:
        k = len(prefix)
        later = [col[start:] for col in cols]
        # each child minor for every later x, a column at a time so the loop
        # runs in C; at depth n-1 the one minor is v . x
        children = []
        for terms in plans[k]:
            weights = [(c, s * minors[p]) for s, c, p in terms]
            if k == n - 1:
                cofactors[prefix] = tuple(w for _, w in weights)
            minor = itertools.repeat(0, top - start)
            for c, w in weights:
                if w:
                    minor = map(operator.add, minor,
                                map(operator.mul, later[c], itertools.repeat(w)))
            children.append(list(minor))
        units = map((1).__eq__, map(math.gcd, itertools.repeat(modulus), *children))
        for i in itertools.compress(range(start, top), units):
            if k == n - 1:
                kept.append((prefix + (i,), children[0][i - start]))
            else:
                visit(prefix + (i,), [minor[i - start] for minor in children], i + 1)

    visit((), [1], 0)
    return BasisSearch(n, chars, kept, cofactors)


# ---------------------------------------------------------------------------
# enumeration helpers


def nonzero_chars_gf2(n: int) -> list[Char]:
    """The nonzero vectors of GF(2)^n; none when n < 1."""
    n = exact_int(n, "rank n")
    return [c for c in itertools.product((0, 1), repeat=max(n, 0)) if any(c)]


# one faithful GF(2) search per rank for the process; its readers
# (``all_faithful_monomials_gf2``, ``kernels._rows``, ``bott._key_bits``)
# build fresh lists and dicts from it, by character id
_SEARCHES: dict[int, BasisSearch] = {}


def _faithful_search(n: int) -> BasisSearch:
    n = exact_int(n, "rank n", 1)
    found = _SEARCHES.get(n)
    if found is None:
        found = _SEARCHES[n] = basis_search(nonzero_chars_gf2(n), n, 2)
    return found


def all_faithful_monomials_gf2(n: int) -> list[Monomial]:
    """All unordered bases of GF(2)^n as canonical monomials, sorted."""
    return _faithful_search(n).monomials()
