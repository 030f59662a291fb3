"""Sparse integer polynomials and integer symmetric function values.

``MPoly`` is the immutable container of an equivariant Chern number's
value: ``localization`` reads each value off exact evaluations, so no
polynomial here is ever multiplied or divided.  Monomial symmetric functions
are evaluated only at integers, for the hyperplane and value evaluations.
``terms`` returns a fresh {exponent tuple: coefficient} dict on every read,
so what a caller does with it never reaches the polynomial (or a memo that
holds it).
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping, Sequence

from .algebra import exact_int
from .errors import ValidationError

Expt = tuple[int, ...]


class MPoly:
    """Sparse polynomial: {exponent tuple: int coefficient}, zero coeffs dropped."""

    __slots__ = ("nv", "_terms")

    def __init__(self, nv: int,
                 terms: Mapping[Expt, int] | Iterable[tuple[Expt, int]] = ()):
        self.nv = nv = exact_int(nv, "variable count", 0)
        acc: dict[Expt, int] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for expt, coeff in items:
            expt = tuple([exact_int(e, "exponent", 0) for e in expt])
            if len(expt) != nv:
                raise ValidationError(f"bad exponent tuple {expt} for {nv} variables")
            acc[expt] = acc.get(expt, 0) + exact_int(coeff, "coefficient")
            if not acc[expt]:
                del acc[expt]
        self._terms = acc

    @property
    def terms(self) -> dict[Expt, int]:
        """A fresh {exponent tuple: coefficient} dict of the nonzero terms."""
        return dict(self._terms)

    @classmethod
    def zero(cls, nv: int) -> "MPoly":
        return cls(nv)

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
        for e, c in sorted(self._terms.items()):
            mono = "*".join(f"x{i}^{p}" if p > 1 else f"x{i}"
                            for i, p in enumerate(e) if p) or "1"
            bits.append(f"{c}*{mono}")
        return f"MPoly({self.nv}, {' + '.join(bits)})"

    def constant_value(self) -> int | None:
        """The coefficient of x^0 if the polynomial is constant, else None."""
        if self.is_zero():
            return 0
        if self._terms.keys() == {(0,) * self.nv}:
            return self._terms[(0,) * self.nv]
        return None


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
    try:
        parts = [exact_int(x, "partition part", 1) for x in mu]
    except TypeError:
        raise ValidationError(f"a partition is a sequence of parts, got {mu!r}") from None
    return tuple(sorted(parts, reverse=True))


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
