"""Bordism classes as polynomials: the graded-ring interface.

A class is represented by its (injective) polynomial image, so equality of
classes is equality of polynomials and no quotient bookkeeping is needed.
Disjoint union is polynomial addition, cartesian product is the block-wise
character embedding followed by the exterior product, and the integer-to-mod-2
reduction is coordinate/coefficient reduction.  The product is commutative
only up to the block-swap lattice automorphism, which is exposed explicitly
as ``swap_conjugate``.
"""

from __future__ import annotations

from typing import NamedTuple

from . import algebra, gf2, kernels
from .algebra import ExtPolynomial, Gf2Polynomial, Polynomial
from .errors import ValidationError
from .kernels import kernel_sample_unitary, kernel_space

UNORIENTED = "unoriented-z2torus"
UNITARY = "unitary-toric"
FLAVORS = (UNORIENTED, UNITARY)
POLYNOMIAL_TYPES = {UNORIENTED: Gf2Polynomial, UNITARY: ExtPolynomial}


def _polynomial_type(flavor: str) -> type[Polynomial]:
    if flavor not in FLAVORS:
        raise ValidationError(f"unknown flavor {flavor!r}")
    return POLYNOMIAL_TYPES[flavor]


class BordismClass:
    """An equivariant bordism class, stored as its polynomial invariant."""

    __slots__ = ("flavor", "n", "polynomial")

    def __init__(self, flavor: str, polynomial: Polynomial):
        want = _polynomial_type(flavor)
        if not isinstance(polynomial, want):
            raise ValidationError(
                f"{flavor} classes carry {want.__name__} polynomials")
        ok, why = algebra.in_image_verdict(polynomial)
        if not ok:
            raise ValidationError(f"polynomial is not a bordism class: {why}")
        self.flavor = flavor
        self.n = polynomial.n
        self.polynomial = polynomial

    @classmethod
    def zero(cls, flavor: str, n: int) -> "BordismClass":
        return cls(flavor, _polynomial_type(flavor)(n, (), space=algebra.PRIMAL))

    def is_zero(self) -> bool:
        return self.polynomial.is_zero()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BordismClass):
            return NotImplemented
        return self.flavor == other.flavor and self.polynomial == other.polynomial

    def __hash__(self) -> int:
        return hash((self.flavor, self.polynomial))

    def __repr__(self) -> str:
        return f"BordismClass({self.flavor!r}, n={self.n}, {self.polynomial!r})"


def add(a: BordismClass, b: BordismClass) -> BordismClass:
    """Disjoint union of classes: polynomial sum."""
    if a.flavor != b.flavor:
        raise ValidationError("cannot add classes of different flavors")
    if a.n != b.n:
        raise ValidationError(f"cannot add classes of ranks {a.n} and {b.n}")
    return BordismClass(a.flavor, a.polynomial + b.polynomial)


def multiply(a: BordismClass, b: BordismClass) -> BordismClass:
    """Cartesian product: a's characters go to the first coordinate block."""
    if a.flavor != b.flavor:
        raise ValidationError("cannot multiply classes of different flavors")
    total = a.n + b.n
    pa = algebra.embed_chars(a.polynomial, total, 0)
    pb = algebra.embed_chars(b.polynomial, total, a.n)
    return BordismClass(a.flavor, pa.wedge(pb))


def swap_conjugate(a: BordismClass, split: int) -> BordismClass:
    """Block-swap lattice automorphism exchanging coordinates [0, split) and
    [split, n): carries multiply(x, y) to multiply(y, x) for split = x.n.

    The automorphism acts on characters and additionally scales coefficients
    by its determinant (−1)^{split·(n−split)} — with the ordering sign folded
    into coefficients, this is exactly the action that keeps every fixed
    point's sign intact, so a symmetric product is a fixed point of the swap.
    Mod 2 the scaling is the identity.
    """
    split = algebra.exact_int(split, "split")
    if not 0 <= split <= a.n:
        raise ValidationError(f"split {split} out of range for rank {a.n}")
    perm = tuple(range(split, a.n)) + tuple(range(split))
    det = -1 if (split * (a.n - split)) % 2 else 1
    return BordismClass(a.flavor,
                        algebra.permute_coords(a.polynomial, perm).scale(det))


def reduce(a: BordismClass) -> BordismClass:
    """Mod-2 reduction homomorphism from unitary-toric to unoriented classes."""
    if a.flavor != UNITARY:
        raise ValidationError("reduce expects a unitary-toric class")
    return BordismClass(UNORIENTED, algebra.mod2_reduce(a.polynomial))


class ProbeEntry(NamedTuple):
    index: int                    # position in the kernel_space basis
    hit: bool
    witness: ExtPolynomial | None  # integer kernel element reducing to it


class ProbeReport(NamedTuple):
    n: int
    weight_bound: int
    kernel_dim: int
    window_dim: int
    entries: tuple[ProbeEntry, ...]

    @property
    def hits(self) -> int:
        return sum(1 for e in self.entries if e.hit)

    @property
    def full_coverage(self) -> bool:
        return all(e.hit for e in self.entries)


def surjectivity_probe(n: int, weight_bound: int = 1,
                       max_n: int | None = None) -> ProbeReport:
    """Search bounded-weight integer kernel elements reducing onto a basis
    of the mod-2 kernel.

    For each basis element of the rank-n mod-2 kernel, decide membership in
    the GF(2) span of the reduced window basis; a hit's witness is the sum of
    the window elements with odd coefficients, an integer kernel element whose
    reduction is exactly the target.  Misses are inconclusive — the window is
    only a weight-bounded slice.
    """
    # refuse over the window caps, then the kernel cap, before any work
    n, weight_bound = kernels._check_window(n, weight_bound, max_n, None, weight_fixed=True)
    target_space = kernel_space(n)
    window = kernel_sample_unitary(n, weight_bound, max_n=max_n)

    cols: dict[tuple, int] = {}

    def bits_of(p: Gf2Polynomial) -> int:
        bits = 0
        for mono in p.terms:
            bits |= 1 << cols.setdefault(mono, len(cols))
        return bits

    acc = gf2.RankAccumulator(track=True)
    for p in window.basis:
        acc.add(bits_of(algebra.mod2_reduce(p)))
    entries = []
    for index, g in enumerate(target_space.basis):
        rest, comb = acc.express(bits_of(g))
        if rest:
            entries.append(ProbeEntry(index, False, None))
            continue
        witness = ExtPolynomial(n, {}, space=algebra.PRIMAL)
        for i in gf2.bits(comb):
            witness = witness + window.basis[i]
        entries.append(ProbeEntry(index, True, witness))
    return ProbeReport(n, weight_bound, target_space.dim, window.dim, tuple(entries))
