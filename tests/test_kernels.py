"""Kernel spaces and integral window kernels: dimensions, membership, bounds."""

import hashlib
import itertools
import math
import random
from fractions import Fraction

import derivations
import elimination_oracles
import pytest

from bordismkit import algebra, graphs, kernels, polytopes
from bordismkit.algebra import PRIMAL, ExtPolynomial, Gf2Polynomial
from bordismkit.errors import ResourceLimitError, ValidationError

# The published value for n=4 is 510.  The closed form, the elimination and
# the generator span all give 511, by the three derivations of
# docs/decisions/0001-rank4-dimension.md.
KERNEL_DIMS = {1: 0, 2: 1, 3: 13, 4: 511}

# window kernel stats: (monomials, rank of the differential rows, nullity)
WINDOW_STATS = {
    (1, 1): (2, 1, 1),
    (1, 2): (2, 1, 1),
    (2, 1): (20, 7, 13),
    (2, 2): (52, 15, 37),
    (3, 1): (1160, 371, 789),
}


def test_kernel_dimensions():
    # the elimination against the closed form and the lex-shelling count,
    # derivations 1 and 4 of docs/decisions/0001; rank 5 is above the
    # default cap
    for n, want in {**KERNEL_DIMS, 5: 61193}.items():
        assert derivations.kernel_dim(n) == want
        assert derivations.lex_shelling_count(n) == want
        assert kernels.kernel_space(n, max_n=5).dim == want


def test_kernel_basis_members_pass_membership():
    for n in (2, 3):
        space = kernels.kernel_space(n)
        assert len(space.basis) == space.dim
        for b in space.basis:
            assert space.contains(b)
            assert algebra.in_image(b)


def test_kernel_n2_is_the_rp2_polynomial():
    space = kernels.kernel_space(2)
    (b,) = space.basis
    assert b.monomials == {((0, 1), (1, 0)), ((0, 1), (1, 1)), ((1, 0), (1, 1))}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_kernel_basis_matches_the_inline_elimination(n):
    # element by element, in order: the same rows, the same relations
    assert kernels.kernel_space(n).basis == elimination_oracles.kernel_basis(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_dim_builds_no_basis_until_it_is_read(n, monkeypatch):
    # the dimension is the rank deficit alone; the basis polynomials are
    # built on the first read of ``basis`` and that list is kept
    built = []
    real = Gf2Polynomial._of.__func__

    def counted(cls, *args):
        built.append(args)
        return real(cls, *args)

    monkeypatch.setattr(Gf2Polynomial, "_of", classmethod(counted))
    space = kernels.kernel_space(n)
    assert space.dim == KERNEL_DIMS[n] and not built
    basis = space.basis
    assert len(built) == space.dim
    assert basis == elimination_oracles.kernel_basis(n)
    assert space.basis is basis and len(built) == space.dim


def test_kernel_dim_reproducible():
    # elimination must not depend on iteration order side effects
    assert kernels.kernel_space(3).dim == kernels.kernel_space(3).dim


def test_random_kernel_combinations_stay_inside():
    rng = random.Random(43)
    space = kernels.kernel_space(3)
    for _ in range(100):
        p = Gf2Polynomial(3)
        for b in space.basis:
            if rng.random() < 0.5:
                p = p + b
        assert space.contains(p)


def test_contains_is_in_image_over_gf2_of_the_rank():
    space = kernels.kernel_space(2)
    # a non-faithful monomial is not in the image, not a dualization error
    lone = algebra.gf2_polynomial(2, [((1, 0),)])
    assert not algebra.in_image(lone) and not space.contains(lone)
    # the CP^1 x CP^1 torus polynomial answers the Z question, not this one
    polytope = polytopes.product_of_simplices((1, 1))
    torus = graphs.torus_polynomial(
        graphs.torus_graph_from_pair(polytope, polytopes.standard_z_coloring((1, 1))))
    assert algebra.in_image(torus) and not space.contains(torus)
    assert space.contains(algebra.mod2_reduce(torus))     # it reduces to 0


def test_kernel_rank_cap():
    with pytest.raises(ResourceLimitError):
        kernels.kernel_space(99)


def test_kernel_space_refuses_rank_five_by_default(monkeypatch):
    monkeypatch.delenv("BORDISMKIT_MAX_N", raising=False)
    with pytest.raises(ResourceLimitError, match="BORDISMKIT_MAX_N=5"):
        kernels.kernel_space(5)


def test_kernel_rank_cap_override(monkeypatch):
    monkeypatch.setenv("BORDISMKIT_MAX_N", "3")
    with pytest.raises(ResourceLimitError):
        kernels.kernel_space(4)
    monkeypatch.setenv("BORDISMKIT_MAX_N", "nope")
    with pytest.raises(ValidationError):
        kernels.kernel_space(4)


def test_a_negative_rank_cap_is_refused(monkeypatch):
    # the environment's cap is read like max_n: a whole number, at least 0
    monkeypatch.setenv("BORDISMKIT_MAX_N", "-1")
    with pytest.raises(ValidationError, match="BORDISMKIT_MAX_N must be at least 0, got -1"):
        kernels.kernel_space(1)
    monkeypatch.setenv("BORDISMKIT_MAX_N", "0")
    assert kernels.max_rank_limit() == 0


def test_window_kernel_stats():
    for (n, w), (monos, rank, dim) in WINDOW_STATS.items():
        win = kernels.kernel_sample_unitary(n, w)
        assert (len(win.monomials), win.rank, win.dim) == (monos, rank, dim)
        assert win.rank + win.dim == len(win.monomials)


def test_window_three_two_at_the_default_caps():
    # the largest window the default caps accept
    win = kernels.kernel_sample_unitary(3, 2)
    assert (len(win.monomials), win.rank, win.dim) == (22_568, 6_491, 16_077)
    for b in win.basis[::997]:
        assert algebra.differential(algebra.dual(b)).is_zero()


def test_window_kernel_basis_in_unitary_image():
    for (n, w) in ((1, 1), (2, 1)):
        win = kernels.kernel_sample_unitary(n, w)
        for b in win.basis:
            assert algebra.in_image_unitary(b)


def test_window_n1_is_the_cp1_relation():
    win = kernels.kernel_sample_unitary(1, 1)
    (b,) = win.basis
    assert b.terms in ({((-1,),): -1, ((1,),): 1}, {((-1,),): 1, ((1,),): -1})


def test_window_mod2_lands_in_gf2_kernel():
    space = kernels.kernel_space(2)
    for b in kernels.kernel_sample_unitary(2, 1).basis:
        assert space.contains(algebra.mod2_reduce(b))


def test_window_caps():
    with pytest.raises(ResourceLimitError):
        kernels.kernel_sample_unitary(4, 1)
    with pytest.raises(ResourceLimitError):
        kernels.kernel_sample_unitary(2, 3)
    with pytest.raises(ValidationError):
        kernels.kernel_sample_unitary(0, 1)


def test_support_floor_weight_two():
    # every nonzero window kernel element needs at least this many monomials
    assert kernels.support_floor(1, 2) == 2
    assert kernels.support_floor(2, 2) == 3
    assert kernels.support_floor(3, 2) == 3


def test_support_floor_matches_basis_minimum():
    for (n, w) in ((2, 1), (3, 1)):
        win = kernels.kernel_sample_unitary(n, w)
        floor = kernels.support_floor(n, w)
        assert min(b.support() for b in win.basis) >= floor


# every window up to rank 3 and weight 2, and two past the weight cap of
# kernel_sample_unitary; the ids are the ones these cases had when each
# passed its own window caps
FLOOR_WINDOWS = [(n, w) for n in (1, 2, 3) for w in (0, 1, 2)] + [(1, 3), (2, 3)]


@pytest.mark.parametrize("n,w", FLOOR_WINDOWS,
                         ids=[f"{n}-{w}-caps{i}" for i, (n, w) in enumerate(FLOOR_WINDOWS)])
def test_support_floor_matches_the_row_scan(n, w):
    # the row argument gives the floor the scan of every row finds, and it
    # meets the survey's ceil(n/2) + 1 fixed points of a nonbounding manifold
    floor = kernels.support_floor(n, w)
    assert floor == elimination_oracles.support_floor(n, w)
    assert floor >= (n + 1) // 2 + 1


def test_support_floor_caps():
    # no window is built, so past kernel_sample_unitary's caps the floor is
    # still read off the row argument; only a bad rank or weight is refused
    assert kernels.support_floor(4, 2) == 3
    assert kernels.support_floor(2, 3) == 3
    with pytest.raises(ValidationError, match="^ambient rank must be at least 1, got 0$"):
        kernels.support_floor(0, 1)
    with pytest.raises(ValidationError, match="^weight bound must be at least 0, got -1$"):
        kernels.support_floor(1, -1)


# The scalar path the cofactor table replaced, kept here as the reference:
# a full determinant per candidate, and d(m*) through the polynomial classes.

def _reference_monomials(n, w):
    chars = [c for c in itertools.product(range(-w, w + 1), repeat=n) if any(c)]
    return [sub for sub in itertools.combinations(chars, n)
            if elimination_oracles.det([list(c) for c in sub]) in (1, -1)]


def _reference_row(mono, n):
    return algebra.differential(algebra.dual(ExtPolynomial(n, {mono: 1}, space=PRIMAL)))


def _window_with_rows(n, w):
    """The window's monomials and rows, each row keyed by its (n-1)-monomials
    in the order d deletes them (integer column ids decoded)."""
    window = kernels._search(n, w)
    duals = kernels._dual_characters(window)

    def column(cid):
        digits = []
        for _ in range(n - 1):
            cid, q = divmod(cid, len(duals))
            digits.append(duals[q])
        return tuple(reversed(digits))

    rows = [{column(cid): c for cid, c in reversed(row)}
            for row in kernels._window_rows(window)]
    return window.monomials(), rows


@pytest.mark.parametrize("n,w", sorted(WINDOW_STATS))
def test_window_matches_scalar_reference(n, w):
    monomials, rows = _window_with_rows(n, w)
    assert monomials == _reference_monomials(n, w)
    for mono, row in zip(monomials, rows):
        assert list(row.items()) == list(_reference_row(mono, n).terms.items())
    # the basis as the scalar path built it, term for term
    _, combos = kernels._left_kernel([dict(_reference_row(m, n).terms) for m in monomials])
    want = []
    for comb in combos:
        terms = {monomials[i]: c for i, c in comb.items()}
        if terms[min(terms)] < 0:
            terms = {m: -c for m, c in terms.items()}
        want.append(ExtPolynomial(n, terms, space=PRIMAL))
    got = kernels.kernel_sample_unitary(n, w).basis
    assert got == want
    assert [list(b.terms.items()) for b in got] == [list(b.terms.items()) for b in want]


def test_window_three_two_against_scalar_reference_on_a_stride():
    chars = [c for c in itertools.product(range(-2, 3), repeat=3) if any(c)]
    assert math.comb(len(chars), 3) == 310_124
    monomials, rows = _window_with_rows(3, 2)
    assert len(monomials) == 22_568
    assert monomials == sorted(monomials)
    kept = set(monomials)
    for prefix in itertools.islice(itertools.combinations(chars, 2), 0, None, 41):
        for x in chars[chars.index(prefix[-1]) + 1:]:
            unimodular = elimination_oracles.det([list(c) for c in prefix + (x,)]) in (1, -1)
            assert (prefix + (x,) in kept) == unimodular
    for i in range(0, len(monomials), 97):
        mono = monomials[i]
        assert elimination_oracles.det([list(c) for c in mono]) in (1, -1)
        assert list(rows[i].items()) == list(_reference_row(mono, 3).terms.items())


def test_pruned_search_matches_scalar_reference_past_the_cap():
    # the gcd prune fires at every depth of a (2, 3) window; the cap is
    # raised for this test only
    monomials = kernels._search(2, 3).monomials()
    assert monomials == _reference_monomials(2, 3)
    win = kernels.kernel_sample_unitary(2, 3, max_weight_bound=3)
    assert win.monomials == monomials
    assert all(algebra.differential(algebra.dual(b)).is_zero() for b in win.basis)


# The left kernel.  Every pivot of a window is +-1, so the pivot rows are the
# first row basis and a dependent row's combination is unique: the
# Gauss-Jordan pass gives the streaming echelon pass's rank and combinations.

@pytest.mark.parametrize("n,w", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (2, 3)])
def test_left_kernel_matches_the_echelon_oracle(n, w):
    rows = list(kernels._window_rows(kernels._search(n, w)))
    rank, combos = elimination_oracles.left_kernel(rows)
    assert kernels._left_kernel(rows) == (rank, combos)
    win = kernels.kernel_sample_unitary(n, w, max_weight_bound=3)
    assert win.rank == rank
    want = []
    for comb in combos:
        terms = {win.monomials[i]: c for i, c in comb.items()}
        if terms[min(terms)] < 0:
            terms = {m: -c for m, c in terms.items()}
        want.append(ExtPolynomial(n, terms, space=PRIMAL))
    assert win.basis == want


def test_left_kernel_gcd_step():
    # 2 does not divide 3: the pivot becomes gcd 1 and 2*row1 - 3*row0 is left
    assert kernels._left_kernel([[(0, 2)], [(0, 3)]]) == (1, [{0: -3, 1: 2}])
    assert kernels._left_kernel([[(0, 3)], [(0, 2)]]) == (1, [{0: -2, 1: 3}])


def test_left_kernel_clears_where_the_new_pivot_divides():
    # row 1 becomes the pivot 2 at column 1, where row 0 holds -1: no
    # multiple, so row 0 keeps it (clearing by the floor quotient would
    # leave row 0 + row 1 and end at {0: -1, 1: -1, 2: -1, 3: 2}); rows 2
    # and 3 each need the gcd step
    rows = [[(0, 2), (1, -1)], [(1, 2)], [(1, -1)], [(0, 1)]]
    assert kernels._left_kernel(rows) == (2, [{1: 1, 2: 2}, {0: -1, 2: 1, 3: 2}])
    # with 2 in row 0 it is cleared, and row 2 reduces by units alone
    rows = [[(0, 1), (1, 2)], [(1, 2)], [(0, 1)]]
    assert kernels._left_kernel(rows) == (2, [{0: -1, 1: 1, 2: 1}])


@pytest.mark.parametrize("n,w", sorted(WINDOW_STATS) + [(2, 3)])
def test_left_kernel_does_not_depend_on_column_names(n, w):
    # renaming the columns leaves the left kernel as it is, and with unit
    # pivots its basis e_k - c_k is unique: a seeded random bijection of the
    # column ids changes which column each row pivots at, not the answer
    rows = list(kernels._window_rows(kernels._search(n, w)))
    columns = sorted({c for row in rows for c, _ in row})
    names = dict(zip(columns, random.Random(3501 + 10 * n + w).sample(range(10**6), len(columns))))
    renamed = [[(names[c], v) for c, v in row] for row in rows]
    assert kernels._left_kernel(renamed) == kernels._left_kernel(rows)


def test_left_kernel_pivots_at_the_newest_column(monkeypatch):
    # eliminating the columns newest first leaves the earlier pivot rows
    # mostly nothing to clear: 7,888 _addmul calls at (3, 1) when the
    # smallest column id was eliminated first, 5,546 newest first
    rows = list(kernels._window_rows(kernels._search(3, 1)))
    calls = 0
    addmul = kernels._addmul

    def counting(dst, src, factor):
        nonlocal calls
        calls += 1
        addmul(dst, src, factor)

    monkeypatch.setattr(kernels, "_addmul", counting)
    kernels._left_kernel(rows)
    assert calls < 7_888


def _rational_rank(mat):
    rows = [[Fraction(v) for v in r] for r in mat]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        hit = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if hit is None:
            continue
        rows[rank], rows[hit] = rows[hit], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][c] / rows[rank][c]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("left_kernel", [kernels._left_kernel, elimination_oracles.left_kernel],
                         ids=["gauss-jordan", "echelon-oracle"])
def test_left_kernel_is_a_basis_of_the_kernel_lattice(left_kernel):
    # small random matrices reach the gcd step often; the basis must span
    # the integer kernel: N - rank vectors, each with x.A = 0, and the gcd of
    # their maximal minors 1 (no vector of the kernel is a fraction of them)
    rng = random.Random(3101)
    for _ in range(2000):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 4)
        mat = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)]
        rank, basis = left_kernel([[(j, v) for j, v in enumerate(r) if v] for r in mat])
        assert rank == _rational_rank(mat)
        assert len(basis) == nrows - rank
        for x in basis:
            assert all(sum(x.get(i, 0) * mat[i][j] for i in range(nrows)) == 0
                       for j in range(ncols))
        dense = [[x.get(i, 0) for i in range(nrows)] for x in basis]
        minors = (elimination_oracles.det([[r[c] for c in cols] for r in dense])
                  for cols in itertools.combinations(range(nrows), len(basis)))
        assert math.gcd(*minors) == 1


# sha256 of repr((kept, list(cofactors.items()))) as the window search left
# them before it moved into ``algebra.basis_search``: the shared search keeps
# the same monomials, determinants and cofactors, in the same order
WINDOW_SEARCH_DIGESTS = {
    (1, 1): "7dbff9cb2348a72e", (1, 2): "2f4a42b1fc727d16",
    (2, 1): "72cc539b48654d08", (2, 2): "295883bb38e6026d",
    (3, 1): "4472ca3e44053e58", (3, 2): "99e630fcf62348a5",
    (2, 3): "31d8224247011f5b",
}


@pytest.mark.parametrize("n,w", sorted(WINDOW_SEARCH_DIGESTS))
def test_window_search_is_unchanged(n, w):
    window = kernels._search(n, w)
    text = repr((window.kept, list(window.cofactors.items())))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == WINDOW_SEARCH_DIGESTS[n, w]


def test_search_prunes_prefixes_that_cannot_finish_a_basis():
    # without the prune every pair of the 124 characters of the (3, 2) box
    # would get a cofactor vector; a prefix whose minors share a factor is
    # skipped with its subtree
    chars = [c for c in itertools.product(range(-2, 3), repeat=3) if any(c)]
    window = kernels._search(3, 2)
    assert len(window.cofactors) < math.comb(len(chars), 2) == 7_626
    for prefix, v in window.cofactors.items():
        assert math.gcd(*v) == 1
        assert len(prefix) == 2 and all(math.gcd(*chars[i]) == 1 for i in prefix)
    # every kept monomial carries its determinant
    for ids, d in window.kept[::53]:
        assert d == elimination_oracles.det([chars[i] for i in ids]) in (1, -1)


def test_window_records_and_reprs():
    win = kernels.kernel_sample_unitary(2, 1)
    assert repr(win) == "WindowKernel(n=2, weight_bound=1, dim=13, rank=7)"
    assert (win.n, win.weight_bound, win.dim, win.rank) == (2, 1, 13, 7)
    assert len(win.monomials) == 20 and len(win.basis) == 13
    space = kernels.kernel_space(3)
    assert repr(space) == "KernelSpace(n=3, dim=13)"
    assert space.contains(space.basis[0])
