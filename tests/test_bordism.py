"""Bordism classes: products, swaps, reductions, and the surjectivity probe."""

import random

import elimination_oracles
import pytest

from bordismkit import algebra, kernels
from bordismkit.algebra import ExtPolynomial, Gf2Polynomial
from bordismkit.bordism import (BordismClass, ProbeEntry, UNITARY, UNORIENTED,
                                add, multiply, reduce, surjectivity_probe,
                                swap_conjugate)
from bordismkit.errors import ResourceLimitError, ValidationError
from bordismkit.graphs import torus_graph_from_pair, torus_polynomial
from bordismkit.polytopes import product_of_simplices, standard_z_coloring

RP2 = Gf2Polynomial(2, [((0, 1), (1, 0)), ((0, 1), (1, 1)), ((1, 0), (1, 1))])


def torus_class(factors):
    p = product_of_simplices(factors)
    g = torus_graph_from_pair(p, standard_z_coloring(factors))
    return BordismClass(UNITARY, torus_polynomial(g))


def random_unitary_class(window, rng):
    poly = ExtPolynomial(window.n, {})
    for b in window.basis:
        if rng.random() < min(1.0, 3.0 / len(window.basis)):
            poly = poly + b.scale(rng.choice((-2, -1, 1, 2)))
    return BordismClass(UNITARY, poly)


def random_unoriented_class(space, rng):
    poly = Gf2Polynomial(space.n)
    for b in space.basis:
        if rng.random() < 0.5:
            poly = poly + b
    return BordismClass(UNORIENTED, poly)


# -- construction -------------------------------------------------------------


def test_class_requires_membership():
    with pytest.raises(ValidationError):
        BordismClass(UNORIENTED, Gf2Polynomial(2, [((0, 1), (1, 0))]))


def test_class_flavor_polynomial_type_must_match():
    with pytest.raises(ValidationError):
        BordismClass(UNITARY, RP2)
    with pytest.raises(ValidationError):
        BordismClass(UNORIENTED, ExtPolynomial(2))


def test_zero_classes():
    z = BordismClass.zero(UNITARY, 3)
    assert z.is_zero() and z.n == 3
    assert BordismClass.zero(UNORIENTED, 2).is_zero()


def test_unknown_flavor():
    with pytest.raises(ValidationError):
        BordismClass("oriented", RP2)
    # the zero class names the flavor before reading its polynomial type
    with pytest.raises(ValidationError, match="^unknown flavor 'bogus'$"):
        BordismClass.zero("bogus", 2)


# -- ring structure ------------------------------------------------------------


def test_add_is_gf2_sum():
    a = BordismClass(UNORIENTED, RP2)
    assert add(a, a).is_zero()


def test_add_flavor_and_rank_guards():
    with pytest.raises(ValidationError):
        add(BordismClass(UNORIENTED, RP2), torus_class((2,)))
    with pytest.raises(ValidationError):
        add(torus_class((1,)), torus_class((2,)))


def test_multiply_reproduces_product_manifold():
    # CP^1 x CP^1 assembled from two CP^1 factors matches the torus
    # polynomial computed from the product polytope directly
    assert multiply(torus_class((1,)), torus_class((1,))) == torus_class((1, 1))


def test_multiply_blocks():
    prod = multiply(torus_class((1,)), torus_class((2,)))
    assert prod.n == 3
    assert prod.flavor == UNITARY
    assert algebra.in_image_unitary(prod.polynomial)


def test_swap_conjugate_involution():
    rng = random.Random(67)
    win1 = kernels.kernel_sample_unitary(1, 2)
    win2 = kernels.kernel_sample_unitary(2, 1)
    for _ in range(50):
        x = multiply(random_unitary_class(win1, rng),
                     random_unitary_class(win2, rng))
        assert swap_conjugate(swap_conjugate(x, 1), 2) == x


def test_swap_relation_on_products():
    rng = random.Random(71)
    win1 = kernels.kernel_sample_unitary(1, 2)
    win2 = kernels.kernel_sample_unitary(2, 1)
    for _ in range(50):
        a = random_unitary_class(win1, rng)
        b = random_unitary_class(win2, rng)
        assert multiply(a, b) == swap_conjugate(multiply(b, a), b.n)


def test_symmetric_product_is_swap_fixed():
    # the block swap of CP^1 x CP^1 has determinant -1; the coefficient
    # twist is exactly what keeps the symmetric class fixed
    p1p1 = torus_class((1, 1))
    assert swap_conjugate(p1p1, 1) == p1p1


def test_swap_trivial_splits():
    x = torus_class((2,))
    assert swap_conjugate(x, 0) == x
    assert swap_conjugate(x, 2) == x
    with pytest.raises(ValidationError):
        swap_conjugate(x, 3)


def test_noncommutative_witness():
    a, b = torus_class((1,)), torus_class((2,))
    assert multiply(a, b) != multiply(b, a)
    assert multiply(a, b) == swap_conjugate(multiply(b, a), 2)


def test_swap_gf2_has_no_sign():
    rng = random.Random(73)
    space2 = kernels.kernel_space(2)
    space3 = kernels.kernel_space(3)
    for _ in range(50):
        a = random_unoriented_class(space2, rng)
        b = random_unoriented_class(space3, rng)
        assert multiply(a, b) == swap_conjugate(multiply(b, a), b.n)


# -- reduction -------------------------------------------------------------------


def test_reduce_cp2_is_rp2():
    assert reduce(torus_class((2,))) == BordismClass(UNORIENTED, RP2)


def test_reduce_cp1_bounds():
    assert reduce(torus_class((1,))).is_zero()


def test_reduce_needs_unitary_input():
    with pytest.raises(ValidationError):
        reduce(BordismClass(UNORIENTED, RP2))


def test_reduce_is_ring_homomorphism():
    rng = random.Random(79)
    win1 = kernels.kernel_sample_unitary(1, 2)
    win2 = kernels.kernel_sample_unitary(2, 1)
    for _ in range(50):
        a = random_unitary_class(win2, rng)
        b = random_unitary_class(win2, rng)
        c = random_unitary_class(win1, rng)
        assert reduce(add(a, b)) == add(reduce(a), reduce(b))
        assert reduce(multiply(a, c)) == multiply(reduce(a), reduce(c))


# -- surjectivity probe ------------------------------------------------------------


def test_probe_covers_rank_two_kernel():
    report = surjectivity_probe(2, weight_bound=1)
    assert report.kernel_dim == 1
    assert report.full_coverage
    assert report.hits == 1
    (entry,) = report.entries
    assert entry.hit
    assert algebra.mod2_reduce(entry.witness) == kernels.kernel_space(2).basis[0]


def test_probe_records_a_miss_without_a_witness():
    # the weight-0 window is empty, so the one rank-2 target is missed
    report = surjectivity_probe(2, 0)
    assert (report.kernel_dim, report.window_dim) == (1, 0)
    assert report.entries == (ProbeEntry(0, False, None),)
    assert report.hits == 0
    assert not report.full_coverage


def test_probe_witnesses_reduce_to_targets():
    report = surjectivity_probe(3, weight_bound=1)
    targets = kernels.kernel_space(3).basis
    for entry, target in zip(report.entries, targets):
        if entry.hit:
            assert algebra.mod2_reduce(entry.witness) == target
            assert algebra.in_image_unitary(entry.witness)
    assert report.full_coverage  # weight bound 1 already suffices at rank 3


def test_probe_respects_caps():
    with pytest.raises(ResourceLimitError, match="max_n=4"):
        surjectivity_probe(4)


def test_probe_names_only_what_it_accepts():
    # its weight cap is fixed, so the refusal offers no max_weight_bound
    with pytest.raises(ResourceLimitError) as err:
        surjectivity_probe(2, 3)
    assert str(err.value) == (
        "window (n=2, weight_bound=3) exceeds the cap weight_bound <= 2 (fixed for "
        "the probe); it would scan C(48, 2) candidate monomials")


def test_probe_meets_the_kernel_cap_before_building_a_window(monkeypatch):
    # a raised window cap must not start a rank-5 window the kernel cap refuses
    monkeypatch.delenv("BORDISMKIT_MAX_N", raising=False)
    with pytest.raises(ResourceLimitError, match="BORDISMKIT_MAX_N=5"):
        surjectivity_probe(5, max_n=5)


@pytest.mark.parametrize("n", [2, 3])
def test_probe_witnesses_match_the_inline_elimination(n):
    report = surjectivity_probe(n, weight_bound=1)
    want = elimination_oracles.probe_witnesses(n, 1)
    assert [(e.index, e.witness) for e in report.entries] == want
    assert all(e.hit == (w is not None) for e, (_, w) in zip(report.entries, want))
