"""Exact integer matrix helpers, checked against the adjugate oracle."""

import random

import elimination_oracles

from bordismkit import intmat


def test_dual_basis_matches_adjugate_oracle():
    rng = random.Random(2024)
    unimodular = rejected = 0
    for _ in range(3000):
        n = rng.randint(1, 5)
        mat = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        got = intmat.dual_basis(mat)
        if elimination_oracles.det(mat) in (1, -1):
            unimodular += 1
            rows, sign = got
            assert rows == elimination_oracles.inverse_transpose_unimodular(mat), mat
            # the elimination's last pivot, corrected by its row swaps
            assert sign == (1 if elimination_oracles.det(mat) > 0 else -1), mat
        else:  # singular or |det| > 1
            rejected += 1
            assert got is None, mat
    assert unimodular > 100 and rejected > 1000


def test_dual_basis_pairs_rows_to_the_identity():
    rng = random.Random(5)
    seen = 0
    for _ in range(500):
        n = rng.randint(1, 6)
        mat = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        found = intmat.dual_basis(mat)
        if found is None:
            continue
        seen += 1
        for i, row in enumerate(mat):
            for j, star in enumerate(found[0]):
                assert sum(a * b for a, b in zip(row, star)) == (i == j)
    assert seen > 20


def test_dual_basis_rejects_non_square_matrices():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 5)
        rows = rng.choice([k for k in range(1, n + 3) if k != n])
        mat = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rows)]
        assert intmat.dual_basis(mat) is None, mat
    assert intmat.dual_basis([[1, 0, 0], [0, 1, 0]]) is None
    assert intmat.dual_basis([[1, 0], [0, 1], [1, 1]]) is None
    assert intmat.dual_basis([[1, 0], [0]]) is None
    assert intmat.dual_basis([]) == ([], 1)  # the 0×0 matrix is its own dual
