"""Fixtures shared by the test modules."""

from collections import Counter

import pytest

from bordismkit import algebra, intmat


@pytest.fixture
def dual_basis_calls(monkeypatch):
    """Counts the calls of ``intmat.dual_basis``, the basis test of both rings,
    by modulus: ``calls[2]`` over GF(2), ``calls[0]`` over Z.  Both of
    ``algebra``'s process memos, the basis proofs and the faithful GF(2)
    searches, start empty, so a count does not depend on which tests ran
    before."""
    algebra._PROOFS.clear()
    algebra._SEARCHES.clear()
    calls = Counter()

    def counted(mat, modulus=0, _real=intmat.dual_basis):
        calls[modulus] += 1
        return _real(mat, modulus)

    monkeypatch.setattr(intmat, "dual_basis", counted)
    return calls
