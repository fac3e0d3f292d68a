import random

import pytest

from qnspace.bicharacter import (basis_vector, check_bicharacter_axioms,
                                 check_cocycle, check_pairing_identities,
                                 commutation_factor, pairing, random_tuple,
                                 vector_add)
from qnspace.scalar import LaurentScalar


def test_pairing_basis_examples():
    # n = 2: the only contributing index pair is i=2, j=1.
    assert pairing(basis_vector(2, 2), basis_vector(2, 1)) == -1
    assert pairing(basis_vector(2, 1), basis_vector(2, 2)) == 0
    assert pairing((3, -1, 2), (0, 0, 0)) == 0
    assert pairing((0, 0, 0), (3, -1, 2)) == 0


def test_factor_on_basis_vectors():
    for n in (1, 2, 3, 4):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert commutation_factor(basis_vector(n, i), basis_vector(n, j)) \
                    == LaurentScalar.q_power(j - i)


def test_factor_examples():
    assert commutation_factor((1, 1), (0, 2)) == LaurentScalar.q_power(2)
    assert commutation_factor((1, 1), (1, 1)) == LaurentScalar.one()
    assert commutation_factor((2, -1, 3), (2, -1, 3)) == LaurentScalar.one()


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        pairing((1, 2), (1, 2, 3))
    with pytest.raises(ValueError):
        commutation_factor((1,), (1, 0))


def test_cocycle_on_basis_triple():
    n = 3
    a, b, c = basis_vector(n, 1), basis_vector(n, 2), basis_vector(n, 3)
    lhs = commutation_factor(a, b) * commutation_factor(vector_add(a, b), c)
    rhs = commutation_factor(b, c) * commutation_factor(a, vector_add(b, c))
    assert lhs == rhs == LaurentScalar.q_power(4)


def test_cocycle_at_zero():
    zero = (0, 0, 0)
    lhs = commutation_factor(zero, zero) * commutation_factor(zero, zero)
    assert lhs == LaurentScalar.one()


def test_pairing_closed_forms():
    beta = (3, 1, 2)
    e = lambda i: basis_vector(3, i)
    assert pairing(e(1), beta) == 0           # empty sum s < 1
    assert pairing(beta, e(3)) == 0           # empty sum s > 3
    step12 = tuple(a - b for a, b in zip(e(1), e(2)))
    assert pairing(step12, beta) == 3         # sum_{s<=1} beta_s


def test_pairing_bi_additive_random():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 4)
        a, b, c = (random_tuple(rng, n, 6) for _ in range(3))
        assert pairing(vector_add(a, b), c) == pairing(a, c) + pairing(b, c)
        assert pairing(a, vector_add(b, c)) == pairing(a, b) + pairing(a, c)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_axiom_checkers_pass(n):
    report = check_bicharacter_axioms(n, trials=200, seed=1)
    assert report.ok, report.render_text()
    report = check_cocycle(n, trials=200, seed=1)
    assert report.ok, report.render_text()
    report = check_pairing_identities(n, trials=100, seed=1)
    assert report.ok, report.render_text()


def test_checker_reports_witnesses():
    report = check_bicharacter_axioms(2, trials=5, seed=0)
    as_json = report.to_json()
    assert as_json["ok"]
    assert all(not ident["failures"] for ident in as_json["identities"])
    assert {"identity", "passes", "failures"} <= set(as_json["identities"][0])


def test_trials_precondition():
    with pytest.raises(ValueError):
        check_bicharacter_axioms(2, trials=0)
    with pytest.raises(ValueError):
        check_cocycle(2, trials=0)
