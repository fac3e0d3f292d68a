import random
from fractions import Fraction

import pytest

from qnspace.scalar import LaurentScalar, parse_rational, random_scalar


def test_additive_identity():
    q2 = LaurentScalar.q_power(2)
    assert q2 + LaurentScalar.zero() == q2


def test_additive_inverse():
    q = LaurentScalar.q_power(1)
    assert q + (-q) == LaurentScalar.zero()
    assert not (q - q)


def test_sum_merges_coefficients():
    # (q + 1) + (q^-1 - 1) = q + q^-1
    a = LaurentScalar({1: 1, 0: 1})
    b = LaurentScalar({-1: 1, 0: -1})
    assert a + b == LaurentScalar({1: 1, -1: 1})


def test_inverse_monomials_multiply_to_one():
    assert LaurentScalar.q_power(2) * LaurentScalar.q_power(-2) == LaurentScalar.one()


@pytest.mark.parametrize("a,b", [(0, 0), (3, -5), (-2, 7), (1, 1)])
def test_monomial_exponents_add(a, b):
    assert LaurentScalar.q_power(a) * LaurentScalar.q_power(b) == LaurentScalar.q_power(a + b)


def test_difference_of_squares():
    # (q - 1)(q + 1) = q^2 - 1
    assert LaurentScalar({1: 1, 0: -1}) * LaurentScalar({1: 1, 0: 1}) == LaurentScalar({2: 1, 0: -1})


def test_evaluate_examples():
    assert LaurentScalar.q_power(3).evaluate(1) == 1
    assert LaurentScalar({-1: 1, 1: 1}).evaluate(2) == Fraction(5, 2)
    assert LaurentScalar.zero().evaluate(7) == 0


def test_evaluate_rejects_zero():
    with pytest.raises(ValueError):
        LaurentScalar.q_power(1).evaluate(0)


def test_ring_axioms_on_random_triples():
    rng = random.Random(101)
    for _ in range(300):
        a = random_scalar(rng, nonzero=False)
        b = random_scalar(rng, nonzero=False)
        c = random_scalar(rng, nonzero=False)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_evaluate_is_ring_homomorphism():
    rng = random.Random(102)
    for _ in range(200):
        a = random_scalar(rng, nonzero=False)
        b = random_scalar(rng, nonzero=False)
        v = Fraction(rng.randint(1, 5), rng.randint(1, 3)) * rng.choice((1, -1))
        assert (a * b).evaluate(v) == a.evaluate(v) * b.evaluate(v)
        assert (a + b).evaluate(v) == a.evaluate(v) + b.evaluate(v)


def test_zero_pruning():
    assert LaurentScalar({3: 0, 0: 1}).terms == {0: Fraction(1)}
    assert not LaurentScalar({2: 1, 2: -1} if False else {2: 0})


def test_string_descending_exponents():
    s = LaurentScalar({2: 2, -1: -1, 0: Fraction(1, 2)})
    assert str(s) == "2q^2 + 1/2 - q^-1"
    assert str(LaurentScalar.zero()) == "0"
    assert str(LaurentScalar.one()) == "1"
    assert str(-LaurentScalar.q_power(1)) == "-q"


def test_json_round_trip():
    s = LaurentScalar({2: 2, -1: Fraction(-1, 3), 0: Fraction(1, 2)})
    data = s.to_json()
    exponents = [k for k, _ in data["coeff"]]
    assert exponents == sorted(exponents)
    assert LaurentScalar.from_json(data) == s


def test_parse_rational():
    assert parse_rational("-2/5") == Fraction(-2, 5)
    assert parse_rational("7") == Fraction(7)


def test_zero_denominator_is_a_value_error():
    with pytest.raises(ValueError, match="zero denominator"):
        parse_rational("1/0")
    with pytest.raises(ValueError, match="zero denominator"):
        LaurentScalar.from_json({"coeff": [[0, "1/0"]]})


def test_shift_is_product_by_monomial():
    rng = random.Random(31)
    for _ in range(200):
        s = random_scalar(rng, exp_bound=4, nonzero=False)
        k = rng.randint(-6, 6)
        for c in (1, -1, 3, -3):
            assert s.shift(c, k) == s * LaurentScalar.q_power(k, c)


def _as_fractions(s):
    return LaurentScalar({k: Fraction(c) for k, c in s.terms.items()})


def test_int_and_fraction_coefficients_agree():
    rng = random.Random(41)
    for _ in range(200):
        s = random_scalar(rng, nonzero=False)
        f = _as_fractions(s)
        assert s == f and f == s
        assert str(s) == str(f)
        assert s.to_json() == f.to_json()
        v = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        assert s.evaluate(v) == f.evaluate(v)
        assert s.evaluate(2) == f.evaluate(2)


def test_integral_coefficients_are_stored_as_int():
    assert LaurentScalar({0: True}).terms == {0: 1}
    assert type(LaurentScalar({0: True}).terms[0]) is int
    assert type(LaurentScalar({1: Fraction(6, 3)}).terms[1]) is int
    assert type(LaurentScalar({1: Fraction(1, 3)}).terms[1]) is Fraction
    rng = random.Random(42)
    for _ in range(200):
        s = random_scalar(rng, nonzero=False)
        assert all(type(c) is int or c.denominator != 1 for c in s.terms.values())


def test_coefficient_type_is_checked():
    for bad in (0.5, "1", None):
        with pytest.raises(TypeError):
            LaurentScalar({0: bad})
