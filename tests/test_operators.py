import random
from math import factorial

import pytest

from qnspace.bicharacter import basis_vector, commutation_exponent, commutation_factor
from qnspace.operators import (Operator, check_derivations, check_operator_algebra,
                               derive, letters_to_operator, random_letters,
                               reduce_word, sigma, weyl_relation_check, word_letters,
                               words_up_to)
from qnspace.qspace import Element, monomial_box, random_element, random_exponent
from qnspace.scalar import LaurentScalar


def x(n, i):
    return Element.generator(n, i)


# ---------------------------------------------------------------------------
# Reference action: a word applied one derivative at a time, each d_i a key
# map of its own.  It is the oracle of the closed form in qnspace.operators.

def reference_derive_key(i, e_i, alpha):
    a_i = alpha[i - 1]
    if a_i == 0:
        return None
    abar = alpha[: i - 1] + (0,) * (len(alpha) - i + 1)
    return a_i, commutation_exponent(abar, e_i), alpha[: i - 1] + (a_i - 1,) + alpha[i:]


def reference_apply_word(word, f):
    gamma, beta = word
    for i in range(len(beta), 0, -1):
        e_i = basis_vector(f.n, i)
        for _ in range(beta[i - 1]):
            f = f.map_keys(lambda alpha: reference_derive_key(i, e_i, alpha))
        if not f:
            return f
    return f.map_keys(lambda alpha: (1, commutation_exponent(alpha, gamma), alpha))


def test_closed_form_action_matches_reference():
    cases = [(n, 2, 3) for n in (1, 2, 3)] + [(4, 1, 2)]
    for n, box, degree in cases:
        monomials = [Element.monomial(n, alpha) for alpha in monomial_box(n, box)]
        for word in words_up_to(n, degree):
            u = Operator(n, {word: 1})
            for f in monomials:
                assert u.apply(f) == reference_apply_word(word, f), (word, f)


def test_action_with_large_exponents(deadline):
    for exponent in (10**6, 10**12):
        assert not Operator.word(2, (0, 0), (0, exponent)).apply(x(2, 2))
    # d2 kills x1^N before the falling factorial N! of d1^N is formed.
    assert not Operator.word(2, (0, 0), (10**6, 1)).apply(Element.monomial(2, (10**6, 0)))
    f = Element.monomial(1, (-1,))
    assert Operator.word(1, (0,), (1000,)).apply(f) == Element.monomial(1, (-1001,), factorial(1000))


def test_derivative_on_laurent_powers():
    # d1(x1^z) = z x1^(z-1), here z = -2
    assert derive(1, Element.monomial(2, (-2, 0))) == Element.monomial(2, (-3, 0), -2)
    assert derive(1, Element.monomial(2, (5, 0))) == Element.monomial(2, (4, 0), 5)


def test_derivative_twisted_factor():
    # d2(x1 x2) = q x1: the x1 to the left of slot 2 contributes eta(e1, e2) = q.
    assert derive(2, x(2, 1) * x(2, 2)) == x(2, 1).scale(LaurentScalar.q_power(1))


def test_derivative_kills_constants():
    for i in (1, 2, 3):
        assert not derive(i, Element.one(3))


def test_derivative_index_range():
    with pytest.raises(ValueError):
        derive(4, Element.one(3))
    with pytest.raises(ValueError):
        derive(0, Element.one(3))


def test_sigma_examples():
    # sigma_2(x1) = q x1
    assert sigma((0, 1), x(2, 1)) == x(2, 1).scale(LaurentScalar.q_power(1))
    # sigma_0 = id
    rng = random.Random(0)
    f = random_element(rng, 3)
    assert sigma((0, 0, 0), f) == f


def test_sigma_is_homomorphism():
    rng = random.Random(1)
    for _ in range(100):
        n = rng.randint(1, 3)
        b = tuple(rng.randint(-3, 3) for _ in range(n))
        f = random_element(rng, n, 2)
        g = random_element(rng, n, 2)
        assert sigma(b, f * g) == sigma(b, f) * sigma(b, g)


def test_twisted_leibniz():
    rng = random.Random(2)
    for _ in range(150):
        n = rng.randint(1, 3)
        alpha = random_exponent(rng, n, -3, 4, 4)
        f = Element.monomial(n, alpha)
        g = random_element(rng, n)
        for i in range(1, n + 1):
            e_i = basis_vector(n, i)
            assert derive(i, f * g) == derive(i, f) * g + sigma(e_i, f) * derive(i, g)


def test_word_product_examples():
    n = 2
    d1, d2 = Operator.partial(n, 1), Operator.partial(n, 2)
    s1, s2 = Operator.sigma_gen(n, 1), Operator.sigma_gen(n, 2)
    # d2 d1 = q^-1 d1 d2
    assert d2 * d1 == (d1 * d2).scale(LaurentScalar.q_power(-1))
    # s_i s_i^-1 = 1
    assert s1 * Operator.sigma_gen(n, 1, -1) == Operator.one(n)
    # s2 d1 = q^-1 d1 s2, equivalently d1 s2 = q s2 d1
    assert d1 * s2 == (s2 * d1).scale(LaurentScalar.q_power(1))
    assert s2 * d1 == Operator(n, {((0, 1), (1, 0)): 1})


def test_sigma_words_compose_additively():
    n = 3
    a = Operator.sigma_word(n, (1, -2, 0))
    b = Operator.sigma_word(n, (0, 1, 3))
    assert a * b == Operator.sigma_word(n, (1, -1, 3))
    assert a * b == b * a


def test_action_examples():
    n = 2
    d1 = Operator.partial(n, 1)
    assert d1.apply(Element.monomial(n, (2, 0))) == x(n, 1).scale(2)
    assert Operator.one(n).apply(x(n, 2)) == x(n, 2)
    # s1 d2 applied to x2: sigma_1(d2(x2)) = sigma_1(1) = 1
    u = Operator.sigma_gen(n, 1) * Operator.partial(n, 2)
    assert u.apply(x(n, 2)) == Element.one(n)


def test_representation_property():
    rng = random.Random(3)
    for _ in range(150):
        n = rng.randint(1, 3)
        u = letters_to_operator(n, random_letters(rng, n, 3))
        v = letters_to_operator(n, random_letters(rng, n, 3))
        f = random_element(rng, n)
        assert (u * v).apply(f) == u.apply(v.apply(f))


def test_operator_intertwining():
    # sigma_a(d_i(f)) = eta(a, e_i) d_i(sigma_a(f)) as operators
    rng = random.Random(4)
    for _ in range(100):
        n = rng.randint(1, 3)
        a = tuple(rng.randint(-2, 2) for _ in range(n))
        f = random_element(rng, n)
        for i in range(1, n + 1):
            e_i = basis_vector(n, i)
            lhs = sigma(a, derive(i, f))
            rhs = derive(i, sigma(a, f)).scale(commutation_factor(a, e_i))
            assert lhs == rhs


def test_rewriting_confluence():
    rng = random.Random(5)
    for _ in range(150):
        n = rng.randint(1, 3)
        letters = random_letters(rng, n, 6)
        merged = letters_to_operator(n, letters)
        assert reduce_word(n, letters, "left") == merged
        assert reduce_word(n, letters, "right") == merged
        assert reduce_word(n, letters, "random", rng) == merged


def test_word_letters_round_trip():
    n = 3
    gamma, beta = (1, -2, 0), (2, 0, 1)
    letters = word_letters(gamma, beta)
    assert reduce_word(n, letters, "left") == Operator.word(n, gamma, beta)


def test_beta_must_be_nonnegative():
    with pytest.raises(ValueError):
        Operator.word(2, (0, 0), (-1, 0))


def test_weyl_relations():
    report = weyl_relation_check(3, deg_bound=2)
    assert report.ok, report.render_text()


def test_weyl_example_by_hand():
    # (d1 x1)(x1): d1(x1 * x1) = 2 x1 and x1 + x1 d1(x1) = 2 x1
    n = 2
    f = x(n, 1)
    lhs = derive(1, x(n, 1) * f)
    rhs = f + (x(n, 1) * derive(1, f)).scale(commutation_factor((1, 0), (1, 0)))
    assert lhs == rhs == x(n, 1).scale(2)
    # i != j applied to 1: both sides vanish
    assert not derive(1, x(n, 2) * Element.one(n))
    assert not derive(1, x(n, 2))


def test_checker_suites_pass():
    report = check_derivations(3, deg_bound=3, samples=80, seed=6)
    assert report.ok, report.render_text()
    report = check_operator_algebra(3, samples=80, seed=6)
    assert report.ok, report.render_text()


def test_string_and_json_round_trip():
    n = 2
    u = (Operator.sigma_gen(n, 2, -1) * Operator.partial(n, 1)).scale(LaurentScalar.q_power(2)) \
        + Operator.partial(n, 2).scale(-3)
    assert Operator.from_json(u.to_json()) == u
    assert str(u) == "q^2 s2^-1 d1 - 3 d2"


def test_classical_limit_of_sigma():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 3)
        b = tuple(rng.randint(-3, 3) for _ in range(n))
        f = random_element(rng, n)
        assert sigma(b, f).evaluate_coeffs(1) == f.evaluate_coeffs(1)
