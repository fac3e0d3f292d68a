import random
from fractions import Fraction

import pytest

from qnspace.bicharacter import commutation_factor, pairing
from qnspace.calculus import exterior_d
from qnspace.hopf import antipode, coproduct
from qnspace.parsing import parse
from qnspace.qspace import (Element, check_algebra, monomial_box, monomials_up_to,
                            random_element, random_exponent, swap_scalar,
                            total_degree)
from qnspace.scalar import LaurentScalar


def x(n, i):
    return Element.generator(n, i)


def test_generator_merge():
    # x2 x1 = q^-1 x1 x2
    assert x(2, 2) * x(2, 1) == Element.monomial(2, (1, 1), LaurentScalar.q_power(-1))


def test_unit_monomial():
    rng = random.Random(0)
    f = random_element(rng, 3)
    assert Element.one(3) * f == f
    assert f * Element.one(3) == f


def test_square_of_x1x2():
    f = x(2, 1) * x(2, 2)
    assert f * f == Element.monomial(2, (2, 2), LaurentScalar.q_power(-1))


def test_swap_oracle_examples():
    assert swap_scalar((0, 1), (1, 0)) == LaurentScalar.q_power(-1)
    assert swap_scalar((2, 1), (0, 0)) == LaurentScalar.one()
    assert swap_scalar((0, 2), (1, 0)) == LaurentScalar.q_power(-2)


def test_merge_equals_swap_oracle():
    rng = random.Random(11)
    for _ in range(400):
        n = rng.randint(1, 4)
        a = random_exponent(rng, n, -3, 4, 4)
        b = random_exponent(rng, n, -3, 4, 4)
        assert LaurentScalar.q_power(pairing(a, b)) == swap_scalar(a, b), (a, b)


def test_eta_commutativity():
    rng = random.Random(12)
    for _ in range(200):
        n = rng.randint(2, 4)
        a = random_exponent(rng, n, -3, 4, 4)
        b = random_exponent(rng, n, -3, 4, 4)
        fa, fb = Element.monomial(n, a), Element.monomial(n, b)
        assert fa * fb == (fb * fa).scale(commutation_factor(a, b))


def test_associativity_is_cocycle_consequence():
    rng = random.Random(13)
    for _ in range(150):
        n = rng.randint(1, 4)
        f, g, h = (random_element(rng, n, 2) for _ in range(3))
        assert (f * g) * h == f * (g * h)


def test_x1_inverse():
    for n in (1, 2, 3):
        assert Element.generator(n, 1) * Element.x1_inverse(n) == Element.one(n)
        assert Element.x1_inverse(n) * Element.generator(n, 1) == Element.one(n)
    # x1^-1 commutes with powers of x1
    f = Element.monomial(3, (4, 0, 0))
    assert Element.x1_inverse(3) * f == f * Element.x1_inverse(3)


def test_linear_operations():
    n = 2
    f = x(n, 1) + x(n, 2)
    assert f.scale(2) == x(n, 1).scale(2) + x(n, 2).scale(2)
    assert 2 * f == f.scale(2)
    assert f - f == Element.zero(n)
    assert not (f - f)
    assert (-f) + f == Element.zero(n)


def test_exponent_domain_enforced():
    with pytest.raises(ValueError):
        Element.monomial(2, (0, -1))
    with pytest.raises(ValueError):
        Element.monomial(3, (1, 2, -3))
    # x1 may be negative
    Element.monomial(3, (-5, 0, 0))


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        x(2, 1) * x(3, 1)
    with pytest.raises(ValueError):
        x(2, 1) + x(3, 1)


def test_total_degree():
    assert total_degree((2, 1, 0)) == 3
    assert total_degree((-1, 1, 0)) == 0
    assert total_degree((0, 0, 0)) == 0


def test_power_operator():
    n = 2
    assert x(n, 1) ** -3 == Element.monomial(n, (-3, 0))
    assert x(n, 2) ** 2 == Element.monomial(n, (0, 2))
    with pytest.raises(ValueError):
        (x(n, 1) + x(n, 2)) ** -1


def test_classical_limit_commutes():
    rng = random.Random(14)
    for _ in range(100):
        n = rng.randint(1, 3)
        f = random_element(rng, n, 2)
        g = random_element(rng, n, 2)
        assert (f * g).evaluate_coeffs(1) == (g * f).evaluate_coeffs(1)


def test_monomial_enumerators():
    box = monomial_box(2, 1)
    assert set(box) == {(-1, 0), (-1, 1), (0, 0), (0, 1), (1, 0), (1, 1)}
    up = monomials_up_to(2, 1)
    assert set(up) == {(0, 0), (1, 0), (-1, 0), (0, 1)}
    assert all(abs(a[0]) + sum(a[1:]) <= 3 for a in monomials_up_to(3, 3))
    assert all(a[0] >= -1 for a in monomials_up_to(3, 3, x1_min=-1))


def test_random_element_keeps_its_exponent_bounds():
    # The suites draw their samples from these bounds; an element drawn
    # outside them tests other inputs without changing the printed verdict.
    rng = random.Random(8)
    keys = [key for _ in range(200) for key in random_element(rng, 3, 3, -2, 1, 1).terms]
    assert all(-2 <= a1 <= 1 and 0 <= a2 <= 1 and 0 <= a3 <= 1 for a1, a2, a3 in keys)
    assert {key[0] for key in keys} == {-2, -1, 0, 1}


def test_string_and_json_round_trip():
    f = Element(2, {(1, 1): LaurentScalar.q_power(-1), (0, 0): LaurentScalar({0: 2, 1: 1})})
    assert str(f) == "(q + 2) + q^-1 x1 x2"
    assert Element.from_json(f.to_json()) == f
    alphas = [term["alpha"] for term in f.to_json()["terms"]]
    assert alphas == sorted(alphas)


def test_check_algebra_suite():
    report = check_algebra(3, pairs=150, triples=60, seed=3)
    assert report.ok, report.render_text()


def test_check_algebra_without_samples_is_empty_not_pass():
    report = check_algebra(3, pairs=0, triples=0)
    assert not report.ok
    empty = [rep for rep in report.identities if rep.checks == 0]
    assert len(empty) == 3
    assert not any(rep.ok for rep in empty)
    text = report.render_text()
    assert text.startswith("suite algebra(n=3): FAIL")
    assert text.count("  EMPTY ") == 3
    assert not report.to_json()["ok"]


def test_failure_witnesses_are_capped(monkeypatch):
    from qnspace.bicharacter import vector_add
    from qnspace.report import MAX_WITNESSES

    # A faulty merge: the q-exponent of x^a x^b taken as pairing(b, a).
    monkeypatch.setattr(Element, "_merge", staticmethod(lambda a, b: (1, pairing(b, a), vector_add(a, b))))
    report = check_algebra(3, pairs=200, triples=1)
    etacomm = next(rep for rep in report.identities if rep.identity.startswith("mul.eta-commutative"))
    assert etacomm.failed > MAX_WITNESSES
    assert len(etacomm.failures) == MAX_WITNESSES
    assert etacomm.checks == 200 and etacomm.status == "FAIL"
    text = report.render_text()
    assert f"(checks=200 failures={etacomm.failed})" in text
    assert text.count("    inputs: ") == sum(len(rep.failures) for rep in report.identities)
    data = next(d for d in report.to_json()["identities"] if d["identity"] == etacomm.identity)
    assert data["failed"] == etacomm.failed and len(data["failures"]) == MAX_WITNESSES


def test_negative_power_divides_exactly():
    inv = Element.monomial(2, (1, 0), 2) ** -1
    (alpha, coeff), = inv.terms.items()
    assert alpha == (-1, 0)
    assert coeff.terms == {0: Fraction(1, 2)}
    assert type(coeff.terms[0]) is Fraction
    assert str(parse("2^-2 x1", "algebra", 2)) == "1/4 x1"


def _coefficients(value):
    for scalar in value.terms.values():
        yield from scalar.terms.values()


def test_no_float_coefficients_after_kernel_maps():
    rng = random.Random(43)
    for _ in range(20):
        f = random_element(rng, 3, 3, -2, 2, 2)
        g = random_element(rng, 3, 3, -2, 2, 2)
        for value in (f * g, coproduct(f), antipode(f), exterior_d(f),
                      exterior_d(f) * exterior_d(g), f ** 2):
            assert all(type(c) in (int, Fraction) for c in _coefficients(value)), value
