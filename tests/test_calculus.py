import random

import pytest

from qnspace.bicharacter import basis_vector, commutation_factor
from qnspace.calculus import (Form, check_bicovariance, check_calculus,
                              delta_left, delta_right, exterior_d, form_key_mul,
                              form_slot_to_form, push_coeff_right, random_form)
from qnspace.hopf import coproduct
from qnspace.operators import sigma
from qnspace.qspace import Element, monomial_box, monomial_key_mul, random_element
from qnspace.scalar import LaurentScalar
from qnspace.tensors import Tensor


def x(n, i):
    return Element.generator(n, i)


def test_push_examples():
    n = 2
    # pushing x_j through dx_i scales by eta(e_j, e_i)
    for i in (1, 2):
        for j in (1, 2):
            assert push_coeff_right(x(n, j), i) \
                == x(n, j).scale(commutation_factor(basis_vector(n, j), basis_vector(n, i)))
    assert push_coeff_right(Element.one(n), 2) == Element.one(n)
    # sigma_2(x1^-1) = q^-1 x1^-1
    assert push_coeff_right(Element.x1_inverse(n), 2) \
        == Element.x1_inverse(n).scale(LaurentScalar.q_power(-1))


def test_bimodule_relation():
    n = 3
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            lhs = x(n, i) * Form.dx(n, j)
            rhs = (Form.dx(n, j) * x(n, i)).scale(
                commutation_factor(basis_vector(n, i), basis_vector(n, j)))
            assert lhs == rhs


def test_wedge_canonicalization():
    n = 2
    dx1, dx2 = Form.dx(n, 1), Form.dx(n, 2)
    # dx2 ^ dx1 = -q^-1 dx1 ^ dx2
    assert dx2 * dx1 == (dx1 * dx2).scale(LaurentScalar.q_power(-1, -1))
    assert not dx1 * dx1
    assert not dx2 * dx2


def test_wedge_with_coefficients():
    # (dx1 x2) ^ (dx2 x1) = q^-1 dx1^dx2 x1 x2
    n = 2
    lhs = (Form.dx(n, 1) * x(n, 2)) * (Form.dx(n, 2) * x(n, 1))
    assert lhs == Form.monomial(n, (1, 2), (x(n, 1) * x(n, 2)).scale(LaurentScalar.q_power(-1)))


def test_d_on_generators():
    n = 3
    for i in range(1, n + 1):
        assert exterior_d(x(n, i)) == Form.dx(n, i)
    assert not exterior_d(Element.one(n))


def test_d_on_product():
    # d(x1 x2) = dx1 x2 + dx2 (q x1)
    n = 2
    d12 = exterior_d(x(n, 1) * x(n, 2))
    assert d12 == Form.dx(n, 1) * x(n, 2) + (Form.dx(n, 2) * x(n, 1)).scale(LaurentScalar.q_power(1))


def test_d_on_laurent_inverse():
    # d(x1^-1) = -dx1 x1^-2
    n = 2
    assert exterior_d(Element.x1_inverse(n)) \
        == Form.monomial(n, (1,), Element.monomial(n, (-2, 0), -1))


def test_d_squared_zero():
    rng = random.Random(0)
    zero2, zero3 = Form.zero(2), Form.zero(3)
    assert exterior_d(exterior_d(x(2, 1) * x(2, 2))) == zero2
    for _ in range(100):
        n = rng.randint(2, 3)
        f = random_element(rng, n, 3)
        assert not exterior_d(exterior_d(f))
    for _ in range(60):
        n = rng.randint(2, 3)
        u = random_form(rng, n, min(2, n))
        assert not exterior_d(exterior_d(u))


def test_first_order_leibniz():
    rng = random.Random(1)
    for _ in range(100):
        n = rng.randint(1, 3)
        f = random_element(rng, n, 2)
        g = random_element(rng, n, 2)
        assert exterior_d(f * g) == exterior_d(f) * g + f * exterior_d(g)
    # unit case
    f = random_element(rng, 3, 2)
    assert exterior_d(f * Element.one(3)) == exterior_d(f)


def test_graded_leibniz_sign_uses_left_degree():
    rng = random.Random(2)
    for _ in range(100):
        n = 3
        deg_u = rng.randint(0, 2)
        indices = tuple(sorted(rng.sample(range(1, n + 1), deg_u)))
        u = Form.monomial(n, indices, random_element(rng, n, 2))
        v = random_form(rng, n, 1)
        sign = -1 if deg_u % 2 else 1
        assert exterior_d(u * v) == exterior_d(u) * v + (u * exterior_d(v)).scale(sign)


def test_form_mul_associative():
    rng = random.Random(3)
    for _ in range(80):
        n = rng.randint(2, 3)
        u = random_form(rng, n, 2)
        v = random_form(rng, n, 1)
        w = random_form(rng, n, 1)
        assert (u * v) * w == u * (v * w)


def test_coaction_on_basis_forms():
    n = 2
    # dR(dx_i) = dx1 (x) x_i + dx_i (x) x1 for i >= 2
    t = delta_right(Form.dx(n, 2))
    expected = Tensor((form_key_mul, monomial_key_mul), {
        (((1,), (0, 0)), (0, 1)): 1,
        (((2,), (0, 0)), (1, 0)): 1,
    })
    assert t == expected
    # dL(dx1) = x1 (x) dx1
    t = delta_left(Form.dx(n, 1))
    assert t == Tensor((monomial_key_mul, form_key_mul), {((1, 0), ((1,), (0, 0))): 1})


def _composed_coaction(n, wedge, alpha, form_slot):
    """The coaction of dx_W x^alpha, |W| <= 1, composed from its definition:
    d on the form_slot leg of D(x_i), times D(x^alpha) with that leg read as
    a degree-0 form."""
    def slots(form, other):
        return (form, other) if form_slot == 0 else (other, form)

    muls = slots(form_key_mul, monomial_key_mul)
    embedded = Tensor(muls, {slots(((), keys[form_slot]), keys[1 - form_slot]): c
                             for keys, c in coproduct(Element.monomial(n, alpha)).terms.items()})
    if not wedge:
        return embedded
    generator = Tensor(muls, [
        (slots(form_key, keys[1 - form_slot]), c * c_d)
        for keys, c in coproduct(x(n, wedge[0])).terms.items()
        for form_key, c_d in exterior_d(Element.monomial(n, keys[form_slot])).terms.items()])
    return generator * embedded


def test_coactions_match_their_composition():
    for n, bound in ((1, 2), (2, 2), (3, 2), (4, 1)):
        for alpha in monomial_box(n, bound):
            for wedge in [()] + [(i,) for i in range(1, n + 1)]:
                u = Form.monomial(n, wedge, Element.monomial(n, alpha))
                for delta, form_slot in ((delta_right, 0), (delta_left, 1)):
                    expected = _composed_coaction(n, wedge, alpha, form_slot)
                    t = delta(u)
                    assert t == expected, (delta.__name__, wedge, alpha)
                    assert t.slot_muls == expected.slot_muls


def test_coaction_counit_leg():
    from qnspace.hopf import _counit_key_aq as _counit_slot

    n = 3
    for i in range(1, n + 1):
        u = Form.dx(n, i)
        t = delta_right(u)
        assert form_slot_to_form(t.contract_slot(1, _counit_slot), n) == u
        t = delta_left(u)
        assert form_slot_to_form(t.contract_slot(0, _counit_slot), n) == u


def test_coaction_relation_preservation():
    n = 2
    i, j = 2, 1
    factor = commutation_factor(basis_vector(n, i), basis_vector(n, j))
    lhs = delta_right(x(n, i) * Form.dx(n, j))
    rhs = (delta_right(Form.dx(n, j)) * delta_right(Form.from_element(x(n, i)))).scale(factor)
    assert lhs == rhs


def test_coaction_degree_restriction():
    n = 2
    two_form = Form.dx(n, 1) * Form.dx(n, 2)
    with pytest.raises(ValueError):
        delta_right(two_form)
    with pytest.raises(ValueError):
        delta_left(two_form)


def test_form_validation():
    with pytest.raises(ValueError):
        Form(2, {(2, 1): Element.one(2)})
    with pytest.raises(ValueError):
        Form(2, {(3,): Element.one(2)})
    with pytest.raises(ValueError):
        Form(2, {(1, 1): Element.one(2)})


def test_form_json_round_trip():
    n = 2
    u = Form.dx(n, 1) * x(n, 2) + Form.from_element(x(n, 1)) \
        + (Form.dx(n, 1) * Form.dx(n, 2)) * Element.x1_inverse(n)
    assert Form.from_json(u.to_json()) == u
    wedges = [term["wedge"] for term in u.to_json()["terms"]]
    assert wedges == sorted(wedges, key=lambda w: (len(w), w))


def test_checker_suites():
    for n in (2, 3):
        report = check_calculus(n, samples=60, seed=4)
        assert report.ok, report.render_text()
        report = check_bicovariance(n, samples=30, seed=4)
        assert report.ok, report.render_text()
