import random

import pytest

from qnspace.hopf import (antipode, apply_pair_tensor, aq_tensor,
                          check_hopf_coordinate_algebra,
                          check_hopf_operator_algebra, check_module_algebra,
                          coproduct, counit, dq_tensor, tau,
                          tensor1_to_element, tensor_from_json, tensor_text,
                          tensor_to_json)
from qnspace.operators import Operator
from qnspace.qspace import Element, monomials_up_to, random_element
from qnspace.scalar import LaurentScalar


def x(n, i):
    return Element.generator(n, i)


def test_coproduct_of_x1_powers_is_grouplike():
    n = 2
    for k in (-1, 1, 3, -2):
        f = Element.monomial(n, (k, 0))
        assert coproduct(f) == aq_tensor(n, 2, {((k, 0), (k, 0)): 1})


def test_coproduct_of_unit():
    assert coproduct(Element.one(3)) == aq_tensor(3, 2, {((0, 0, 0), (0, 0, 0)): 1})


def test_coproduct_of_x2_squared():
    # (x2 (x) x1 + x1 (x) x2)^2 expands to a three-term q-binomial sum.
    n = 2
    t = coproduct(x(n, 2) * x(n, 2))
    expected = aq_tensor(n, 2, {
        ((0, 2), (2, 0)): 1,
        ((1, 1), (1, 1)): LaurentScalar.q_power(-1, 2),
        ((2, 0), (0, 2)): 1,
    })
    assert t == expected


def test_counit_values():
    n = 2
    assert counit(x(n, 1) ** 3) == LaurentScalar.one()
    assert counit(x(n, 2)) == LaurentScalar.zero()
    assert counit(Element.x1_inverse(n) + (x(n, 2) * x(n, 2)).scale(2)) == LaurentScalar.one()


def test_antipode_values():
    n = 2
    # S(x1^k) = x1^-k
    for k in (-2, 1, 4):
        assert antipode(Element.monomial(n, (k, 0))) == Element.monomial(n, (-k, 0))
    # S(x2) = -x1^-1 x2 x1^-1 = -q x1^-2 x2 in canonical form
    assert antipode(x(n, 2)) == Element.monomial(n, (-2, 1), LaurentScalar.q_power(1, -1))
    assert antipode(Element.one(n)) == Element.one(n)


def test_antipode_law_on_x2():
    # m(S x id)D(x2) = S(x2) x1 + S(x1) x2 must cancel exactly
    n = 2
    f = x(n, 2)
    total = Element.zero(n)
    for (a, b), c in coproduct(f).terms.items():
        total = total + (antipode(Element.monomial(n, a)) * Element.monomial(n, b)).scale(c)
    assert not total
    assert counit(f) == LaurentScalar.zero()


def test_cocommutativity():
    rng = random.Random(0)
    for _ in range(50):
        n = rng.randint(1, 3)
        f = random_element(rng, n, 2, -2, 3, 3)
        t = coproduct(f)
        assert tau(t) == t


def test_antipode_squared_is_identity():
    rng = random.Random(1)
    for _ in range(50):
        n = rng.randint(1, 3)
        f = random_element(rng, n, 2, -2, 3, 3)
        assert antipode(antipode(f)) == f


def test_coalgebra_antihomomorphism_on_x2():
    # tau (S x S) D(x2) must equal D(S(x2)); antipodes of monomials are
    # single monomials, so the tensor on the right can be built directly.
    n = 2
    f = x(n, 2)
    lhs = coproduct(antipode(f))
    rhs = aq_tensor(n, 2)
    for (a, b), c in coproduct(f).terms.items():
        (ka, ca), = antipode(Element.monomial(n, a)).terms.items()
        (kb, cb), = antipode(Element.monomial(n, b)).terms.items()
        rhs = rhs + aq_tensor(n, 2, {(ka, kb): c * ca * cb})
    assert lhs == tau(rhs)


def test_coproduct_is_algebra_homomorphism():
    rng = random.Random(2)
    for _ in range(60):
        n = rng.randint(1, 3)
        f = random_element(rng, n, 2, -2, 3, 3)
        g = random_element(rng, n, 2, -2, 3, 3)
        assert coproduct(f * g) == coproduct(f) * coproduct(g)


def test_full_coordinate_checker():
    monomials = [a for a in monomials_up_to(3, 3)]
    report = check_hopf_coordinate_algebra(3, monomials, pair_samples=80, seed=3)
    assert report.ok, report.render_text()


# ---------------------------------------------------------------------------
# Operator algebra side

def test_operator_coproduct_generators():
    n = 2
    s1 = Operator.sigma_gen(n, 1)
    t = coproduct(s1)
    key = ((1, 0), (0, 0))
    assert t == dq_tensor(n, 2, {(key, key): 1})
    d1 = Operator.partial(n, 1)
    t = coproduct(d1)
    z = (0, 0)
    assert t == dq_tensor(n, 2, {((z, (1, 0)), (z, z)): 1, (((1, 0), z), (z, (1, 0))): 1})


def test_operator_antipode_generators():
    n = 2
    assert antipode(Operator.sigma_gen(n, 1)) == Operator.sigma_gen(n, 1, -1)
    assert antipode(Operator.partial(n, 2)) == Operator.word(n, (0, -1), (0, 1), -1)


def test_operator_coproduct_of_word():
    # D(d1 d2) = d1d2 x 1 + q s2d1 x d2 + s1d2 x d1 + s1s2 x d1d2
    n = 2
    z = (0, 0)
    t = coproduct(Operator.partial(n, 1) * Operator.partial(n, 2))
    expected = dq_tensor(n, 2, {
        ((z, (1, 1)), (z, z)): 1,
        (((0, 1), (1, 0)), (z, (0, 1))): LaurentScalar.q_power(1),
        (((1, 0), (0, 1)), (z, (1, 0))): 1,
        (((1, 1), z), (z, (1, 1))): 1,
    })
    assert t == expected


def test_operator_antipode_law_on_partials():
    # m(S x id)D(d_i) = -s_i^-1 d_i + s_i^-1 d_i = 0
    n = 3
    for i in (1, 2, 3):
        d_i = Operator.partial(n, i)
        total = Operator.zero(n)
        for (k1, k2), c in coproduct(d_i).terms.items():
            total = total + (antipode(Operator(n, {k1: 1})) * Operator(n, {k2: 1})).scale(c)
        assert not total
        assert counit(d_i) == LaurentScalar.zero()


def test_operator_counit():
    n = 2
    assert counit(Operator.sigma_gen(n, 1) * Operator.sigma_gen(n, 2)) == LaurentScalar.one()
    assert counit(Operator.sigma_word(n, (-2, 5))) == LaurentScalar.one()
    assert counit(Operator.partial(n, 1)) == LaurentScalar.zero()


def test_non_cocommutativity_witness():
    n = 3
    for i in (1, 2, 3):
        t = coproduct(Operator.partial(n, i))
        assert tau(t) != t


def test_full_operator_checker():
    report = check_hopf_operator_algebra(3, word_degree=2, seed=4)
    assert report.ok, report.render_text()


def test_module_algebra_examples():
    n = 2
    f, g = x(n, 1), x(n, 2)
    d2 = Operator.partial(n, 2)
    lhs = apply_pair_tensor(coproduct(d2), f, g)
    assert lhs == d2.apply(f * g) == x(n, 1).scale(LaurentScalar.q_power(1))
    # f = 1 reduces to d_i(g) on both sides
    one = Element.one(n)
    assert apply_pair_tensor(coproduct(d2), one, g) == d2.apply(g)


def test_module_algebra_checker():
    report = check_module_algebra(3, samples=60, seed=5)
    assert report.ok, report.render_text()


def test_tensor_text_and_json():
    n = 2
    t = coproduct(x(n, 2))
    assert tensor_text(t, "aq") == "x2 (x) x1 + x1 (x) x2"
    data = tensor_to_json(t, "aq", n)
    assert tensor_from_json(data) == t
    t = coproduct(Operator.partial(n, 2))
    assert tensor_text(t, "dq") == "d2 (x) 1 + s2 (x) d2"
    data = tensor_to_json(t, "dq", n)
    assert tensor_from_json(data) == t


def test_failing_tensor_identity_keeps_its_witness():
    from qnspace.report import CheckReport

    t = coproduct(x(2, 2))
    report = CheckReport("tensor-witness")
    assert not report.new("t = -t").record("x2", t, -t)
    text = report.render_text()
    assert "FAIL t = -t (checks=1 failures=1)" in text
    assert f"lhs:    {t!r}" in text and f"rhs:    {-t!r}" in text


def test_counit_law_via_contraction():
    from qnspace.hopf import _counit_key_aq

    rng = random.Random(6)
    for _ in range(40):
        n = rng.randint(1, 3)
        f = random_element(rng, n, 2, -2, 3, 3)
        t = coproduct(f)
        assert tensor1_to_element(t.contract_slot(0, _counit_key_aq), n) == f
        assert tensor1_to_element(t.contract_slot(1, _counit_key_aq), n) == f
