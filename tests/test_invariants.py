import random

import pytest

from qnspace.calculus import Form, exterior_d
from qnspace.hopf import coproduct, counit
from qnspace.invariants import (apply_vector_field, check_maurer_cartan,
                                check_vector_fields, decompose_maurer_cartan,
                                degree_scale, maurer_cartan,
                                maurer_cartan_basis, vf_antipode_action,
                                vf_coproduct_action)
from qnspace.operators import derive
from qnspace.qspace import Element, monomial_box, random_element, total_degree
from qnspace.scalar import LaurentScalar


def x(n, i):
    return Element.generator(n, i)


def test_mc_of_x1():
    for n in (1, 2, 3):
        assert maurer_cartan(x(n, 1)) == Form.monomial(n, (1,), Element.x1_inverse(n))


def test_mc_of_higher_generators_matches_display():
    # w_i = dx_i x1^-1 - dx1 x1^-1 x_i x1^-1, canonicalized
    for n in (2, 3):
        x1inv = Element.x1_inverse(n)
        for i in range(2, n + 1):
            expected = Form.dx(n, i) * x1inv - Form.dx(n, 1) * (x1inv * x(n, i) * x1inv)
            assert maurer_cartan_basis(n, i) == expected
    # and the fully expanded n=2 case: w2 = dx2 x1^-1 - q dx1 x1^-2 x2
    w2 = maurer_cartan_basis(2, 2)
    expected = Form.monomial(2, (2,), Element.x1_inverse(2)) \
        + Form.monomial(2, (1,), Element.monomial(2, (-2, 1), LaurentScalar.q_power(1, -1)))
    assert w2 == expected


def test_mc_of_unit_vanishes():
    assert not maurer_cartan(Element.one(3))


def test_mc_basis_equals_mc_of_generator():
    for n in (2, 3):
        for i in range(1, n + 1):
            assert maurer_cartan_basis(n, i) == maurer_cartan(x(n, i))


def test_omega_wedge_relations():
    for n in (2, 3):
        for i in range(1, n + 1):
            w_i = maurer_cartan_basis(n, i)
            assert not w_i * w_i
            for j in range(1, n + 1):
                if i != j:
                    w_j = maurer_cartan_basis(n, j)
                    assert w_i * w_j == -(w_j * w_i)


def test_omega_coordinate_relations():
    # x_i w_1 = w_1 x_i; x_i w_j = q^(j-1) w_j x_i
    for n in (2, 3):
        w1 = maurer_cartan_basis(n, 1)
        for i in range(1, n + 1):
            assert x(n, i) * w1 == w1 * x(n, i)
            for j in range(2, n + 1):
                w_j = maurer_cartan_basis(n, j)
                assert x(n, i) * w_j == (w_j * x(n, i)).scale(LaurentScalar.q_power(j - 1))


def test_omega_grading_relation():
    # x^a w_i = q^((i-1) deg a) w_i x^a, signed degree (works for x1^-1 too)
    rng = random.Random(0)
    for _ in range(60):
        n = rng.randint(2, 3)
        alpha = tuple([rng.randint(-3, 3)] + [rng.randint(0, 3) for _ in range(n - 1)])
        f = Element.monomial(n, alpha)
        deg = total_degree(alpha)
        for i in range(1, n + 1):
            w_i = maurer_cartan_basis(n, i)
            assert f * w_i == (w_i * f).scale(LaurentScalar.q_power((i - 1) * deg))


def test_dx_recovered_from_omega():
    # dx1 = w_1 x1, dx_i = w_1 x_i + w_i x1
    for n in (2, 3):
        assert maurer_cartan_basis(n, 1) * x(n, 1) == Form.dx(n, 1)
        for i in range(2, n + 1):
            lhs = maurer_cartan_basis(n, 1) * x(n, i) + maurer_cartan_basis(n, i) * x(n, 1)
            assert lhs == Form.dx(n, i)
            assert lhs.degrees() == [1]


def test_vector_field_values():
    n = 2
    assert apply_vector_field(1, Element.monomial(n, (2, 1))) \
        == Element.monomial(n, (2, 1), 3)
    assert not apply_vector_field(2, x(n, 1))
    assert apply_vector_field(2, x(n, 2)) == x(n, 1)


def _composed_vector_field(i, f):
    """T_1 = sum_j x_j d_j and T_i = x1 d_i, composed from derive and products."""
    n = f.n
    if i > 1:
        return x(n, 1) * derive(i, f)
    out = Element.zero(n)
    for j in range(1, n + 1):
        out = out + x(n, j) * derive(j, f)
    return out


def test_vector_fields_match_their_composition():
    for n, bound in ((1, 2), (2, 2), (3, 2), (4, 1)):
        for alpha in monomial_box(n, bound):
            f = Element.monomial(n, alpha)
            for i in range(1, n + 1):
                assert apply_vector_field(i, f) == _composed_vector_field(i, f), (i, alpha)


def test_vector_field_diagonal_on_laurent():
    n = 2
    f = Element.monomial(n, (-2, 1))
    assert apply_vector_field(1, f) == f.scale(-1)


def test_vector_fields_commute():
    rng = random.Random(1)
    for _ in range(60):
        n = rng.randint(2, 3)
        f = random_element(rng, n, 2, -2, 3, 3)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert apply_vector_field(i, apply_vector_field(j, f)) \
                    == apply_vector_field(j, apply_vector_field(i, f))


def test_differential_from_vector_fields():
    rng = random.Random(2)
    for _ in range(60):
        n = rng.randint(2, 3)
        f = random_element(rng, n, 2, -2, 3, 3)
        total = Form.zero(n)
        for i in range(1, n + 1):
            total = total + maurer_cartan_basis(n, i) * apply_vector_field(i, f)
        assert total == exterior_d(f)


def test_q_leibniz():
    n = 2
    # i = 2, f = g = x2: T2(x2^2) = x1 x2 + q x2 x1 = 2 x1 x2
    f = x(n, 2)
    lhs = apply_vector_field(2, f * f)
    assert lhs == (x(n, 1) * x(n, 2)).scale(2)
    rhs = apply_vector_field(2, f) * f \
        + (f * apply_vector_field(2, f)).scale(LaurentScalar.q_power(1))
    assert lhs == rhs
    # i = 1 is the ordinary Leibniz rule
    rng = random.Random(3)
    for _ in range(50):
        m = rng.randint(1, 3)
        a = random_element(rng, m, 1, -2, 3, 3)
        b = random_element(rng, m, 2, -2, 3, 3)
        assert apply_vector_field(1, a * b) \
            == apply_vector_field(1, a) * b + a * apply_vector_field(1, b)


def test_coproduct_pair_action():
    n = 2
    f, g = x(n, 2), x(n, 2)
    assert vf_coproduct_action(2, f, g) == apply_vector_field(2, f * g)
    rng = random.Random(4)
    for _ in range(60):
        m = rng.randint(2, 3)
        alpha = tuple([rng.randint(-2, 3)] + [rng.randint(0, 3) for _ in range(m - 1)])
        a = Element.monomial(m, alpha)
        b = random_element(rng, m, 2, -2, 3, 3)
        for i in range(1, m + 1):
            assert vf_coproduct_action(i, a, b) == apply_vector_field(i, a * b)


def test_grading_operator():
    n = 3
    f = Element.monomial(n, (-1, 2, 1))
    assert degree_scale(0, f) == f
    assert degree_scale(2, f) == f.scale(LaurentScalar.q_power(4))
    assert degree_scale(-1, f) == f.scale(LaurentScalar.q_power(-2))


def test_coproduct_primitive_for_t1_and_at_q1():
    # i = 1: the grading leg is trivial, so the coproduct is primitive exactly.
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(2, 3)
        f = random_element(rng, n, 2, -2, 3, 3)
        g = random_element(rng, n, 2, -2, 3, 3)
        assert vf_coproduct_action(1, f, g) \
            == apply_vector_field(1, f) * g + f * apply_vector_field(1, g)
        # i >= 2 becomes primitive after evaluating at q = 1
        for i in range(2, n + 1):
            lhs = vf_coproduct_action(i, f, g).evaluate_coeffs(1)
            rhs = (apply_vector_field(i, f) * g + f * apply_vector_field(i, g)).evaluate_coeffs(1)
            assert lhs == rhs


def test_antipode_of_vector_fields_from_hopf_data():
    # T_i f = sum e(T_i f_1) f_2, and S(T_i) = -Q(1-i) T_i with S(T_i) read
    # off D and S of the coordinate algebra.
    for n in (1, 2, 3):
        for alpha in monomial_box(n, 2):
            f = Element.monomial(n, alpha)
            for i in range(1, n + 1):
                t_f = apply_vector_field(i, f)
                assert coproduct(f).linear(lambda keys: Element.monomial(n, keys[1]).scale(
                    counit(apply_vector_field(i, Element.monomial(n, keys[0])))), f) == t_f
                assert vf_antipode_action(i, f) == -degree_scale(1 - i, t_f), (i, alpha)


def test_decomposition_in_omega_basis():
    rng = random.Random(6)
    for _ in range(60):
        n = rng.randint(2, 3)
        f = random_element(rng, n, 2, -2, 3, 3)
        w = maurer_cartan(f)
        coeffs = decompose_maurer_cartan(w)
        recomposed = Form.zero(n)
        for i, f_i in enumerate(coeffs, start=1):
            recomposed = recomposed + f_i * maurer_cartan_basis(n, i)
        assert recomposed == w


def test_decomposition_rejects_higher_degree():
    n = 2
    with pytest.raises(ValueError):
        decompose_maurer_cartan(Form.dx(n, 1) * Form.dx(n, 2))
    with pytest.raises(ValueError):
        decompose_maurer_cartan(Form.from_element(Element.one(n)))


def test_index_range():
    with pytest.raises(ValueError):
        apply_vector_field(4, Element.one(3))
    with pytest.raises(ValueError):
        maurer_cartan_basis(3, 0)


def test_checker_suites():
    for n in (2, 3):
        report = check_maurer_cartan(n, samples=40, seed=7)
        assert report.ok, report.render_text()
        report = check_vector_fields(n, deg_bound=3, samples=40, seed=7)
        assert report.ok, report.render_text()
