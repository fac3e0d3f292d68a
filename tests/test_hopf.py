import random
from itertools import product
from math import comb

from qnspace.bicharacter import basis_vector, vector_neg
from qnspace.hopf import (_monomial_coproduct, _word_coproduct, antipode,
                          apply_pair_tensor, check_hopf_coordinate_algebra,
                          check_hopf_operator_algebra, check_module_algebra,
                          coproduct, counit, tau, tensor1_to_element,
                          tensor_from_json, tensor_text, tensor_to_json)
from qnspace.operators import Operator, word_key_mul, words_up_to
from qnspace.qspace import Element, monomial_key_mul, monomials_up_to, random_element
from qnspace.scalar import LaurentScalar
from qnspace.tensors import Tensor


def x(n, i):
    return Element.generator(n, i)


def aq_tensor(n, slots=2, terms=None):
    return Tensor((monomial_key_mul,) * slots, terms)


def dq_tensor(n, slots=2, terms=None):
    return Tensor((word_key_mul,) * slots, terms)


# ---------------------------------------------------------------------------
# Reference builders: D and S of one basis key, multiplied out of the
# generator images once per unit of exponent.  They are the oracles of the
# closed forms in qnspace.hopf.

def reference_monomial_coproduct(n, alpha):
    zero = (0,) * n
    out = aq_tensor(n, 2, {(zero, zero): 1})
    a1 = alpha[0]
    if a1:
        step = 1 if a1 > 0 else -1
        x1_like = (step,) + (0,) * (n - 1)
        grouplike = aq_tensor(n, 2, {(x1_like, x1_like): 1})
        for _ in range(abs(a1)):
            out = out * grouplike
    for i in range(2, n + 1):
        e_i = basis_vector(n, i)
        e_1 = basis_vector(n, 1)
        primitive_like = aq_tensor(n, 2, {(e_i, e_1): 1, (e_1, e_i): 1})
        for _ in range(alpha[i - 1]):
            out = out * primitive_like
    return out


def reference_monomial_antipode(n, alpha):
    # Reverse the generator word: S(x^a) = S(xn)^an ... S(x2)^a2 x1^(-a1).
    x1inv = Element.x1_inverse(n)
    out = Element.one(n)
    for i in range(n, 1, -1):
        s_xi = -(x1inv * Element.generator(n, i) * x1inv)
        for _ in range(alpha[i - 1]):
            out = out * s_xi
    return out * Element.monomial(n, (-alpha[0],) + (0,) * (n - 1))


def reference_word_coproduct(n, word):
    gamma, beta = word
    zero = (0,) * n
    unit = ((zero, zero), (zero, zero))
    out = dq_tensor(n, 2, {unit: 1})
    for i in range(1, n + 1):
        g = gamma[i - 1]
        if g:
            key = (tuple(g if k == i - 1 else 0 for k in range(n)), zero)
            out = out * dq_tensor(n, 2, {(key, key): 1})
    for i in range(1, n + 1):
        e_i = basis_vector(n, i)
        d_key = (zero, e_i)
        s_key = (e_i, zero)
        unit_key = (zero, zero)
        primitive_like = dq_tensor(n, 2, {(d_key, unit_key): 1, (s_key, d_key): 1})
        for _ in range(beta[i - 1]):
            out = out * primitive_like
    return out


def reference_word_antipode(n, word):
    gamma, beta = word
    out = Operator.one(n)
    for i in range(n, 0, -1):
        e_i = basis_vector(n, i)
        s_di = Operator.word(n, vector_neg(e_i), e_i, -1)  # S(d_i) = -s_i^-1 d_i
        for _ in range(beta[i - 1]):
            out = out * s_di
    return out * Operator.sigma_word(n, vector_neg(gamma))


def test_closed_forms_match_reference_builders():
    for n in (2, 3, 4):
        for alpha in product(range(-2, 3), *[range(4)] * (n - 1)):
            f = Element.monomial(n, alpha)
            assert coproduct(f) == reference_monomial_coproduct(n, alpha), alpha
            assert antipode(f) == reference_monomial_antipode(n, alpha), alpha
    words = [(n, word) for n in (1, 2, 3) for word in words_up_to(n, 4)]
    words += [(4, word) for word in words_up_to(4, 3)]
    for n, word in words:
        u = Operator(n, {word: 1})
        assert coproduct(u) == reference_word_coproduct(n, word), word
        assert antipode(u) == reference_word_antipode(n, word), word


def test_coproduct_of_large_x1_power(deadline):
    key = (-2000000, 0)
    assert coproduct(Element.monomial(2, key)) == aq_tensor(2, 2, {(key, key): 1})


def test_coproduct_of_large_x2_power(deadline):
    t = coproduct(Element.monomial(2, (0, 800)))
    assert t == aq_tensor(2, 2, {((800 - k, k), (k, 800 - k)): LaurentScalar.q_power(-k * (800 - k), comb(800, k))
                                 for k in range(801)})
    assert len(t.terms) == 801


def test_antipode_of_large_powers(deadline):
    assert antipode(Element.monomial(2, (0, 1000000))) == \
        Element.monomial(2, (-2000000, 1000000), LaurentScalar.q_power(1000000000000))
    assert antipode(Operator.word(2, (0, 0), (0, 1000000))) == Operator.word(2, (0, -1000000), (0, 1000000))


def test_coproduct_caches_are_bounded():
    for cached in (_monomial_coproduct, _word_coproduct):
        assert cached.cache_info().maxsize is not None


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
