import json
import random
from fractions import Fraction

import pytest

from qnspace.calculus import Form, random_form
from qnspace.invariants import maurer_cartan_basis
from qnspace.operators import Operator, letters_to_operator, random_letters
from qnspace.parsing import ParseError, parse, parse_multiindex, parse_scalar
from qnspace.qspace import Element, random_element
from qnspace.scalar import LaurentScalar, random_scalar


def test_algebra_grammar_example():
    v = parse("x1^-1 x2", "algebra", 2)
    assert v == Element.x1_inverse(2) * Element.generator(2, 2)


def test_form_grammar_example():
    v = parse(r"dx1 /\ dx2 * x1^-1", "form", 2)
    assert v == Form.dx(2, 1) * Form.dx(2, 2) * Element.x1_inverse(2)


def test_operator_grammar_example():
    v = parse("q^2 d1 s2^-1", "operator", 2)
    expected = (Operator.partial(2, 1) * Operator.sigma_gen(2, 2, -1)).scale(LaurentScalar.q_power(2))
    assert v == expected


def test_scalar_literals():
    assert parse_scalar("3") == LaurentScalar.from_rational(3)
    assert parse_scalar("-2/5") == LaurentScalar.from_rational(Fraction(-2, 5))
    assert parse_scalar("q") == LaurentScalar.q_power(1)
    assert parse_scalar("q^-3") == LaurentScalar.q_power(-3)
    assert parse_scalar("2q^2 - q^-1 + 1/2") \
        == LaurentScalar({2: 2, -1: -1, 0: Fraction(1, 2)})


def test_sums_differences_parens():
    n = 2
    v = parse("(x1 + x2) * x1 - x2 x1", "algebra", n)
    x1, x2 = Element.generator(n, 1), Element.generator(n, 2)
    assert v == (x1 + x2) * x1 - x2 * x1


def test_omega_atoms():
    assert parse("w1", "form", 2) == maurer_cartan_basis(2, 1)
    assert parse(r"w1 /\ w2", "form", 3) \
        == maurer_cartan_basis(3, 1) * maurer_cartan_basis(3, 2)


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse("x1 + $", "algebra", 2)
    assert err.value.position == 5
    with pytest.raises(ParseError):
        parse("x1 +", "algebra", 2)
    with pytest.raises(ParseError):
        parse("(x1", "algebra", 2)
    with pytest.raises(ParseError):
        parse("x1 x2)", "algebra", 2)


@pytest.mark.parametrize("context", ["algebra", "operator", "form", "scalar"])
def test_zero_denominator_is_a_parse_error(context):
    with pytest.raises(ParseError) as err:
        parse("1/0", context, 2)
    assert err.value.position == 0
    with pytest.raises(ParseError) as err:
        parse("q + 3/00", context, 2)
    assert err.value.position == 4
    assert "zero denominator" in str(err.value)


@pytest.mark.parametrize("text,context", [
    ("dx1", "algebra"),
    ("d1", "algebra"),
    ("w1", "algebra"),
    ("x1", "operator"),
    ("dx1", "operator"),
    (r"d1 /\ d2", "operator"),
    (r"x1 /\ x2", "algebra"),
    ("d1", "form"),
    ("s1", "form"),
])
def test_context_violations(text, context):
    with pytest.raises(ParseError):
        parse(text, context, 3)


def test_dimension_is_a_hard_error():
    with pytest.raises(ParseError):
        parse("x5", "algebra", 3)
    with pytest.raises(ParseError):
        parse("d4", "operator", 3)
    parse("x3", "algebra", 3)


def test_negative_power_restrictions():
    parse("x1^-2", "algebra", 2)
    parse("s2^-3", "operator", 2)
    with pytest.raises(ParseError):
        parse("x2^-1", "algebra", 2)
    with pytest.raises(ParseError):
        parse("d1^-1", "operator", 2)
    with pytest.raises(ParseError):
        parse("dx1^-1", "form", 2)


def test_vector_field_atom_is_rejected_with_hint():
    with pytest.raises(ParseError) as err:
        parse("T1", "operator", 2)
    assert "vf" in str(err.value)


def test_wedge_powers_collapse():
    assert not parse("dx1^2", "form", 2)
    assert parse("dx1^0", "form", 2) == Form.from_element(Element.one(2))


def test_powers_stop_once_they_reach_zero(deadline):
    assert not parse("dx1^10000000", "form", 2)
    assert not Element.zero(2) ** 10**7
    assert not LaurentScalar.zero() ** 10**7


def test_literal_power_size_is_bounded(deadline):
    from qnspace.parsing import MAX_LITERAL_POWER_BITS

    assert parse("2^-2 x1", "algebra", 2) == Element.generator(2, 1).scale(Fraction(1, 4))
    # 2 has bit length 2, so the bound admits exactly 2^(MAX_LITERAL_POWER_BITS / 2).
    half = MAX_LITERAL_POWER_BITS // 2
    assert parse(f"2^{half}", "scalar", 1) == LaurentScalar.from_rational(2**half)
    for text in (f"2^{half + 1}", f"1/2^-{half + 1}", "2^100000000000", "3/7^-100000000000"):
        with pytest.raises(ParseError) as err:
            parse(text, "scalar", 1)
        assert "bits" in str(err.value)


def test_element_round_trip():
    rng = random.Random(20)
    for _ in range(200):
        n = rng.randint(1, 4)
        f = random_element(rng, n)
        assert parse(str(f), "algebra", n) == f


def test_operator_round_trip():
    rng = random.Random(21)
    for _ in range(150):
        n = rng.randint(1, 4)
        u = letters_to_operator(n, random_letters(rng, n, 4))
        if rng.random() < 0.4:
            u = u + letters_to_operator(n, random_letters(rng, n, 3))
        assert parse(str(u), "operator", n) == u


def test_form_round_trip():
    rng = random.Random(22)
    for _ in range(150):
        n = rng.randint(1, 4)
        w = random_form(rng, n, min(2, n))
        assert parse(str(w), "form", n) == w


def test_scalar_round_trip():
    rng = random.Random(23)
    for _ in range(200):
        s = random_scalar(rng, 3, 4)
        assert parse_scalar(str(s)) == s


def test_json_round_trips():
    rng = random.Random(24)
    for _ in range(50):
        n = rng.randint(1, 3)
        f = random_element(rng, n)
        assert Element.from_json(json.loads(json.dumps(f.to_json()))) == f
        u = letters_to_operator(n, random_letters(rng, n, 4))
        assert Operator.from_json(json.loads(json.dumps(u.to_json()))) == u
        w = random_form(rng, n, min(2, n))
        assert Form.from_json(json.loads(json.dumps(w.to_json()))) == w


def test_multiindex_parsing():
    assert parse_multiindex("[1,0,-2]", 3) == (1, 0, -2)
    with pytest.raises(ParseError):
        parse_multiindex("[1,2]", 3)
    with pytest.raises(ParseError):
        parse_multiindex("[1,a]", 2)
    with pytest.raises(ParseError):
        parse_multiindex("nonsense", 2)


def test_long_flat_chains():
    # 3000 terms or factors in one chain, well past the recursion limit.
    assert parse("+".join(["x1"] * 3000), "algebra", 2) == Element.monomial(2, (1, 0), 3000)
    assert parse(" ".join(["x1"] * 3000), "algebra", 2) == Element.monomial(2, (3000, 0))


def test_paren_depth_limit():
    from qnspace.parsing import MAX_PAREN_DEPTH

    depth = MAX_PAREN_DEPTH
    assert parse("(" * depth + "x1" + ")" * depth, "algebra", 2) == Element.generator(2, 1)
    with pytest.raises(ParseError):
        parse("(" * (depth + 1) + "x1" + ")" * (depth + 1), "algebra", 2)


def test_deep_nesting_exits_2_without_traceback():
    import subprocess
    import sys

    text = "(" * 2000 + "x1" + ")" * 2000
    done = subprocess.run([sys.executable, "-m", "qnspace", "normalize", text, "--n", "2"],
                          capture_output=True, text=True)
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error: ")


def test_wedge_error_names_last_wedge():
    with pytest.raises(ParseError) as info:
        parse(r"x1 /\ x2 * x1 /\ x2", "algebra", 2)
    assert info.value.position == 14
