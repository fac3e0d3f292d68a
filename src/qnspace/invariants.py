"""Right-invariant 1-forms built from the Hopf data, and the vector fields
dual to them.

    mc(f) = m((d x S) D(f))

so mc(x1) = dx1 x1^-1 and mc(x_i) = dx_i x1^-1 - dx1 x1^-1 x_i x1^-1 for
i >= 2.  Writing w_i = mc(x_i), every 1-form decomposes as sum f_i w_i with
left coefficients, and the inverse change of basis gives

    dx1 = w_1 x1,   dx_i = w_1 x_i + w_i x1

The dual vector fields realize the differential as d = sum_i w_i T_i:

    T_1 = x_1 d_1 + ... + x_n d_n       (diagonal: T_1(x^a) = (sum a_k) x^a)
    T_i = x_1 d_i                        (i >= 2)

On a basis key each T_i is one key map.  By operators.act_key,
d_j x^a = a_j q^(-pairing(e_j, a)) x^(a-e_j), and x_j x^(a-e_j) =
q^pairing(e_j, a) x^a as pairing(e_j, e_j) = 0; so x_j d_j x^a = a_j x^a and
T_1 x^a = |a| x^a.  For i >= 2, x1 x^b = x^(b+e1) as pairing(e1, .) = 0, so
T_i is the key map of d_i with the key moved by e1.

They commute pairwise, satisfy a q-Leibniz rule with grading exponent
lambda_i = (i-1) * total_degree, and carry the coproduct

    D(T_i) = T_i (x) 1 + Q(i-1) (x) T_i

where Q(c) = degree_scale(c, .) is the diagonal operator x^a |-> q^(c|a|) x^a,
with e(T_i) = 0 and S(T_i) = -Q(1-i) T_i.  T_i f = sum e(T_i f_1) f_2 over
D(f), so S(T_i) acts as f -> sum e(T_i S(f_1)) f_2 (vf_antipode_action).  The
checkers below verify all of this extensionally; vf-diagonal compares T_1
with its definition, and vf-antipode compares S(T_i), read off the Hopf
data, with -Q(1-i) T_i.
"""

from __future__ import annotations

from functools import lru_cache, partial

from .bicharacter import basis_vector, vector_neg
from .calculus import Form, exterior_d
from .hopf import antipode, coproduct, counit
from .operators import act_key, derive, sigma
from .qspace import (Element, monomials_up_to, random_element, random_exponent,
                     total_degree)
from .report import CheckReport
from .scalar import LaurentScalar

# The lowest power of x1 in the vector-field sweeps and samples.
VF_X1_MIN = -2


def maurer_cartan(f: Element) -> Form:
    """The right-invariant form of f: multiply the legs of (d x S) D(f)."""
    n = f.n
    return coproduct(f).linear(
        lambda keys: exterior_d(Element.monomial(n, keys[0])) * antipode(Element.monomial(n, keys[1])),
        Form.zero(n))


@lru_cache(maxsize=None)
def maurer_cartan_basis(n: int, i: int) -> Form:
    """w_i = mc(x_i), in canonical right-coefficient form."""
    if not 1 <= i <= n:
        raise ValueError(f"index {i} out of range 1..{n}")
    return maurer_cartan(Element.generator(n, i))


def decompose_maurer_cartan(w: Form) -> list[Element]:
    """Coefficients f_1..f_n with sum_i f_i * w_i == w (w of degree <= 1 with
    no degree-0 part).  Raises ValueError when no decomposition exists."""
    n = w.n
    if w.max_degree() > 1 or w.coefficient(()):
        raise ValueError("only purely degree-1 forms decompose in the w basis")
    x1 = Element.generator(n, 1)
    coeffs = [Element.zero(n)] * n
    remainder = w
    # w_i is the only basis form with a dx_i component (i >= 2), and that
    # component is dx_i x1^-1; peel those off first, then w_1.
    for i in range(n, 0, -1):
        comp = remainder.coefficient((i,))
        if not comp:
            continue
        f_i = sigma(vector_neg(basis_vector(n, i)), comp * x1)
        coeffs[i - 1] = f_i
        remainder = remainder - f_i * maurer_cartan_basis(n, i)
    if remainder:
        raise ValueError(f"form does not decompose in the w basis; remainder {remainder}")
    return coeffs


def _vector_field_key(i: int, alpha):
    """The key map of T_i (the closed form of the module docstring)."""
    if i == 1:
        degree = total_degree(alpha)
        return (degree, 0, alpha) if degree else None
    n = len(alpha)
    mapped = act_key(((0,) * n, basis_vector(n, i)), alpha)
    if mapped is None:
        return None
    c, k, key = mapped
    return c, k, (key[0] + 1,) + key[1:]


def apply_vector_field(i: int, f: Element) -> Element:
    """T_1 = sum_j x_j d_j; T_i = x_1 d_i for i >= 2."""
    if not 1 <= i <= f.n:
        raise ValueError(f"index {i} out of range 1..{f.n}")
    return f.map_keys(partial(_vector_field_key, i))


def vf_antipode_action(i: int, f: Element) -> Element:
    """S(T_i) from the Hopf data: f -> sum e(T_i S(f_1)) f_2 over D(f)."""
    n = f.n
    return coproduct(f).linear(lambda keys: Element.monomial(n, keys[1]).scale(
        counit(apply_vector_field(i, antipode(Element.monomial(n, keys[0]))))), f)


def degree_scale(c: int, f: Element) -> Element:
    """The diagonal grading operator x^a -> q^(c * total_degree(a)) x^a."""
    return f.map_keys(lambda alpha: (1, c * total_degree(alpha), alpha))


def vf_coproduct_action(i: int, f: Element, g: Element) -> Element:
    """m(D(T_i)(f x g)) = T_i(f) g + Q(i-1)(f) T_i(g)."""
    return apply_vector_field(i, f) * g + degree_scale(i - 1, f) * apply_vector_field(i, g)


# ---------------------------------------------------------------------------
# Checkers

def check_maurer_cartan(n: int, samples: int = 100, seed: int = 0) -> CheckReport:
    """Canonical displays of the basis forms, their commutation relations
    with coordinates and with each other, the change of basis back to the
    dx_i, and the basis decomposition of mc(f)."""
    import random

    rng = random.Random(f"{seed}:maurer-cartan:{n}")
    report = CheckReport(f"maurer-cartan(n={n})")
    x1 = Element.generator(n, 1)
    x1inv = Element.x1_inverse(n)

    displays = report.new("mc-displays: w_1 = dx1 x1^-1, w_i = dx_i x1^-1 - dx1 x1^-1 x_i x1^-1")
    displays.record("i=1", maurer_cartan_basis(n, 1), Form.dx(n, 1) * x1inv)
    for i in range(2, n + 1):
        x_i = Element.generator(n, i)
        expected = Form.dx(n, i) * x1inv - Form.dx(n, 1) * (x1inv * x_i * x1inv)
        displays.record(f"i={i}", maurer_cartan_basis(n, i), expected)
    displays.record("f=1", maurer_cartan(Element.one(n)), Form.zero(n))

    coords = report.new("mc-coordinates: x_i w_1 = w_1 x_i and x_i w_j = q^(j-1) w_j x_i")
    for i in range(1, n + 1):
        x_i = Element.generator(n, i)
        w1 = maurer_cartan_basis(n, 1)
        coords.record(f"x{i} w1", x_i * w1, w1 * x_i)
        # x1^-1 is degree -1, so its factor flips: covered by mc-grading below.
        coords.record("x1^-1 w1", x1inv * w1, w1 * x1inv)
        for j in range(2, n + 1):
            w_j = maurer_cartan_basis(n, j)
            coords.record(f"x{i} w{j}", x_i * w_j, (w_j * x_i).scale(LaurentScalar.q_power(j - 1)))

    wedge = report.new("mc-wedge: w_i ^ w_j = -(1 - delta_ij) w_j ^ w_i")
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            w_i = maurer_cartan_basis(n, i)
            w_j = maurer_cartan_basis(n, j)
            if i == j:
                wedge.record(f"i=j={i}", w_i * w_i, Form.zero(n))
            else:
                wedge.record(f"i={i} j={j}", w_i * w_j, -(w_j * w_i))

    change = report.new("mc-to-dx: dx1 = w_1 x1 and dx_i = w_1 x_i + w_i x1")
    change.record("i=1", maurer_cartan_basis(n, 1) * x1, Form.dx(n, 1))
    for i in range(2, n + 1):
        x_i = Element.generator(n, i)
        lhs = maurer_cartan_basis(n, 1) * x_i + maurer_cartan_basis(n, i) * x1
        change.record(f"i={i}", lhs, Form.dx(n, i))

    grading = report.new("mc-grading: x^a w_i = q^((i-1) deg a) w_i x^a")
    for _ in range(samples):
        alpha = random_exponent(rng, n, -3, 3, 3)
        f = Element.monomial(n, alpha)
        deg = total_degree(alpha)
        for i in range(1, n + 1):
            w_i = maurer_cartan_basis(n, i)
            lhs = f * w_i
            rhs = (w_i * f).scale(LaurentScalar.q_power((i - 1) * deg))
            grading.record(f"i={i} a={list(alpha)}", lhs, rhs)

    span = report.new("mc-span: mc(f) decomposes as sum f_i w_i")
    for _ in range(samples):
        f = random_element(rng, n, 2, -2, 3, 3)
        w = maurer_cartan(f)
        try:
            coeffs = decompose_maurer_cartan(w)
        except ValueError as exc:
            span.record_true(f"f={f}", False, str(exc))
            continue
        recomposed = Form.zero(n)
        for i, f_i in enumerate(coeffs, start=1):
            recomposed = recomposed + f_i * maurer_cartan_basis(n, i)
        span.record(f"f={f}", recomposed, w)
    return report


def check_vector_fields(n: int, deg_bound: int = 4, samples: int = 100, seed: int = 0) -> CheckReport:
    """Pairwise commutation, coordinate relations, the diagonal action of
    T_1, d = sum_i w_i T_i, the q-Leibniz rule, and the coproduct and
    antipode of the T_i at the level of actions."""
    import random

    rng = random.Random(f"{seed}:vector-fields:{n}")
    report = CheckReport(f"vector-fields(n={n})")
    monomials = monomials_up_to(n, deg_bound, x1_min=VF_X1_MIN)

    if n > 1:  # at n = 1 there is no pair i < j to commute
        commute = report.new("vf-commute: T_i(T_j(f)) = T_j(T_i(f))")
    diag = report.new("vf-diagonal: T_1(x^a) = (sum a_k) x^a")
    via_mc = report.new("vf-differential: sum_i w_i T_i(f) = d(f)")
    for alpha in monomials:
        f = Element.monomial(n, alpha)
        inputs = f"alpha={list(alpha)}"
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                commute.record(f"{inputs} i={i} j={j}",
                               apply_vector_field(i, apply_vector_field(j, f)),
                               apply_vector_field(j, apply_vector_field(i, f)))
        definition = Element.zero(n)
        for j in range(1, n + 1):
            definition = definition + Element.generator(n, j) * derive(j, f)
        diag.record(inputs, apply_vector_field(1, f), definition)
        total = Form.zero(n)
        for i in range(1, n + 1):
            total = total + maurer_cartan_basis(n, i) * apply_vector_field(i, f)
        via_mc.record(inputs, total, exterior_d(f))

    coords = report.new("vf-coordinates: T_1 x_j = x_j + x_j T_1; T_i x_j = delta_ij x1 + q^(i-1) x_j T_i")
    for alpha in monomials:
        f = Element.monomial(n, alpha)
        for j in range(1, n + 1):
            x_j = Element.generator(n, j)
            inputs = f"alpha={list(alpha)} j={j}"
            coords.record(f"{inputs} i=1",
                          apply_vector_field(1, x_j * f),
                          x_j * f + x_j * apply_vector_field(1, f))
            for i in range(2, n + 1):
                delta = Element.generator(n, 1) * f if i == j else Element.zero(n)
                rhs = delta + (x_j * apply_vector_field(i, f)).scale(LaurentScalar.q_power(i - 1))
                coords.record(f"{inputs} i={i}", apply_vector_field(i, x_j * f), rhs)

    leibniz = report.new("vf-leibniz: T_i(x^a g) = T_i(x^a) g + q^((i-1) deg a) x^a T_i(g)")
    for _ in range(samples):
        alpha = random_exponent(rng, n, VF_X1_MIN, 3, 3)
        f = Element.monomial(n, alpha)
        g = random_element(rng, n, 2, VF_X1_MIN, 3, 3)
        deg = total_degree(alpha)
        for i in range(1, n + 1):
            lhs = apply_vector_field(i, f * g)
            rhs = apply_vector_field(i, f) * g \
                + (f * apply_vector_field(i, g)).scale(LaurentScalar.q_power((i - 1) * deg))
            leibniz.record(f"i={i} a={list(alpha)} g={g}", lhs, rhs)

    coproduct_rule = report.new("vf-coproduct: m(D(T_i)(f x g)) = T_i(fg)")
    for _ in range(samples):
        alpha = random_exponent(rng, n, VF_X1_MIN, 3, 3)
        f = Element.monomial(n, alpha)
        g = random_element(rng, n, 2, VF_X1_MIN, 3, 3)
        for i in range(1, n + 1):
            coproduct_rule.record(f"i={i} f={f} g={g}",
                                  vf_coproduct_action(i, f, g),
                                  apply_vector_field(i, f * g))

    hopf_data = report.new("vf-antipode: S(T_i) T_i-leg sum vanishes (e(T_i) = 0)")
    for alpha in monomials[: min(len(monomials), 60)]:
        f = Element.monomial(n, alpha)
        for i in range(1, n + 1):
            t_f, s_f = apply_vector_field(i, f), vf_antipode_action(i, f)
            # m(S x id)D(T_i) = S(T_i) 1 + S(Q(i-1)) T_i, with S(Q(c)) = Q(-c).
            lhs = s_f + degree_scale(1 - i, t_f)
            hopf_data.record_true(f"i={i} alpha={list(alpha)}", not lhs, str(lhs))
            # m(id x S)D(T_i) = T_i S(1) + Q(i-1) S(T_i).
            rhs = t_f + degree_scale(i - 1, s_f)
            hopf_data.record_true(f"i={i} alpha={list(alpha)} (right)", not rhs, str(rhs))

    grading_op = report.new("vf-grading-exponential: Q(c)(x^a) = q^(c sum a_k) x^a and Q(0) = id")
    for alpha in monomials[: min(len(monomials), 40)]:
        f = Element.monomial(n, alpha)
        grading_op.record(f"alpha={list(alpha)}", degree_scale(0, f), f)
        for c in (1, 2, -1):
            grading_op.record(
                f"alpha={list(alpha)} c={c}",
                degree_scale(c, f),
                f.scale(LaurentScalar.q_power(c * total_degree(alpha))))
    return report
