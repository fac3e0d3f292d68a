"""First-order differential calculus and the graded wedge algebra above it.

The bimodule of 1-forms has basis dx_1..dx_n with

    x_i dx_j = eta(e_i, e_j) dx_j x_i        (so f dx_i = dx_i sigma_i(f))
    dx_i ^ dx_j = (delta_ij - eta(e_i, e_j)) dx_j ^ dx_i

Canonical form keeps wedge indices strictly increasing with the algebra
coefficient on the right, which is the shape the differential produces
directly:

    d(f) = dx_1 d_1(f) + ... + dx_n d_n(f)

On a degree-k wedge monomial, d(dx_W f) = (-1)^k dx_W ^ d(f); d^2 = 0 and the
graded Leibniz rule then hold exactly (and are checked, not assumed).

The coactions send a form of degree <= 1 into a mixed tensor with the form
in one slot.  Both act as the coproduct D on degree 0; delta_right(dx_i)
applies d to the left leg of D(x_i), delta_left(dx_i) to the right leg, and
both extend by the bimodule rule delta(a p b) = D(a) delta(p) D(b).  On a
basis key delta_right is a closed form: for each term c x^L (x) x^R of
D(x^a) (hopf._monomial_coproduct),

    delta_right(x^a)      has the term   c x^L (x) x^R            (form x^L of degree 0)
    delta_right(dx_i x^a) has the terms  c dx_i x^L (x) x^(R+e1)
                          and, i >= 2,   c q^pairing(e_i, R) dx_1 x^L (x) x^(R+e_i)

Proof.  delta_right(dx_i x^a) = delta_right(dx_i) D(x^a), and
delta_right(dx_i) = (d x id)(x_i (x) x1 + x1 (x) x_i) = dx_i (x) x1 + dx1 (x) x_i
(dx1 (x) x1 for i = 1).  A bare dx_j times x^L is dx_j x^L with no power of q
(form_key_mul has no coefficient to move past dx_j), x1 x^R = x^(R+e1) as
pairing(e1, .) = 0, and x_i x^R = q^pairing(e_i, R) x^(R+e_i).

delta_left = tau delta_right, with tau the flip of the two slots.  D is
cocommutative (tau D = D, checked by hopf-aqn), so the two agree on degree
0, and on dx_i as (id x d) D(x_i) = (id x d) tau D(x_i) = tau (d x id) D(x_i).
tau is multiplicative on 2-slot tensors, so it carries the bimodule
extension of delta_right to that of delta_left.
"""

from __future__ import annotations

from functools import partial

from .bicharacter import basis_vector, commutation_exponent, commutation_factor, pairing, vector_add
from .hopf import _coproduct_expand_aq, _counit_key_aq, _monomial_coproduct, coproduct, tau
from .operators import act_key, sigma
from .qspace import Element, monomial_key_mul, monomial_str, random_element, random_exponent
from .report import CheckReport
from .scalar import LaurentScalar, format_term, join_terms
from .tensors import SpaceSparse, Tensor, collect, expansion


def push_coeff_right(f: Element, i: int) -> Element:
    """The coefficient that moves f from the left of dx_i to the right:
    f dx_i = dx_i sigma_i(f)."""
    if not 1 <= i <= f.n:
        raise ValueError(f"index {i} out of range 1..{f.n}")
    return sigma(basis_vector(f.n, i), f)


def _wedge_sort(indices):
    """Sort wedge indices, returning (sign_and_q_exponent, sorted) or None
    when an index repeats (the wedge square is zero)."""
    word = list(indices)
    sign = 1
    exponent = 0
    for k in range(1, len(word)):
        m = k
        while m > 0 and word[m - 1] > word[m]:
            i, j = word[m - 1], word[m]
            # dx_i ^ dx_j = -eta(e_i, e_j) dx_j ^ dx_i for i != j
            sign = -sign
            exponent += j - i
            word[m - 1], word[m] = word[m], word[m - 1]
            m -= 1
    for k in range(1, len(word)):
        if word[k - 1] == word[k]:
            return None
    return (sign, exponent), tuple(word)


def form_key_mul(key1, key2):
    """Merge two form keys (wedge, alpha) to (sign, k, key); None when the
    wedge collapses.

    (dx_W1 x^a1)(dx_W2 x^a2) = dx_W1 ^ dx_W2 sigma_W2(x^a1) x^a2 where
    sigma_W2 scales by the commutation factor of a1 against sum of e_j, j in W2.
    """
    w1, a1 = key1
    w2, a2 = key2
    sorted_wedge = _wedge_sort(w1 + w2)
    if sorted_wedge is None:
        return None
    (sign, q_exp), wedge = sorted_wedge
    n = len(a1)
    move = [0] * n
    for j in w2:
        move[j - 1] += 1
    exponent = q_exp + commutation_exponent(a1, tuple(move)) + pairing(a1, a2)
    return sign, exponent, (wedge, vector_add(a1, a2))


class Form(SpaceSparse):
    """A graded exterior-algebra element: a sum of dx_W x^a with the algebra
    coefficient on the right of the dx block.

    terms maps form keys (wedge, alpha), wedge strictly increasing, to
    nonzero LaurentScalar coefficients.  The constructor takes the grouped
    shape {wedge: Element}.
    """

    __slots__ = ()
    _merge = staticmethod(form_key_mul)

    def _collect_items(self, terms) -> dict:
        """Flatten and sum the (wedge, Element) items of a dict or iterable."""
        items = terms.items() if isinstance(terms, dict) else terms or ()
        return collect(pair for wedge, coeff in items for pair in self._flatten(wedge, coeff))

    def _flatten(self, wedge, coeff):
        """The flat terms of dx_wedge coeff, after validating both."""
        n = self.n
        wedge = tuple(wedge)
        if any(not 1 <= i <= n for i in wedge):
            raise ValueError(f"wedge indices {list(wedge)} out of range 1..{n}")
        if any(a >= b for a, b in zip(wedge, wedge[1:])):
            raise ValueError(f"wedge indices must be strictly increasing, got {list(wedge)}")
        if not isinstance(coeff, Element):
            raise TypeError("form coefficients must be Elements")
        if coeff.n != n:
            raise ValueError(f"dimension mismatch: {coeff.n} != {n}")
        return [((wedge, alpha), c) for alpha, c in coeff.terms.items()]

    def _unit_key(self):
        return (), (0,) * self.n

    @classmethod
    def from_element(cls, f: Element) -> "Form":
        return cls(f.n, {(): f})

    @classmethod
    def dx(cls, n: int, i: int) -> "Form":
        if not 1 <= i <= n:
            raise ValueError(f"index {i} out of range 1..{n}")
        return cls(n, {(i,): Element.one(n)})

    @classmethod
    def monomial(cls, n: int, wedge, coeff: Element) -> "Form":
        return cls(n, {tuple(wedge): coeff})

    def __mul__(self, other):
        """Wedge/module product.  Right-multiplying by an Element multiplies
        the coefficients; multiplying two forms wedges the dx blocks, moving
        left coefficients through via sigma."""
        if isinstance(other, Element):
            other = Form.from_element(other)
        return super().__mul__(other)

    def __rmul__(self, other):
        # Element * Form is left multiplication: push through the dx block.
        if isinstance(other, Element):
            return Form.from_element(other) * self
        return super().__rmul__(other)

    def degrees(self):
        return sorted({len(wedge) for wedge, _ in self.terms})

    def max_degree(self) -> int:
        return max((len(wedge) for wedge, _ in self.terms), default=0)

    def coefficient(self, wedge) -> Element:
        """The Element f for which dx_wedge f is the wedge part of this form."""
        wedge = tuple(wedge)
        return Element(self.n)._like({alpha: c for (w, alpha), c in self.terms.items() if w == wedge})

    def components(self):
        """(wedge, Element coefficient) pairs, by degree and then by wedge."""
        wedges = sorted({wedge for wedge, _ in self.terms}, key=lambda w: (len(w), w))
        return [(wedge, self.coefficient(wedge)) for wedge in wedges]

    def __str__(self) -> str:
        parts = []
        for wedge, coeff in self.components():
            if not wedge:
                for alpha, c in coeff.sorted_terms():
                    parts.append(format_term(c, monomial_str(alpha)))
                continue
            body = " /\\ ".join(f"dx{i}" for i in wedge)
            single = coeff.single_term()
            if coeff == Element.one(self.n):
                parts.append((False, body))
            elif single is not None:
                alpha, c = single
                negated, text = format_term(c, monomial_str(alpha))
                parts.append((negated, f"{body} * {text}" if text != "1" else body))
            else:
                parts.append((False, f"{body} * ({coeff})"))
        return join_terms(parts)

    def to_json(self):
        return {
            "n": self.n,
            "terms": [
                {"wedge": list(wedge), "coeff": coeff.to_json()}
                for wedge, coeff in self.components()
            ],
        }

    @classmethod
    def from_json(cls, data) -> "Form":
        n = data["n"]
        return cls(n, {
            tuple(term["wedge"]): Element.from_json(term["coeff"])
            for term in data["terms"]
        })


# ---------------------------------------------------------------------------
# Exterior differential

def _d_monomial(n: int, alpha):
    """d(x^alpha) as key-map triples (a_i, k, ((i,), alpha - e_i)), one per dx_i."""
    out = []
    for i in range(1, n + 1):
        mapped = act_key(((0,) * n, basis_vector(n, i)), alpha)
        if mapped is not None:
            c, k, key = mapped
            out.append((c, k, ((i,), key)))
    return out


def exterior_d(u) -> Form:
    """The differential: d(f) = sum_i dx_i d_i(f) on degree 0, extended to
    wedge monomials by d(dx_W f) = (-1)^|W| dx_W ^ d(f)."""
    if isinstance(u, Element):
        u = Form.from_element(u)
    if not isinstance(u, Form):
        raise TypeError(f"exterior_d expects Form or Element, got {type(u).__name__}")
    zero = (0,) * u.n

    def pairs():
        for (wedge, alpha), coeff in u.terms.items():
            sign = -1 if len(wedge) % 2 else 1
            for c, k, key in _d_monomial(u.n, alpha):
                merged = form_key_mul((wedge, zero), key)
                if merged is not None:
                    c2, k2, key2 = merged
                    yield key2, coeff.shift(sign * c * c2, k + k2)
    return u._like(collect(pairs()))


# ---------------------------------------------------------------------------
# Coactions (first-order scope: form degree <= 1).  The right coaction puts
# the form in slot 0 and the algebra in slot 1; the left one the other way.

_RIGHT_MULS = (form_key_mul, monomial_key_mul)
_LEFT_MULS = _RIGHT_MULS[::-1]


def _right_coaction_key(n: int, key) -> Tensor:
    """delta_right of the basis form dx_W x^alpha, |W| <= 1, from the terms of
    D(x^alpha) (the closed form of the module docstring)."""
    wedge, alpha = key
    terms = _monomial_coproduct(n, alpha).terms.items()
    if not wedge:
        return Tensor(_RIGHT_MULS)._like({(((), left), right): c for (left, right), c in terms})
    (i,) = wedge
    e1, e_i = basis_vector(n, 1), basis_vector(n, i)
    out = {((wedge, left), vector_add(right, e1)): c for (left, right), c in terms}
    if i >= 2:
        out.update({(((1,), left), vector_add(right, e_i)): c.shift(1, pairing(e_i, right))
                    for (left, right), c in terms})
    return Tensor(_RIGHT_MULS)._like(out)


def delta_right(u) -> Tensor:
    """Right coaction: form slot left, algebra slot right.  Acts as the
    coproduct on degree 0 and sends dx_i f to ((d x id) D(x_i)) D(f)."""
    if isinstance(u, Element):
        u = Form.from_element(u)
    if u.max_degree() > 1:
        raise ValueError("coactions are defined on forms of degree <= 1")
    return u.linear(partial(_right_coaction_key, u.n), Tensor(_RIGHT_MULS))


def delta_left(u) -> Tensor:
    """Left coaction: algebra slot left, form slot right; the flip of delta_right."""
    return tau(delta_right(u))


def form_slot_to_form(t: Tensor, n: int) -> Form:
    """Collapse a 1-slot tensor whose slot is a form key."""
    return Form(n)._like({key: c for (key,), c in t.terms.items()})


def _d_key_expansion(n: int):
    """Slot map sending an algebra key to the form keys of its differential."""
    def fn(alpha):
        return [(LaurentScalar.q_power(k, c), (key,)) for c, k, key in _d_monomial(n, alpha)]
    return fn


# ---------------------------------------------------------------------------
# Checkers

def random_form(rng, n: int, max_degree: int = 1) -> Form:
    out = Form.zero(n)
    for _ in range(rng.randint(1, 2)):
        degree = rng.randint(0, max_degree)
        indices = sorted(rng.sample(range(1, n + 1), min(degree, n)))
        out = out + Form.monomial(n, tuple(indices), random_element(rng, n, 2))
    return out


def check_calculus(n: int, samples: int = 200, seed: int = 0) -> CheckReport:
    """Leibniz, graded Leibniz, nilpotency of d, associativity of the wedge
    product, and the defining bimodule relation."""
    import random

    rng = random.Random(f"{seed}:calculus:{n}")
    report = CheckReport(f"calculus(n={n})")

    module_rel = report.new("bimodule: x_i dx_j = eta(e_i,e_j) dx_j x_i")
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            x_i = Element.generator(n, i)
            dx_j = Form.dx(n, j)
            lhs = x_i * dx_j
            rhs = (dx_j * x_i).scale(commutation_factor(basis_vector(n, i), basis_vector(n, j)))
            module_rel.record(f"i={i} j={j}", lhs, rhs)

    dgen = report.new("d-on-generators: d(x_i) = dx_i and d(1) = 0")
    for i in range(1, n + 1):
        dgen.record(f"i={i}", exterior_d(Element.generator(n, i)), Form.dx(n, i))
    dgen.record("f=1", exterior_d(Element.one(n)), Form.zero(n))
    dgen.record("f=x1^-1", exterior_d(Element.x1_inverse(n)),
                Form.monomial(n, (1,), Element.monomial(n, (-2,) + (0,) * (n - 1), -1)))

    leibniz = report.new("leibniz: d(fg) = d(f)g + f d(g)")
    for _ in range(samples):
        f = random_element(rng, n, 2)
        g = random_element(rng, n, 2)
        lhs = exterior_d(f * g)
        rhs = exterior_d(f) * g + f * exterior_d(g)
        leibniz.record(f"f={f} g={g}", lhs, rhs)

    graded = report.new("graded-leibniz: d(u^v) = d(u)^v + (-1)^deg(u) u^d(v)")
    for _ in range(samples):
        deg_u = rng.randint(0, min(2, n))
        indices = tuple(sorted(rng.sample(range(1, n + 1), deg_u)))
        u = Form.monomial(n, indices, random_element(rng, n, 2))
        v = random_form(rng, n, 1)
        sign = -1 if deg_u % 2 else 1
        lhs = exterior_d(u * v)
        rhs = exterior_d(u) * v + (u * exterior_d(v)).scale(sign)
        graded.record(f"u={u} v={v}", lhs, rhs)

    nilpotent = report.new("nilpotency: d(d(u)) = 0")
    zero = Form.zero(n)
    for _ in range(samples):
        f = random_element(rng, n, 3)
        nilpotent.record(f"f={f}", exterior_d(exterior_d(f)), zero)
    for _ in range(samples // 2):
        u = random_form(rng, n, min(2, n))
        nilpotent.record(f"u={u}", exterior_d(exterior_d(u)), zero)

    assoc = report.new("wedge-associative: (uv)w = u(vw)")
    for _ in range(max(1, samples // 2)):
        u = random_form(rng, n, min(2, n))
        v = random_form(rng, n, 1)
        w = random_form(rng, n, 1)
        assoc.record(f"u={u} v={v} w={w}", (u * v) * w, u * (v * w))
    return report


def check_bicovariance(n: int, samples: int = 100, seed: int = 0) -> CheckReport:
    """Comodule axioms of the two coactions, the bicomodule compatibility,
    relation preservation, the bimodule rule, and agreement with d."""
    import random

    rng = random.Random(f"{seed}:bicovariance:{n}")
    report = CheckReport(f"bicovariance(n={n})")
    aq2 = (monomial_key_mul, monomial_key_mul)
    right_expand = expansion(partial(_right_coaction_key, n))
    left_expand = expansion(lambda key: tau(_right_coaction_key(n, key)))

    basis_forms = [Form.dx(n, i) for i in range(1, n + 1)]
    basis_forms += [Form.dx(n, i) * Element.generator(n, j)
                    for i in range(1, n + 1) for j in range(1, n + 1)]
    basis_forms += [Form.from_element(Element.generator(n, i)) for i in range(1, n + 1)]
    basis_forms.append(Form.from_element(Element.x1_inverse(n)))

    right_axiom = report.new("right-comodule: (dR x id) dR = (id x D) dR")
    left_axiom = report.new("left-comodule: (id x dL) dL = (D x id) dL")
    bicomodule = report.new("bicomodule: (id x dR) dL = (dL x id) dR")
    counit_leg = report.new("comodule-counit-leg: contracting the algebra leg restores the form")
    for idx, u in enumerate(basis_forms):
        inputs = f"u={u}"
        tr = delta_right(u)
        lhs = tr.expand_slot(0, right_expand, _RIGHT_MULS)
        rhs = tr.expand_slot(1, _coproduct_expand_aq(n), aq2)
        right_axiom.record(inputs, lhs, rhs)
        tl = delta_left(u)
        lhs = tl.expand_slot(1, left_expand, _LEFT_MULS)
        rhs = tl.expand_slot(0, _coproduct_expand_aq(n), aq2)
        left_axiom.record(inputs, lhs, rhs)
        lhs = tl.expand_slot(1, right_expand, _RIGHT_MULS)
        rhs = tr.expand_slot(0, left_expand, _LEFT_MULS)
        bicomodule.record(inputs, lhs, rhs)
        counit_leg.record(inputs, form_slot_to_form(tr.contract_slot(1, _counit_key_aq), n), u)
        counit_leg.record(inputs, form_slot_to_form(tl.contract_slot(0, _counit_key_aq), n), u)

    relation = report.new("coaction-relation: d(x_i dx_j) = eta(e_i,e_j) d(dx_j) d(x_i)")
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            factor = commutation_factor(basis_vector(n, i), basis_vector(n, j))
            x_i = Element.generator(n, i)
            dx_j = Form.dx(n, j)
            relation.record(
                f"right i={i} j={j}",
                delta_right(x_i * dx_j),
                (delta_right(dx_j) * delta_right(Form.from_element(x_i))).scale(factor))
            relation.record(
                f"left i={i} j={j}",
                delta_left(x_i * dx_j),
                (delta_left(dx_j) * delta_left(Form.from_element(x_i))).scale(factor))

    bimodule_rule = report.new("coaction-bimodule: delta(a p b) = D(a) delta(p) D(b)")
    for _ in range(max(1, samples // 2)):
        a = Element.monomial(n, random_exponent(rng, n, -2, 2, 2))
        b = Element.monomial(n, random_exponent(rng, n, -2, 2, 2))
        j = rng.randint(1, n)
        p = Form.dx(n, j)
        inputs = f"a={a} j={j} b={b}"
        lhs = delta_right(a * p * b)
        rhs = delta_right(Form.from_element(a)) * delta_right(p) * delta_right(Form.from_element(b))
        bimodule_rule.record("right " + inputs, lhs, rhs)
        lhs = delta_left(a * p * b)
        rhs = delta_left(Form.from_element(a)) * delta_left(p) * delta_left(Form.from_element(b))
        bimodule_rule.record("left " + inputs, lhs, rhs)

    compat = report.new("coaction-of-d: dR(d(f)) = (d x id)D(f) and dL(d(f)) = (id x d)D(f)")
    for _ in range(samples):
        f = random_element(rng, n, 2)
        t = coproduct(f)
        inputs = f"f={f}"
        compat.record("right " + inputs, delta_right(exterior_d(f)),
                      t.expand_slot(0, _d_key_expansion(n), (form_key_mul,)))
        compat.record("left " + inputs, delta_left(exterior_d(f)),
                      t.expand_slot(1, _d_key_expansion(n), (form_key_mul,)))

    degree_zero = report.new("coaction-on-degree-0: both coactions act as the coproduct")
    for _ in range(max(1, samples // 2)):
        f = random_element(rng, n, 2)
        t = coproduct(f)
        expected_right = Tensor(_RIGHT_MULS, {(((), a), b): c for (a, b), c in t.terms.items()})
        expected_left = Tensor(_LEFT_MULS, {(a, ((), b)): c for (a, b), c in t.terms.items()})
        degree_zero.record(f"f={f}", delta_right(f), expected_right)
        degree_zero.record(f"f={f}", delta_left(f), expected_left)
    return report
