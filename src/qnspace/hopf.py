"""Coproduct, counit, and antipode for both carriers, with axiom checkers.

Coordinate algebra (x1 invertible, i >= 2):

    D(x1^(+-1)) = x1^(+-1) (x) x1^(+-1)
    D(x_i) = x_i (x) x1 + x1 (x) x_i
    e(x1) = 1, e(x_i) = 0
    S(x1) = x1^-1, S(x_i) = -x1^-1 x_i x1^-1

Operator algebra:

    D(s_i) = s_i (x) s_i
    D(d_i) = d_i (x) 1 + s_i (x) d_i
    e(s_i) = 1, e(d_i) = 0
    S(s_i) = s_i^-1, S(d_i) = -s_i^-1 d_i

D and e extend multiplicatively over PBW/normal-form words, S as an
anti-homomorphism by reversing the generator word.  Tensor products carry the
usual componentwise multiplication (a x b)(c x d) = ac x bd.  The coordinate
coproduct is cocommutative; the operator coproduct is not, and the checker
asserts that failure exactly.

On a basis key both extensions are closed forms.  Write |a'| = a2+...+an,
|a| = a1+|a'|, C = commutation_exponent, and let k run over 0 <= k <= a'
(or beta) entrywise, with m = a' - k (or beta - k):

    S(x^a)       = (-1)^|a'| q^(|a| sum_i (i-1) a_i) x1^(-a1-2|a'|) x2^a2 ... xn^an
    S(s^g d^b)   = (-1)^|b| q^C(g,b) s^(-g-b) d^b
    D(x^a)       = sum_k prod_i C(a_i,k_i) q^E x^(a1+|m|, k2..kn) (x) x^(a1+|k|, m2..mn),
                   E = -sum_{i<=j} (i-1) k_i m_j - sum_{i<j} (i-1) m_i k_j
    D(s^g d^b)   = sum_k prod_i C(b_i,k_i) q^(-pairing(m,k)) s^(g+m) d^k (x) s^g d^m

Proofs.  The merge exponent w of either carrier is bilinear in its two keys
(pairing(a, b); C(b1, g2) + pairing(b1, b2) for words), so a product of keys
v_1 ... v_r is q^(sum_{s<t} w(v_s, v_t)) times the key v_1 + ... + v_r.
- S(x^a) = S(xn)^an ... S(x2)^a2 x1^-a1, S(x_i) = -q^(i-1) x^(e_i-2e_1).  Pairs
  of factors give pairing(e_i-2e_1, e_j-2e_1) = (i-1)+(j-1) for i > j and
  2(i-1) for i = j, and (i-1) a1 against x1^-a1: |a| sum_i (i-1) a_i in all.
- S(s^g d^b) = S(d_n)^bn ... S(d_1)^b1 s^-g, S(d_i) = -s_i^-1 d_i, and
  w((-e_i, e_i), (-e_j, e_j)) = pairing(e_j, e_i) = 0 for i >= j, while
  w((-b, b), (-g, 0)) = C(g, b).
- The two terms of D(x_i) commute (their legs commute by q^(1-i) and
  q^(i-1)), so by the binomial theorem (Kassel, Quantum Groups, GTM 155,
  IV.2, commutation factor 1) D(x_i)^a_i = sum_k C(a_i,k) x_i^k x1^m (x)
  x1^k x_i^m.  In the left leg x1^a1 x2^k2 x1^m2 ... xn^kn x1^mn, moving
  x1^m_j past x_i^k_i (i <= j) costs q^(-(i-1) k_i m_j); in the right leg
  x1^a1 x1^k2 x2^m2 ..., moving x1^k_j past x_i^m_i (i < j), q^(-(i-1) m_i k_j).
- The two terms of D(d_i) commute as eta(e_i, e_i) = 1, so D(d_i)^b_i =
  sum_k C(b_i,k) s_i^m d_i^k (x) d_i^m.  The right leg s^g d^m is in normal
  form; in the left leg moving s_j^m_j past d_i^k_i (i < j) costs
  q^((j-i) k_i m_j), which sums to -pairing(m, k).
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import product
from math import comb, prod
from typing import Callable, NamedTuple

from .bicharacter import (basis_vector, commutation_exponent, commutation_factor, pairing,
                          vector_add, vector_neg)
from .operators import Operator, act_key, sigma as apply_sigma, word_key_mul, words_up_to
from .qspace import Element, monomial_key_mul, random_element, random_exponent
from .report import CheckReport
from .scalar import LaurentScalar, format_term, join_terms
from .tensors import Tensor, expansion

# A coproduct is cached per key; the keys are arbitrary exponents, so the
# caches are bounded.  `check all --n 3 --deg 4` holds a few hundred keys.
COPRODUCT_CACHE_SIZE = 4096


def _binomial_box(exponents):
    """(k, m, prod_i C(e_i, k_i)) for every 0 <= k <= exponents entrywise,
    with m = exponents - k."""
    for k in product(*(range(e + 1) for e in exponents)):
        yield k, tuple(e - ki for e, ki in zip(exponents, k)), prod(map(comb, exponents, k))


# ---------------------------------------------------------------------------
# Coordinate algebra side

@lru_cache(maxsize=COPRODUCT_CACHE_SIZE)
def _monomial_coproduct(n: int, alpha) -> Tensor:
    a1, rest = alpha[0], alpha[1:]
    terms = {}
    for k, m, binomial in _binomial_box(rest):
        # E of the module docstring, summed over j = 2..n (weight j-1):
        # wk = sum_{i<=j} (i-1) k_i and wm = sum_{i<j} (i-1) m_i.
        exponent = wk = wm = 0
        for weight, (k_j, m_j) in enumerate(zip(k, m), start=1):
            wk += weight * k_j
            exponent -= wk * m_j + wm * k_j
            wm += weight * m_j
        terms[(a1 + sum(m),) + k, (a1 + sum(k),) + m] = LaurentScalar.q_power(exponent, binomial)
    return Tensor((monomial_key_mul,) * 2, terms)


def _counit_key_aq(alpha) -> int:
    """e(x^alpha): 1 on powers of x1, else 0."""
    return 0 if any(alpha[1:]) else 1


def _antipode_aq(alpha):
    """The key map of S on the coordinate algebra."""
    a1, rest = alpha[0], alpha[1:]
    degree = sum(rest)
    weight = sum(i * a for i, a in enumerate(rest, start=1))
    sign = -1 if degree % 2 else 1
    return sign, (a1 + degree) * weight, (-a1 - 2 * degree,) + rest


# ---------------------------------------------------------------------------
# Operator algebra side

@lru_cache(maxsize=COPRODUCT_CACHE_SIZE)
def _word_coproduct(n: int, word) -> Tensor:
    gamma, beta = word
    return Tensor((word_key_mul,) * 2, {
        ((vector_add(gamma, m), k), (gamma, m)): LaurentScalar.q_power(-pairing(m, k), binomial)
        for k, m, binomial in _binomial_box(beta)})


def _counit_key_dq(key) -> int:
    """e(s^gamma d^beta): 1 on words without derivatives, else 0."""
    return 0 if any(key[1]) else 1


def _antipode_dq(word):
    """The key map of S on the operator algebra."""
    gamma, beta = word
    sign = -1 if sum(beta) % 2 else 1
    return sign, commutation_exponent(gamma, beta), (vector_neg(vector_add(gamma, beta)), beta)


# ---------------------------------------------------------------------------
# Public entry points (dispatch on the carrier)

class _HopfMaps(NamedTuple):
    """The structure maps of a carrier on one key; the coproduct takes the
    dimension first."""
    coproduct: Callable
    counit: Callable
    antipode: Callable


_HOPF_MAPS = {
    Element: _HopfMaps(_monomial_coproduct, _counit_key_aq, _antipode_aq),
    Operator: _HopfMaps(_word_coproduct, _counit_key_dq, _antipode_dq),
}


def _hopf_maps(value, name: str) -> _HopfMaps:
    maps = _HOPF_MAPS.get(type(value))
    if maps is None:
        raise TypeError(f"{name} expects Element or Operator, got {type(value).__name__}")
    return maps


def coproduct(value) -> Tensor:
    """Coproduct of an Element or Operator, as a 2-slot tensor."""
    coproduct_of = _hopf_maps(value, "coproduct").coproduct
    return value.linear(partial(coproduct_of, value.n), Tensor((value._merge,) * 2))


def counit(value) -> LaurentScalar:
    counit_of = _hopf_maps(value, "counit").counit
    return sum((coeff for key, coeff in value.terms.items() if counit_of(key)), LaurentScalar.zero())


def antipode(value):
    return value.map_keys(_hopf_maps(value, "antipode").antipode)


def tau(t: Tensor) -> Tensor:
    """The flip a (x) b -> b (x) a."""
    return t.swap_slots(0, 1)


# ---------------------------------------------------------------------------
# Conversions and rendering

def tensor1_to_element(t: Tensor, n: int) -> Element:
    return Element(n, {keys[0]: c for keys, c in t.terms.items()})


def tensor1_to_operator(t: Tensor, n: int) -> Operator:
    return Operator(n, {keys[0]: c for keys, c in t.terms.items()})


def _slot_carrier(kind: str):
    """The carrier whose keys fill the slots of a tensor of the given kind."""
    if kind not in ("aq", "dq"):
        raise ValueError(f"unknown slot kind {kind!r}")
    return Element if kind == "aq" else Operator


def tensor_text(t: Tensor, kind: str) -> str:
    """Readable form of a 2-slot tensor, e.g. 'x2 (x) x1 + x1 (x) x2'."""
    carrier = _slot_carrier(kind)
    return join_terms(format_term(coeff, " (x) ".join(carrier._key_str(key) or "1" for key in keys))
                      for keys, coeff in t.sorted_terms())


def tensor_to_json(t: Tensor, kind: str, n: int):
    if t.slot_count != 2:
        raise ValueError("only 2-slot tensors have a documented schema")
    carrier = _slot_carrier(kind)
    return {
        "n": n,
        "slots": [kind, kind],
        "terms": [
            {"left": carrier._key_json(keys[0]), "right": carrier._key_json(keys[1]),
             "coeff": coeff.to_json()["coeff"]}
            for keys, coeff in t.sorted_terms()
        ],
    }


def tensor_from_json(data) -> Tensor:
    carrier = _slot_carrier(data["slots"][0])
    return Tensor((carrier._merge,) * 2, {
        (carrier._key_from_json(term["left"]), carrier._key_from_json(term["right"])):
            LaurentScalar.from_json(term)
        for term in data["terms"]})


def apply_pair_tensor(t: Tensor, f: Element, g: Element) -> Element:
    """Act with a 2-slot operator tensor on f (x) g and multiply the legs."""
    return t.linear(lambda keys: f.map_keys(partial(act_key, keys[0]))
                    * g.map_keys(partial(act_key, keys[1])), f)


# ---------------------------------------------------------------------------
# Checkers

def _coproduct_expand_aq(n: int):
    return expansion(partial(_monomial_coproduct, n))


def check_hopf_coordinate_algebra(n: int, monomials, pair_samples: int = 300,
                                  seed: int = 0) -> CheckReport:
    """Hopf axioms, cocommutativity, relation preservation, and the
    coalgebra anti-homomorphism law of S on the given monomial set."""
    import random

    rng = random.Random(f"{seed}:hopf-aqn:{n}")
    report = CheckReport(f"hopf-coordinate(n={n})")
    monomials = sorted(monomials)
    expand = _coproduct_expand_aq(n)

    coassoc = report.new("coassociativity: (D x id)D = (id x D)D")
    counit_law = report.new("counit: (e x id)D = id = (id x e)D")
    antipode_left = report.new("antipode-left: m(S x id)D = e(f) 1")
    antipode_right = report.new("antipode-right: m(id x S)D = e(f) 1")
    cocomm = report.new("cocommutativity: tau D = D")
    anti_coalg = report.new("S-coalgebra-antihom: tau (S x S) D = D S")
    counit_s = report.new("counit-of-antipode: e S = e")
    s_squared = report.new("antipode-involutive: S S = id")

    for alpha in monomials:
        f = Element.monomial(n, alpha)
        t = coproduct(f)
        inputs = f"alpha={list(alpha)}"
        coassoc.record(inputs, t.expand_slot(0, expand, (monomial_key_mul,) * 2),
                       t.expand_slot(1, expand, (monomial_key_mul,) * 2))
        counit_law.record(inputs, tensor1_to_element(t.contract_slot(0, _counit_key_aq), n), f)
        counit_law.record(inputs, tensor1_to_element(t.contract_slot(1, _counit_key_aq), n), f)
        eps_f = Element.one(n).scale(counit(f))
        antipode_left.record(inputs, tensor1_to_element(t.map_slot(0, _antipode_aq).merge_slots(0), n), eps_f)
        antipode_right.record(inputs, tensor1_to_element(t.map_slot(1, _antipode_aq).merge_slots(0), n), eps_f)
        cocomm.record(inputs, tau(t), t)
        anti_coalg.record(inputs, tau(t.map_slot(0, _antipode_aq).map_slot(1, _antipode_aq)),
                          coproduct(antipode(f)))
        counit_s.record(inputs, counit(antipode(f)), counit(f))
        s_squared.record(inputs, antipode(antipode(f)), f)

    relations = report.new("relation-preservation: D(x^u x^v) = eta(u,v) D(x^v) D(x^u)")
    pseudo_gens = [basis_vector(n, 1), vector_neg(basis_vector(n, 1))]
    pseudo_gens += [basis_vector(n, i) for i in range(2, n + 1)]
    for u in pseudo_gens:
        for v in pseudo_gens:
            fu, fv = Element.monomial(n, u), Element.monomial(n, v)
            factor = commutation_factor(u, v)
            inputs = f"u={list(u)} v={list(v)}"
            relations.record(inputs, coproduct(fu * fv),
                             (coproduct(fv) * coproduct(fu)).scale(factor))
            # same relation checked on the unmerged word: D(x^u)D(x^v)
            relations.record(inputs, coproduct(fu) * coproduct(fv),
                             (coproduct(fv) * coproduct(fu)).scale(factor))

    hom = report.new("coproduct-homomorphism: D(fg) = D(f)D(g)")
    counit_hom = report.new("counit-homomorphism: e(fg) = e(f)e(g)")
    anti_mul = report.new("antipode-antihomomorphism: S(fg) = S(g)S(f)")
    for _ in range(pair_samples):
        a = rng.choice(monomials)
        b = rng.choice(monomials)
        f, g = Element.monomial(n, a), Element.monomial(n, b)
        inputs = f"a={list(a)} b={list(b)}"
        hom.record(inputs, coproduct(f * g), coproduct(f) * coproduct(g))
        counit_hom.record(inputs, counit(f * g), counit(f) * counit(g))
        anti_mul.record(inputs, antipode(f * g), antipode(g) * antipode(f))
    return report


def check_hopf_operator_algebra(n: int, word_degree: int = 3, seed: int = 0) -> CheckReport:
    """Hopf axioms on all normal-form words up to the given degree, relation
    preservation under D, the anti-homomorphism law of S, and the exact
    non-cocommutativity witness."""
    if word_degree < 1:
        raise ValueError("word_degree must be >= 1")
    import random

    rng = random.Random(f"{seed}:dq-hopf:{n}")
    report = CheckReport(f"hopf-operator(n={n})")
    expand = expansion(partial(_word_coproduct, n))

    coassoc = report.new("coassociativity: (D x id)D = (id x D)D")
    counit_law = report.new("counit: (e x id)D = id = (id x e)D")
    antipode_left = report.new("antipode-left: m(S x id)D = e(u) 1")
    antipode_right = report.new("antipode-right: m(id x S)D = e(u) 1")
    for gamma, beta in words_up_to(n, word_degree):
        u = Operator.word(n, gamma, beta)
        t = coproduct(u)
        inputs = f"gamma={list(gamma)} beta={list(beta)}"
        coassoc.record(inputs, t.expand_slot(0, expand, (word_key_mul,) * 2),
                       t.expand_slot(1, expand, (word_key_mul,) * 2))
        counit_law.record(inputs, tensor1_to_operator(t.contract_slot(0, _counit_key_dq), n), u)
        counit_law.record(inputs, tensor1_to_operator(t.contract_slot(1, _counit_key_dq), n), u)
        eps_u = Operator.one(n).scale(counit(u))
        antipode_left.record(inputs, tensor1_to_operator(t.map_slot(0, _antipode_dq).merge_slots(0), n), eps_u)
        antipode_right.record(inputs, tensor1_to_operator(t.map_slot(1, _antipode_dq).merge_slots(0), n), eps_u)

    relations = report.new("relation-preservation under D")
    rel_eps = report.new("relation-preservation under e")
    rel_s = report.new("relation-preservation under S (sides reversed)")
    for i in range(1, n + 1):
        e_i = basis_vector(n, i)
        d_i = Operator.partial(n, i)
        for j in range(1, n + 1):
            e_j = basis_vector(n, j)
            d_j = Operator.partial(n, j)
            eta_ij = commutation_factor(e_i, e_j)
            relations.record(f"d{i} d{j}", coproduct(d_i) * coproduct(d_j),
                             (coproduct(d_j) * coproduct(d_i)).scale(eta_ij))
            rel_eps.record(f"d{i} d{j}", counit(d_i) * counit(d_j),
                           counit(d_j) * counit(d_i) * eta_ij)
            rel_s.record(f"d{i} d{j}", antipode(d_j) * antipode(d_i),
                         (antipode(d_i) * antipode(d_j)).scale(eta_ij))
            for sign in (1, -1):
                a = tuple(sign * e for e in e_j)
                s_a = Operator.sigma_word(n, a)
                eta_ai = commutation_factor(a, e_i)
                relations.record(f"s{j}^{sign} d{i}", coproduct(s_a) * coproduct(d_i),
                                 (coproduct(d_i) * coproduct(s_a)).scale(eta_ai))
                rel_eps.record(f"s{j}^{sign} d{i}", counit(s_a) * counit(d_i),
                               counit(d_i) * counit(s_a) * eta_ai)
                rel_s.record(f"s{j}^{sign} d{i}", antipode(d_i) * antipode(s_a),
                             (antipode(s_a) * antipode(d_i)).scale(eta_ai))
                s_b = Operator.sigma_gen(n, i)
                merged = Operator.sigma_word(n, vector_add(a, e_i))
                relations.record(f"s{j}^{sign} s{i}",
                                 coproduct(s_a) * coproduct(s_b), coproduct(merged))
                relations.record(f"s{j}^{sign} s{i}",
                                 coproduct(s_a) * coproduct(s_b),
                                 coproduct(s_b) * coproduct(s_a))
                rel_eps.record(f"s{j}^{sign} s{i}", counit(s_a) * counit(s_b), counit(merged))
                rel_s.record(f"s{j}^{sign} s{i}", antipode(s_b) * antipode(s_a), antipode(merged))

    hom = report.new("coproduct-homomorphism: D(uv) = D(u)D(v)")
    anti_mul = report.new("antipode-antihomomorphism: S(uv) = S(v)S(u)")
    words = words_up_to(n, min(word_degree, 2))
    for _ in range(100):
        k1 = rng.choice(words)
        k2 = rng.choice(words)
        u, v = Operator.word(n, *k1), Operator.word(n, *k2)
        inputs = f"u={u} v={v}"
        hom.record(inputs, coproduct(u * v), coproduct(u) * coproduct(v))
        anti_mul.record(inputs, antipode(u * v), antipode(v) * antipode(u))

    noncocomm = report.new("non-cocommutativity: tau D(d_i) != D(d_i)")
    for i in range(1, n + 1):
        t = coproduct(Operator.partial(n, i))
        noncocomm.record_differ(f"i={i}", tau(t), t)
    return report


def check_module_algebra(n: int, samples: int = 200, seed: int = 0) -> CheckReport:
    """m(D(u)(f x g)) = u(fg) for every generator u of the operator algebra,
    with f a random monomial and g a random element."""
    import random

    rng = random.Random(f"{seed}:module-algebra:{n}")
    report = CheckReport(f"module-algebra(n={n})")
    partial_case = report.new("module-algebra: m(D(d_i)(f x g)) = d_i(fg)")
    sigma_case = report.new("module-algebra: m(D(s_i)(f x g)) = s_i(fg) = s_i(f)s_i(g)")
    for _ in range(samples):
        alpha = random_exponent(rng, n, -3, 4, 4)
        f = Element.monomial(n, alpha)
        g = random_element(rng, n)
        for i in range(1, n + 1):
            d_i = Operator.partial(n, i)
            lhs = apply_pair_tensor(coproduct(d_i), f, g)
            partial_case.record(f"i={i} f={f} g={g}", lhs, d_i.apply(f * g))
            s_i = Operator.sigma_gen(n, i)
            lhs = apply_pair_tensor(coproduct(s_i), f, g)
            e_i = basis_vector(n, i)
            rhs = apply_sigma(e_i, f * g)
            sigma_case.record(f"i={i} f={f} g={g}", lhs, rhs)
            sigma_case.record(f"i={i} f={f} g={g}", rhs,
                              apply_sigma(e_i, f) * apply_sigma(e_i, g))
    return report
