"""Twisted partial derivatives, scaling automorphisms, and the normal-form
algebra of the words they generate.

derive(i, f) lowers the i-th exponent by one like an ordinary partial
derivative, but scaled by the commutation factor of the exponents left of
slot i against e_i:

    d_i(x^a) = eta(abar_i, e_i) * a_i * x^(a - e_i),
    abar_i = (a_1, ..., a_{i-1}, 0, ..., 0)

At q = 1 this is the ordinary partial derivative; for i = 1 it also applies
to negative powers of x1 (d_1(x1^z) = z x1^(z-1)).  sigma(b, f) rescales
x^a by eta(a, b) and is an algebra automorphism.  Together they obey the
twisted Leibniz rule d_i(fg) = d_i(f) g + sigma_i(f) d_i(g).

Words sigma^g d^b close under composition with normal form sigma-block then
d-block, both sorted by index:

    d_i d_j     = eta(e_i, e_j) d_j d_i
    sigma_a sigma_b = sigma_(a+b)
    sigma_a d_i = eta(a, e_i) d_i sigma_a

so two words multiply to a single word with a q-power:

    (s^g1 d^b1)(s^g2 d^b2) = eta(b1, g2) q**pairing(b1, b2) s^(g1+g2) d^(b1+b2)

A word acts on a monomial as one monomial too (act_key), with C the
commutation exponent, eta(a, b) = q**C(a, b):

    s^g d^b x^a = prod_i a_i(a_i - 1)...(a_i - b_i + 1)
                  * q**(C(a - b, g) - pairing(b, a)) * x^(a - b),

which is 0 when some 0 <= a_i < b_i.  Proof: the derivatives act
rightmost first, d_n^b_n before d_(n-1)^b_(n-1) and so on.  The factor
eta(abar_i, e_i) = q**(sum_{j<i} (i-j) a_j) of d_i reads only the entries
left of slot i, which the derivatives applied before it never change.  So
d_i^b_i gives the falling factorial of a_i times
q**(b_i sum_{j<i} (i-j) a_j), and these exponents sum to -pairing(b, a).
The sigma block then scales x^(a-b) by eta(a - b, g).  For a_1 < 0 the
falling factorial is (-1)^b_1 |a_1|(|a_1|+1)...(|a_1|+b_1-1).  derive,
sigma, Operator.apply and the exterior derivative all act through this one
key map.

reduce_word re-derives normal forms one adjacent rewrite at a time under a
configurable strategy, so the test suite can confirm the rewriting system is
confluent rather than assuming it.
"""

from __future__ import annotations

from functools import partial
from math import perm

from .bicharacter import (basis_vector, commutation_exponent, commutation_factor,
                          pairing, vector_add)
from .qspace import Element, _bounded, monomial_box, monomials_up_to, random_element, random_exponent
from .report import CheckReport
from .scalar import LaurentScalar
from .tensors import SpaceSparse, collect


def act_key(word, alpha):
    """The key map x^a -> (c, k, a - beta) of the word (gamma, beta), or None if it kills x^a."""
    gamma, beta = word
    c = 1
    # Right to left, as the derivatives act: a killing slot is met before the factorials left of it.
    for a_i, b_i in zip(reversed(alpha), reversed(beta)):
        if b_i:
            if 0 <= a_i < b_i:
                return None
            c *= perm(a_i, b_i) if a_i >= 0 else (-1) ** b_i * perm(b_i - a_i - 1, b_i)
    key = tuple([a - b for a, b in zip(alpha, beta)])
    k = 0
    for i in range(1, len(key)):
        g_i, b_i, m_i = gamma[i], beta[i], key[i]
        for j in range(i):
            k += (j - i) * (m_i * gamma[j] - g_i * key[j] - b_i * alpha[j])
    return c, k, key


def derive(i: int, f: Element) -> Element:
    """Apply the twisted partial derivative d_i (1-based index)."""
    n = f.n
    if not 1 <= i <= n:
        raise ValueError(f"derivative index {i} out of range 1..{n}")
    return f.map_keys(partial(act_key, ((0,) * n, basis_vector(n, i))))


def sigma(beta, f: Element) -> Element:
    """Apply the automorphism sigma_beta: x^a -> eta(a, beta) x^a."""
    beta = tuple(beta)
    if len(beta) != f.n:
        raise ValueError(f"dimension mismatch: {len(beta)} != {f.n}")
    return f.map_keys(partial(act_key, (beta, (0,) * f.n)))


def word_key_mul(k1, k2):
    """Merge two normal-form word keys (gamma, beta); returns (1, k, key)."""
    g1, b1 = k1
    g2, b2 = k2
    exponent = commutation_exponent(b1, g2) + pairing(b1, b2)
    return 1, exponent, (vector_add(g1, g2), vector_add(b1, b2))


class Operator(SpaceSparse):
    """A Laurent combination of normal-form words sigma^gamma d^beta.

    terms maps (gamma, beta) pairs to nonzero coefficients; gamma ranges over
    Z^n (the sigmas are invertible), beta over (Z_+)^n.
    """

    __slots__ = ()
    _merge = staticmethod(word_key_mul)

    def _check_key(self, key):
        gamma, beta = tuple(key[0]), tuple(key[1])
        if len(gamma) != self.n or len(beta) != self.n:
            raise ValueError(f"word exponents must have length {self.n}")
        if any(not isinstance(e, int) for e in gamma + beta):
            raise TypeError("word exponents must be int")
        if any(e < 0 for e in beta):
            raise ValueError("derivative exponents must be nonnegative")
        return gamma, beta

    def _unit_key(self):
        z = (0,) * self.n
        return z, z

    @classmethod
    def word(cls, n: int, gamma, beta, coeff=1) -> "Operator":
        return cls(n, {(tuple(gamma), tuple(beta)): coeff})

    @classmethod
    def partial(cls, n: int, i: int) -> "Operator":
        return cls.word(n, (0,) * n, basis_vector(n, i))

    @classmethod
    def sigma_word(cls, n: int, gamma) -> "Operator":
        return cls.word(n, gamma, (0,) * n)

    @classmethod
    def sigma_gen(cls, n: int, i: int, power: int = 1) -> "Operator":
        return cls.word(n, tuple(power if k == i - 1 else 0 for k in range(n)), (0,) * n)

    def apply(self, f: Element) -> Element:
        """Act on an algebra element, each word on each monomial by act_key."""
        if f.n != self.n:
            raise ValueError(f"dimension mismatch: {self.n} != {f.n}")
        return f._like(collect(self._products(f, act_key)))

    @staticmethod
    def _key_str(word):
        return word_str(*word)

    @staticmethod
    def _key_json(word):
        return {"gamma": list(word[0]), "beta": list(word[1])}

    @staticmethod
    def _key_from_json(term):
        return tuple(term["gamma"]), tuple(term["beta"])


def word_str(gamma, beta) -> str | None:
    """Printable form of sigma^gamma d^beta, or None for the identity word."""
    pieces = []
    for i, e in enumerate(gamma, start=1):
        if e == 0:
            continue
        pieces.append(f"s{i}" if e == 1 else f"s{i}^{e}")
    for i, e in enumerate(beta, start=1):
        if e == 0:
            continue
        pieces.append(f"d{i}" if e == 1 else f"d{i}^{e}")
    return " ".join(pieces) if pieces else None


# ---------------------------------------------------------------------------
# Letter-level rewriting (used by the confluence checks)

def word_letters(gamma, beta):
    """Spell sigma^gamma d^beta as a list of generator letters."""
    letters = []
    for i, e in enumerate(gamma, start=1):
        letters.extend([("s", i, 1 if e > 0 else -1)] * abs(e))
    for i, e in enumerate(beta, start=1):
        letters.extend([("d", i)] * e)
    return letters


def _swap_exponent(left, right):
    """q-exponent for swapping adjacent letters left,right -> right,left,
    or None if the pair is already in normal order."""
    if left[0] == "d" and right[0] == "s":
        # d_i s_j^t = q^(t*(j-i)) s_j^t d_i
        return right[2] * (right[1] - left[1])
    if left[0] == "d" and right[0] == "d" and left[1] > right[1]:
        # d_i d_j = q^(j-i) d_j d_i for i > j
        return right[1] - left[1]
    if left[0] == "s" and right[0] == "s" and left[1] > right[1]:
        return 0
    return None


def reduce_word(n: int, letters, strategy="left", rng=None) -> Operator:
    """Bring a generator word to normal form one adjacent rewrite at a time.

    strategy 'left'/'right' picks the first/last admissible position each
    step; 'random' draws one from rng.  Every choice must reach the same
    normal form -- the confluence check exercises exactly that.
    """
    word = list(letters)
    exponent = 0
    while True:
        admissible = [k for k in range(len(word) - 1)
                      if _swap_exponent(word[k], word[k + 1]) is not None]
        if not admissible:
            break
        if strategy == "left":
            k = admissible[0]
        elif strategy == "right":
            k = admissible[-1]
        elif strategy == "random":
            k = rng.choice(admissible)
        else:
            raise ValueError(f"unknown strategy {strategy!r}")
        exponent += _swap_exponent(word[k], word[k + 1])
        word[k], word[k + 1] = word[k + 1], word[k]
    gamma = [0] * n
    beta = [0] * n
    for letter in word:
        if letter[0] == "s":
            gamma[letter[1] - 1] += letter[2]
        else:
            beta[letter[1] - 1] += 1
    return Operator.word(n, tuple(gamma), tuple(beta), LaurentScalar.q_power(exponent))


def letters_to_operator(n: int, letters) -> Operator:
    """Multiply the letters out via the normal-form product (no rewriting)."""
    out = Operator.one(n)
    for letter in letters:
        if letter[0] == "s":
            out = out * Operator.sigma_gen(n, letter[1], letter[2])
        else:
            out = out * Operator.partial(n, letter[1])
    return out


def random_letters(rng, n: int, max_len: int = 6):
    length = rng.randint(1, max_len)
    letters = []
    for _ in range(length):
        if rng.random() < 0.5:
            letters.append(("d", rng.randint(1, n)))
        else:
            letters.append(("s", rng.randint(1, n), rng.choice((1, -1))))
    return letters


def words_up_to(n: int, degree: int):
    """All normal-form word keys (gamma, beta) with sum|gamma| + sum(beta) <= degree."""
    return [(gamma, beta) for gamma, left in _bounded(n, degree, True)
            for beta, _ in _bounded(n, left, False)]


# ---------------------------------------------------------------------------
# Checkers

def weyl_relation_check(n: int, deg_bound: int = 4) -> CheckReport:
    """d_i x_j = delta_ij + eta(e_j, e_i) x_j d_i as operators, applied to
    every monomial in the box |a1| <= deg_bound, 0 <= a_i <= deg_bound."""
    if deg_bound < 1:
        raise ValueError("deg_bound must be >= 1")

    report = CheckReport(f"weyl(n={n})")
    rel = report.new("weyl: d_i(x_j f) = delta_ij f + eta(e_j,e_i) x_j d_i(f)")
    for i in range(1, n + 1):
        e_i = basis_vector(n, i)
        for j in range(1, n + 1):
            x_j = Element.generator(n, j)
            factor = commutation_factor(basis_vector(n, j), e_i)
            for alpha in monomial_box(n, deg_bound):
                f = Element.monomial(n, alpha)
                lhs = derive(i, x_j * f)
                rhs = (f if i == j else Element.zero(n)) + (x_j * derive(i, f)).scale(factor)
                rel.record(f"i={i} j={j} alpha={list(alpha)}", lhs, rhs)
    return report


def check_derivations(n: int, deg_bound: int = 4, samples: int = 200, seed: int = 0) -> CheckReport:
    """Twisted Leibniz rule, sigma/derivative intertwining, derivative
    commutation, and the classical shape of d_1 on Laurent powers."""
    import random

    rng = random.Random(f"{seed}:derivations:{n}")
    report = CheckReport(f"derivations(n={n})")

    leibniz = report.new("leibniz: d_i(x^a g) = d_i(x^a) g + sigma_i(x^a) d_i(g)")
    for _ in range(samples):
        alpha = random_exponent(rng, n, -3, 4, 4)
        f = Element.monomial(n, alpha)
        g = random_element(rng, n)
        for i in range(1, n + 1):
            e_i = basis_vector(n, i)
            lhs = derive(i, f * g)
            rhs = derive(i, f) * g + sigma(e_i, f) * derive(i, g)
            leibniz.record(f"i={i} a={list(alpha)} g={g}", lhs, rhs)

    intertwine = report.new("intertwine: sigma_a(d_i(f)) = eta(a,e_i) d_i(sigma_a(f))")
    commute = report.new("commute: d_i(d_j(f)) = eta(e_i,e_j) d_j(d_i(f))")
    for alpha in monomials_up_to(n, deg_bound):
        f = Element.monomial(n, alpha)
        a = random_exponent(rng, n, -2, 2, 2)
        for i in range(1, n + 1):
            e_i = basis_vector(n, i)
            lhs = sigma(a, derive(i, f))
            rhs = derive(i, sigma(a, f)).scale(commutation_factor(a, e_i))
            intertwine.record(f"i={i} a={list(a)} alpha={list(alpha)}", lhs, rhs)
            for j in range(1, n + 1):
                lhs2 = derive(i, derive(j, f))
                rhs2 = derive(j, derive(i, f)).scale(
                    commutation_factor(e_i, basis_vector(n, j)))
                commute.record(f"i={i} j={j} alpha={list(alpha)}", lhs2, rhs2)

    laurent = report.new("laurent: d_1(x1^z) = z x1^(z-1)")
    for z in range(-deg_bound, deg_bound + 1):
        alpha = (z,) + (0,) * (n - 1)
        expected = Element.monomial(n, (z - 1,) + (0,) * (n - 1), z) if z else Element.zero(n)
        laurent.record(f"z={z}", derive(1, Element.monomial(n, alpha)), expected)
    return report


def check_operator_algebra(n: int, samples: int = 200, seed: int = 0) -> CheckReport:
    """Confluence of the word rewriting, representation property of the
    action, product associativity, and sigma invertibility."""
    import random

    rng = random.Random(f"{seed}:operators:{n}")
    report = CheckReport(f"operator-algebra(n={n})")

    confluent = report.new("rewriting.confluent: all strategies agree with the merged product")
    for _ in range(samples):
        letters = random_letters(rng, n)
        merged = letters_to_operator(n, letters)
        inputs = f"letters={letters}"
        confluent.record(inputs, reduce_word(n, letters, "left"), merged)
        confluent.record(inputs, reduce_word(n, letters, "right"), merged)
        confluent.record(inputs, reduce_word(n, letters, "random", rng), merged)

    represent = report.new("action.representation: (uv)(f) = u(v(f))")
    for _ in range(samples):
        u = letters_to_operator(n, random_letters(rng, n, 3))
        v = letters_to_operator(n, random_letters(rng, n, 3))
        f = random_element(rng, n)
        represent.record(f"u={u} v={v} f={f}", (u * v).apply(f), u.apply(v.apply(f)))

    assoc = report.new("mul.associative: (uv)w = u(vw)")
    for _ in range(max(1, samples // 2)):
        u = letters_to_operator(n, random_letters(rng, n, 3))
        v = letters_to_operator(n, random_letters(rng, n, 3))
        w = letters_to_operator(n, random_letters(rng, n, 3))
        assoc.record(f"u={u} v={v} w={w}", (u * v) * w, u * (v * w))

    inverse = report.new("sigma.inverse: s_i s_i^-1 = 1")
    one = Operator.one(n)
    for i in range(1, n + 1):
        s = Operator.sigma_gen(n, i)
        s_inv = Operator.sigma_gen(n, i, -1)
        inverse.record(f"i={i}", s * s_inv, one)
        inverse.record(f"i={i}", s_inv * s, one)
    return report
