"""PBW-ordered elements of the q-deformed coordinate algebra.

Generators x1..xn satisfy x_i x_j = q^(j-i) x_j x_i, and x1 is additionally
invertible, so exponent vectors live in Z x (Z_+)^(n-1).  A product of two
ordered monomials merges exponentwise and picks up a q-power:

    x^a * x^b = q**pairing(a, b) * x^(a+b)

swap_scalar recomputes that q-power by explicitly bubble-sorting the
concatenated generator word with one commutation factor per adjacent
transposition; it is kept as an independent cross-check of the merge rule
(see check_algebra).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .bicharacter import commutation_exponent, commutation_factor, pairing, vector_add
from .report import CheckReport
from .scalar import LaurentScalar, random_scalar
from .tensors import SpaceSparse


def validate_exponent(n: int, alpha) -> tuple[int, ...]:
    alpha = tuple(alpha)
    if len(alpha) != n:
        raise ValueError(f"dimension mismatch: exponent {list(alpha)} has length {len(alpha)}, expected {n}")
    for i, e in enumerate(alpha):
        if not isinstance(e, int):
            raise TypeError(f"exponent entries must be int, got {type(e).__name__}")
        if i >= 1 and e < 0:
            raise ValueError(f"exponent of x{i + 1} must be nonnegative (only x1 is invertible), got {e}")
    return alpha


def total_degree(alpha) -> int:
    """Sum of all exponents (the first may be negative)."""
    return sum(alpha)


def monomial_key_mul(a, b):
    """Merge two exponent keys: x^a x^b = q**pairing(a,b) x^(a+b), as (1, k, a+b)."""
    return 1, pairing(a, b), vector_add(a, b)


class Element(SpaceSparse):
    """A finite Laurent combination of PBW monomials x^a.

    terms maps exponent tuples to nonzero LaurentScalar coefficients; the
    empty map is 0 and {0: 1} is the unit.  Immutable by convention.
    """

    __slots__ = ()
    _merge = staticmethod(monomial_key_mul)

    def _check_key(self, alpha):
        return validate_exponent(self.n, alpha)

    def _unit_key(self):
        return (0,) * self.n

    @classmethod
    def monomial(cls, n: int, alpha, coeff=1) -> "Element":
        return cls(n, {tuple(alpha): coeff})

    @classmethod
    def generator(cls, n: int, i: int) -> "Element":
        """The generator x_i (1-based)."""
        if not 1 <= i <= n:
            raise ValueError(f"generator index {i} out of range 1..{n}")
        return cls(n, {tuple(1 if k == i - 1 else 0 for k in range(n)): 1})

    @classmethod
    def x1_inverse(cls, n: int) -> "Element":
        return cls(n, {(-1,) + (0,) * (n - 1): 1})

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            raise TypeError("exponent must be int")
        if exponent < 0:
            single = self.single_term()
            if single is None:
                raise ValueError("only monomials can be raised to negative powers")
            alpha, coeff = single
            if any(e for e in alpha[1:]) or len(coeff.terms) != 1:
                raise ValueError(f"{self} is not invertible")
            (k, c), = coeff.terms.items()
            inv = Element.monomial(self.n, (-alpha[0],) + alpha[1:], LaurentScalar.q_power(-k, Fraction(1) / c))
            return inv ** (-exponent)
        return super().__pow__(exponent)

    def evaluate_coeffs(self, v) -> dict:
        """Substitute q = v in every coefficient; returns {alpha: Fraction}."""
        out = {}
        for alpha, c in self.terms.items():
            value = c.evaluate(v)
            if value:
                out[alpha] = value
        return out

    @staticmethod
    def _key_str(alpha):
        return monomial_str(alpha)

    @staticmethod
    def _key_json(alpha):
        return {"alpha": list(alpha)}

    @staticmethod
    def _key_from_json(term):
        return tuple(term["alpha"])


def monomial_str(alpha) -> str | None:
    """Printable form of x^alpha, or None for the unit monomial."""
    pieces = []
    for i, e in enumerate(alpha, start=1):
        if e == 0:
            continue
        pieces.append(f"x{i}" if e == 1 else f"x{i}^{e}")
    return " ".join(pieces) if pieces else None


def _letters(alpha):
    # One letter per generator power; x1 may contribute inverse letters.
    out = []
    if alpha[0] >= 0:
        out.extend([(1, 1)] * alpha[0])
    else:
        out.extend([(1, -1)] * (-alpha[0]))
    for i, e in enumerate(alpha[1:], start=2):
        if e < 0:
            raise ValueError(f"exponent of x{i} must be nonnegative, got {e}")
        out.extend([(i, 1)] * e)
    return out


def swap_scalar(a, b) -> LaurentScalar:
    """Reorder the concatenated word x^a x^b into PBW order by adjacent
    transpositions, multiplying one generator-level commutation factor
    q^(s*t*(j-i)) per swap of (x_i)^s past (x_j)^t.

    This is the independent oracle for the exponent-merge rule: the result
    equals q**pairing(a, b) but is computed without evaluating the pairing.
    """
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} != {len(b)}")
    word = _letters(tuple(a)) + _letters(tuple(b))
    exponent = 0
    # Insertion sort by generator index; each adjacent swap moves the right
    # letter (j, t) left past (i, s) and contributes q^(s*t*(j-i)).
    for k in range(1, len(word)):
        m = k
        while m > 0 and word[m - 1][0] > word[m][0]:
            i, s = word[m - 1]
            j, t = word[m]
            exponent += s * t * (j - i)
            word[m - 1], word[m] = word[m], word[m - 1]
            m -= 1
    return LaurentScalar.q_power(exponent)


def monomial_box(n: int, bound: int):
    """All exponent vectors with |a1| <= bound and 0 <= a_i <= bound (i >= 2)."""
    return list(product(range(-bound, bound + 1), *[range(bound + 1)] * (n - 1)))


def _bounded(n: int, budget: int, signed: bool):
    """The n-vectors with sum of |entries| <= budget, in lexicographic order,
    each with the budget it leaves; entries >= 0 unless signed."""
    if n == 0:
        yield (), budget
        return
    for e in range(-budget if signed else 0, budget + 1):
        for rest, left in _bounded(n - 1, budget - abs(e), signed):
            yield (e,) + rest, left


def monomials_up_to(n: int, degree: int, x1_min: int | None = None):
    """All exponent vectors with |a1| + a2 + ... + an <= degree.

    a1 ranges over negative values too (bounded below by x1_min if given).
    """
    low1 = -degree if x1_min is None else max(x1_min, -degree)
    return [(a1,) + rest for a1 in range(low1, degree + 1)
            for rest, _ in _bounded(n - 1, degree - abs(a1), False)]


def random_exponent(rng, n: int, x1_low: int = -3, x1_high: int = 4, rest_high: int = 4) -> tuple[int, ...]:
    entries = [rng.randint(x1_low, x1_high)]
    entries.extend(rng.randint(0, rest_high) for _ in range(n - 1))
    return tuple(entries)


def random_element(rng, n: int, max_terms: int = 3, x1_low: int = -3, x1_high: int = 4,
                   rest_high: int = 4) -> Element:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        alpha = random_exponent(rng, n, x1_low, x1_high, rest_high)
        coeff = random_scalar(rng)
        terms[alpha] = terms.get(alpha, LaurentScalar.zero()) + coeff
    return Element(n, terms)


def check_algebra(n: int, pairs: int = 1000, triples: int = 300, seed: int = 0) -> CheckReport:
    """Merge rule vs swap oracle, eta-commutativity, associativity, generator
    relations, unit and x1-inverse laws, on the exponents of random_exponent."""
    import random

    rng = random.Random(f"{seed}:algebra:{n}")
    report = CheckReport(f"algebra(n={n})")

    merge = report.new("mul.merge-vs-swap-oracle: q**pairing(a,b) = swap_scalar(a,b)")
    etacomm = report.new("mul.eta-commutative: x^a x^b = eta(a,b) x^b x^a")
    for _ in range(pairs):
        a = random_exponent(rng, n)
        b = random_exponent(rng, n)
        inputs = f"a={list(a)} b={list(b)}"
        merge.record(inputs, LaurentScalar.q_power(pairing(a, b)), swap_scalar(a, b))
        fa, fb = Element.monomial(n, a), Element.monomial(n, b)
        etacomm.record(inputs, fa * fb, (fb * fa).scale(commutation_factor(a, b)))

    assoc = report.new("mul.associative: (fg)h = f(gh)")
    for _ in range(triples):
        f = random_element(rng, n, 2)
        g = random_element(rng, n, 2)
        h = random_element(rng, n, 2)
        assoc.record(f"f={f} g={g} h={h}", (f * g) * h, f * (g * h))

    gens = report.new("mul.generator-relations: x_i x_j = q^(j-i) x_j x_i")
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            xi, xj = Element.generator(n, i), Element.generator(n, j)
            gens.record(f"i={i} j={j}", xi * xj, (xj * xi).scale(LaurentScalar.q_power(j - i)))

    units = report.new("mul.unit-and-x1-inverse")
    one = Element.one(n)
    x1 = Element.generator(n, 1)
    x1inv = Element.x1_inverse(n)
    units.record("x1 * x1^-1", x1 * x1inv, one)
    units.record("x1^-1 * x1", x1inv * x1, one)
    for _ in range(20):
        f = random_element(rng, n, 3)
        units.record(f"f={f} (1*f)", one * f, f)
        units.record(f"f={f} (f*1)", f * one, f)
    return report
