"""Exact scalar arithmetic: Laurent polynomials in the deformation parameter q
with rational coefficients.

Every coefficient produced by the kernel is of this shape, so all identity
checking downstream is exact -- no floats, no tolerances.  An integral
coefficient is held as an ``int`` and only a proper rational as a
``Fraction``: almost every coefficient is a product of terms +-q^k, and
``int`` arithmetic skips ``Fraction``'s normalising.  Mixed values behave the
same, since ``int`` and an integral ``Fraction`` agree on ``==``, ``hash``,
``str``, ordering and ``numerator``/``denominator``.  Division and negative
powers go through ``Fraction`` (``int / int`` would be a float).
"""

from __future__ import annotations

from fractions import Fraction


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


def _as_rational(value):
    """A coefficient as an int when integral, else as a Fraction."""
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return int(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


class LaurentScalar:
    """A finite sum ``sum_k c_k q**k`` with nonzero rational coefficients.

    Stored as a map {exponent: coefficient}, each coefficient an ``int`` or
    a ``Fraction`` (integral values are ``int`` from construction); the empty
    map is 0 and {0: 1} is 1.
    Instances are immutable by convention: no operation mutates its operands,
    so values can be shared freely (including across threads).
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean: dict[int, int | Fraction] = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for k, c in items:
                if not isinstance(k, int):
                    raise TypeError(f"exponent must be int, got {type(k).__name__}")
                c = clean.get(k, 0) + _as_rational(c)
                if c:
                    clean[k] = c
                else:
                    clean.pop(k, None)
        self.terms = clean

    @classmethod
    def zero(cls) -> "LaurentScalar":
        return cls()

    @classmethod
    def one(cls) -> "LaurentScalar":
        return cls({0: 1})

    @classmethod
    def q_power(cls, k: int, coeff=1) -> "LaurentScalar":
        """The monomial coeff * q**k."""
        return cls({k: coeff})

    @classmethod
    def from_rational(cls, c) -> "LaurentScalar":
        return cls({0: c})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def single_term(self):
        """Return (exponent, coefficient) if this is a monomial, else None."""
        if len(self.terms) == 1:
            return next(iter(self.terms.items()))
        return None

    def _coerce(self, other):
        if isinstance(other, LaurentScalar):
            return other
        if isinstance(other, (int, Fraction)):
            return LaurentScalar({0: other})
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        result = LaurentScalar.__new__(LaurentScalar)
        result.terms = out
        return result

    __radd__ = __add__

    def __neg__(self):
        result = LaurentScalar.__new__(LaurentScalar)
        result.terms = {k: -c for k, c in self.terms.items()}
        return result

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out: dict[int, int | Fraction] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = k1 + k2
                s = out.get(k, 0) + c1 * c2
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        result = LaurentScalar.__new__(LaurentScalar)
        result.terms = out
        return result

    __rmul__ = __mul__

    def shift(self, c, k: int) -> "LaurentScalar":
        """This scalar times c q**k, for a nonzero rational c: the product
        by one basis merge, without building the monomial c q**k."""
        result = LaurentScalar.__new__(LaurentScalar)
        if c == 1:
            result.terms = {e + k: v for e, v in self.terms.items()}
        elif c == -1:
            result.terms = {e + k: -v for e, v in self.terms.items()}
        else:
            result.terms = {e + k: c * v for e, v in self.terms.items()}
        return result

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only nonnegative integer powers are supported")
        out = LaurentScalar.one()
        while exponent and out:
            out, exponent = out * self, exponent - 1
        return out

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def evaluate(self, v) -> Fraction:
        """Substitute q = v exactly.  v must be nonzero (negative exponents)."""
        v = _as_fraction(v)
        if v == 0:
            raise ValueError("cannot evaluate at q = 0: negative exponents are undefined")
        total = Fraction(0)
        for k, c in self.terms.items():
            total += c * v**k
        return total

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for k in sorted(self.terms, reverse=True):
            c = self.terms[k]
            body = _scalar_term_str(abs(c), k)
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append((" + " if c > 0 else " - ") + body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"LaurentScalar({self})"

    def to_json(self):
        return {
            "coeff": [
                [k, f"{self.terms[k].numerator}/{self.terms[k].denominator}"]
                for k in sorted(self.terms)
            ]
        }

    @classmethod
    def from_json(cls, data) -> "LaurentScalar":
        return cls({int(k): parse_rational(c) for k, c in data["coeff"]})


def parse_rational(text: str) -> Fraction:
    """Parse 'num/den' or 'num' into a Fraction; ValueError if malformed."""
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        if int(den) == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def _scalar_term_str(c: Fraction, k: int) -> str:
    # c is positive here; the sign is handled by the caller.
    if k == 0:
        return str(c)
    qs = "q" if k == 1 else f"q^{k}"
    return qs if c == 1 else f"{c}{qs}"


def format_term(coeff: LaurentScalar, body: str | None):
    """Render coeff * body as (negated, magnitude-string) for sum joining.

    body is a printed monomial like 'x1 x2' (None for the unit monomial).
    A one-term coefficient is printed inline; anything else is wrapped in
    parentheses so the output stays parseable.
    """
    single = coeff.single_term()
    if single is None:
        text = f"({coeff})"
        return False, text if body is None else f"{text} {body}"
    k, c = single
    negated = c < 0
    mag = _scalar_term_str(abs(c), k)
    if body is None:
        return negated, mag
    if mag == "1":
        return negated, body
    return negated, f"{mag} {body}"


def join_terms(parts) -> str:
    """Join (negated, magnitude) pairs into 'a + b - c' form ('0' if empty)."""
    parts = list(parts)
    if not parts:
        return "0"
    out = []
    for idx, (negated, text) in enumerate(parts):
        if idx == 0:
            out.append("-" + text if negated else text)
        else:
            out.append((" - " if negated else " + ") + text)
    return "".join(out)


def random_scalar(rng, exp_bound: int = 2, num_bound: int = 3, nonzero: bool = True) -> LaurentScalar:
    """Small random Laurent scalar for seeded property sweeps."""
    while True:
        nterms = rng.randint(1, 2)
        terms = {}
        for _ in range(nterms):
            k = rng.randint(-exp_bound, exp_bound)
            num = rng.randint(-num_bound, num_bound)
            den = rng.randint(1, 2)
            terms[k] = terms.get(k, 0) + (num if den == 1 else Fraction(num, den))
        value = LaurentScalar(terms)
        if value or not nonzero:
            return value
