"""The expr-dense workload: a seeded stream of dense n=3 expressions and the
oracle that checks each result outside the timed region.

An expression is ``base ** power``, ``base ** power * factor`` or
``factor * base ** power``.  ``base`` has three terms and ``factor`` four;
every term is a non-integer rational times a power of q times a PBW
monomial, with negative powers of x1.  Expressions come in blocks of 15, one
per (power in POWERS, form in FORMS), shuffled by the seed.

The seed draws the rationals and the order; the powers of q and the
monomials of the operands are the fixed SHAPE and FACTOR_SHAPE.  The number
of Laurent terms of a result, which sets its cost, then depends on its kind
(power, form) only: with drawn shapes it varied tenfold between operands of
one power, so the latency quantiles of a run depended on the seed.  The
three exponent vectors of SHAPE are affinely independent, so
``base ** power`` has (power+1)(power+2)/2 monomials.

The oracle never calls the library.  It expands the expression numerically
at q = 1 and q = 2, reordering every product of monomials into PBW order by
adjacent transpositions, each swap of x_i past x_j (i > j) contributing the
factor from x_i x_j = q^(j-i) x_j x_i, and compares that expansion with the
returned Element evaluated by this module's own code.  It also reads the
rendered text back and requires exactly the Element's coefficients.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import lcm

N = 3
POWERS = (4, 5, 6, 8, 10)
FORMS = ("none", "right", "left")
BLOCK = len(POWERS) * len(FORMS)
# (k, alpha) of each term c q^k x^alpha; at power 8 SHAPE gives 927 Laurent
# terms, the median over 40 randomly drawn three-term shapes.
SHAPE = ((-2, (1, 0, 1)), (-1, (-1, 1, 0)), (-1, (0, 0, 1)))
FACTOR_SHAPE = ((1, (-2, 0, 1)), (0, (0, 1, 0)), (-2, (1, 1, 0)), (2, (-1, 0, 0)))
Q_VALUES = (1, 2)
CHECKS_PER_EXPR = len(Q_VALUES) + 1


class Expr:
    """One expression: the operand terms as data, and the text the library parses."""

    __slots__ = ("base", "power", "form", "factor", "base_text", "factor_text")

    def __init__(self, base, power, form="none", factor=None):
        self.base = base
        self.power = power
        self.form = form
        self.factor = factor
        self.base_text = operand_text(base)
        self.factor_text = operand_text(factor) if factor else None

    def __str__(self):
        text = f"({self.base_text})^{self.power}"
        if self.form == "right":
            return f"{text} * ({self.factor_text})"
        if self.form == "left":
            return f"({self.factor_text}) * {text}"
        return text


def _rational(rng) -> Fraction:
    while True:
        num, den = rng.randint(1, 7), rng.randint(2, 5)
        if num % den:
            return Fraction(num * rng.choice((1, -1)), den)


def _operand(rng, shape):
    """The terms (c, k, alpha) of c q^k x^alpha, with seeded rationals c."""
    return tuple((_rational(rng), k, alpha) for k, alpha in shape)


def block(rng) -> list[Expr]:
    """The next BLOCK expressions of the stream."""
    specs = [(power, form) for power in POWERS for form in FORMS]
    rng.shuffle(specs)
    return [Expr(_operand(rng, SHAPE), power, form,
                 _operand(rng, FACTOR_SHAPE) if form != "none" else None)
            for power, form in specs]


def operand_text(terms) -> str:
    parts = []
    for c, k, alpha in terms:
        q = "" if k == 0 else ("q" if k == 1 else f"q^{k}")
        mono = " ".join(f"x{i}" if e == 1 else f"x{i}^{e}"
                        for i, e in enumerate(alpha, start=1) if e)
        parts.append(("- " if c < 0 else "+ ") + f"{abs(c)}{q} {mono}".strip())
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else text


# ---------------------------------------------------------------------------
# Oracle

def _runs(alpha):
    return [(i, e) for i, e in enumerate(alpha, start=1) if e]


@lru_cache(maxsize=None)
def reorder_exponent(a, b) -> int:
    """q-exponent picked up by sorting the word x^a x^b into PBW order by
    adjacent transpositions.  Letters are moved in runs: taking x_j^t left
    past x_i^s (i > j) is s*t transpositions of single letters, each giving
    q^(j-i) by x_i x_j = q^(j-i) x_j x_i (x1^-1 counts as a letter of
    power -1)."""
    word = _runs(a) + _runs(b)
    exponent = 0
    for k in range(1, len(word)):
        m = k
        while m > 0 and word[m - 1][0] > word[m][0]:
            (i, s), (j, t) = word[m - 1], word[m]
            exponent += s * t * (j - i)
            word[m - 1], word[m] = word[m], word[m - 1]
            m -= 1
    return exponent


class _Powers(dict):
    """q**k for a fixed rational q, computed once per exponent."""

    def __init__(self, q):
        super().__init__()
        self.q = Fraction(q)

    def __missing__(self, k):
        value = self[k] = self.q**k
        return value


def _numeric(terms, qk) -> dict:
    out = {}
    for c, k, alpha in terms:
        out[alpha] = out.get(alpha, 0) + c * qk[k]
    return {a: v for a, v in out.items() if v}


def _numeric_mul(f, g, qk) -> dict:
    out = {}
    for a, ca in f.items():
        for b, cb in g.items():
            key = tuple(x + y for x, y in zip(a, b))
            out[key] = out.get(key, 0) + ca * cb * qk[reorder_exponent(a, b)]
    return {a: v for a, v in out.items() if v}


def expand(expr: Expr, q: int) -> dict:
    """The expression evaluated at q, as {exponent vector: rational}."""
    qk = _Powers(q)
    base = _numeric(expr.base, qk)
    out = {(0,) * N: Fraction(1)}
    for _ in range(expr.power):
        out = _numeric_mul(out, base, qk)
    if expr.form == "right":
        out = _numeric_mul(out, _numeric(expr.factor, qk), qk)
    elif expr.form == "left":
        out = _numeric_mul(_numeric(expr.factor, qk), out, qk)
    return out


def element_values(value, q: int) -> dict:
    """An Element evaluated at the integer q from its raw {alpha: {k: c}}
    data, over one common denominator per coefficient."""
    out = {}
    for alpha, coeff in value.terms.items():
        low = min(coeff.terms)
        den = lcm(*(c.denominator for c in coeff.terms.values()))
        num = sum(c.numerator * (den // c.denominator) * q ** (k - low) for k, c in coeff.terms.items())
        v = Fraction(num * q**low, den) if low >= 0 else Fraction(num, den * q**-low)
        if v:
            out[alpha] = v
    return out


_TOKEN = re.compile(r"\s*(?:(\d+)(?:/(\d+))?|q(?:\^(-?\d+))?|x(\d+)(?:\^(-?\d+))?|([()+-]))")


def text_terms(text: str) -> dict:
    """Read rendered Element text back into {alpha: {k: (numerator, denominator)}}.

    The text is a signed sum of terms; a term is an optional scalar (a
    rational, a power of q, or their product, or a parenthesised signed sum
    of such) followed by the PBW letters of one monomial.  A monomial or a
    power of q that appears twice makes the text unreadable.
    """
    out: dict = {}
    alpha, sign, scalar, paren, paren_sign = [0] * N, 1, None, None, 1
    num = den = None
    k = 0

    def end_scalar_term():
        # Move the pending rational * q^k into the open scalar.
        nonlocal num, den, k
        if num is None and k == 0:
            return
        target = paren if paren is not None else scalar
        if k in target:
            raise ValueError(f"q^{k} appears twice in one coefficient")
        s = paren_sign if paren is not None else 1
        target[k] = (s * (1 if num is None else num), 1 if den is None else den)
        num = den = None
        k = 0

    def end_term():
        nonlocal alpha, scalar
        end_scalar_term()
        key = tuple(alpha)
        if not scalar and not any(alpha):
            raise ValueError("empty term in output")
        if key in out:
            raise ValueError(f"monomial {key} appears twice")
        out[key] = {k: (sign * c, d) for k, (c, d) in (scalar or {0: (1, 1)}).items()}
        alpha, scalar = [0] * N, None

    pos, text = 0, text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            raise ValueError(f"unreadable output at {pos}: {text[pos:pos + 20]!r}")
        pos = m.end()
        n_tok, d_tok, qexp, xi, xexp, sym = m.groups()
        if scalar is None:
            scalar = {}
        if xi is not None:
            end_scalar_term()
            alpha[int(xi) - 1] = 1 if xexp is None else int(xexp)
        elif n_tok is not None:
            num, den = int(n_tok), int(d_tok or 1)
        elif sym is None:
            k = 1 if qexp is None else int(qexp)
        elif sym == "(":
            paren, paren_sign = {}, 1
        elif sym == ")":
            end_scalar_term()
            scalar, paren = paren, None
        elif paren is not None:
            end_scalar_term()
            paren_sign = 1 if sym == "+" else -1
        else:
            if scalar or any(alpha) or num is not None or k:
                end_term()
            sign = 1 if sym == "+" else -1
    end_term()
    return out


def verify(expr: Expr, value, text: str) -> list[str]:
    """Problems found by the oracle; empty when the result is right.

    Makes CHECKS_PER_EXPR comparisons: the Element against the numeric
    expansion at each q, and the rendered text read back against the
    Element's exact coefficients.
    """
    problems = []
    # The cache lives for one expression, so the oracle adds little to the
    # worker's peak RSS, which peak_rss_mb reports.
    reorder_exponent.cache_clear()
    for q in Q_VALUES:
        if element_values(value, q) != expand(expr, q):
            problems.append(f"{expr}: value differs from the oracle at q={q}")
    try:
        rendered = text_terms(text)
    except ValueError as exc:
        rendered = exc
    exact = {alpha: {k: (c.numerator, c.denominator) for k, c in coeff.terms.items()}
             for alpha, coeff in value.terms.items()}
    if rendered != exact:
        problems.append(f"{expr}: rendered text does not read back as the value ({rendered})"[:300])
    return problems
