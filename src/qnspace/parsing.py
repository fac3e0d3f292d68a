"""Expression language for elements, operator words, forms, and scalars.

Grammar (whitespace-insensitive):

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor (('*' | '/\\' | juxtaposition) factor)*
    factor := atom ('^' ['-'] integer)? | '(' expr ')'
    atom   := rational | 'q' | 'x<k>' | 'dx<k>' | 'd<k>' | 's<k>' | 'w<k>'

Rationals are written without spaces: '3', '2/5' (a leading '-' parses as
negation).  The context decides which atoms are legal and what the result
type is:

    algebra  -> Element   (atoms: rationals, q, x<k>)
    operator -> Operator  (atoms: rationals, q, d<k>, s<k>)
    form     -> Form      (atoms: rationals, q, x<k>, dx<k>, w<k>)
    scalar   -> LaurentScalar (atoms: rationals, q)

Negative powers are allowed only on q, x1 and s<k>; the wedge '/\\' is a
product only between form-valued subexpressions.  Parentheses nest at most
MAX_PAREN_DEPTH deep, and a power of a rational literal may take at most
MAX_LITERAL_POWER_BITS bits.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .calculus import Form
from .operators import Operator
from .qspace import Element
from .scalar import LaurentScalar, parse_rational


class ParseError(ValueError):
    """Syntax or context violation, carrying the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass
class Token:
    kind: str   # 'num', 'name', or a literal symbol
    value: object
    position: int


_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<num>\d+(?:/\d+)?)"
    r"|(?P<name>dx\d+|d\d+|s\d+|x\d+|w\d+|T\d+|q)"
    r"|(?P<wedge>/\\)"
    r"|(?P<sym>[-+*^()])"
    r")"
)


def tokenize(text: str) -> list[Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None or not match.group().strip():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", at)
        start = match.start() + len(match.group()) - len(match.group().lstrip())
        if match.group("num") is not None:
            try:
                value = parse_rational(match.group("num"))
            except ValueError as exc:
                raise ParseError(str(exc), start) from None
            tokens.append(Token("num", value, start))
        elif match.group("name") is not None:
            name = match.group("name")
            if name == "q":
                tokens.append(Token("name", ("q", 0), start))
            else:
                kind = name.rstrip("0123456789")
                tokens.append(Token("name", (kind, int(name[len(kind):])), start))
        elif match.group("wedge") is not None:
            tokens.append(Token("/\\", None, start))
        else:
            tokens.append(Token(match.group("sym"), None, start))
        pos = match.end()
    return tokens


# AST nodes

@dataclass
class Num:
    value: Fraction


@dataclass
class Gen:
    kind: str   # 'q', 'x', 'dx', 'd', 's', 'w', 'T'
    index: int
    position: int


@dataclass
class Pow:
    base: object
    exponent: int
    position: int


@dataclass
class Mul:
    """factors[0] op factors[1] op ...; ops[k] = (wedge, position) joins
    factors[k] and factors[k + 1]."""
    factors: list
    ops: list


@dataclass
class Add:
    """signs[0] terms[0] + signs[1] terms[1] + ... with each sign +1 or -1."""
    terms: list
    signs: list


# Each nesting level costs a few stack frames in the parser and the
# evaluator, so deeper input is refused rather than left to hit the
# interpreter's recursion limit.
MAX_PAREN_DEPTH = 100

# A power of a rational literal is computed exactly, so |exponent| times the
# larger bit length of its numerator and denominator may be at most this.
MAX_LITERAL_POWER_BITS = 1 << 20


class _Parser:
    def __init__(self, tokens: list[Token], length: int):
        self.tokens = tokens
        self.pos = 0
        self.length = length
        self.depth = 0

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.length)
        self.pos += 1
        return tok

    def expr(self):
        tok = self.peek()
        sign = 1
        if tok is not None and tok.kind == "-":
            self.take()
            sign = -1
        node = Add([self.term()], [sign])
        while True:
            tok = self.peek()
            if tok is None or tok.kind not in ("+", "-"):
                return node
            self.take()
            node.terms.append(self.term())
            node.signs.append(1 if tok.kind == "+" else -1)

    def term(self):
        node = Mul([self.factor()], [])
        while True:
            tok = self.peek()
            if tok is None:
                return node
            if tok.kind in ("*", "/\\"):
                self.take()
            elif tok.kind not in ("num", "name", "("):
                return node
            node.ops.append((tok.kind == "/\\", tok.position))
            node.factors.append(self.factor())

    def factor(self):
        tok = self.take()
        if tok.kind == "(":
            self.depth += 1
            if self.depth > MAX_PAREN_DEPTH:
                raise ParseError(f"parentheses nested deeper than {MAX_PAREN_DEPTH}", tok.position)
            node = self.expr()
            self.depth -= 1
            closing = self.take()
            if closing.kind != ")":
                raise ParseError("expected ')'", closing.position)
            return node
        if tok.kind == "num":
            node = Num(tok.value)
        elif tok.kind == "name":
            kind, index = tok.value
            node = Gen(kind, index, tok.position)
        else:
            raise ParseError(f"unexpected token {tok.kind!r}", tok.position)
        nxt = self.peek()
        if nxt is not None and nxt.kind == "^":
            self.take()
            sign = 1
            exp_tok = self.take()
            if exp_tok.kind == "-":
                sign = -1
                exp_tok = self.take()
            if exp_tok.kind != "num" or exp_tok.value.denominator != 1:
                raise ParseError("exponent must be an integer", exp_tok.position)
            node = Pow(node, sign * int(exp_tok.value), exp_tok.position)
        return node


def parse(text: str, context: str = "algebra", n: int = 3):
    """Parse and evaluate an expression in the given context."""
    if context not in ("algebra", "operator", "form", "scalar"):
        raise ValueError(f"unknown context {context!r}")
    parser = _Parser(tokenize(text), len(text))
    ast = parser.expr()
    trailing = parser.peek()
    if trailing is not None:
        raise ParseError(f"unexpected trailing token {trailing.kind!r}", trailing.position)
    return _evaluate(ast, context, n)


def parse_scalar(text: str) -> LaurentScalar:
    return parse(text, "scalar", 1)


def parse_multiindex(text: str, n: int) -> tuple[int, ...]:
    """Parse '[a1,a2,...,an]' into an integer tuple of length n."""
    import json

    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid multi-index {text!r}: {exc.msg}", exc.pos) from None
    # type() rather than isinstance(): JSON true and false are bools, which are ints.
    if not isinstance(data, list) or not all(type(e) is int for e in data):
        raise ParseError(f"multi-index must be a list of integers, got {text!r}", 0)
    if len(data) != n:
        raise ParseError(f"multi-index length {len(data)} does not match dimension {n}", 0)
    return tuple(data)


_CARRIERS = {"algebra": Element, "operator": Operator, "form": Form}


def _lift_scalar(s: LaurentScalar, context: str, n: int):
    return s if context == "scalar" else _CARRIERS[context].one(n).scale(s)


_CONTEXT_ATOMS = {
    "algebra": {"q", "x"},
    "operator": {"q", "d", "s"},
    "form": {"q", "x", "dx", "w"},
    "scalar": {"q"},
}


def _atom(gen: Gen, context: str, n: int, power: int = 1):
    kind, index = gen.kind, gen.index
    if kind == "T":
        raise ParseError("vector fields T<i> are applied through the 'vf' command", gen.position)
    if kind not in _CONTEXT_ATOMS[context]:
        raise ParseError(f"{kind}{index or ''} is not valid in {context} context", gen.position)
    if kind == "q":
        return _lift_scalar(LaurentScalar.q_power(power), context, n)
    if not 1 <= index <= n:
        raise ParseError(f"{kind}{index} exceeds dimension n={n}", gen.position)
    if kind == "x":
        if power < 0 and index != 1:
            raise ParseError(f"negative powers are only allowed on x1, got x{index}^{power}", gen.position)
        alpha = tuple(power if k == index - 1 else 0 for k in range(n))
        element = Element.monomial(n, alpha)
        return Form.from_element(element) if context == "form" else element
    if kind == "s":
        return Operator.sigma_gen(n, index, power)
    if kind == "d":
        if power < 0:
            raise ParseError(f"derivatives are not invertible: d{index}^{power}", gen.position)
        beta = tuple(power if k == index - 1 else 0 for k in range(n))
        return Operator.word(n, (0,) * n, beta)
    if kind == "dx":
        if power < 0:
            raise ParseError(f"negative powers are not allowed on dx{index}", gen.position)
        return Form.dx(n, index) ** power
    if kind == "w":
        if power < 0:
            raise ParseError(f"negative powers are not allowed on w{index}", gen.position)
        from .invariants import maurer_cartan_basis

        return maurer_cartan_basis(n, index) ** power
    raise ParseError(f"unknown atom kind {kind!r}", gen.position)


def _evaluate(node, context: str, n: int):
    if isinstance(node, Num):
        return _lift_scalar(LaurentScalar.from_rational(node.value), context, n)
    if isinstance(node, Gen):
        return _atom(node, context, n)
    if isinstance(node, Pow):
        if isinstance(node.base, Gen):
            return _atom(node.base, context, n, node.exponent)
        if isinstance(node.base, Num):
            value, exponent = node.base.value, node.exponent
            if value == 0 and exponent < 0:
                raise ParseError("cannot invert 0", node.position)
            bits = abs(exponent) * max(value.numerator.bit_length(), value.denominator.bit_length())
            if bits > MAX_LITERAL_POWER_BITS:
                raise ParseError(f"literal power of {bits} bits exceeds {MAX_LITERAL_POWER_BITS}",
                                 node.position)
            return _lift_scalar(LaurentScalar.from_rational(value**exponent), context, n)
        raise ParseError("powers apply to atoms only", node.position)
    if isinstance(node, Add):
        value = _evaluate(node.terms[0], context, n)
        if node.signs[0] < 0:
            value = -value
        for sign, term in zip(node.signs[1:], node.terms[1:]):
            rhs = _evaluate(term, context, n)
            value = value + rhs if sign > 0 else value - rhs
        return value
    if isinstance(node, Mul):
        wedges = [position for wedge, position in node.ops if wedge]
        if wedges and context != "form":
            raise ParseError(f"'/\\' is only valid in form context, not {context}", wedges[-1])
        value = _evaluate(node.factors[0], context, n)
        for factor in node.factors[1:]:
            value = value * _evaluate(factor, context, n)
        return value
    raise TypeError(f"unknown AST node {type(node).__name__}")
