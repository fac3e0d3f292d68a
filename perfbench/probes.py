"""Per-layer probes for the traced run.

Each probe builds seeded operands of the kind one workload feeds a layer,
then calls that layer's public function once per operand inside a span named
after the per-layer metric it gives (the metric name minus its unit suffix).
Operands are built outside the spans.  ``scale`` shrinks every probe for the
self-test.
"""

from __future__ import annotations

import random

from qnspace import (Element, LaurentScalar, Operator, antipode, apply_vector_field, coproduct,
                     delta_left, delta_right, derive, exterior_d, maurer_cartan, parse)
from qnspace.bicharacter import pairing
from qnspace.calculus import random_form
from qnspace.operators import letters_to_operator, random_letters, words_up_to
from qnspace.qspace import monomial_key_mul, random_element, random_exponent
from qnspace.scalar import random_scalar

import exprs


def _distinct_n5_keys(rng, count):
    # Drawn as the bicovariance suite draws its monomials at n=5.
    keys = []
    while len(keys) < count:
        key = random_exponent(rng, 5, -2, 2, 2)
        if key not in keys:
            keys.append(key)
    return keys


def _dense_operands(rng, count):
    """Expressions of the expr-dense stream, cycling through its powers."""
    out = []
    while len(out) < count:
        out.extend(exprs.block(rng))
    return out[:count]


def run_probes(tracer, seed: int, scale: float = 1.0) -> None:
    """Run every probe once, recording spans on ``tracer``."""

    def rng(name):
        return random.Random(f"{seed}:probe:{name}")

    def size(n):
        return max(2, int(n * scale))

    def probe(name, calls):
        for fn, *args in calls:
            with tracer.span(name):
                fn(*args)

    # hopf first: the coproduct cache must not yet hold these n=5 keys.
    r = rng("hopf")
    keys = _distinct_n5_keys(r, size(40))
    monomials = [Element.monomial(5, key) for key in keys]
    probe("hopf.coproduct_fresh", [(coproduct, f) for f in monomials])
    probe("hopf.coproduct_repeat", [(coproduct, f) for f in monomials])
    words = r.sample(words_up_to(3, 3), size(60))
    probe("hopf.coproduct_dq", [(coproduct, Operator.word(3, gamma, beta)) for gamma, beta in words])
    probe("hopf.antipode", [(antipode, random_element(r, 3, 2)) for _ in range(size(500))])

    r = rng("scalar")
    probe("scalar.mul_unit", [(LaurentScalar.__mul__, random_scalar(r),
                               LaurentScalar.q_power(r.randint(-6, 6), r.choice((1, -1))))
                              for _ in range(size(5000))])
    probe("scalar.add", [(LaurentScalar.__add__, random_scalar(r), random_scalar(r))
                         for _ in range(size(5000))])
    dense = []
    for expr in _dense_operands(r, size(14)):
        dense.extend((parse(expr.base_text, "algebra", 3) ** 5).terms.values())
    probe("scalar.mul_dense", [(LaurentScalar.__mul__, r.choice(dense), r.choice(dense))
                               for _ in range(size(500))])

    r = rng("bicharacter")
    for n in (3, 5):
        probe(f"bicharacter.pairing_n{n}", [(pairing, random_exponent(r, n), random_exponent(r, n))
                                            for _ in range(size(10000))])

    r = rng("qspace")
    probe("qspace.element_mul", [(Element.__mul__, random_element(r, 3, 2), random_element(r, 3, 2))
                                 for _ in range(size(1000))])
    results = []
    for expr in _dense_operands(r, size(14)):
        base = parse(expr.base_text, "algebra", 3)
        with tracer.span("qspace.element_pow"):
            value = base ** expr.power
        results.append(value)
    probe("qspace.element_str", [(str, value) for value in results])

    r = rng("operators")
    probe("operators.operator_mul", [(Operator.__mul__, letters_to_operator(3, random_letters(r, 3)),
                                      letters_to_operator(3, random_letters(r, 3)))
                                     for _ in range(size(500))])
    probe("operators.derive", [(derive, r.randint(1, 3), random_element(r, 3, 2))
                               for _ in range(size(1000))])

    r = rng("tensors")
    tensors = [coproduct(Element.monomial(5, key)) for key in _distinct_n5_keys(r, size(30))]
    probe("tensors.tensor_mul", [(tensors[i].__mul__, tensors[i - 1]) for i in range(len(tensors))])

    def expand(alpha):
        return [(c, keys) for keys, c in coproduct(Element.monomial(5, alpha)).terms.items()]

    probe("tensors.expand_slot", [(t.expand_slot, 0, expand, (monomial_key_mul,) * 2) for t in tensors])

    r = rng("calculus")
    probe("calculus.exterior_d", [(exterior_d, random_element(r, 3, 2)) for _ in range(size(500))])
    probe("calculus.form_mul", [(random_form(r, 3, 1).__mul__, random_form(r, 3, 1))
                                for _ in range(size(500))])
    probe("calculus.delta_right", [(delta_right, random_form(r, 5, 1)) for _ in range(size(20))])
    probe("calculus.delta_left", [(delta_left, random_form(r, 5, 1)) for _ in range(size(20))])

    r = rng("invariants")
    probe("invariants.maurer_cartan", [(maurer_cartan, random_element(r, 3, 2)) for _ in range(size(100))])
    probe("invariants.apply_vector_field", [(apply_vector_field, r.randint(1, 3), random_element(r, 3, 2))
                                            for _ in range(size(500))])

    r = rng("parsing")
    texts = [text for expr in _dense_operands(r, size(250))
             for text in (expr.base_text, expr.factor_text) if text]
    probe("parsing.parse", [(parse, text, "algebra", 3) for text in texts])
