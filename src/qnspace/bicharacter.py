"""The integer pairing on Z^n and the commutation factor it induces.

With 1-based indices,

    pairing(a, b)            = sum_{j < i} (j - i) * a_i * b_j
    commutation_factor(a, b) = q ** (pairing(a, b) - pairing(b, a))

The commutation factor is multiplicative in each argument, trivial against 0,
inverse-symmetric (eta(a,b)eta(b,a) = 1 = eta(a,a)), and a 2-cocycle:
eta(a,b)eta(a+b,c) = eta(b,c)eta(a,b+c).  On basis vectors it evaluates to
commutation_factor(e_i, e_j) = q^(j-i), which is exactly the factor in the
defining relations x_i x_j = q^(j-i) x_j x_i of the coordinate algebra.

The check_* functions sweep these identities on seeded random tuples and
report witnesses for any failure instead of raising.
"""

from __future__ import annotations

from .report import CheckReport
from .scalar import LaurentScalar

# The checkers draw every tuple entry from [-TUPLE_BOUND, TUPLE_BOUND].
TUPLE_BOUND = 6


def _same_dimension(a, b) -> None:
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} != {len(b)}")


def pairing(a, b) -> int:
    """sum over index pairs j < i of (j - i) * a_i * b_j (1-based)."""
    _same_dimension(a, b)
    total = 0
    n = len(a)
    for j in range(n - 1):
        bj = b[j]
        if bj:
            for i in range(j + 1, n):
                if a[i]:
                    total += (j - i) * a[i] * bj
    return total


def commutation_exponent(a, b) -> int:
    """The integer k with x^a x^b = q**k x^b x^a, i.e. pairing(a,b) - pairing(b,a)."""
    return pairing(a, b) - pairing(b, a)


def commutation_factor(a, b) -> LaurentScalar:
    return LaurentScalar.q_power(commutation_exponent(a, b))


def basis_vector(n: int, i: int) -> tuple[int, ...]:
    """The i-th standard basis vector of Z^n (1-based)."""
    if not 1 <= i <= n:
        raise ValueError(f"index {i} out of range 1..{n}")
    return tuple(1 if k == i - 1 else 0 for k in range(n))


def vector_add(a, b) -> tuple[int, ...]:
    _same_dimension(a, b)
    return tuple(x + y for x, y in zip(a, b))


def vector_neg(a) -> tuple[int, ...]:
    return tuple(-x for x in a)


def random_tuple(rng, n: int, bound: int) -> tuple[int, ...]:
    return tuple(rng.randint(-bound, bound) for _ in range(n))


def check_bicharacter_axioms(n: int, trials: int = 500, seed: int = 0) -> CheckReport:
    """Multiplicativity, unit, and inverse/diagonal laws of the commutation
    factor on random tuples, plus the exact basis values q^(j-i)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    import random

    rng = random.Random(f"{seed}:bicharacter:{n}")
    report = CheckReport(f"bicharacter(n={n})")
    add_left = report.new("eta.additive-left: eta(a+b,c) = eta(a,c)eta(b,c)")
    add_right = report.new("eta.additive-right: eta(a,b+c) = eta(a,b)eta(a,c)")
    units = report.new("eta.unit: eta(a,0) = 1 = eta(0,a)")
    inverse = report.new("eta.inverse: eta(a,b)eta(b,a) = 1 = eta(a,a)")
    zero = (0,) * n
    one = LaurentScalar.one()
    for _ in range(trials):
        a = random_tuple(rng, n, TUPLE_BOUND)
        b = random_tuple(rng, n, TUPLE_BOUND)
        c = random_tuple(rng, n, TUPLE_BOUND)
        inputs = f"a={list(a)} b={list(b)} c={list(c)}"
        add_left.record(inputs, commutation_factor(vector_add(a, b), c),
                        commutation_factor(a, c) * commutation_factor(b, c))
        add_right.record(inputs, commutation_factor(a, vector_add(b, c)),
                         commutation_factor(a, b) * commutation_factor(a, c))
        units.record(inputs, commutation_factor(a, zero) * commutation_factor(zero, a), one)
        inverse.record(inputs, commutation_factor(a, b) * commutation_factor(b, a), one)
        inverse.record(inputs, commutation_factor(a, a), one)

    basis = report.new("eta.basis: eta(e_i,e_j) = q^(j-i)")
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            basis.record(f"i={i} j={j}",
                         commutation_factor(basis_vector(n, i), basis_vector(n, j)),
                         LaurentScalar.q_power(j - i))
    return report


def check_cocycle(n: int, trials: int = 500, seed: int = 0) -> CheckReport:
    """2-cocycle identity eta(a,b)eta(a+b,c) = eta(b,c)eta(a,b+c) on random triples."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    import random

    rng = random.Random(f"{seed}:cocycle:{n}")
    report = CheckReport(f"cocycle(n={n})")
    cocycle = report.new("eta.cocycle: eta(a,b)eta(a+b,c) = eta(b,c)eta(a,b+c)")
    for _ in range(trials):
        a = random_tuple(rng, n, TUPLE_BOUND)
        b = random_tuple(rng, n, TUPLE_BOUND)
        c = random_tuple(rng, n, TUPLE_BOUND)
        lhs = commutation_factor(a, b) * commutation_factor(vector_add(a, b), c)
        rhs = commutation_factor(b, c) * commutation_factor(a, vector_add(b, c))
        cocycle.record(f"a={list(a)} b={list(b)} c={list(c)}", lhs, rhs)
    return report


def check_pairing_identities(n: int, trials: int = 200, seed: int = 0) -> CheckReport:
    """Closed forms of the pairing against basis vectors, and bi-additivity.

    For every b:
        pairing(e_i, b)           = sum_{s < i} (s - i) b_s
        pairing(b, e_i)           = sum_{s > i} (i - s) b_s
        pairing(e_i - e_{i+1}, b) = sum_{s <= i} b_s
        pairing(b, e_i - e_{i+1}) = -sum_{s > i} b_s
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    import random

    rng = random.Random(f"{seed}:pairing:{n}")
    report = CheckReport(f"pairing(n={n})")
    left = report.new("pairing.basis-left: pairing(e_i,b) = sum_{s<i}(s-i)b_s")
    right = report.new("pairing.basis-right: pairing(b,e_i) = sum_{s>i}(i-s)b_s")
    if n > 1:  # at n = 1 there is no step e_i - e_{i+1} to test
        diff_left = report.new("pairing.step-left: pairing(e_i-e_{i+1},b) = sum_{s<=i}b_s")
        diff_right = report.new("pairing.step-right: pairing(b,e_i-e_{i+1}) = -sum_{s>i}b_s")
    biadd = report.new("pairing.bi-additive")
    for _ in range(trials):
        b = random_tuple(rng, n, TUPLE_BOUND)
        inputs = f"b={list(b)}"
        for i in range(1, n + 1):
            e_i = basis_vector(n, i)
            left.record(f"{inputs} i={i}", pairing(e_i, b),
                        sum((s - i) * b[s - 1] for s in range(1, i)))
            right.record(f"{inputs} i={i}", pairing(b, e_i),
                         sum((i - s) * b[s - 1] for s in range(i + 1, n + 1)))
        for i in range(1, n):
            step = vector_add(basis_vector(n, i), vector_neg(basis_vector(n, i + 1)))
            diff_left.record(f"{inputs} i={i}", pairing(step, b),
                             sum(b[s - 1] for s in range(1, i + 1)))
            diff_right.record(f"{inputs} i={i}", pairing(b, step),
                              -sum(b[s - 1] for s in range(i + 1, n + 1)))
        a = random_tuple(rng, n, TUPLE_BOUND)
        c = random_tuple(rng, n, TUPLE_BOUND)
        biadd.record(f"a={list(a)} b={list(b)} c={list(c)}",
                     pairing(vector_add(a, b), c), pairing(a, c) + pairing(b, c))
        biadd.record(f"a={list(a)} b={list(b)} c={list(c)}",
                     pairing(a, vector_add(b, c)), pairing(a, b) + pairing(a, c))
    return report
