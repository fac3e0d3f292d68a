"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All comparisons are exact (Laurent-polynomial equality, tolerance zero).
Runtime bounds are asserted per criterion.
"""

import hashlib
import subprocess
import sys
import time

from qnspace.bicharacter import check_bicharacter_axioms, check_cocycle
from qnspace.calculus import check_bicovariance, check_calculus
from qnspace.hopf import (check_hopf_coordinate_algebra,
                          check_hopf_operator_algebra, check_module_algebra,
                          coproduct, tau)
from qnspace.invariants import check_maurer_cartan, check_vector_fields
from qnspace.operators import (Operator, check_derivations,
                               check_operator_algebra, weyl_relation_check)
from qnspace.qspace import check_algebra
from qnspace.suites import SuiteConfig, SUITES

SEED = 42
# SHA-256 of the stdout of `qspace check all --n 3 --deg 4 --trials 200 --seed 42`.
REFERENCE_SHA256 = "c76639c6451abe65c35ff2b789f14f99f1749e4f9d376fc3c9c6f860bf82870e"


class _Criterion:
    def __init__(self, number, description, limit_seconds):
        self.number = number
        self.description = description
        self.limit = limit_seconds
        self.start = time.perf_counter()
        self.reports = []

    def add(self, report):
        self.reports.append(report)
        return report

    def finish(self):
        elapsed = time.perf_counter() - self.start
        ok = all(report.ok for report in self.reports)
        status = "PASS" if ok and elapsed < self.limit else "FAIL"
        print(f"acceptance {self.number}: {status} ({elapsed:.2f}s / limit {self.limit}s) - {self.description}")
        for report in self.reports:
            assert report.ok, report.render_text()
        assert elapsed < self.limit, f"criterion {self.number} exceeded {self.limit}s ({elapsed:.2f}s)"


def test_criterion_1_bicharacter_and_cocycle():
    crit = _Criterion(1, "bicharacter axioms + 2-cocycle, n in 1..4, 500 trials, bound 6", 5)
    for n in (1, 2, 3, 4):
        crit.add(check_bicharacter_axioms(n, trials=500, seed=SEED))
        crit.add(check_cocycle(n, trials=500, seed=SEED))
    crit.finish()


def test_criterion_2_algebra():
    crit = _Criterion(2, "merge law vs swap oracle (1000 pairs), associativity (300), "
                         "eta-commutativity (300), n=3, exponents in [-3,4]", 10)
    crit.add(check_algebra(3, pairs=1000, triples=300, seed=SEED))
    crit.finish()


def test_criterion_3_hopf_coordinate():
    crit = _Criterion(3, "coordinate Hopf axioms on a1 in [-2,2], a2,a3 in [0,3], n=3", 60)
    monomials = [(a1, a2, a3)
                 for a1 in range(-2, 3)
                 for a2 in range(0, 4)
                 for a3 in range(0, 4)]
    assert len(monomials) == 80
    crit.add(check_hopf_coordinate_algebra(3, monomials, pair_samples=300, seed=SEED))
    crit.finish()


def test_criterion_4_derivations():
    crit = _Criterion(4, "twisted Leibniz, operator relations, Weyl relations "
                         "(degree <= 4 sweep + 200 pairs), confluence on 200 words", 30)
    crit.add(check_derivations(3, deg_bound=4, samples=200, seed=SEED))
    crit.add(weyl_relation_check(3, deg_bound=4))
    crit.add(check_operator_algebra(3, samples=200, seed=SEED))
    crit.finish()


def test_criterion_5_hopf_operator():
    crit = _Criterion(5, "operator Hopf axioms + relation preservation on words of "
                         "degree <= 3 (n=3), non-cocommutativity witnessed", 30)
    report = crit.add(check_hopf_operator_algebra(3, word_degree=3, seed=SEED))
    # the witness must hold for d_2 specifically, as an exact inequality
    t = coproduct(Operator.partial(3, 2))
    assert tau(t) != t
    assert any("non-cocommutativity" in ident.identity for ident in report.identities)
    crit.finish()


def test_criterion_6_calculus():
    crit = _Criterion(6, "d^2 = 0 (200 elements + 100 one-forms), both Leibniz rules "
                         "(200 pairs), coaction relation preservation, comodule axioms", 30)
    crit.add(check_calculus(3, samples=200, seed=SEED))
    crit.add(check_bicovariance(3, samples=100, seed=SEED))
    crit.finish()


def test_criterion_7_maurer_cartan():
    crit = _Criterion(7, "basis-form displays, coordinate/wedge/grading relations and "
                         "the dx change of basis, n in {2,3}, entries <= 3", 20)
    for n in (2, 3):
        crit.add(check_maurer_cartan(n, samples=200, seed=SEED))
    crit.finish()


def test_criterion_8_vector_fields():
    crit = _Criterion(8, "vector fields: commutation, coordinate relations, d = sum w_i T_i, "
                         "q-Leibniz, coproduct consistency, antipode data; degree <= 4, a1 >= -2", 30)
    crit.add(check_vector_fields(3, deg_bound=4, samples=200, seed=SEED))
    crit.finish()


def test_criterion_9_classical_limit():
    crit = _Criterion(9, "q = 1: commutative products, trivial sigma, ordinary derivatives, "
                         "primitive vector-field coproduct; 200 samples", 10)
    crit.add(SUITES["classical-limit"](SuiteConfig(n=3, deg=4, trials=200, seed=SEED)))
    crit.finish()


def test_criterion_10_end_to_end():
    start = time.perf_counter()
    argv = [sys.executable, "-m", "qnspace", "check", "all",
            "--n", "3", "--deg", "4", "--trials", "200", "--seed", "42"]
    first = subprocess.run(argv, capture_output=True)
    second = subprocess.run(argv, capture_output=True)
    elapsed = time.perf_counter() - start
    ok = (first.returncode == 0 and second.returncode == 0
          and first.stdout == second.stdout and elapsed < 300)
    status = "PASS" if ok else "FAIL"
    print(f"acceptance 10: {status} ({elapsed:.2f}s / limit 300s) - "
          "`qspace check all` exits 0 and is byte-identical on rerun")
    assert first.returncode == 0, first.stdout.decode()[-2000:]
    assert second.returncode == 0
    assert first.stdout == second.stdout
    assert b"overall: PASS" in first.stdout
    assert hashlib.sha256(first.stdout).hexdigest() == REFERENCE_SHA256
    assert elapsed < 300
