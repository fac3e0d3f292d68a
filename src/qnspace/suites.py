"""Named verification suites behind the `check` command.

Each suite bundles the relevant module checkers under a stable name; given
the same configuration (dimension, degree, trials, seed) the rendered output
is byte-identical between runs.  The suites share no state beyond pure
caches, so `run_suites` runs them in parallel worker processes.
"""

from __future__ import annotations

import itertools
import os
import random
import threading
import time
from dataclasses import dataclass

from .bicharacter import (check_bicharacter_axioms, check_cocycle,
                          check_pairing_identities, random_tuple)
from .calculus import check_bicovariance, check_calculus
from .hopf import (check_hopf_coordinate_algebra, check_hopf_operator_algebra,
                   check_module_algebra)
from .invariants import (apply_vector_field, check_maurer_cartan,
                         check_vector_fields, vf_coproduct_action)
from .operators import check_derivations, check_operator_algebra, derive, sigma, weyl_relation_check
from .qspace import check_algebra, monomials_up_to, random_element
from .report import CheckReport


@dataclass
class SuiteConfig:
    n: int = 3
    deg: int = 4
    trials: int = 200
    seed: int = 42


def _suite_bicharacter(cfg: SuiteConfig) -> CheckReport:
    report = CheckReport(f"bicharacter(n={cfg.n})")
    report.extend(check_bicharacter_axioms(cfg.n, trials=cfg.trials, seed=cfg.seed))
    report.extend(check_pairing_identities(cfg.n, trials=min(cfg.trials, 200), seed=cfg.seed))
    return report


def _suite_cocycle(cfg: SuiteConfig) -> CheckReport:
    return check_cocycle(cfg.n, trials=cfg.trials, seed=cfg.seed)


def _suite_algebra(cfg: SuiteConfig) -> CheckReport:
    return check_algebra(cfg.n, pairs=cfg.trials, triples=cfg.trials, seed=cfg.seed)


def _suite_hopf_aqn(cfg: SuiteConfig) -> CheckReport:
    monomials = monomials_up_to(cfg.n, cfg.deg)
    return check_hopf_coordinate_algebra(cfg.n, monomials, pair_samples=cfg.trials, seed=cfg.seed)


def _suite_derivations(cfg: SuiteConfig) -> CheckReport:
    return check_derivations(cfg.n, deg_bound=cfg.deg, samples=cfg.trials, seed=cfg.seed)


def _suite_dq_relations(cfg: SuiteConfig) -> CheckReport:
    return check_operator_algebra(cfg.n, samples=cfg.trials, seed=cfg.seed)


def _suite_dq_hopf(cfg: SuiteConfig) -> CheckReport:
    return check_hopf_operator_algebra(cfg.n, word_degree=min(cfg.deg, 3), seed=cfg.seed)


def _suite_module_algebra(cfg: SuiteConfig) -> CheckReport:
    return check_module_algebra(cfg.n, samples=cfg.trials, seed=cfg.seed)


def _suite_calculus(cfg: SuiteConfig) -> CheckReport:
    return check_calculus(cfg.n, samples=cfg.trials, seed=cfg.seed)


def _suite_bicovariance(cfg: SuiteConfig) -> CheckReport:
    return check_bicovariance(cfg.n, samples=max(1, cfg.trials // 2), seed=cfg.seed)


def _suite_weyl(cfg: SuiteConfig) -> CheckReport:
    return weyl_relation_check(cfg.n, deg_bound=cfg.deg)


def _suite_maurer_cartan(cfg: SuiteConfig) -> CheckReport:
    return check_maurer_cartan(cfg.n, samples=max(1, cfg.trials // 2), seed=cfg.seed)


def _suite_vector_fields(cfg: SuiteConfig) -> CheckReport:
    return check_vector_fields(cfg.n, deg_bound=cfg.deg,
                               samples=max(1, cfg.trials // 2), seed=cfg.seed)


def _ordinary_derivative(i: int, coeffs: dict) -> dict:
    """Independent classical oracle on {alpha: Fraction} dictionaries."""
    out = {}
    for alpha, c in coeffs.items():
        e = alpha[i - 1]
        if e:
            shifted = alpha[: i - 1] + (e - 1,) + alpha[i:]
            value = out.get(shifted, 0) + c * e
            if value:
                out[shifted] = value
            else:
                out.pop(shifted, None)
    return out


def _suite_classical_limit(cfg: SuiteConfig) -> CheckReport:
    """Everything collapses to the commutative picture at q = 1."""
    n = cfg.n
    rng = random.Random(f"{cfg.seed}:classical:{n}")
    report = CheckReport(f"classical-limit(n={n})")
    commute = report.new("classical.multiplication-commutes")
    sigma_id = report.new("classical.sigma-is-identity")
    partials = report.new("classical.derivative-is-ordinary")
    primitive = report.new("classical.vf-coproduct-primitive")
    for _ in range(cfg.trials):
        f = random_element(rng, n, 2, 0, 3, 3)
        g = random_element(rng, n, 2, 0, 3, 3)
        inputs = f"f={f} g={g}"
        commute.record(inputs, (f * g).evaluate_coeffs(1), (g * f).evaluate_coeffs(1))
        b = random_tuple(rng, n, 3)
        sigma_id.record(f"f={f} b={list(b)}", sigma(b, f).evaluate_coeffs(1), f.evaluate_coeffs(1))
        for i in range(1, n + 1):
            partials.record(f"i={i} f={f}", derive(i, f).evaluate_coeffs(1),
                            _ordinary_derivative(i, f.evaluate_coeffs(1)))
            lhs = vf_coproduct_action(i, f, g).evaluate_coeffs(1)
            rhs = (apply_vector_field(i, f) * g + f * apply_vector_field(i, g)).evaluate_coeffs(1)
            primitive.record(f"i={i} {inputs}", lhs, rhs)
    return report


SUITES = {
    "bicharacter": _suite_bicharacter,
    "cocycle": _suite_cocycle,
    "algebra": _suite_algebra,
    "hopf-aqn": _suite_hopf_aqn,
    "derivations": _suite_derivations,
    "dq-relations": _suite_dq_relations,
    "dq-hopf": _suite_dq_hopf,
    "module-algebra": _suite_module_algebra,
    "calculus": _suite_calculus,
    "bicovariance": _suite_bicovariance,
    "weyl": _suite_weyl,
    "maurer-cartan": _suite_maurer_cartan,
    "vector-fields": _suite_vector_fields,
    "classical-limit": _suite_classical_limit,
}

SUITE_ORDER = list(SUITES)


def resolve_suite_names(names) -> list[str]:
    """Expand 'all' and validate; preserves the canonical order."""
    requested = []
    for name in names:
        if name == "all":
            requested.extend(SUITE_ORDER)
        elif name in SUITES:
            requested.append(name)
        else:
            known = ", ".join(SUITE_ORDER + ["all"])
            raise ValueError(f"unknown suite {name!r}; known suites: {known}")
    seen = set()
    ordered = []
    for name in SUITE_ORDER:
        if name in requested and name not in seen:
            ordered.append(name)
            seen.add(name)
    return ordered


def _run_suite(name: str, cfg: SuiteConfig) -> CheckReport:
    return SUITES[name](cfg)


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _exit_with_parent(parent: int) -> None:
    """Pool worker initializer: end the worker once `parent` has gone.

    A worker whose parent was killed would otherwise wait on its task queue
    forever, because it holds that queue's write end itself.
    """
    def watch():
        while os.getppid() == parent:
            time.sleep(0.25)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def run_suites(names, cfg: SuiteConfig) -> list[tuple[str, CheckReport]]:
    """Run the named suites and return (name, report) pairs in canonical order.

    The suites run in up to one worker process per available CPU; with one
    CPU or one suite they run in this process.  Either way the reports are
    the same.
    """
    names = resolve_suite_names(names)
    workers = min(len(names), _available_cpus())
    if workers < 2:
        return [(name, _run_suite(name, cfg)) for name in names]
    # Imported here, so that importing the CLI does not pay for them.  Workers
    # are spawned, not forked: a library caller may have threads, and a fork
    # copies their locks in whatever state they are in.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(workers, multiprocessing.get_context("spawn"),
                             initializer=_exit_with_parent, initargs=(os.getpid(),)) as pool:
        reports = list(pool.map(_run_suite, names, itertools.repeat(cfg), chunksize=1))
    return list(zip(names, reports))
