import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from qnspace.cli import main


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_mul_example():
    code, out, _ = run_cli("mul", "x2", "x1", "--n", "2")
    assert code == 0
    assert out.strip() == "q^-1 x1 x2"


def test_antipode_example():
    code, out, _ = run_cli("antipode", "x2", "--n", "2")
    assert code == 0
    assert out.strip() == "-q x1^-2 x2"


def test_derive_example():
    code, out, _ = run_cli("derive", "1", "x1^-2", "--n", "2")
    assert code == 0
    assert out.strip() == "-2 x1^-3"


def test_normalize_contexts():
    code, out, _ = run_cli("normalize", "x2 x1 x2", "--n", "2")
    assert code == 0
    assert out.strip() == "q^-1 x1 x2^2"
    code, out, _ = run_cli("normalize", "d2 d1", "--n", "2", "--context", "operator")
    assert code == 0
    assert out.strip() == "q^-1 d1 d2"
    code, out, _ = run_cli("normalize", r"dx2 /\ dx1", "--n", "2", "--context", "form")
    assert code == 0
    assert out.strip() == r"-dx1 /\ dx2 * q^-1"


def test_coproduct_both_algebras():
    code, out, _ = run_cli("coproduct", "x2", "--n", "3")
    assert code == 0
    assert out.strip() == "x2 (x) x1 + x1 (x) x2"
    code, out, _ = run_cli("coproduct", "d2", "--algebra", "dq", "--n", "2")
    assert code == 0
    assert out.strip() == "d2 (x) 1 + s2 (x) d2"


def test_counit_and_sigma():
    code, out, _ = run_cli("counit", "x1^3 + x2", "--n", "2")
    assert code == 0
    assert out.strip() == "1"
    code, out, _ = run_cli("sigma", "[0,1]", "x1", "--n", "2")
    assert code == 0
    assert out.strip() == "q x1"


def test_d_and_wedge():
    code, out, _ = run_cli("d", "x1 x2", "--n", "2")
    assert code == 0
    assert out.strip() == "dx1 * x2 + dx2 * q x1"
    code, out, _ = run_cli("wedge", "dx1", "dx1", "--n", "2")
    assert code == 0
    assert out.strip() == "0"


def test_mc_commands():
    code, out, _ = run_cli("mc", "x1", "--n", "2")
    assert code == 0
    assert out.strip() == "dx1 * x1^-1"
    code, basis_out, _ = run_cli("mc-basis", "2", "--n", "2")
    code2, mc_out, _ = run_cli("mc", "x2", "--n", "2")
    assert code == code2 == 0
    assert basis_out == mc_out


def test_vf_command():
    code, out, _ = run_cli("vf", "1", "x1^2 x2", "--n", "2")
    assert code == 0
    assert out.strip() == "3 x1^2 x2"


def test_json_output_round_trips():
    from qnspace.qspace import Element

    code, out, _ = run_cli("mul", "x2", "x1", "--n", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert Element.from_json(data) == Element.monomial(2, (1, 1)).scale(
        __import__("qnspace.scalar", fromlist=["LaurentScalar"]).LaurentScalar.q_power(-1))

    code, out, _ = run_cli("coproduct", "x2", "--n", "2", "--format", "json")
    data = json.loads(out)
    assert data["slots"] == ["aq", "aq"]
    assert len(data["terms"]) == 2


def test_parse_error_exit_code():
    code, out, err = run_cli("normalize", "x1 + $", "--n", "2")
    assert code == 2
    assert "error" in err
    code, _, err = run_cli("normalize", "dx1", "--n", "2")
    assert code == 2


def test_boolean_multiindex_exits_2():
    for index in ("[true,0]", "[0,false]"):
        code, out, err = run_cli("sigma", index, "x1", "--n", "2")
        assert code == 2, index
        assert out == ""
        assert err == f"error: multi-index must be a list of integers, got '{index}' (at position 0)\n"


def test_zero_denominator_exits_2():
    for argv in (["normalize", "1/0"], ["mul", "1/0", "x1"], ["coproduct", "1/0"],
                 ["normalize", "1/0", "--context", "form"]):
        code, out, err = run_cli(*argv)
        assert code == 2, argv
        assert out == ""
        assert err == "error: zero denominator in '1/0' (at position 0)\n"


# Seeded mutations of valid expressions: each drops, duplicates or inserts
# one of FUZZ_PIECES at random positions, one to three times.
FUZZ_PIECES = ["/", "^", "(", ")", "-", "0", "x9", "q"]
FUZZ_BASES = {
    "algebra": ["x1 x2^2 - q^-1 x3", "1/2 x1^-1 + 3/4 q x2", "(x1 + 2/3 x2) x3 - 10",
                "q^2 (x2 - 1/5) x1", "-x3^2 + 7/10 x1 x2"],
    "form": [r"x1 dx2 + 1/2 q dx1 /\ dx3", "x2 dx1 - 3/10 dx2 x1^-1", r"(dx1 + q x3) /\ dx2 + 2/3"],
}


def _mutate(rng, text):
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(text) + 1)
        edit = rng.randrange(3)
        if edit == 0 and at < len(text):
            text = text[:at] + text[at + 1:]
        elif edit == 1 and at < len(text):
            text = text[:at] + text[at] + text[at:]
        else:
            text = text[:at] + rng.choice(FUZZ_PIECES) + text[at:]
    return text


def test_seeded_cli_fuzz_exits_cleanly():
    rng = random.Random(2024)
    codes = {0: 0, 1: 0, 2: 0}
    for _ in range(400):
        command = rng.choice(["normalize", "mul", "coproduct", "d"])
        bases = FUZZ_BASES["form" if command == "d" else "algebra"]
        exprs = [_mutate(rng, rng.choice(bases)) for _ in range(2 if command == "mul" else 1)]
        argv = [command, "--n", "3", "--", *exprs]
        try:
            code, _, err = run_cli(*argv)
        except Exception as exc:  # every outcome must be an exit code
            pytest.fail(f"{argv} raised {exc!r}")
        assert code in codes, argv
        assert "Traceback" not in err
        codes[code] += 1
    assert codes[0] and codes[2]


def test_unknown_suite_exit_code():
    code, _, err = run_cli("check", "bogus", "--n", "2")
    assert code == 2
    assert "unknown suite" in err


def test_check_rejects_vacuous_sizes():
    from qnspace.suites import SUITE_ORDER

    for suite in SUITE_ORDER + ["all"]:
        for flag in ("--trials", "--deg"):
            code, out, err = run_cli("check", suite, "--n", "2", flag, "0")
            assert code == 2, (suite, flag)
            assert out == ""
            assert f"error: {flag} must be >= 1" in err
    code, _, _ = run_cli("check", "algebra", "calculus", "--n", "2", "--trials", "-3")
    assert code == 2


FORM_TEXT = r"x2 + dx1 x1 + 2 dx1 x2 + q dx2 + dx1 /\ dx2 x1^-1 - 1/2"


def test_form_normalize_golden():
    code, out, _ = run_cli("normalize", FORM_TEXT, "--n", "2", "--context", "form")
    assert code == 0
    assert out == "-1/2 + x2 + dx1 * (2 x2 + x1) + dx2 * q + dx1 /\\ dx2 * x1^-1\n"
    code, out, _ = run_cli("normalize", FORM_TEXT, "--n", "2", "--context", "form", "--format", "json")
    assert code == 0
    assert out == (
        '{"n": 2, "terms": ['
        '{"coeff": {"n": 2, "terms": [{"alpha": [0, 0], "coeff": [[0, "-1/2"]]}, '
        '{"alpha": [0, 1], "coeff": [[0, "1/1"]]}]}, "wedge": []}, '
        '{"coeff": {"n": 2, "terms": [{"alpha": [0, 1], "coeff": [[0, "2/1"]]}, '
        '{"alpha": [1, 0], "coeff": [[0, "1/1"]]}]}, "wedge": [1]}, '
        '{"coeff": {"n": 2, "terms": [{"alpha": [0, 0], "coeff": [[1, "1/1"]]}]}, "wedge": [2]}, '
        '{"coeff": {"n": 2, "terms": [{"alpha": [-1, 0], "coeff": [[0, "1/1"]]}]}, "wedge": [1, 2]}'
        ']}\n')


def test_check_single_suite():
    code, out, _ = run_cli("check", "bicharacter", "--n", "1", "--trials", "50", "--seed", "1")
    assert code == 0
    assert "overall: PASS" in out


def test_check_json_format():
    code, out, _ = run_cli("check", "cocycle", "--n", "2", "--trials", "20",
                           "--seed", "1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data[0]["ok"] is True
    assert data[0]["identities"][0]["passes"] == 20


def test_failing_check_exits_1(monkeypatch):
    from qnspace import suites
    from qnspace.report import CheckReport

    def broken(cfg):
        report = CheckReport("broken")
        ident = report.new("always-fails")
        ident.record("inputs", 1, 2)
        return report

    monkeypatch.setitem(suites.SUITES, "cocycle", broken)
    code, out, _ = run_cli("check", "cocycle", "--n", "2")
    assert code == 1
    assert "FAIL always-fails" in out
    assert "lhs:    1" in out
    assert "overall: FAIL" in out


def test_check_determinism():
    args = ("check", "algebra", "maurer-cartan", "--n", "2", "--trials", "40", "--seed", "9")
    code1, out1, _ = run_cli(*args)
    code2, out2, _ = run_cli(*args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_check_at_smallest_sizes_tests_every_identity():
    for n in ("1", "2"):
        code, out, _ = run_cli("check", "all", "--n", n, "--deg", "1", "--trials", "1", "--seed", "3")
        assert code == 0, out
        assert "EMPTY" not in out and "(checks=0)" not in out
