import json
import math
import os
import random
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from diffrad import casorati, diffcalc, factor, parser, theorems
from diffrad import FermatReport, Hypothesis, MasonReport, Poly
from diffrad.cli import HANDLERS, REPORT_COMMANDS, load_fixtures, main, run_fixture
from diffrad.errors import ParseError
from diffrad.parser import parse_poly


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_rad_delta_human(capsys):
    code, out, _ = run(capsys, "rad-delta", "roots(1; 0:2, 1:1, 2:1)")
    assert code == 0
    assert out.strip() == "z^2"


def test_json_output_is_byte_stable(capsys):
    args = ("chains", "roots(1; -1:1, 0:2, 1:3, 2:2, 4:1)", "--json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["chains"] == [["-1/1", 4], ["0", 3], ["1/1", 1], ["4/1", 1]]


def test_arity_error_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["mason", "ff(z,1)", "ff(z,1)"])
    assert excinfo.value.code == 2


def test_parse_error_exits_2(capsys):
    code, _, err = run(capsys, "delta", "z + * 3")
    assert code == 2
    assert "offset 4" in err


def test_unreachable_roots_exit_2(capsys):
    code, _, err = run(capsys, "rad-delta", "z^3 - 2")
    assert code == 2
    assert "roots" in err


def test_mason_sharp_exit_0(capsys):
    code, out, _ = run(
        capsys, "mason", "z*(z - 1)", "-(z - 4)*(z - 5)", "4*(2*z - 5)", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["sharp"] is True and doc["slack"] == 0


def test_mason_classical_flag(capsys):
    code, out, _ = run(
        capsys, "mason", "z*(z - 1)", "-(z - 4)*(z - 5)", "4*(2*z - 5)",
        "--classical", "--json",
    )
    assert code == 0
    assert json.loads(out)["rhs"] == 4


def test_fermat_failing_identity_exits_1(capsys):
    code, out, _ = run(
        capsys,
        "fermat",
        "z^2",
        "-(1/2)*i*(sqrt(2)*z^2 + 2*z - sqrt(2))",
        "-(1/2)*(sqrt(2)*z^2 - 2*z - sqrt(2))",
        "--n", "3", "--json",
    )
    assert code == 1
    assert json.loads(out)["equation_holds"] is False


def test_fermat_multi_unit(capsys):
    code, out, _ = run(
        capsys,
        "fermat-multi",
        "1/2*sqrt(2)*z + 1",
        "1/2*z + 1/2*(sqrt(2) - sqrt(6))",
        "1/2*i*sqrt(3)*z + 1/2*i*(sqrt(6) - sqrt(2))",
        "--n", "2", "--rhs-one", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["equation_holds"] and doc["bound"] == "5/1"


def test_height_command(capsys):
    code, out, _ = run(capsys, "height", "z^2*(z - 1)^3", "--at", "0")
    assert code == 0
    assert "2" in out


def _tolerance_exit_codes(capsys, *tol):
    """Exit codes of height and of mason-ext (its inputs are nargs="+") with
    the arguments `tol`, which name the removed --tolerance option: argparse
    refuses them on both."""
    codes = []
    for argv in (["height", "z*(z - 1)", "--backend", "numeric"],
                 ["mason-ext", "z", "z + 1", "2*z + 1"]):
        try:
            codes.append(main(argv + list(tol)))
        except SystemExit as exc:
            codes.append(exc.code)
        err = capsys.readouterr().err
        assert err and "Traceback" not in err
    return codes


def test_numeric_heights_are_exact_and_tolerance_is_refused(capsys):
    """Heights are exact, so there is no tolerance to loosen: the numeric
    backend prints the exact heights, and --tolerance is refused."""
    for expr, height in (("z", 1), ("z^2 - 1/1000", 0)):
        code, out, err = run(capsys, "height", expr, "--backend", "numeric", "--json")
        assert (code, err) == (0, "")
        assert json.loads(out) == {"at": "0.0", "height": height}
    assert _tolerance_exit_codes(capsys, "--tolerance", "1e6") == [2, 2]


@pytest.mark.parametrize("tol", [["--tolerance", "1e-30"], ["--tolerance=inf"], ["--tol", "-1"]],
                         ids=["--tolerance 1e-30", "--tolerance=inf", "--tol -1"])
def test_tolerance_option_is_gone(capsys, tol):
    """Every result is computed exactly, so --tolerance read nothing and is
    gone: any spelling of it, with any value, exits 2."""
    assert _tolerance_exit_codes(capsys, *tol) == [2, 2]


@pytest.mark.parametrize("tol", ["1e-20001", "1e20001", "1" * 20001, "1/3", "abc"])
def test_tolerance_out_of_range_or_not_decimal_exits_2(capsys, tol):
    assert _tolerance_exit_codes(capsys, f"--tolerance={tol}") == [2, 2]


@pytest.mark.parametrize("prec", ["63", "65537", "100000000", "-1", "x"])
def test_precision_out_of_range_exits_2(capsys, prec):
    for backend in ("exact", "numeric"):
        with pytest.raises(SystemExit) as excinfo:
            main(["delta", "z", "--backend", backend, "--precision", prec])
        assert excinfo.value.code == 2
        assert "--precision" in capsys.readouterr().err


def test_precision_range_ends_are_accepted(capsys):
    for prec in ("64", "65536"):
        code, out, _ = run(capsys, "delta", "z^2", "--backend", "numeric", "--precision", prec)
        assert code == 0 and out.strip() == "2.0*z + 1.0"


README_EXAMPLES = [
    ("delta", "ff(z,3)"),
    ("height", "z^2*(z - 1)*(z - 2)", "--at", "0"),
    ("chains", "roots(1; -1:1, 0:2, 1:3, 2:2, 4:1)"),
    ("rad-delta", "roots(1; 0:2, 1:1, 2:1)"),
    ("rad-kappa", "roots(1; 0:2, 1:1, 2:1)", "--kappa", "1"),
    ("rad-q", "ff(z + 2/5, 5)", "--q", "2"),
    ("gcd-tower", "ff(z,3)", "--n", "1"),
    ("newton", "z^2", "--at", "0", "--json"),
    ("shifting-prime", "z*(z - 1)*(z - 2)", "(z - 2)*(z - 3)*(z - 4)"),
    ("casoratian", "z", "z^2", "--form", "shift"),
    ("mason", "z*(z - 1)", "-(z - 4)*(z - 5)", "4*(2*z - 5)"),
    ("mason-ext", "ff(z + 2/5, 5)", "-ff(z + 3/5, 5)", "ff(z, 4)",
     "12/25*z^2 - 36/25*z + 2664/3125"),
    ("fermat", "z^2", "-(1/2)*i*(sqrt(2)*z^2 + 2*z - sqrt(2))",
     "-(1/2)*(sqrt(2)*z^2 - 2*z - sqrt(2))", "--n", "2"),
    ("fermat-multi", "1/2*sqrt(2)*z + 1", "1/2*z + 1/2*(sqrt(2) - sqrt(6))",
     "1/2*i*sqrt(3)*z + 1/2*i*(sqrt(6) - sqrt(2))", "--n", "2", "--rhs-one"),
]


@pytest.mark.parametrize("argv", README_EXAMPLES, ids=[a[0] for a in README_EXAMPLES])
def test_readme_examples_answer_alike_at_every_precision(capsys, argv):
    """From 2150 bits on 2^(-prec/2) is below the smallest float; the
    residual sup is rounding noise and is masked."""
    def verdict(prec):
        code, out, err = run(capsys, *argv, "--backend", "numeric", "--precision", prec)
        return code, re.sub(r"residual sup \S+", "residual sup ~", out), err

    want = verdict("256")
    assert want[0] == 0
    for prec in ("2150", "4096"):
        assert verdict(prec) == want


def test_overflowing_residual_sup_is_valid_json(capsys):
    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    code, out, _ = run(capsys, "fermat", "2^1000*z", "z", "z", "--n", "2", "--json")
    doc = json.loads(out, parse_constant=refuse)
    assert code == 1 and not doc["equation_holds"]
    assert doc["residual_sup"] == sys.float_info.max


def test_underflowing_residual_sup_is_not_zero(capsys):
    """An exact residual below the smallest float reports as that float, not
    as 0, on both backends; an identity reports 0.0 at every precision."""
    for backend in ("exact", "numeric"):
        argv = ("fermat", "z", "((1/2)^100)^11", "z", "--n", "1", "--backend", backend)
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 1 and json.loads(out)["residual_sup"] == math.ulp(0.0)
        code, out, _ = run(capsys, *argv)
        assert code == 1 and "residual sup 4.94e-324" in out
    argv = ("fermat", "z^2", "-(1/2)*i*(sqrt(2)*z^2 + 2*z - sqrt(2))",
            "-(1/2)*(sqrt(2)*z^2 - 2*z - sqrt(2))", "--n", "2", "--backend", "numeric")
    for prec in ("256", "4096"):
        code, out, _ = run(capsys, *argv, "--precision", prec, "--json")
        assert code == 0 and json.loads(out)["residual_sup"] == 0.0


def test_exit_code_is_the_report_verdict(capsys, monkeypatch):
    # a real failed hypothesis: z - (z - 1) = 1, but the zero chain of z
    # runs into the zero 1 of z - 1
    code, out, _ = run(capsys, "mason", "z", "-(z - 1)", "1", "--json")
    doc = json.loads(out)
    assert code == 1 and doc["equation_holds"] and not doc["counterexample"]
    assert not doc["hypotheses"][0]["ok"] and doc["slack"] < 0
    ok = (Hypothesis("pairwise_shifting_prime", True),)
    counterexample = MasonReport("delta", True, ok, lhs=3, rhs=2)
    monkeypatch.setattr(theorems, "mason_delta", lambda *a, **k: counterexample)
    code, out, _ = run(capsys, "mason", "z", "1", "z + 1", "--json")
    assert code == 1 and json.loads(out)["counterexample"] is True
    monkeypatch.setattr(theorems, "mason_delta", lambda *a, **k: MasonReport(
        "delta", True, ok, lhs=2, rhs=2))
    assert run(capsys, "mason", "z", "1", "z + 1")[0] == 0
    for within in (False, True):
        report = FermatReport(Poly(), True, 0.0, 3, 2, Fraction(2), within, ok)
        monkeypatch.setattr(theorems, "fermat_check", lambda *a, **k: report)
        code, out, _ = run(capsys, "fermat", "z", "1", "z + 1", "--n", "3", "--json")
        assert code == (0 if within else 1)
        assert json.loads(out)["within_bound"] is within


def test_numeric_backend_smoke(capsys):
    code, out, _ = run(
        capsys, "rad-delta", "roots(1; 0:2, 1:1, 2:1)",
        "--backend", "numeric", "--precision", "128", "--json",
    )
    assert code == 0
    assert json.loads(out)["degree"] == 2


def test_numeric_constant_radical_is_numeric(capsys):
    # no surviving factor: the constant 1 stays in the numeric backend
    for args in (("gcd-tower", "z - 1/3", "--n", "1"), ("rad", "5")):
        code, out, _ = run(capsys, *args, "--backend", "numeric", "--json")
        assert code == 0
        assert json.loads(out)["poly"]["coeffs"] == ["1.0"]


def test_casoratian_command(capsys):
    code, out, _ = run(capsys, "casoratian", "z", "z^2", "--form", "shift")
    assert code == 0
    assert out.startswith("z^2 + z")


def test_casoratian_past_the_int_to_str_limit(capsys):
    # each input is inside the parser's bit bound; the determinant
    # 2^22000 (z^2 + z) has coefficients of 6623 digits
    code, out, err = run(capsys, "casoratian", "(2^1000)^11*z", "(2^1000)^11*z^2")
    assert code == 0 and not err
    coeff, rest = out.split("*z^2 + ")
    assert len(coeff) == 6623 and coeff.endswith(str(pow(2, 22000, 10**30)))
    assert rest.startswith(coeff + "*z ")


def test_rad_delta_takes_radical_square_roots(capsys):
    # the discriminant 1 - 2i*sqrt(2) is (sqrt(2) - i)^2
    outs = []
    for src in ("(z - sqrt(2))*(z - i)", "roots(1; sqrt(2):1, i:1)"):
        code, out, err = run(capsys, "rad-delta", src, "--json")
        assert code == 0 and not err
        outs.append(json.loads(out))
    assert outs[0] == outs[1]


def test_casoratian_numeric_noise_is_dependent(capsys):
    # 3/7*z + 1/7 = 3/7 * (z + 1/3): the determinant is rounding noise, which
    # is dropped, so it prints as the exact backend's 0
    code, out, _ = run(
        capsys, "casoratian", "z + 1/3", "3/7*z + 1/7",
        "--backend", "numeric", "--precision", "128", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["degree"] is None and doc["text"] == "0" and doc["independent"] is False


def test_casoratian_prints_no_rounding_noise(capsys):
    # the numeric determinant of this independent 5-tuple used to print two
    # terms of about 1e-83 above the exact backend's degree 2
    fs = ("6/5 - z^2", "-1/4 - 6/5*z - z^2", "-z + 2/3*z^2",
          "2/3 + 2/3*z - 4/5*z^2 + 1/4*z^3 + z^4 + 2*z^5",
          "3/5 + 3/2*z + 6*z^2 - 7*z^3 + 3/5*z^4 - 1/2*z^5")
    code, out, _ = run(capsys, "casoratian", *fs, "--backend", "numeric")
    assert code == 0
    assert out.strip() == "11799.36*z^2 - 954.36*z - 59968.512  (independent: True)"
    code, out, _ = run(capsys, "casoratian", *fs, "--json")
    assert code == 0 and json.loads(out)["degree"] == 2


def _scalar_shown(text: str, prec: int) -> str:
    return parse_poly(text).coeff(0).to_numeric(prec).text()


def _converted(command: str, doc: dict, prec: int) -> dict:
    """The exact JSON of `command` with each printed value read back through
    the parser and converted to `prec` bits: what numeric output must be."""
    if "text" in doc:
        p = parse_poly(doc["text"])
        assert doc["poly"]["coeffs"] == [c.text() for c in p.coeffs]
        shown = p.embed(prec)
        return {**doc, "text": shown.expr_text(), "poly": shown.to_json_dict()}
    if command == "newton":
        return {"base": _scalar_shown(doc["base"], prec),
                "coeffs": [_scalar_shown(c, prec) for c in doc["coeffs"]]}
    if command == "height":
        return {**doc, "at": _scalar_shown(doc["at"], prec)}
    if command == "chains":
        return {"lead": _scalar_shown(doc["lead"], prec),
                "chains": [[_scalar_shown(c, prec), n] for c, n in doc["chains"]]}
    if command == "shifting-prime":
        return {**doc, "divisors": [_scalar_shown(d, prec) for d in doc["divisors"]]}
    assert command in REPORT_COMMANDS  # reports print no values
    return doc


@pytest.mark.parametrize("command", ["fermat", "fermat-multi"])
def test_exponent_is_refused_where_the_grammar_refuses_ff(capsys, command):
    """--n builds ff(f, n) for every input f, so it is refused (exit 2,
    naming --n and the bound) exactly where the grammar refuses ff(f, n):
    past the degree bound, past the bit bound, and at --n 100000."""
    cases = [
        (("z^250", "z", "z + 1"), 4, "z^250", "degree above 1000"),
        (("z", "z + 1", "(2^1000)^3"), 3, "(2^1000)^3", "coefficients above 12000 bits"),
    ]
    for inputs, n, f, bound in cases:
        parse_poly(f"ff({f}, {n})")
        code, _, err = run(capsys, command, *inputs, "--n", str(n))
        assert code in (0, 1) and err == ""
        with pytest.raises(ParseError, match=re.escape(bound)):
            parse_poly(f"ff({f}, {n + 1})")
        code, out, err = run(capsys, command, *inputs, "--n", str(n + 1))
        assert (code, out, err) == (2, "", f"error: --n {n + 1}: ff({f}, {n + 1}) would have {bound}\n")
    code, out, err = run(capsys, command, "z", "z + 1", "z + 2", "--n", "100000")
    assert (code, out, err) == (2, "", "error: --n 100000: ff(z, 100000) would have degree above 1000\n")


def _seeded_calls(rng) -> list[list[str]]:
    """Three seeded calls of each of the 15 commands, radical values included."""
    def scalar():
        value = f"({Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3)))})"
        return value + rng.choice(("", "", "*sqrt(2)", "*i"))

    def poly(degree):
        return " + ".join(f"{scalar()}*z^{k}" for k in range(degree)) + f" + z^{degree}"

    def roots_text(f):
        return f"roots({f.lead.text()}; " + ", ".join(f"{r.text()}:{m}" for r, m in f.roots) + ")"

    def factored(count):
        base = Fraction(rng.randint(-4, 4), rng.choice((1, 2)))
        radical = rng.choice(("", "", " + sqrt(2)", " + i"))
        roots = [f"{base + rng.randint(0, 2)}{radical}:{rng.randint(1, 2)}" for _ in range(count)]
        return f"roots({rng.choice(('1', '-2', '1/3'))}; " + ", ".join(roots) + ")"

    calls = []
    for _ in range(3):
        seed = rng.randint(0, 10**6)
        calls += [
            ["delta", poly(4), "--k", str(rng.randint(0, 3))],
            ["newton", poly(3), "--at", scalar()],
            ["height", factored(3), "--at", rng.choice(("0", "1", "1/2"))],
            ["chains", factored(4)],
            ["rad", factored(3)],
            ["rad-delta", factored(4)],
            ["rad-kappa", factored(4), "--kappa", str(rng.choice((-1, 1, 2)))],
            ["rad-q", factored(4), "--q", str(rng.randint(1, 3))],
            ["gcd-tower", rng.choice((factored(4), "z^3 + 2*z + 5")), "--n", "1"],
            ["shifting-prime", factored(3), factored(3)],
            ["casoratian", *[poly(rng.randint(1, 4)) for _ in range(rng.randint(2, 4))]],
            ["mason", *map(roots_text, theorems.gen_mason_instance(2, seed)),
             *rng.choice(((), ("--classical",)))],
            ["mason-ext", *map(roots_text, theorems.gen_mason_instance(3, seed))],
            ["fermat", factored(2), factored(2), factored(2), "--n", str(rng.randint(1, 3))],
            ["fermat-multi", factored(2), factored(2), factored(2), "--n", "2", "--rhs-one"],
        ]
    return calls


def test_numeric_output_is_the_converted_exact_output(capsys):
    """For every command, on seeded inputs, at 64, 256 and 4096 bits: the
    numeric backend's JSON is the exact JSON with each printed value
    converted, and the exit code is the same."""
    calls = _seeded_calls(random.Random(2024))
    assert {argv[0] for argv in calls} == set(HANDLERS)
    answered = 0
    for argv in calls:
        code, out, err = run(capsys, *argv, "--json")
        for prec in (64, 256, 4096):
            got = run(capsys, *argv, "--json", "--backend", "numeric", "--precision", str(prec))
            assert got[0] == code, argv
            if code in (0, 1):
                assert json.loads(got[1]) == _converted(argv[0], json.loads(out), prec), argv
                answered += 1
            else:
                assert got[1:] == (out, err), argv
    assert answered >= 3 * 40


@pytest.mark.parametrize("argv, want", [
    (["delta", "-z^2"], "-2*z - 1"),
    (["newton", "z^2", "--at", "-1/2"], "base -1/2; coeffs: 1/4, 0, 1/1"),
    (["newton", "-z", "--at=-1"], "base -1/1; coeffs: 1/1, -1/1"),
    (["delta", "-(z - 4)*(z - 5)"], "-2*z + 8"),
    (["delta", "--z"], "1"),
])
def test_expression_may_start_with_a_minus(capsys, argv, want):
    code, out, err = run(capsys, *argv)
    assert (code, out.strip(), err) == (0, want, "")


@pytest.mark.parametrize("argv", [
    ["height", "z", "--jsn"],
    ["height", "z", "--jsn=1"],
    ["mason-ext", "z", "z + 1", "2*z + 1", "--jsn"],
    ["casoratian", "z", "z^2", "--jsn"],
    ["fermat-multi", "z", "z + 1", "--n", "2", "--jsn"],
], ids=["height", "height-value", "mason-ext", "casoratian", "fermat-multi"])
def test_a_mistyped_word_option_is_named(capsys, argv):
    """A "--word" argument whose word the grammar does not know is an
    option, on one-input commands and on those whose inputs are nargs="+"."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    option = argv[-1]
    assert capsys.readouterr().err.splitlines()[-1] == f"diffrad: error: unrecognized arguments: {option}"


@pytest.mark.parametrize("tol", [["--tolerance", "-1"], ["--tol", "-1"]])
def test_negative_tolerance_is_still_a_usage_error(capsys, tol):
    assert _tolerance_exit_codes(capsys, *tol) == [2, 2]


def test_casoratian_command_computes_one_determinant(capsys, monkeypatch):
    calls = []
    original = casorati.determinant

    def counting(rows):
        calls.append(rows)
        return original(rows)

    monkeypatch.setattr(casorati, "determinant", counting)
    for backend in ("exact", "numeric"):
        calls.clear()
        code, out, _ = run(
            capsys, "casoratian", "z", "z^2", "z^3 - 1", "--backend", backend, "--json"
        )
        assert code == 0 and json.loads(out)["independent"] is True
        assert len(calls) == 1


@pytest.mark.parametrize(
    "src, code",
    [
        ("ff(z,20)", 0),
        ("z^2 - 3*2^200", 0),
        ("z^3 + 2*z + 1000000000000000000000000000057", 2),
        ("z^2 + 1000000000000000000000000000057*z + 3", 2),
        ("ff(z,1000)", 2),
    ],
)
def test_factoring_is_bounded(capsys, monkeypatch, src, code):
    # the time bound is on factoring; building ff(z,1000) is a parser cost
    times = []

    def timed(p):
        start = time.perf_counter()
        try:
            return factor(p)
        finally:
            times.append(time.perf_counter() - start)

    monkeypatch.setattr(parser, "factor", timed)
    assert run(capsys, "rad-delta", src)[0] == code
    assert len(times) == 1 and times[0] < 2


def test_gcd_tower_command_falls_back_to_euclid(capsys, monkeypatch):
    # irrational cubic roots: factored route unavailable, Euclid still works,
    # on the one parse of the input
    parses = []
    parse_expr = parser._Parser.parse_expr
    monkeypatch.setattr(parser._Parser, "parse_expr",
                        lambda self: parses.append(1) or parse_expr(self))
    for src in ("z^3 - 2", "z^3 + 2*z + 5"):
        code, out, _ = run(capsys, "gcd-tower", src, "--n", "1")
        assert code == 0
        assert out.strip() == "1"
    assert len(parses) == 2


def test_newton_command(capsys):
    code, out, _ = run(capsys, "newton", "z^2", "--at", "0", "--json")
    assert code == 0
    assert json.loads(out) == {"base": "0", "coeffs": ["0", "1/1", "1/1"]}


def test_shifting_prime_command(capsys):
    code, out, _ = run(capsys, "shifting-prime", "z", "z - 5/2")
    assert code == 0
    assert "yes" in out


def test_verify_paper_all_pass(capsys):
    code, out, _ = run(capsys, "verify-paper")
    assert code == 0
    assert "FAIL" not in out


def test_verify_paper_filter(capsys):
    code, out, _ = run(capsys, "verify-paper", "--filter", "sec3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["total"] >= 5 and doc["passed"] == doc["total"]


def test_verify_paper_reports_any_exception_as_fail(capsys, monkeypatch):
    broken = {
        "name": "broken_kappa_zero",
        "source": "test",
        "command": "rad-kappa",
        "inputs": ["roots(1; 0:1)"],
        "args": {"kappa": 0},
        "expected": {},
    }
    cases = [broken] + load_fixtures("sec2")
    monkeypatch.setattr("diffrad.cli.load_fixtures", lambda filter_text=None: cases)
    code, out, _ = run(capsys, "verify-paper", "--json")
    assert code == 3
    doc = json.loads(out)
    assert doc["total"] == len(cases) and doc["passed"] == len(cases) - 1
    (failure,) = doc["failures"]
    assert failure["name"] == "broken_kappa_zero"
    assert failure["got"]["error_type"] == "ValueError"
    assert "kappa" in failure["got"]["error"]


def test_verify_paper_unknown_filter(capsys):
    code, _, err = run(capsys, "verify-paper", "--filter", "nonexistent")
    assert code == 3
    assert "no fixtures" in err


def test_mason_numeric_backend(capsys):
    code, out, _ = run(
        capsys, "mason", "z*(z - 1)", "-(z - 4)*(z - 5)", "4*(2*z - 5)",
        "--backend", "numeric", "--precision", "128", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["equation_holds"] and doc["slack"] == 0


def test_mason_classical_numeric_backend(capsys):
    code, out, _ = run(
        capsys, "mason", "z*(z - 1)", "-(z - 4)*(z - 5)", "4*(2*z - 5)",
        "--classical", "--backend", "numeric", "--json",
    )
    assert code == 0
    assert json.loads(out)["applicable"] is True


def test_newton_at_radical_point(capsys):
    code, out, _ = run(capsys, "newton", "z^2 - 2", "--at", "sqrt(2)", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["base"] == "1/1*sqrt(2)"
    assert doc["coeffs"][0] == "0"  # sqrt(2) is a zero of z^2 - 2


def test_delta_k_flag(capsys):
    code, out, _ = run(capsys, "delta", "z^3", "--k", "3")
    assert code == 0
    assert out.strip() == "6"


def test_delta_past_the_degree_prints_zero_at_once(capsys, monkeypatch):
    original = diffcalc.delta
    calls = []

    def bounded(p):
        calls.append(p)
        if len(calls) > 4:  # delta^4 ff(z,3) = 0
            raise AssertionError("differenced past zero")
        return original(p)

    monkeypatch.setattr(diffcalc, "delta", bounded)
    code, out, _ = run(capsys, "delta", "ff(z,3)", "--k", "100000000")
    assert code == 0
    assert out.strip() == "0"


@pytest.mark.parametrize(
    "src, roots",
    [
        ("z^2*(z - sqrt(2))", "roots(1; 0:2, sqrt(2):1)"),
        ("z^3*(z - i)", "roots(1; 0:3, i:1)"),
    ],
)
def test_zero_roots_of_radical_input_are_found(capsys, src, roots):
    code, out, _ = run(capsys, "rad-delta", src, "--json")
    assert code == 0
    assert (code, out) == run(capsys, "rad-delta", roots, "--json")[:2]


@pytest.mark.parametrize(
    "argv",
    [
        ("delta", "z^100000000"),
        ("delta", "ff(z,100000000)"),
        ("rad", "sqrt(2305843009213693951)"),
        ("delta", "1" * 5000),
        ("delta", "z^2*((2^1000)^1000)^10"),
    ],
)
def test_parser_limits_exit_2(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("parse error:") and "(offset " in err


def test_fixture_sources_are_annotated():
    for case in load_fixtures():
        assert case["source"].startswith("paper:")
        ok, _ = run_fixture(case)
        assert ok, case["name"]


GOLDEN = Path(__file__).parent / "data" / "fixture_results.json"


def test_fixture_results_match_golden():
    """The full result of every bundled fixture, not only the fragment its
    `expected` names: verdict fields such as slack, sharp, counterexample,
    applicable and the hypothesis witnesses are pinned here."""
    golden = json.loads(GOLDEN.read_text())
    got = {}
    for case in load_fixtures():
        ok, result = run_fixture(case)
        got[case["name"]] = {"pass": ok, "result": result}
    assert json.loads(json.dumps(got)) == golden


def test_import_and_verify_paper_leave_mpmath_unimported():
    """mpmath is imported on the first numeric operation: neither
    ``import diffrad`` nor verify-paper, whose fixtures are all exact,
    imports it; a numeric conversion does not either, and printing one does."""
    import subprocess

    import diffrad

    code = (
        "import contextlib, io, sys\n"
        "import diffrad\n"
        "from diffrad import Exact, cli\n"
        "assert 'mpmath' not in sys.modules\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['verify-paper', '--json']) == 0\n"
        "x = Exact.sqrt_int(2).to_numeric(64)\n"
        "print('mpmath' in sys.modules, complex(Exact.sqrt_int(2)) != 0)\n"
        "x.text()\n"
        "print('mpmath' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(diffrad.__file__).parent.parent)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False", "True", "True"]


@pytest.mark.parametrize("backend", ["exact", "numeric"])
def test_printed_polynomial_reads_its_coefficients_once(monkeypatch, backend):
    """An exact Poly builds its coeffs view per read, so a printed result
    reads it once for its text, JSON and degree."""
    from diffrad import cli

    p = parse_poly("3*z^2 - sqrt(2)*z + 1/7")
    shown = cli.Options(backend, 64).shown(p)
    expected = {"text": shown.expr_text(), "poly": shown.to_json_dict(), "degree": 2}
    reads = []
    view = Poly.coeffs
    monkeypatch.setattr(Poly, "coeffs", property(lambda q: reads.append(q) or view.fget(q)))
    assert cli._poly_result(p, cli.Options(backend, 64)) == expected
    assert len(reads) == 1
