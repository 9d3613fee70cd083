"""Command-line interface and bundled verification-suite runner.

Every subcommand reads polynomials through the expression grammar, computes
exactly, prints a human-readable line by default, and emits one JSON document
with --json; ``--backend numeric`` converts the printed values only.
Exit codes: 0 success, 1 a checker reported an unsatisfied claim or
counterexample, 2 usage or parse error, 3 verification-suite mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import takewhile
from pathlib import Path

from . import casorati, diffcalc, shiftcalc, theorems
from .errors import DiffradError, ParseError, RootsUnavailableError
from .parser import NAMES, count_bound, eval_expr, eval_factored, parse, parse_factored, parse_poly
from .diffcalc import NewtonExpansion
from .poly import Poly, classical_rad, coeffs_json, coeffs_text
from .scalar import Numeric
from .shiftcalc import ChainDecomposition

FIXTURE_ROOT = Path(__file__).parent / "fixtures"


class Options:
    """Resolved global options shared by CLI calls and fixture runs."""

    def __init__(self, backend="exact", precision=256):
        self.backend = backend
        self.precision = precision

    def shown(self, x):
        """x, an exact scalar or Poly, as it is printed: converted to numeric
        at this precision on the numeric backend, as it is otherwise."""
        if self.backend != "numeric":
            return x
        return x.embed(self.precision) if isinstance(x, Poly) else x.to_numeric(self.precision)


def _scalar(src: str):
    p = parse_poly(src)
    if p.degree >= 1:
        raise ParseError("expected a scalar expression", 0)
    return p.coeff(0)


def _poly_result(p: Poly, options: Options) -> dict:
    cs = options.shown(p).coeffs  # a Poly builds coeffs per read: read once
    degree = len(cs) - 1 if cs else None
    return {"text": coeffs_text(cs), "poly": coeffs_json(cs), "degree": degree}


# -- command handlers -------------------------------------------------------
# Each handler: (inputs, opts: dict, options: Options) -> result dict; the
# handlers of REPORT_COMMANDS return the checker's report instead.  Inputs
# parse exactly and results are computed exactly; ``options.shown`` converts
# the printed values.  Reports print no values, and their witnesses stay in
# exact text.


def cmd_delta(inputs, opts, options: Options) -> dict:
    p = parse_poly(inputs[0])
    return _poly_result(diffcalc.delta_k(p, opts.get("k", 1)), options)


def cmd_newton(inputs, opts, options: Options) -> dict:
    e = diffcalc.to_newton(parse_poly(inputs[0]), _scalar(opts.get("at", "0")))
    shown = NewtonExpansion(options.shown(e.base), tuple(map(options.shown, e.coeffs)))
    return shown.to_json_dict()


def cmd_height(inputs, opts, options: Options) -> dict:
    at = _scalar(opts.get("at", "0"))
    n = shiftcalc.shifting_zero_height(parse_poly(inputs[0]), at)
    return {"at": options.shown(at).text(), "height": n}


def cmd_chains(inputs, opts, options: Options) -> dict:
    d = shiftcalc.chain_decomposition(parse_factored(inputs[0]))
    chains = tuple((options.shown(start), n) for start, n in d.chains)
    return ChainDecomposition(options.shown(d.lead), chains).to_json_dict()


def cmd_rad(inputs, opts, options: Options) -> dict:
    return _poly_result(classical_rad(parse_factored(inputs[0])), options)


def cmd_rad_delta(inputs, opts, options: Options) -> dict:
    f = parse_factored(inputs[0])
    return _poly_result(shiftcalc.rad_delta(f), options)


def cmd_rad_kappa(inputs, opts, options: Options) -> dict:
    f = parse_factored(inputs[0])
    return _poly_result(shiftcalc.rad_kappa(f, opts.get("kappa", 1)), options)


def cmd_rad_q(inputs, opts, options: Options) -> dict:
    f = parse_factored(inputs[0])
    return _poly_result(shiftcalc.rad_delta_q(f, opts.get("q", 1)), options)


def cmd_gcd_tower(inputs, opts, options: Options) -> dict:
    value = parse(inputs[0])
    try:
        f = eval_factored(value)
    except RootsUnavailableError:
        f = eval_expr(value)
    return _poly_result(shiftcalc.gcd_tower(f, opts.get("n", 1)), options)


def cmd_shifting_prime(inputs, opts, options: Options) -> dict:
    f = parse_factored(inputs[0])
    g = parse_factored(inputs[1])
    divisors = shiftcalc.common_shifting_divisors(f, g)
    return {
        "shifting_prime": not divisors,
        "divisors": [options.shown(d).text() for d in divisors],
    }


def cmd_casoratian(inputs, opts, options: Options) -> dict:
    fs = [parse_poly(src) for src in inputs]
    det = casorati.casoratian(fs, opts.get("form", "delta"))
    return {**_poly_result(det, options), "independent": bool(det)}


def cmd_mason(inputs, opts, options: Options):
    fs = [parse_factored(src) for src in inputs]
    if opts.get("classical"):
        return theorems.mason_classical(*fs)
    return theorems.mason_delta(*fs)


def cmd_mason_ext(inputs, opts, options: Options):
    fs = [parse_factored(src) for src in inputs]
    return theorems.mason_delta_ext(fs)


def _falling_inputs(inputs, n: int) -> list:
    """The inputs, factored, with --n refused where the grammar refuses
    ff(f, n) for an input f, read as the grammar reads it (``eval_expr``)."""
    values = [(value, eval_factored(value)) for value in map(parse, inputs)]
    for src, (value, _) in zip(inputs, values):
        if passed := count_bound(eval_expr(value), n, factorial=True):
            raise ValueError(f"--n {n}: ff({src.strip()}, {n}) would have {passed}")
    return [f for _, f in values]


def cmd_fermat(inputs, opts, options: Options):
    return theorems.fermat_check(*_falling_inputs(inputs, opts["n"]), n=opts["n"])


def cmd_fermat_multi(inputs, opts, options: Options):
    rhs_one = bool(opts.get("rhs_one"))
    if opts.get("builder") == "unit_cubic_triad":  # Example 5.7, all roots s and t
        if (opts["n"], rhs_one) != (3, True):
            raise ValueError("the unit cubic triad is certified for n = 3 with rhs_one")
        return theorems.unit_cubic_certificate()
    fs = _falling_inputs(inputs, opts["n"])
    return theorems.fermat_multi_check(fs, n=opts["n"], rhs_one=rhs_one)


HANDLERS = {
    "delta": cmd_delta,
    "newton": cmd_newton,
    "height": cmd_height,
    "chains": cmd_chains,
    "rad": cmd_rad,
    "rad-delta": cmd_rad_delta,
    "rad-kappa": cmd_rad_kappa,
    "rad-q": cmd_rad_q,
    "gcd-tower": cmd_gcd_tower,
    "shifting-prime": cmd_shifting_prime,
    "casoratian": cmd_casoratian,
    "mason": cmd_mason,
    "mason-ext": cmd_mason_ext,
    "fermat": cmd_fermat,
    "fermat-multi": cmd_fermat_multi,
}

REPORT_COMMANDS = {"mason", "mason-ext", "fermat", "fermat-multi"}


def run_command(command: str, inputs, opts, options: Options) -> tuple[bool, dict]:
    """(claim ok, result dict): a report's own verdict, True otherwise."""
    result = HANDLERS[command](inputs, opts, options)
    if command in REPORT_COMMANDS:
        return result.ok, result.to_json_dict()
    return True, result


# -- verification fixtures ---------------------------------------------------


def _subset_match(expected, actual) -> bool:
    """Expected is a fragment: dict keys must exist and match recursively.

    {"max": x} compares the actual value numerically instead of by equality
    (used for residual bounds).
    """
    if isinstance(expected, dict):
        if set(expected) == {"max"}:
            return isinstance(actual, (int, float)) and actual <= expected["max"]
        if not isinstance(actual, dict):
            return False
        return all(
            key in actual and _subset_match(value, actual[key])
            for key, value in expected.items()
        )
    if isinstance(expected, list):
        return (
            isinstance(actual, list)
            and len(expected) == len(actual)
            and all(_subset_match(e, a) for e, a in zip(expected, actual))
        )
    return expected == actual


def load_fixtures(filter_text: str | None = None) -> list[dict]:
    cases = []
    for path in sorted(FIXTURE_ROOT.rglob("*.json")):
        case = json.loads(path.read_text())
        if filter_text and filter_text not in case["name"]:
            continue
        cases.append(case)
    cases.sort(key=lambda c: c["name"])
    return cases


def run_fixture(case: dict) -> tuple[bool, dict]:
    options = Options(case.get("backend", "exact"), case.get("precision", 256))
    _, result = run_command(
        case["command"], case.get("inputs", []), case.get("args", {}), options
    )
    return _subset_match(case["expected"], result), result


def cmd_verify_paper(filter_text: str | None, as_json: bool) -> int:
    cases = load_fixtures(filter_text)
    if not cases:
        print("no fixtures matched", file=sys.stderr)
        return 3
    failures = []
    rows = []
    for case in cases:
        try:
            ok, result = run_fixture(case)
        except Exception as exc:  # one broken fixture must not end the suite
            ok, result = False, {"error": str(exc), "error_type": type(exc).__name__}
        rows.append(
            {"name": case["name"], "source": case.get("source", ""), "pass": ok}
        )
        if not ok:
            failures.append({"name": case["name"], "got": result})
    if as_json:
        doc = {
            "total": len(rows),
            "passed": sum(r["pass"] for r in rows),
            "cases": rows,
            "failures": failures,
        }
        print(json.dumps(doc, sort_keys=True, allow_nan=False))
    else:
        width = max(len(r["name"]) for r in rows)
        for r in rows:
            mark = "PASS" if r["pass"] else "FAIL"
            print(f"[{mark}] {r['name']:<{width}}  {r['source']}")
        print(f"{sum(r['pass'] for r in rows)}/{len(rows)} fixtures passed")
        for f in failures:
            print(f"  mismatch in {f['name']}: got {json.dumps(f['got'], sort_keys=True)}")
    return 0 if not failures else 3


# -- argument parsing ---------------------------------------------------------


MAX_PRECISION = 2**16  # bits; every README example answers within 1 s at it


def _precision(text: str) -> int:
    """Bits of numeric precision, from Numeric.MIN_PREC to MAX_PRECISION:
    the cost of numeric arithmetic grows with the precision without bound."""
    text = text.strip()  # an argument that starts with "-" comes with a space
    value = int(text)
    if not Numeric.MIN_PREC <= value <= MAX_PRECISION:
        raise argparse.ArgumentTypeError(
            f"must be between {Numeric.MIN_PREC} and {MAX_PRECISION} bits, got {text}"
        )
    return value


def build_arg_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--backend", choices=("exact", "numeric"), default="exact",
        help="how values are printed: exactly, or converted to numeric; every "
        "result is computed exactly (default: exact)",
    )
    common.add_argument(
        "--precision", type=_precision, default=256,
        help=f"bits of precision of numeric output, {Numeric.MIN_PREC} to "
        f"{MAX_PRECISION} (default: 256)",
    )
    common.add_argument("--json", action="store_true", help="emit JSON output")

    top = argparse.ArgumentParser(
        prog="diffrad",
        description="Exact finite-difference polynomial calculus toolkit.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, nargs_inputs, help_text, **extra_args):
        p = sub.add_parser(name, parents=[common], help=help_text)
        if nargs_inputs:
            p.add_argument("inputs", nargs=nargs_inputs, metavar="expr")
        for flag, kwargs in extra_args.items():
            p.add_argument(f"--{flag}", **kwargs)
        return p

    add("delta", 1, "k-fold forward difference",
        k=dict(type=int, default=1, help="difference order (default 1)"))
    add("newton", 1, "falling-factorial expansion around a base point",
        at=dict(default="0", help="base point (scalar expression)"))
    add("height", 1, "shifting-zero height at a point",
        at=dict(default="0", help="evaluation point (scalar expression)"))
    add("chains", 1, "chain decomposition of a factored polynomial")
    add("rad", 1, "classical radical (distinct linear factors)")
    add("rad-delta", 1, "difference radical")
    add("rad-kappa", 1, "kappa-difference radical",
        kappa=dict(type=int, default=1, help="shift distance (default 1)"))
    add("rad-q", 1, "truncated difference radical",
        q=dict(type=int, default=1, help="truncation level (default 1)"))
    add("gcd-tower", 1, "gcd of the polynomial and its first n differences",
        n=dict(type=int, default=1, help="tower height (default 1)"))
    add("shifting-prime", 2, "common shifting divisors of two polynomials")
    add("casoratian", "+", "Casorati determinant of the tuple",
        form=dict(choices=casorati.FORMS, default="delta",
                  help="row layout, differences or shifts (default delta); "
                  "both share one determinant, computed from the difference rows"))
    add("mason", 3, "degree inequality for a + b = c",
        classical=dict(action="store_true", help="use the classical radical"))
    add("mason-ext", "+", "extended inequality for f1 + ... + fm = fm+1")
    add("fermat", 3, "falling-power equation a^n_ + b^n_ = c^n_",
        n=dict(type=int, required=True, help="exponent"))
    p = add("fermat-multi", "+", "multi-term falling-power equation",
            n=dict(type=int, required=True, help="exponent"))
    p.add_argument("--rhs-one", action="store_true",
                   help="right-hand side is the constant 1")
    vp = sub.add_parser("verify-paper", parents=[common],
                        help="run the bundled verification fixtures")
    vp.add_argument("--filter", default=None, help="substring filter on names")
    return top


def _human_lines(command: str, result: dict) -> str:
    if command in REPORT_COMMANDS:
        lines = []
        if "lhs" in result:
            lines.append(
                f"equation holds: {result['equation_holds']} | "
                f"lhs {result['lhs']} <= rhs {result['rhs']} | "
                f"slack {result['slack']}"
                + (" (sharp)" if result.get("sharp") else "")
            )
        else:
            lines.append(
                f"equation holds: {result['equation_holds']} | "
                f"n = {result['n']} vs bound {result['bound']} | "
                f"within bound: {result['within_bound']} | "
                f"residual sup {result['residual_sup']:.3g}"
            )
        for h in result["hypotheses"]:
            mark = "ok" if h["ok"] else "FAILED"
            suffix = f" ({h['witness']})" if h["witness"] else ""
            lines.append(f"  hypothesis {h['name']}: {mark}{suffix}")
        if result.get("counterexample"):
            lines.append("  COUNTEREXAMPLE: hypotheses hold but slack < 0")
        return "\n".join(lines)
    if "text" in result:
        extra = ""
        if "independent" in result:
            extra = f"  (independent: {result['independent']})"
        return result["text"] + extra
    if "height" in result:
        return f"height at {result['at']}: {result['height']}"
    if "chains" in result:
        chains = ", ".join(f"({start}, {n})" for start, n in result["chains"])
        return f"lead {result['lead']}; chains: {chains if chains else '(none)'}"
    if "shifting_prime" in result:
        if result["shifting_prime"]:
            return "shifting prime: yes"
        return "shifting prime: no; divisor base points: " + ", ".join(
            result["divisors"]
        )
    if "base" in result:
        return f"base {result['base']}; coeffs: " + ", ".join(result["coeffs"])
    return json.dumps(result, sort_keys=True)


def _expressions(argv: list[str], parser: argparse.ArgumentParser) -> list[str]:
    """argv with a space before each argument that starts with "-" but names
    or abbreviates no subcommand option, as argparse reads "-z^2" as an unknown
    option and the grammar ignores the space; a "--word" whose word the
    grammar does not know ("--jsn", not "--z") is left for argparse to refuse."""
    subcommands = parser._subparsers._group_actions[0].choices.values()
    names = {name for sub in subcommands for name in sub._option_string_actions}
    return [
        f" {a}" if a[:1] == "-" and not any(n.startswith(a.split("=")[0]) for n in names)
        and (a[:2] != "--" or "".join(takewhile(str.isalpha, a[2:])) in NAMES | {""})
        else a
        for a in argv
    ]


def main(argv: list[str] | None = None) -> int:
    top = build_arg_parser()
    args = top.parse_args(_expressions(sys.argv[1:] if argv is None else argv, top))

    if args.command == "verify-paper":
        return cmd_verify_paper(args.filter, args.json)

    options = Options(args.backend, args.precision)
    opts = {
        key: value
        for key, value in vars(args).items()
        if key not in ("command", "inputs", "backend", "precision", "json")
    }
    inputs = getattr(args, "inputs", [])
    if isinstance(inputs, str):
        inputs = [inputs]
    try:
        ok, result = run_command(args.command, inputs, opts, options)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (RootsUnavailableError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DiffradError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.json:
        print(json.dumps(result, sort_keys=True, allow_nan=False))
    else:
        print(_human_lines(args.command, result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
