"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import signal
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracles as O  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402


@pytest.fixture(scope="module")
def lib():
    return run.import_diffrad()


@pytest.fixture
def alarm():
    previous = signal.signal(signal.SIGALRM, run._on_alarm), signal.getsignal(signal.SIGPROF)
    yield
    signal.signal(signal.SIGALRM, previous[0])
    signal.signal(signal.SIGPROF, previous[1])


# -- generators ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_generators_are_deterministic(lib, name):
    build = W.WORKLOADS[name].build
    first, again, other = build(lib, 11), build(lib, 11), build(lib, 12)
    assert [(op.kind, op.tier, op.inputs) for op in first] == [
        (op.kind, op.tier, op.inputs) for op in again
    ]
    assert [op.inputs for op in first] != [op.inputs for op in other]


def test_wide_roots_chains_have_distinct_residues(lib):
    for op in W.build_wide_roots(lib, 3)[:12]:
        chains, _ = op.inputs
        residues = [s - s.numerator // s.denominator for s, _ in chains]
        assert len(set(residues)) == len(residues)
        assert sum(n for _, n in chains) == int(op.tier[1:])


# -- oracles against the hand-written fixtures ------------------------------------------


def _roots(lib, src):
    return W.root_counter(lib.parser.parse_factored(src))


def _coeffs(lib, src):
    return [W.rad_of(c) for c in lib.parser.parse_poly(src).coeffs]


FERMAT_FIXTURES = {
    "sec5.falling-square-identity": "falling-square",
    "sec5.falling-cube-negative-control": "falling-cube-control",
    "sec5.unit-equation-linear-triad": "unit-linear",
    "sec5.unit-equation-quadratic-triad": "unit-quadratic",
}


def oracle_agrees(lib, case) -> bool | None:
    """Whether the benchmark's own oracle gives the fixture's expected
    answer; None for the one fixture no oracle covers (the numeric triad)."""
    cmd, inputs, args, expected = case["command"], case.get("inputs", []), case.get("args", {}), case["expected"]
    if cmd == "height":
        roots = _roots(lib, inputs[0])
        return O.height(roots, O.root_key(Fraction(args["at"]))) == expected["height"]
    if cmd == "chains":
        got = Counter((r[1], n) for r, n in O.chains(_roots(lib, inputs[0])))
        want = Counter((Fraction(s), n) for s, n in expected["chains"])
        return got == want and Fraction(expected["lead"]) == W._lead(lib.parser.parse_factored(inputs[0]))
    if cmd in ("rad-delta", "rad-kappa", "rad-q"):
        roots = _roots(lib, inputs[0])
        radical = {
            "rad-delta": lambda: O.rad_delta_roots(roots),
            "rad-kappa": lambda: O.rad_kappa_roots(roots, args.get("kappa", 1)),
            "rad-q": lambda: O.rad_delta_q_roots(roots, args.get("q", 1)),
        }[cmd]()
        got = O.linear_product(1, radical)
        return len(got) - 1 == expected["degree"] and [O.Rad.lift(c) for c in got] == _coeffs(lib, expected["text"])
    if cmd == "shifting-prime":
        bases = O.shifting_divisor_bases(_roots(lib, inputs[0]), _roots(lib, inputs[1]))
        return (
            {r for _, r in bases} == {Fraction(d) for d in expected["divisors"]}
            and (not bases) == expected["shifting_prime"]
        )
    if cmd in ("mason", "mason-ext"):
        fs = [lib.parser.parse_factored(src) for src in inputs]
        report = W.mason_expected(fs)[-1]  # the delta-radical report
        return O.subset_match(expected, report)
    if cmd in ("fermat", "fermat-multi") and case["name"] in FERMAT_FIXTURES:
        name, triad, n, rhs_one, want = next(
            c for c in W.FERMAT_CASES if c[0] == FERMAT_FIXTURES[case["name"]]
        )
        built = W.fermat_inputs(lib, triad, Fraction(0))
        return (
            all(
                [W.rad_of(c) for c in f.expand().coeffs] == _coeffs(lib, src)
                for f, src in zip(built, inputs)
            )
            and n == args["n"]
            and rhs_one == bool(args.get("rhs_one"))
            and want == expected
        )
    return None


def test_every_oracle_agrees_with_the_fixtures(lib):
    cases = {c["name"]: c for c in lib.cli.load_fixtures()}
    assert sorted(cases) == sorted(W.PAPER_FIXTURES)
    uncovered = []
    for name, case in cases.items():
        ok, result = lib.cli.run_fixture(case)
        assert ok and O.subset_match(case["expected"], result), name
        verdict = oracle_agrees(lib, case)
        assert verdict is not False, name
        if verdict is None:
            uncovered.append(name)
    assert uncovered == ["sec5.unit-equation-cubic-triad"]


def test_subset_match_rejects_mismatches():
    assert O.subset_match({"a": 1, "b": {"max": 2}}, {"a": 1, "b": 1.5, "c": 0})
    assert not O.subset_match({"a": 1}, {"a": 2})
    assert not O.subset_match({"b": {"max": 2}}, {"b": 3})
    assert not O.subset_match([1, 2], [1, 2, 3])


def test_casoratian_oracle_is_det_times_factorials():
    # f_i = A[i][0] + A[i][1] z: Casoratian f_0 delta f_1 - f_1 delta f_0 = det A.
    a = [[O.Rad.of(2), O.Rad.of(3)], [O.Rad.of(5), O.Rad.of(7)]]
    assert O.determinant(a) == O.Rad.of(-1)
    assert O.falling_basis(3) == [0, 2, -3, 1]


# -- tracing ----------------------------------------------------------------------------

TRACE_SAMPLE = {"paper-replay": 1, "chain-corpus": 4, "wide-roots": 2, "radical-field": 3}


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_traced_run_returns_the_untraced_results(lib, name):
    ops = W.WORKLOADS[name].build(lib, 5)[: TRACE_SAMPLE[name]]
    plain = [op.run() for op in ops]
    rec = spans.SpanRecorder()
    with rec.tracing():
        traced = [op.run() for op in ops]
    counts = Counter()
    with spans.counting_scalars(counts):
        counted = [op.run() for op in ops]
    assert traced == plain
    assert counted == plain
    assert all(op.check(r) for op, r in zip(ops, traced))
    assert rec.names and counts["scalar.exact_mul"] > 0


def _bindings():
    return {
        (id(ns), key): value
        for ns in spans._diffrad_namespaces()
        for key, value in vars(ns).items()
    }


def test_every_wrapped_function_is_restored(lib):
    before = _bindings()
    originals = {
        "poly_gcd": lib.poly.poly_gcd,
        "mul": vars(lib.poly.Poly)["__mul__"],
        "exact_mul": vars(lib.scalar.Exact)["__mul__"],
    }
    rec = spans.SpanRecorder()
    with pytest.raises(RuntimeError):
        with rec.tracing():
            # every name a caller resolves is patched, not just the defining one
            assert lib.shiftcalc.poly_gcd is not originals["poly_gcd"]
            assert lib.theorems.poly_gcd is lib.poly.poly_gcd is lib.shiftcalc.poly_gcd
            assert sys.modules["diffrad"].poly_gcd is lib.poly.poly_gcd
            assert vars(lib.poly.Poly)["__rmul__"] is vars(lib.poly.Poly)["__mul__"]
            assert vars(lib.poly.Poly)["__mul__"] is not originals["mul"]
            raise RuntimeError("leave the context by an error")
    with spans.counting_scalars(Counter()):
        assert vars(lib.scalar.Exact)["__mul__"] is not originals["exact_mul"]
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    assert lib.shiftcalc.poly_gcd is originals["poly_gcd"]


def test_self_time_excludes_children():
    rec = spans.SpanRecorder()
    outer = rec.open("outer")
    time.sleep(0.01)
    inner = rec.open("inner")
    time.sleep(0.02)
    rec.close(inner)
    rec.close(outer)
    own_outer, own_inner = rec.self_times()
    assert 0.005 < own_outer < 0.018
    assert own_inner >= 0.02


def test_layer_metrics_match_benchmark_json():
    declared = {m["name"] for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]}
    produced = set(spans.layer_metrics(spans.SpanRecorder(), [], {}, 0, []))
    assert produced | {"trace.overhead_ratio", "cli.import_ms"} == declared


# -- failure accounting -------------------------------------------------------------------


def test_failing_and_overrunning_ops_are_counted(alarm):
    def boom():
        raise ValueError("no")

    ops = [
        W.Op("raises", boom, lambda r: True),
        W.Op("wrong", lambda: 1, lambda r: r == 2),
        W.Op("unreadable", lambda: None, lambda r: r.missing),
        W.Op("fine", lambda: 2, lambda r: r == 2),
    ]
    sampler = run.SpeedSampler()
    for op in ops:
        results, raw, scaled, err = run.measure(sampler, op.run, run.OP_LIMIT_S)
        assert raw >= 0 and scaled >= 0
        assert (run.checked(op, results, err) is None) == (op.kind == "fine")

    slow = W.Op("slow", lambda: time.sleep(5), lambda r: True)
    t0 = time.perf_counter()
    results, raw, scaled, err = run.measure(sampler, slow.run, 0.2)
    assert isinstance(err, run.OpTimeout)
    assert 0.15 < raw < 1 and time.perf_counter() - t0 < 1
    assert run.checked(slow, results, err)
