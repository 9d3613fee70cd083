import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations

import mpmath
import pytest

from diffrad import shiftcalc, theorems
from diffrad import (
    BackendMismatchError,
    Exact,
    FactoredPoly,
    Hypothesis,
    MasonReport,
    Numeric,
    Poly,
    SamplingBudgetError,
    factor,
    falling_power_factored,
    fermat_check,
    fermat_multi_check,
    gen_mason_instance,
    mason_classical,
    mason_delta,
    mason_delta_ext,
    poly_gcd,
    rad_delta,
    rad_delta_q,
    unit_cubic_resolvent_roots,
    unit_cubic_triad,
)
from diffrad.cli import Options, run_command
from diffrad.theorems import unit_cubic_certificate
from helpers import (
    I,
    S2,
    brute_common_shifting_divisors,
    falling_square_triple,
    sharp_quadratic_triple,
    sharp_quintic_tuple,
    unit_cubic_oracle,
    unit_linear_triad,
    unit_quadratic_triad,
)

Z = Poly.z()


def hyp_map(report):
    return {h.name: h.ok for h in report.hypotheses}


# -- three-term inequality, classical radical ---------------------------------


def test_mason_classical_sharp_line():
    one = FactoredPoly(1)
    z = FactoredPoly(1, [(0, 1)])
    z1 = FactoredPoly(1, [(-1, 1)])
    report = mason_classical(one, z, z1)
    assert report.equation_holds
    assert hyp_map(report)["not_all_constant"]
    assert (report.lhs, report.rhs, report.sharp) == (1, 1, True)


def test_mason_classical_on_quadratic_triple():
    a, b, c = sharp_quadratic_triple()
    report = mason_classical(a, b, c)
    assert report.equation_holds and report.applicable
    # five distinct roots in abc: rhs = 5 - 1
    assert (report.lhs, report.rhs, report.slack) == (2, 4, 2)
    assert not report.sharp


def test_mason_classical_coprimality_flag():
    a = FactoredPoly(1, [(0, 1)])
    report = mason_classical(a, a, FactoredPoly(2, [(0, 1)]))
    assert report.equation_holds
    assert not hyp_map(report)["relatively_prime"]
    assert not report.applicable


def test_mason_classical_expands_each_input_once(monkeypatch):
    a, b, c = gen_mason_instance(2, seed=5)
    calls = []
    original = FactoredPoly.expand

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(FactoredPoly, "expand", counting)
    report = mason_classical(a, b, c)
    assert report.equation_holds and hyp_map(report)["relatively_prime"]
    assert len(calls) == 3


@pytest.mark.parametrize("m, seed", [(2, 5), (3, 1), (3, 2), (3, 4)])
def test_gen_mason_instance_expands_each_part_once(monkeypatch, m, seed):
    """The parts' shifting primality is checked on their drawn ints first: a
    part is built only when its attempt's parts pass that check, decided
    here by the definition-based oracle on the built parts, and a built part
    is expanded exactly once."""
    draws, built, expanded = [], [], []
    draw, build, expand = theorems._draw_factored, theorems._build_factored, FactoredPoly.expand

    def drawing(*args):
        draws.append(draw(*args))
        return draws[-1]

    def building(*draw):
        built.append((draw, build(*draw)))
        return built[-1][1]

    def counting(self):
        if any(self is part for _, part in built):
            expanded.append(self)
        return expand(self)

    monkeypatch.setattr(theorems, "_draw_factored", drawing)
    monkeypatch.setattr(theorems, "_build_factored", building)
    monkeypatch.setattr(FactoredPoly, "expand", counting)
    fs = gen_mason_instance(m, seed=seed)
    expanded_ids = [id(f) for f in expanded]
    monkeypatch.undo()
    attempts = [draws[i : i + m] for i in range(0, len(draws), m)]
    passing = [
        attempt
        for attempt in attempts
        if not any(
            brute_common_shifting_divisors(build(*f), build(*g))
            for f, g in combinations(attempt, 2)
        )
    ]
    assert passing[-1] == attempts[-1]
    assert fs[:m] == [build(*d) for d in attempts[-1]] == [f for _, f in built[-m:]]
    # no part (and so no Exact root) is built for an attempt that fails
    assert [d for d, _ in built] == [d for attempt in passing for d in attempt]
    assert len(set(expanded_ids)) == len(expanded_ids)
    assert expanded_ids == [id(f) for _, f in built]


MASON_SEEDS_DIGEST = "e7e49e2cee9ef7c42860341cc4c519eb25ce027dd21cf247066e762ded31290b"
# m = 4, seeds 0-9: five instances and five budget errors (seeds 1, 2, 5, 6, 8)
MASON_FOUR_SEEDS_DIGEST = "6b4378ccd0e87c7532d82d95bd20d00d8e069d72f4d1ab733888cbb578fc25db"


def mason_outcome(m: int, seed: int):
    try:
        return [f.to_json_dict() for f in gen_mason_instance(m, seed)]
    except SamplingBudgetError as exc:
        return {"attempts": exc.attempts}


def test_gen_mason_instance_pins_each_seeds_instance():
    """Each seed's instance, or its budget error, is pinned by digest: any
    order of the rejection checks that keeps every draw gives these."""
    outcomes = [[m, s, mason_outcome(m, s)] for m in (2, 3) for s in range(100)]
    text = json.dumps(outcomes, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == MASON_SEEDS_DIGEST
    four = json.dumps(mason_outcome(4, 4), sort_keys=True)
    assert hashlib.sha256(four.encode()).hexdigest() == (
        "872bb115b3a59b41a18bfdc6c671db5aad2c30770ef651aa3a16985d645f8b17"
    )
    with pytest.raises(SamplingBudgetError) as excinfo:
        gen_mason_instance(4, 1)
    assert excinfo.value.attempts == 5000


def test_gen_mason_instance_pins_the_m4_seeds():
    """The rejection-heavy m = 4 seeds, pinned the same way: half of them
    spend their whole budget, nearly all of it rejected on the drawn ints."""
    outcomes = [[4, s, mason_outcome(4, s)] for s in range(10)]
    text = json.dumps(outcomes, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == MASON_FOUR_SEEDS_DIGEST


# -- three-term inequality, difference radical --------------------------------


def test_mason_delta_sharp_triple():
    a, b, c = sharp_quadratic_triple()
    assert a.expand() + b.expand() == c.expand()
    report = mason_delta(a, b, c)
    assert report.equation_holds and report.applicable
    assert (report.lhs, report.rhs, report.slack, report.sharp) == (2, 2, 0, True)
    assert report.extra["rhs_kappa"] == report.rhs
    assert not report.counterexample


def test_mason_delta_on_falling_squares():
    a, b, c = falling_square_triple()
    A = falling_power_factored(a, 2)
    B = falling_power_factored(b, 2)
    C = falling_power_factored(c, 2)
    report = mason_delta(A, B, C)
    assert report.equation_holds
    assert report.applicable
    assert report.slack >= 0


def test_mason_delta_hypothesis_witness():
    a = FactoredPoly(1, [(0, 1), (1, 1)])
    bad = FactoredPoly(1, [(2, 1)])
    report = mason_delta(a, bad, factor(a.expand() + bad.expand()))
    hyps = {h.name: h for h in report.hypotheses}
    assert not hyps["pairwise_shifting_prime"].ok
    assert "shifting divisor" in hyps["pairwise_shifting_prime"].witness
    assert not report.applicable


def test_mason_delta_generated_instances():
    for seed in range(12):
        a, b, c = gen_mason_instance(2, seed=seed)
        assert a.expand() + b.expand() == c.expand()
        report = mason_delta(a, b, c)
        assert report.applicable
        assert report.slack >= 0
        assert not report.counterexample


# -- extended inequality -------------------------------------------------------


def test_mason_delta_ext_sharp_tuple():
    fs = sharp_quintic_tuple()
    report = mason_delta_ext(fs)
    assert report.equation_holds and report.applicable
    assert (report.lhs, report.rhs, report.slack, report.sharp) == (5, 5, 0, True)
    assert report.extra["rhs_weak"] == 7
    product = fs[0].times(fs[1]).times(fs[2]).times(fs[3])
    assert rad_delta_q(product, 2).degree == 8


def test_mason_delta_ext_reduces_to_three_term():
    a, b, c = sharp_quadratic_triple()
    ext = mason_delta_ext([a, b, c])
    three = mason_delta(a, b, c)
    # m = 2: penalty is 1 and the truncation level is 1, so rhs matches
    assert ext.rhs == three.rhs
    assert ext.extra["rhs_weak"] == three.rhs
    assert ext.lhs == three.lhs


def test_mason_delta_ext_requires_enough_terms():
    a, b, _ = sharp_quadratic_triple()
    with pytest.raises(ValueError):
        mason_delta_ext([a, b])


def test_mason_delta_ext_generated_instances():
    for seed in (1, 4, 9):
        fs = gen_mason_instance(3, seed=seed)
        report = mason_delta_ext(fs)
        assert report.applicable
        assert report.slack >= 0
        assert report.slack <= report.extra["slack_weak"]


# -- falling-power equations ---------------------------------------------------


def test_fermat_falling_squares():
    a, b, c = falling_square_triple()
    report = fermat_check(a, b, c, 2)
    assert report.equation_holds
    assert not report.identity_residual
    assert report.bound == 2 and report.within_bound
    assert all(report_h.ok for report_h in report.hypotheses)


def test_fermat_checks_group_each_falling_power_once(monkeypatch):
    calls = []
    original = shiftcalc.shift_classes

    def counting(f):
        calls.append(f)
        return original(f)

    monkeypatch.setattr(shiftcalc, "shift_classes", counting)
    a, b, c = falling_square_triple()
    report = fermat_check(a, b, c, 2)
    assert all(h.ok for h in report.hypotheses)
    assert len(calls) == 3
    calls.clear()
    report = fermat_multi_check(unit_linear_triad(), 2, rhs_one=True)
    assert all(h.ok for h in report.hypotheses)
    assert len(calls) == 3
    calls.clear()
    # a constant input groups no roots and keeps its verdicts
    report = fermat_check(FactoredPoly(3), FactoredPoly(4), FactoredPoly(7), 2)
    assert len(calls) == 3
    assert [h.ok for h in report.hypotheses] == [False, True, True, True]


def test_fermat_negative_control_cubes():
    a, b, c = falling_square_triple()
    report = fermat_check(a, b, c, 3)
    assert not report.equation_holds
    assert report.identity_residual
    assert report.residual_sup > 0


def test_fermat_constant_triple():
    report = fermat_check(FactoredPoly(3), FactoredPoly(4), FactoredPoly(7), 1)
    assert report.equation_holds
    assert report.bound == 1 and report.within_bound
    assert not hyp_map(report)["not_all_constant"]


def test_fermat_linear_case():
    a = FactoredPoly(1, [(0, 1)])
    b = FactoredPoly(1)
    c = FactoredPoly(1, [(-1, 1)])
    report = fermat_check(a, b, c, 1)
    assert report.equation_holds
    assert report.bound == 1 and report.within_bound


def test_fermat_multi_unit_triads():
    for triad in (unit_linear_triad(), unit_quadratic_triad()):
        report = fermat_multi_check(triad, 2, rhs_one=True)
        assert report.equation_holds
        assert report.residual_sup == 0.0
        assert report.bound == Fraction(5)
        assert report.within_bound
        assert all(h.ok for h in report.hypotheses)


def test_fermat_multi_nonunit_bound():
    # f1^1_ + f2^1_ = f3^1_ on plain linears: bound m^2-1 - m(m-1)/(2 maxdeg)
    f1 = FactoredPoly(1, [(0, 1)])
    f2 = FactoredPoly(1, [(Fraction(1, 2), 1)])
    f3 = factor(f1.expand() + f2.expand())
    report = fermat_multi_check([f1, f2, f3], 1)
    assert report.equation_holds
    assert report.m == 2
    assert report.bound == Fraction(3) - Fraction(1, 1)
    assert report.within_bound


def test_fermat_multi_unit_cubics_numeric():
    """Example 5.7 is decided by the exact certificate, at all nine roots
    at once; the numeric oracle agrees at each root."""
    report = unit_cubic_certificate()
    assert report.equation_holds and report.residual_sup == 0.0
    assert not any(report.identity_residual)
    assert report.within_bound and report.bound == 5  # 3 <= 5
    assert all(h.ok for h in report.hypotheses)
    roots = unit_cubic_resolvent_roots(256)
    assert len(roots) == 9
    for s in roots:
        residual, gap, det = unit_cubic_oracle(s, 1, 256)
        assert residual <= mpmath.mpf(2) ** -240 and gap > 1e-3 and det > 1


RESOLVENT_PRECS = [64, 128, 256, 512]
TRIAD_TS = (1, Fraction(-3, 7), 5)


@pytest.mark.parametrize("prec", RESOLVENT_PRECS)
def test_certificate_agrees_with_the_numeric_oracle(prec):
    """9 roots x 3 values of t: the falling cubes sum to 1 within
    2^-(prec - 16) at sample points, root differences across the members
    stay away from the integers, and the 3x3 value determinant is nonzero."""
    assert unit_cubic_certificate().ok
    for s in unit_cubic_resolvent_roots(prec):
        for t in TRIAD_TS:
            residual, gap, det = unit_cubic_oracle(s, t, prec)
            assert residual <= mpmath.mpf(2) ** -(prec - 16)
            assert gap > 1e-3 and det > 1


@pytest.mark.parametrize(
    "resolvent",
    [
        (1, 0, 0, 0, 0, 0, -144, 0, 0, 109),
        (1, 0, 0, 0, 0, 0, -143, 0, 0, 108),
        (2, 0, 0, 0, 0, 0, -288, 0, 0, 216),  # the same roots: still certified
    ],
)
def test_certificate_reads_the_resolvent(monkeypatch, resolvent):
    monkeypatch.setattr(theorems, "UNIT_CUBIC_RESOLVENT", resolvent)
    report = unit_cubic_certificate()
    same_roots = resolvent[0] == 2
    assert report.equation_holds is same_roots and report.ok is same_roots
    assert (report.residual_sup > 0) is not same_roots


def test_certificate_reports_each_failed_step(monkeypatch):
    monkeypatch.setattr(theorems, "UNIT_CUBIC_RESOLVENT", (1, 0, 0, 0, 0, 0, -144, 1, 0, 108))
    with pytest.raises(ValueError, match="not a polynomial in s\\^3"):
        unit_cubic_certificate()
    monkeypatch.undo()
    monkeypatch.setattr(theorems, "_integer_shift", lambda w, v: -2)
    monkeypatch.setattr(theorems.casorati, "determinant", lambda rows: Poly())
    report = unit_cubic_certificate()
    assert report.equation_holds and not report.ok
    assert hyp_map(report) == {
        "nonconstant": True, "pairwise_shifting_prime": False, "linear_independence": False,
    }
    assert report.hypotheses[1].witness == "roots of inputs 0 and 1 differ by the integer -2"


def test_certificate_scan_finds_an_integer_shift():
    # roots 1/2 and 5/2 of w and v differ by 2; no root of z^2 + 1 differs
    # from one of z^2 - 2 by an integer
    assert theorems._integer_shift(Poly([Fraction(-1, 2), 1]), Poly([Fraction(-5, 2), 1])) == 2
    assert theorems._integer_shift(Z**2 + 1, Z**2 - 2) is None


def _resolvent_oracle(prec):
    """The resolvent's roots from a general degree-9 polyroots run."""
    with mpmath.mp.workprec(prec + 64):
        return mpmath.polyroots(
            list(theorems.UNIT_CUBIC_RESOLVENT), maxsteps=200, extraprec=prec
        )


@pytest.mark.parametrize("prec", RESOLVENT_PRECS)
def test_resolvent_roots_match_polyroots_oracle(prec):
    roots = unit_cubic_resolvent_roots(prec)
    oracle = _resolvent_oracle(prec)
    assert len(roots) == 9 and all(r.prec == prec for r in roots)
    with mpmath.mp.workprec(prec + 64):
        tol = mpmath.mpf(2) ** -(prec - 8)
        for root in roots:
            s = root.to_mpc()
            assert min(abs(s - o) for o in oracle) <= tol * abs(s)
        # the nine roots are distinct, so the matching is one to one
        nearest = {
            min(range(9), key=lambda i: abs(r.to_mpc() - oracle[i])) for r in roots
        }
        assert len(nearest) == 9


@pytest.mark.parametrize("prec", RESOLVENT_PRECS)
def test_resolvent_roots_are_roots(prec):
    coeffs = theorems.UNIT_CUBIC_RESOLVENT
    with mpmath.mp.workprec(prec + 64):
        bound = mpmath.mpf(2) ** -prec * max(abs(c) for c in coeffs)
        for root in unit_cubic_resolvent_roots(prec):
            assert abs(mpmath.polyval(list(coeffs), root.to_mpc())) <= bound


@pytest.mark.parametrize("prec", RESOLVENT_PRECS)
def test_resolvent_root_order(prec):
    roots = unit_cubic_resolvent_roots(prec)
    with mpmath.mp.workprec(prec + 64):
        values = [r.to_mpc() for r in roots]
        reals = values[:3]
        assert all(v.imag == 0 for v in reals)
        assert reals[0].real < reals[1].real < reals[2].real
        omega = mpmath.mpc(-0.5, mpmath.sqrt(3) / 2)
        tol = mpmath.mpf(2) ** -(prec - 8)
        for k, r in enumerate(reals):
            assert abs(values[3 + 2 * k] - r * omega) <= tol
            assert abs(values[4 + 2 * k] - r * mpmath.conj(omega)) <= tol
    assert roots[0].text().startswith("-2.3120197361732771687")


@pytest.mark.parametrize("prec", RESOLVENT_PRECS)
def test_resolvent_smallest_real_root_text_matches_oracle(prec):
    reals = [r for r in _resolvent_oracle(prec) if r.imag == 0]
    oracle = min(reals, key=lambda r: r.real)
    assert unit_cubic_resolvent_roots(prec)[0].text() == (
        Numeric.from_mpc(oracle, prec).text()
    )


def _triad_oracle(s, t, prec):
    """Roots of p1, p2, p3 by a general polyroots run on the coefficients
    the paper writes as rational functions of s and t."""
    with mpmath.mp.workprec(prec + 64):
        s, t = s.to_mpc(), mpmath.mpf(t.numerator) / t.denominator
        a2 = -3 * t / (2 * s)
        a1 = 3 * (4 * s**2 - t**2) / (4 * s**2)
        a0 = (3 * t**3 - 36 * s**2 * t - 4 * s**6) / (24 * s**3)
        coeffs = (
            [1, -a2, -a1, a0],
            [-1, a2, a1, -(3 * a0 + s**3) / 3],
            [s, t, (t**2 - 4 * s**2) / (4 * s)],
        )
        return [mpmath.polyroots(c, maxsteps=200, extraprec=prec) for c in coeffs]


@pytest.mark.parametrize("prec", RESOLVENT_PRECS)
def test_triad_roots_match_polyroots_oracle(prec):
    for s in unit_cubic_resolvent_roots(prec):
        for t in TRIAD_TS:
            fs = unit_cubic_triad(s, t)
            assert [lead for lead, _ in fs] == [1, -1, s]
            with mpmath.mp.workprec(prec + 64):
                tol = mpmath.mpf(2) ** -(prec - 8)
                for (_, roots), oracle in zip(fs, _triad_oracle(s, Fraction(t), prec)):
                    assert len(roots) == len(oracle)
                    for root in roots:
                        r = root.to_mpc()
                        assert root.prec == prec
                        assert min(abs(r - o) for o in oracle) <= tol * abs(r)
                    # the roots are distinct, so the matching is one to one
                    nearest = {
                        min(oracle, key=lambda o: abs(r.to_mpc() - o))
                        for r in roots
                    }
                    assert len(nearest) == len(oracle)


def test_triad_quadratic_roots_are_two_apart():
    # p3's roots are b +- 1, so f3 against itself has dispersion {+-2}
    s = unit_cubic_resolvent_roots(256)[0]
    _, (r, q) = unit_cubic_triad(s, 5)[2]
    assert abs(complex(r - q)) == pytest.approx(2, abs=1e-60)


def _gcd_witness(fs):
    """The witness of the relatively-prime hypothesis through poly_gcd."""
    expanded = [f.expand() for f in fs]
    for i in range(len(fs)):
        for j in range(i + 1, len(fs)):
            g = poly_gcd(expanded[i], expanded[j])
            if g.degree >= 1:
                return f"inputs {i} and {j} share the factor {g.expr_text()}"
    return ""


def test_relatively_prime_witness_matches_gcd():
    rng = random.Random(7)
    pool = [Exact.from_rational(0), Exact.from_rational(1), Exact.from_rational(-2),
            S2, I, I + 1, S2 - I, S2 * I + Fraction(1, 2)]
    leads = [1, -1, 2, Fraction(1, 3), S2, I]
    failing = 0
    for _ in range(300):
        fs = [
            FactoredPoly(
                rng.choice(leads),
                [(rng.choice(pool), rng.randint(1, 3)) for _ in range(rng.randint(0, 3))],
            )
            for _ in range(rng.randint(2, 4))
        ]
        want = _gcd_witness(fs)
        got = theorems._relatively_prime_hypothesis(fs)
        assert (got.ok, got.witness) == (not want, want)
        failing += not got.ok
    assert 50 < failing < 250


def test_relatively_prime_numeric_witness_is_the_shared_factor():
    """The witness is exact text on both backends; numeric roots are refused."""
    with pytest.raises(BackendMismatchError):
        FactoredPoly(1, [(Numeric.from_rational(r, 256), m) for r, m in ((0, 1), (1, 2), (3, 1))])
    srcs = ["roots(1; 0:1, 1:2, 3:1)", "roots(1; 1:3, 2:1, 3:1)", "z"]
    shared = ((Z - 1) ** 2 * (Z - 3)).expr_text()
    for backend in ("exact", "numeric"):
        _, result = run_command("mason", srcs, {"classical": True}, Options(backend, 256))
        hyp = result["hypotheses"][0]
        assert not hyp["ok"] and hyp["witness"] == f"inputs 0 and 1 share the factor {shared}"


def test_unit_cubic_builder_passes_its_tolerance_on():
    """The numeric oracle's builder passes its precision on."""
    s = unit_cubic_resolvent_roots(128)[4]
    assert s.prec == 128
    for t in (1, Fraction(-3, 7)):
        values = [x for lead, roots in unit_cubic_triad(s, t) for x in (lead, *roots)]
        assert {x.prec for x in values} == {128}


def test_unit_cubic_triad_validation():
    with pytest.raises(ValueError):
        unit_cubic_triad(Exact.from_rational(1))
    with pytest.raises(ValueError):
        unit_cubic_triad(unit_cubic_resolvent_roots(128)[0], t=0)


# -- instance generation --------------------------------------------------------


def test_gen_mason_deterministic():
    first = gen_mason_instance(2, seed=123)
    second = gen_mason_instance(2, seed=123)
    assert all(x == y for x, y in zip(first, second))
    different = gen_mason_instance(2, seed=124)
    assert any(x != y for x, y in zip(first, different))


def test_numeric_relatively_prime_tolerance_is_per_pair():
    """Roots 2^-40 apart are distinct, exactly; numeric inputs are refused
    when they are built."""
    a = FactoredPoly(1, [(0, 1)])
    b = FactoredPoly(1, [(Fraction(1, 2**40), 1)])
    c = FactoredPoly(1, [(5, 1)])
    assert hyp_map(mason_classical(a, b, c))["relatively_prime"]
    assert not hyp_map(mason_classical(a, a, c))["relatively_prime"]
    for f in (a, b, c):
        with pytest.raises(BackendMismatchError):
            FactoredPoly(f.lead.to_numeric(64), [(r.to_numeric(64), m) for r, m in f.roots])


def test_gen_mason_budget_error(monkeypatch):
    # every attempt draws three copies of z^2: they are pairwise shifting
    # prime (their root 0 has height 1), so each attempt is summed and
    # factored, and then rejected because the copies are never independent
    monkeypatch.setattr(theorems, "DEFAULT_GRID_NUMERATORS", (0,))
    monkeypatch.setattr(theorems, "DEFAULT_GRID_DENOMINATORS", (1,))
    monkeypatch.setattr(theorems, "DEFAULT_LEADS", (1,))
    factored = []
    monkeypatch.setattr(theorems, "factor", lambda p: factored.append(p) or factor(p))
    with pytest.raises(SamplingBudgetError) as excinfo:
        gen_mason_instance(3, seed=0, max_degree=2, max_attempts=25)
    assert excinfo.value.attempts == 25
    assert factored == [Poly([0, 0, 3])] * 25


def test_gen_mason_rejects_on_the_parts_roots_first(monkeypatch):
    """Draws of z(z - 1) are not shifting prime (the zero 0 of height 2 runs
    into the other copy's zero 1), so every attempt is rejected on the
    drawn ints: no Exact root or FactoredPoly part is built, and nothing is
    expanded or factored."""
    monkeypatch.setattr(theorems, "_draw_factored", lambda *_: ([(0, 1), (1, 1)], 1))
    work, expand = [], FactoredPoly.expand
    monkeypatch.setattr(theorems, "factor", lambda p: work.append(p) or factor(p))
    monkeypatch.setattr(FactoredPoly, "expand", lambda f: work.append(f) or expand(f))
    built, exact_init, poly_init = [], Exact.__init__, FactoredPoly.__init__
    monkeypatch.setattr(Exact, "__init__", lambda s, *a: built.append(a) or exact_init(s, *a))
    monkeypatch.setattr(FactoredPoly, "__init__", lambda s, *a: built.append(a) or poly_init(s, *a))
    with pytest.raises(SamplingBudgetError) as excinfo:
        gen_mason_instance(3, seed=0, max_attempts=25)
    assert excinfo.value.attempts == 25
    assert work == []
    assert built == []


def test_reports_are_deterministic():
    a, b, c = sharp_quadratic_triple()
    r1 = mason_delta(a, b, c).to_json_dict()
    r2 = mason_delta(a, b, c).to_json_dict()
    assert r1 == r2


def test_mason_verdict_is_derived_from_the_sides():
    ok = Hypothesis("h", True)
    report = MasonReport("delta", True, (ok,), lhs=3, rhs=2)
    assert (report.slack, report.sharp, report.counterexample) == (-1, False, True)
    assert not report.ok
    inapplicable = MasonReport("delta", True, (Hypothesis("h", False),), lhs=3, rhs=2)
    assert inapplicable.slack == -1 and not inapplicable.counterexample
    sharp = MasonReport("delta", False, (ok,), lhs=2, rhs=2)
    assert sharp.sharp and not sharp.applicable
    assert sharp.to_json_dict()["slack"] == 0
