import random
from fractions import Fraction

import mpmath
import pytest

from diffrad import shiftcalc, theorems
from diffrad import (
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
from helpers import (
    I,
    S2,
    falling_square_triple,
    sharp_quadratic_triple,
    sharp_quintic_tuple,
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
    parts, expanded = [], []
    generate, expand = theorems.gen_factored_poly, FactoredPoly.expand

    def generating(*args, **kwargs):
        parts.append(generate(*args, **kwargs))
        return parts[-1]

    def counting(self):
        if any(self is part for part in parts):
            expanded.append(self)
        return expand(self)

    monkeypatch.setattr(theorems, "gen_factored_poly", generating)
    monkeypatch.setattr(FactoredPoly, "expand", counting)
    gen_mason_instance(m, seed=seed)
    assert len(expanded) == len(parts)
    assert len({id(f) for f in expanded}) == len(parts)


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

    def counting(f, tol=None):
        calls.append(f)
        return original(f, tol)

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
    roots = unit_cubic_resolvent_roots(256)
    assert len(roots) == 9
    fs = unit_cubic_triad(roots[0])
    report = fermat_multi_check(fs, 3, rhs_one=True, tol=1e-25)
    assert report.equation_holds
    assert report.residual_sup < 1e-25
    assert report.within_bound  # 3 <= 5
    assert all(h.ok for h in report.hypotheses)


RESOLVENT_PRECS = [64, 128, 256, 512]


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


TRIAD_TS = (1, Fraction(-3, 7), 5)


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
            assert [f.lead for f in fs] == [1, -1, s]
            with mpmath.mp.workprec(prec + 64):
                tol = mpmath.mpf(2) ** -(prec - 8)
                for f, oracle in zip(fs, _triad_oracle(s, Fraction(t), prec)):
                    assert f.degree == len(oracle) and len(f.roots) == len(oracle)
                    for root, _ in f.roots:
                        r = root.to_mpc()
                        assert root.prec == prec
                        assert min(abs(r - o) for o in oracle) <= tol * abs(r)
                    # the roots are distinct, so the matching is one to one
                    nearest = {
                        min(oracle, key=lambda o: abs(r.to_mpc() - o))
                        for r, _ in f.roots
                    }
                    assert len(nearest) == len(oracle)


def test_triad_quadratic_roots_are_two_apart():
    # p3's roots are b +- 1, so f3 against itself has dispersion {+-2}
    s = unit_cubic_resolvent_roots(256)[0]
    (r, _), (q, _) = unit_cubic_triad(s, 5)[2].roots
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
        got = theorems._relatively_prime_hypothesis(fs, None)
        assert (got.ok, got.witness) == (not want, want)
        failing += not got.ok
    assert 50 < failing < 250


def test_relatively_prime_numeric_witness_is_the_shared_factor():
    def numeric(*roots):
        return FactoredPoly(
            Numeric.from_rational(1, 256),
            [(Numeric.from_rational(r, 256), m) for r, m in roots],
        )

    hyp = theorems._relatively_prime_hypothesis(
        [numeric((0, 1), (1, 2), (3, 1)), numeric((1, 3), (2, 1), (3, 1))], None
    )
    shared = ((Z - 1) ** 2 * (Z - 3)).embed(256).expr_text()
    assert not hyp.ok and hyp.witness == f"inputs 0 and 1 share the factor {shared}"


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
    # a and b hold 64-bit roots 2^-40 apart, inside their own default 2^-32;
    # the 256-bit c does not tighten that pair to 2^-128
    def numeric(prec, *roots):
        return FactoredPoly(
            Numeric.from_rational(1, prec),
            [(Numeric.from_rational(r, prec), 1) for r in roots],
        )

    a = numeric(64, 0)
    b = numeric(64, Fraction(1, 2**40))
    c = numeric(256, 5)
    assert not hyp_map(mason_classical(a, b, c))["relatively_prime"]
    assert hyp_map(mason_classical(a, b, c, tol=1e-20))["relatively_prime"]
    # a 64-bit root against a 256-bit one is compared at 2^-128
    d = numeric(256, Fraction(1, 2**40))
    assert hyp_map(mason_classical(a, d, c))["relatively_prime"]


def test_gen_mason_budget_error(monkeypatch):
    # every attempt draws three copies of z^2, which are never independent
    monkeypatch.setattr(theorems, "DEFAULT_GRID_NUMERATORS", (0,))
    monkeypatch.setattr(theorems, "DEFAULT_GRID_DENOMINATORS", (1,))
    monkeypatch.setattr(theorems, "DEFAULT_LEADS", (1,))
    with pytest.raises(SamplingBudgetError) as excinfo:
        gen_mason_instance(3, seed=0, max_degree=2, max_attempts=25)
    assert excinfo.value.attempts == 25


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
