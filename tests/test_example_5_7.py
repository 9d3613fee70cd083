"""A symbolic oracle for Example 5.7, which ``unit_cubic_certificate`` decides.

The unit equation f1^(3) + f2^(3) + f3^(3) = 1 is built from a root s of the
resolvent m(s) = s^9 - 144 s^3 + 108 and any nonzero t (``unit_cubic_triad``).
Read the triad's coefficients as rational functions of s and t: the identity
then holds at every root s and every t exactly when the residual reduces to 0
modulo m, and m is irreducible over Q, so no root is special.  sympy checks
both with t symbolic, and the translation x = z - b the certificate works in;
the certificate's report is the fixture's.

sympy is only a test oracle here: the module is skipped when it is missing.
"""

import pytest

from diffrad import unit_cubic_certificate, unit_cubic_resolvent_roots, unit_cubic_triad
from diffrad.cli import load_fixtures, run_fixture
from diffrad.theorems import UNIT_CUBIC_RESOLVENT
from helpers import unit_cubic_oracle

sympy = pytest.importorskip("sympy")
S, T, Z, W, U, C = sympy.symbols("s t z w u c")
M = sympy.Poly(UNIT_CUBIC_RESOLVENT, S)


def _triad():
    """The triad's coefficients, as unit_cubic_triad writes them, over Q(s, t)."""
    a2 = -3 * T / (2 * S)
    a1 = 3 * (4 * S**2 - T**2) / (4 * S**2)
    a0 = (3 * T**3 - 36 * S**2 * T - 4 * S**6) / (24 * S**3)
    return (
        Z**3 - a2 * Z**2 - a1 * Z + a0,
        -(Z**3) + a2 * Z**2 + a1 * Z - (3 * a0 + S**3) / 3,
        S * Z**2 + T * Z + (T**2 - 4 * S**2) / (4 * S),
    )


def _falling_cube(p):
    return p * p.subs(Z, Z - 1) * p.subs(Z, Z - 2)


def test_resolvent_is_irreducible_over_q():
    _, factors = sympy.factor_list(M.as_expr(), S)
    assert [(f.as_poly(S).degree(), e) for f, e in factors] == [(9, 1)]


def test_identity_holds_modulo_the_resolvent():
    residual = sum(_falling_cube(p) for p in _triad()) - 1
    num, den = sympy.fraction(sympy.cancel(sympy.together(residual)))
    # the denominator is a unit modulo m: a power of s, and m(0) = 108
    assert sympy.Poly(den, S).is_monomial
    assert M.eval(0) != 0
    num = sympy.Poly(sympy.expand(num), S, domain="QQ[t,z]")
    assert num.rem(M.set_domain("QQ[t,z]")).is_zero
    # not vacuous: the residual itself is a nonzero function of s
    assert not num.is_zero


def test_triad_roots_in_closed_form():
    # the identities unit_cubic_triad builds its roots from, in Q(s, t)
    p1, p2, p3 = _triad()
    b = -T / (2 * S)
    assert sympy.simplify(p1.subs(Z, b + W) - (W**3 - 3 * W - S**3 / 6)) == 0
    assert sympy.simplify(p2 - (-p1 - S**3 / 3)) == 0
    assert sympy.simplify(p3 - S * (Z - b - 1) * (Z - b + 1)) == 0
    # w = u + 1/u solves w^3 - 3w = 2c when u^3 + u^-3 = 2c, which holds
    # for u^3 = c + sqrt(c^2 - 1) (and for its reciprocal c - sqrt(c^2 - 1))
    w = U + 1 / U
    assert sympy.simplify(w**3 - 3 * w - (U**3 + U**-3)) == 0
    root = sympy.sqrt(C**2 - 1)
    assert sympy.simplify((C + root) * (C - root)) == 1
    # the cubic in w has a double root only at c = +-1, i.e. s^3 = +-12,
    # where the resolvent is 108, not 0
    assert sympy.expand(sympy.discriminant(W**3 - 3 * W - 2 * C, W)) == 108 - 108 * C**2
    assert [M.as_expr().subs(S**3, v) for v in (12, -12)] == [108, 108]


def test_triad_coefficients_are_the_production_ones():
    """The numeric triad, lead times its linear factors, takes the values of
    the coefficient formulas at sample points (numeric polynomials are not
    expanded: that is an exact kernel)."""
    s = unit_cubic_resolvent_roots(256)[0]
    at = {S: sympy.Float(s.text(), 70), T: 1}
    for (lead, roots), want in zip(unit_cubic_triad(s), _triad()):
        want = want.subs(at)
        for z in (0, 1, -2, sympy.Rational(1, 3)):
            value = complex(lead)
            for r in roots:
                value *= complex(z) - complex(r)
            expected = complex(want.subs(Z, z))
            assert abs(value - expected) <= 1e-12 * max(1, abs(expected))


def test_numeric_report_agrees_at_the_fixture_root():
    """The fixture runs the certificate, and the numeric oracle agrees at
    the smallest real root and t = 1."""
    report = unit_cubic_certificate()
    assert report.equation_holds and all(h.ok for h in report.hypotheses)
    (case,) = load_fixtures("sec5.unit-equation-cubic-triad")
    ok, result = run_fixture(case)
    assert ok and result == report.to_json_dict()
    residual, gap, det = unit_cubic_oracle(unit_cubic_resolvent_roots(256)[0], 1, 256)
    assert residual < 1e-25 and gap > 1e-3 and det > 1
