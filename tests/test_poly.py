import math
import random
from fractions import Fraction
from functools import reduce
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffrad import poly as poly_module
from diffrad import (
    NEG_INF,
    BackendMismatchError,
    Exact,
    ExactDivisionError,
    FactoredPoly,
    Numeric,
    Poly,
    RootsUnavailableError,
    classical_rad,
    exact_sqrt,
    factor,
    poly_gcd,
)
from helpers import rand_exact, rand_grid_factored, rand_nonzero_poly

Z = Poly.z()
S2 = Exact.sqrt_int(2)
S3 = Exact.sqrt_int(3)
I = Exact.i()


def test_addition_collapse():
    # z(z-1) - (z-4)(z-5) collapses two quadratics to a line
    a = Z * (Z - 1)
    b = -((Z - 4) * (Z - 5))
    assert a + b == 8 * Z - 20
    assert a + Poly.zero() == a
    assert (Z - 1) * (Z + 1) == Z**2 - 1


def test_zero_polynomial_degree():
    assert Poly.zero().degree == NEG_INF
    assert Poly.zero().degree < 0
    assert not Poly.zero()
    assert Poly([0, 0]).degree == NEG_INF


def test_divexact():
    assert (Z**2 * (Z - 1)).divexact(Z * (Z - 1)) == Z
    assert (Z**2 + Z).divexact(Z) == Z + 1
    with pytest.raises(ExactDivisionError) as excinfo:
        (Z**3).divexact(Z - 1)
    assert excinfo.value.remainder == Poly.constant(1)


def test_gcd_examples():
    assert poly_gcd(Z * (Z - 1) * (Z - 2), (Z - 2) * (Z - 3) * (Z - 4)) == Z - 2
    p = 3 * Z**2 + 3 * Z
    assert poly_gcd(p, Poly.zero()) == p.monic()
    assert poly_gcd(Z**2, Z**3) == Z**2
    with pytest.raises(ValueError):
        poly_gcd(Poly.zero(), Poly.zero())


def test_gcd_radical_coefficients():
    p = (Z - S2) * (Z - 1) * (Z + I)
    q = (Z - S2) * (Z + I) * (Z - 5)
    assert poly_gcd(p, q) == (Z - S2) * (Z + I)


def test_expand():
    f = FactoredPoly(1, [(0, 2), (1, 1), (2, 1)])
    assert f.expand() == Z**4 - 3 * Z**3 + 2 * Z**2


def test_factor_quadratic_over_radicals():
    f = factor(Z**2 - 2)
    assert {r for r, _ in f.roots} == {S2, -S2}

    # -(i/2)(sqrt2 z^2 + 2z - sqrt2) has zeros (-sqrt2 +- sqrt6)/2
    half_neg_i = I * Fraction(-1, 2)
    b = Poly([half_neg_i * (-S2), half_neg_i * 2, half_neg_i * S2])
    fb = factor(b)
    expected = {
        (-S2 + S2 * S3) * Fraction(1, 2),
        (-S2 - S2 * S3) * Fraction(1, 2),
    }
    assert {r for r, _ in fb.roots} == expected


def test_exact_sqrt_one_generator_at_a_time():
    rng = random.Random(29)
    for _ in range(300):
        x = rand_exact(rng)
        root = exact_sqrt(x * x)
        assert root is not None and root * root == x * x
        assert root in (x, -x)
    # 1 - 2 i sqrt2 = (sqrt2 - i)^2, and sqrt(3i) = (1 + i) sqrt6 / 2
    assert exact_sqrt(1 - 2 * I * S2) in (S2 - I, I - S2)
    assert exact_sqrt(3 * I) == (1 + I) * S2 * S3 * Fraction(1, 2)
    # no square in any radical field: refused, as the quadratic tail expects
    for d in (S2, 1 + S2, I * S2 + S3, S2 + S3 + I):
        assert exact_sqrt(d) is None
    f = factor((Z - S2) * (Z - I))
    assert {r for r, _ in f.roots} == {S2, I}


def test_factor_rational_roots():
    p = 6 * Z**3 - 11 * Z**2 + 6 * Z - 1
    f = factor(p)
    assert {r for r, _ in f.roots} == {
        Exact.from_rational(1),
        Exact.from_rational(Fraction(1, 2)),
        Exact.from_rational(Fraction(1, 3)),
    }
    assert f.expand() == p


def test_factor_unavailable():
    with pytest.raises(RootsUnavailableError):
        factor(Z**3 - 2)
    f = factor(Z**3 - 3 * Z**2 + 3 * Z - 1)
    assert f.roots == ((Exact.from_rational(1), 3),)


def test_rational_roots_come_from_exact_division_alone(monkeypatch):
    calls = []
    original = Poly.__call__

    def counting(self, x):
        calls.append(x)
        return original(self, x)

    monkeypatch.setattr(Poly, "__call__", counting)
    p = 6 * Z**3 * (Z - 2) ** 2 * (3 * Z + 1) * (Z**2 + 1)
    f = factor(p)
    assert f.expand() == p
    assert f.ord_at(Exact.from_rational(0)) == 3
    assert f.ord_at(Exact.from_rational(2)) == 2
    assert f.ord_at(Exact.from_rational(Fraction(-1, 3))) == 1
    assert f.ord_at(I) == 1
    assert calls == []


@pytest.mark.parametrize(
    "p, roots",
    [
        (Z**2 * (Z - S2), [(0, 2), (S2, 1)]),
        (Z**3 * (Z - I), [(0, 3), (I, 1)]),
        (Fraction(2, 3) * Z * (Z - I) ** 2, [(0, 1), (I, 2)]),
    ],
)
def test_factor_strips_zero_roots_off_the_lane(p, roots):
    f = factor(p)
    assert f == FactoredPoly(p.lead, roots)
    assert f.expand() == p


def test_linear_factor_lists_no_divisors(monkeypatch):
    big = 10**30 + 57
    monkeypatch.setattr(
        poly_module, "_divisors", lambda n: pytest.fail("listed divisors")
    )
    assert factor(Z - big).roots == ((Exact.from_rational(big), 1),)
    assert factor(3 * Z**4 - 3 * big * Z**3).roots == (
        (Exact.from_rational(0), 3),
        (Exact.from_rational(big), 1),
    )


def test_classical_rad():
    assert classical_rad(FactoredPoly(1, [(0, 2), (1, 3)])) == Z * (Z - 1)
    assert classical_rad(FactoredPoly(7)) == Poly.constant(1)


def test_classical_rad_distinct_root_count():
    # independent oracle: count distinct roots of the triple product directly
    roots_a = [Fraction(0), Fraction(1)]
    roots_b = [Fraction(4), Fraction(5)]
    roots_c = [Fraction(5, 2)]
    distinct = {*roots_a, *roots_b, *roots_c}
    abc = (
        FactoredPoly(1, [(r, 1) for r in roots_a])
        .times(FactoredPoly(-1, [(r, 1) for r in roots_b]))
        .times(FactoredPoly(8, [(r, 1) for r in roots_c]))
    )
    rad = classical_rad(abc)
    assert rad.degree == len(distinct) == 5
    expected = Poly.constant(1)
    for r in sorted(distinct):
        expected = expected * (Z - r)
    assert rad == expected


def test_eval():
    p = Z * (Z - 1) * (Z - 2)
    assert p(3) == Exact.from_rational(6)
    assert p(0) == p.coeff(0)
    f22 = Z**2 * (Z - 1) ** 3
    assert not f22(1)


def test_degree_multiplicativity_bulk():
    rng = random.Random(11)
    for _ in range(10_000):
        p = rand_nonzero_poly(rng, 5)
        q = rand_nonzero_poly(rng, 5)
        assert (p * q).degree == p.degree + q.degree


def test_gcd_matches_factored_min_multiplicity():
    rng = random.Random(13)
    for _ in range(1000):
        f = rand_grid_factored(rng)
        g = rand_grid_factored(rng)
        # oracle: min multiplicities over common roots
        expected = Poly.constant(1)
        for r, mf in f.roots:
            mg = g.ord_at(r)
            expected = expected * Poly.linear(r) ** min(mf, mg)
        assert poly_gcd(f.expand(), g.expand()) == expected


def test_factor_roundtrip():
    rng = random.Random(17)
    for _ in range(300):
        f = rand_grid_factored(rng)
        p = f.expand()
        assert factor(p).expand() == p


@settings(max_examples=60)
@given(st.data())
def test_divmod_property(data):
    rng = random.Random(data.draw(st.integers(0, 10**9)))
    a = rand_nonzero_poly(rng, 6)
    b = rand_nonzero_poly(rng, 4)
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree


def test_backend_mismatch():
    numeric = Poly([1]).embed(128)
    with pytest.raises(BackendMismatchError):
        _ = numeric + Z
    with pytest.raises(BackendMismatchError):
        poly_gcd(numeric * Poly([0, 1]).embed(128), numeric)


@pytest.mark.parametrize("p", [(Z - 1) * (Z - 2), Z**3 - 2, Poly([3])])
def test_factor_refuses_numeric_input(p):
    with pytest.raises(BackendMismatchError):
        factor(p.embed(128))


def test_json_encoding():
    p = Z**2 * Fraction(1, 2)
    assert p.to_json_dict() == {"coeffs": ["0", "0", "1/2"]}
    f = FactoredPoly(2, [(1, 2), (0, 1)])
    assert f.to_json_dict() == {"lead": "2/1", "roots": [["0", 1], ["1/1", 2]]}


def test_expr_text_edge_cases():
    assert Poly.zero().expr_text() == "0"
    assert (-Z).expr_text() == "-z"
    assert (Z - 1).expr_text() == "z - 1"
    assert Poly.constant(I * -1).expr_text() == "-i"


def test_pow_multiplication_count(monkeypatch):
    """Square-and-multiply from 1: popcount(n) products into the result and
    bit_length(n) - 1 squarings, none after the last bit."""
    p = Z - Fraction(1, 3)
    wants = [reduce(mul, [p] * n, Poly.constant(1)) for n in range(10)]
    calls = []
    plain_mul = Poly.__mul__

    def counting_mul(self, other):
        calls.append(1)
        return plain_mul(self, other)

    monkeypatch.setattr(Poly, "__mul__", counting_mul)
    for n, want in enumerate(wants):
        calls.clear()
        assert p**n == want
        assert len(calls) == (n.bit_count() + n.bit_length() - 1 if n else 0)


def test_numeric_pow_keeps_product_order():
    """Rounded results depend on the order of the products into the result:
    ascending bits, from 1."""
    x = (S2 + I * Fraction(1, 7)).to_numeric(80)
    for n in range(10):
        want = Numeric.from_rational(1, 80)
        base, k = x, n
        while k:
            if k & 1:
                want = want * base
            k >>= 1
            base = base * base
        assert x**n == want


def test_factored_root_merge_keeps_order():
    """Interleaved duplicates merge; roots come sorted by text()."""
    a, b, c = Exact.from_rational(Fraction(1, 2)), S2, Exact.from_rational(-3)
    roots = [(b, 1), (a, 2), (c, 1), (b, 3), (Fraction(1, 2), 1), (c, 2), (Fraction(2, 4), 1)]
    f = FactoredPoly(2, roots)
    assert [r.text() for r, _ in f.roots] == ["-3/1", "1/1*sqrt(2)", "1/2"]
    assert f.roots == ((c, 3), (b, 4), (a, 4))
    assert f.degree == 11 and f.ord_at(a) == 4


def test_factored_numeric_roots_with_equal_text_stay_distinct():
    one = Numeric.from_rational(1, 64)
    near = one + Numeric.from_rational(Fraction(1, 2**80), 64)
    assert near != one and near.text() == one.text()
    f = FactoredPoly(Numeric.from_rational(1, 64), [(near, 1), (one, 2), (near, 3)])
    assert [(r == near, m) for r, m in f.roots] == [(True, 4), (False, 2)]


def test_negligible():
    assert Poly().negligible() and Poly().negligible(tol=0)
    assert not (Z * Fraction(1, 10**40)).negligible(tol=1)  # exact: never
    tiny = Fraction(1, 2**40)
    # the default tolerance is 2^(-prec/2) at the widest coefficient
    low, high = Numeric.from_rational(tiny, 64), Numeric.from_rational(tiny, 256)
    assert Poly([low]).negligible()
    assert not Poly([low, high]).negligible()
    assert not Poly([high, low]).negligible()
    assert Poly([low, high]).negligible(tol=2**-39)


def test_negligible_boundary_is_strict():
    tol = Fraction(1, 2**32)  # the default at 64 bits
    at = Poly([Numeric.from_rational(tol, 64)])
    assert at.coeff_sup() == float(tol)
    assert not at.negligible() and not at.negligible(tol)
    assert Poly([Numeric.from_rational(tol * Fraction(99, 100), 64)]).negligible()


def test_coeff_sup_of_an_underflowing_coefficient_is_the_least_float():
    tiny = Numeric.from_rational(Fraction(1, 2**1500), 4096)
    assert tiny.magnitude() == 0.0
    assert Poly([tiny]).coeff_sup() == math.ulp(0.0)
    assert Poly([Numeric.from_rational(1, 4096), tiny]).coeff_sup() == 1.0
    assert Poly([Numeric.from_rational(0, 4096)]).coeff_sup() == 0.0


def test_candidate_cap_trips_before_any_divisor_is_listed(monkeypatch):
    p = reduce(mul, [Z - k for k in range(1, 8)]) * (Z**2 + 2)  # 7! * 2
    assert len(factor(p).roots) == 9
    monkeypatch.setattr(poly_module, "MAX_CANDIDATES", 10)
    monkeypatch.setattr(
        poly_module, "_divisors", lambda f: pytest.fail("listed divisors")
    )
    with pytest.raises(RootsUnavailableError, match="candidates exceed 10;"):
        factor(p)


def _linear_product_case(rng):
    """(p, roots): rational linear factors times z^2 + z + 1.

    Fujiwara's bound is never attained, so the roots nearest the
    power-of-two bound are powers of two and their reciprocals, of either
    sign; the rest are grid rationals."""
    roots = []
    for _ in range(rng.randint(1, 6)):
        kind = rng.randrange(3)
        if kind == 0:
            r = Fraction(rng.randint(-40, 40), rng.randint(1, 6))
        else:
            r = Fraction(2) ** rng.randint(-12, 12) * rng.choice((1, -1))
            if kind == 2:
                r *= Fraction(rng.choice((1, 3, 5)), rng.choice((1, 3, 7)))
        roots.append(r)
    p = reduce(mul, [Z - r for r in roots], Z**2 + Z + 1)
    return p * rng.choice((1, -3, Fraction(2, 5))), roots


def test_root_bound_keeps_every_rational_root():
    rng = random.Random(20211)
    for _ in range(150):
        p, roots = _linear_product_case(rng)
        ints = poly_module._primitive(poly_module._to_lane(p).terms[poly_module._ONE_KEY])
        e = poly_module._root_bound_exp(ints)
        assert all(abs(r) <= Fraction(2) ** e for r in roots)
        # a missed rational root would leave more than the quadratic tail
        found = [r.as_fraction() for r, m in factor(p).roots for _ in range(m)]
        assert sorted(r for r in found if r is not None) == sorted(roots)
        assert found.count(None) == 2


@pytest.mark.parametrize(
    "ints, e",
    [
        ([-4, 0, 1], 3),  # z^2 - 4: roots +-2, Fujiwara 2 * 4^(1/2) = 4 -> 2^3
        ([1, 1], 2),  # z + 1: 2 * 1 -> 2^2 after rounding up
        ([1, 0, 0, 2**100], -32),  # roots of modulus 2^(-100/3)
        ([-(2**64), 1], 66),
    ],
)
def test_root_bound_exp(ints, e):
    assert poly_module._root_bound_exp(ints) == e


def test_root_bound_prunes_large_candidates(monkeypatch):
    divisions = []
    original = poly_module._divexact_ints

    def counting(a, b):
        divisions.append(b)
        return original(a, b)

    monkeypatch.setattr(poly_module, "_divexact_ints", counting)
    # 150 divisors of the constant, and every root inside |z| <= 4
    with pytest.raises(RootsUnavailableError, match="degree 40"):
        factor(Z**40 + Z + 2**10 * 3**6 * 5**4)
    assert {abs(b[0]) for b in divisions} <= {1, 2, 3, 4}
