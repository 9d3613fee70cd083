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
from diffrad.poly import NumericPoly, offset_product, product
from diffrad.scalar import power
from helpers import (
    horner_terms,
    rand_exact,
    rand_grid_factored,
    rand_nonzero_poly,
    rand_radical_poly,
)

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


def test_eval_on_the_lane_matches_horner():
    """At integer and rational points the lane evaluation equals Horner's rule
    on the scalars, for rational and radical polynomials; radical points run
    that rule itself."""
    rng = random.Random(18)
    points = [0, 3, -2, Fraction(-3, 7), Fraction(5, 4), S2, I + Fraction(1, 3), S2 * S3 - 1]
    for _ in range(40):
        polys = [rand_nonzero_poly(rng, 6), rand_radical_poly(rng, rng.randint(0, 6))]
        for p in polys + [Poly(), Poly([rand_exact(rng)])]:
            for x in points:
                x = Exact.from_rational(x) if not isinstance(x, Exact) else x
                assert p(x) == horner_terms(p, x), (p, x)
    assert Poly([Fraction(1, 3), 0, 0, Fraction(2, 5)])(Fraction(-3, 2)) == Exact.from_rational(
        Fraction(1, 3) + Fraction(2, 5) * Fraction(-27, 8)
    )


def at_offset_zero(lead, roots) -> Poly:
    """lead * prod (z - r)^m over (root, multiplicity) pairs, one
    ``offset_product`` with every offset 0."""
    return offset_product([(r, [(0, m)]) for r, m in roots], lead)


def test_offset_product_at_offset_zero_matches_the_product_of_linear_polys():
    """offset_product at offset 0 is lead * prod (z - r)^m built from
    Poly.linear: grid-rational and radical roots, multiplicities, a zero root,
    no roots and a radical lead."""
    rng = random.Random(1818)

    def oracle(lead, roots):
        return product([Poly.constant(lead)] + [Poly.linear(r) for r, m in roots for _ in range(m)])

    cases = [(Exact.from_rational(1), []), (S2 + I, []), (Exact.from_rational(-3), [(Exact(), 2)])]
    for _ in range(60):
        f = rand_grid_factored(rng, max_degree=6)
        cases.append((f.lead, f.roots))
        roots = [(rand_exact(rng), rng.randint(1, 3)) for _ in range(rng.randint(0, 5))]
        roots.append((Exact(), rng.randint(0, 2)))
        cases.append((rand_exact(rng) or Exact.from_rational(1), roots))
    for lead, roots in cases:
        got = at_offset_zero(lead, roots)
        assert got == oracle(lead, roots), (lead, roots)
        assert got.degree == sum(m for _, m in roots) and got.lead == lead
    assert at_offset_zero(1, []) == Poly.constant(1)
    f = FactoredPoly(S3, [(S2, 3), (S2 + 1, 2), (I, 1), (Fraction(1, 3), 4)])
    assert f.expand() == oracle(f.lead, f.roots)


def test_offset_product_refuses_numeric_roots():
    with pytest.raises(BackendMismatchError):
        at_offset_zero(1, [(Exact.from_rational(1), 1), (Numeric.from_rational(2, 64), 1)])
    with pytest.raises(BackendMismatchError):
        at_offset_zero(Numeric.from_rational(1, 64), [])


OFFSET_LEADS = (1, -1, Fraction(-7, 3), Fraction(5, 4), S2 + Fraction(1, 2), -I * S3)
OFFSET_DENOMINATORS = (1, 2, 3, 7, 12)


def _offset_classes(rng, degree, radical):
    """Classes (r, [(o, d), ...]) of `degree` linear factors in all: a zero
    root, rational roots over mixed denominators, with `radical` some roots
    in Q(i, sqrt 2, sqrt 3), offsets 0-4 and orders 0-3."""
    classes, left = [], degree
    while left:
        if not classes:
            r = Exact()
        elif radical and rng.random() < 0.4:
            r = rand_exact(rng)
        else:
            r = Exact.from_rational(Fraction(rng.randint(-60, 60), rng.choice(OFFSET_DENOMINATORS)))
        orders = []
        for o in sorted(rng.sample(range(5), rng.randint(1, 3))):
            d = min(rng.randint(0, 3), left)
            orders.append((o, d))
            left -= d
        classes.append((r, orders))
    return classes


@pytest.mark.parametrize("degree", [1, 8, 9, 16, 17, 64, 200])
def test_offset_product_matches_the_product_of_linear_polys(degree):
    """offset_product(classes, lead) is lead * prod (z - r - o)^d, the
    Poly.linear factors multiplied one by one: equal and with equal hashes,
    at degrees on both sides of the block length SCHOOLBOOK_MAX of the
    rational factors and of the Kronecker switch in _mul_ints."""
    rng = random.Random(2020 + degree)
    for case in range(12 if degree <= 64 else 4):
        lead = OFFSET_LEADS[case % len(OFFSET_LEADS)]
        classes = _offset_classes(rng, degree, radical=case % 2 == 1)
        want = Poly.constant(lead)
        for r, orders in classes:
            for o, d in orders:
                for _ in range(d):
                    want = want * Poly.linear(r + o)
        got = offset_product(classes, lead)
        assert got == want, (lead, classes)
        assert hash(got) == hash(want)
        assert got.degree == degree and got.lead == Poly.scalar(lead)


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
    numeric = Poly([1]).embed(128).coeffs[0]
    with pytest.raises(BackendMismatchError):
        _ = numeric + Z
    with pytest.raises(BackendMismatchError):
        _ = Z * numeric
    with pytest.raises(BackendMismatchError):
        Poly([0, numeric])


def test_poly_refuses_numeric_coefficients():
    """Numeric values are output only: a Poly refuses a numeric coefficient,
    whatever the route into the constructor, and ``embed`` returns a
    NumericPoly, which prints and compares but has no arithmetic."""
    x = S2.to_numeric(64)
    for make in (lambda: Poly([x]), lambda: Poly([1, 0, x]), lambda: Poly.constant(x),
                 lambda: Poly.linear(x), lambda: Z + x, lambda: x * Z, lambda: Poly([S2, x, 1])):
        with pytest.raises(BackendMismatchError):
            make()
    assert (Z == x) is False and Z != x
    shown = (Z * 2 + S2).embed(64)
    assert isinstance(shown, NumericPoly) and not isinstance(shown, Poly)
    assert shown == NumericPoly((x, Exact.from_rational(2).to_numeric(64)))
    assert shown.expr_text() == "2.0*z + 1.4142135623730950488"
    assert shown.to_json_dict() == {"coeffs": ["1.4142135623730950488", "2.0"]}
    assert Poly().embed(64) == NumericPoly(()) and Poly().embed(64).expr_text() == "0"
    with pytest.raises(TypeError):
        shown * shown


@pytest.mark.parametrize("p", [(Z - 1) * (Z - 2), Z**3 - 2, Poly([3])])
def test_factor_refuses_numeric_input(p):
    with pytest.raises(BackendMismatchError):
        factor(Poly(p.embed(128).coeffs))


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
    ascending bits, from 1 (``power``, on the one product a Numeric has)."""
    x = (S2 + I * Fraction(1, 7)).to_numeric(80)
    one = Numeric.from_rational(1, 80)
    for n in range(10):
        want = one
        base, k = x, n
        while k:
            if k & 1:
                want = want * base
            k >>= 1
            base = base * base
        assert power(x, n, one) == want


def test_factored_root_merge_keeps_order():
    """Interleaved duplicates merge; roots come sorted by text()."""
    a, b, c = Exact.from_rational(Fraction(1, 2)), S2, Exact.from_rational(-3)
    roots = [(b, 1), (a, 2), (c, 1), (b, 3), (Fraction(1, 2), 1), (c, 2), (Fraction(2, 4), 1)]
    f = FactoredPoly(2, roots)
    assert [r.text() for r, _ in f.roots] == ["-3/1", "1/1*sqrt(2)", "1/2"]
    assert f.roots == ((c, 3), (b, 4), (a, 4))
    assert f.degree == 11 and f.ord_at(a) == 4


def test_factored_numeric_roots_with_equal_text_stay_distinct():
    """Numeric roots that print alike are refused; exact roots merge by value,
    whatever type they come as."""
    one = Numeric.from_rational(1, 64)
    near = Exact.from_rational(1 + Fraction(1, 2**70)).to_numeric(64)
    assert near != one and near.text() == one.text()
    with pytest.raises(BackendMismatchError):
        FactoredPoly(1, [(near, 1), (one, 2), (near, 3)])
    half = Fraction(3, 2)
    f = FactoredPoly(1, [(half, 1), (1, 2), (Exact.from_rational(half), 3)])
    assert f.roots == ((1, 2), (half, 4))


def test_factored_poly_takes_exact_values_only():
    """A numeric lead or root raises at construction, as in Poly; ints,
    Fractions and Exact scalars are taken, and the result holds Exacts."""
    x = Numeric.from_rational(2, 64)
    for lead, roots in ((x, []), (x, [(1, 1)]), (1, [(x, 1)]), (1, [(0, 1), (x, 2)])):
        with pytest.raises(BackendMismatchError):
            FactoredPoly(lead, roots)
    f = FactoredPoly(Fraction(-1, 2), [(3, 1), (Fraction(1, 3), 2), (S2, 1)])
    assert all(isinstance(v, Exact) for v in (f.lead, *f.distinct_roots()))
    assert f.lead == Fraction(-1, 2) and f.ord_at(Fraction(1, 3)) == 2 and f.ord_at(3) == 1
    assert not hasattr(f, "backend") and not hasattr(f, "scale")


def test_zero_test_is_exact():
    """A polynomial's zero test is ``not p``, exact, with no tolerance; a
    numeric coefficient is printed as it is, never chopped."""
    assert not Poly() and Z * Fraction(1, 10**40)
    assert not hasattr(Poly, "negligible") and not hasattr(Poly, "chop")
    assert Poly([Fraction(1, 2**40)]).embed(64).coeffs[0]


def test_coeff_sup_reports_the_widest_coefficient():
    """coeff_sup reports the widest coefficient; it decides nothing."""
    tol = Fraction(1, 2**32)
    at = Poly([tol, -3 * tol])
    assert at.coeff_sup() == float(3 * tol) and at
    assert max(abs(complex(c)) for c in at.embed(64).coeffs) == float(3 * tol)


def test_coeff_sup_of_an_underflowing_coefficient_is_the_least_float():
    tiny = Fraction(1, 2**1500)
    assert complex(Exact.from_rational(tiny)) == 0
    assert Poly([tiny]).coeff_sup() == math.ulp(0.0)
    assert Poly([tiny]).embed(4096).coeffs[0] and complex(Poly([tiny]).embed(4096).coeffs[0]) == 0
    assert Poly([1, tiny]).coeff_sup() == 1.0
    assert Poly([0]).coeff_sup() == 0.0


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
        ints = poly_module._primitive(p._lane.terms[poly_module._ONE_KEY])
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
