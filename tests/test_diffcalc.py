import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffrad import diffcalc
from diffrad import (
    BackendMismatchError,
    Exact,
    NewtonExpansion,
    Poly,
    binomial,
    binomial_transform_check,
    delta,
    delta_k,
    falling_power,
    falling_power_factored,
    FactoredPoly,
    from_newton,
    raising_power,
    shift,
    to_newton,
)
from diffrad.poly import product
from helpers import (
    rand_exact,
    rand_fraction,
    rand_nonzero_poly,
    rand_radical_poly,
    rand_rational_poly,
)

Z = Poly.z()


def falling_monomial(n: int) -> Poly:
    """Oracle: z(z-1)...(z-n+1) built by explicit product."""
    out = Poly.constant(1)
    for j in range(n):
        out = out * (Z - j)
    return out


def test_shift_examples():
    assert shift(Z**2, 1) == Z**2 + 2 * Z + 1
    p = rand_rational_poly(random.Random(3), 6)
    assert shift(p, 0) == p
    # expand-and-subtract oracle for the shifted falling cube
    lhs = shift(falling_monomial(3), 1) - falling_monomial(3)
    assert lhs == 3 * Z * (Z - 1)


def test_shift_additivity():
    rng = random.Random(5)
    for _ in range(50):
        p = rand_rational_poly(rng, 6)
        j = rng.randint(-4, 4)
        k = rng.randint(-4, 4)
        assert shift(shift(p, j), k) == shift(p, j + k)


def test_delta_examples():
    assert delta(falling_monomial(3)) == 3 * Z * (Z - 1)
    assert delta(Poly.constant(7)) == Poly.zero()
    # repeated expand-subtract oracle
    d1 = shift(Z**2, 1) - Z**2
    d2 = shift(d1, 1) - d1
    assert delta_k(Z**2, 2) == d2 == Poly.constant(2)


def test_delta_degree_drop():
    rng = random.Random(23)
    for _ in range(100):
        p = rand_nonzero_poly(rng, 6)
        if p.degree >= 1:
            assert delta(p).degree == p.degree - 1
        else:
            assert not delta(p)


def test_lane_delta_matches_shift_minus_p():
    """delta on the lane equals the shift route p(z+1) - p(z) on rational and
    radical input, the zero and constant polynomials included; numeric input
    is refused."""
    rng = random.Random(1807)
    cases = [Poly(), Poly.constant(7), Poly([rand_exact(rng)]), Z, Z**9 * Exact.sqrt_int(5)]
    for _ in range(60):
        cases += [rand_rational_poly(rng, 7), rand_radical_poly(rng, rng.randint(0, 7))]
    for p in cases:
        assert delta(p) == shift(p, 1) - p, p
    with pytest.raises(BackendMismatchError):
        delta(Poly((Z**2).embed(64).coeffs))


def test_falling_factorial_linear_matches_linear_polys():
    rng = random.Random(1811)
    for _ in range(30):
        root, n = rand_exact(rng), rng.randint(0, 6)
        want = product([Poly.constant(1)] + [Poly.linear(root + j) for j in range(n)])
        assert diffcalc.falling_factorial_linear(root, n) == want


def test_falling_and_raising_powers():
    assert falling_power(Z, 3) == falling_monomial(3)
    assert falling_power(Z**2, 0) == Poly.constant(1)
    assert falling_power(Z**2, 2) == Z**2 * (Z - 1) ** 2
    assert raising_power(Z, 3) == Z * (Z + 1) * (Z + 2)
    assert raising_power(Z, 0) == Poly.constant(1)


def test_falling_power_factored_matches_expansion():
    rng = random.Random(9)
    for _ in range(50):
        f = FactoredPoly(
            rng.choice((1, -1, 2)),
            [(Fraction(rng.randint(-3, 3), rng.choice((1, 2))), 1)
             for _ in range(rng.randint(1, 3))],
        )
        n = rng.randint(1, 3)
        assert falling_power_factored(f, n).expand() == falling_power(f.expand(), n)


def test_newton_examples():
    e = to_newton(Z**2, 0)
    assert [c for c in e.coeffs] == [
        Exact.from_rational(0),
        Exact.from_rational(1),
        Exact.from_rational(1),
    ]
    # symbolic expansion oracle: z^2 = z(falling 1) + z(falling 2)
    assert falling_monomial(1) + falling_monomial(2) == Z**2

    const = to_newton(Poly.constant(Fraction(5, 3)), 7)
    assert [c for c in const.coeffs] == [Exact.from_rational(Fraction(5, 3))]

    base = Exact.from_rational(Fraction(3, 2))
    basis_elt = falling_power(Z - base, 4)
    e4 = to_newton(basis_elt, base)
    assert [c for c in e4.coeffs] == [Exact.from_rational(int(j == 4)) for j in range(5)]


def test_newton_roundtrip_bulk():
    rng = random.Random(31)
    for _ in range(1000):
        p = rand_rational_poly(rng, 6)
        z0 = Fraction(rng.randint(-4, 4), rng.choice((1, 2)))
        assert from_newton(to_newton(p, z0)) == p


def test_newton_json():
    e = to_newton(Z**2, 0)
    assert e.to_json_dict() == {"base": "0", "coeffs": ["0", "1/1", "1/1"]}


def test_binomial_pascal_matches_comb():
    for n in range(0, 25):
        for k in range(-1, n + 2):
            expected = math.comb(n, k) if 0 <= k <= n else 0
            assert binomial(n, k) == expected


def test_binomial_large_n():
    # a memoised Pascal recurrence overflowed the recursion limit here
    assert binomial(3000, 2) == 4498500
    assert binomial(3000, 1500) == math.comb(3000, 1500)


def test_binomial_transform_examples():
    assert binomial_transform_check(Z**2, 0, 2) == (True, True)
    assert binomial_transform_check(rand_rational_poly(random.Random(1), 5), 2, 0) == (
        True,
        True,
    )
    assert binomial_transform_check(falling_monomial(3), 1, 3) == (True, True)


def test_binomial_transform_bulk():
    rng = random.Random(37)
    for _ in range(100):
        p = rand_rational_poly(rng, 5)
        zv = Fraction(rng.randint(-4, 4), rng.choice((1, 2)))
        k = rng.randint(0, 6)
        assert binomial_transform_check(p, zv, k) == (True, True)


@settings(max_examples=80)
@given(seed=st.integers(0, 10**9))
def test_delta_linearity(seed):
    rng = random.Random(seed)
    p = rand_rational_poly(rng, 5)
    q = rand_rational_poly(rng, 5)
    alpha = rand_exact(rng, max_terms=1)
    beta = rand_exact(rng, max_terms=1)
    assert delta(p * alpha + q * beta) == delta(p) * alpha + delta(q) * beta


def test_delta_commutes_with_shift():
    rng = random.Random(41)
    for _ in range(200):
        p = rand_rational_poly(rng, 6)
        k = rng.randint(-3, 3)
        assert delta(shift(p, k)) == shift(delta(p), k)


def test_falling_monomial_derivative_rule():
    for n in range(1, 13):
        assert delta(falling_monomial(n)) == falling_monomial(n - 1) * n


def test_falling_power_addition_law():
    rng = random.Random(43)
    for _ in range(60):
        p = rand_nonzero_poly(rng, 3)
        m = rng.randint(0, 3)
        n = rng.randint(0, 3)
        assert falling_power(p, m + n) == falling_power(p, m) * shift(
            falling_power(p, n), -m
        )


def test_invalid_orders():
    with pytest.raises(ValueError):
        delta_k(Z, -1)
    with pytest.raises(ValueError):
        falling_power(Z, -2)


def test_delta_k_stops_once_the_difference_is_zero(monkeypatch):
    p = falling_power(Z, 3)
    calls = []
    original = diffcalc.delta

    def counting(q):
        calls.append(q)
        if len(calls) > p.degree + 1:
            raise AssertionError("differenced past delta^(deg p + 1) p = 0")
        return original(q)

    monkeypatch.setattr(diffcalc, "delta", counting)
    assert delta_k(p, 10**8) == Poly()
    calls.clear()
    assert delta_k(p, 3) == Poly.constant(6)
    assert len(calls) == 3
    assert delta_k(Poly(), 5) == Poly() and len(calls) == 3


def test_shift_by_scalar_step():
    s2 = Exact.sqrt_int(2)
    p = Z**2
    shifted = shift(p, s2)
    assert shifted(Exact.from_rational(0)) == s2 * s2  # p(sqrt2) = 2
    assert shift(shifted, -1 * s2) == p


def horner_shift(p: Poly, step) -> Poly:
    """Oracle: p(z + step) by Horner's rule, one Poly product per coefficient."""
    acc = Poly()
    zk = Poly([step, 1])
    for c in reversed(p.coeffs):
        acc = acc * zk + Poly.constant(c)
    return acc


def test_shift_matches_horner_on_radical_and_numeric_input():
    rng = random.Random(73)
    for _ in range(40):
        p = Poly([rand_exact(rng) for _ in range(rng.randint(1, 6))])
        if not p:
            continue
        rational = Exact.from_rational(rand_fraction(rng))
        for step in (rational, rand_exact(rng)):
            assert shift(p, step) == horner_shift(p, step)
            for prec in (64, 128, 256):
                # numeric input is refused: a numeric shift is a converted one
                with pytest.raises(BackendMismatchError):
                    shift(p, step.to_numeric(prec))
                assert shift(p, step).embed(prec) == horner_shift(p, step).embed(prec)
        k = rng.randint(-5, 5)
        assert shift(p, k) == horner_shift(p, Exact.from_rational(k))
        with pytest.raises(BackendMismatchError):
            shift(Poly(p.embed(128).coeffs), k)


def test_shift_of_radical_input_multiplies_no_polynomials(monkeypatch):
    rng = random.Random(79)
    p = Poly([rand_exact(rng) for _ in range(6)])
    want = horner_shift(p, Exact.sqrt_int(3))
    calls = []
    original = Poly.__mul__

    def counting(self, other):
        calls.append(other)
        return original(self, other)

    monkeypatch.setattr(Poly, "__mul__", counting)
    monkeypatch.setattr(Poly, "__rmul__", counting)
    assert shift(p, Exact.sqrt_int(3)) == want
    assert shift(p, 2).degree == p.degree
    with pytest.raises(BackendMismatchError):
        shift(Poly(p.embed(128).coeffs), 2)
    assert calls == []
