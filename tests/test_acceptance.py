"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines
as they happen (without -s pytest shows them in captured output).
"""

import functools
import random
from fractions import Fraction

import pytest

from diffrad import (
    Exact,
    FactoredPoly,
    Poly,
    binomial_transform_check,
    casoratian,
    chain_decomposition,
    delta,
    falling_power,
    falling_power_factored,
    fermat_check,
    fermat_multi_check,
    gcd_tower_closed,
    is_shifting_prime,
    mason_delta,
    mason_delta_ext,
    pairwise_shifting_prime,
    poly_gcd,
    rad_delta,
    rad_delta_q,
    rad_kappa,
    shifting_zero_height,
    to_newton,
    from_newton,
    unit_cubic_certificate,
    unit_cubic_resolvent_roots,
)
from helpers import (
    casorati_rows,
    falling_square_triple,
    rand_rational_poly,
    sharp_quadratic_triple,
    sharp_quintic_tuple,
    unit_cubic_oracle,
    unit_linear_triad,
    unit_quadratic_triad,
)
from diffrad.casorati import determinant
from diffrad.theorems import gen_chain_poly

Z = Poly.z()
S2 = Exact.sqrt_int(2)
S6 = Exact.sqrt_int(6)
HALF = Fraction(1, 2)

CORPUS_SIZE = 1000
CORPUS_SEED = 20240815


def criterion(num, label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {num:02d}] {label}: FAIL")
                raise
            print(f"[criterion {num:02d}] {label}: PASS")

        return run

    return wrap


@pytest.fixture(scope="module")
def corpus():
    """Chain-built polynomials with both gcd-tower routes precomputed."""
    rng = random.Random(CORPUS_SEED)
    entries = []
    for _ in range(CORPUS_SIZE):
        f = gen_chain_poly(rng, max_chains=6, max_length=5)
        p = f.expand()
        towers_euclid = []
        g = p.monic()
        cur = p
        for _ in range(5):
            cur = delta(cur)
            g = poly_gcd(g, cur) if cur else g
            towers_euclid.append(g)
        towers_closed = [gcd_tower_closed(f, n) for n in range(1, 6)]
        entries.append((f, p, towers_euclid, towers_closed))
    return entries


@criterion(1, "shifting-zero heights")
def test_criterion_01_heights():
    cascade = (Z**2 * (Z - 1) * (Z - 2), [(0, 3), (1, 2), (2, 1)])
    multiple = (Z**2 * (Z - 1) ** 3, [(0, 2), (1, 1)])
    for poly, expected in (cascade, multiple):
        for at, height in expected:
            assert shifting_zero_height(poly, at) == height


@criterion(2, "difference radicals and chain partition")
def test_criterion_02_radicals():
    g = FactoredPoly(1, [(0, 2), (1, 1), (2, 1)])
    assert rad_delta(g) == Z**2
    assert rad_kappa(g, 1) == Z * (Z - 2)

    h = FactoredPoly(1, [(-1, 1), (0, 2), (1, 3), (2, 2), (4, 1)])
    assert rad_delta(h) == (Z + 1) * Z * (Z - 1) * (Z - 4)
    assert rad_kappa(h, 1) == (Z - 1) * (Z - 2) ** 2 * (Z - 4)
    starts = sorted(
        (s.as_integer(), n) for s, n in chain_decomposition(h).chains
    )
    assert starts == [(-1, 4), (0, 3), (1, 1), (4, 1)]


@criterion(3, "sharp three-term instance")
def test_criterion_03_sharpness():
    a, b, c = sharp_quadratic_triple()
    assert a.expand() + b.expand() == c.expand()
    ok, _ = pairwise_shifting_prime([a, b, c])
    assert ok
    assert max(f.degree for f in (a, b, c)) == 2
    product = a.times(b).times(c)
    assert rad_delta(product).degree == 3
    report = mason_delta(a, b, c)
    assert report.applicable and report.slack == 0


@criterion(4, "degree identities on the random corpus")
def test_criterion_04_degree_identity(corpus):
    failures = 0
    for f, p, towers_euclid, _ in corpus:
        if p.degree != towers_euclid[0].degree + rad_delta(f).degree:
            failures += 1
        for n in range(1, 6):
            if p.degree - towers_euclid[n - 1].degree != rad_delta_q(f, n).degree:
                failures += 1
    assert failures == 0
    assert len(corpus) >= 1000


@criterion(5, "oracle equivalence: towers and radical degrees")
def test_criterion_05_oracle_equivalence(corpus):
    failures = 0
    for f, _, towers_euclid, towers_closed in corpus:
        for e, c in zip(towers_euclid, towers_closed):
            if e != c:
                failures += 1
        if rad_delta(f).degree != rad_kappa(f, 1).degree:
            failures += 1
    assert failures == 0


@criterion(6, "Casorati determinant routes and divisibility")
def test_criterion_06_casoratian():
    rng = random.Random(6021023)
    for _ in range(500):
        m = rng.randint(1, 4)
        fs = [rand_rational_poly(rng, 8) for _ in range(m)]
        assert casoratian(fs, "delta") == determinant(casorati_rows(fs, "shift"))
    for _ in range(100):
        m = rng.randint(2, 3)
        chainfs = [gen_chain_poly(rng, max_chains=2, max_length=3) for _ in range(m)]
        det = casoratian([f.expand() for f in chainfs])
        if not det:
            continue
        for f in chainfs:
            det.divexact(gcd_tower_closed(f, m - 1))


@criterion(7, "sharp extended instance")
def test_criterion_07_extended_sharp():
    fs = sharp_quintic_tuple()
    report = mason_delta_ext(fs)
    assert report.equation_holds
    assert {h.name: h.ok for h in report.hypotheses} == {
        "pairwise_shifting_prime": True,
        "min_degree": True,
        "linear_independence": True,
    }
    assert report.lhs == 5
    product = fs[0].times(fs[1]).times(fs[2]).times(fs[3])
    assert rad_delta_q(product, 2).degree == 8
    assert report.rhs == 5
    assert report.slack == 0 and report.sharp


@criterion(8, "falling-square equation with listed zeros")
def test_criterion_08_falling_squares():
    a, b, c = falling_square_triple()
    report = fermat_check(a, b, c, 2)
    assert report.equation_holds and not report.identity_residual

    zeros_b = {(-S2 + S6) * HALF, (-S2 - S6) * HALF}
    zeros_c = {(S2 - S6) * HALF, (S2 + S6) * HALF}
    assert {r for r, _ in b.roots} == zeros_b
    assert {r for r, _ in c.roots} == zeros_c

    squares = [falling_power_factored(f, 2) for f in (a, b, c)]
    ok, _ = pairwise_shifting_prime(squares)
    assert ok
    assert all(h.ok for h in report.hypotheses)


@criterion(9, "unit equations for falling squares")
def test_criterion_09_unit_equations():
    for triad in (unit_linear_triad(), unit_quadratic_triad()):
        report = fermat_multi_check(triad, 2, rhs_one=True)
        assert report.equation_holds and report.residual_sup == 0.0
        assert report.bound == Fraction(5)
        assert report.within_bound
        assert all(h.ok for h in report.hypotheses)


@criterion(10, "unit equation for falling cubes, numeric")
def test_criterion_10_unit_cubes_numeric():
    """Decided exactly for all nine resolvent roots and every t by the
    certificate; the numeric oracle checks each root at t = 1."""
    report = unit_cubic_certificate()
    assert report.equation_holds and report.residual_sup == 0.0
    assert report.within_bound and all(h.ok for h in report.hypotheses)
    roots = unit_cubic_resolvent_roots(256)
    assert len(roots) == 9
    residuals = []
    for index, s in enumerate(roots):
        residual, gap, det = unit_cubic_oracle(s, 1, 256)
        residuals.append(residual)
        assert residual <= 2.0**-240, (index, residual)
        assert gap > 1e-3 and det > 1, (index, gap, det)
    print(f"  (certified exactly; 9/9 resolvent roots agree numerically, "
          f"worst residual {float(max(residuals)):.3g})")


@criterion(11, "negative control: falling cubes fail")
def test_criterion_11_negative_control():
    a, b, c = falling_square_triple()
    report = fermat_check(a, b, c, 3)
    assert not report.equation_holds
    assert report.identity_residual
    assert report.residual_sup > 0


@criterion(12, "property suite")
def test_criterion_12_properties():
    rng = random.Random(1201)

    for _ in range(500):  # Newton roundtrip
        p = rand_rational_poly(rng, 6)
        z0 = Fraction(rng.randint(-4, 4), rng.choice((1, 2)))
        assert from_newton(to_newton(p, z0)) == p

    for _ in range(500):  # shift/difference binomial identities
        p = rand_rational_poly(rng, 5)
        zv = Fraction(rng.randint(-4, 4), rng.choice((1, 2)))
        k = rng.randint(0, 6)
        assert binomial_transform_check(p, zv, k) == (True, True)

    for round_ in range(42):  # 504 instances of the falling-power rule
        for n in range(1, 13):
            assert delta(falling_power(Z, n)) == falling_power(Z, n - 1) * n

    drop_checked = 0  # height drop under the difference operator
    while drop_checked < 500:
        f = gen_chain_poly(rng, max_chains=3, max_length=4)
        p = f.expand()
        if p.degree < 1:
            continue
        z0 = f.roots[rng.randrange(len(f.roots))][0]
        n = shifting_zero_height(p, z0)
        if n < 1:
            continue
        assert shifting_zero_height(delta(p), z0) == n - 1
        drop_checked += 1

    for _ in range(500):  # radical subadditivity, equality when prime
        p = gen_chain_poly(rng, max_chains=3, max_length=3)
        q = gen_chain_poly(rng, max_chains=3, max_length=3)
        lhs = rad_delta(p.times(q)).degree
        rhs = rad_delta(p).degree + rad_delta(q).degree
        assert lhs <= rhs
        if is_shifting_prime(p, q):
            assert lhs == rhs
