"""Differential tests of the lane in diffrad.poly: against sympy over Q and
over Q(i, sqrt 2, sqrt 3, sqrt 5), and against the term-by-term loops of
tests/helpers.py over the radical field.

sympy is only a test oracle here: the tests that use it are skipped when it
is missing.
"""

import math
import random
from fractions import Fraction
from functools import reduce
from operator import mul

import pytest

from diffrad import (
    BackendMismatchError,
    Exact,
    FactoredPoly,
    Poly,
    RootsUnavailableError,
    factor,
    gen_chain_poly,
    poly_gcd,
)
from diffrad import poly as poly_module
from diffrad import scalar as scalar_module
from diffrad.diffcalc import delta, shift
from diffrad.poly import SCHOOLBOOK_MAX, product
from diffrad.scalar import norm_conjugate
from helpers import (
    S2,
    S3,
    S6,
    I,
    divmod_terms,
    gcd_terms,
    horner_terms,
    mul_terms,
    rand_exact,
    rand_fraction,
    rand_radical_poly,
)

try:
    import sympy
except ImportError:  # pragma: no cover - sympy is an optional test oracle
    sympy = None
requires_sympy = pytest.mark.skipif(sympy is None, reason="sympy is not installed")
X = sympy.Symbol("z") if sympy else None


def to_sympy(p: Poly):
    coeffs = [sympy.Rational(f.numerator, f.denominator) for f in map(Exact.as_fraction, p.coeffs)]
    return sympy.Poly(list(reversed(coeffs)) or [0], X, domain=sympy.QQ)


def from_sympy(s) -> Poly:
    return Poly([Fraction(int(c.p), int(c.q)) for c in reversed(s.all_coeffs())])


def random_poly(rng: random.Random, length: int, digits: int) -> Poly:
    coeffs = [
        Fraction(rng.randint(-(10**digits), 10**digits), rng.choice((1, 1, 2, 3, 7, 10**digits)))
        for _ in range(length)
    ]
    for k in rng.sample(range(length), length // 4):
        coeffs[k] = 0  # interior zeros
    coeffs[-1] = coeffs[-1] or 1
    return Poly(coeffs)


def wide_roots_poly(rng: random.Random, degree: int) -> FactoredPoly:
    """Chains of lengths 3, 2, 1 with starts of pairwise distinct residues
    mod 1, denominators 3..31 and numerators 31..60 in size."""
    roots, residues, left = [], set(), degree
    while left:
        n = min(left, (3, 2, 1)[len(residues) % 3])
        den = 3 + len(residues) % 29
        while True:
            start = Fraction(rng.choice((-1, 1)) * rng.randint(31, 60), den)
            if start.denominator == den and start % 1 not in residues:
                break
        residues.add(start % 1)
        roots += [(start + j, 1) for j in range(n)]
        left -= n
    return FactoredPoly(rng.choice((1, -1, 2, Fraction(-5, 4))), roots)


def sympy_gcd(p: Poly, q: Poly) -> Poly:
    return from_sympy(to_sympy(p).gcd(to_sympy(q)).monic())


@requires_sympy
def test_kronecker_mul_matches_sympy():
    rng = random.Random(11)
    for _ in range(60):
        a = random_poly(rng, rng.randint(1, 40), rng.choice((1, 5, 60)))
        b = random_poly(rng, rng.randint(SCHOOLBOOK_MAX + 1, 70), rng.choice((1, 5, 60)))
        want = from_sympy(to_sympy(a) * to_sympy(b))
        assert a * b == want
        assert b * a == want


@requires_sympy
def test_kronecker_mul_extreme_coefficients():
    big = 10**200
    length = 3 * SCHOOLBOOK_MAX
    cases = [
        Poly([-big] * length),
        Poly([big if k % 2 else -big for k in range(length)]),
        Poly([0] * (length - 1) + [1]),  # z^(length-1)
        Poly([Fraction(-1, big)] + [0] * (length - 2) + [big]),
        Poly([Fraction(k - length, 7) for k in range(length)]),
    ]
    for a in cases:
        for b in cases + [Poly([1]), Poly([-big, 1])]:
            assert a * b == from_sympy(to_sympy(a) * to_sympy(b))
    assert cases[0] * Poly() == Poly()


@requires_sympy
def test_kronecker_mul_digit_at_its_bound():
    # the middle coefficient n c^2 fills every bit of its digit but the sign
    n = SCHOOLBOOK_MAX + 1
    c = math.isqrt((1 << 400) // n)
    assert (n * c * c).bit_length() == 400
    for a, b in ((Poly([c] * n), Poly([c] * n)), (Poly([-c] * n), Poly([c] * n))):
        assert a * b == from_sympy(to_sympy(a) * to_sympy(b))


def test_signed_digits_round_trip_at_the_edges():
    rng = random.Random(5)
    for width in (1, 2, 3):
        half = 1 << (8 * width - 1)
        for _ in range(300):
            digits = [rng.choice((-half, half - 1, -1, 0, 1, rng.randrange(-half, half))) for _ in range(rng.randint(1, 9))]
            while digits and not digits[-1]:
                digits.pop()
            packed = poly_module._pack(digits, width)
            assert packed == sum(d << (8 * width * k) for k, d in enumerate(digits))
            assert poly_module._unpack(packed, width) == digits


def _pack_by_loop(cs, width):
    """The one-digit-at-a-time shift-and-add that _pack does below 17 digits."""
    out = 0
    for c in reversed(cs):
        out = (out << (8 * width)) + c
    return out


def test_halving_pack_matches_the_loop():
    rng = random.Random(11)
    for n in (1, 2, 15, 16, 17, 31, 32, 33, 64, 100, 257, 1000, 1001):
        for width in (1, 3, 9):
            half = 1 << (8 * width - 1)
            digits = [rng.randrange(-half, half) for _ in range(n)]
            digits[rng.randrange(n)] = -half
            want = _pack_by_loop(digits, width)
            assert poly_module._pack(digits, width) == want
            assert want == sum(d << (8 * width * k) for k, d in enumerate(digits))
    # wide digits, all negative: 1001 coefficients of 8800 bits
    digits = [-rng.getrandbits(8799) for _ in range(1001)]
    assert poly_module._pack(digits, 1101) == _pack_by_loop(digits, 1101)


@requires_sympy
def test_tree_product_matches_sequential_product():
    rng = random.Random(3)
    for count in (0, 1, 2, 3, 7, 16, 33):
        factors = [random_poly(rng, rng.randint(1, 12), 3) for _ in range(count)]
        sequential = reduce(mul, factors, Poly.constant(1))
        assert product(factors) == sequential
        if factors:
            want = reduce(mul, map(to_sympy, factors))
            assert product(factors) == from_sympy(want)


@requires_sympy
def test_gcd_matches_sympy_on_chain_corpus():
    rng = random.Random(2024)
    for _ in range(40):
        p = gen_chain_poly(rng, max_chains=12, max_length=6).expand()
        q = gen_chain_poly(rng, max_chains=12, max_length=6).expand()
        for a, b in ((p, delta(p)), (p, p * q), (p, q), (p, shift(p, 2))):
            assert poly_gcd(a, b) == sympy_gcd(a, b)


@requires_sympy
@pytest.mark.parametrize("degree", [16, 32, 64, 96])
def test_gcd_matches_sympy_on_wide_roots(degree):
    rng = random.Random(degree)
    for _ in range(2):
        p = wide_roots_poly(rng, degree).expand()
        assert poly_gcd(p, delta(p)) == sympy_gcd(p, delta(p))


def heuristic_only(monkeypatch):
    """Make every call in which _heu_gcd gives up fail the test."""
    heu_gcd = poly_module._heu_gcd

    def settled(a, b):
        g = heu_gcd(a, b)
        assert g is not None, "the heuristic gcd gave up"
        return g

    monkeypatch.setattr(poly_module, "_heu_gcd", settled)


@requires_sympy
def test_gcd_matches_sympy_on_shared_powers_of_z(monkeypatch):
    """Inputs sharing a large power z^n; the heuristic settles them all."""
    heuristic_only(monkeypatch)
    rng = random.Random(9)
    z = Poly.z()
    for n in (1, 5, 20, 48):
        for _ in range(3):
            p = wide_roots_poly(rng, rng.randint(4, 40)).expand()
            q = gen_chain_poly(rng, max_chains=8, max_length=4).expand()
            a, b = z**n * p, z ** (n + rng.randint(0, 3)) * q * p.monic()
            assert poly_gcd(a, b) == sympy_gcd(a, b)


@requires_sympy
def test_gcd_cofactor_candidates(monkeypatch):
    """G = Phi_3 Phi_7 Phi_70 Phi_105 divides z^210 - 1 and has a coefficient
    133, too large to be read off the digits of gcd(f(xi), g(xi)) at the
    first evaluation point xi = 256.  The cofactor candidates find G there."""
    monkeypatch.setattr(poly_module, "HEU_GCD_ROUNDS", 1)
    heuristic_only(monkeypatch)
    g_sym = sympy.Poly(sympy.prod(sympy.cyclotomic_poly(d, X) for d in (3, 7, 70, 105)), X, domain=sympy.QQ)
    assert max(abs(c) for c in g_sym.all_coeffs()) == 133
    G = from_sympy(g_sym)
    f = Poly([-1] + [0] * 209 + [1])
    for v in (Poly([6, 1]), Poly([3, 0, 1])):
        assert poly_gcd(f, G * v) == poly_gcd(G * v, f) == G.monic()


@requires_sympy
def test_euclid_fallback_matches_sympy(monkeypatch):
    """When the heuristic gives up, rational input runs the Euclidean loop."""
    monkeypatch.setattr(poly_module, "_heu_gcd", lambda a, b: None)
    rng = random.Random(17)
    for degree in (8, 24, 40):
        p = wide_roots_poly(rng, degree).expand()
        q = gen_chain_poly(rng).expand()
        for a, b in ((p, delta(p)), (p * q, q * Poly.z() ** 3), (p, Poly([3]))):
            assert poly_gcd(a, b) == sympy_gcd(a, b)


def test_gcd_edge_cases():
    p = Poly([Fraction(-3, 2), 0, 3])
    assert poly_gcd(p, Poly()) == p.monic()
    assert poly_gcd(Poly(), p) == p.monic()
    assert poly_gcd(p, Poly([Fraction(2, 7)])) == Poly([1])
    # the first evaluation point, 256, is a root of the first argument
    z = Poly.z()
    assert poly_gcd(z - 256, z**2 - 1) == Poly([1])
    assert poly_gcd((z - 256) * (z + 1), z**2 - 1) == z + 1
    with pytest.raises(ValueError):
        poly_gcd(Poly(), Poly())


@requires_sympy
def test_taylor_shift_matches_sympy_compose():
    rng = random.Random(8)
    for _ in range(40):
        p = random_poly(rng, rng.randint(1, 30), rng.choice((1, 4, 30)))
        k = Fraction(rng.randint(-50, 50), rng.choice((1, 1, 2, 9, 1000)))
        want = to_sympy(p).compose(sympy.Poly(X + sympy.Rational(k.numerator, k.denominator), X, domain=sympy.QQ))
        assert shift(p, Exact.from_rational(k)) == from_sympy(want)


# Irreducible over Q: no rational root, and each quadratic has a negative or
# non-square discriminant.
IRREDUCIBLE_QUADRATICS = ([2, 0, 1], [5, 2, 1], [-3, 0, 1], [7, -3, 2])
IRREDUCIBLE_CUBICS = ([-2, 0, 0, 1], [1, 1, 0, 1], [3, -3, 0, 2], [-1, -3, 0, 1])


@requires_sympy
def test_factor_rational_roots_match_sympy():
    rng = random.Random(17)
    refused = 0
    for _ in range(120):
        lead = Fraction(rng.choice((1, -1, 2, 3, -5, 12)), rng.choice((1, 2, 7)))
        factors = [Poly.constant(lead)] + [Poly.z()] * rng.choice((0, 0, 1, 3))
        for _ in range(rng.randint(0, 5)):
            root = Exact.from_rational(Fraction(rng.randint(-12, 12), rng.randint(1, 6)))
            factors += [Poly.linear(root)] * rng.randint(1, 3)
        tail = rng.choice((IRREDUCIBLE_QUADRATICS, IRREDUCIBLE_CUBICS, ((1,),)))
        factors.append(Poly(rng.choice(tail)))
        p = product(factors)
        if p.degree < 1:
            continue
        want = {
            Fraction(int(r.p), int(r.q)): m
            for r, m in sympy.roots(to_sympy(p), filter="Q").items()
        }
        try:
            got = factor(p)
        except RootsUnavailableError as exc:
            # everything rational was split off; the cubic is what is left
            refused += 1
            assert f"degree {p.degree - sum(want.values())};" in str(exc)
            assert p.degree - sum(want.values()) == 3
            continue
        rational = {
            r.as_fraction(): m for r, m in got.roots if r.as_fraction() is not None
        }
        assert rational == want
        assert got.expand() == p
    assert refused >= 20
    # a smooth constant term: 19! * 5 * 2 has 38880 divisors, every one a
    # candidate numerator until the roots 1..19 are divided out
    factors = [Poly.linear(Exact.from_rational(k)) for k in range(1, 20)]
    p = product(factors + [Poly([5, 3]), Poly(IRREDUCIBLE_QUADRATICS[0])])
    assert p.coeff(0) == 2 * 5 * math.factorial(19) * (-1) ** 19
    want = {
        Fraction(int(r.p), int(r.q)): m
        for r, m in sympy.roots(to_sympy(p), filter="Q").items()
    }
    got = factor(p)
    assert {r.as_fraction(): m for r, m in got.roots if r.is_rational} == want
    assert len(want) == 20 and got.expand() == p


# -- the lane over Q(i, sqrt 2, sqrt 3, sqrt 5) -------------------------------------

ONE_KEY = poly_module._ONE_KEY


def radical_pairs(seed: int, count: int):
    """Seeded pairs of radical polynomials of degrees 0 to 8, so lanes of
    unequal lengths meet; one pair in five has a rational side."""
    rng = random.Random(seed)
    for _ in range(count):
        a = rand_radical_poly(rng, rng.randint(0, 8))
        b = rand_radical_poly(rng, rng.randint(0, 8))
        if rng.random() < 0.2:
            b = Poly([rand_fraction(rng) for _ in range(rng.randint(1, 9))] + [1])
        yield rng, a, b


def test_radical_products_match_the_term_loop():
    for rng, a, b in radical_pairs(101, 150):
        assert a * b == b * a == mul_terms(a, b)
        assert a * Poly() == Poly()
        factors = [a, b] + [rand_radical_poly(rng, rng.randint(0, 4)) for _ in range(rng.randint(0, 5))]
        assert product(factors) == reduce(mul_terms, factors)


def test_keys_that_cancel_leave_rational_coefficients():
    z = Poly.z()
    for g in (S2, I, S3, S6, Exact.sqrt_int(5), I * S2):
        p = (z + g) * (z - g)
        assert p == z**2 - g * g
        assert all(c.is_rational for c in p.coeffs)
        assert p._lane.terms.keys() == {ONE_KEY}
        assert product([z + g, z - g, z + 1]) == p * (z + 1)
    # the i*sqrt(2) parts cancel in the middle coefficient
    p = (z * S2 + I) * (z * S2 - I) - Poly([0, 0, 2])
    assert p == Poly([1])
    lane = ((z + S2) ** 3)._lane
    assert {key: len(ints) for key, ints in lane.terms.items()} == {ONE_KEY: 4, (False, frozenset({2})): 3}


def shift_terms(p: Poly, k) -> Poly:
    """sum c_i (z + k)^i from the term-by-term product."""
    step = Poly([k, 1])
    out, power = Poly(), Poly([1])
    for c in p.coeffs:
        out = out + mul_terms(Poly([c]), power)
        power = mul_terms(power, step)
    return out


def test_radical_shifts_match_the_term_loop():
    for rng, a, _ in radical_pairs(103, 80):
        rational = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7)))
        radical = rand_exact(rng) + rng.choice((S2, I, S3))
        for k in (rational, Exact.from_rational(rational), radical):
            assert shift(a, k) == shift_terms(a, Exact.from_rational(k) if isinstance(k, Fraction) else k)
        assert shift(shift(a, rational), -rational) == a


def test_radical_division_matches_the_term_loop():
    for rng, a, b in radical_pairs(107, 150):
        q, r = divmod(a, b)
        assert (q, r) == divmod_terms(a, b)
        assert q * b + r == a and r.degree < b.degree
        # a zero remainder, and a non-monic radical divisor of higher degree
        c = rand_radical_poly(rng, rng.randint(0, 4))
        assert divmod(a * b, b) == (a, Poly())
        if (a * c).degree > 0:
            assert divmod(b, a * c * b) == (Poly(), b)
        assert (b * c).divexact(c) == b


def test_radical_gcd_matches_monic_euclid():
    rng = random.Random(109)
    for _ in range(40):
        a, b, c = (rand_radical_poly(rng, rng.randint(0, 4)) for _ in range(3))
        g = poly_gcd(a * c, b * c)
        assert g == gcd_terms(a * c, b * c)
        assert g.lead == 1 and (a * c) % g == Poly() and (b * c) % g == Poly()
        assert poly_gcd(a, Poly()) == a.monic() == poly_gcd(Poly(), a)


def test_norm_conjugate_gives_an_integer_norm():
    rng = random.Random(113)
    for _ in range(200):
        x = rand_exact(rng, max_terms=5)
        if not x:
            continue
        den = math.lcm(*(f.denominator for f in x.terms.values()))
        vec = {key: int(f * den) for key, f in x.terms.items()}
        conj, n = norm_conjugate(vec)
        assert n and scalar_module._vec_mul(vec, conj) == {ONE_KEY: n}
        assert x * x.inverse() == 1


def test_numeric_products_and_division_are_the_term_loops():
    """Numeric polynomials are output only: a Poly refuses numeric
    coefficients, and the lane's exact results, converted, are the term
    loops'."""
    for rng, a, b in radical_pairs(127, 40):
        prec = rng.choice((64, 128))
        with pytest.raises(BackendMismatchError):
            Poly(a.embed(prec).coeffs)
        with pytest.raises(BackendMismatchError):
            a * b.embed(128).coeffs[-1]
        assert (a * b).embed(prec) == mul_terms(a, b).embed(prec)
        assert [x.embed(prec) for x in divmod(a, b)] == [
            x.embed(prec) for x in divmod_terms(a, b)
        ]


def sympy_expr(p: Poly):
    total = 0
    for k, c in enumerate(p.coeffs):
        for (has_i, primes), f in c.terms.items():
            total += sympy.Rational(f.numerator, f.denominator) * (sympy.I if has_i else 1) * sympy.sqrt(math.prod(primes)) * X**k
    return sympy.expand(total)


@requires_sympy
def test_radical_gcd_matches_sympy_extension():
    """Two-generator fields keep sympy's algebraic gcd fast."""
    rng = random.Random(131)
    fields = ((I, S2, [sympy.I, sympy.sqrt(2)]), (S2, S3, [sympy.sqrt(2), sympy.sqrt(3)]), (I, Exact.sqrt_int(5), [sympy.I, sympy.sqrt(5)]))
    z = Poly.z()
    for g1, g2, extension in fields:
        def elem():
            return Exact.from_rational(rng.randint(-3, 3)) + g1 * rng.randint(-2, 2) + g2 * rng.randint(-2, 2)
        common = z - elem()
        a = common * (z - elem()) * (z + elem())
        b = common * (z * elem() - 1 if rng.random() < 0.5 else z - elem())
        want = sympy.gcd(sympy_expr(a), sympy_expr(b), X, extension=extension)
        want = sympy.Poly(want, X, extension=extension).monic().as_expr()
        assert sympy.simplify(sympy_expr(poly_gcd(a, b)) - sympy.expand(want)) == 0


def sympy_factor_roots(p: Poly, extension) -> list | None:
    """(root, multiplicity) pairs of p from sympy's factorization over the
    extension, or None when a factor of degree >= 2 is left."""
    _, factors = sympy.factor_list(sympy_expr(p), X, extension=extension)
    if any(sympy.degree(f, X) > 1 for f, _ in factors):
        return None
    return [(-f.coeff(X, 0) / f.coeff(X, 1), m) for f, m in factors]


@requires_sympy
def test_factor_over_the_radical_field_matches_sympy():
    """factor over K = Q(i, sqrt 2, sqrt 3) against sympy's factor_list.

    Seeded inputs: rational roots times a quadratic over Q whose roots lie in
    K; products of two linear factors over a two-generator subfield (which
    split there, so over K too, where sympy is far slower); quadratics over Q
    whose roots need a third generator; and random quadratics over K, which
    factor must refuse exactly when sympy finds them irreducible over K.
    """
    rng = random.Random(139)
    field = [sympy.I, sympy.sqrt(2), sympy.sqrt(3)]
    subfields = (((I, S2), field[:2]), ((S2, S3), field[1:]), ((I, S3), field[::2]))
    z = Poly.z()
    quadratics = [z**2 - 2, z**2 + 1, z**2 - 3, z**2 + 2 * z - 1, z**2 - 2 * z + 4, z**2 + 6]
    cases = []
    for k in range(4):
        p = rng.choice(quadratics) * (rand_fraction(rng, 5) or 1)
        for _ in range(k % 3):
            p = p * (z - rand_fraction(rng, 5))
        cases.append((p, field))
    for k in range(6):
        (g1, g2), extension = subfields[k % 3]

        def elem():
            return rand_fraction(rng, 5) + g1 * rng.randint(-2, 2) + g2 * rng.randint(-2, 2)

        cases.append(((z - elem()) * (z - elem()) * z ** (k % 2) * (elem() or 1), extension))
        if k < 3:  # coefficients in Q(g1), roots +-a*g2
            a = rand_fraction(rng, 5) + g1 * rng.randint(1, 2)
            cases.append((z**2 - a * a * g2 * g2, extension))
    for _ in range(3):  # one generator per coefficient keeps sympy fast over K
        b, c = (rng.randint(-2, 2) + rng.choice((I, S2, S3)) * rng.choice((-1, 1)) for _ in "bc")
        cases.append((z**2 + z * b + c, field))
    refused = 0
    for p, extension in cases:
        want = sympy_factor_roots(p, extension)
        try:
            got = factor(p)
        except RootsUnavailableError:
            assert want is None, p
            refused += 1
            continue
        assert want is not None and got.expand() == p
        assert sorted(m for _, m in got.roots) == sorted(m for _, m in want), p
        for r, m in got.roots:
            assert [n for w, n in want if sympy.simplify(sympy_expr(Poly([r])) - w) == 0] == [m], p
    assert refused == 3


def test_canonical_form_makes_equal_polynomials_equal():
    """A Poly holds its lane with den > 0 coprime to the content of the ints,
    so one polynomial reached over other dens or contents is == and hashes
    equal, also through the kernels."""
    rng = random.Random(131)
    for _ in range(100):
        p = rand_radical_poly(rng, rng.randint(0, 5))
        lane = p._lane
        assert lane.den > 0 and math.gcd(lane.den, *(c for v in lane.terms.values() for c in v)) == 1
        for f in (3, -7, 12):
            ints = {key: [f * c for c in v] for key, v in lane.terms.items()}
            scaled = Poly._wrap(poly_module._Lane(ints, f * lane.den))
            assert scaled == p and hash(scaled) == hash(p)
            assert (scaled._lane.den, scaled._lane.terms) == (lane.den, lane.terms)
        q = rand_radical_poly(rng, rng.randint(0, 3))
        k = rand_fraction(rng)
        for same in ((p * q).divexact(q), p + q - q, shift(shift(p, k), -k), p * Fraction(3, 7) * Fraction(7, 3)):
            assert same == p and hash(same) == hash(p)
    assert Poly._wrap(poly_module._Lane({}, -5)) == Poly() and Poly()._lane.den == 1


def test_coeffs_round_trip_through_the_lane():
    """Poly(coeffs).coeffs gives the coefficients back, trimmed: the lane
    loses nothing, and coeff(k) reads the same view, 0 outside it."""
    rng = random.Random(137)
    for _ in range(200):
        d = rng.randint(0, 8)
        cs = [rand_exact(rng) if rng.random() < 0.75 else Exact() for _ in range(d)]
        cs.append(rand_exact(rng) or Exact.from_rational(1))
        p = Poly(cs + [0, Exact()])
        assert p.coeffs == tuple(cs) and Poly(p.coeffs) == p and p.degree == d
        assert [p.coeff(k) for k in range(-1, d + 2)] == [Exact(), *cs, Exact()]
        assert p.lead == cs[-1] and all(isinstance(c, Exact) for c in p.coeffs)
        q = rand_radical_poly(rng, d)
        assert Poly(q.coeffs) == q and Poly(q.coeffs).coeffs == q.coeffs


def test_eval_at_radical_points_runs_on_the_lane(monkeypatch):
    """A degree-9 polynomial at sqrt(2) + 1/3, and at other integer, rational
    and radical points, equals Horner's rule on the scalars, and the lane
    evaluation multiplies no Exact scalars."""
    rng = random.Random(139)
    points = [Exact.from_rational(x) for x in (0, 4, Fraction(-7, 3))]
    points += [S2 + Fraction(1, 3), I * S3 - Fraction(2, 5), S6 * Fraction(1, 7) + I]
    polys = [rand_radical_poly(rng, 9) for _ in range(6)]
    polys += [Poly([rand_fraction(rng) for _ in range(10)]) for _ in range(6)]
    want = [[horner_terms(p, x) for x in points] for p in polys]
    calls = []
    original = Exact.__mul__

    def counting(self, other):
        calls.append(other)
        return original(self, other)

    monkeypatch.setattr(Exact, "__mul__", counting)
    monkeypatch.setattr(Exact, "__rmul__", counting)
    assert [[p(x) for x in points] for p in polys] == want
    assert calls == []
