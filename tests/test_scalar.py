import math
import operator
import random
import re
import sys
from fractions import Fraction

import pytest

from diffrad import (
    BackendMismatchError,
    Exact,
    FactoredPoly,
    Numeric,
    Poly,
    RootsUnavailableError,
    factor,
    shift_classes,
)
from diffrad import scalar, shift, to_newton
from diffrad.scalar import TRIAL_LIMIT, power, prime_factors
import helpers
from helpers import rand_exact, rand_radical_poly

S2 = Exact.sqrt_int(2)
S3 = Exact.sqrt_int(3)
I = Exact.i()


def test_rationalization():
    assert Exact.from_rational(1) / S2 == S2 * Fraction(1, 2)
    assert (Exact.from_rational(1) / S2).text() == "1/2*sqrt(2)"


def test_generator_products():
    assert S2 * S3 == Exact.sqrt_int(6)
    assert I * I == Exact.from_rational(-1)
    assert S2 * S2 == Exact.from_rational(2)
    assert Exact.sqrt_int(8) == S2 * 2
    assert Exact.sqrt_int(-4) == I * 2


def test_canonical_text():
    x = Exact.from_rational(Fraction(-3, 4)) + S2 * Fraction(1, 2) + I * S2 * S3
    assert x.text() == "-3/4 + 1/2*sqrt(2) + 1/1*i*sqrt(6)"
    assert Exact.from_rational(0).text() == "0"
    assert (S2 - S2).text() == "0"


def test_as_integer():
    assert Exact.from_rational(5).as_integer() == 5
    assert Exact.from_rational(Fraction(1, 2)).as_integer() is None
    assert (S2 - S2 + 3).as_integer() == 3
    assert (S2 + 1).as_integer() is None


def test_field_axioms_bulk():
    rng = random.Random(20240901)
    one = Exact.from_rational(1)
    for _ in range(10_000):
        a = rand_exact(rng)
        b = rand_exact(rng)
        c = rand_exact(rng)
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        if a:
            assert a * a.inverse() == one


def test_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        Exact.from_rational(0).inverse()
    with pytest.raises(ZeroDivisionError):
        Exact.from_rational(1) / 0


def test_backend_mixing_rejected():
    with pytest.raises(BackendMismatchError):
        S2 + Numeric.from_rational(1, 64)
    with pytest.raises(BackendMismatchError):
        Numeric.from_rational(1, 64) * S2


# -- one arithmetic scalar, one printed one -----------------------------------

EXACT_TWO = Exact.from_rational(2)
NUMERIC_TWO = Numeric.from_rational(2, 64)
BINARY = {
    "+": (operator.add, "__add__", "__radd__"),
    "-": (operator.sub, "__sub__", "__rsub__"),
    "*": (operator.mul, "__mul__", "__rmul__"),
    "/": (operator.truediv, "__truediv__", "__rtruediv__"),
}


@pytest.mark.parametrize("name", sorted(BINARY))
@pytest.mark.parametrize(
    "a, b", [(EXACT_TWO, NUMERIC_TWO), (NUMERIC_TWO, EXACT_TWO)],
    ids=["exact-numeric", "numeric-exact"],
)
def test_every_operator_rejects_the_other_backend(name, a, b):
    """Each operator raises in both orders: a numeric left operand has no
    method but ``__mul__``, which takes Numerics only, so the exact right
    operand's reflected method raises."""
    op, forward, reflected = BINARY[name]
    with pytest.raises(BackendMismatchError, match="^cannot mix "):
        op(a, b)
    for method in (forward, reflected):
        if isinstance(a, Exact):
            with pytest.raises(BackendMismatchError, match="^cannot mix "):
                getattr(a, method)(b)
        elif method in vars(Numeric):
            assert getattr(a, method)(b) is NotImplemented
        else:
            with pytest.raises(AttributeError):
                getattr(a, method)(b)


def test_power_rejects_an_exponent_of_the_other_backend():
    with pytest.raises(TypeError):
        EXACT_TWO ** NUMERIC_TWO
    with pytest.raises(TypeError):
        NUMERIC_TWO ** EXACT_TWO
    with pytest.raises(TypeError):
        EXACT_TWO ** 0.5


def test_coerce_is_the_one_conversion_point():
    """An Exact passes through, an int or a Fraction converts, a Numeric
    raises the one mismatch message, and anything else is no operand."""
    assert Exact._coerce(EXACT_TWO) is EXACT_TWO
    for value in (2, Fraction(4, 2), True + True):
        assert type(Exact._coerce(value)) is Exact and Exact._coerce(value) == EXACT_TWO
    with pytest.raises(BackendMismatchError) as excinfo:
        Exact._coerce(NUMERIC_TWO)
    assert str(excinfo.value) == (
        "cannot mix exact and numeric scalars; convert explicitly (Exact.to_numeric)"
    )
    for value in (2.0, 2j, "2", None, Poly([2])):
        assert Exact._coerce(value) is None
        assert EXACT_TWO.__add__(value) is NotImplemented


def test_equality_across_backends_is_false_not_an_error():
    assert not EXACT_TWO == NUMERIC_TWO
    assert not NUMERIC_TWO == EXACT_TWO
    assert EXACT_TWO != NUMERIC_TWO
    assert EXACT_TWO == 2 and EXACT_TWO != Fraction(1, 2)
    assert NUMERIC_TWO == Numeric.from_rational(Fraction(4, 2), 64) and NUMERIC_TWO != 2


def test_numeric_equality_agrees_with_its_hash():
    """A Numeric equals only a Numeric with the same parts, and then hashes
    alike; an int it prints as is no equal, so sets keep both."""
    one = Numeric.from_rational(1, 64)
    assert not one == 1 and one != 1 and len({one, 1}) == 2
    x = (S2 + I).to_numeric(128)
    for a, b in ((one, Numeric.from_rational(Fraction(3, 3), 64)),
                 (one, Exact.from_rational(1).to_numeric(64)),
                 (x, (S2 * S3 / S3 + I).to_numeric(128)),
                 (x, Numeric.from_mpc(x.to_mpc(), 128))):
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1


@pytest.mark.parametrize("x", [EXACT_TWO, Exact.sqrt_int(2) ** 2], ids=["exact", "radical-square"])
def test_int_and_fraction_operands_on_both_sides(x):
    half = Fraction(1, 2)
    assert x + 1 == 3 and 1 + x == 3
    assert x - 1 == 1 and 1 - x == -1
    assert x * half == 1 and half * x == 1
    assert x / 4 == half and 1 / x == half
    assert x - half == Fraction(3, 2) and half - x == Fraction(-3, 2)
    assert str(x) == x.text()
    assert type(x + 1) is type(x) and type(half / x) is type(x)


@pytest.mark.parametrize("x", [EXACT_TWO, Exact.sqrt_int(2) ** 2], ids=["exact", "radical-square"])
def test_negative_powers(x):
    assert x**-1 == Fraction(1, 2)
    assert x**-3 == Fraction(1, 8)
    assert x**0 == 1
    assert (x**-2) * (x**2) == 1


@pytest.mark.parametrize("x", [EXACT_TWO, NUMERIC_TWO], ids=["exact", "numeric"])
def test_immutability_error_names_the_class(x):
    name = type(x).__name__
    with pytest.raises(AttributeError, match=f"^{name} values are immutable$"):
        x.anything = 1


def _fraction(x: Numeric) -> tuple[Fraction, Fraction]:
    """The real and imaginary parts of x, exactly."""
    z = x.to_mpc()
    return tuple(
        Fraction(int(v.man) * (-1 if v < 0 else 1)) * Fraction(2) ** v.exp if v else Fraction(0)
        for v in (z.real, z.imag)
    )


def test_exact_is_zero_only_at_zero():
    """No scalar has a zero tolerance: an exact value is zero only when it
    is 0, however small, and numeric values have no zero test to tune."""
    assert not Exact() and Exact.from_rational(Fraction(1, 10**40))
    for name in ("negligible", "tolerance", "as_integer", "tol"):
        assert not hasattr(Numeric, name)
    assert not hasattr(Exact, "negligible")


def test_values_below_half_precision_convert_to_nonzero_numerics():
    """A value below 2^(-prec/2) converts to a nonzero numeric value, and
    exactly, as it is a power of two."""
    for prec in (64, 128, 256):
        below = Fraction(1, 2 ** (prec // 2 + 1))
        x = Exact.from_rational(below).to_numeric(prec)
        negated = Exact.from_rational(-below).to_numeric(prec)
        assert x and negated and _fraction(x) == (below, 0) and _fraction(negated) == (-below, 0)
        assert not Exact().to_numeric(prec)


@pytest.mark.parametrize("prec", [64, 2150, 4096])
def test_conversion_is_faithful_at_every_precision(prec):
    """Conversion is faithful at every precision: each part is within
    2^-prec of the exact value, relatively, also where 2^(-prec/2) is below
    the smallest float (from 2150 bits on)."""
    tol = Fraction(1, 2 ** (prec // 2))
    for value in (tol, -tol / 2, 3 + tol, tol / 3, Exact.i() * 4 * tol + 3 * tol):
        exact = value if isinstance(value, Exact) else Exact.from_rational(value)
        want = (exact.terms.get((False, frozenset()), 0), exact.terms.get((True, frozenset()), 0))
        for got, part in zip(_fraction(exact.to_numeric(prec)), want):
            assert abs(got - part) <= abs(part) / 2**prec


def test_values_below_the_smallest_float_convert_and_print():
    """A value below the smallest float converts, prints and stays nonzero."""
    x = Exact.from_rational(Fraction(1, 10**401)).to_numeric(4096)
    assert x and complex(x) == 0
    assert Fraction(x.text()) == Fraction(1, 10**401)


def test_polynomials_evaluate_at_exact_points_only():
    """Every Poly is exact, the zero polynomial too: it evaluates to 0 at
    exact points, rational and radical (its lane has degree -1, and no v^-1
    is formed), and a numeric point is refused."""
    for x in (3, 0, Fraction(1, 3), S2 + Fraction(1, 2)):
        assert isinstance(Poly()(x), Exact) and Poly()(x) == 0
        assert_lowest(Poly()(x))
    for p in (Poly(), Poly([1, 1])):
        with pytest.raises(BackendMismatchError):
            p(NUMERIC_TWO)


def test_embedding_homomorphism():
    """The conversion of a product is the product of the conversions, to
    within the rounding: the exact parts (``_fraction``) are compared, the
    right side multiplied out over Q."""
    rng = random.Random(7)
    for prec in (64, 128, 256):
        bound = Fraction(2) ** (8 - prec)
        for _ in range(200):
            a = rand_exact(rng, top=1000)
            b = rand_exact(rng, top=1000)
            lhs = _fraction((a * b).to_numeric(prec))
            (ar, ai), (br, bi) = _fraction(a.to_numeric(prec)), _fraction(b.to_numeric(prec))
            rhs = (ar * br - ai * bi, ar * bi + ai * br)
            assert abs(complex(lhs[0] - rhs[0], lhs[1] - rhs[1])) < bound


def test_numeric_precision_floor():
    with pytest.raises(ValueError):
        Numeric.from_rational(1, 32)


def test_numeric_as_integer_tolerance():
    """Integer offsets are exact: a numeric root difference has no
    as_integer, and shift classes refuse numeric roots."""
    x = Numeric.from_rational(3, 128)
    with pytest.raises(BackendMismatchError):
        shift_classes(FactoredPoly(x, [(x, 1), (Numeric.from_rational(4, 128), 1)]))
    assert Exact.from_rational(3).as_integer() == 3


def test_numeric_precision_never_downgrades():
    lo = Numeric.from_rational(Fraction(1, 3), 64)
    hi = Numeric.from_rational(Fraction(1, 7), 256)
    assert (lo * hi).prec == 256
    assert (hi * lo).prec == 256


def test_tolerance_goes_with_the_wider_operand_and_the_left_on_a_tie():
    """Only the precision travels with a numeric value: the wider operand's,
    in the one product a Numeric has."""
    a64 = Numeric.from_rational(3, 64)
    b64 = Numeric.from_rational(5, 64)
    c256 = Numeric.from_rational(7, 256)
    for x in (a64 * c256, c256 * a64):
        assert x.prec == 256
    assert (a64 * b64).prec == (b64 * a64).prec == 64


def test_derived_values_keep_the_tolerance():
    """Derived values and conversions keep the precision, the one setting a
    numeric value carries."""
    x = Numeric.from_rational(3, 64)
    for y in (x * x, Numeric.from_mpc(x.to_mpc(), 64), (-EXACT_TWO).to_numeric(64)):
        assert y.prec == 64
    assert Exact.from_rational(1).to_numeric(128).prec == 128
    assert {c.prec for c in Poly([1, 2, S2]).embed(128).coeffs} == {128}


def test_exact_pow_and_negative_pow():
    x = S2 + 1
    assert x**0 == Exact.from_rational(1)
    assert x**3 == x * x * x
    assert x**-2 == (x * x).inverse()


def test_prime_factors():
    assert prime_factors(1) == {}
    assert prime_factors(360) == {2: 3, 3: 2, 5: 1}
    assert prime_factors(TRIAL_LIMIT**2) == {2: 12, 5: 12}
    # a cofactor below the square of the next trial divisor is prime
    assert prime_factors(1000000000039) == {1000000000039: 1}
    assert prime_factors(2**200 * 3) == {2: 200, 3: 1}
    with pytest.raises(ValueError):
        prime_factors(0)


def test_prime_factors_refuses_an_uncertified_cofactor(monkeypatch):
    # 1000003 is prime, but its square outlasts trial division up to 10^6
    with pytest.raises(RootsUnavailableError):
        prime_factors(1000003**2)
    with pytest.raises(RootsUnavailableError):
        Exact.sqrt_int(10**30 + 57)
    monkeypatch.setattr(scalar, "TRIAL_LIMIT", 10)
    assert prime_factors(2**5 * 11) == {2: 5, 11: 1}  # 11 < 11^2: prime
    with pytest.raises(RootsUnavailableError):
        prime_factors(11 * 13)


def test_int_text_past_the_int_to_str_limit():
    values = [0, 7, -12, 10**3000, -(10**3611) + 1, 3**20000, -(7**15000) * 10**5, 10**40000]
    texts = [scalar.int_text(n) for n in values]  # no ValueError at any size
    big = Exact.from_rational(Fraction(3**20000, 2**15000 + 1))
    assert big.text().split("/")[1] == scalar.int_text(2**15000 + 1)
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int-to-str digit limit")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert texts == [str(n) for n in values]
    finally:
        sys.set_int_max_str_digits(limit)


def mpmath_parts(x: Exact, prec: int):
    """x's real and imaginary parts with mpmath's own correctly rounded
    from_rational, mpf_sqrt, mpf_mul and mpf_add at prec + 16 bits, in
    canonical term order: the oracle for the int conversion."""
    from mpmath import libmp

    parts = [libmp.fzero, libmp.fzero]
    work = prec + 16
    for (has_i, primes), f in sorted(x.terms.items(), key=lambda kc: scalar._key_sort(kc[0])):
        part = libmp.from_rational(f.numerator, f.denominator, work, "n")
        for p in sorted(primes):
            part = libmp.mpf_mul(part, libmp.mpf_sqrt(libmp.from_int(p), work, "n"), work, "n")
        parts[has_i] = libmp.mpf_add(parts[has_i], part, work, "n")
    return tuple(parts)


@pytest.mark.parametrize("prec", [64, 256, 4096])
def test_conversion_on_ints_matches_mpmath_bit_for_bit(prec):
    """to_numeric and complex() round on ints, with no mpmath; mpmath's own
    arithmetic gives the same bits, at wide and tiny magnitudes and where
    the terms nearly cancel."""
    from mpmath import libmp

    rng = random.Random(prec)
    for trial in range(300):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            key = (rng.random() < 0.4, frozenset(rng.sample([2, 3, 5, 7, 999983], rng.randint(0, 2))))
            scale = Fraction(2) ** rng.randint(-1100, 1100) if rng.random() < 0.3 else 1
            terms[key] = Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 10**30)) * scale
        x = Exact(terms)
        if trial % 3 == 0 and x and abs(complex(x).real) < 1e280:
            x = x - Fraction(int(complex(x).real * 2**50), 2**50)  # near cancellation
        got, want = x.to_numeric(prec), mpmath_parts(x, prec)
        assert (got._re, got._im) == want, x
        if prec == 64:
            assert complex(x) == complex(libmp.to_float(want[0]), libmp.to_float(want[1])), x


# -- canonical form -------------------------------------------------------------


def assert_lowest(x) -> None:
    """x is an Exact in lowest terms: ints over den > 0, gcd(den, *ints) = 1
    and no zero entry, each an int (no Fraction is stored)."""
    assert isinstance(x, Exact)
    ints, den = x._ints, x._den
    assert type(den) is int and den > 0, (ints, den)
    assert all(type(c) is int and c for c in ints.values()), (ints, den)
    assert math.gcd(den, *ints.values()) == 1, (ints, den)


def test_exact_refuses_a_coefficient_that_is_not_rational():
    """A float (or any other non-rational) coefficient is refused, naming its
    key, instead of being stored and compared as a rational."""
    for key in (scalar._ONE_KEY, (True, frozenset({2, 3}))):
        for bad in (0.5, 1.0, complex(1, 0), "1/2", S2):
            with pytest.raises(TypeError, match=re.escape(str(key))):
                Exact({key: bad})
        with pytest.raises(TypeError):
            Exact({scalar._ONE_KEY: 1, key: 0.5})
    half = Exact({scalar._ONE_KEY: Fraction(2, 4), (False, frozenset({2})): 3})
    assert half == S2 * 3 + Fraction(1, 2)


NOT_EXACT = [0.1, 1.0, complex(1, 0), "1/3"]
EXACT_ENTRY_POINTS = {
    "Poly": lambda v: Poly([1, v]),
    "Poly.constant": Poly.constant,
    "Poly.scalar": Poly.scalar,
    "evaluate": lambda v: Poly([1, 1])(v),
    "shift": lambda v: shift(Poly([0, 1]), v),
    "to_newton": lambda v: to_newton(Poly([0, 1]), v),
    "FactoredPoly-lead": lambda v: FactoredPoly(v, [(1, 1)]),
    "FactoredPoly-root": lambda v: FactoredPoly(1, [(0, 1), (v, 2)]),
    "ord_at": lambda v: FactoredPoly(1, [(0, 1)]).ord_at(v),
    "Exact.from_rational": Exact.from_rational,
    "Numeric.from_rational": lambda v: Numeric.from_rational(v, 64),
}


@pytest.mark.parametrize("value", NOT_EXACT, ids=repr)
@pytest.mark.parametrize("entry", sorted(EXACT_ENTRY_POINTS))
def test_floats_and_strings_are_no_exact_values(entry, value):
    """A float, complex or str raises TypeError wherever an exact value
    enters (``Exact._coerce``), instead of being read as the binary
    fraction it holds or parsed as text; ints and Fractions are taken."""
    make = EXACT_ENTRY_POINTS[entry]
    with pytest.raises(TypeError, match=re.escape(repr(value))):
        make(value)
    make(Fraction(1, 2))
    make(3)


def test_every_route_gives_lowest_terms():
    """Every constructor and operation gives the canonical form, so values
    that are equal but built by different routes are == with equal hashes,
    and a FactoredPoly merges them into one root."""
    rng = random.Random(20241019)
    sqrt2 = (False, frozenset({2}))
    values = [rand_exact(rng, max_terms=4) for _ in range(300)] + [
        Exact({scalar._ONE_KEY: Fraction(2, 4)}),
        Exact({scalar._ONE_KEY: 6, sqrt2: Fraction(4, 6), (True, frozenset()): Fraction(-9, 12)}),
        Exact({scalar._ONE_KEY: 0, sqrt2: Fraction(0, 5)}),
        Exact.from_rational(Fraction(-6, 4)),
        Exact.from_rational(0),
        Exact.from_rational(12),
        Exact.i(),
        *(Exact.sqrt_int(n) for n in (0, -1, -4, 4, 8, -12, 2, 6, 50)),
    ]
    for x in values:
        assert_lowest(x)
    for a, b in zip(values, values[1:] + values[:1]):
        for x in (a + b, a - b, -a, a * b, a**2, a**0, a + 1, 2 - a, a * Fraction(3, 9)):
            assert_lowest(x)
        same = [(a + b) - b, Exact(a.terms)]
        if b:
            same.append(a * b / b)
            for x in (a / b, b.inverse(), b**-2, 1 / b):
                assert_lowest(x)
        for y in same:
            assert_lowest(y)
            assert y == a and hash(y) == hash(a)
        if a:
            f = FactoredPoly(1, [(a, 1)] + [(y, 2) for y in same])
            assert f.roots == ((a, 1 + 2 * len(same)),)


def test_rational_values_hash_as_the_int_or_fraction_they_equal():
    """Equal values hash alike across ints, Fractions, Exact scalars and
    constant Polys, so sets and dicts take them for one key."""
    rng = random.Random(20261020)
    modulus = sys.hash_info.modulus  # a den it divides hashes as infinity
    dens = [1, 1, 2, 3, 10**20, modulus, 2 * modulus]
    # -(modulus + 2)/2 is -1 modulo the modulus: its hash is -2, not -1
    values = [Fraction(0), Fraction(-1), Fraction(1, modulus), Fraction(-(modulus + 2), 2)] + [
        Fraction(rng.randint(-(10**30), 10**30), rng.choice(dens + [rng.randint(1, 10**40)]))
        for _ in range(400)
    ]
    for q in values:
        plain = q.numerator if q.denominator == 1 else q
        x = Exact.from_rational(q)
        forms = [q, x, Exact({scalar._ONE_KEY: q}), x + S2 - S2, Poly([q]),
                 Poly([x, 0]), Poly.constant(x * 3) * Fraction(1, 3)]
        for form in forms:
            assert form == plain and hash(form) == hash(plain), (q, form)
        assert len({plain, *forms}) == 1
        table = {plain: q}
        assert all(table.get(form) is q for form in forms)
        assert {form: q for form in forms} == {plain: q}
    for x in (S2, I + Fraction(1, 3), S2 * S3 - 7):
        assert hash(Poly([x])) == hash(x) and len({x, Poly([x])}) == 1


def test_polynomial_crossings_give_lowest_terms():
    """Coefficients, leads and values read off a lane, and factor's roots,
    are in lowest terms."""
    rng = random.Random(7310)
    for _ in range(80):
        scale = Fraction(rng.randint(1, 6), rng.randint(1, 6))
        p = rand_radical_poly(rng, rng.randint(0, 4)) * scale
        for c in p.coeffs:
            assert_lowest(c)
        assert_lowest(p.lead)
        for x in (Fraction(1, 3), Fraction(-7, 4), 0, 2, rand_exact(rng)):
            assert_lowest(p(x))
            assert p(x) == helpers.horner_terms(p, x)
    for _ in range(60):
        roots = [(Fraction(rng.randint(-9, 9), rng.randint(1, 6)), rng.randint(1, 2))
                 for _ in range(rng.randint(0, 3))]
        a = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        b = Fraction(rng.randint(1, 5), rng.randint(1, 4))
        g = Exact.sqrt_int(rng.choice((2, 3, 5, -1, -2)))
        r, conj = a + b * g, a - b * g  # the roots of a rational quadratic
        lead = Fraction(rng.randint(1, 5), 3)
        rational = helpers.linear_factors(roots) * lead
        p = rational * Poly.linear(r) * Poly.linear(conj)
        f = factor(p)
        for root, _ in f.roots:
            assert_lowest(root)
        assert f.ord_at(r) >= 1 and f.ord_at(conj) >= 1
        assert_lowest(f.lead)
