import random
import string
import time
from fractions import Fraction

import pytest

from diffrad import (
    Exact,
    FactoredPoly,
    ParseError,
    Poly,
    RootsUnavailableError,
    falling_power,
    parse,
    parse_factored,
    parse_poly,
    raising_power,
    shift,
)
from diffrad import parser
from diffrad.parser import MAX_BITS, MAX_DEGREE, MAX_DIGITS, MAX_RADICAND
from helpers import rand_exact, rand_rational_poly

Z = Poly.z()


def test_parse_falling_power():
    assert parse_poly("ff(z,3)") == Z**3 - 3 * Z**2 + 2 * Z


def test_parse_radical_quadratic():
    p = parse_poly("-(1/2)*(sqrt(2)*z^2 - 2*z - sqrt(2))")
    s2 = Exact.sqrt_int(2)
    assert p == Poly([s2 * Fraction(1, 2), Exact.from_rational(1), s2 * Fraction(-1, 2)])


def test_parse_error_offset():
    with pytest.raises(ParseError) as excinfo:
        parse("z + * 3")
    assert excinfo.value.offset == 4


def test_eval_examples():
    assert parse_poly("shift(z^2, 1)") == Z**2 + 2 * Z + 1
    assert parse_poly("shift(z^2, -2)") == shift(Z**2, -2)
    assert parse_poly("rf(z, 3)") == raising_power(Z, 3)
    # expansion oracle for a falling power of a shifted line
    base = Z - Fraction(2, 5)
    expected = Poly.constant(1)
    for j in range(5):
        expected = expected * shift(base, -j)
    assert parse_poly("ff(z - 2/5, 5)") == expected == falling_power(base, 5)


def test_precedence():
    assert parse_poly("-z^2") == -(Z**2)
    assert parse_poly("2*z^2") == 2 * Z**2
    assert parse_poly("1 - 2 - 3") == Poly.constant(-4)
    assert parse_poly("2 - -3") == Poly.constant(5)
    assert parse_poly("(1 + z)^2") == (Z + 1) ** 2


def test_sqrt_normalization():
    assert parse_poly("sqrt(8)") == Poly.constant(Exact.sqrt_int(2) * 2)
    assert parse_poly("sqrt(36)") == Poly.constant(6)


def test_no_implicit_multiplication():
    with pytest.raises(ParseError):
        parse("2z")
    with pytest.raises(ParseError):
        parse("z sqrt(2)")


def test_roots_literal():
    f = parse_factored("roots(1; 0:2, 1:1, 2:1)")
    assert f.degree == 4
    assert f.expand() == Z**4 - 3 * Z**3 + 2 * Z**2
    g = parse_factored("roots(-2; 1/2:3)")
    assert g.lead == Exact.from_rational(-2)
    assert g.roots == ((Exact.from_rational(Fraction(1, 2)), 3),)
    const = parse_factored("roots(7)")
    assert const.degree == 0
    # scalar expressions as roots
    h = parse_factored("roots(1; sqrt(2):1, -(sqrt(2)):1)")
    assert h.expand() == Z**2 - 2


def test_roots_literal_validation():
    with pytest.raises(ParseError):
        parse("roots(1; 0:0)")
    with pytest.raises(ParseError):
        parse_factored("roots(z; 0:1)")  # lead must be scalar


@pytest.mark.parametrize(
    "src, offset",
    [
        ("roots(1; 1:1, z:1)", 14),  # a root that is not a scalar
        ("roots(z; 0:1)", 6),  # a lead that is not a scalar
        ("roots(1-1; 2:1)", 6),  # a zero lead
        ("roots(0)", 6),
        ("z + roots(2*(1 - 1))", 10),
        ("roots(1; 0:0)", 11),
    ],
)
def test_roots_errors_point_at_the_offending_expression(src, offset):
    with pytest.raises(ParseError) as excinfo:
        parse(src)
    assert excinfo.value.offset == offset


def test_factored_requires_reachable_roots():
    with pytest.raises(RootsUnavailableError):
        parse_factored("z^3 - 2")


def test_eval_via_factor_for_plain_exprs():
    f = parse_factored("ff(z,3)")
    assert sorted(r.text() for r, _ in f.roots) == ["0", "1/1", "2/1"]


def test_roundtrip_bulk():
    rng = random.Random(71)
    for _ in range(1000):
        p = rand_rational_poly(rng, 6)
        assert parse_poly(p.expr_text()) == p


def test_roundtrip_with_radicals():
    rng = random.Random(73)
    for _ in range(200):
        coeffs = [rand_exact(rng) for _ in range(rng.randint(1, 5))]
        p = Poly(coeffs)
        assert parse_poly(p.expr_text()) == p


def test_fuzz_never_crashes():
    rng = random.Random(79)
    alphabet = string.printable
    tokens = ["z", "i", "sqrt", "ff", "rf", "shift", "roots", "(", ")", "+",
              "-", "*", "^", "/", ",", ";", ":", "1", "23", " "]
    for trial in range(100_000):
        if trial % 2:
            src = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 24)))
        else:
            src = "".join(rng.choice(tokens) for _ in range(rng.randint(0, 12)))
        try:
            parse(src)
        except ParseError as exc:
            assert 0 <= exc.offset <= len(src)


def test_long_literals_are_parse_errors():
    rng = random.Random(97)
    for _ in range(50):
        length = rng.randint(MAX_DIGITS + 1, 6000)
        digits = "".join(rng.choice(string.digits) for _ in range(length))
        prefix = rng.choice(
            ["", "z + ", "1/", "sqrt(", "ff(z, ", "shift(z, -", "roots(1; "]
        )
        with pytest.raises(ParseError) as excinfo:
            parse(prefix + digits + ")")
        assert excinfo.value.offset == len(prefix)
    assert parse_poly("9" * MAX_DIGITS) == Poly.constant(10**MAX_DIGITS - 1)


@pytest.mark.parametrize(
    "src, offset",
    [
        ("z^100000000", 2),
        ("(z^2 + 1)^501", 10),
        ("2^100000000", 2),
        ("ff(z,100000000)", 5),
        ("rf(z^2, 501)", 8),
        ("ff(3, 100000000)", 6),
        ("z^600*z^600", 5),
        ("roots(1; 0:600, 1:401)", 18),
        ("roots(1; 0:100000000)", 11),
        ("sqrt(2305843009213693951)", 5),
        ("1 + sqrt(1000000000001)", 9),
        ("7" * 5000, 0),
    ],
)
def test_limits_trip_at_once(src, offset):
    start = time.perf_counter()
    with pytest.raises(ParseError) as excinfo:
        parse(src)
    assert time.perf_counter() - start < 1.0
    assert excinfo.value.offset == offset


def test_limits_admit_their_bound():
    assert parse_poly(f"z^{MAX_DEGREE}").degree == MAX_DEGREE
    assert parse_poly(f"z^500*z^500").degree == MAX_DEGREE
    assert parse_factored(f"roots(1; 0:{MAX_DEGREE})").degree == MAX_DEGREE
    assert parse_poly(f"2^{MAX_DEGREE}") == Poly.constant(2**MAX_DEGREE)
    assert parse_poly(f"sqrt({MAX_RADICAND})") == Poly.constant(10**6)


NINES = "9" * MAX_DIGITS  # 3322 bits


@pytest.mark.parametrize(
    "admitted, refused, offset",
    [
        ("(2^1000)^11", "(2^1000)^12", 9),  # 1001 bits * e
        (f"{NINES}*{NINES}*{NINES}", f"{NINES}*{NINES}*{NINES}*{NINES}", 3002),
        ("ff(2^112*z, 100)", "ff(2^113*z, 100)", 12),  # count * (bits + 7)
        (f"shift(z^100, {2**118 - 1})", f"shift(z^100, {2**118})", 13),
        ("roots(1; 2^1000:11)", "roots(1; 2^1000:12)", 16),
        ("sqrt(2)^1000", "sqrt(999999999989)^1000", 19),  # half the radicand
    ],
)
def test_bits_limit_sides(admitted, refused, offset):
    parse(admitted)
    start = time.perf_counter()
    with pytest.raises(ParseError, match=f"above {MAX_BITS} bits") as excinfo:
        parse(refused)
    assert time.perf_counter() - start < 1.0
    assert excinfo.value.offset == offset


def test_bits_limit_refuses_before_building(monkeypatch):
    with pytest.raises(ParseError, match="bits") as excinfo:
        parse("z^2*((2^1000)^1000)^10")
    assert excinfo.value.offset == 14
    # ff(z, 1000) estimates 11000 bits and passes; skip building it
    monkeypatch.setattr(parser.diffcalc, "falling_power", lambda base, n: base)
    assert parse_poly("ff(z,1000)") == Z
    with pytest.raises(ParseError, match="bits"):
        parse("ff(2^1000*z,1000)")


def test_whitespace_insignificant():
    assert parse_poly("  ff( z , 3 )  ") == parse_poly("ff(z,3)")
    assert parse_poly("1 / 2") == parse_poly("1/2")


def test_pathological_nesting_stays_total():
    deep = "(" * 5000 + "z" + ")" * 5000
    with pytest.raises(ParseError):
        parse(deep)
    with pytest.raises(ParseError):
        parse("-" * 5000 + "z")
    moderate = "(" * 50 + "z" + ")" * 50
    assert parse_poly(moderate) == Z


# -- an independent oracle: random trees rendered to text, valued directly ----

# A tree renders to (text, level, value).  Levels follow the grammar: 1 a sum,
# 2 a unary minus, 3 a product, 4 a power, 5 an atom.  A child whose level is
# below what its slot admits is parenthesized; other children sometimes are.


def _wrap(rng, node, need):
    text, level, value = node
    if level < need or rng.random() < 0.15:
        return f"({text})", 5, value
    return node


def _poly(value):
    return value.expand() if isinstance(value, FactoredPoly) else value


def _leaf(rng, scalar):
    kind = rng.choice(("rational", "i", "sqrt") + (() if scalar else ("z", "z")))
    if kind == "z":
        return "z", 5, Z
    if kind == "i":
        return "i", 5, Poly.constant(Exact.i())
    if kind == "sqrt":
        n = rng.randint(1, 12)
        return f"sqrt({n})", 5, Poly.constant(Exact.sqrt_int(n))
    num, den = rng.randint(0, 9), rng.randint(1, 4)
    text = f"{num}/{den}" if den > 1 or rng.random() < 0.3 else str(num)
    return text, 5, Poly.constant(Fraction(num, den))


def _roots_tree(rng, depth, max_pairs=3):
    """A roots(...) literal with scalar subtrees and a nonzero lead."""
    while True:
        lead_text, _, lead = _tree(rng, depth, scalar=True)
        if _poly(lead):
            break
    pairs, texts = [], []
    for _ in range(rng.randint(0, max_pairs)):
        root_text, _, root = _tree(rng, depth, scalar=True)
        mult = rng.randint(1, 2)
        pairs.append((_poly(root).coeff(0), mult))
        texts.append(f"{root_text}:{mult}")
    body = lead_text + (f"; {', '.join(texts)}" if texts or rng.random() < 0.5 else "")
    return f"roots({body})", 5, FactoredPoly(_poly(lead).coeff(0), pairs)


def _tree(rng, depth, scalar=False):
    if depth == 0:
        return _leaf(rng, scalar)
    kind = rng.choice(("leaf", "+", "-", "neg", "*", "^", "ff", "rf", "shift", "roots"))
    sub = lambda: _tree(rng, depth - 1, scalar)  # noqa: E731
    if kind == "leaf":
        return _leaf(rng, scalar)
    if kind in ("+", "-"):
        lt, _, lv = _wrap(rng, sub(), 1)
        rt, _, rv = _wrap(rng, sub(), 2)
        value = _poly(lv) + _poly(rv) if kind == "+" else _poly(lv) - _poly(rv)
        return f"{lt} {kind} {rt}", 1, value
    if kind == "neg":
        t, _, v = _wrap(rng, sub(), 2)
        return f"-{t}", 2, -_poly(v)
    if kind == "*":
        lt, _, lv = _wrap(rng, sub(), 3)
        rt, _, rv = _wrap(rng, sub(), 4)
        return f"{lt}*{rt}", 3, _poly(lv) * _poly(rv)
    if kind == "^":
        t, _, v = _wrap(rng, sub(), 5)
        e = rng.randint(0, 3)
        value = Poly.constant(1)
        for _ in range(e):
            value = value * _poly(v)
        return f"{t}^{e}", 4, value
    if kind in ("ff", "rf"):
        t, _, v = sub()
        n = rng.randint(0, 3)
        sign = -1 if kind == "ff" else 1
        value = Poly.constant(1)
        for j in range(n):
            value = value * shift(_poly(v), sign * j)
        return f"{kind}({t}, {n})", 5, value
    if kind == "shift":
        t, _, v = sub()
        k = rng.randint(-3, 3)
        return f"shift({t}, {k})", 5, shift(_poly(v), k)
    return _roots_tree(rng, depth - 1, max_pairs=0 if scalar else 3)


def test_parse_matches_independent_oracle():
    rng = random.Random(83)
    for _ in range(400):
        text, _, value = _tree(rng, rng.randint(0, 3))
        assert parse_poly(text) == _poly(value), text


def test_whole_input_roots_stays_factored():
    rng = random.Random(89)
    for _ in range(200):
        text, _, value = _roots_tree(rng, rng.randint(0, 2))
        wrapped = "(" * rng.randint(0, 3)
        text = wrapped + text + ")" * len(wrapped)
        got = parse(text)
        assert isinstance(got, FactoredPoly), text
        assert got == value == parse_factored(text), text
        assert parse_poly(text) == value.expand()
        # an operator expands it
        assert isinstance(parse(f"{text}*1"), Poly)
