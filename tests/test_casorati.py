import itertools
import math
import random
from fractions import Fraction
from functools import reduce

import pytest

from diffrad import (
    BackendMismatchError,
    FactoredPoly,
    Poly,
    casoratian,
    casoratian_replace,
    gcd_tower_closed,
    linearly_independent,
)
from diffrad import casorati as casorati_mod
from diffrad.casorati import MINORS_MAX, _det_bareiss, _det_minors, determinant
from diffrad.cli import Options, run_command
from diffrad.poly import _Lane
from diffrad.theorems import gen_chain_poly
from helpers import (
    I,
    S2,
    casorati_rows,
    det_cofactor,
    mul_terms,
    rand_nonzero_poly,
    rand_radical_poly,
    rand_rational_poly,
)

Z = Poly.z()


def cofactor_oracle(fs, form="delta"):
    """Independent cofactor expansion over the first row."""
    return det_cofactor(casorati_rows(fs, form))


def test_single_entry():
    f = Z**2 - 3
    assert casoratian([f]) == f


def test_small_examples():
    assert casoratian([Poly.constant(1), Z]) == Poly.constant(1)
    # cofactor oracle: z * (2z + 1) - z^2 = z^2 + z
    assert casoratian([Z, Z**2]) == Z * (2 * Z + 1) - Z**2 == Z**2 + Z


def test_matrix_layout():
    m = casorati_rows([Z, Z**2], "delta")
    assert m == [[Z, Z**2], [Poly.constant(1), 2 * Z + 1]]
    s = casorati_rows([Z, Z**2], "shift")
    assert s == [[Z, Z**2], [Z + 1, (Z + 1) ** 2]]


def shift_oracle(fs):
    """The determinant of the shift layout, which casoratian never computes."""
    return determinant(casorati_rows(fs, "shift"))


def test_forms_agree_bulk():
    rng = random.Random(51)
    tuples = [
        [rand_rational_poly(rng, 6) for _ in range(rng.randint(1, 4))]
        for _ in range(200)
    ]
    # over Q(sqrt 2, i), and 5x5 tuples, which go through Bareiss
    radical_3 = [Z**2 + S2 * Z - I, I * Z**3 + 2, S2 * I * Z - Fraction(1, 3)]
    radical_5 = [Z**k + S2 * Z ** (k - 1) + I for k in range(1, 6)]
    tuples += [[rand_rational_poly(rng, 6) for _ in range(5)] for _ in range(3)]
    tuples += [radical_3, radical_5]
    for fs in tuples:
        want = shift_oracle(fs)
        assert casoratian(fs, "delta") == casoratian(fs, "shift") == want
    assert casoratian(radical_3) and casoratian(radical_5)


def test_unknown_forms_rejected():
    for form in ("Shift", "DELTA", "", None):
        with pytest.raises(ValueError):
            casoratian([Z, Z**2], form)


def test_linear_independence():
    assert linearly_independent([Poly.constant(1), Z, Z**2])
    assert not linearly_independent([Z, 2 * Z])
    assert not linearly_independent([Z + 1, Z - 1, 2 * Z])


def test_numeric_dependent_tuple_is_dependent():
    """A dependent tuple is dependent exactly: its Casoratian is the zero
    polynomial, which numeric output prints as 0.  Numeric coefficients
    are refused when a polynomial is built."""
    f = Poly([Fraction(1, 3), 1, Fraction(1, 5)])
    g = Poly([Fraction(2, 7), Fraction(1, 11), 1])
    fs = [f, g, f * Fraction(1, 3) + g * Fraction(5, 7)]
    assert casoratian(fs) == Poly() and not linearly_independent(fs)
    assert linearly_independent(fs[:2])
    _, result = run_command("casoratian", [p.expr_text() for p in fs], {}, Options("numeric", 128))
    assert result["text"] == "0" and not result["independent"]
    with pytest.raises(BackendMismatchError):
        linearly_independent([Poly(p.embed(128).coeffs) for p in fs])


def test_mixed_precision_casoratian_keeps_the_widest_precision():
    """Numeric coefficients, of any precisions, are refused when a
    polynomial is built; the exact Casoratian converts at the one precision
    it is printed at."""
    rng = random.Random(83)
    for _ in range(20):
        fs = [rand_nonzero_poly(rng, 4) for _ in range(3)]
        with pytest.raises(BackendMismatchError):
            casoratian([Poly(f.embed(prec).coeffs) for f, prec in zip(fs, (64, 256, 128))])
        det = casoratian(fs)
        assert {c.prec for c in det.embed(256).coeffs} <= {256}


def test_alternating_and_multilinear():
    rng = random.Random(53)
    for _ in range(60):
        f, g, h = (rand_rational_poly(rng, 4) for _ in range(3))
        swap = casoratian([g, f, h])
        assert swap == -casoratian([f, g, h])
        assert casoratian([f, f, h]) == Poly.zero()
        lam = Fraction(rng.randint(-4, 4), rng.choice((1, 2)))
        assert casoratian([f * lam, g, h]) == casoratian([f, g, h]) * lam


def test_divisibility_by_gcd_towers():
    rng = random.Random(57)
    for _ in range(60):
        m = rng.randint(2, 3)
        tuple_fs = [gen_chain_poly(rng, max_chains=2, max_length=3) for _ in range(m)]
        det = casoratian([f.expand() for f in tuple_fs])
        if not det:
            continue
        for f in tuple_fs:
            tower = gcd_tower_closed(f, m - 1)
            det.divexact(tower)  # raises ExactDivisionError on failure


def test_degree_bound():
    rng = random.Random(59)
    for _ in range(100):
        m = rng.randint(2, 4)
        fs = []
        while len(fs) < m:
            p = rand_rational_poly(rng, 7)
            if p.degree >= m - 1:
                fs.append(p)
        det = casoratian(fs)
        bound = sum(f.degree for f in fs) - m * (m - 1) // 2
        assert det.degree <= bound


def test_replace_examples():
    assert casoratian_replace([Poly.constant(1), Z], 1, Z + 1) == Poly.constant(1)
    f = Z**3 - 2
    assert casoratian_replace([f], 0, f) == f
    assert casoratian_replace([Z, Z**2], 1, Z + Z**2) == Z**2 + Z


def test_replace_validates_sum():
    with pytest.raises(ValueError):
        casoratian_replace([Z, Z**2], 1, Z)
    with pytest.raises(ValueError):
        casoratian_replace([Z, Z**2], 5, Z + Z**2)


def test_bareiss_matches_cofactor():
    rng = random.Random(61)
    for _ in range(40):
        m = rng.randint(2, 5)
        fs = [rand_rational_poly(rng, 4) for _ in range(m)]
        rows = casorati_rows(fs, "delta")
        assert _det_bareiss(rows) == _det_minors(rows)
    # degenerate rows exercise the zero-column path
    rows = [[Poly.zero(), Poly.constant(1)], [Poly.zero(), Z]]
    assert _det_bareiss(rows) == Poly.zero()


def test_oracle_agreement_on_random_tuples():
    rng = random.Random(67)
    for _ in range(50):
        m = rng.randint(1, 3)
        fs = [rand_rational_poly(rng, 5) for _ in range(m)]
        assert casoratian(fs) == cofactor_oracle(fs)


def leibniz_oracle(rows):
    """Sum over permutations of signed products from the term-by-term loop."""
    n = len(rows)
    total = Poly()
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = reduce(mul_terms, (rows[i][perm[i]] for i in range(n)))
        total = total - term if inversions % 2 else total + term
    return total


def test_radical_determinants_match_leibniz():
    """1x1 to 5x5 by minors on lanes over Q(i, sqrt 2, sqrt 3, sqrt 5);
    entries of degrees 0 to 8, some zero."""
    rng = random.Random(71)
    for n, count, top in ((1, 10, 8), (2, 10, 8), (3, 8, 6), (4, 4, 4), (5, 2, 2)):
        for _ in range(count):
            rows = [
                [rand_radical_poly(rng, rng.randint(0, top)) if rng.random() < 0.85 else Poly() for _ in range(n)]
                for _ in range(n)
            ]
            assert determinant(rows) == leibniz_oracle(rows)
    # a repeated row over the radical field: Bareiss (8x8) meets a zero
    # pivot column
    rows = [[rand_radical_poly(rng, 1) for _ in range(8)] for _ in range(7)]
    assert determinant(rows[:1] + rows) == Poly()


@pytest.mark.parametrize(
    "ring, n, route",
    [
        ("Q", 7, "minors"), ("Q", 8, "bareiss"),
        ("radical", 7, "minors"), ("radical", 8, "bareiss"),
        ("numeric", 7, "minors"), ("numeric", 8, "bareiss"),
    ],
)
def test_route_by_size(monkeypatch, ring, n, route):
    """One size rule for every ring: minors through MINORS_MAX = 7 rows,
    Bareiss above."""
    calls = {"minors": 0, "bareiss": 0}

    def counting(name, fn):
        def wrapped(rows):
            calls[name] += 1
            return fn(rows)
        return wrapped

    monkeypatch.setattr(casorati_mod, "_det_minors", counting("minors", _det_minors))
    monkeypatch.setattr(casorati_mod, "_det_bareiss", counting("bareiss", _det_bareiss))
    # the identity grid plus z on the antidiagonal; sqrt(2) in one corner
    # makes it radical
    rows = [
        [Poly.constant(int(i == j)) + (Z if i + j == n - 1 else 0) for j in range(n)]
        for i in range(n)
    ]
    if ring == "radical":
        rows[0][0] = rows[0][0] + S2
    if ring == "numeric":
        # refused before any route runs: the exact determinant is converted
        with pytest.raises(BackendMismatchError):
            determinant([[Poly(p.embed(64).coeffs) for p in row] for row in rows])
        assert calls == {"minors": 0, "bareiss": 0}
    determinant(rows)
    assert calls == {"minors": int(route == "minors"), "bareiss": int(route == "bareiss")}


def test_bareiss_and_cofactors_agree_on_lanes():
    rng = random.Random(73)
    for n in (2, 3, 4, 5):
        rows = [[rand_radical_poly(rng, rng.randint(0, 3)) for _ in range(n)] for _ in range(n)]
        lanes = [[p._lane for p in row] for row in rows]
        den = math.prod(x.den for row in lanes for x in row)
        lanes = [[_Lane(x.over(den).terms) for x in row] for row in lanes]
        by_bareiss, by_minors = _det_bareiss(lanes), _det_minors(lanes)
        assert not by_bareiss - by_minors
        assert Poly._wrap(_Lane(by_bareiss.terms, by_bareiss.den * den**n)) == determinant(rows)


def bits(p):
    return [(c._re, c._im, c.prec) for c in p.coeffs]


def test_numeric_minors_are_bit_identical_to_cofactors():
    """Numeric determinants are exact ones converted, so every route gives
    the same bits: minors and cofactors here, through 4x4.  Numeric
    coefficients are refused when a polynomial is built."""
    rng = random.Random(79)
    for n in (1, 2, 3, 4):
        for prec in (64, 256, 4096):
            for _ in range(6):
                fs = [rand_rational_poly(rng, 6) for _ in range(n)]
                rows = casorati_rows(fs, "delta")
                assert bits(determinant(rows).embed(prec)) == bits(det_cofactor(rows).embed(prec))
                rows = [[rand_radical_poly(rng, rng.randint(0, 3)) for _ in range(n)] for _ in range(n)]
                assert bits(determinant(rows).embed(prec)) == bits(det_cofactor(rows).embed(prec))
                with pytest.raises(BackendMismatchError):
                    determinant([[Poly(p.embed(prec).coeffs) for p in row] for row in rows])


def numeric_tuples(rng, n):
    """An independent tuple of n exact polynomials of degrees 0 to n + 1,
    and a dependent one whose last entry combines the others."""
    fs = [rand_rational_poly(rng, n + 1) for _ in range(n)]
    while not casoratian(fs):
        fs = [rand_rational_poly(rng, n + 1) for _ in range(n)]
    combo = sum((f * Fraction(rng.randint(-5, 5), rng.randint(1, 7)) for f in fs[1:]), Poly())
    return fs, fs[:-1] + [combo + fs[0] * Fraction(2, 3)]


def numeric_casoratian(fs, prec):
    """The casoratian command's result for fs on the numeric backend."""
    return run_command("casoratian", [f.expr_text() for f in fs], {}, Options("numeric", prec))[1]


@pytest.mark.parametrize("prec", [256, 4096])
@pytest.mark.parametrize("n", [5, 6, 7])
def test_numeric_casoratians_through_seven_rows(prec, n):
    """Numeric 5x5 to 7x7 Casoratians print the exact backend's verdict on
    independent and dependent tuples, and its determinant converted."""
    rng = random.Random(89 + n)
    for _ in range(2):
        for fs in numeric_tuples(rng, n):
            result = numeric_casoratian(fs, prec)
            assert result["independent"] is linearly_independent(fs)
            assert result["poly"] == casoratian(fs).embed(prec).to_json_dict()


def test_numeric_eight_rows_still_reach_bareiss():
    """Above MINORS_MAX rows the exact determinant runs Bareiss, and the
    numeric backend prints it converted: eight rows answer."""
    fs = [Poly([Fraction(1, k + 2), Fraction(-2, 7), 1]) * Z**k + Fraction(1, 3) for k in range(MINORS_MAX + 1)]
    result = numeric_casoratian(fs, 256)
    assert result["independent"] is True
    assert result["poly"] == casoratian(fs).embed(256).to_json_dict()
