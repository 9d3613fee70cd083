import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from diffrad import (
    BackendMismatchError,
    Exact,
    FactoredPoly,
    Poly,
    chain_decomposition,
    classical_rad,
    common_shifting_divisors,
    delta,
    factor_at,
    falling_power,
    gcd_tower,
    gcd_tower_closed,
    gcd_tower_euclid,
    is_shifting_prime,
    pairwise_shifting_prime,
    rad_delta,
    rad_delta_q,
    rad_kappa,
    shift_classes,
    shifting_zero_height,
    shifting_zero_height_via_delta,
)
from diffrad import poly, shiftcalc, theorems
from diffrad.cli import Options, run_command
from diffrad.diffcalc import falling_factorial_linear
from diffrad.poly import product
from diffrad.theorems import gen_chain_poly
import helpers
from helpers import (
    I,
    S2,
    S3,
    brute_common_shifting_divisors,
    integer_offset,
    rand_exact,
    rand_fraction,
    rand_grid_factored,
    scan_classes,
)

Z = Poly.z()

CASCADE = FactoredPoly(1, [(0, 2), (1, 1), (2, 1)])  # z^2 (z-1)(z-2)
MULTI = FactoredPoly(1, [(0, 2), (1, 3)])  # z^2 (z-1)^3
NINE = FactoredPoly(1, [(-1, 1), (0, 2), (1, 3), (2, 2), (4, 1)])


def chains_as_multiset(f):
    return sorted(((start.text(), n) for start, n in chain_decomposition(f).chains))


def test_heights():
    g = CASCADE.expand()
    assert [shifting_zero_height(g, k) for k in (0, 1, 2, 3)] == [3, 2, 1, 0]
    f = MULTI.expand()
    assert shifting_zero_height(f, 0) == 2
    assert shifting_zero_height(f, 1) == 1
    assert shifting_zero_height(5 * Z + 1, 7) == 0


def test_height_delta_route_agrees():
    rng = random.Random(3)
    for _ in range(100):
        f = gen_chain_poly(rng, max_chains=3, max_length=4)
        p = f.expand()
        z0 = f.roots[rng.randrange(len(f.roots))][0]
        assert shifting_zero_height(p, z0) == shifting_zero_height_via_delta(p, z0)


def test_factor_at():
    n, g = factor_at(MULTI.expand(), 0)
    assert (n, g) == (2, Z * (Z - 1) ** 2)

    single = falling_power(Z - 5, 4)
    assert factor_at(single, 5) == (4, Poly.constant(1))

    n, g = factor_at(CASCADE.expand(), 2)
    assert (n, g) == (1, Z**2 * (Z - 1))

    with pytest.raises(ValueError):
        factor_at(CASCADE.expand(), 7)


def test_chain_decomposition_examples():
    assert chains_as_multiset(CASCADE) == [("0", 1), ("0", 3)]
    dec = chain_decomposition(NINE)
    assert [(s.text(), n) for s, n in dec.chains] == [
        ("-1/1", 4),
        ("0", 3),
        ("1/1", 1),
        ("4/1", 1),
    ]
    alpha = Exact.from_rational(Fraction(1, 2))
    single = FactoredPoly(3, [(alpha + j, 1) for j in range(5)])
    assert chain_decomposition(single).chains == ((alpha, 5),)


def test_chain_decomposition_reconstructs():
    rng = random.Random(5)
    for _ in range(100):
        f = gen_chain_poly(rng, max_chains=4, max_length=4)
        dec = chain_decomposition(f)
        assert dec.degree == f.degree
        assert dec.expand() == f.expand()
        # the product of linear Polys over the chain roots
        linear = [Poly.linear(s + j) for s, n in dec.chains for j in range(n)]
        assert dec.expand() == product([Poly.constant(dec.lead)] + linear)


def test_chain_multiset_independent_of_scan_order():
    # uniqueness oracle: peel maximal runs starting from *any* offset whose
    # predecessor is absent, in random order; the multiset must not change
    rng = random.Random(97)
    for _ in range(150):
        f = gen_chain_poly(rng, max_chains=4, max_length=4)
        expected = sorted(
            (s.text(), n) for s, n in chain_decomposition(f).chains
        )
        chains = []
        for cls in shift_classes(f):
            remaining = dict(cls.members)
            while any(m > 0 for m in remaining.values()):
                candidates = [
                    o
                    for o, m in remaining.items()
                    if m > 0 and remaining.get(o - 1, 0) == 0
                ]
                start = rng.choice(candidates)
                length = 0
                while remaining.get(start + length, 0) > 0:
                    remaining[start + length] -= 1
                    length += 1
                chains.append(
                    ((cls.representative + Exact.from_rational(start)).text(), length)
                )
        assert sorted(chains) == expected


def test_chain_constant_input():
    dec = chain_decomposition(FactoredPoly(5))
    assert dec.chains == ()
    assert dec.lead == Exact.from_rational(5)


def test_rad_delta_examples():
    assert rad_delta(CASCADE) == Z**2
    assert rad_delta(NINE) == (Z + 1) * Z * (Z - 1) * (Z - 4)
    abc = (
        FactoredPoly(1, [(0, 1), (1, 1)])
        .times(FactoredPoly(-1, [(4, 1), (5, 1)]))
        .times(FactoredPoly(8, [(Fraction(5, 2), 1)]))
    )
    assert rad_delta(abc) == Z * (Z - Fraction(5, 2)) * (Z - 4)


def test_rad_kappa_examples():
    assert rad_kappa(CASCADE, 1) == Z * (Z - 2)
    assert rad_kappa(NINE, 1) == (Z - 1) * (Z - 2) ** 2 * (Z - 4)
    spread = FactoredPoly(1, [(0, 1), (Fraction(5, 2), 1), (7, 1)])
    assert rad_kappa(spread, 1) == classical_rad(spread)
    with pytest.raises(ValueError):
        rad_kappa(CASCADE, 0)


def test_rad_kappa_general_shift():
    # orders drop across distance-2 neighbours only
    f = FactoredPoly(1, [(0, 3), (2, 1), (5, 2)])
    # d_2(0) = 3 - min(3, ord_2=1) = 2; d_2(2) = 1 - min(1, ord_4=0) = 1; d_2(5) = 2
    assert rad_kappa(f, 2) == Z**2 * (Z - 2) * (Z - 5) ** 2
    # kappa = -2: d(0) = 3, d(2) = 1 - min(1, ord_0=3) = 0, d(5) = 2
    assert rad_kappa(f, -2) == Z**3 * (Z - 5) ** 2


def test_rad_kappa_negative_matches_rad_delta():
    # closed-form cross-check: chain starts carry multiplicity
    # max(0, ord_w - ord_{w-1}), which is the kappa = -1 radical
    rng = random.Random(7)
    for _ in range(200):
        f = gen_chain_poly(rng, max_chains=4, max_length=4)
        assert rad_delta(f) == rad_kappa(f, -1)


def test_rad_delta_q():
    alpha = Exact.from_rational(Fraction(1, 3))
    single = FactoredPoly(1, [(alpha + j, 1) for j in range(5)])
    q2 = rad_delta_q(single, 2)
    assert q2 == (Z - alpha) * (Z - alpha - 1)
    assert q2.degree == 2
    assert rad_delta_q(single, 7) == single.expand().monic()
    assert rad_delta_q(NINE, 1) == rad_delta(NINE)
    with pytest.raises(ValueError):
        rad_delta_q(NINE, 0)


def test_rad_delta_q_degree_formula():
    rng = random.Random(11)
    for _ in range(100):
        f = gen_chain_poly(rng, max_chains=4, max_length=4)
        q = rng.randint(1, 4)
        dec = chain_decomposition(f)
        out = rad_delta_q(f, q)
        assert out.degree == sum(min(n, q) for _, n in dec.chains)
        assert out.lead == Exact.from_rational(1)


def test_rad_delta_q_gcd_form_on_separated_chains():
    # gcd oracle: valid when truncation windows cannot reach other chains,
    # so chain starts are spaced far beyond the window width here
    from diffrad import poly_gcd

    rng = random.Random(11)
    for _ in range(40):
        count = rng.randint(1, 3)
        roots = []
        starts = []
        for idx in range(count):
            start = Fraction(20 * idx + rng.randint(0, 5))
            length = rng.randint(1, 4)
            starts.append((start, length))
            roots.extend((start + j, 1) for j in range(length))
        f = FactoredPoly(rng.choice((1, -2)), roots)
        q = rng.randint(1, 4)
        full = Poly.constant(1)
        clamp = Poly.constant(1)
        for start, length in starts:
            lin = Poly.linear(Exact.from_rational(start))
            full = full * falling_power(lin, length)
            clamp = clamp * falling_power(lin, q)
        assert rad_delta_q(f, q) == poly_gcd(full, clamp)


def test_gcd_tower():
    assert gcd_tower(falling_power(Z, 3), 1) == Z * (Z - 1)
    # product of disjoint chains: tower at 1 strips one from each length
    f = FactoredPoly(2, [(0, 1), (1, 1), (2, 1), (10, 1), (11, 1)])
    assert gcd_tower(f, 1) == falling_power(Z, 2) * Poly.linear(
        Exact.from_rational(10)
    )
    assert gcd_tower(f, 5) == Poly.constant(1)
    with pytest.raises(ValueError):
        gcd_tower(f, 0)


def test_gcd_tower_routes_agree():
    rng = random.Random(13)
    for _ in range(100):
        f = gen_chain_poly(rng, max_chains=3, max_length=4)
        p = f.expand()
        for n in (1, 2, 3):
            assert gcd_tower_closed(f, n) == gcd_tower_euclid(p, n)


def chain_route(f: FactoredPoly, q: int, n: int) -> tuple[Poly, Poly, Poly]:
    """rad_delta, rad_delta_q and gcd_tower_closed from the chains: the oracle.

    Monic products of z - start, of falling factorials of length min(len, q),
    and of falling factorials of length len - n over the chains longer than n.
    """
    one = Poly([1])
    chains = chain_decomposition(f).chains
    return (
        product([one] + [Poly.linear(start) for start, _ in chains]),
        product([one] + [falling_factorial_linear(s, min(k, q)) for s, k in chains]),
        product([one] + [falling_factorial_linear(s, k - n) for s, k in chains if k > n]),
    )


def overlapping_chain_poly(rng: random.Random) -> FactoredPoly:
    """Roots at offsets 0..4 from two bases in Q(i, sqrt 2), multiplicities 1..3,
    so that chains of one class start, end and overlap at shared offsets."""
    bases = [
        rand_fraction(rng, 3) + I * rand_fraction(rng, 2) + S2 * rng.randint(0, 1)
        for _ in range(2)
    ]
    roots = [
        (rng.choice(bases) + Exact.from_rational(rng.randint(0, 4)), rng.randint(1, 3))
        for _ in range(rng.randint(1, 8))
    ]
    return FactoredPoly(rng.choice((1, -2, Fraction(3, 7))), roots)


def test_order_rules_match_the_chain_route():
    rng = random.Random(29)
    overlapping = 0
    for _ in range(240):
        f = overlapping_chain_poly(rng)
        q, n = rng.randint(1, 5), rng.randint(1, 5)
        got = (rad_delta(f), rad_delta_q(f, q), gcd_tower_closed(f, n))
        assert got == chain_route(f, q, n)
        # neighbouring offsets of different positive orders: chains of
        # different extents share an offset
        overlapping += any(
            0 < c.members.get(o + 1, 0) != k
            for c in shift_classes(f)
            for o, k in c.members.items()
        )
    assert overlapping >= 100  # 138 of the 240 inputs


def test_order_rules_match_the_chain_route_numerically():
    """Numeric roots are refused when the input is built; the order rules'
    exact radicals, converted for output, are the chain route's bit for bit."""
    rng = random.Random(31)
    for _ in range(60):
        exact = overlapping_chain_poly(rng)
        with pytest.raises(BackendMismatchError):
            FactoredPoly(exact.lead, [(r.to_numeric(128), k) for r, k in exact.roots])
        q, n = rng.randint(1, 5), rng.randint(1, 5)
        got = (rad_delta(exact), rad_delta_q(exact, q), gcd_tower_closed(exact, n))
        for a, b in zip(got, chain_route(exact, q, n)):
            assert a.embed(128) == b.embed(128)


def test_radicals_group_once_and_build_no_chains_or_powers(monkeypatch):
    calls = {"shift_classes": 0, "chain_decomposition": 0, "pow": 0}

    def counting(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    for name in ("shift_classes", "chain_decomposition"):
        monkeypatch.setattr(shiftcalc, name, counting(name, getattr(shiftcalc, name)))
    monkeypatch.setattr(Poly, "__pow__", counting("pow", Poly.__pow__))
    for radical in (
        rad_delta,
        lambda f: rad_kappa(f, 1),
        lambda f: rad_delta_q(f, 2),
        lambda f: gcd_tower_closed(f, 1),
    ):
        for key in calls:
            calls[key] = 0
        assert radical(NINE).degree > 0
        assert calls == {"shift_classes": 1, "chain_decomposition": 0, "pow": 0}


def test_numeric_constant_radicals_keep_the_backend():
    """Constant radicals are exact 1s, printed as 1.0 on the numeric
    backend; numeric factored input is refused when it is built."""
    for lead, roots in ((nroot(5), []), (1, [(nroot(Fraction(1, 3)), 1)])):
        with pytest.raises(BackendMismatchError):
            FactoredPoly(lead, roots)
    numeric = Options("numeric", 128)
    for command, src in [("rad-delta", "5"), ("rad-kappa", "5"), ("rad-q", "5"),
                         ("gcd-tower", "z - 1/3")]:
        _, result = run_command(command, [src], {}, numeric)
        assert result["text"] == "1.0" and result["degree"] == 0


def test_huge_tower_height_and_truncation_level_return_at_once(monkeypatch):
    f = FactoredPoly(3, [(0, 1), (1, 2), (2, 1), (Fraction(1, 2), 2)])
    p = f.expand()
    top = f.degree + 1
    want = gcd_tower(f, top)
    deltas = []
    original = shiftcalc.diffcalc.delta

    def bounded_delta(g):
        deltas.append(g)
        if len(deltas) > top:
            raise AssertionError("differenced past delta^(deg p + 1) p = 0")
        return original(g)

    monkeypatch.setattr(shiftcalc.diffcalc, "delta", bounded_delta)
    for x in (f, p):
        deltas.clear()
        assert gcd_tower(x, 10**8) == want
    monkeypatch.undo()
    start = time.perf_counter()
    assert rad_delta_q(f, 10**8) == rad_delta_q(f, top) == p.monic()
    assert gcd_tower_closed(f, 10**8) == Poly.constant(1)
    assert time.perf_counter() - start < 5


# a rational input with multiplicities, chains over denominators 1 and 3
TOWER_RATIONAL = FactoredPoly(
    Fraction(3, 2),
    [(0, 2), (1, 3), (2, 2), (3, 1), (Fraction(1, 3), 2), (Fraction(4, 3), 2), (7, 1)],
)
# the same with one Q(sqrt 2) class whose orders give the tower a radical root
TOWER_RADICAL = FactoredPoly(
    1, [(0, 1), (Fraction(1, 2), 1), (S2, 2), (S2 + 1, 3), (S2 + 2, 2), (I - 1, 1)]
)


def counting_calls(monkeypatch, module, names) -> dict:
    """Replace each named function of `module` by a wrapper counting its calls."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(module, name)

        def wrapper(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.mark.parametrize("f", [TOWER_RATIONAL, TOWER_RADICAL], ids=["rational", "radical"])
@pytest.mark.parametrize("step", [1, -1], ids=["too-high", "too-low"])
def test_tower_guard_catches_a_wrong_closed_form(monkeypatch, f, step):
    """An order rule one step off is refused by the certificate alone, with
    no Euclidean gcd: too high by a failed exact division, too low through
    the value gcd and exact division at a rational root, and by the
    evaluation at a radical root."""
    assert gcd_tower(f, 1) == helpers.linear_factors(helpers.tower_roots(f, 1))
    original = shiftcalc._least_order
    monkeypatch.setattr(
        shiftcalc, "_least_order", lambda m, lo, hi: max(original(m, lo, hi) + step, 0)
    )
    assert gcd_tower_closed(f, 1) != gcd_tower_euclid(f.expand(), 1)
    calls = counting_calls(monkeypatch, shiftcalc, ["gcd_tower_euclid"])
    with pytest.raises(ArithmeticError, match="gcd tower routes disagree"):
        gcd_tower(f, 1)
    assert calls["gcd_tower_euclid"] == 0


def test_factored_tower_runs_no_euclidean_gcd(monkeypatch):
    """A factored rational input of degree 64 is certified: no gcd is taken."""
    dens = [1, 2, 3, 5, 7, 11, 12]
    roots, left, j = [], 64, 0
    while left:  # chains of up to 3 roots, multiplicities 1 to 3
        base = Fraction((-1) ** j * (7 * j % 41 + 1), dens[j % 7])
        for k in range(j % 3 + 1):
            m = min(1 + (j + k) % 3, left)
            if m:
                roots.append((base + k, m))
                left -= m
        j += 1
    f = FactoredPoly(Fraction(-5, 4), roots)
    assert f.degree == 64
    want = {n: gcd_tower_euclid(f.expand(), n) for n in (1, 2, 3)}
    calls = counting_calls(monkeypatch, shiftcalc, ["poly_gcd", "gcd_tower_euclid"])
    for n in (1, 2, 3):
        assert gcd_tower(f, n) == want[n]
        assert want[n].degree > 0
    assert calls == {"poly_gcd": 0, "gcd_tower_euclid": 0}


def seeded_tower_input(rng: random.Random, kind: str) -> FactoredPoly:
    """Chains of shifted roots with multiplicities 1 to 3: over denominators
    1 to 12 ("rational"), also with a multiple root at 0 ("zero"), or with
    classes in Q(sqrt 2) and Q(i) besides a rational one ("radical")."""
    if kind == "radical":
        bases = [rand_fraction(rng, 5) + S2 * rng.choice((1, -1)), rand_fraction(rng, 5) + I]
        bases.append(Exact.from_rational(rand_fraction(rng, 12)))
        count = 2
    else:
        bases = [Exact.from_rational(Fraction(rng.randint(-40, 40), rng.randint(1, 12)))
                 for _ in range(rng.randint(1, 4))]
        count = 4
    roots = [
        (base + Exact.from_rational(o), rng.randint(1, 3))
        for base in bases
        for o in rng.sample(range(5), rng.randint(1, count))
    ]
    if kind == "zero":
        roots.append((Exact(), rng.randint(2, 4)))
    return FactoredPoly(rng.choice((1, -3, Fraction(2, 7))), roots)


@pytest.mark.parametrize("kind", ["rational", "zero", "radical"])
def test_certified_tower_against_euclid_and_the_roots(monkeypatch, kind):
    rng = random.Random({"rational": 61, "zero": 62, "radical": 63}[kind])
    verdicts = []
    original = shiftcalc._tower_certified

    def recording(*args):
        verdicts.append(original(*args))
        return verdicts[-1]

    monkeypatch.setattr(shiftcalc, "_tower_certified", recording)
    inputs = [seeded_tower_input(rng, kind) for _ in range(12 if kind == "radical" else 30)]
    if kind == "zero":  # at n = 1 the cofactor P / g is 2 z^3, and -z^4
        inputs += [FactoredPoly(2, [(0, 3)]), FactoredPoly(-1, [(-1, 3), (0, 4)])]
    for f in inputs:
        p = f.expand()
        for n in range(1, f.degree + 2):
            got = gcd_tower(f, n)
            assert got == gcd_tower_euclid(p, n)
            assert got == helpers.linear_factors(helpers.tower_roots(f, n))
    assert len(verdicts) > 100 and all(verdicts)


@pytest.mark.parametrize("kind", ["rational", "zero", "radical"])
def test_factored_tower_expands_nothing(monkeypatch, kind):
    """The certificate reads P as the closed form times its cofactor, both
    from f's classes: no ``FactoredPoly.expand`` runs, and the P it takes
    differences of is f.expand()."""
    rng = random.Random({"rational": 81, "zero": 82, "radical": 83}[kind])
    inputs = [seeded_tower_input(rng, kind) for _ in range(8)]
    expanded = [f.expand() for f in inputs]
    seen = []
    differences = shiftcalc.diffcalc.differences

    def recording(p):
        seen.append(p)
        return differences(p)

    monkeypatch.setattr(shiftcalc.diffcalc, "differences", recording)
    calls = counting_calls(monkeypatch, FactoredPoly, ["expand"])
    for f, p in zip(inputs, expanded):
        for n in (1, 2, 3):
            seen.clear()
            closed = gcd_tower(f, n)
            assert seen == [p] and p.divexact(closed).lead == f.lead
    assert calls == {"expand": 0}


@pytest.mark.parametrize(
    "f",
    [FactoredPoly(Fraction(2, 3), [(0, 1), (1, 3)]), FactoredPoly(1, [(S2, 1), (S2 + 1, 3)])],
    ids=["rational", "radical"],
)
def test_tower_guard_refuses_an_order_above_the_multiplicity(monkeypatch, f):
    """A closed form one order too high at offset 0, d(0) = 2 > m(0) = 1,
    is the true tower of g c with c's order there clamped at 0, so only
    the check d <= m refuses it, with no Euclidean gcd."""
    least = shiftcalc._least_order
    monkeypatch.setattr(shiftcalc, "_least_order", lambda m, lo, hi: least(m, lo, hi) + (lo == 0))
    wrong = gcd_tower_closed(f, 1)
    assert wrong.degree == 2 and wrong != gcd_tower_euclid(f.expand(), 1)
    calls = counting_calls(monkeypatch, shiftcalc, ["gcd_tower_euclid"])
    with pytest.raises(ArithmeticError, match="gcd tower routes disagree"):
        gcd_tower(f, 1)
    assert calls == {"gcd_tower_euclid": 0}


# the constant terms of P's cofactors hold a high power of 2, so at the root
# 0, where b xi - a = xi, the value gcd Gamma is divisible by xi
TOWER_OPEN_AT_ZERO = FactoredPoly(1, [
    (0, 2), (-1, 3), (-3, 3), (-4, 2), (-5, 1), (-7, 4), (-9, 1), (-15, 4), (-31, 1),
    (-63, 2), (3, 3), (5, 2), (9, 2), (17, 3), (33, 2),
])


def test_certificate_decides_the_roots_gamma_leaves_open(monkeypatch):
    """Gamma leaves the root 0 open, and exact division by z decides it: a
    cofactor it does not divide rules 0 out and certifies the closed form.
    Against an order rule one step too low, z + 1 divides every cofactor,
    which disproves it.  No Euclidean gcd is taken either way."""
    f = TOWER_OPEN_AT_ZERO
    want = gcd_tower_euclid(f.expand(), 1)
    assert want == helpers.linear_factors(helpers.tower_roots(f, 1))
    divisions = []  # (root, divides) per division by b z - a, a divisor of length 2
    original = shiftcalc._divexact_ints

    def recording(a, b):
        q = original(a, b)
        if len(b) == 2:
            divisions.append((Fraction(-b[0], b[1]), q is not None))
        return q

    monkeypatch.setattr(shiftcalc, "_divexact_ints", recording)
    calls = counting_calls(monkeypatch, shiftcalc, ["gcd_tower_euclid"])
    assert gcd_tower(f, 1) == want
    assert divisions == [(0, True), (0, False)]  # c_0(0) = 0, c_1(0) != 0
    divisions.clear()
    least = shiftcalc._least_order
    monkeypatch.setattr(shiftcalc, "_least_order", lambda m, lo, hi: max(least(m, lo, hi) - 1, 0))
    with pytest.raises(ArithmeticError, match="gcd tower routes disagree"):
        gcd_tower(f, 1)
    assert divisions == [(0, True), (0, False), (-1, True), (-1, True)]
    assert calls == {"gcd_tower_euclid": 0}


# -- shift classes ------------------------------------------------------------


def scanned_classes(f):
    """The pairwise scan, sorted as shift_classes sorts: the oracle."""
    classes = sorted(scan_classes(f.roots), key=lambda c: c[0].text())
    return [(rep.text(), members) for rep, members in classes]


def test_bucketed_classes_match_the_scan():
    rng = random.Random(71)
    # non-rational parts over Q(i, sqrt 2, sqrt 3), including none (integer and
    # rational roots); residues include 0 (pure radicals) and negative
    # non-integers, where floor and truncation differ
    radicals = [Exact(), S2, I * S3, S2 + I * Fraction(-1, 2), S2 * S3 - S3]
    residues = [Fraction(0), Fraction(1, 3), Fraction(-2, 7), Fraction(-5, 2)]
    shared = 0
    for _ in range(200):
        roots = [
            (
                rng.choice(radicals)
                + Exact.from_rational(rng.choice(residues) + rng.randint(-4, 4)),
                rng.randint(1, 3),
            )
            for _ in range(rng.randint(1, 12))
        ]
        f = FactoredPoly(rng.choice((1, -3, Fraction(2, 5))), roots)
        classes = shift_classes(f)
        assert [(c.representative.text(), c.members) for c in classes] == scanned_classes(f)
        shared += any(len(c.members) > 1 for c in classes)
    assert shared >= 100  # most inputs have classes with several offsets


def test_residue_keys_of_radical_roots_over_another_denominator():
    """A radical root whose rational part has another denominator than its
    radical part holds all its ints over one den (6 for 1/2 + sqrt(2)/3):
    the key (rest, n mod d, d) groups exactly the roots an integer apart."""
    third, half, sixth = Fraction(1, 3), Fraction(1, 2), Fraction(1, 6)
    a = S2 * third + half
    b = S2 * third + Fraction(5, 2)  # a + 2
    apart = [S2 * third + third, S2 * third + sixth, S2 * half + half]
    (key_a, n_a), (key_b, n_b) = poly._residue_key(a), poly._residue_key(b)
    assert key_a == key_b and key_a[2] == 6 and (n_b - n_a) // key_a[2] == 2
    keys = [poly._residue_key(r)[0] for r in apart]
    assert len({key_a, *keys}) == 4
    f = FactoredPoly(1, [(b, 2), (a, 1)] + [(r, 1) for r in apart])
    classes = shift_classes(f)
    assert {cls.representative: cls.members for cls in classes} == {
        a: {0: 1, 2: 2}, **{r: {0: 1} for r in apart}
    }
    assert [(c.representative.text(), c.members) for c in classes] == scanned_classes(f)


def test_exact_classes_make_no_pairwise_comparison(monkeypatch):
    calls = []
    original = helpers.integer_offset

    def counting(a, b):
        calls.append((a, b))
        return original(a, b)

    monkeypatch.setattr(helpers, "integer_offset", counting)
    exact = FactoredPoly(
        1, [(Fraction(j, 3) + k + S2 * (j % 2), 1 + k % 2) for j in range(4) for k in range(5)]
    )
    assert len(shift_classes(exact)) == 4
    assert calls == []
    # the counter does see the scan oracle
    three = FactoredPoly(1, [(k, 1) for k in range(3)])
    assert len(scan_classes(three.roots)) == 1
    assert len(calls) == 2


def test_int_keyed_classes_split_residues_by_denominator():
    """Roots whose rational parts n/d share n mod d but not d, or share the
    rational part but not the radical part, fall into different classes;
    negative rationals keep nonnegative offsets from the least member."""
    thirds = [Fraction(1, 3), Fraction(-5, 3), Fraction(7, 3), Fraction(-2, 3)]
    others = [Fraction(1, 2), Fraction(1, 4), Fraction(-3, 2), Fraction(9, 4), Fraction(1, 6)]
    radicals = [Exact(), S2, S3, I * S2]
    rng = random.Random(1803)
    for _ in range(100):
        roots = [
            (rng.choice(radicals) + rng.choice(thirds + others), rng.randint(1, 3))
            for _ in range(rng.randint(1, 10))
        ]
        f = FactoredPoly(rng.choice((1, -2, S2)), roots)
        classes = shift_classes(f)
        assert [(c.representative.text(), c.members) for c in classes] == scanned_classes(f)
    f = FactoredPoly(1, [(q, 1) for q in thirds + others] + [(S2 + Fraction(1, 3), 2)])
    got = {c.representative.text(): c.members for c in shift_classes(f)}
    # 1/2, 1/4 and 1/6 all have n mod d = 1
    assert got == {
        "-5/3": {0: 1, 1: 1, 2: 1, 4: 1},
        "-3/2": {0: 1, 2: 1},
        "1/4": {0: 1, 2: 1},
        "1/6": {0: 1},
        "1/3 + 1/1*sqrt(2)": {0: 2},
    }


def test_classes_come_in_representative_rank_order():
    """shift_classes orders classes by the rank of the representative in
    f.roots, which FactoredPoly sorts by text: the order of the text-sorted
    scan.  In text order -2/3 comes before -4/5 and -4/5 before -5/3, so the
    thirds' bucket meets -2/3 first while its representative -5/3 ranks
    after the class of -4/5."""
    f = FactoredPoly(1, [(Fraction(-2, 3), 1), (Fraction(-5, 3), 2), (Fraction(-4, 5), 1)])
    assert [r.text() for r in f.distinct_roots()] == ["-2/3", "-4/5", "-5/3"]
    got = [(c.representative.text(), c.members) for c in shift_classes(f)]
    assert got == [("-4/5", {0: 1}), ("-5/3", {0: 2, 1: 1})] == scanned_classes(f)
    rng = random.Random(2003)
    rationals = [Fraction(n, d) for n in (-5, -2, 1, 4) for d in (1, 2, 3, 7, 12)]
    radicals = [Exact(), Exact(), S2, I * S3, S2 - I]
    for _ in range(150):
        roots = [
            (rng.choice(radicals) + rng.choice(rationals) + rng.randint(-3, 3), rng.randint(1, 3))
            for _ in range(rng.randint(1, 14))
        ]
        f = FactoredPoly(rng.choice((1, -2, S2)), roots)
        got = [(c.representative.text(), c.members) for c in shift_classes(f)]
        assert got == scanned_classes(f)


def seeded_root_entries(rng: random.Random) -> list:
    """Rational and radical roots with multiplicities, in shuffled order,
    some of them repeated across several entries."""
    radicals = [Exact(), Exact(), S2, I * S3, S2 + I * Fraction(-1, 2)]
    residues = [Fraction(0), Fraction(1, 3), Fraction(-2, 7), Fraction(5, 12)]
    roots = [
        (rng.choice(radicals) + Exact.from_rational(rng.choice(residues) + rng.randint(-5, 5)),
         rng.randint(1, 3))
        for _ in range(rng.randint(1, 12))
    ]
    roots += [(r, rng.randint(1, 2)) for r, _ in rng.sample(roots, rng.randint(0, len(roots)))]
    rng.shuffle(roots)
    return roots


def test_factored_poly_holds_the_classes_of_its_roots():
    """A FactoredPoly's classes are the scan oracle's, by representative
    text; roots is the text-sorted merged multiset; equality and hash do not
    depend on the order of the entries; times is construction from both
    polynomials' roots."""
    rng = random.Random(2601)
    repeated = 0
    for _ in range(150):
        roots = seeded_root_entries(rng)
        lead = rng.choice((1, -3, Fraction(2, 5), S2))
        f = FactoredPoly(lead, roots)
        want = sorted(scan_classes(roots), key=lambda c: c[0].text())
        assert [(c.representative, c.members) for c in f.classes] == want
        merged: dict[str, int] = {}
        for r, m in roots:
            merged[r.text()] = merged.get(r.text(), 0) + m
        assert [(r.text(), m) for r, m in f.roots] == sorted(merged.items())
        assert f.degree == sum(m for _, m in roots)
        repeated += len(merged) < len(roots)
        again = FactoredPoly(lead, rng.sample(roots, len(roots)))
        assert again == f and hash(again) == hash(f)
        assert FactoredPoly(lead, roots[1:]) != f
        other = seeded_root_entries(rng)
        assert f.times(FactoredPoly(-2, other)) == FactoredPoly(f.lead * -2, roots + other)
    assert repeated >= 50


def test_built_factored_polys_are_not_grouped_again(monkeypatch):
    """Roots are keyed once, when a FactoredPoly is built: the chains,
    radicals, towers and shifting divisors read the classes it holds."""
    calls = counting_calls(monkeypatch, poly, ["_residue_key"])
    entries = [seeded_root_entries(random.Random(seed)) for seed in range(6)]
    fs = [FactoredPoly(1, roots) for roots in entries]
    assert calls["_residue_key"] == sum(map(len, entries))
    calls["_residue_key"] = 0
    for f in fs + [TOWER_RATIONAL, TOWER_RADICAL, TOWER_OPEN_AT_ZERO]:
        chain_decomposition(f)
        rad_delta(f)
        rad_kappa(f, 1)
        rad_delta_q(f, 2)
        gcd_tower(f, 2)
    for f, g in combinations(fs, 2):
        common_shifting_divisors(f, g)
    pairwise_shifting_prime(fs)
    assert calls == {"_residue_key": 0}


def test_common_shifting_divisors_examples():
    f = FactoredPoly(1, [(0, 1), (1, 1), (2, 1)])
    g = FactoredPoly(1, [(2, 1), (3, 1), (4, 1)])
    assert [d.text() for d in common_shifting_divisors(f, g)] == ["0", "1/1", "2/1"]

    p = FactoredPoly(1, [(0, 1)])
    q = FactoredPoly(1, [(0, 1), (1, 1)])
    assert [d.text() for d in common_shifting_divisors(p, q)] == ["0"]
    assert not is_shifting_prime(p, q)

    lone = FactoredPoly(1, [(Fraction(5, 2), 1)])
    assert common_shifting_divisors(p, lone) == []
    assert is_shifting_prime(p, lone)


def test_shifting_prime_self_cases():
    # a simple zero chains with nothing: z is shifting prime with itself
    p = FactoredPoly(1, [(0, 1)])
    assert is_shifting_prime(p, p)
    # any polynomial with a height >= 2 zero is not shifting prime with itself
    r = FactoredPoly(1, [(0, 1), (1, 1)])
    assert not is_shifting_prime(r, r)


def test_common_shifting_divisors_against_brute_force():
    rng = random.Random(17)
    for _ in range(150):
        f = rand_grid_factored(rng, max_degree=3)
        g = rand_grid_factored(rng, max_degree=3)
        assert [
            d.text() for d in common_shifting_divisors(f, g)
        ] == brute_common_shifting_divisors(f, g)


def quadratic_chain_hits(a, b, k) -> set[int]:
    """Offsets in a whose zero chain runs into b, by the definition: scan
    the run of consecutive offsets from o, then test each step of it."""
    def height(o):
        h = 0
        while a.members.get(o + h, 0) > 0:
            h += 1
        return h

    return {o for o in a.members if any(o + m - k in b.members for m in range(1, height(o) + 1))}


def test_chain_hits_match_the_quadratic_definition():
    rng = random.Random(29)
    hits = misses = 0
    for _ in range(3000):
        a, b = (
            poly.ShiftClass(None, {o: rng.randint(1, 3) for o in rng.sample(range(12), rng.randint(1, 9))},
                            (), 0)
            for _ in range(2)
        )
        k = rng.randint(-14, 14)
        got = shiftcalc._chain_hits(a, b, k)
        assert got == quadratic_chain_hits(a, b, k)
        hits += bool(got)
        misses += not got
    assert hits >= 500 and misses >= 500


def test_chains_of_length_2000_pair_at_once():
    """Heights are read once and each window is one bisect: two classes of
    2000 consecutive roots pair within a second, in both orders, whether
    every chain of one runs into the other or none does."""
    f = FactoredPoly(1, [(j, 1) for j in range(2000)])
    start = time.perf_counter()
    for lo, want in ((2000, 2000), (2001, 0)):
        g = FactoredPoly(1, [(j, 1) for j in range(lo, lo + 2000)])
        assert len(common_shifting_divisors(f, g)) == len(common_shifting_divisors(g, f)) == want
    assert time.perf_counter() - start < 1


def rand_radical_factored(rng: random.Random, bases: list) -> FactoredPoly:
    """Roots at integer offsets from a few bases, with multiplicities 1..2."""
    roots = [
        (rng.choice(bases) + Exact.from_rational(rng.randint(-2, 2)), rng.randint(1, 2))
        for _ in range(rng.randint(1, 4))
    ]
    return FactoredPoly(rng.choice((1, -1, 2, Fraction(1, 3))), roots)


def test_common_shifting_divisors_against_brute_force_radical_roots():
    rng = random.Random(61)
    hits = 0
    for _ in range(80):
        # bases in Q(i, sqrt 2); two of them share a class up to an integer
        bases = [rand_fraction(rng, 3) + I * rand_fraction(rng, 2) + S2 for _ in range(2)]
        bases.append(bases[0] + Exact.from_rational(3))
        f = rand_radical_factored(rng, bases)
        g = rand_radical_factored(rng, bases)
        want = brute_common_shifting_divisors(f, g)
        assert [d.text() for d in common_shifting_divisors(f, g)] == want
        hits += bool(want)
    assert hits >= 20  # the corpus exercises both verdicts


def test_keyed_pairing_against_brute_force_on_shared_residues():
    """Classes pair by the key (non-rational terms, n mod d, d) of their
    representatives.  Roots whose rational parts share n mod d but not d
    (1/2, 1/4, 1/6), or share the rational part but not the radical part,
    never pair; the definition-based oracle agrees on every draw."""
    rationals = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 6), Fraction(-3, 2), Fraction(5, 4)]
    radicals = [Exact(), S2, S3, I * S2]
    rng = random.Random(2111)
    hits = misses = 0
    for _ in range(120):
        f, g = (
            FactoredPoly(
                rng.choice((1, -2, S2)),
                [
                    (rng.choice(radicals) + rng.choice(rationals) + rng.randint(0, 2), rng.randint(1, 2))
                    for _ in range(rng.randint(1, 4))
                ],
            )
            for _ in range(2)
        )
        want = brute_common_shifting_divisors(f, g)
        assert [d.text() for d in common_shifting_divisors(f, g)] == want
        assert pairwise_shifting_prime([f, g])[0] == (not want)
        hits += bool(want)
        misses += not want
    assert hits >= 20 and misses >= 20
    half_chain = FactoredPoly(1, [(Fraction(1, 2), 1), (Fraction(3, 2), 1)])
    for other in (Fraction(9, 4), Fraction(13, 6), S2 + Fraction(5, 2), I * S2 + Fraction(5, 2)):
        assert is_shifting_prime(half_chain, FactoredPoly(1, [(other, 1)]))
    five_halves = FactoredPoly(1, [(Fraction(5, 2), 1)])
    got = [d.text() for d in common_shifting_divisors(half_chain, five_halves)]
    assert got == ["1/2", "3/2"] == brute_common_shifting_divisors(half_chain, five_halves)


def test_keyed_pairing_makes_no_root_subtraction(monkeypatch):
    """Pairing classes and their offsets come from the residue keys' ints:
    no Exact subtraction (``integer_offset``, the scan oracle's comparison,
    is one) runs in common_shifting_divisors or pairwise_shifting_prime."""
    rng = random.Random(7)
    fs = [
        FactoredPoly(1, [(rng.choice((Exact(), S2)) + rng.choice(range(-3, 4)), 1) for _ in range(5)])
        for _ in range(4)
    ]
    calls = []
    for name in ("__sub__", "__rsub__"):
        original = getattr(Exact, name)
        monkeypatch.setattr(
            Exact, name, lambda a, b, original=original: calls.append((a, b)) or original(a, b)
        )
    assert any(common_shifting_divisors(f, g) for f in fs for g in fs)
    assert not pairwise_shifting_prime(fs)[0]
    assert calls == []
    # the counter does see the oracle's subtraction
    assert integer_offset(S2 + 3, S2) == 3 and len(calls) == 1


def test_drawn_int_keys_agree_with_the_built_parts(monkeypatch):
    """The sampler's verdict on drawn ints: ``shift_classes`` of (n, d) pairs,
    paired by ``_first_shared_pair``.  On a widened grid (d up to 6, so
    residues collide across denominators), with repeated roots and 2-4 parts,
    it agrees with ``pairwise_shifting_prime`` on the built parts and with
    the definition-based oracle, and each pair's key is the built root's."""
    monkeypatch.setattr(theorems, "DEFAULT_GRID_NUMERATORS", tuple(range(-7, 8)))
    monkeypatch.setattr(theorems, "DEFAULT_GRID_DENOMINATORS", (1, 2, 3, 4, 6))
    rng = random.Random(2323)
    verdicts = []
    for _ in range(150):
        draws = [theorems._draw_factored(rng, 1, 4) for _ in range(rng.randint(2, 4))]
        for roots, _ in draws:
            if rng.random() < 0.3:
                roots.append(rng.choice(roots))
        parts = [theorems._build_factored(*draw) for draw in draws]
        for roots, _ in draws:
            for n, d in roots:
                root = Exact.from_rational(Fraction(n, d))
                assert poly._rational_key(n, d) == poly._residue_key(root)
        classes = [shift_classes(roots) for roots, _ in draws]
        assert [{c.key: (c.n, c.members) for c in cs} for cs in classes] == [
            {c.key: (c.n, c.members) for c in shift_classes(f)} for f in parts
        ]
        shared = shiftcalc._first_shared_pair(classes)
        ok, witness = pairwise_shifting_prime(parts)
        brute = next(
            (
                (i, j)
                for i, j in combinations(range(len(parts)), 2)
                if brute_common_shifting_divisors(parts[i], parts[j])
            ),
            None,
        )
        assert shared == brute == (None if ok else witness[:2])
        verdicts.append(ok)
    assert 20 <= sum(verdicts) <= len(verdicts) - 20  # both verdicts occur


def test_pairwise_groups_each_input_once(monkeypatch):
    calls = []
    original = shiftcalc.shift_classes

    def counting(f):
        calls.append(f)
        return original(f)

    monkeypatch.setattr(shiftcalc, "shift_classes", counting)
    # residues j/5 differ, so the four inputs are pairwise shifting prime
    fs = [
        FactoredPoly(1, [(Fraction(j, 5) + k, 1) for k in range(3)]) for j in range(4)
    ]
    assert pairwise_shifting_prime(fs) == (True, None)
    assert len(calls) == 4
    calls.clear()
    ok, witness = pairwise_shifting_prime([fs[0], FactoredPoly(1, [(3, 1)]), fs[1]])
    assert not ok and witness[:2] == (0, 1)
    assert len(calls) == 3


def test_pairwise_rejects_mixed_backends_before_any_pair():
    """A numeric member is refused when it is built, before any pair."""
    a = FactoredPoly(1, [(0, 1), (1, 1)])
    bad = FactoredPoly(1, [(2, 1)])  # a and bad already share a divisor
    assert not pairwise_shifting_prime([a, bad])[0]
    with pytest.raises(BackendMismatchError):
        FactoredPoly(1, [(nroot(5), 1)])


def test_pairwise_shifting_prime_witness():
    a = FactoredPoly(1, [(0, 1), (1, 1)])
    b = FactoredPoly(-1, [(4, 1), (5, 1)])
    c = FactoredPoly(8, [(Fraction(5, 2), 1)])
    ok, witness = pairwise_shifting_prime([a, b, c])
    assert ok and witness is None

    bad = FactoredPoly(1, [(2, 1)])
    ok, witness = pairwise_shifting_prime([a, bad, c])
    assert not ok
    i, j, z0 = witness
    assert (i, j) == (0, 1)
    # both zeros of a chain into bad's zero at 2; the witness is the first
    assert z0 in (Exact.from_rational(0), Exact.from_rational(1))


# -- degree identities on the chain corpus -----------------------------------


def test_tower_plus_radical_degree_identity():
    rng = random.Random(19)
    for _ in range(300):
        f = gen_chain_poly(rng, max_chains=4, max_length=4)
        p = f.expand()
        assert p.degree == gcd_tower_euclid(p, 1).degree + rad_delta(f).degree


def test_generalized_degree_identity():
    rng = random.Random(23)
    for _ in range(100):
        f = gen_chain_poly(rng, max_chains=3, max_length=4)
        for n in range(1, 6):
            assert f.degree - gcd_tower_closed(f, n).degree == rad_delta_q(
                f, n
            ).degree


def test_radical_degree_proposition():
    rng = random.Random(29)
    for _ in range(300):
        f = gen_chain_poly(rng, max_chains=4, max_length=4)
        assert rad_delta(f).degree == rad_kappa(f, 1).degree
    # the polynomials themselves may differ even though degrees agree
    assert rad_delta(CASCADE) != rad_kappa(CASCADE, 1)


def test_subadditivity_and_primality_equality():
    rng = random.Random(31)
    for _ in range(200):
        p = gen_chain_poly(rng, max_chains=3, max_length=3)
        q = gen_chain_poly(rng, max_chains=3, max_length=3)
        lhs = rad_delta(p.times(q)).degree
        rhs = rad_delta(p).degree + rad_delta(q).degree
        assert lhs <= rhs
        if is_shifting_prime(p, q):
            assert lhs == rhs


def test_truncation_degree_bound():
    rng = random.Random(37)
    for _ in range(200):
        f = gen_chain_poly(rng, max_chains=3, max_length=4)
        q = rng.randint(1, 5)
        assert rad_delta_q(f, q).degree <= q * rad_delta(f).degree


def test_height_drop_under_delta():
    rng = random.Random(41)
    for _ in range(200):
        f = gen_chain_poly(rng, max_chains=3, max_length=4)
        p = f.expand()
        z0 = f.roots[rng.randrange(len(f.roots))][0]
        n = shifting_zero_height(p, z0)
        if n >= 1 and p.degree >= 1:
            assert shifting_zero_height(delta(p), z0) == n - 1


def test_rad_delta_scaling_invariance():
    rng = random.Random(43)
    for _ in range(50):
        f = gen_chain_poly(rng, max_chains=3, max_length=3)
        scaled = FactoredPoly(f.lead * Fraction(-7, 3), f.roots)
        assert rad_delta(scaled) == rad_delta(f)


# -- numeric backend ----------------------------------------------------------


def nroot(x, prec=128):
    return Exact.from_rational(Fraction(x)).to_numeric(prec)


def test_numeric_chains():
    """Chains are computed exactly and printed converted; numeric roots are
    refused when the input is built."""
    with pytest.raises(BackendMismatchError):
        FactoredPoly(nroot(1), [(nroot(0), 2), (nroot(1), 1), (nroot(2), 1)])
    _, result = run_command("chains", ["roots(1; 0:2, 1:1, 2:1)"], {}, Options("numeric", 128))
    zero = nroot(0).text()
    assert result == {"lead": nroot(1).text(), "chains": [[zero, 3], [zero, 1]]}


def test_numeric_common_shifting_divisors():
    """Divisor base points are exact, printed converted; numeric roots are
    refused when the input is built."""
    with pytest.raises(BackendMismatchError):
        FactoredPoly(1, [(nroot(0), 1), (nroot(1), 1), (nroot(2), 1)])
    numeric = Options("numeric", 128)
    _, result = run_command("shifting-prime", ["ff(z, 3)", "ff(z - 2, 3)"], {}, numeric)
    assert result == {"shifting_prime": False, "divisors": [nroot(k).text() for k in range(3)]}
    _, result = run_command("shifting-prime", ["ff(z, 3)", "z - 5/2"], {}, numeric)
    assert result == {"shifting_prime": True, "divisors": []}


def test_numeric_divisor_base_on_a_tie_is_the_smaller_text():
    """Exact roots never tie: a root 1e-60 from 0 is in a class of its own,
    so it shares no divisor with a chain through 0."""
    eps = Fraction(1, 10**60)
    g = FactoredPoly(1, [(0, 1), (1, 1)])
    for near in (eps, -eps):
        f = FactoredPoly(1, [(near, 1)])
        assert common_shifting_divisors(f, g) == common_shifting_divisors(g, f) == []
    assert [d.text() for d in common_shifting_divisors(FactoredPoly(1, [(-1, 1)]), g)] == ["-1/1"]


def test_height_runs_end_within_the_degree_and_numeric_points_are_refused():
    """Heights are exact: a run of zeros ends within the degree, and a
    numeric point is refused by both height functions."""
    quadratic = Poly([Fraction(-1, 1000), 0, 1])
    cubic = falling_power(Z, 3)
    for height in (shifting_zero_height, shifting_zero_height_via_delta):
        assert height(quadratic, 0) == 0 and height(cubic, 0) == 3
        for p in (quadratic, cubic):
            with pytest.raises(BackendMismatchError):
                height(p, Exact.from_rational(0).to_numeric(128))


def test_numeric_ambiguous_classification():
    """Root differences are decided exactly: 3e-10 off an integer is not an
    integer, at any distance; numeric roots are refused."""
    eps = Fraction(3, 10**10)
    pair = FactoredPoly(1, [(0, 1), (1 + eps, 1)])
    assert len(chain_decomposition(pair).chains) == 2
    with pytest.raises(BackendMismatchError):
        FactoredPoly(nroot(1), [(nroot(0), 1), (nroot(1 + eps), 1)])


def test_ambiguity_message_prints_tolerances_below_the_smallest_float():
    """integer_offset is exact at any distance, below the smallest float too."""
    tol = Fraction(1, 10**400)  # float(tol) == 0.0
    one = Exact.from_rational(1)
    assert integer_offset(one + 3 * tol, one) is None
    assert integer_offset(one + 7, one) == 7
    assert integer_offset(one - 7 + S2, one + S2) == -7


def test_radicals_from_representative_ints_match_the_root_sums():
    """_radical builds each factor z - rep - o from the representative's ints
    (offset_product); the oracle forms each root rep + o as an Exact sum and
    multiplies one linear factor at a time (``linear_factors``), for any
    order rule, zero orders too."""
    rng = random.Random(151)
    orders = [
        lambda m, o: m[o],
        lambda m, o: (3 * o + m[o]) % 3,
        lambda m, o: m[o] - min(m[o], m.get(o - 1, 0)),
    ]
    for _ in range(60):
        roots = []
        for _ in range(rng.randint(1, 4)):
            rep = rand_exact(rng)
            roots += [(rep + o, rng.randint(1, 3)) for o in rng.sample(range(-2, 6), rng.randint(1, 4))]
        f = FactoredPoly(rand_exact(rng) or 1, roots)
        classes = shift_classes(f)
        for order in orders:
            pairs = [(c.representative + o, order(c.members, o)) for c in classes for o in c.members]
            assert shiftcalc._radical(f, order) == helpers.linear_factors(pairs)
