"""The four workloads: seeded inputs, the diffrad calls of one op, and the
independent check of each op's result.

Every op runs diffrad through module attributes (`lib.shiftcalc.rad_delta`,
...) looked up at call time, so the traced run sees every call.  Checks use
`oracles`, never a second diffrad route.
"""

from __future__ import annotations

import functools
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracles as O
from oracles import Rad


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    tier: str = ""
    inputs: object = None  # what the op was built from, for tests and messages


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable  # (lib, seed) -> list[Op]; op i of the run is ops[i % len]
    warmup: int  # ops run during set-up, before timing
    trace_ops: int  # ops replayed by each pass of a traced run


# -- reading diffrad values ----------------------------------------------------


def rad_of(scalar) -> Rad:
    return Rad(scalar.terms)


def same_poly(p, expected: list) -> bool:
    coeffs = p.coeffs
    return len(coeffs) == len(expected) and all(
        rad_of(c) == e for c, e in zip(coeffs, expected)
    )


def root_counter(f) -> Counter:
    return Counter({O.root_key(rad_of(r)): m for r, m in f.roots})


def expanded(f) -> list:
    roots = [r for r, m in root_counter(f).items() for _ in range(m)]
    return O.linear_product(_lead(f), roots)


def _lead(f):
    lead = rad_of(f.lead)
    q = lead.rational()
    return lead if q is None else q


def to_exact(lib, value):
    return lib.scalar.Exact(Rad.lift(value).terms)


def to_poly(lib, coeffs: list):
    return lib.poly.Poly([to_exact(lib, c) for c in coeffs])


def to_factored(lib, lead, roots: list):
    return lib.poly.FactoredPoly(
        to_exact(lib, lead), [(to_exact(lib, O.root_value(r)), 1) for r in roots]
    )


# -- paper-replay --------------------------------------------------------------

PAPER_FIXTURES = (
    "sec2.height-cascade-at-0",
    "sec2.height-cascade-at-1",
    "sec2.height-cascade-at-2",
    "sec2.height-multiple-roots-at-0",
    "sec2.height-multiple-roots-at-1",
    "sec3.chains-nine-zeros",
    "sec3.chains-quartic",
    "sec3.common-shifting-divisors",
    "sec3.not-shifting-prime-pair",
    "sec3.rad-delta-nine-zeros",
    "sec3.rad-delta-quartic",
    "sec3.rad-delta-sharp-product",
    "sec3.rad-kappa-nine-zeros",
    "sec3.rad-kappa-quartic",
    "sec3.sharp-quadratic-triple",
    "sec4.sharp-quintic-tuple",
    "sec4.truncated-radical-single-chain",
    "sec5.falling-cube-negative-control",
    "sec5.falling-square-identity",
    "sec5.unit-equation-cubic-triad",
    "sec5.unit-equation-linear-triad",
    "sec5.unit-equation-quadratic-triad",
)


def build_paper_replay(lib, seed: int) -> list[Op]:
    by_name = {case["name"]: case for case in lib.cli.load_fixtures()}
    missing = [n for n in PAPER_FIXTURES if n not in by_name]
    if missing:
        raise RuntimeError(f"bundled fixtures missing: {missing}")
    cases = [by_name[n] for n in PAPER_FIXTURES]
    random.Random(seed).shuffle(cases)

    def run():
        return [lib.cli.run_fixture(case) for case in cases]

    def check(results):
        return len(results) == len(cases) and all(
            ok and O.subset_match(case["expected"], result)
            for case, (ok, result) in zip(cases, results)
        )

    return [Op("round", run, check, inputs=[case["name"] for case in cases])]


# -- chain-corpus ----------------------------------------------------------------

CHAIN_TIERS = {
    "chain-small": dict(max_chains=6, max_length=5),
    "chain-large": dict(max_chains=12, max_length=6),
}
CHAIN_SLOTS = ("chain-small", "mason-2", "chain-large", "mason-3")
CHAIN_POOL = 400
# The degrees of the chain ops (exactly for the small tier, in buckets of 4
# for the large one, where exact matching would cost too many draws) and
# the Mason instance seeds come from one fixed reference stream, so every
# seed gets the same size profile and the same Mason instances, and --seed
# picks the chain roots and leads.  Otherwise a seed's few largest products
# and its Mason instances would set its throughput: the rejection sampler's
# cost per instance is heavy-tailed, and a seed's 100 instances moved
# throughput by 10%.
DEGREE_REFERENCE_SEED = 20210113
DEGREE_BUCKET = {"chain-small": 1, "chain-large": 4}


def build_chain_corpus(lib, seed: int) -> list[Op]:
    gen = lib.theorems.gen_chain_poly
    rng = random.Random(seed)
    reference = random.Random(DEGREE_REFERENCE_SEED)
    ops = []
    for i in range(CHAIN_POOL):
        kind = CHAIN_SLOTS[i % len(CHAIN_SLOTS)]
        if kind in CHAIN_TIERS:
            tier = CHAIN_TIERS[kind]
            bucket = gen(reference, **tier).degree // DEGREE_BUCKET[kind]
            f = gen(rng, **tier)
            while f.degree // DEGREE_BUCKET[kind] != bucket:
                f = gen(rng, **tier)
            ops.append(chain_op(lib, kind, f))
        else:
            ops.append(mason_op(lib, int(kind[-1]), reference.randrange(2**31)))
    return ops


def chain_op(lib, kind: str, f) -> Op:
    sc = lib.shiftcalc

    def run():
        return (
            f.expand(),
            sc.chain_decomposition(f),
            sc.rad_delta(f),
            sc.rad_kappa(f, 1),
            sc.rad_delta_q(f, 2),
            [sc.gcd_tower(f, n) for n in (1, 2, 3)],
        )

    def check(result):
        expand, dec, rad, kappa, rad_q, towers = result
        roots = root_counter(f)
        got_chains = Counter((O.root_key(rad_of(s)), n) for s, n in dec.chains)
        return (
            same_poly(expand, expanded(f))
            and got_chains == Counter(O.chains(roots))
            and rad_of(dec.lead) == rad_of(f.lead)
            and same_poly(rad, O.linear_product(1, O.rad_delta_roots(roots)))
            and same_poly(kappa, O.linear_product(1, O.rad_kappa_roots(roots, 1)))
            and same_poly(rad_q, O.linear_product(1, O.rad_delta_q_roots(roots, 2)))
            and all(
                same_poly(t, O.linear_product(1, O.gcd_tower_roots(roots, n)))
                for n, t in zip((1, 2, 3), towers)
            )
        )

    return Op(kind, run, check, inputs=f)


def mason_op(lib, m: int, seed: int) -> Op:
    th = lib.theorems

    def run():
        fs = th.gen_mason_instance(m, seed)
        if m == 2:
            return fs, [th.mason_classical(*fs), th.mason_delta(*fs)]
        return fs, [th.mason_delta_ext(fs)]

    def check(result):
        fs, reports = result
        got = [r.to_json_dict() for r in reports]
        for r in got:
            r["hypotheses"] = [(h["name"], h["ok"]) for h in r["hypotheses"]]
        return got == mason_expected(fs)

    return Op(f"mason-{m}", run, check, inputs=(m, seed))


def mason_expected(fs) -> list[dict]:
    """The reports mason_classical/mason_delta (m = 2) or mason_delta_ext
    (m >= 3) must give on fs, computed from the roots alone."""
    m = len(fs) - 1
    roots = [root_counter(f) for f in fs]
    merged = sum(roots, Counter())
    total = []
    for f in fs[:-1]:
        total = O.poly_add(total, expanded(f))
    equation = total == O.trim([Rad.lift(c) for c in expanded(fs[-1])])
    lhs = max(f.degree for f in fs)
    nonconstant = lhs >= 1
    shifting_prime = not any(
        O.shifting_divisor_bases(roots[i], roots[j])
        for i in range(len(fs))
        for j in range(i + 1, len(fs))
    )
    n_chains = len(O.chains(merged))

    def report(kind, hyps, rhs, **extra):
        slack = rhs - lhs
        applicable = equation and all(ok for _, ok in hyps)
        return {
            "kind": kind,
            "equation_holds": equation,
            "hypotheses": list(hyps),
            "lhs": lhs,
            "rhs": rhs,
            "slack": slack,
            "sharp": slack == 0,
            "counterexample": applicable and slack < 0,
            "applicable": applicable,
            **extra,
        }

    if m == 2:
        coprime = not any(
            set(roots[i]) & set(roots[j]) for i in range(3) for j in range(i + 1, 3)
        )
        rhs_kappa = len(O.rad_kappa_roots(merged, 1)) - 1
        return [
            report(
                "classical",
                [("relatively_prime", coprime), ("not_all_constant", nonconstant)],
                len(merged) - 1,
            ),
            report(
                "delta",
                [("pairwise_shifting_prime", shifting_prime), ("not_all_constant", nonconstant)],
                n_chains - 1,
                rhs_kappa=rhs_kappa,
            ),
        ]
    penalty = m * (m - 1) // 2
    min_deg = min(f.degree for f in fs)
    parts = [expanded(f) for f in fs[:-1]]
    independent = O.rank(parts) == len(parts)
    rhs = len(O.rad_delta_q_roots(merged, m - 1)) - penalty
    rhs_weak = (m - 1) * n_chains - penalty
    return [
        report(
            "delta_ext",
            [
                ("pairwise_shifting_prime", shifting_prime),
                ("min_degree", min_deg >= m - 1),
                ("linear_independence", independent),
            ],
            rhs,
            rhs_weak=rhs_weak,
            slack_weak=rhs_weak - lhs,
        )
    ]


# -- wide-roots --------------------------------------------------------------------

WIDE_TIERS = (16, 32, 64)
WIDE_POOL = 3 * 40
WIDE_LEADS = (1, -1, 2, -3, Fraction(3, 2), Fraction(-5, 4))


# Chain lengths cycle through 3, 2, 1: gcd(P, delta P) then has about half
# the degree of P, so the remainder sequence is long and the gcd dominates.
# Denominators cycle through 3..31 (2 leaves room for one residue only) and
# numerators are 31..60 in size, so every op of a tier has the same chain
# structure and about the same coefficient sizes; the seed picks the
# numerators and their signs.
WIDE_LENGTHS = (3, 2, 1)
WIDE_DENOMINATORS = range(3, 32)


def wide_chains(rng: random.Random, degree: int) -> list[tuple[Fraction, int]]:
    """Chains (start, length) of total length `degree` whose starts have
    pairwise distinct residues mod 1, so no two chains share a shift class.
    Starts are reduced fractions with numerators 31..60 in size."""
    out, residues, left = [], set(), degree
    while left:
        j = len(out)
        n = min(left, WIDE_LENGTHS[j % len(WIDE_LENGTHS)])
        den = WIDE_DENOMINATORS[j % len(WIDE_DENOMINATORS)]
        while True:
            num = rng.choice((-1, 1)) * rng.randint(31, 60)
            residue = Fraction(num % den, den)
            if math.gcd(num, den) == 1 and residue not in residues:
                break
        residues.add(residue)
        out.append((Fraction(num, den), n))
        left -= n
    return out


def build_wide_roots(lib, seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for i in range(WIDE_POOL):
        degree = WIDE_TIERS[i % len(WIDE_TIERS)]
        chains = wide_chains(rng, degree)
        lead = Fraction(rng.choice(WIDE_LEADS))
        roots = [O.root_key(s + j) for s, n in chains for j in range(n)]
        ops.append(wide_op(lib, degree, chains, lead, roots, to_factored(lib, lead, roots)))
    return ops


def wide_op(lib, degree, chains, lead, roots, f) -> Op:
    sc = lib.shiftcalc

    def run():
        return f.expand(), sc.rad_delta(f), sc.rad_kappa(f, 1), sc.gcd_tower(f, 1)

    def check(result):
        expand, rad, kappa, tower = result
        starts = [O.root_key(s) for s, _ in chains]
        tops = [O.root_key(s + n - 1) for s, n in chains]
        tower_roots = [O.root_key(s + j) for s, n in chains for j in range(n - 1)]
        return (
            same_poly(expand, O.linear_product(lead, roots))
            and same_poly(rad, O.linear_product(1, starts))
            and same_poly(kappa, O.linear_product(1, tops))
            and same_poly(tower, O.linear_product(1, tower_roots))
        )

    return Op(f"d{degree}", run, check, tier=f"d{degree}", inputs=(chains, lead))


# -- radical-field ---------------------------------------------------------------

FIELD_GENERATORS = (
    Rad({O.I_KEY: 1}),
    Rad.sqrt_prime_product([2]),
    Rad.sqrt_prime_product([3]),
    Rad.sqrt_prime_product([5]),
)
RADICAL_POOL = 4 * 60
SMALL_COEFFS = (-5, -3, -2, -1, 1, 2, 3, 4)


def random_element(rng: random.Random) -> Rad:
    """q + s g with small nonzero rationals q, s and g one of i, sqrt 2,
    sqrt 3, sqrt 5: every element has two terms, so op costs vary little."""
    q, s = (Fraction(rng.choice(SMALL_COEFFS), rng.randint(1, 3)) for _ in range(2))
    return rng.choice(FIELD_GENERATORS) * s + q


def distinct_elements(rng: random.Random, count: int) -> list[Rad]:
    out: list[Rad] = []
    while len(out) < count:
        x = random_element(rng)
        if x not in out:
            out.append(x)
    return out


def _s(*primes, i=False, c=1) -> Rad:
    return Rad.sqrt_prime_product(primes, imaginary=i, coeff=c)


def _q(value) -> Rad:
    return Rad.of(value)


# Section 5 instances in factored form, roots by the quadratic formula.
# falling-square identity: z^2, -(1/2) i (sqrt2 z^2 + 2z - sqrt2),
# -(1/2) (sqrt2 z^2 - 2z - sqrt2).
_SQUARE_TRIAD = (
    (_q(1), [_q(0), _q(0)]),
    (_s(2, i=True, c=Fraction(-1, 2)), [_s(2, c=Fraction(-1, 2)) + _s(2, 3, c=Fraction(1, 2)), _s(2, c=Fraction(-1, 2)) - _s(2, 3, c=Fraction(1, 2))]),
    (_s(2, c=Fraction(-1, 2)), [_s(2, c=Fraction(1, 2)) + _s(2, 3, c=Fraction(1, 2)), _s(2, c=Fraction(1, 2)) - _s(2, 3, c=Fraction(1, 2))]),
)
# unit linear triad: sqrt2/2 z + 1, z/2 + (sqrt2 - sqrt6)/2,
# i sqrt3/2 z + i (sqrt6 - sqrt2)/2.
_LINEAR_TRIAD = (
    (_s(2, c=Fraction(1, 2)), [_s(2, c=-1)]),
    (_q(Fraction(1, 2)), [_s(2, 3) - _s(2)]),
    (_s(3, i=True, c=Fraction(1, 2)), [_s(2, 3, c=Fraction(1, 3)) - _s(2)]),
)
# unit quadratic triad: sqrt2/48 (24z^2 + 48z - 29), (24z^2 - 48z - 61)/48,
# i sqrt3/48 (24z^2 + 16z + 3).
_QUADRATIC_TRIAD = (
    (_s(2, c=Fraction(1, 2)), [_q(-1) + _s(2, 3, 53, c=Fraction(1, 12)), _q(-1) - _s(2, 3, 53, c=Fraction(1, 12))]),
    (_q(Fraction(1, 2)), [_q(1) + _s(2, 3, 5, 17, c=Fraction(1, 12)), _q(1) - _s(2, 3, 5, 17, c=Fraction(1, 12))]),
    (_s(3, i=True, c=Fraction(1, 2)), [_q(Fraction(-1, 3)) + _s(2, i=True, c=Fraction(1, 12)), _q(Fraction(-1, 3)) - _s(2, i=True, c=Fraction(1, 12))]),
)
# (name, triad, exponent n, rhs_one, hand-written expected report fragment);
# the expectations hold for every shift z -> z - t of the whole triad.
FERMAT_CASES = (
    ("falling-square", _SQUARE_TRIAD, 2, False,
     {"equation_holds": True, "hypotheses_ok": True, "n": 2, "bound": "2/1", "within_bound": True}),
    ("falling-cube-control", _SQUARE_TRIAD, 3, False, {"equation_holds": False}),
    ("unit-linear", _LINEAR_TRIAD, 2, True,
     {"equation_holds": True, "hypotheses_ok": True, "bound": "5/1", "within_bound": True}),
    ("unit-quadratic", _QUADRATIC_TRIAD, 2, True,
     {"equation_holds": True, "hypotheses_ok": True, "bound": "5/1", "within_bound": True}),
)


def fermat_inputs(lib, triad, t: Fraction) -> list:
    return [
        to_factored(lib, lead, [O.root_key(r + t) for r in roots])
        for lead, roots in triad
    ]


def build_radical_field(lib, seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for i in range(RADICAL_POOL):
        # one op in four has a 4x4 Casoratian; the triads rotate independently
        fermat = FERMAT_CASES[(i + i // 4) % len(FERMAT_CASES)]
        ops.append(radical_op(lib, rng, size=4 if i % 4 == 3 else 3, fermat=fermat))
    return ops


def radical_op(lib, rng: random.Random, size: int, fermat) -> Op:
    P, dc = lib.poly, lib.diffcalc
    # product and shift
    a = [random_element(rng) for _ in range(rng.randint(3, 5))]
    b = [random_element(rng) for _ in range(rng.randint(3, 5))]
    k = Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 2))
    pa, pb = to_poly(lib, a), to_poly(lib, b)
    # gcd(a c, b c) with a, b sharing no root
    roots = distinct_elements(rng, 6)
    ga, gb = roots[0:2], roots[2:4]
    gc = roots[4:6]
    ac = O.linear_product(random_element(rng), [O.root_key(r) for r in ga + gc])
    bc = O.linear_product(random_element(rng), [O.root_key(r) for r in gb + gc])
    p_ac, p_bc = to_poly(lib, ac), to_poly(lib, bc)
    # Casoratian of f_i = sum_k A[i][k] z^(k falling): det A * prod k!
    A = [[random_element(rng) for _ in range(size)] for _ in range(size)]
    basis = [O.falling_basis(k) for k in range(size)]
    fs = []
    for row in A:
        f = []
        for coeff, g in zip(row, basis):
            f = O.poly_add(f, O.poly_scale(g, coeff))
        fs.append(to_poly(lib, f))
    # falling-power identity, shifted by t
    name, triad, n, rhs_one, fermat_expected = fermat
    t = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
    triad_inputs = fermat_inputs(lib, triad, t)

    def run():
        if rhs_one:
            report = lib.theorems.fermat_multi_check(triad_inputs, n, rhs_one=True)
        else:
            report = lib.theorems.fermat_check(*triad_inputs, n)
        return (
            pa * pb,
            dc.shift(pa, k),
            P.poly_gcd(p_ac, p_bc),
            lib.casorati.casoratian(fs, "delta"),
            lib.casorati.casoratian(fs, "shift"),
            report.to_json_dict(),
        )

    @functools.cache
    def expected():
        factorials = math.prod(math.factorial(j) for j in range(size))
        return (
            O.poly_mul(a, b),
            O.poly_shift(a, k),
            O.linear_product(1, [O.root_key(r) for r in gc]),
            O.trim([O.determinant(A) * factorials]),
        )

    def check(result):
        product, shifted, g, *dets, report = result
        want_product, want_shifted, c_monic, casoratian = expected()
        return (
            same_poly(product, want_product)
            and same_poly(shifted, want_shifted)
            and same_poly(g, c_monic)
            and all(same_poly(d, casoratian) for d in dets)
            and O.subset_match(fermat_expected, report)
        )

    return Op(f"cas{size}-{name}", run, check, inputs=(a, b, k, ga, gb, gc, A, name, t))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper-replay",
            "one op replays the 22 bundled paper fixtures; tiny inputs, so it measures fixed costs",
            build_paper_replay,
            warmup=1,
            trace_ops=10,
        ),
        Workload(
            "chain-corpus",
            "seeded chain products and Mason instances over Q; Poly multiplication and factor dominate",
            build_chain_corpus,
            warmup=4,
            trace_ops=80,
        ),
        Workload(
            "wide-roots",
            "degree 16/32/64 chains with distinct residues and large heights; gcd dominates",
            build_wide_roots,
            warmup=1,
            trace_ops=15,
        ),
        Workload(
            "radical-field",
            "small polynomials over Q(i, sqrt 2, sqrt 3, sqrt 5): multi-key scalars, generic gcd, Casoratians",
            build_radical_field,
            warmup=3,
            trace_ops=30,
        ),
    )
}
