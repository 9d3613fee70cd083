"""Inequality and functional-equation checkers.

Each checker verifies its hypotheses mechanically, evaluates both sides of
the relevant degree inequality, and returns a structured report; hypothesis
failures never abort, they only flag the report, so callers can explain why
a statement does not apply.  A negative slack with all hypotheses satisfied
would contradict the underlying theorem and is surfaced loudly through the
``counterexample`` flag.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import combinations
from typing import Sequence

from . import casorati, diffcalc, shiftcalc
from .errors import RootsUnavailableError, SamplingBudgetError
# poly_gcd is not called here; perfbench's self-test checks that its tracer
# patches this binding too, so the name stays
from .poly import FactoredPoly, Poly, factor, poly_gcd, product  # noqa: F401
from .scalar import Exact, Scalar, as_scalar


@dataclass(frozen=True)
class Hypothesis:
    name: str
    ok: bool
    witness: str = ""

    def to_json_dict(self) -> dict:
        return {"name": self.name, "ok": self.ok, "witness": self.witness}


@dataclass(frozen=True)
class MasonReport:
    """Degree inequality lhs <= rhs; the verdict is derived from the sides."""

    kind: str
    equation_holds: bool
    hypotheses: tuple[Hypothesis, ...]
    lhs: int
    rhs: int
    extra: dict = field(default_factory=dict)

    @property
    def applicable(self) -> bool:
        return self.equation_holds and all(h.ok for h in self.hypotheses)

    @property
    def slack(self) -> int:
        return self.rhs - self.lhs

    @property
    def sharp(self) -> bool:
        return self.slack == 0

    @property
    def counterexample(self) -> bool:
        return self.applicable and self.slack < 0

    @property
    def ok(self) -> bool:
        return self.applicable and not self.counterexample

    def to_json_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "equation_holds": self.equation_holds,
            "hypotheses": [h.to_json_dict() for h in self.hypotheses],
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "sharp": self.sharp,
            "counterexample": self.counterexample,
            "applicable": self.applicable,
        }
        out.update(self.extra)
        return out


@dataclass(frozen=True)
class FermatReport:
    identity_residual: Poly
    equation_holds: bool
    residual_sup: float
    n: int
    m: int
    bound: Fraction
    within_bound: bool
    hypotheses: tuple[Hypothesis, ...]

    @property
    def ok(self) -> bool:
        return (
            self.equation_holds
            and self.within_bound
            and all(h.ok for h in self.hypotheses)
        )

    def to_json_dict(self) -> dict:
        return {
            "equation_holds": self.equation_holds,
            "residual_sup": self.residual_sup,
            "n": self.n,
            "m": self.m,
            "bound": f"{self.bound.numerator}/{self.bound.denominator}",
            "within_bound": self.within_bound,
            "hypotheses": [h.to_json_dict() for h in self.hypotheses],
            "hypotheses_ok": all(h.ok for h in self.hypotheses),
        }


def _max_degree(fs: Sequence[FactoredPoly]) -> int:
    return max(f.degree for f in fs)


def _identity_report(residual: Poly, tol) -> tuple[bool, float]:
    """(holds, coefficient sup); holds when the residual is negligible."""
    return residual.negligible(tol), residual.coeff_sup()


def _sum_equation_holds(parts: Sequence[Poly], total: Poly, tol) -> bool:
    return (sum(parts, Poly()) - total).negligible(tol)


def _shifting_prime_hypothesis(
    fs: Sequence[FactoredPoly], tol=None
) -> Hypothesis:
    ok, witness = shiftcalc.pairwise_shifting_prime(list(fs), tol)
    text = ""
    if not ok:
        i, j, z0 = witness
        text = f"inputs {i} and {j} share the shifting divisor z - ({z0.text()})"
    return Hypothesis("pairwise_shifting_prime", ok, text)


def _relatively_prime_hypothesis(fs: Sequence[FactoredPoly], tol) -> Hypothesis:
    """Pairwise coprimality from the roots: each root r of f_i is paired with
    the first root s of f_j for which r - s is negligible, by default at the
    precision of that pair (for exact roots, r = s).  The witness is the
    monic product of (z - r)^min(m, n) over the paired roots, which for exact
    input is gcd(f_i, f_j).
    """
    for i in range(len(fs)):
        for j in range(i + 1, len(fs)):
            shared = []
            for r, m in fs[i].roots:
                n = next((n for s, n in fs[j].roots if (r - s).negligible(tol)), 0)
                shared += [Poly.linear(r)] * min(m, n)
            if shared:
                g = product(shared).expr_text()
                text = f"inputs {i} and {j} share the factor {g}"
                return Hypothesis("relatively_prime", False, text)
    return Hypothesis("relatively_prime", True, "")


def mason_classical(
    a: FactoredPoly, b: FactoredPoly, c: FactoredPoly, tol=None
) -> MasonReport:
    """Classical degree inequality for relatively prime a + b = c."""
    equation = _sum_equation_holds([a.expand(), b.expand()], c.expand(), tol)
    hyps = [
        _relatively_prime_hypothesis([a, b, c], tol),
        Hypothesis("not_all_constant", _max_degree([a, b, c]) >= 1),
    ]
    return MasonReport(
        kind="classical",
        equation_holds=equation,
        hypotheses=tuple(hyps),
        lhs=_max_degree([a, b, c]),
        rhs=len(a.times(b).times(c).roots) - 1,  # deg rad(abc) - 1
    )


def mason_delta(
    a: FactoredPoly, b: FactoredPoly, c: FactoredPoly, tol=None
) -> MasonReport:
    """Difference-radical analogue for shifting-prime a + b = c."""
    equation = _sum_equation_holds([a.expand(), b.expand()], c.expand(), tol)
    hyps = [
        _shifting_prime_hypothesis([a, b, c], tol),
        Hypothesis("not_all_constant", _max_degree([a, b, c]) >= 1),
    ]
    product = a.times(b).times(c)
    rhs = shiftcalc.rad_delta(product, tol).degree - 1
    rhs_kappa = shiftcalc.rad_kappa(product, 1, tol).degree - 1
    if rhs != rhs_kappa:  # pragma: no cover - degree identity guard
        raise ArithmeticError("radical degree routes disagree")
    return MasonReport(
        kind="delta",
        equation_holds=equation,
        hypotheses=tuple(hyps),
        lhs=_max_degree([a, b, c]),
        rhs=rhs,
        extra={"rhs_kappa": rhs_kappa},
    )


def mason_delta_ext(fs: Sequence[FactoredPoly], tol=None) -> MasonReport:
    """Extended inequality for f_1 + ... + f_m = f_{m+1}, m >= 2.

    The strong side uses the truncated radical at level m-1; the weaker
    closed form (m-1) * deg rad of the product is reported alongside it.
    """
    if len(fs) < 3:
        raise ValueError("need at least three polynomials (m >= 2)")
    m = len(fs) - 1
    parts = [f.expand() for f in fs[:-1]]
    equation = _sum_equation_holds(parts, fs[-1].expand(), tol)
    min_deg = min(f.degree for f in fs)
    indep = casorati.linearly_independent(parts, tol)
    hyps = [
        _shifting_prime_hypothesis(fs, tol),
        Hypothesis(
            "min_degree",
            min_deg >= m - 1,
            "" if min_deg >= m - 1 else f"min degree {min_deg} < {m - 1}",
        ),
        Hypothesis("linear_independence", indep),
    ]

    product = reduce(FactoredPoly.times, fs)
    lhs = _max_degree(fs)
    penalty = m * (m - 1) // 2
    rhs = shiftcalc.rad_delta_q(product, m - 1, tol).degree - penalty
    rhs_weak = (m - 1) * shiftcalc.rad_delta(product, tol).degree - penalty
    if rhs > rhs_weak:  # pragma: no cover - truncation bound guard
        raise ArithmeticError("truncated radical exceeded its bound")
    return MasonReport(
        kind="delta_ext",
        equation_holds=equation,
        hypotheses=tuple(hyps),
        lhs=lhs,
        rhs=rhs,
        extra={"rhs_weak": rhs_weak, "slack_weak": rhs_weak - lhs},
    )


def fermat_check(
    a: FactoredPoly, b: FactoredPoly, c: FactoredPoly, n: int, tol=None
) -> FermatReport:
    """Check a^(falling n) + b^(falling n) = c^(falling n) and the n-bound.

    The exponent bound is 2, dropping to 1 when any of a, b, c is constant.
    Shifting primality of the falling powers is reported per pair, so both
    the pairwise and the joint readings of the hypothesis are inspectable.
    """
    if n < 1:
        raise ValueError("exponent n must be >= 1")
    powers = [diffcalc.falling_power(f.expand(), n) for f in (a, b, c)]
    residual = powers[0] + powers[1] - powers[2]
    equation, sup = _identity_report(residual, tol)

    classes = [
        shiftcalc.shift_classes(diffcalc.falling_power_factored(f, n), tol)
        for f in (a, b, c)
    ]
    hyps = [Hypothesis("not_all_constant", _max_degree([a, b, c]) >= 1)]
    labels = ["a", "b", "c"]
    for i, j in combinations(range(3), 2):
        divisors = shiftcalc._common_divisors(classes[i], classes[j], tol)
        hyps.append(
            Hypothesis(
                f"shifting_prime_{labels[i]}{labels[j]}",
                not divisors,
                ""
                if not divisors
                else f"common shifting divisor z - ({divisors[0].text()})",
            )
        )

    bound = Fraction(2) if min(f.degree for f in (a, b, c)) >= 1 else Fraction(1)
    return FermatReport(
        identity_residual=residual,
        equation_holds=equation,
        residual_sup=sup,
        n=n,
        m=2,
        bound=bound,
        within_bound=Fraction(n) <= bound,
        hypotheses=tuple(hyps),
    )


def fermat_multi_check(
    fs: Sequence[FactoredPoly],
    n: int,
    rhs_one: bool = False,
    tol=None,
) -> FermatReport:
    """Check sum of falling n-th powers against f_{m+1}^(falling n) or 1.

    With rhs_one the last entry of fs is still a left-hand term and the
    right side is the constant 1; the exponent bound becomes the integer
    m^2 - m - 1, otherwise the exact rational m^2 - 1 - m(m-1)/(2 max deg).
    """
    if n < 1:
        raise ValueError("exponent n must be >= 1")
    m = len(fs) if rhs_one else len(fs) - 1
    if m < 2:
        raise ValueError("need m >= 2 terms")

    powers = [diffcalc.falling_power(f.expand(), n) for f in fs]
    left = powers if rhs_one else powers[:-1]
    one = Poly.constant(as_scalar(1, fs[0].lead))
    residual = sum(left, Poly()) - (one if rhs_one else powers[-1])
    equation, sup = _identity_report(residual, tol)

    power_factored = [diffcalc.falling_power_factored(f, n) for f in fs]
    hyps = [
        Hypothesis(
            "nonconstant",
            min(f.degree for f in fs) >= 1,
            "",
        ),
        _shifting_prime_hypothesis(power_factored, tol),
    ]
    hyps.append(
        Hypothesis("linear_independence", casorati.linearly_independent(left, tol))
    )

    maxdeg = _max_degree(fs)
    if rhs_one:
        bound = Fraction(m * m - m - 1)
    else:
        bound = Fraction(m * m - 1) - Fraction(m * (m - 1), 2 * max(maxdeg, 1))
    return FermatReport(
        identity_residual=residual,
        equation_holds=equation,
        residual_sup=sup,
        n=n,
        m=m,
        bound=bound,
        within_bound=Fraction(n) <= bound,
        hypotheses=tuple(hyps),
    )


# -- constructed instances ----------------------------------------------------

# Resolvent whose roots s parameterize degree-3 solutions of the three-term
# unit equation f1^(falling 3) + f2^(falling 3) + f3^(falling 3) = 1.
UNIT_CUBIC_RESOLVENT = (1, 0, 0, 0, 0, 0, -144, 0, 0, 108)


def unit_cubic_resolvent_roots(prec: int = 256) -> list:
    """All nine roots of the resolvent s^9 - 144 s^3 + 108, as numeric
    scalars at `prec` bits, in closed form.

    In u = s^3 the resolvent is the cubic u^3 - 144 u + 108, which has three
    real roots; Viete's trigonometric form gives them as
    u_k = m cos(theta - 2 pi k / 3), with m = 2 sqrt(48) and
    theta = acos(-324 / (144 m)) / 3. Each u_k has one real cube root
    r = sign(u) |u|^(1/3); its other two are r w and r w-bar, where
    w = -1/2 + (sqrt(3)/2) i. Everything is computed at prec + 64 bits.

    Order: the three real roots ascending (index 0 is the smallest real
    root, -2.3120197361732771687...), then r w and r w-bar for each real r
    in that same order.
    """
    import mpmath

    from .scalar import Numeric

    with mpmath.mp.workprec(prec + 64):
        m = 2 * mpmath.sqrt(48)
        theta = mpmath.acos(-324 / (144 * m)) / 3
        third_turn = 2 * mpmath.pi / 3
        us = [m * mpmath.cos(theta - third_turn * k) for k in range(3)]
        reals = sorted(mpmath.sign(u) * mpmath.cbrt(abs(u)) for u in us)
        half_sqrt3 = mpmath.sqrt(3) / 2
        parts = [(r, mpmath.mpf(0)) for r in reals]
        for r in reals:
            parts += [(-r / 2, r * half_sqrt3), (-r / 2, -r * half_sqrt3)]
    return [Numeric(re._mpf_, im._mpf_, prec) for re, im in parts]


def unit_cubic_triad(s, t=1) -> list[FactoredPoly]:
    """Two cubics and a quadratic summing (in falling cubes) to 1, from
    their roots in closed form.

    s must be a root of UNIT_CUBIC_RESOLVENT and t any nonzero scalar; the
    returned factored polynomials feed fermat_multi_check(..., n=3,
    rhs_one=True) on the numeric backend.  With b = -t / (2 s):

    - p3 = s (z - b - 1)(z - b + 1), so its roots are b +- 1;
    - p1(b + w) = w^3 - 3 w - s^3 / 6 (lead 1) and p2 = -p1 - s^3 / 3
      (lead -1), so their roots are b + w where w^3 - 3 w = 2 c, with
      c = s^3 / 12 for p1 and c = -s^3 / 12 for p2.

    That cubic is solved as w_k = u omega^k + (u omega^k)^-1, k = 0, 1, 2,
    with omega = -1/2 + (sqrt(3)/2) i and u^3 = c + sqrt(c^2 - 1), so u != 0.
    The three w_k are distinct, as s^3 = +-12 is not a root of
    u^3 - 144 u + 108.  Everything is computed at 64 bits above s.prec.
    """
    import mpmath

    from .scalar import Numeric

    if not isinstance(s, Numeric):
        raise ValueError("s must be a numeric scalar (a resolvent root)")
    if not isinstance(t, Numeric):
        t = Numeric.from_rational(Fraction(t), s.prec)
    if not t:
        raise ValueError("t must be nonzero")
    with mpmath.mp.workprec(s.prec + 64):
        s3, b = s.to_mpc() ** 3, -t.to_mpc() / (2 * s.to_mpc())
        omega = mpmath.mpc(-0.5, mpmath.sqrt(3) / 2)
        roots = []
        for c in (s3 / 12, -s3 / 12):
            us = [mpmath.cbrt(c + mpmath.sqrt(c * c - 1)) * omega**k for k in range(3)]
            roots.append([b + u + 1 / u for u in us])
        roots.append([b + 1, b - 1])
    return [
        FactoredPoly(as_scalar(lead, s), [(Numeric.from_mpc(r, s.prec), 1) for r in rs])
        for lead, rs in zip((1, -1, s), roots)
    ]


# -- random instance generation ---------------------------------------------

DEFAULT_GRID_NUMERATORS = tuple(range(-4, 5))
DEFAULT_GRID_DENOMINATORS = (1, 2)
DEFAULT_LEADS = (1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-1, 2))


def _grid_rational(rng: random.Random) -> Fraction:
    return Fraction(
        rng.choice(DEFAULT_GRID_NUMERATORS), rng.choice(DEFAULT_GRID_DENOMINATORS)
    )


def _grid_lead(rng: random.Random) -> Exact:
    return Exact.from_rational(rng.choice(DEFAULT_LEADS))


def gen_chain_poly(
    rng: random.Random, max_chains: int = 6, max_length: int = 5
) -> FactoredPoly:
    """Random product of falling-factorial chains with grid-rational starts
    and a lead from DEFAULT_LEADS."""
    count = rng.randint(1, max_chains)
    roots: list[tuple[Scalar, int]] = []
    for _ in range(count):
        start = _grid_rational(rng)
        length = rng.randint(1, max_length)
        for j in range(length):
            roots.append((Exact.from_rational(start + j), 1))
    return FactoredPoly(_grid_lead(rng), roots)


def gen_factored_poly(
    rng: random.Random, min_degree: int, max_degree: int
) -> FactoredPoly:
    """Random lead from DEFAULT_LEADS times min_degree to max_degree linear
    factors with grid-rational roots, repeats allowed."""
    degree = rng.randint(min_degree, max_degree)
    roots = [(Exact.from_rational(_grid_rational(rng)), 1) for _ in range(degree)]
    return FactoredPoly(_grid_lead(rng), roots)


def gen_mason_instance(
    m: int, seed: int, max_degree: int = 3, max_attempts: int = 5000
) -> list[FactoredPoly]:
    """Rejection-sample [f_1, ..., f_m, f_{m+1}] with f_1+...+f_m = f_{m+1}.

    Every returned tuple satisfies the hypotheses of the matching degree
    inequality (shifting primality, and for m >= 3 the minimum-degree and
    linear-independence conditions); deterministic for a fixed seed.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    rng = random.Random(seed)
    min_deg = max(1, m - 1)
    for attempt in range(1, max_attempts + 1):
        parts = [
            gen_factored_poly(rng, min_deg, max(max_degree, min_deg))
            for _ in range(m)
        ]
        expanded = [f.expand() for f in parts]
        total = sum(expanded, Poly())
        if not total or total.degree < min_deg:
            continue
        try:
            rhs = factor(total)
        except RootsUnavailableError:
            continue
        fs = parts + [rhs]
        ok, _ = shiftcalc.pairwise_shifting_prime(fs)
        if not ok:
            continue
        if m >= 3 and not casorati.linearly_independent(expanded):
            continue
        return fs
    raise SamplingBudgetError(
        f"no valid instance found in {max_attempts} attempts", max_attempts
    )
