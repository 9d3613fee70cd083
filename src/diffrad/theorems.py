"""Inequality and functional-equation checkers.

Each checker verifies its hypotheses mechanically, evaluates both sides of
the relevant degree inequality, and returns a structured report; hypothesis
failures never abort, they only flag the report, so callers can explain why
a statement does not apply.  A negative slack with all hypotheses satisfied
would contradict the underlying theorem and is surfaced loudly through the
``counterexample`` flag.  Every checker computes exactly; Example 5.7, whose
resolvent roots are irrational, is decided over Q by ``unit_cubic_certificate``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import combinations, zip_longest
from typing import Sequence

from . import casorati, diffcalc, shiftcalc
from .errors import RootsUnavailableError, SamplingBudgetError
from .poly import (
    FactoredPoly,
    Poly,
    _gcd_ints,
    _primitive,
    _root_bound_exp,
    factor,
    offset_product,
    poly_gcd,
)
from .scalar import _ONE_KEY, Exact, Numeric


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
    """A falling-power equation's verdict.  ``identity_residual`` is the left
    side minus the right, a Poly, or for ``unit_cubic_certificate`` its
    coefficients of u^0, u^1, ... modulo the resolvent cubic."""

    identity_residual: Poly | tuple[Poly, ...]
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


def _sum_equation_holds(parts: Sequence[Poly], total: Poly) -> bool:
    return not sum(parts, Poly()) - total


def _shifting_prime_hypothesis(fs: Sequence[FactoredPoly]) -> Hypothesis:
    ok, witness = shiftcalc.pairwise_shifting_prime(list(fs))
    text = ""
    if not ok:
        i, j, z0 = witness
        text = f"inputs {i} and {j} share the shifting divisor z - ({z0.text()})"
    return Hypothesis("pairwise_shifting_prime", ok, text)


def _relatively_prime_hypothesis(fs: Sequence[FactoredPoly]) -> Hypothesis:
    """Pairwise coprimality from the shift classes: the witness is the monic
    product of (z - r)^min(m, n) over the roots r that f_i and f_j share,
    with orders m and n, which is gcd(f_i, f_j)."""
    for i, j in combinations(range(len(fs)), 2):
        shared = [  # a member's ints are n + o d over d, d = key[2]
            (c.representative, [(o, min(m, fs[j]._order(c.key, c.n + o * c.key[2])))
                                for o, m in c.members.items()])
            for c in fs[i].classes
        ]
        if any(d for _, orders in shared for _, d in orders):
            g = offset_product(shared).expr_text()
            return Hypothesis("relatively_prime", False, f"inputs {i} and {j} share the factor {g}")
    return Hypothesis("relatively_prime", True, "")


def mason_classical(a: FactoredPoly, b: FactoredPoly, c: FactoredPoly) -> MasonReport:
    """Classical degree inequality for relatively prime a + b = c."""
    equation = _sum_equation_holds([a.expand(), b.expand()], c.expand())
    hyps = [
        _relatively_prime_hypothesis([a, b, c]),
        Hypothesis("not_all_constant", _max_degree([a, b, c]) >= 1),
    ]
    return MasonReport(
        kind="classical",
        equation_holds=equation,
        hypotheses=tuple(hyps),
        lhs=_max_degree([a, b, c]),
        rhs=sum(len(cls.members) for cls in a.times(b).times(c).classes) - 1,  # deg rad(abc) - 1
    )


def mason_delta(a: FactoredPoly, b: FactoredPoly, c: FactoredPoly) -> MasonReport:
    """Difference-radical analogue for shifting-prime a + b = c."""
    equation = _sum_equation_holds([a.expand(), b.expand()], c.expand())
    hyps = [
        _shifting_prime_hypothesis([a, b, c]),
        Hypothesis("not_all_constant", _max_degree([a, b, c]) >= 1),
    ]
    product = a.times(b).times(c)
    rhs = shiftcalc.rad_delta(product).degree - 1
    rhs_kappa = shiftcalc.rad_kappa(product, 1).degree - 1
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


def mason_delta_ext(fs: Sequence[FactoredPoly]) -> MasonReport:
    """Extended inequality for f_1 + ... + f_m = f_{m+1}, m >= 2.

    The strong side uses the truncated radical at level m-1; the weaker
    closed form (m-1) * deg rad of the product is reported alongside it.
    """
    if len(fs) < 3:
        raise ValueError("need at least three polynomials (m >= 2)")
    m = len(fs) - 1
    parts = [f.expand() for f in fs[:-1]]
    equation = _sum_equation_holds(parts, fs[-1].expand())
    min_deg = min(f.degree for f in fs)
    indep = casorati.linearly_independent(parts)
    hyps = [
        _shifting_prime_hypothesis(fs),
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
    rhs = shiftcalc.rad_delta_q(product, m - 1).degree - penalty
    rhs_weak = (m - 1) * shiftcalc.rad_delta(product).degree - penalty
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
    a: FactoredPoly, b: FactoredPoly, c: FactoredPoly, n: int
) -> FermatReport:
    """Check a^(falling n) + b^(falling n) = c^(falling n) and the n-bound.

    The exponent bound is 2, dropping to 1 when any of a, b, c is constant.
    Shifting primality of the falling powers is reported per pair, so both
    the pairwise and the joint readings of the hypothesis are inspectable.
    Each falling power is built once, factored: its ``expand`` gives the
    identity and its classes the shifting primality.
    """
    if n < 1:
        raise ValueError("exponent n must be >= 1")
    factored = [diffcalc.falling_power_factored(f, n) for f in (a, b, c)]
    powers = [f.expand() for f in factored]
    residual = powers[0] + powers[1] - powers[2]
    equation, sup = not residual, residual.coeff_sup()

    classes = [shiftcalc.shift_classes(f) for f in factored]
    hyps = [Hypothesis("not_all_constant", _max_degree([a, b, c]) >= 1)]
    labels = ["a", "b", "c"]
    for i, j in combinations(range(3), 2):
        divisors = shiftcalc._common_divisors(classes[i], classes[j])
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
    fs: Sequence[FactoredPoly], n: int, rhs_one: bool = False
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

    power_factored = [diffcalc.falling_power_factored(f, n) for f in fs]
    powers = [f.expand() for f in power_factored]
    left = powers if rhs_one else powers[:-1]
    residual = sum(left, Poly()) - (1 if rhs_one else powers[-1])
    equation, sup = not residual, residual.coeff_sup()

    hyps = [
        Hypothesis(
            "nonconstant",
            min(f.degree for f in fs) >= 1,
            "",
        ),
        _shifting_prime_hypothesis(power_factored),
    ]
    hyps.append(
        Hypothesis("linear_independence", casorati.linearly_independent(left))
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


# -- Example 5.7 ----------------------------------------------------------------

# Resolvent whose roots s parameterize degree-3 solutions of the three-term
# unit equation f1^(falling 3) + f2^(falling 3) + f3^(falling 3) = 1.
UNIT_CUBIC_RESOLVENT = (1, 0, 0, 0, 0, 0, -144, 0, 0, 108)


def unit_cubic_certificate() -> FermatReport:
    """Example 5.7 decided exactly over Q: the unit equation in falling cubes,
    with the hypotheses and bound ``fermat_multi_check`` reports for n = 3
    and right side 1, for the triad ``unit_cubic_triad(s, t)`` at every one
    of the nine roots s of the resolvent and every nonzero t at once, with
    ``residual_sup`` 0.0 when the identity holds.

    Write x = z - b with b = -t / (2 s), h = x^3 - 3 x and u = s^3.  Then the
    triad of ``unit_cubic_triad`` is p1 = h - u/6, p2 = -(h + u/6) and
    p3 = s (x^2 - 1).  The translation commutes with falling powers, keeps
    root differences and maps independent polynomials to independent ones,
    so t and b drop out, and s enters the falling cubes only as the cube u
    of p3's lead.  u is a root of the cubic c whose coefficients are the
    resolvent's at s^0, s^3, s^6 and s^9, so every step below is arithmetic
    in Q[x][u] / c(u) and holds at the three roots u, and the nine s, alike:

    - identity: the sum of the falling cubes, reduced modulo c, is 1;
    - shifting primality: over all roots u, the roots of p_i are those of
      W_i over Q (``_resultant``); gcd(W_i(x), W_j(x + k)) = 1 for every
      integer k up to the sum of their Fujiwara root bounds (``_integer_shift``;
      Man & Wright, ISSAC 1994), so no root of p_i differs from one of p_j by
      an integer, nor do the roots of their falling cubes;
    - independence: the Casoratian of the falling cubes at an integer x, the
      3x3 determinant of their values at x, x + 1 and x + 2, is a polynomial
      in u; reduced modulo c and coprime to it, it is nonzero at every root u.

    A step that finds no certificate reports its hypothesis as failed.
    """
    c = _resolvent_cubic()
    h = Poly([0, -3, 0, 1])
    sixth = Poly.constant(Fraction(1, 6))
    # (power of s in the lead, coefficients of u^0, u^1, ...) of p1, p2, p3
    triad = [(0, [h, -sixth]), (0, [-h, -sixth]), (1, [Poly([-1, 0, 1])])]
    cubes = []
    for e, p in triad:
        cube = [Poly()] * e + [Poly.constant(1)]  # the lead's cube, u^e
        for j in range(3):
            cube = _mul_mod(cube, [diffcalc.shift(a, -j) for a in p], c)
        cubes.append(cube)
    residual = [sum(parts, Poly()) for parts in zip_longest(*cubes, fillvalue=Poly())]
    residual[0] = residual[0] - 1

    shared = ""
    roots = [_resultant(p, c) for _, p in triad]
    for i, j in combinations(range(3), 2):
        k = _integer_shift(roots[i], roots[j])
        if k is not None:
            shared = f"roots of inputs {i} and {j} differ by the integer {k}"
            break

    independent = False
    degree = sum(max(a.degree for a in cube) for cube in cubes) - 3  # of the Casoratian
    for x in range(c.degree * degree + 1):  # a root u loses at most `degree` points
        rows = [[Poly([a(x + r) for a in cube]) for cube in cubes] for r in range(3)]
        minor = casorati.determinant(rows) % c
        if minor and poly_gcd(minor, c).degree == 0:
            independent = True
            break

    m = len(triad)
    bound = Fraction(m * m - m - 1)
    return FermatReport(
        identity_residual=tuple(residual),
        equation_holds=not any(residual),
        residual_sup=max(r.coeff_sup() for r in residual),
        n=3,
        m=m,
        bound=bound,
        within_bound=3 <= bound,
        hypotheses=(
            # s != 0 at every root, as c(0) != 0, so p3 keeps its degree
            Hypothesis(
                "nonconstant", min(max(a.degree for a in p) for _, p in triad) >= 1 and bool(c(0))
            ),
            Hypothesis("pairwise_shifting_prime", not shared, shared),
            Hypothesis("linear_independence", independent),
        ),
    )


def _resolvent_cubic() -> Poly:
    """UNIT_CUBIC_RESOLVENT as the cubic c(u) in u = s^3."""
    coeffs = UNIT_CUBIC_RESOLVENT[::-1]  # ascending in s
    if any(a for k, a in enumerate(coeffs) if k % 3):
        raise ValueError("the resolvent is not a polynomial in s^3")
    return Poly(coeffs[::3])


def _mul_mod(a: list[Poly], b: list[Poly], c: Poly) -> list[Poly]:
    """a * b modulo c(u), for polynomials in u given by their Poly
    coefficients of u^0, u^1, ..."""
    out = [Poly()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    *low, top = c.coeffs
    while len(out) > len(low):  # u^n = -u^(n-d) (c_0 + ... + c_(d-1) u^(d-1)) / c_d
        t = out.pop()
        k = len(out) - len(low)
        for j, cj in enumerate(low):
            out[k + j] = out[k + j] - t * (cj / top)
    return out


def _resultant(p: list[Poly], c: Poly) -> Poly:
    """A polynomial over Q whose roots are the x with p(x, u) = 0 at some
    root u of c, for p free of u (p itself) or linear in it (Res_u(c, p))."""
    if len(p) == 1:
        return p[0]
    a, b = p
    d = c.degree
    return sum(((-a) ** k * b ** (d - k) * ck for k, ck in enumerate(c.coeffs)), Poly())


def _integer_shift(w: Poly, v: Poly) -> int | None:
    """An integer k with gcd(w(x), v(x + k)) != 1, that is, a root of v minus
    a root of w, or None.  w and v are rational, and every root lies within
    2^_root_bound_exp, so |k| is at most the sum of the two bounds.  The scan
    runs on the primitive ints of the lanes: the integer Taylor shift and
    the heuristic gcd, with ``poly_gcd`` where the heuristic gives up."""
    a, b = (_primitive(p._lane.terms[_ONE_KEY]) for p in (w, v))
    bound = 2 ** _root_bound_exp(a) + 2 ** _root_bound_exp(b)
    for k in range(-bound, bound + 1):
        g = _gcd_ints(a, _primitive(diffcalc._taylor(list(b), k)))
        if g is None:
            g = poly_gcd(w, diffcalc.shift(v, k))._lane.terms[_ONE_KEY]
        if len(g) > 1:
            return k
    return None


def unit_cubic_resolvent_roots(prec: int = 256) -> list:
    """All nine roots of the resolvent s^9 - 144 s^3 + 108, as numeric
    scalars at `prec` bits, in closed form: the numeric oracle's inputs,
    since ``unit_cubic_certificate`` decides the example exactly.

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


def unit_cubic_triad(s, t=1) -> list[tuple[Numeric, list[Numeric]]]:
    """Two cubics and a quadratic summing (in falling cubes) to 1, from
    their roots in closed form, as numeric (lead, [roots]) pairs: the inputs
    of the numeric oracle for ``unit_cubic_certificate``.  The roots are
    simple and come in the order built below.

    s must be a root of UNIT_CUBIC_RESOLVENT and t any nonzero scalar.  With
    b = -t / (2 s):

    - p3 = s (z - b - 1)(z - b + 1), so its roots are b +- 1;
    - p1(b + w) = w^3 - 3 w - s^3 / 6 (lead 1) and p2 = -p1 - s^3 / 3
      (lead -1), so their roots are b + w where w^3 - 3 w = 2 c, with
      c = s^3 / 12 for p1 and c = -s^3 / 12 for p2.

    That cubic is solved as w_k = u omega^k + (u omega^k)^-1, k = 0, 1, 2,
    with omega = -1/2 + (sqrt(3)/2) i and u^3 = c + sqrt(c^2 - 1), so u != 0.
    The three w_k are distinct, as s^3 = +-12 is not a root of
    u^3 - 144 u + 108.  Everything is computed at 64 bits above s.prec, and
    the roots and leads take s's precision.
    """
    import mpmath

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
    leads = (Numeric.from_rational(1, s.prec), Numeric.from_rational(-1, s.prec), s)
    return [(lead, [Numeric.from_mpc(r, s.prec) for r in rs]) for lead, rs in zip(leads, roots)]


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
    roots: list[tuple[Exact, int]] = []
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
    return _build_factored(*_draw_factored(rng, min_degree, max_degree))


def _draw_factored(
    rng: random.Random, min_degree: int, max_degree: int
) -> tuple[list[tuple[int, int]], Fraction | int]:
    """The draws of ``gen_factored_poly`` as ints: the degree, then a grid
    numerator and denominator per root, then the lead."""
    degree = rng.randint(min_degree, max_degree)
    roots = [
        (rng.choice(DEFAULT_GRID_NUMERATORS), rng.choice(DEFAULT_GRID_DENOMINATORS))
        for _ in range(degree)
    ]
    return roots, rng.choice(DEFAULT_LEADS)


def _build_factored(roots: list[tuple[int, int]], lead: Fraction | int) -> FactoredPoly:
    return FactoredPoly(
        Exact.from_rational(lead),
        [(Exact.from_rational(Fraction(n, d)), 1) for n, d in roots],
    )


def gen_mason_instance(
    m: int, seed: int, max_degree: int = 3, max_attempts: int = 5000
) -> list[FactoredPoly]:
    """Rejection-sample [f_1, ..., f_m, f_{m+1}] with f_1+...+f_m = f_{m+1}.

    Every returned tuple satisfies the hypotheses of the matching degree
    inequality (shifting primality, and for m >= 3 the minimum-degree and
    linear-independence conditions); deterministic for a fixed seed.

    Each attempt draws its m parts as ints, the draws ``gen_factored_poly``
    makes (degree, a numerator and denominator per root, lead), and groups
    each part's roots by ``shiftcalc.shift_classes`` on their residue keys.
    The parts must be pairwise shifting prime, which reads only those keys
    and offsets, so about nine attempts in ten are rejected before any
    ``Exact`` or ``FactoredPoly`` is built.  Only a passing attempt builds
    its parts, which are then expanded and summed; the sum must pass the
    degree filter and split over the roots ``factor`` finds, the right-hand
    side is grouped once and each part's classes must share no shifting
    divisor with it, and for m >= 3 the expanded parts must be linearly
    independent.  All draws of an attempt come before any check, and a
    tuple that passes the later checks has pairwise shifting prime parts,
    so the order decides only how soon an attempt is rejected: each seed
    gives the same tuple, or the same ``SamplingBudgetError``, as with the
    checks in any other order.

    Parts have degree min_deg = m - 1 to max(max_degree, min_deg).  On the
    default grid (max_degree = 3), min_deg exceeds max_degree from m = 5
    on, so every part then has degree exactly m - 1.  From m = 4 on, a seed
    often ends in ``SamplingBudgetError`` after `max_attempts` attempts: at
    the defaults, 5 of the seeds 0-9 do at m = 4 and all 10 at m = 5.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    rng = random.Random(seed)
    min_deg = max(1, m - 1)
    for attempt in range(1, max_attempts + 1):
        draws = [_draw_factored(rng, min_deg, max(max_degree, min_deg)) for _ in range(m)]
        classes = [shiftcalc.shift_classes(roots) for roots, _ in draws]
        if shiftcalc._first_shared_pair(classes) is not None:
            continue
        parts = [_build_factored(*draw) for draw in draws]
        expanded = [f.expand() for f in parts]
        total = sum(expanded, Poly())
        if not total or total.degree < min_deg:
            continue
        try:
            rhs = factor(total)
        except RootsUnavailableError:
            continue
        rhs_classes = shiftcalc.shift_classes(rhs)
        if any(shiftcalc._shares_divisor(c, rhs_classes) for c in classes):
            continue
        if m >= 3 and not casorati.linearly_independent(expanded):
            continue
        return parts + [rhs]
    raise SamplingBudgetError(
        f"no valid instance found in {max_attempts} attempts", max_attempts
    )
