"""Shared generators and worked-example builders for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

from diffrad import (
    Exact,
    ExactDivisionError,
    FactoredPoly,
    Poly,
    delta,
    factor,
    shift,
    unit_cubic_triad,
)
from diffrad.casorati import FORMS

GENERATOR_POOL = ("one", "i", 2, 3, 5, 6)

I = Exact.i()
S2 = Exact.sqrt_int(2)
S3 = Exact.sqrt_int(3)
S6 = Exact.sqrt_int(6)
HALF = Fraction(1, 2)


def sharp_quadratic_triple() -> tuple[FactoredPoly, FactoredPoly, FactoredPoly]:
    """z(z-1) - (z-4)(z-5) = 4(2z-5): the sharp case of the 3-term inequality."""
    a = FactoredPoly(1, [(0, 1), (1, 1)])
    b = FactoredPoly(-1, [(4, 1), (5, 1)])
    c = FactoredPoly(8, [(Fraction(5, 2), 1)])
    return a, b, c


def falling_square_triple() -> tuple[FactoredPoly, FactoredPoly, FactoredPoly]:
    """Quadratics with a^2_ + b^2_ = c^2_ over Q(i, sqrt2, sqrt3)."""
    a = Poly([0, 0, 1])
    half_neg_i = I * -HALF
    b = Poly([half_neg_i * (-S2), half_neg_i * 2, half_neg_i * S2])
    c = Poly([HALF * S2, Exact.from_rational(1), -HALF * S2])
    return factor(a), factor(b), factor(c)


def sharp_quintic_tuple() -> list[FactoredPoly]:
    """Two falling quintics plus a falling quartic summing to a quadratic.

    Chain starts -2/5, -3/5, 0; the sum has the two roots 3/2 +- sqrt(1185)/50.
    """
    alpha = Fraction(-2, 5)
    beta = Fraction(-3, 5)
    f1 = FactoredPoly(1, [(alpha + j, 1) for j in range(5)])
    f2 = FactoredPoly(-1, [(beta + j, 1) for j in range(5)])
    f3 = FactoredPoly(1, [(j, 1) for j in range(4)])
    f4 = factor(f1.expand() + f2.expand() + f3.expand())
    return [f1, f2, f3, f4]


def unit_linear_triad() -> list[FactoredPoly]:
    """Linear triple with f1^2_ + f2^2_ + f3^2_ = 1."""
    f1 = Poly([Exact.from_rational(1), S2 * HALF])
    f2 = Poly([(S2 - S6) * HALF, Exact.from_rational(HALF)])
    f3 = Poly([I * (S6 - S2) * HALF, I * S3 * HALF])
    return [factor(p) for p in (f1, f2, f3)]


def unit_quadratic_triad() -> list[FactoredPoly]:
    """Quadratic triple with f1^2_ + f2^2_ + f3^2_ = 1."""
    f1 = Poly([Fraction(c, 48) * S2 for c in (-29, 48, 24)])
    f2 = Poly([Fraction(c, 48) for c in (-61, -48, 24)])
    f3 = Poly([Fraction(c, 48) * I * S3 for c in (3, 16, 24)])
    return [factor(p) for p in (f1, f2, f3)]


def casorati_rows(fs: list[Poly], form: str = "delta") -> list[list[Poly]]:
    """The Casorati matrix of fs as a list of rows: row k holds the k-th
    differences (form "delta") or the k-th shifts f_i(z+k) (form "shift").

    ``casoratian`` computes the determinant from the difference rows only;
    the shift rows are a unitriangular recombination of them, so their
    determinant is the oracle for it.
    """
    if form not in FORMS:
        raise ValueError(f"unknown Casorati form {form!r}")
    if form == "shift":
        return [[shift(f, k) for f in fs] for k in range(len(fs))]
    rows = [list(fs)]
    while len(rows) < len(fs):
        rows.append([delta(f) for f in rows[-1]])
    return rows


def det_cofactor(rows: list[list]):
    """Cofactor expansion over the first row, for entries of one ring:
    Polys or lanes.  Its sums and products come in the order of
    ``casorati._det_minors``, so numeric results are bit-identical."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = type(rows[0][0])()
    for j, top in enumerate(rows[0]):
        if not top:
            continue
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        term = top * det_cofactor(minor)
        total = total - term if j % 2 else total + term
    return total


def integer_offset(a: Exact, b: Exact) -> int | None:
    """Integer k with a - b = k, or None: one exact subtraction."""
    return (a - b).as_integer()


def scan_classes(roots) -> list[tuple[Exact, dict[int, int]]]:
    """Shift classes by comparing each root with each representative through
    ``integer_offset``, O(roots x classes): the oracle for the keyed pass of
    ``shift_classes``, unsorted."""
    classes: list[tuple[Exact, dict[int, int]]] = []
    for root, mult in roots:
        for idx, (rep, members) in enumerate(classes):
            k = integer_offset(root, rep)
            if k is None:
                continue
            if k < 0:  # new minimal member becomes the representative
                members = {o - k: m for o, m in members.items()}
                members[0] = members.get(0, 0) + mult
                classes[idx] = (root, members)
            else:
                members[k] = members.get(k, 0) + mult
            break
        else:
            classes.append((root, {0: mult}))
    return classes


def tower_roots(f: FactoredPoly, n: int) -> list:
    """Roots of gcd(P, delta P, ..., delta^n P) with their orders, from the
    roots alone: the order at w is min(m(w), m(w + 1), ..., m(w + n)), m the
    multiplicity in f (``FactoredPoly.ord_at``).  The oracle for the gcd
    tower."""
    out = []
    for w, _ in f.roots:
        order = min(f.ord_at(w + Exact.from_rational(j)) for j in range(min(n, f.degree) + 1))
        if order:
            out.append((w, order))
    return out


def linear_factors(roots) -> Poly:
    """Monic prod (z - w)^k over (w, k), one linear factor at a time."""
    out = Poly.constant(1)
    for w, k in roots:
        for _ in range(k):
            out = out * Poly.linear(w)
    return out


def brute_common_shifting_divisors(f: FactoredPoly, g: FactoredPoly):
    """Definition-based oracle: divisibility by falling factorials.

    z0 is a common shifting divisor base iff for some m1, n1 >= 1 the falling
    factorials (z - z0)^(falling m1) and (z - z0 - m1)^(falling n1) divide f
    and g exactly (or with f and g swapped).
    """
    pf, pg = f.expand(), g.expand()
    found = []

    def divides(poly, start, length):
        ff = Poly.constant(1)
        for j in range(length):
            ff = ff * Poly.linear(start + Exact.from_rational(j))
        try:
            poly.divexact(ff)
            return True
        except ExactDivisionError:
            return False

    for left, right, lp, rp in ((f, g, pf, pg), (g, f, pg, pf)):
        for z0, _ in left.roots:
            hit = False
            for m1 in range(1, left.degree + 1):
                if not divides(lp, z0, m1):
                    break
                if divides(rp, z0 + Exact.from_rational(m1), 1):
                    hit = True
                    break
            if hit and all(z0 != seen for seen in found):
                found.append(z0)
    return sorted(d.text() for d in found)


def rand_fraction(rng: random.Random, top: int = 9) -> Fraction:
    return Fraction(rng.randint(-top, top), rng.randint(1, top))


def rand_exact(rng: random.Random, max_terms: int = 3, top: int = 9) -> Exact:
    """Random element of Q(i, sqrt(2), sqrt(3), sqrt(5))."""
    value = Exact.from_rational(0)
    for _ in range(rng.randint(1, max_terms)):
        coeff = rand_fraction(rng, top)
        gen = rng.choice(GENERATOR_POOL)
        if gen == "one":
            term = Exact.from_rational(coeff)
        elif gen == "i":
            term = Exact.i() * coeff
        else:
            term = Exact.sqrt_int(gen) * coeff
        value = value + term
    return value


def rand_radical_poly(rng: random.Random, degree: int, max_terms: int = 3) -> Poly:
    """Random polynomial of exactly the given degree over Q(i, sqrt(2),
    sqrt(3), sqrt(5)); about one coefficient in four is zero."""
    coeffs = [
        rand_exact(rng, max_terms) if rng.random() < 0.75 else Exact()
        for _ in range(degree)
    ]
    lead = rand_exact(rng, max_terms)
    while not lead:
        lead = rand_exact(rng, max_terms)
    return Poly(coeffs + [lead])


def mul_terms(a: Poly, b: Poly) -> Poly:
    """Product term by term in scalar arithmetic: the oracle for the lane."""
    if not a or not b:
        return Poly()
    zero = a.coeffs[0] - a.coeffs[0]
    out = [zero] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        if not x:
            continue
        for j, y in enumerate(b.coeffs):
            out[i + j] = out[i + j] + x * y
    return Poly(out)


def horner_terms(p: Poly, x) -> Exact:
    """p(x) by Horner's rule in scalar arithmetic: the oracle for the lane
    evaluation of ``Poly.__call__``."""
    acc = Exact()
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def divmod_terms(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Long division term by term with the inverse of b's lead in scalar
    arithmetic: the oracle for the lane."""
    if a.degree < b.degree:
        return Poly(), a
    lead_inv = b.lead.inverse()
    rem = list(a.coeffs)
    quot = [None] * (len(a.coeffs) - len(b.coeffs) + 1)
    for k in range(len(quot) - 1, -1, -1):
        c = rem[k + len(b.coeffs) - 1] * lead_inv
        quot[k] = c
        if c:
            for j, y in enumerate(b.coeffs):
                rem[k + j] = rem[k + j] - c * y
    return Poly(quot), Poly(rem[: len(b.coeffs) - 1])


def gcd_terms(a: Poly, b: Poly) -> Poly:
    """Monic Euclid on divmod_terms, monic at every step."""
    while b:
        a, b = b, divmod_terms(a, b)[1]
        b = b.monic() if b else b
    return a.monic()


def rand_rational_poly(
    rng: random.Random, max_degree: int = 5, top: int = 6
) -> Poly:
    degree = rng.randint(0, max_degree)
    coeffs = [rand_fraction(rng, top) for _ in range(degree + 1)]
    return Poly(coeffs)


def rand_nonzero_poly(rng: random.Random, max_degree: int = 5) -> Poly:
    while True:
        p = rand_rational_poly(rng, max_degree)
        if p:
            return p


def rand_grid_factored(
    rng: random.Random, max_degree: int = 4, grid: int = 3
) -> FactoredPoly:
    """Factored polynomial with roots on a small integer/half-integer grid."""
    degree = rng.randint(1, max_degree)
    roots = [
        (Fraction(rng.randint(-grid, grid), rng.choice((1, 2))), 1)
        for _ in range(degree)
    ]
    lead = rng.choice((1, -1, 2, Fraction(1, 2)))
    return FactoredPoly(lead, roots)


def unit_cubic_oracle(s, t, prec: int) -> tuple:
    """Example 5.7 checked numerically with mpmath, the oracle for the exact
    ``unit_cubic_certificate``: for the triad ``unit_cubic_triad(s, t)``,
    with s a resolvent root at `prec` bits, returns

    - the largest |f1^(3) + f2^(3) + f3^(3) - 1| at the sample points
      z = b + x, x in (-1/2, 0, 1/3, 1), where b = -t / (2 s);
    - the least distance from a root difference across two members to the
      nearest integer;
    - |det| of the falling cubes' values at z = b + 2, b + 3, b + 4.
    """
    import mpmath

    fs = unit_cubic_triad(s, t)
    t = Fraction(t)
    with mpmath.mp.workprec(prec + 64):
        b = -(mpmath.mpf(t.numerator) / t.denominator) / (2 * s.to_mpc())
        members = [(lead.to_mpc(), [r.to_mpc() for r in roots]) for lead, roots in fs]

        def cube(i, z):
            lead, roots = members[i]
            return mpmath.fprod(lead * mpmath.fprod(z - j - r for r in roots) for j in range(3))

        xs = [mpmath.mpf(x.numerator) / x.denominator for x in map(Fraction, ("-1/2", "0", "1/3", "1"))]
        residual = max(abs(sum(cube(i, b + x) for i in range(3)) - 1) for x in xs)
        gap = min(
            abs(d - mpmath.nint(d.real))
            for i in range(3)
            for j in range(i + 1, 3)
            for d in (r - q for r in members[i][1] for q in members[j][1])
        )
        det = mpmath.det(mpmath.matrix([[cube(i, b + x) for i in range(3)] for x in (2, 3, 4)]))
        return residual, gap, abs(det)
