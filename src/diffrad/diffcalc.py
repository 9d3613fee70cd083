"""Forward-difference calculus on polynomials.

Provides the shift p(z) -> p(z+k), the forward difference
delta p(z) = p(z+1) - p(z) and its iterates, falling/raising factorial
expressions p(z)p(z-1)...  and p(z)p(z+1)..., and conversion to and from
the falling-factorial (Newton) basis around an arbitrary base point.

Every shift, by a rational or a radical step, and every difference run one
Taylor loop on coefficients (``_taylor``); every iterated difference reads
the one loop over delta, ``differences``, which ends at the last nonzero one.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .poly import FactoredPoly, Poly, _Lane, offset_product, product
from .scalar import Exact, Numeric


def binomial(n: int, k: int) -> int:
    """C(n, k) on exact integers; 0 outside 0 <= k <= n."""
    return math.comb(n, k) if 0 <= k <= n else 0


def shift(p: Poly, k) -> Poly:
    """p(z + k) on the lane, for an integer or scalar step k.

    A rational step k = u/v maps every key's part to itself, so each runs one
    Taylor-shift loop on its ints: with the part sum c_i z^i / den,
    v^d p(z + u/v) = (1/den) sum c_i v^(d-i) (w + u)^i at w = v z and
    d = deg p, an integer shift by u, then w^j rescaled to v^j z^j.  A
    radical step runs the same loop on the exact coefficients.
    """
    if not p:
        return p
    step = p.scalar(k)
    if not step:
        return p
    lane, d = p._lane, p.degree
    h = step.as_fraction()
    if h is None:
        return Poly(_taylor(list(p.coeffs), step))
    u, v = h.numerator, h.denominator
    terms = {}
    for key, cs in lane.terms.items():
        cs = _taylor([c * v ** (d - i) for i, c in enumerate(cs)], u)
        terms[key] = [c * v**j for j, c in enumerate(cs)]
    return Poly._wrap(_Lane(terms, lane.den * v**d))


def _taylor(cs: list, u) -> list:
    """Coefficients of sum cs[i] (z + u)^i, by repeated synthetic division
    in place: d(d+1)/2 multiply-adds and no polynomial product."""
    d = len(cs) - 1
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            cs[j] += u * cs[j + 1]
    return cs


def delta(p: Poly) -> Poly:
    """Forward difference p(z+1) - p(z), on the lane: per radical key, the
    ints shifted by 1 (``_taylor``) minus the ints, over the same den."""
    lane = p._lane
    terms = {k: [a - b for a, b in zip(_taylor(cs[:], 1), cs)] for k, cs in lane.terms.items()}
    return Poly._wrap(_Lane(terms, lane.den))


def differences(p: Poly) -> Iterator[Poly]:
    """p, delta p, ..., delta^d p at d = deg p, nothing for p = 0: each
    difference lowers the degree by one, so delta^d p is a nonzero constant
    and every later one is zero."""
    while p:
        yield p
        p = delta(p)


def delta_k(p: Poly, k: int) -> Poly:
    """k-fold forward difference, k >= 0 (k = 0 returns p itself)."""
    if k < 0:
        raise ValueError("difference order must be nonnegative")
    return next(islice(differences(p), k, None), Poly())


def falling_power(p: Poly, n: int) -> Poly:
    """p(z) p(z-1) ... p(z-n+1); n = 0 gives the constant 1."""
    if n < 0:
        raise ValueError("falling power needs n >= 0")
    return product([Poly([1])] + [shift(p, -j) for j in range(n)])


def raising_power(p: Poly, n: int) -> Poly:
    """p(z) p(z+1) ... p(z+n-1); n = 0 gives the constant 1."""
    if n < 0:
        raise ValueError("raising power needs n >= 0")
    return product([Poly([1])] + [shift(p, j) for j in range(n)])


def falling_power_factored(f: FactoredPoly, n: int) -> FactoredPoly:
    """Factored form of f^(falling n): each root r spawns r, r+1, ..., r+n-1,
    so a class keeps its key, and its orders shifted by j < n add up."""
    if n < 1:
        raise ValueError("factored falling power needs n >= 1")
    shifted = [c._replace(members={o + j: m for o, m in c.members.items()})
               for c in f.classes for j in range(n)]
    return FactoredPoly._of(f.lead**n, shifted)


def falling_factorial_linear(root: Exact, n: int) -> Poly:
    """(z - root) (z - root - 1) ... (z - root - n + 1), one ``offset_product``."""
    return offset_product([(root, [(j, 1) for j in range(n)])])


@dataclass(frozen=True)
class NewtonExpansion:
    """P(z) = sum a_j (z - base)^(falling j) in the falling-factorial basis."""

    base: Exact | Numeric
    coeffs: tuple[Exact | Numeric, ...]

    def to_json_dict(self) -> dict:
        return {
            "base": self.base.text(),
            "coeffs": [c.text() for c in self.coeffs],
        }


def to_newton(p: Poly, z0) -> NewtonExpansion:
    """Expand around z0; coefficient j is delta^j p(z0) / j!, read off the
    difference table of p(z0), ..., p(z0 + deg p) in O(d^2) scalar steps."""
    z0 = p.scalar(z0)
    values = [p(z0 + k) for k in range(len(p._lane))]
    coeffs = []
    for j in range(len(values)):
        coeffs.append(values[0] * Fraction(1, math.factorial(j)))
        values = [b - a for a, b in zip(values, values[1:])]
    return NewtonExpansion(z0, tuple(coeffs))


def from_newton(e: NewtonExpansion) -> Poly:
    out = Poly()
    for j, a in enumerate(e.coeffs):
        out = out + falling_factorial_linear(e.base, j) * a
    return out


def binomial_transform_check(p: Poly, z, k: int) -> tuple[bool, bool]:
    """Check the two shift/difference binomial identities at a point.

    First: p(z+k) equals sum_j C(k,j) delta^j p(z).
    Second: delta^k p(z) equals sum_j C(k,j) (-1)^(k-j) p(z+j).
    Both hold identically; this is exposed as a self-test primitive.
    """
    z = p.scalar(z)
    if k < 0:
        raise ValueError("k must be nonnegative")
    deltas = list(islice(differences(p), k + 1))  # delta^j p = 0 past the last
    first = p(z + k) == sum(d(z) * Fraction(binomial(k, j)) for j, d in enumerate(deltas))
    lhs2 = deltas[k](z) if k < len(deltas) else 0
    rhs2 = sum(p(z + j) * Fraction((-1) ** (k - j) * binomial(k, j)) for j in range(k + 1))
    return first, lhs2 == rhs2
