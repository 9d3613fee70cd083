"""Independent answers for the benchmark's correctness gate.

Nothing here calls diffrad: the arithmetic is plain `Fraction`/`int` code, so
a check never compares diffrad against a second diffrad route.  Field
elements of Q(i, sqrt(p), ...) use the same canonical basis keys as
`diffrad.scalar.Exact` (an imaginary-unit flag and a frozenset of prime
radicands), which lets a result be read off `Exact.terms` directly.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from fractions import Fraction
from itertools import permutations

ONE_KEY = (False, frozenset())
I_KEY = (True, frozenset())


def _key_mul(k1, k2):
    (i1, p1), (i2, p2) = k1, k2
    factor = -1 if (i1 and i2) else 1
    for p in p1 & p2:
        factor *= p
    return factor, (i1 != i2, p1 ^ p2)


class Rad:
    """Element of Q(i, sqrt(p1), sqrt(p2), ...) as {basis key: Fraction}."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {
            k: v if type(v) is Fraction else Fraction(v)
            for k, v in (terms or {}).items()
            if v
        }

    @classmethod
    def of(cls, value) -> Rad:
        return cls({ONE_KEY: Fraction(value)})

    @classmethod
    def sqrt_prime_product(cls, primes, imaginary=False, coeff=1) -> Rad:
        """coeff * sqrt(prod primes), times i when `imaginary`; the basis
        key holds primes, so sqrt 6 is sqrt_prime_product([2, 3])."""
        for p in primes:
            if p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
                raise ValueError(f"{p} is not a prime")
        return cls({(imaginary, frozenset(primes)): Fraction(coeff)})

    @staticmethod
    def lift(x) -> Rad:
        return x if isinstance(x, Rad) else Rad.of(x)

    def __add__(self, other):
        other = Rad.lift(other)
        terms = dict(self.terms)
        for k, v in other.terms.items():
            terms[k] = terms.get(k, 0) + v
        return Rad(terms)

    __radd__ = __add__

    def __neg__(self):
        return Rad({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-Rad.lift(other))

    def __mul__(self, other):
        other = Rad.lift(other)
        terms = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                f, k = _key_mul(k1, k2)
                terms[k] = terms.get(k, 0) + f * c1 * c2
        return Rad(terms)

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return self.terms == Rad.lift(other).terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def rational(self) -> Fraction | None:
        if set(self.terms) <= {ONE_KEY}:
            return self.terms.get(ONE_KEY, Fraction(0))
        return None

    def irrational_part(self) -> frozenset:
        return frozenset((k, v) for k, v in self.terms.items() if k != ONE_KEY)

    def __repr__(self):
        return f"Rad({self.terms!r})"


# -- roots, chains and radicals ------------------------------------------------
# A root is (irrational part, rational part); two roots are in one shift
# class exactly when their irrational parts agree and their rational parts
# differ by an integer.


def root_key(value) -> tuple[frozenset, Fraction]:
    """Root from a Fraction/int or a Rad."""
    if isinstance(value, Rad):
        return value.irrational_part(), value.terms.get(ONE_KEY, Fraction(0))
    return frozenset(), Fraction(value)


def root_value(root) -> Rad:
    irr, rat = root
    return Rad({**dict(irr), ONE_KEY: rat})


def _plus(root, k: int):
    return root[0], root[1] + k


def _order_key(root):
    irr, rat = root
    return tuple(sorted((k[0], tuple(sorted(k[1])), v) for k, v in irr)), rat


def chains(roots: Counter) -> list[tuple[tuple, int]]:
    """Greedy chain decomposition of a root multiset, as (start, length).

    Roots are visited in increasing order inside each class, so every chain
    starts at the smallest member of its class that still has multiplicity.
    """
    remaining = Counter(roots)
    out = []
    for root in sorted(roots, key=_order_key):
        while remaining[root] > 0:
            n = 0
            while remaining.get(_plus(root, n), 0) > 0:
                remaining[_plus(root, n)] -= 1
                n += 1
            out.append((root, n))
    return out


def height(roots: Counter, z0) -> int:
    n = 0
    while roots.get(_plus(z0, n), 0) > 0:
        n += 1
    return n


def falling_roots(start, n: int) -> list:
    """Roots of (z - start)^(n falling): start, start + 1, ..., start + n - 1."""
    return [_plus(start, j) for j in range(n)]


def rad_delta_roots(roots: Counter) -> list:
    return [start for start, _ in chains(roots)]


def rad_kappa_roots(roots: Counter, kappa: int) -> list:
    out = []
    for w, m in roots.items():
        out += [w] * (m - min(m, roots.get(_plus(w, kappa), 0)))
    return out


def rad_delta_q_roots(roots: Counter, q: int) -> list:
    out = []
    for start, n in chains(roots):
        out += falling_roots(start, min(n, q))
    return out


def gcd_tower_roots(roots: Counter, n: int) -> list:
    out = []
    for start, length in chains(roots):
        out += falling_roots(start, max(length - n, 0))
    return out


def shifting_divisor_bases(f: Counter, g: Counter) -> set:
    """Zeros z0 of one side whose chain continues into a zero of the other."""
    found = set()
    for a, b in ((f, g), (g, f)):
        for z0 in a:
            h = height(a, z0)
            if any(b.get(_plus(z0, m), 0) for m in range(1, h + 1)):
                found.add(z0)
    return found


# -- polynomials -------------------------------------------------------------
# Coefficient lists, lowest degree first, no trailing zeros.


def linear_product(lead, roots) -> list:
    """lead * prod (z - r) over roots (root keys), expanded.

    Rational input runs on integer lists (each factor is (b z - a) / b);
    anything else on Rad lists.
    """
    if all(not irr for irr, _ in roots) and not isinstance(lead, Rad):
        ints, den = [1], 1
        for _, r in roots:
            a, b = r.numerator, r.denominator
            nxt = [0] * (len(ints) + 1)
            for i, c in enumerate(ints):
                nxt[i] -= c * a
                nxt[i + 1] += c * b
            ints, den = nxt, den * b
        scale = Fraction(lead) / den
        return [scale * c for c in ints]
    out = [Rad.lift(lead)]
    for root in roots:
        r = root_value(root)
        nxt = [Rad() for _ in range(len(out) + 1)]
        for i, c in enumerate(out):
            nxt[i] = nxt[i] - c * r
            nxt[i + 1] = nxt[i + 1] + c
        out = nxt
    return out


def poly_mul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [Rad() for _ in range(len(a) + len(b) - 1)]
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + Rad.lift(x) * y
    return trim(out)


def poly_add(a: list, b: list) -> list:
    n = max(len(a), len(b))
    out = [Rad.lift(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]
    return trim(out)


def poly_scale(a: list, s) -> list:
    return trim([Rad.lift(c) * s for c in a])


def poly_shift(a: list, k: Fraction) -> list:
    """a(z + k) by binomial expansion."""
    out = [Rad() for _ in a]
    for j, c in enumerate(a):
        for i in range(j + 1):
            out[i] = out[i] + Rad.lift(c) * (math.comb(j, i) * Fraction(k) ** (j - i))
    return trim(out)


def trim(a: list) -> list:
    a = list(a)
    while a and not a[-1]:
        a.pop()
    return a


@functools.cache
def falling_basis(k: int) -> list[Fraction]:
    """Coefficients of z^(k falling) = z (z - 1) ... (z - k + 1)."""
    return linear_product(1, [root_key(j) for j in range(k)])


def determinant(rows: list[list]):
    """Leibniz expansion; meant for the 3x3 and 4x4 matrices the bench uses."""
    n = len(rows)
    total = Rad()
    for perm in permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        term = Rad.of(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        total = total + term
    return total


def rank(rows: list[list[Fraction]]) -> int:
    """Rank of a rational matrix by Gaussian elimination."""
    m = [list(map(Fraction, r)) for r in rows]
    r = 0
    cols = max((len(row) for row in m), default=0)
    for row in m:
        row += [Fraction(0)] * (cols - len(row))
    for c in range(cols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c] / m[r][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


# -- hand-written expectations ----------------------------------------------


def subset_match(expected, actual) -> bool:
    """`expected` is a fragment of `actual`: dict keys must be present and
    match recursively, lists match element-wise, and {"max": x} / {"min": x}
    bound a number."""
    if isinstance(expected, dict):
        if set(expected) == {"max"}:
            return isinstance(actual, (int, float)) and actual <= expected["max"]
        if set(expected) == {"min"}:
            return isinstance(actual, (int, float)) and actual >= expected["min"]
        return isinstance(actual, dict) and all(
            k in actual and subset_match(v, actual[k]) for k, v in expected.items()
        )
    if isinstance(expected, list):
        return (
            isinstance(actual, list)
            and len(expected) == len(actual)
            and all(subset_match(e, a) for e, a in zip(expected, actual))
        )
    return expected == actual
