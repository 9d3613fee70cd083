"""Dense univariate polynomials over exact or numeric scalars.

A :class:`Poly` stores coefficients ascending in the power of z, trimmed so
the leading coefficient is nonzero; the zero polynomial has no coefficients
and degree ``NEG_INF`` (a genuine minus-infinity marker, so degree identities
like deg(p*q) = deg(p) + deg(q) never hit -1 arithmetic).

A :class:`FactoredPoly` is a leading coefficient plus a multiset of
(root, multiplicity) pairs; it is the primary ingestion form for anything
that needs root data (chain decompositions, radicals, shifting-prime tests).
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import reduce
from operator import attrgetter, mul
from typing import Iterable, Iterator

from .errors import (
    BackendMismatchError,
    ExactDivisionError,
    RootsUnavailableError,
)
from .scalar import (
    _ONE_KEY,
    Exact,
    Key,
    Numeric,
    Scalar,
    _key_mul,
    _key_sort,
    as_scalar,
    int_text,
    norm_conjugate,
    power,
    prime_factors,
)

NEG_INF = float("-inf")


def _as_coeff_list(values: Iterable) -> list[Scalar]:
    out: list[Scalar] = []
    for v in values:
        if isinstance(v, Scalar):
            out.append(v)
        else:
            out.append(Exact.from_rational(v))
    return out


class Poly:
    """Immutable dense univariate polynomial."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = _as_coeff_list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "_coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly values are immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> Poly:
        return cls()

    @classmethod
    def constant(cls, value) -> Poly:
        return cls([value])

    @classmethod
    def z(cls) -> Poly:
        """The exact-backend monomial z."""
        return cls([0, 1])

    @classmethod
    def linear(cls, root: Scalar) -> Poly:
        """Monic z - root in the root's backend."""
        return cls([-root, as_scalar(1, root)])

    # -- inspection --------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Scalar, ...]:
        return self._coeffs

    @property
    def degree(self) -> int | float:
        return len(self._coeffs) - 1 if self._coeffs else NEG_INF

    @property
    def backend(self) -> str | None:
        """Backend name, or None for the (backend-neutral) zero polynomial."""
        return self._coeffs[-1].backend if self._coeffs else None

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    @property
    def lead(self) -> Scalar:
        if not self._coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self._coeffs[-1]

    def coeff(self, k: int) -> Scalar:
        if 0 <= k < len(self._coeffs):
            return self._coeffs[k]
        return self.scalar(0)

    def scalar(self, x) -> Scalar:
        """x in this polynomial's backend (``as_scalar``).  The zero
        polynomial has no backend: it takes a scalar as it is, and an int or
        Fraction as exact."""
        if self._coeffs:
            return as_scalar(x, self._coeffs[-1])
        return x if isinstance(x, Scalar) else Exact.from_rational(x)

    def _check_backend(self, other: Poly) -> None:
        if self and other and self.backend != other.backend:
            raise BackendMismatchError("polynomials use different scalar backends")

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction, Scalar)):
            return Poly([other])
        return None

    def __add__(self, other) -> Poly:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        self._check_backend(rhs)
        if not self._coeffs:
            return rhs
        if not rhs._coeffs:
            return self
        n = max(len(self._coeffs), len(rhs._coeffs))
        return Poly([self.coeff(k) + rhs.coeff(k) for k in range(n)])

    __radd__ = __add__

    def __neg__(self) -> Poly:
        return Poly([-c for c in self._coeffs])

    def __sub__(self, other) -> Poly:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other) -> Poly:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other) -> Poly:
        """Product with a scalar or a polynomial.

        Two exact polynomials multiply once on the lane (see ``_Lane``):
        ``_mul_ints`` on each pair of radical keys, merged by ``_key_mul``.
        Numeric coefficients multiply term by term in their own arithmetic.
        """
        if isinstance(other, (int, Fraction, Scalar)):
            scale = other if isinstance(other, Scalar) else Fraction(other)
            return Poly([c * scale for c in self._coeffs])
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_backend(other)
        if not self or not other:
            return Poly()
        a, b = _to_lane(self), _to_lane(other)
        if a is not None and b is not None:
            return (a * b).to_poly()
        zero = self._coeffs[0] - self._coeffs[0]
        out = [zero] * (len(self._coeffs) + len(other._coeffs) - 1)
        for i, a in enumerate(self._coeffs):
            if not a:
                continue
            for j, b in enumerate(other._coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> Poly:
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        return power(self, exponent, Poly.constant(self.scalar(1)))

    def __divmod__(self, other: Poly) -> tuple[Poly, Poly]:
        """(q, r) with self = q * other + r and deg r < deg other.

        Exact operands divide once on the lane (``_Lane.__divmod__``);
        numeric ones run term by term with the inverse of the divisor's lead.
        """
        if not isinstance(other, Poly):
            return NotImplemented
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        self._check_backend(other)
        if self.degree < other.degree:
            return Poly(), self
        a, b = _to_lane(self), _to_lane(other)
        if a is not None and b is not None:
            q, r = divmod(a, b)
            return q.to_poly(), r.to_poly()
        lead_inv = other.lead.inverse()
        rem = list(self._coeffs)
        dq = len(self._coeffs) - len(other._coeffs)
        quot = [None] * (dq + 1)
        for k in range(dq, -1, -1):
            c = rem[k + len(other._coeffs) - 1] * lead_inv
            quot[k] = c
            if c:
                for j, b in enumerate(other._coeffs):
                    rem[k + j] = rem[k + j] - c * b
        return Poly(quot), Poly(rem[: len(other._coeffs) - 1])

    def __floordiv__(self, other: Poly) -> Poly:
        return divmod(self, other)[0]

    def __mod__(self, other: Poly) -> Poly:
        return divmod(self, other)[1]

    def divexact(self, other: Poly) -> Poly:
        """Exact quotient; raises ExactDivisionError if a remainder is left."""
        q, r = divmod(self, other)
        if r:
            raise ExactDivisionError(
                f"inexact division: remainder of degree {r.degree}", remainder=r
            )
        return q

    def __eq__(self, other) -> bool:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self._coeffs == rhs._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    # -- evaluation & maps -------------------------------------------------

    def __call__(self, x) -> Scalar:
        x = self.scalar(x)
        acc = as_scalar(0, x)
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return acc

    def monic(self) -> Poly:
        if not self:
            return self
        inv = self.lead.inverse()
        return Poly([c * inv for c in self._coeffs])

    def embed(self, prec: int) -> Poly:
        """Exact polynomial to the numeric backend at the given precision."""
        return Poly(
            [
                c.to_numeric(prec) if isinstance(c, Exact) else c
                for c in self._coeffs
            ]
        )

    def coeff_sup(self) -> float:
        """Sup of coefficient magnitudes (numeric measure of smallness), for
        reports only: capped at the largest finite float (valid JSON), at least
        math.ulp(0.0) when nonzero (never a false 0); ``negligible`` decides."""
        sup = 0.0
        for c in self._coeffs:
            mag = c.magnitude() if isinstance(c, Numeric) else abs(complex(c))
            sup = max(sup, mag if mag or not c else math.ulp(0.0))
        return min(sup, sys.float_info.max)

    def negligible(self, tol=None) -> bool:
        """Zero within tolerance: every coefficient is negligible by the
        scalar rule (``Scalar.negligible``) at one tolerance, by default
        2^(-prec/2) at the widest coefficient.  So the zero polynomial is
        negligible, a nonzero exact one never, and a numeric one when its
        coefficient sup is below ``tol``."""
        if tol is None and self.backend == "numeric":
            tol = max(self._coeffs, key=attrgetter("prec")).default_tolerance()
        return all(c.negligible(tol) for c in self._coeffs)

    # -- text & JSON -------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"coeffs": [c.text() for c in self._coeffs]}

    def expr_text(self) -> str:
        """Render in the expression grammar; reparsing yields an equal Poly."""
        if not self._coeffs:
            return "0"
        pieces: list[str] = []
        for k in range(len(self._coeffs) - 1, -1, -1):
            c = self._coeffs[k]
            if not c:
                continue
            pieces.append(_term_text(c, k))
        out = pieces[0]
        for piece in pieces[1:]:
            if piece.startswith("-"):
                out += " - " + piece[1:]
            else:
                out += " + " + piece
        return out

    def __str__(self) -> str:
        return self.expr_text()

    def __repr__(self) -> str:
        return f"Poly({self.expr_text()!r})"


def _scalar_expr(c: Scalar) -> tuple[str, bool]:
    """Expression text for a scalar plus a flag: is it a single product term."""
    if isinstance(c, Numeric):
        return c.text(), True
    parts: list[str] = []
    terms = c.terms
    for key in sorted(terms, key=_key_sort):  # canonical term order
        coeff = terms[key]
        n, has_i = _key_sort(key)
        factors = []
        if abs(coeff) != 1 or (not has_i and n == 1):
            body = int_text(abs(coeff.numerator))
            if coeff.denominator != 1:
                body += f"/{int_text(coeff.denominator)}"
            factors.append(body)
        if has_i:
            factors.append("i")
        if n != 1:
            factors.append(f"sqrt({n})")
        parts.append(("-" if coeff < 0 else "+") + "*".join(factors))
    if not parts:
        return "0", True
    text = parts[0][1:] if parts[0][0] == "+" else parts[0]
    for p in parts[1:]:
        text += f" {p[0]} {p[1:]}"
    return text, len(parts) == 1


def _term_text(c: Scalar, k: int) -> str:
    power = "" if k == 0 else ("z" if k == 1 else f"z^{k}")
    if not power:
        text, _ = _scalar_expr(c)
        return text
    if isinstance(c, Exact):
        if c == 1:
            return power
        if c == -1:
            return "-" + power
    text, single = _scalar_expr(c)
    if not single:
        return f"({text})*{power}"
    return f"{text}*{power}"


class FactoredPoly:
    """Leading coefficient plus multiset of (root, multiplicity)."""

    __slots__ = ("_lead", "_roots")

    def __init__(self, lead, roots: Iterable[tuple[Scalar, int]] = ()):
        if not isinstance(lead, Scalar):
            lead = Exact.from_rational(lead)
        if not lead:
            raise ValueError("factored polynomial needs a nonzero lead")
        # Exact and Numeric hash consistently with ==; a dict keeps the
        # first-seen root object and order, and the stable sort keeps that
        # order among roots with the same text.
        merged: dict[Scalar, int] = {}
        for root, mult in roots:
            if mult < 1:
                raise ValueError("multiplicities must be >= 1")
            root = as_scalar(root, lead)
            merged[root] = merged.get(root, 0) + mult
        ordered = sorted(merged.items(), key=lambda rm: rm[0].text())
        object.__setattr__(self, "_lead", lead)
        object.__setattr__(self, "_roots", tuple(ordered))

    def __setattr__(self, name, value):
        raise AttributeError("FactoredPoly values are immutable")

    @property
    def lead(self) -> Scalar:
        return self._lead

    @property
    def roots(self) -> tuple[tuple[Scalar, int], ...]:
        return self._roots

    @property
    def backend(self) -> str:
        return self._lead.backend

    @property
    def degree(self) -> int:
        return sum(m for _, m in self._roots)

    def distinct_roots(self) -> list[Scalar]:
        return [r for r, _ in self._roots]

    def ord_at(self, w: Scalar) -> int:
        """Multiplicity of the zero at w (0 when w is not a root)."""
        for r, m in self._roots:
            if r == w:
                return m
        return 0

    def expand(self) -> Poly:
        return product(
            [Poly.constant(self._lead)]
            + [Poly.linear(root) for root, mult in self._roots for _ in range(mult)]
        )

    def scale(self, factor) -> FactoredPoly:
        return FactoredPoly(self._lead * factor, self._roots)

    def times(self, other: FactoredPoly) -> FactoredPoly:
        if self.backend != other.backend:
            raise BackendMismatchError("factored polynomials mix backends")
        return FactoredPoly(
            self._lead * other._lead, list(self._roots) + list(other._roots)
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, FactoredPoly):
            return NotImplemented
        return self._lead == other._lead and self._roots == other._roots

    def __hash__(self) -> int:
        return hash((self._lead, self._roots))

    def to_json_dict(self) -> dict:
        return {
            "lead": self._lead.text(),
            "roots": [[r.text(), m] for r, m in self._roots],
        }

    def __repr__(self) -> str:
        inner = ", ".join(f"({r.text()}):{m}" for r, m in self._roots)
        return f"FactoredPoly(lead={self._lead.text()}, roots=[{inner}])"


def classical_rad(f: FactoredPoly) -> Poly:
    """Monic product of z - r over the distinct roots of f."""
    return product(
        [Poly.constant(as_scalar(1, f.lead))]
        + [Poly.linear(r) for r in f.distinct_roots()]
    )


def product(polys: Iterable[Poly]) -> Poly:
    """Product of the factors; the constant 1 when there are none.

    Exact factors multiply on the lane as a balanced tree, so that the large
    operands meet last, where ``_mul_ints`` switches to Kronecker
    multiplication.  Numeric factors are folded left to right with ``*``,
    which keeps their rounding that of repeated multiplication.
    """
    factors = list(polys)
    if not factors:
        return Poly.constant(1)
    lanes = [_to_lane(f) for f in factors]
    if None in lanes:
        return reduce(mul, factors)
    while len(lanes) > 1:
        paired = [a * b for a, b in zip(lanes[::2], lanes[1::2])]
        lanes = paired + lanes[len(paired) * 2 :]
    return lanes[0].to_poly()


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic greatest common divisor.

    Rational inputs run the heuristic gcd ``_heu_gcd`` on the ints of their
    lanes.  Radical inputs, and rational ones on which the heuristic gives
    up, run the Euclidean algorithm on lanes: each divisor is brought to a
    rational lead and to primitive ints (``_Lane.rational_lead``), the
    remainder comes from ``_Lane.__mod__``, and the result is made monic
    once at the end.  Numeric inputs are refused.
    """
    if not p and not q:
        raise ValueError("gcd(0, 0) is undefined")
    if (p and p.backend == "numeric") or (q and q.backend == "numeric"):
        raise BackendMismatchError("polynomial gcd requires the exact backend")
    a, b = _to_lane(p), _to_lane(q)
    if a.terms.keys() | b.terms.keys() <= {_ONE_KEY}:
        ints = [_primitive(x.terms.get(_ONE_KEY, [])) for x in (a, b)]
        g = _gcd_ints(*ints)
        if g is not None:
            return _Lane({_ONE_KEY: g}, g[-1]).to_poly()
    a, b = a.rational_lead(), b.rational_lead()
    while b:
        a, b = b, (a % b).rational_lead()
    return _Lane(a.terms, a.terms[_ONE_KEY][-1]).to_poly()


# -- the lane ----------------------------------------------------------------------
#
# Inside a kernel, an exact polynomial over Q(i, sqrt(p), ...) is split by
# radical key into integer coefficient lists over one common denominator:
# p = sum(key * ints(z) for key, ints in terms.items()) / den.  Q[z] is the
# one-key case, so rational and radical inputs run the same integer code.  A
# kernel makes its lanes once at entry (_to_lane) and turns the result back
# into Exact coefficients once at exit (_Lane.to_poly); Poly itself keeps one
# representation, and numeric polynomials have no lane.

# Operands this short or shorter multiply term by term: against 16 to 256
# coefficients of up to 64 bits, Kronecker multiplication wins from about
# 8 to 12 coefficients (CPython 3.11, one Intel Xeon core).
SCHOOLBOOK_MAX = 8
HEU_GCD_ROUNDS = 6  # evaluation points _heu_gcd tries before giving up
# Divisor pairs (constant term, leading term) the rational-root search may
# try; d(a0) * d(an) is known from the prime factors before any is listed.
MAX_CANDIDATES = 10**7


class _Lane:
    """An exact polynomial as integer lists per radical key over one nonzero
    denominator (see the comment above).  Each list runs from z^0 up and ends
    in a nonzero entry, and a key with no terms has no list; the constructor
    trims the lists it is given in place and keeps them.

    Supports +, -, *, divmod, %, divexact and bool, so the determinant
    routines run on lanes as on Polys.
    """

    __slots__ = ("terms", "den")

    def __init__(self, terms: dict[Key, list[int]] | None = None, den: int = 1):
        terms = {} if terms is None else terms
        for ints in terms.values():
            while ints and not ints[-1]:
                ints.pop()
        if not all(terms.values()):
            terms = {key: ints for key, ints in terms.items() if ints}
        self.terms = terms
        self.den = den

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def degree(self) -> int:
        return max(map(len, self.terms.values())) - 1

    def lead(self) -> dict[Key, int]:
        """The leading coefficient, times den, as {key: int}."""
        d = self.degree
        return {key: ints[d] for key, ints in self.terms.items() if len(ints) > d}

    def to_poly(self) -> Poly:
        """The Poly with these Exact coefficients."""
        cells: list[dict[Key, Fraction]] = [
            {} for _ in range(max(map(len, self.terms.values()), default=0))
        ]
        for key, ints in self.terms.items():
            for k, c in enumerate(ints):
                if c:
                    cells[k][key] = Fraction(c, self.den)
        return Poly(map(Exact, cells))

    def over(self, den: int) -> _Lane:
        """The same polynomial over den, a multiple of self.den."""
        f = den // self.den
        return _Lane({key: [f * c for c in ints] for key, ints in self.terms.items()}, den)

    def primitive(self) -> _Lane:
        """The ints divided by their content, over den 1: a rational
        multiple of self."""
        g = math.gcd(*(c for ints in self.terms.values() for c in ints))
        return _Lane({key: [c // g for c in ints] for key, ints in self.terms.items()})

    def lead_conjugate(self) -> tuple[_Lane, int]:
        """(conj, n): a constant lane and an integer n > 0 with
        lead() * conj = n, from the conjugate tower (``norm_conjugate``)."""
        conj, n = norm_conjugate(self.lead())
        sign = 1 if n > 0 else -1
        return _Lane({key: [sign * c] for key, c in conj.items()}), sign * n

    def rational_lead(self) -> _Lane:
        """A primitive rational multiple of self whose lead is a positive
        integer: self times the conjugates of its lead."""
        if not self:
            return self
        return (self * self.lead_conjugate()[0]).primitive()

    def __neg__(self) -> _Lane:
        return _Lane({key: [-c for c in ints] for key, ints in self.terms.items()}, self.den)

    def __add__(self, other: _Lane) -> _Lane:
        den = math.lcm(self.den, other.den)
        out = self.over(den).terms
        for key, ints in other.over(den).terms.items():
            acc = out.setdefault(key, [])
            acc.extend([0] * (len(ints) - len(acc)))
            for k, c in enumerate(ints):
                acc[k] += c
        return _Lane(out, den)

    def __sub__(self, other: _Lane) -> _Lane:
        return self + (-other)

    def __mul__(self, other: _Lane) -> _Lane:
        """_mul_ints on each pair of keys, merged by _key_mul."""
        out: dict[Key, list[int]] = {}
        for k1, a in self.terms.items():
            for k2, b in other.terms.items():
                factor, key = _key_mul(k1, k2)
                acc = out.setdefault(key, [])
                acc += [0] * (len(a) + len(b) - 1 - len(acc))
                _mul_ints(acc, a, b, factor)
        return _Lane(out, self.den * other.den)

    def __divmod__(self, other: _Lane) -> tuple[_Lane, _Lane]:
        """Pseudo-division by the divisor made monic.

        With conj from the conjugate tower of the divisor's lead, B = other
        ints * conj has the positive integer lead n and no other key at the
        top.  Each step takes the top coefficient t of the remainder, scales
        remainder and quotient by s = n / gcd(n, t) (1 whenever n divides t)
        and subtracts (t s / n) z^k B.  That keeps S * A = Q * B + R on ints
        for the product S of the scales, so self = q * other + r with
        q = Q * conj * other.den / (S * self.den) and r = R / (S * self.den).
        """
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        n = other.degree
        if not self or self.degree < n:
            return _Lane(), self
        conj, norm = other.lead_conjugate()
        divisor = _Lane(other.terms) * conj
        top = self.degree
        rem = {key: ints + [0] * (top + 1 - len(ints)) for key, ints in self.terms.items()}
        quot: dict[Key, list[int]] = {}
        scale = 1
        for k in range(top - n, -1, -1):
            tops = [(key, ints[k + n]) for key, ints in rem.items() if ints[k + n]]
            if not tops:
                continue
            g = math.gcd(norm, *(c for _, c in tops))
            if g != norm:
                s = norm // g
                scale *= s
                for part in (rem, quot):
                    for ints in part.values():
                        ints[:] = [s * c for c in ints]
            for key, c in tops:
                c //= g
                quot.setdefault(key, [0] * (top - n + 1))[k] = c
                for key2, bs in divisor.terms.items():
                    factor, key3 = _key_mul(key, key2)
                    row = rem.get(key3)
                    if row is None:
                        row = rem[key3] = [0] * (top + 1)
                    fc = factor * c
                    for j, b in enumerate(bs, k):
                        if b:
                            row[j] -= fc * b
        den = scale * self.den
        quot = {key: [c * other.den for c in ints] for key, ints in quot.items()}
        return _Lane(quot, den) * conj, _Lane({key: ints[:n] for key, ints in rem.items()}, den)

    def __mod__(self, other: _Lane) -> _Lane:
        return divmod(self, other)[1]

    def divexact(self, other: _Lane) -> _Lane:
        """Exact quotient with den reduced against the content; raises
        ExactDivisionError if a remainder is left."""
        q, r = divmod(self, other)
        if r:
            raise ExactDivisionError(
                f"inexact division: remainder of degree {r.degree}", remainder=r.to_poly()
            )
        g = math.gcd(q.den, *(c for ints in q.terms.values() for c in ints))
        return _Lane({key: [c // g for c in ints] for key, ints in q.terms.items()}, q.den // g)


def _to_lane(p: Poly) -> _Lane | None:
    """p on the lane, or None when p has a numeric coefficient."""
    cs = p.coeffs
    parts: dict[Key, list] = {}  # Fractions, and int 0 where a key is absent
    for k, c in enumerate(cs):
        if not isinstance(c, Exact):
            return None
        for key, f in c._terms.items():
            part = parts.get(key)
            if part is None:
                part = parts[key] = [0] * len(cs)
            part[k] = f
    den = math.lcm(*[f.denominator for part in parts.values() for f in part])
    return _Lane(
        {key: [f.numerator * (den // f.denominator) for f in part] for key, part in parts.items()},
        den,
    )


def _primitive(cs: list[int]) -> list[int]:
    g = math.gcd(*cs) or 1
    return [c // g for c in cs]


def _root_bound_exp(ints: list[int]) -> int:
    """e with every complex root of sum(ints[k] * z^k) at most 2^e in modulus.

    Fujiwara's bound 2 * max_k |a_{n-k} / a_n|^(1/k), without its /2 on the
    constant term (which only widens it), rounded up to a power of two from
    bit lengths alone: |a_{n-k} / a_n| < 2^(len(a_{n-k}) - len(a_n) + 1).
    """
    n = len(ints) - 1
    top = abs(ints[n]).bit_length() - 1
    return 1 + max(
        -((top - abs(a).bit_length()) // k)
        for k, a in enumerate(reversed(ints[:n]), 1)
        if a
    )


def _pack(cs: list[int], width: int) -> int:
    """cs evaluated at 2^(8*width): Kronecker substitution.  Up to 16 digits
    fold in by shift-and-add; longer lists join their packed halves with one
    shift, so the cost is not quadratic in the length."""
    bits = 8 * width
    if len(cs) <= 16:
        out = 0
        for c in reversed(cs):
            out = (out << bits) + c
        return out
    h = len(cs) // 2
    return (_pack(cs[h:], width) << (bits * h)) + _pack(cs[:h], width)


def _unpack(x: int, width: int) -> list[int]:
    """Signed base-2^(8*width) digits of x, lowest first, each in the
    balanced range [-2^(8*width-1), 2^(8*width-1)); inverse of _pack."""
    chunks = -(-(x.bit_length() + 1) // (8 * width))
    raw = x.to_bytes(chunks * width, "little", signed=True)
    base = 1 << (8 * width)
    half = base >> 1
    out = []
    carry = 0
    for k in range(0, len(raw), width):
        c = int.from_bytes(raw[k : k + width], "little") + carry
        carry = c >= half
        out.append(c - base if carry else c)
    out.append(carry - (x < 0))
    while out and not out[-1]:
        out.pop()
    return out


def _mul_ints(acc: list[int], a: list[int], b: list[int], factor: int = 1) -> None:
    """acc += factor * a * b for integer coefficient lists; acc is long
    enough for the product.

    Short operands multiply term by term.  Longer ones are packed into one
    integer each at a radix 2^(8*width) that holds every product coefficient
    as a signed digit, multiplied by CPython's big-int multiplication
    (Karatsuba), and read back digit by digit (Kronecker substitution).
    """
    if not a or not b:
        return
    if min(len(a), len(b)) <= SCHOOLBOOK_MAX:
        for i, x in enumerate(a):
            if x:
                x *= factor
                for j, y in enumerate(b, i):
                    acc[j] += x * y
        return
    bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
    width = (bound.bit_length() + 8) // 8
    prod = _unpack(_pack(a, width) * _pack(b, width), width)
    acc[: len(prod)] = [x + factor * c for x, c in zip(acc, prod)]


def _divexact_ints(a: list[int], b: list[int]) -> list[int] | None:
    """a / b over Z, or None when b does not divide a there."""
    n = len(b) - 1
    if len(a) <= n:
        return None if a else []
    r = a[:]
    lead = b[-1]
    q = [0] * (len(a) - n)
    for k in range(len(q) - 1, -1, -1):
        c, rem = divmod(r[k + n], lead)
        if rem:
            return None
        q[k] = c
        if c:
            for j in range(n):
                r[k + j] -= c * b[j]
    return None if any(r[:n]) else q


def _gcd_ints(a: list[int], b: list[int]) -> list[int] | None:
    """Primitive gcd of two primitive integer polynomials, not both zero, or
    None when the heuristic gives up."""
    if not a or not b:
        return a or b
    if len(a) == 1 or len(b) == 1:
        return [1]
    return _heu_gcd(a, b)


def _heu_gcd(a: list[int], b: list[int]) -> list[int] | None:
    """GCDHEU (Char, Geddes & Gonnet 1989) on primitive a, b of degree >= 1.

    Evaluates both at xi = 2^(8*width) >= 2*min(|a|_inf, |b|_inf) + 29, takes
    the integer gcd of the two values, and reads a candidate gcd off its
    balanced xi-adic digits; the two cofactors give two more candidates, as
    in sympy's dup_zz_heu_gcd.  For xi this large a candidate that divides
    both inputs over Z is the gcd, and exact division is checked before one
    is accepted.  Returns None after HEU_GCD_ROUNDS growing evaluation points
    without success.
    """
    bound = 2 * min(max(map(abs, a)), max(map(abs, b))) + 29
    width = (bound.bit_length() + 7) // 8
    for _ in range(HEU_GCD_ROUNDS):
        va, vb = _pack(a, width), _pack(b, width)
        if va and vb:  # xi may be a root of the input with the larger norm
            g = math.gcd(va, vb)
            h = _primitive(_unpack(g, width))
            if _divexact_ints(a, h) is not None and _divexact_ints(b, h) is not None:
                return h
            for x, y, vx in ((a, b, va), (b, a, vb)):
                h = _divexact_ints(x, _unpack(vx // g, width))
                if h is not None and _divexact_ints(y, h) is not None:
                    return h
        width += width // 4 + 1
    return None


def exact_sqrt(d: Exact) -> Exact | None:
    """A square root of an exact scalar inside a radical field, or None.

    A rational d = p/q has the root sqrt(|p| q) / q, times i when d < 0.
    Otherwise one generator g of d (i or sqrt(prime)) is taken out at a
    time: d = u + v g with u, v free of g and g^2 = c rational.  A root
    x = a + b g has a^2 + c b^2 = u and 2 a b = v, so a^2 solves
    A^2 - u A + c v^2 / 4 = 0, whose roots (u +- s) / 2 need a square root
    s of u^2 - c v^2 in the smaller field.  Then a is a square root of A,
    found the same way, and b = v / (2 a).  A candidate is returned only if
    x * x == d; when none passes, the result is None.
    """
    if not d:
        return Exact()
    fr = d.as_fraction()
    if fr is not None:
        p, q = fr.numerator, fr.denominator
        root = Exact.sqrt_int(abs(p) * q) * Fraction(1, q)
        return root * Exact.i() if p < 0 else root
    gens = d.generators()
    g = min(gens, key=str)
    u, v = {}, {}
    for (has_i, primes), coeff in d.terms.items():
        if g == "i":
            part, key = (v if has_i else u), (False, primes)
        else:
            part, key = (v if g in primes else u), (has_i, primes - {g})
        part[key] = coeff
    u, v = Exact(u), Exact(v)
    gen = Exact.i() if g == "i" else Exact.sqrt_int(g)
    s = _inner_sqrt(u * u - v * v * (gen * gen))
    if s is None or not s.generators() <= gens - {g}:
        return None  # outside the smaller field, where the recursion ends
    for a2 in ((u + s) * Fraction(1, 2), (u - s) * Fraction(1, 2)):
        a = _inner_sqrt(a2) if a2 else None
        if a is not None:
            x = a + v / (a * 2) * gen
            if x * x == d:
                return x
    return None


def _inner_sqrt(d: Exact) -> Exact | None:
    """exact_sqrt inside the recursion, where a rational radicand that trial
    division cannot split counts as no root: the caller then refuses d as
    outside the radical field, or tries its other candidate."""
    try:
        return exact_sqrt(d)
    except RootsUnavailableError:
        return None


def _factor_exact(p: Poly) -> FactoredPoly:
    lead = p.lead
    roots: list[tuple[Scalar, int]] = []
    rem = p.monic()
    k = next(i for i, c in enumerate(rem.coeffs) if c)
    if k:
        roots.append((Exact.from_rational(0), k))
        rem = Poly(rem.coeffs[k:])
    lane = _to_lane(rem)
    if lane.terms.keys() == {_ONE_KEY}:
        # Rational roots on the integer lane.  By Gauss's lemma the primitive
        # d*z - s divides the primitive ints over Z exactly when s/d is a
        # root, so one exact division both tests a candidate and deflates.
        ints = _primitive(lane.terms[_ONE_KEY])
        if len(ints) > 2:  # a linear leftover skips the divisor listing
            # every root has |s/d| <= 2^bound, so larger candidates skip the
            # division; shifting both sides keeps bound < 0 exact
            bound = _root_bound_exp(ints)
            up, down = max(bound, 0), max(-bound, 0)
            tops, bottoms = prime_factors(abs(ints[0])), prime_factors(abs(ints[-1]))
            count = math.prod(e + 1 for f in (tops, bottoms) for e in f.values())
            if count > MAX_CANDIDATES:
                raise RootsUnavailableError(
                    f"{count} rational root candidates exceed {MAX_CANDIDATES}; "
                    "supply factored input as roots(lead; r:m, ...)"
                )
            for s in _divisors(tops):
                if len(ints) <= 2:
                    break  # the tail takes a linear leftover
                if ints[0] % s:
                    continue  # s/d is no root of what is left
                for d in _divisors(bottoms):
                    if ints[-1] % d or math.gcd(s, d) != 1 or s << down > d << up:
                        continue
                    for t in (s, -s):
                        m = 0
                        while (q := _divexact_ints(ints, [-t, d])) is not None:
                            ints, m = q, m + 1
                        if m:
                            roots.append((Exact.from_rational(Fraction(t, d)), m))
        rem = _Lane({_ONE_KEY: ints}, ints[-1]).to_poly()

    if rem.degree == 1:
        roots.append((-rem.coeff(0), 1))
        rem = Poly.constant(1)
    elif rem.degree == 2:
        b, a = rem.coeff(1), rem.coeff(2)
        c0 = rem.coeff(0)
        disc = b * b - 4 * a * c0
        sq = exact_sqrt(disc)
        if sq is None:
            raise RootsUnavailableError(
                "quadratic discriminant is outside the radical field; "
                "pass the roots explicitly"
            )
        inv2a = (a * 2).inverse()
        r1 = (-b + sq) * inv2a
        r2 = (-b - sq) * inv2a
        if r1 == r2:
            roots.append((r1, 2))
        else:
            roots.append((r1, 1))
            roots.append((r2, 1))
        rem = Poly.constant(1)

    if rem.degree >= 1:
        raise RootsUnavailableError(
            f"roots unavailable for exact factor of degree {rem.degree}; "
            "supply factored input as roots(lead; r:m, ...)"
        )
    out = FactoredPoly(lead, roots)
    if out.expand() != p:  # pragma: no cover - internal consistency guard
        raise ArithmeticError("factorization verification failed")
    return out


def _divisors(factors: dict[int, int]) -> Iterator[int]:
    """The divisors of prod p^e over factors {p: e}, one at a time."""
    if not factors:
        yield 1
        return
    (p, e), *rest = factors.items()
    for d in _divisors(dict(rest)):
        for k in range(e + 1):
            yield d * p**k


def factor(p: Poly) -> FactoredPoly:
    """Factor an exact polynomial into (lead, root multiset).

    The zero root is split off first, whatever the coefficients; other
    rational roots are found on the integer lane, where each candidate s/d
    divides the primitive integer polynomial by d*z - s exactly or not at
    all.  The candidates come from the prime factors of the constant and
    leading terms (``prime_factors``), and one above Fujiwara's root bound is
    skipped undivided; more than MAX_CANDIDATES divisor pairs, or a term
    trial division cannot factor, raise RootsUnavailableError.  The linear
    or quadratic leftover then goes through the quadratic formula over the
    radical field, and degree >= 3 leftovers raise RootsUnavailableError.  A
    lane with a radical key skips the rational-root search and goes straight
    to that tail.  Numeric input raises BackendMismatchError, as in
    ``poly_gcd``: numeric roots come from exact ones or in closed form.
    """
    if not p:
        raise ValueError("cannot factor the zero polynomial")
    if p.backend == "numeric":
        raise BackendMismatchError("factoring requires the exact backend")
    if p.degree == 0:
        return FactoredPoly(p.lead)
    return _factor_exact(p)
