"""Exact scalar arithmetic, and the printed form of its values.

* :class:`Exact` — the one scalar that computes: an element of the field
  Q(i, sqrt(p1), sqrt(p2), ...), stored as ints per radical key over one
  denominator, in lowest terms: the one-coefficient case of the polynomial
  lane (``poly._Lane``), so scalars and lanes cross by copying ints.  A
  radical key is a pair ``(has_i, primes)``: the imaginary unit flag and a
  frozen set of prime radicands.  Every product of generators reduces
  canonically (i*i = -1, sqrt(p)*sqrt(p) = p, sqrt(a)*sqrt(b) = sqrt(ab)
  with square parts pulled into the rational), so structural equality
  coincides with equality of the complex values.  Declared radicands such as
  sqrt(6) live on the product key {2, 3}; products of distinct prime square
  roots are linearly independent over Q, which keeps the representation
  canonical under any mixing.  ``Exact._coerce`` is the one conversion
  point: an int or a Fraction converts, and a float, complex or str is no
  exact value.

* :class:`Numeric` — an arbitrary-precision complex value built on raw
  mpmath mantissa/exponent tuples, the printed form of an exact value
  (``Exact.to_numeric``) at a precision (>= 64 bits) set per value.  It is
  an output value, like ``poly.NumericPoly``: text, ``complex``, ``==`` and
  ``hash``.  Its one arithmetic method, ``__mul__``, stays only because the
  benchmark's tracer (perfbench/spans.py) counts its calls by name.
  Conversion rounds on ints, as mpmath would; mpmath itself is imported for
  numeric values only (``_libmp``), not with diffrad.

An arithmetic operation that meets a Numeric raises
:class:`BackendMismatchError` (from ``Exact._coerce``); conversion is
explicit via :meth:`Exact.to_numeric`.  Comparing an Exact and a Numeric
with ``==`` is False, not an error.
"""

from __future__ import annotations

import functools
import math
import sys
from fractions import Fraction
from typing import Iterator, Union

from .errors import BackendMismatchError, RootsUnavailableError

RND = "n"  # mpmath's round_nearest: ties to even
_HASH_MODULUS = sys.hash_info.modulus
FZERO = (0, 0, 0, 0)  # mpmath's raw zero


def _libmp():
    """mpmath's raw arithmetic, imported on first use, as numeric values are
    output only and the import costs about a fifth of a CLI call."""
    from mpmath import libmp
    return libmp


# Radical key: (imaginary-unit flag, frozen set of prime radicands).
Key = tuple[bool, frozenset[int]]

_ONE_KEY: Key = (False, frozenset())
_I_KEY: Key = (True, frozenset())

RationalLike = Union[int, Fraction]


TRIAL_LIMIT = 10**6  # largest trial divisor prime_factors tries


def prime_factors(n: int) -> dict[int, int]:
    """{p: e} with n = prod p^e, for n >= 1, by trial division.

    Divisors up to TRIAL_LIMIT are tried.  What is left after that is 1 or a
    prime only when it is below the square of the next divisor; a cofactor
    that may still be composite raises RootsUnavailableError, so the cost
    stays bounded whatever the size of n.
    """
    if n < 1:
        raise ValueError(f"can only factor n >= 1, got {n}")
    out: dict[int, int] = {}
    p = 2
    while p <= TRIAL_LIMIT and p * p <= n:
        while n % p == 0:
            n //= p
            out[p] = out.get(p, 0) + 1
        p += 1 if p == 2 else 2
    if p * p <= n:
        raise RootsUnavailableError(
            f"trial division up to {TRIAL_LIMIT} leaves a cofactor of "
            f"{n.bit_length()} bits that may be composite"
        )
    if n > 1:
        out[n] = 1
    return out


def power(base, exponent: int, one):
    """base ** exponent for exponent >= 0 by square-and-multiply from `one`.

    The result takes popcount(exponent) products, in ascending bit order, and
    the base is squared bit_length(exponent) - 1 times: never after the last
    bit.  Shared by Exact and Poly.
    """
    out = one
    while exponent:
        if exponent & 1:
            out = out * base
        exponent >>= 1
        if exponent:
            base = base * base
    return out


@functools.lru_cache(maxsize=4096)  # inputs use few distinct key pairs
def _key_mul(k1: Key, k2: Key) -> tuple[int, Key]:
    """Multiply two radical keys; returns (rational factor, reduced key)."""
    i1, p1 = k1
    i2, p2 = k2
    factor = -1 if (i1 and i2) else 1
    for p in p1 & p2:
        factor *= p
    return factor, (i1 ^ i2, p1 ^ p2)


def _key_gens(key: Key) -> set[object]:
    """Generators of a key: "i" and/or its prime radicands."""
    has_i, primes = key
    return {"i", *primes} if has_i else set(primes)


def _vec_mul(x: dict[Key, int], y: dict[Key, int]) -> dict[Key, int]:
    """Product of two elements of the integer span of the radical keys."""
    out: dict[Key, int] = {}
    for k1, c1 in x.items():
        for k2, c2 in y.items():
            factor, key = _key_mul(k1, k2)
            out[key] = out.get(key, 0) + factor * c1 * c2
    return {key: c for key, c in out.items() if c}


def norm_conjugate(vec: dict[Key, int]) -> tuple[dict[Key, int], int]:
    """(conj, n) with vec * conj = n, a nonzero integer, for nonzero vec.

    The conjugate tower on ints: multiply by the conjugate over each
    generator in turn (negate the keys that contain it); every step removes
    that generator from the running product, which ends rational because
    the radical basis is linearly independent over Q.  So 1/vec = conj/n.
    """
    conj = {_ONE_KEY: 1}
    norm = vec
    for gen in sorted(set().union(*map(_key_gens, vec)), key=str):
        flip = {key: -c if gen in _key_gens(key) else c for key, c in norm.items()}
        conj = _vec_mul(conj, flip)
        norm = _vec_mul(norm, flip)
    if norm.keys() != {_ONE_KEY}:  # pragma: no cover - independence guarantee
        raise ArithmeticError("norm computation failed")
    return conj, norm[_ONE_KEY]


def int_text(n: int) -> str:
    """Decimal text of an int of any size.

    CPython 3.11 (and 3.10.7 on) refuses to write an int of more than 4300
    digits by default (sys.set_int_max_str_digits).  Such an int is split by
    a power of ten into two halves, each written the same way, so no
    process-wide setting is changed.
    """
    try:
        return str(n)
    except ValueError:
        k = abs(n).bit_length() * 3 // 20  # about half the digits (log10 2 > 0.3)
        high, low = divmod(abs(n), 10**k)
        return ("-" if n < 0 else "") + int_text(high) + int_text(low).zfill(k)


def _nearest(man: int, exp: int, bits: int) -> tuple[int, int]:
    """man * 2^exp rounded to `bits` bits, ties to even.  Callers append a
    sticky low bit, set when the exact value lies above, so no near tie
    reads as an exact one."""
    drop = abs(man).bit_length() - bits
    if drop <= 0:
        return man, exp
    q, r = divmod(abs(man), 1 << drop)
    half = 1 << (drop - 1)
    q += r > half or (r == half and q & 1)
    return (q if man > 0 else -q), exp + drop


def _truncated_float(man: int, exp: int) -> float:
    """man * 2^exp as a float, truncated to 53 bits toward zero, or inf."""
    drop = max(abs(man).bit_length() - 53, 0)
    try:
        return math.ldexp(abs(man) >> drop, exp + drop) * (1 if man >= 0 else -1)
    except OverflowError:
        return math.copysign(math.inf, man)


def _mpf(man: int, exp: int) -> tuple:
    """man * 2^exp as mpmath's raw mpf: (sign, odd mantissa, exponent, bits)."""
    if not man:
        return FZERO
    zeros = (man & -man).bit_length() - 1
    return (int(man < 0), abs(man) >> zeros, exp + zeros, (abs(man) >> zeros).bit_length())


def _key_sort(key: Key) -> tuple[int, bool]:
    has_i, primes = key
    n = 1
    for p in primes:
        n *= p
    return n, has_i


class Exact:
    """Immutable element of Q(i, sqrt(p), ...), the one-coefficient case of
    the lane (``poly._Lane``): ints per radical key over one den, in lowest
    terms (den > 0, gcd(den, *ints) = 1, no zero entry), so that equal
    values have equal state.  ``Exact(terms)`` takes {key: int | Fraction},
    in one pass over the lcm of their denominators: lowest as built, as some
    int is prime to each prime power of the lcm."""

    __slots__ = ("_ints", "_den")

    def __init__(self, terms: dict[Key, RationalLike] | None = None):
        ints, den = {}, 1
        for key, c in (terms or {}).items():
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"coefficient of {key} is {c!r}, not an int or a Fraction")
            if not c:
                continue
            d = c.denominator
            if den % d:
                f = d // math.gcd(den, d)
                ints = {k: f * v for k, v in ints.items()}
                den *= f
            ints[key] = c.numerator * (den // d)
        object.__setattr__(self, "_ints", ints)
        object.__setattr__(self, "_den", den)

    @classmethod
    def _of(cls, ints: dict[Key, int], den: int = 1) -> Exact:
        """ints / den (den != 0) in lowest terms: every computed value."""
        g = math.gcd(den, *ints.values()) * (1 if den > 0 else -1)
        if g != 1 or not all(ints.values()):
            ints, den = {key: c // g for key, c in ints.items() if c}, den // g
        out = object.__new__(cls)
        object.__setattr__(out, "_ints", ints)
        object.__setattr__(out, "_den", den)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("Exact values are immutable")

    @staticmethod
    def _coerce(value) -> Exact | None:
        """value as an Exact, the one conversion point: an Exact passes
        through, an int or a Fraction converts, a Numeric raises
        BackendMismatchError, and anything else is None (no operand)."""
        if type(value) is Exact:
            return value
        if isinstance(value, (int, Fraction)):
            return Exact.from_rational(value)
        if isinstance(value, Numeric):
            raise BackendMismatchError(
                "cannot mix exact and numeric scalars; convert explicitly (Exact.to_numeric)"
            )
        return None

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rational(cls, value: RationalLike) -> Exact:
        """An int or a Fraction; a float, complex or str raises TypeError."""
        if isinstance(value, int):
            return cls._of({_ONE_KEY: value})
        if isinstance(value, Fraction):
            return cls._of({_ONE_KEY: value.numerator}, value.denominator)
        raise TypeError(f"{value!r} is not an int or a Fraction")

    @classmethod
    def i(cls) -> Exact:
        return cls._of({_I_KEY: 1})

    @classmethod
    def sqrt_int(cls, n: int) -> Exact:
        """Square root of an integer; negative n contributes a factor i.
        Only a non-square |n| is factored (``prime_factors``)."""
        root = math.isqrt(abs(n))
        if root * root == abs(n):
            return cls._of({(n < 0, frozenset()): root})
        factors = prime_factors(abs(n)).items()
        primes = frozenset(p for p, e in factors if e % 2)
        outer = math.prod(p ** (e // 2) for p, e in factors)
        return cls._of({(n < 0, primes): outer})

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> dict[Key, Fraction]:
        return {key: Fraction(c, self._den) for key, c in self._ints.items()}

    def __bool__(self) -> bool:
        return bool(self._ints)

    @property
    def is_rational(self) -> bool:
        return self._ints.keys() <= {_ONE_KEY}

    def as_fraction(self) -> Fraction | None:
        return Fraction(self._ints.get(_ONE_KEY, 0), self._den) if self.is_rational else None

    def as_integer(self) -> int | None:
        return self._ints.get(_ONE_KEY, 0) if self.is_rational and self._den == 1 else None

    def generators(self) -> set[object]:
        """Generators (the string "i" and/or prime ints) in the support."""
        return set().union(*map(_key_gens, self._ints))

    def _rationals(self) -> Iterator[tuple[Key, int, int]]:
        """(key, n, d) per term in canonical key order, n/d in lowest terms."""
        for key in sorted(self._ints, key=_key_sort):
            g = math.gcd(self._ints[key], self._den)
            yield key, self._ints[key] // g, self._den // g

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> Exact:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        ints = {key: c * rhs._den for key, c in self._ints.items()}
        for key, c in rhs._ints.items():
            ints[key] = ints.get(key, 0) + c * self._den
        return Exact._of(ints, self._den * rhs._den)

    __radd__ = __add__

    def __neg__(self) -> Exact:
        return Exact._of({key: -c for key, c in self._ints.items()}, self._den)

    def __sub__(self, other) -> Exact:
        rhs = self._coerce(other)
        return NotImplemented if rhs is None else self + (-rhs)

    def __rsub__(self, other) -> Exact:
        rhs = self._coerce(other)
        return NotImplemented if rhs is None else rhs + (-self)

    def __mul__(self, other) -> Exact:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return Exact._of(_vec_mul(self._ints, rhs._ints), self._den * rhs._den)

    __rmul__ = __mul__

    def inverse(self) -> Exact:
        if not self._ints:
            raise ZeroDivisionError("exact scalar division by zero")
        # self = ints / den and ints * conj = n, so 1/self = den * conj / n
        conj, n = norm_conjugate(self._ints)
        return Exact._of({key: self._den * c for key, c in conj.items()}, n)

    def __truediv__(self, other) -> Exact:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self * rhs.inverse()

    def __rtruediv__(self, other) -> Exact:
        rhs = self._coerce(other)
        return NotImplemented if rhs is None else rhs * self.inverse()

    def __pow__(self, exponent: int) -> Exact:
        if not isinstance(exponent, int):
            return NotImplemented
        base = self if exponent >= 0 else self.inverse()
        return power(base, abs(exponent), Exact._of({_ONE_KEY: 1}))

    def __eq__(self, other) -> bool:
        """Equal state; an int or a Fraction is converted first, and any
        other value, a Numeric too, is not equal."""
        if type(other) is not Exact:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Exact.from_rational(other)
        return self._den == other._den and self._ints == other._ints

    def __hash__(self) -> int:
        """A rational value hashes as the int or Fraction it equals: n/den
        as n times den's inverse modulo the hash modulus (CPython's numeric
        hash), without building the Fraction."""
        n, den = self._ints.get(_ONE_KEY, 0), self._den
        if len(self._ints) > (n != 0):
            return hash((den, frozenset(self._ints.items())))
        if den == 1:
            return hash(n)
        try:
            return hash(n * pow(den, -1, _HASH_MODULUS))
        except ValueError:  # den is a multiple of the modulus
            return hash(Fraction(n, den))

    # -- conversions -------------------------------------------------------

    def _parts(self, bits: int) -> list[tuple[int, int]]:
        """The real and imaginary parts as (man, exp): each rational and sqrt(p)
        at `bits` bits, each product and sum in canonical term order rounded
        there (``_nearest``), as mpmath's from_rational, mpf_* functions do."""
        parts = [(0, 0), (0, 0)]
        for (has_i, primes), n, d in self._rationals():
            k = bits + 2 + d.bit_length() - abs(n).bit_length()
            top, bottom = (abs(n) << k, d) if k >= 0 else (abs(n), d << -k)
            q, r = divmod(top, bottom)  # q has at least bits + 2 bits
            man, exp = _nearest((2 * q + bool(r)) * (1 if n > 0 else -1), -k - 1, bits)
            for p in sorted(primes):
                s = math.isqrt(p << 2 * bits + 4)  # sqrt(p) 2^(bits + 2), rounded down
                root, e = _nearest(2 * s + (s * s != p << 2 * bits + 4), -bits - 3, bits)
                man, exp = _nearest(man * root, exp + e, bits)
            m0, e0 = parts[has_i]
            e1 = min(e0, exp)
            parts[has_i] = _nearest((m0 << (e0 - e1)) + (man << (exp - e1)), e1, bits)
        return parts

    def to_numeric(self, prec: int) -> Numeric:
        """This value at `prec` bits (``Numeric``), its parts from ``_parts``
        at prec + 16 bits, so equal values convert to the same bits."""
        return Numeric(*(_mpf(m, e) for m, e in self._parts(prec + 16)), prec)

    def __complex__(self) -> complex:
        """complex(self.to_numeric(64)) bit for bit, with no mpmath: the parts
        at 80 bits truncated as mpmath's to_float does (``_truncated_float``)."""
        return complex(*(_truncated_float(m, e) for m, e in self._parts(80)))

    # -- text --------------------------------------------------------------

    def text(self) -> str:
        """Canonical form: terms sorted by radical key, `p/q[*i][*sqrt(n)]`."""
        pieces: list[str] = []
        for key, n, d in self._rationals():
            radicand, has_i = _key_sort(key)
            body = f"{int_text(abs(n))}/{int_text(d)}{'*i' if has_i else ''}"
            body += f"*sqrt({radicand})" if radicand != 1 else ""
            sign = "-" if n < 0 else "+" if pieces else ""
            pieces.append(f"{sign} {body}" if pieces else sign + body)
        return " ".join(pieces) or "0"

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"Exact({self.text()!r})"


class Numeric:
    """An arbitrary-precision complex value, printed: the real and imaginary
    parts as raw mpmath mpfs and the precision they are printed at.  It is
    an output value, as ``NumericPoly`` is, and ``==`` and ``hash`` read the
    parts, so two Numerics are equal only when their bits are."""

    __slots__ = ("_re", "_im", "prec")

    MIN_PREC = 64
    GUARD_BITS = 32

    def __init__(self, re, im, prec: int):
        if prec < self.MIN_PREC:
            raise ValueError(f"precision must be >= {self.MIN_PREC} bits")
        object.__setattr__(self, "_re", re)
        object.__setattr__(self, "_im", im)
        object.__setattr__(self, "prec", prec)

    def __setattr__(self, name, value):
        raise AttributeError("Numeric values are immutable")

    @classmethod
    def from_rational(cls, value: RationalLike, prec: int) -> Numeric:
        """An int or a Fraction at prec bits; a float, complex or str raises TypeError."""
        if not isinstance(value, (int, Fraction)):
            raise TypeError(f"{value!r} is not an int or a Fraction")
        fr = Fraction(value)
        re = _libmp().from_rational(fr.numerator, fr.denominator, prec, RND)
        return cls(re, FZERO, prec)

    @classmethod
    def from_mpc(cls, value, prec: int) -> Numeric:
        re, im = value._mpc_ if hasattr(value, "_mpc_") else (value._mpf_, FZERO)
        return cls(re, im, prec)

    def __bool__(self) -> bool:
        return self._re != FZERO or self._im != FZERO

    def __mul__(self, other):
        """The product of two Numerics at the wider precision, computed
        GUARD_BITS above it; the one arithmetic left (see the module
        docstring)."""
        if not isinstance(other, Numeric):
            return NotImplemented
        prec = max(self.prec, other.prec)
        re, im = _libmp().mpc_mul(
            (self._re, self._im), (other._re, other._im), prec + self.GUARD_BITS, RND
        )
        return Numeric(re, im, prec)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Numeric):
            return NotImplemented
        return self._re == other._re and self._im == other._im

    def __hash__(self) -> int:
        return hash((self._re, self._im))

    # -- conversions -------------------------------------------------------

    def __complex__(self) -> complex:
        return complex(*map(_libmp().to_float, (self._re, self._im)))

    def to_mpc(self):
        import mpmath

        return mpmath.mp.make_mpc((self._re, self._im))

    # -- text --------------------------------------------------------------

    def text(self) -> str:
        dps = max(int(self.prec / 3.33) + 2, 20)
        re = _libmp().to_str(self._re, dps)
        im = _libmp().to_str(self._im, dps)
        if self._im == FZERO:
            return re
        return f"({re} {'+' if not im.startswith('-') else '-'} {im.lstrip('-')}j)"

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"Numeric({self.text()}, prec={self.prec})"
