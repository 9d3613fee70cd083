"""Dense univariate polynomials over exact scalars, printed exactly or numerically.

A :class:`Poly` holds one canonical lane (``_Lane``), its only state, and
every kernel reads and wraps lanes; ``coeffs`` is an on-demand view as Exact
scalars.  The zero polynomial has no coefficients and degree ``NEG_INF`` (a
genuine minus-infinity marker, so degree identities like
deg(p*q) = deg(p) + deg(q) never hit -1 arithmetic).  Products of linear
factors z - r - o enter the lane straight from the roots' ints
(``offset_product``).  Every coefficient, point, step, lead and root
enters through ``Poly.scalar`` (``Exact._coerce``): ints, Fractions and
Exact scalars are taken, a Numeric raises BackendMismatchError, and a
float, complex or str raises TypeError.  Numeric values are output only:
``embed`` converts to a :class:`NumericPoly`.

A :class:`FactoredPoly` is a leading coefficient plus the shift classes of
its roots, grouped once when it is built: the ingestion form for anything
that needs root data (chains, radicals, shifting-prime tests).
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import ExactDivisionError, RootsUnavailableError
from .scalar import (
    _ONE_KEY,
    Exact,
    Key,
    Numeric,
    _key_mul,
    _key_sort,
    _vec_mul,
    int_text,
    norm_conjugate,
    power,
    prime_factors,
)

NEG_INF = float("-inf")
_ZERO = Exact()
_NO_REST: frozenset = frozenset()  # the non-rational ints in a rational root's residue key


def coeffs_json(cs: Sequence[Exact | Numeric]) -> dict:
    return {"coeffs": [c.text() for c in cs]}


def coeffs_text(cs: Sequence[Exact | Numeric]) -> str:
    """The polynomial with coefficients `cs`, from z^0 up, in the expression
    grammar; reparsing yields an equal Poly."""
    pieces = [_term_text(c, k) for k, c in reversed(list(enumerate(cs))) if c]
    out = pieces[0] if pieces else "0"
    for piece in pieces[1:]:
        out += " - " + piece[1:] if piece.startswith("-") else " + " + piece
    return out


class _Printed:
    """Text and JSON of a polynomial, read from its ``coeffs``."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return coeffs_json(self.coeffs)

    def expr_text(self) -> str:
        return coeffs_text(self.coeffs)

    def __str__(self) -> str:
        return self.expr_text()


class Poly(_Printed):
    """Immutable dense univariate polynomial over Q(i, sqrt(p), ...)."""

    __slots__ = ("_lane",)

    def __init__(self, coeffs: Iterable = ()):
        object.__setattr__(self, "_lane", _lane_of(coeffs))

    @classmethod
    def _wrap(cls, lane: _Lane) -> Poly:
        """The Poly holding `lane` in canonical form."""
        p = object.__new__(cls)
        object.__setattr__(p, "_lane", lane.canonical())
        return p

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
        """The monomial z."""
        return cls([0, 1])

    @classmethod
    def linear(cls, root: Exact) -> Poly:
        """Monic z - root."""
        return cls([-cls.scalar(root), 1])

    # -- inspection --------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Exact, ...]:
        """The coefficients from z^0 up, as Exact scalars read off the lane."""
        return tuple(map(self.coeff, range(len(self._lane))))

    @property
    def degree(self) -> int | float:
        return len(self._lane) - 1 if self._lane else NEG_INF

    def __bool__(self) -> bool:
        return bool(self._lane)

    @property
    def lead(self) -> Exact:
        if not self._lane:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeff(len(self._lane) - 1)

    def coeff(self, k: int) -> Exact:
        lane = self._lane
        return Exact._of({key: v[k] for key, v in lane.terms.items() if len(v) > k >= 0}, lane.den)

    @staticmethod
    def scalar(x) -> Exact:
        """x as an exact scalar (``Exact._coerce``): a Numeric raises
        BackendMismatchError, and a float, complex or str TypeError."""
        out = Exact._coerce(x)
        if out is None:
            raise TypeError(f"{x!r} is not an exact value (an int, a Fraction or an Exact)")
        return out

    # -- ring operations ---------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, Poly):
            return other
        x = Exact._coerce(other)
        return None if x is None else Poly([x])

    def __add__(self, other) -> Poly:
        rhs = self._coerce(other)
        return NotImplemented if rhs is None else Poly._wrap(self._lane + rhs._lane)

    __radd__ = __add__

    def __neg__(self) -> Poly:
        return Poly._wrap(-self._lane)

    def __sub__(self, other) -> Poly:
        rhs = self._coerce(other)
        return NotImplemented if rhs is None else Poly._wrap(self._lane - rhs._lane)

    def __rsub__(self, other) -> Poly:
        rhs = self._coerce(other)
        return NotImplemented if rhs is None else Poly._wrap(rhs._lane - self._lane)

    def __mul__(self, other) -> Poly:
        """Product with a scalar or a polynomial, on the lane: ``_mul_ints``
        on each pair of radical keys, merged by ``_key_mul``."""
        rhs = self._coerce(other)
        return NotImplemented if rhs is None else Poly._wrap(self._lane * rhs._lane)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> Poly:
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        return power(self, exponent, Poly([1]))

    def __divmod__(self, other: Poly) -> tuple[Poly, Poly]:
        """(q, r) with self = q * other + r and deg r < deg other, from one
        division on the lane (``_Lane.__divmod__``)."""
        if not isinstance(other, Poly):
            return NotImplemented
        q, r = divmod(self._lane, other._lane)
        return Poly._wrap(q), Poly._wrap(r)

    def __floordiv__(self, other: Poly) -> Poly:
        return divmod(self, other)[0]

    def __mod__(self, other: Poly) -> Poly:
        return divmod(self, other)[1]

    def divexact(self, other: Poly) -> Poly:
        """Exact quotient; raises ExactDivisionError if a remainder is left."""
        return Poly._wrap(self._lane.divexact(other._lane))

    def __eq__(self, other) -> bool:
        """Equal lanes: canonical form makes the lane unique."""
        rhs = None if isinstance(other, Numeric) else self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self._lane.den == rhs._lane.den and self._lane.terms == rhs._lane.terms

    def __hash__(self) -> int:
        """A constant hashes as the scalar it equals."""
        lane = self._lane
        if len(lane) <= 1:
            return hash(self.coeff(0))
        return hash((lane.den, frozenset((k, tuple(v)) for k, v in lane.terms.items())))

    # -- evaluation & maps -------------------------------------------------

    def __call__(self, x) -> Exact:
        """p(x) by Horner's rule on the ints, with x = X / v its ints over its
        den: v^d p(x) = sum c_k X^k v^(d-k) at d = deg p, over v^d den.  A
        radical X multiplies through ``_vec_mul`` (``_key_mul``)."""
        x = self.scalar(x)
        lane, d = self._lane, len(self._lane) - 1
        if not lane:
            return _ZERO
        xs, v = x._ints, x._den
        u = xs.get(_ONE_KEY, 0) if x.is_rational else None  # x = u / v
        out, vk = {}, 1  # vk = v^(d-k)
        for k in range(d, -1, -1):
            out = _vec_mul(out, xs) if u is None else {key: c * u for key, c in out.items()}
            for key, ints in lane.terms.items():
                if k < len(ints):
                    out[key] = out.get(key, 0) + ints[k] * vk
            vk *= v
        return Exact._of(out, v**d * lane.den)

    def monic(self) -> Poly:
        """The ints times the lead's conjugates over its norm (``lead_conjugate``)."""
        if not self:
            return self
        conj, n = self._lane.lead_conjugate()
        return Poly._wrap(_Lane((_Lane(self._lane.terms) * conj).terms, n))

    def embed(self, prec: int) -> NumericPoly:
        """The coefficients at `prec` bits (``Exact.to_numeric``), for output."""
        cs = [c.to_numeric(prec) for c in self.coeffs]
        while cs and not cs[-1]:
            cs.pop()
        return NumericPoly(tuple(cs))

    def coeff_sup(self) -> float:
        """Sup of coefficient magnitudes, for reports only: capped at the
        largest finite float (valid JSON), at least math.ulp(0.0) when nonzero
        (never a false 0); ``bool`` decides."""
        sup = 0.0
        for c in self.coeffs:
            mag = abs(complex(c))
            sup = max(sup, mag if mag or not c else math.ulp(0.0))
        return min(sup, sys.float_info.max)

    def __repr__(self) -> str:
        return f"Poly({self.expr_text()!r})"


@dataclass(frozen=True)
class NumericPoly(_Printed):
    """A polynomial's coefficients converted to numeric scalars, from z^0
    up (``Poly.embed``): an output value, with no arithmetic."""

    coeffs: tuple[Numeric, ...]


def _scalar_expr(c: Exact | Numeric) -> tuple[str, bool]:
    """Expression text for a scalar plus a flag: is it a single product term."""
    if isinstance(c, Numeric):
        return c.text(), True
    parts: list[str] = []
    for key, num, den in c._rationals():  # canonical term order
        n, has_i = _key_sort(key)
        factors = []
        if abs(num) != den or (not has_i and n == 1):
            body = int_text(abs(num))
            if den != 1:
                body += f"/{int_text(den)}"
            factors.append(body)
        if has_i:
            factors.append("i")
        if n != 1:
            factors.append(f"sqrt({n})")
        parts.append(("-" if num < 0 else "+") + "*".join(factors))
    if not parts:
        return "0", True
    text = parts[0][1:] if parts[0][0] == "+" else parts[0]
    for p in parts[1:]:
        text += f" {p[0]} {p[1:]}"
    return text, len(parts) == 1


def _term_text(c: Exact | Numeric, k: int) -> str:
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


class ShiftClass(NamedTuple):
    """Roots pairwise congruent modulo 1, grouped once, when a ``FactoredPoly``
    is built (``_group``): offsets o >= 0 from the least member, the
    representative, with ``members`` the order function m of ``shiftcalc``.
    ``key`` and ``n`` are the representative's ``_residue_key``: classes hold
    roots an integer apart exactly when their keys agree."""

    representative: Exact | None
    members: dict[int, int]
    key: tuple
    n: int


def _residue_key(root: Exact) -> tuple[tuple, int]:
    """(key, n) for root = (n + rest) / d, its ints over its den: as
    gcd(d, n + m d, rest) = gcd(d, n, rest) = 1, adding an integer m changes
    n alone, so two roots differ by an integer exactly when their keys
    (rest, n mod d, d) agree, and then by (n - n') // d."""
    ints = root._ints
    n, d = ints.get(_ONE_KEY, 0), root._den
    rest = frozenset(kc for kc in ints.items() if kc[0] != _ONE_KEY) if len(ints) > (n != 0) else _NO_REST
    return (rest, n % d, d), n


def _rational_key(n: int, d: int) -> tuple[tuple, int]:
    """``_residue_key`` of the rational root n/d (d > 0), read off the ints."""
    g = math.gcd(n, d)
    return (_NO_REST, n // g % (d // g), d // g), n // g


def _group(pieces: Iterable[tuple]) -> list[ShiftClass]:
    """The shift classes of `pieces`, ``ShiftClass``es or tuples in its field
    order, in one keyed pass: roots differ by an integer exactly when their
    residue keys agree.  The piece of least n gives the representative, and
    a piece's offsets move by (n - n_rep) // d, so equal roots merge at one
    offset without comparing values.  Classes come in the order their keys
    first occur."""
    buckets: dict[tuple, list[tuple]] = {}
    for piece in pieces:
        buckets.setdefault(piece[2], []).append(piece)
    classes = []
    for key, bucket in buckets.items():
        rep, _, _, n_rep = min(bucket, key=operator.itemgetter(3)) if bucket[1:] else bucket[0]
        members: dict[int, int] = {}
        for _, orders, _, n in bucket:
            shift = (n - n_rep) // key[2]
            for o, m in orders.items():
                members[o + shift] = members.get(o + shift, 0) + m
        classes.append(ShiftClass(rep, members, key, n_rep))
    return classes


def _root_piece(entry: tuple[Exact, int]) -> tuple:
    """The ``_group`` piece of one (root, multiplicity) entry."""
    root, mult = entry
    if mult < 1:
        raise ValueError("multiplicities must be >= 1")
    root = Poly.scalar(root)
    return root, {0: mult}, *_residue_key(root)


class FactoredPoly:
    """Exact leading coefficient plus the shift classes of the exact roots,
    grouped once, when it is built, and ordered by the canonical text of
    their representatives; ``roots`` is a view of them."""

    __slots__ = ("_lead", "_classes")

    def __new__(cls, lead, roots: Iterable[tuple[Exact, int]] = ()):
        return cls._of(lead, map(_root_piece, roots))

    @classmethod
    def _of(cls, lead, pieces: Iterable[tuple]) -> FactoredPoly:
        """The polynomial of `pieces`, as ``_group`` takes them."""
        lead = Poly.scalar(lead)
        if not lead:
            raise ValueError("factored polynomial needs a nonzero lead")
        out = object.__new__(cls)
        object.__setattr__(out, "_lead", lead)
        classes = sorted(_group(pieces), key=lambda c: c.representative.text())
        object.__setattr__(out, "_classes", tuple(classes))
        return out

    def __setattr__(self, name, value):
        raise AttributeError("FactoredPoly values are immutable")

    @property
    def lead(self) -> Exact:
        return self._lead

    @property
    def classes(self) -> tuple[ShiftClass, ...]:
        return self._classes

    @property
    def roots(self) -> tuple[tuple[Exact, int], ...]:
        """(root, multiplicity) per distinct root, sorted by canonical text."""
        pairs = [(c.representative + o, m) for c in self._classes for o, m in c.members.items()]
        return tuple(sorted(pairs, key=lambda rm: rm[0].text()))

    @property
    def degree(self) -> int:
        return sum(sum(c.members.values()) for c in self._classes)

    def distinct_roots(self) -> list[Exact]:
        return [r for r, _ in self.roots]

    def ord_at(self, w: Exact) -> int:
        """Multiplicity of the zero at w (0 when w is not a root)."""
        return self._order(*_residue_key(Poly.scalar(w)))

    def _order(self, key: tuple, n: int) -> int:
        """Multiplicity of the root with residue key `key` and numerator n."""
        c = next((c for c in self._classes if c.key == key), None)
        return 0 if c is None else c.members.get((n - c.n) // key[2], 0)

    def expand(self) -> Poly:
        """lead * prod (z - r)^m, one ``offset_product`` over the classes."""
        return offset_product(((c.representative, c.members.items()) for c in self._classes), self._lead)

    def times(self, other: FactoredPoly) -> FactoredPoly:
        """The product, its classes merged by key (``_group``)."""
        return FactoredPoly._of(self._lead * other._lead, self._classes + other._classes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FactoredPoly):
            return NotImplemented
        return self._lead == other._lead and self._classes == other._classes

    def __hash__(self) -> int:
        """Of the lead and each class's key, n and members, which fix the class."""
        return hash((self._lead, tuple((c.key, c.n, frozenset(c.members.items())) for c in self._classes)))

    def to_json_dict(self) -> dict:
        return {
            "lead": self._lead.text(),
            "roots": [[r.text(), m] for r, m in self.roots],
        }

    def __repr__(self) -> str:
        inner = ", ".join(f"({r.text()}):{m}" for r, m in self.roots)
        return f"FactoredPoly(lead={self._lead.text()}, roots=[{inner}])"


def classical_rad(f: FactoredPoly) -> Poly:
    """Monic product of z - r over the distinct roots of f."""
    return offset_product((c.representative, [(o, 1) for o in c.members]) for c in f.classes)


def product(polys: Iterable[Poly]) -> Poly:
    """Product of the factors by ``_lane_product``; 1 when there are none."""
    return Poly._wrap(_lane_product([f._lane for f in polys]))


def offset_product(classes: Iterable[tuple[Exact, Iterable[tuple[int, int]]]], lead=1) -> Poly:
    """lead * prod (z - r - o)^d over classes (r, [(o, d), ...]) of a root r,
    integer offsets o and orders d >= 0.  No sum r + o is formed: with r its
    ints over its den, z - r - o holds minus r's ints, less o den on the
    rational key, and den at z^1.

    A rational r gives den z - (n + o den) for r = n/den, and those factors
    multiply on plain int lists (``_linear_ints``).  A radical r gives one
    lane per factor.  The lead's lane, the radical lanes and the lane of
    the rational product meet in ``_lane_product``.  The lead and the roots
    enter through ``Poly.scalar``."""
    lanes = [_lane_of([lead])]
    linear: list[tuple[int, int]] = []  # (c, den) for the factor den z + c
    for r, orders in classes:
        r = Poly.scalar(r)
        n, den = r._ints.get(_ONE_KEY, 0), r._den
        if r.is_rational:
            for o, d in orders:
                linear += [(-n - o * den, den)] * d
            continue
        rest = {key: [-c] for key, c in r._ints.items() if key != _ONE_KEY}
        for o, d in orders:
            lanes += [_Lane({**rest, _ONE_KEY: [-n - o * den, den]}, den)] * d
    if linear:
        lanes.append(_Lane({_ONE_KEY: _linear_ints(linear)}, math.prod(d for _, d in linear)))
    return Poly._wrap(_lane_product(lanes))


def _linear_ints(factors: list[tuple[int, int]]) -> list[int]:
    """The ints of prod (a z + c) over the pairs (c, a), a subproduct tree
    (von zur Gathen & Gerhard, Modern Computer Algebra, 10.1): each block of
    SCHOOLBOOK_MAX factors folds into a running list, one multiply-add pass
    per factor, and the blocks, SCHOOLBOOK_MAX + 1 coefficients long, meet
    in a balanced tree of ``_mul_ints``, which multiplies by Kronecker
    substitution from its first level up."""
    blocks = []
    for start in range(0, len(factors), SCHOOLBOOK_MAX):
        acc = [1]
        for c, a in factors[start : start + SCHOOLBOOK_MAX]:
            acc.append(0)
            for k in range(len(acc) - 1, 0, -1):
                acc[k] = acc[k] * c + acc[k - 1] * a
            acc[0] *= c
        blocks.append(acc)
    return _balanced(blocks, _ints_product)


def _ints_product(a: list[int], b: list[int]) -> list[int]:
    """a * b for integer coefficient lists, by ``_mul_ints``."""
    acc = [0] * (len(a) + len(b) - 1)
    _mul_ints(acc, a, b)
    return acc


def _lane_product(lanes: list[_Lane]) -> _Lane:
    """The lanes' product as a balanced tree (1 when there are none)."""
    return _balanced(lanes, operator.mul) if lanes else _Lane({_ONE_KEY: [1]})


def _balanced(items: list, mul):
    """items multiplied as a balanced tree, so that the large operands meet
    last, where ``_mul_ints`` switches to Kronecker."""
    while len(items) > 1:
        paired = [mul(a, b) for a, b in zip(items[::2], items[1::2])]
        items = paired + items[len(paired) * 2 :]
    return items[0]


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic greatest common divisor.

    Rational inputs run the heuristic gcd ``_heu_gcd`` on the ints of their
    lanes.  Radical inputs, and rational ones on which the heuristic gives
    up, run the Euclidean algorithm on lanes: each divisor is brought to a
    rational lead and to primitive ints (``_Lane.rational_lead``), the
    remainder comes from ``_Lane.__mod__``, and the result is made monic
    once at the end.
    """
    if not p and not q:
        raise ValueError("gcd(0, 0) is undefined")
    a, b = p._lane, q._lane
    if a.terms.keys() | b.terms.keys() <= {_ONE_KEY}:
        ints = [_primitive(x.terms.get(_ONE_KEY, [])) for x in (a, b)]
        g = _gcd_ints(*ints)
        if g is not None:
            return Poly._wrap(_Lane({_ONE_KEY: g}, g[-1]))
    a, b = a.rational_lead(), b.rational_lead()
    while b:
        a, b = b, (a % b).rational_lead()
    return Poly._wrap(_Lane(a.terms, a.terms[_ONE_KEY][-1]))


# -- the lane ----------------------------------------------------------------------
#
# An exact polynomial over Q(i, sqrt(p), ...) is split by radical key into
# integer coefficient lists over one common denominator:
# p = sum(key * ints(z) for key, ints in terms.items()) / den.  Q[z] is the
# one-key case, so rational and radical inputs run the same integer code, and
# an Exact scalar is the one-coefficient case: scalars cross by copying ints.
# Poly itself keeps one representation, this one, in canonical form
# (_Lane.canonical): every kernel reads its operands' lanes and wraps the
# lane it computes (Poly._wrap), and never changes a list it did not make,
# as a Poly shares its lists.  A numeric coefficient has no lane.

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

    Supports +, -, *, divmod, %, divexact, bool and len (the number of
    coefficients), so the determinant routines run on lanes as on Polys.
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

    def __len__(self) -> int:
        return max(map(len, self.terms.values()), default=0)

    @property
    def degree(self) -> int:
        return len(self) - 1

    def lead(self) -> dict[Key, int]:
        """The leading coefficient, times den, as {key: int}."""
        d = self.degree
        return {key: ints[d] for key, ints in self.terms.items() if len(ints) > d}

    def canonical(self) -> _Lane:
        """The form a Poly holds, den > 0 coprime to the ints' content (den 1
        for zero): self when it has that form, else a new lane."""
        g = math.gcd(self.den, *(c for ints in self.terms.values() for c in ints))
        g = -g if self.den < 0 else g
        if g == 1:
            return self
        return _Lane({k: [c // g for c in ints] for k, ints in self.terms.items()}, self.den // g)

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
        """Exact quotient in canonical form; raises ExactDivisionError, with
        the remainder as a Poly, if one is left."""
        q, r = divmod(self, other)
        if r:
            raise ExactDivisionError(
                f"inexact division: remainder of degree {r.degree}", remainder=Poly._wrap(r)
            )
        return q.canonical()


def _lane_of(coeffs: Iterable) -> _Lane:
    """The lane of coefficients from z^0 up, each through ``Poly.scalar``,
    canonical as built: over den, the lcm of the coefficients' own dens,
    some int is prime to each prime power of den."""
    cs = list(map(Poly.scalar, coeffs))
    den = math.lcm(*(c._den for c in cs))
    terms: dict[Key, list[int]] = {}  # 0 where a key is absent
    for k, c in enumerate(cs):
        f = den // c._den
        for key, n in c._ints.items():
            part = terms.get(key)
            if part is None:
                part = terms[key] = [0] * len(cs)
            part[k] = f * n
    return _Lane(terms, den)


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

    A rational d = p/q has the root sqrt(p q) / q, which ``sqrt_int`` gives
    the factor i when p < 0.  Otherwise one generator g of d (i or
    sqrt(prime)) is taken out at a time: d = u + v g with u, v free of g and
    g^2 = c rational.  A root x = a + b g has a^2 + c b^2 = u and 2 a b = v,
    so a^2 solves A^2 - u A + c v^2 / 4 = 0, whose roots (u +- s) / 2 need a
    square root s of u^2 - c v^2 in the smaller field.  Then a is a square
    root of A, found the same way, and b = v / (2 a).  A candidate is
    returned only if x * x == d; when none passes, the result is None.
    """
    if d.is_rational:
        return Exact.sqrt_int(d._ints.get(_ONE_KEY, 0) * d._den) * Fraction(1, d._den)
    gens = d.generators()
    g = min(gens, key=str)
    u, v = {}, {}
    for (has_i, primes), c in d._ints.items():
        if g == "i":
            part, key = (v if has_i else u), (False, primes)
        else:
            part, key = (v if g in primes else u), (has_i, primes - {g})
        part[key] = c
    u, v = Exact._of(u, d._den), Exact._of(v, d._den)
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
    to that tail.
    """
    if not p:
        raise ValueError("cannot factor the zero polynomial")
    lead = p.lead
    roots: list[tuple[Exact, int]] = []
    lane = p.monic()._lane
    k = min(next(i for i, c in enumerate(ints) if c) for ints in lane.terms.values())
    if k:
        roots.append((Exact.from_rational(0), k))
        lane = _Lane({key: ints[k:] for key, ints in lane.terms.items()}, lane.den)
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
        lane = _Lane({_ONE_KEY: ints}, ints[-1])
    rem = Poly._wrap(lane)

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
