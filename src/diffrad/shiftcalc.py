"""Shifting zeros, chain decompositions, and difference radicals.

A zero z0 of p has *height* n when p vanishes at z0, z0+1, ..., z0+n-1 but
not at z0+n (equivalently: p and its first n-1 forward differences vanish at
z0 while the n-th does not).  In a shift class of roots (``shift_classes``,
grouped when a ``FactoredPoly`` is built) with representative r, m(o) is the
order of P at r + o, 0 at an absent offset.  The unique chain decomposition

    P(z) = A * prod_j (z - z_j)(z - z_j - 1)...(z - z_j - n_j + 1)

is the level sets of m (the chains at level l are the maximal runs of
m >= l), so every radical is prod (z - r - o)^d with an order rule d on m:
rad_kappa m(o) - min(m(o), m(o+kappa)); rad_delta the same at kappa = -1;
rad_delta_q m(o) - min(m(o-q), ..., m(o)); the gcd tower gcd(P, dP, ...,
d^n P) min(m(o), ..., m(o+n)).

``gcd_tower`` proves that closed form g equal to the gcd on every factored
call instead of recomputing it (``_tower_certified``): P = g c is read from
the classes, c of orders m(o) - d(o), so the k = 0 step is the check d <= m;
one exact division of each nonzero d^k P, k >= 1, by g, so that g divides
the gcd; then the cofactors d^k P / g have no common root, as each root of P
has a nonzero cofactor value there: at a rational root a/b, the gcd Gamma of
the cofactors' integer values at a power of two xi shows it, or where b xi - a
divides Gamma, exact values at a/b.  So the certificate decides every factored
call; the Euclidean route (``gcd_tower_euclid``) serves plain polynomials.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import combinations, islice

from . import diffcalc
from .errors import ExactDivisionError
from .poly import (
    FactoredPoly,
    Poly,
    ShiftClass,
    _divexact_ints,
    _group,
    _pack,
    _primitive,
    _rational_key,
    offset_product,
    poly_gcd,
)
from .scalar import _ONE_KEY, Exact


def shift_classes(f: FactoredPoly | Iterable[tuple[int, int]]) -> Sequence[ShiftClass]:
    """The distinct roots partitioned by integer difference (``poly._group``).

    A ``FactoredPoly`` grouped its roots once, when it was built, in the
    order chains are emitted: by representatives' canonical text.  Int pairs
    (n, d), d > 0, of drawn rational roots run the same pass on their
    ``_rational_key``s, in draw order and with no representative (None), for
    ``_first_shared_pair``: ``theorems.gen_mason_instance`` rejects draws
    before it builds any ``Exact``."""
    if isinstance(f, FactoredPoly):
        return f.classes
    return _group((None, {0: 1}, *_rational_key(n, d)) for n, d in f)


@dataclass(frozen=True)
class ChainDecomposition:
    """lead * prod_j (z - start_j)^(falling length_j), in emission order."""

    lead: Exact
    chains: tuple[tuple[Exact, int], ...]

    @property
    def degree(self) -> int:
        return sum(n for _, n in self.chains)

    def expand(self) -> Poly:
        """lead times every chain's linear factors, as one ``offset_product``."""
        return offset_product([(s, [(j, 1) for j in range(n)]) for s, n in self.chains], self.lead)

    def to_json_dict(self) -> dict:
        return {
            "lead": self.lead.text(),
            "chains": [[start.text(), n] for start, n in self.chains],
        }


def chain_decomposition(f: FactoredPoly) -> ChainDecomposition:
    """Greedy partition of the root multiset into maximal consecutive runs.

    Within each shift class the smallest remaining offset starts a chain that
    extends through consecutive offsets while remaining multiplicity lasts,
    each participating offset giving up one unit.  The resulting multiset of
    chains is the unique one, the level sets of the class's orders; the
    emission order (classes by representative text, chains greedily within a
    class) makes the list deterministic.  The radicals read the orders
    directly, so the chains serve the ``chains`` command.
    """
    chains: list[tuple[Exact, int]] = []
    for cls in shift_classes(f):
        remaining = dict(cls.members)
        while any(m > 0 for m in remaining.values()):
            start = min(o for o, m in remaining.items() if m > 0)
            length = 0
            while remaining.get(start + length, 0) > 0:
                remaining[start + length] -= 1
                length += 1
            chains.append((cls.representative + start, length))
    return ChainDecomposition(f.lead, tuple(chains))


def shifting_zero_height(p: Poly, z0) -> int:
    """Height of z0 as a shifting zero of p (0 when p(z0) != 0).

    Computed as the length of the run of consecutive zeros p(z0), p(z0+1),
    ...; the equivalent definition through vanishing forward differences is
    available as shifting_zero_height_via_delta.
    """
    z0 = _height_point(p, z0)
    n = 0
    while not p(z0 + n):
        n += 1
    return n


def shifting_zero_height_via_delta(p: Poly, z0) -> int:
    """Height from the definition: least n with delta^n p(z0) nonzero."""
    z0 = _height_point(p, z0)
    # delta^(deg p) p is a nonzero constant, so some difference is nonzero at z0
    return next(n for n, d in enumerate(diffcalc.differences(p)) if d(z0))


def _height_point(p: Poly, z0) -> Exact:
    """z0 as an exact scalar, once p is known to be nonzero (a nonzero p has
    at most deg p zeros, so each run ends)."""
    if not p:
        raise ValueError("height is undefined for the zero polynomial")
    return p.scalar(z0)


def factor_at(p: Poly, z0) -> tuple[int, Poly]:
    """Write p = (z - z0)(z - z0 - 1)...(z - z0 - n + 1) * g with n the height.

    The cofactor g satisfies g(z0 + n) != 0.  Raises ValueError when z0 is
    not a zero of p.
    """
    z0 = p.scalar(z0)
    n = shifting_zero_height(p, z0)
    if n == 0:
        raise ValueError(f"{z0.text()} is not a zero")
    g = p.divexact(diffcalc.falling_factorial_linear(z0, n))
    if not g(z0 + n):  # pragma: no cover
        raise ArithmeticError("cofactor vanishes at z0 + n")
    return n, g


def _orders(f: FactoredPoly, order) -> list[tuple[Exact, list[tuple[int, int]]]]:
    """(rep, [(o, order(m, o))]) per class, rep its representative and m its
    ``members``, over the class's offsets o: what ``offset_product`` reads."""
    return [(c.representative, [(o, order(c.members, o)) for o in c.members])
            for c in shift_classes(f)]


def _radical(f: FactoredPoly, order) -> Poly:
    """Monic prod (z - rep - o)^order(m, o), one ``offset_product``."""
    return offset_product(_orders(f, order))


def _least_order(m: dict[int, int], lo: int, hi: int) -> int:
    """min of the orders at offsets lo..hi, 0 at an absent one; a window of
    more than len(m) offsets holds an absent one, so it is clamped."""
    return min(m.get(o, 0) for o in range(lo, min(hi, lo + len(m)) + 1))


def rad_delta(f: FactoredPoly) -> Poly:
    """Difference radical, prod of z - start over all chains: the order rule
    m(o) - min(m(o), m(o-1)), rad_kappa at kappa = -1."""
    return _radical(f, lambda m, o: m[o] - min(m[o], m.get(o - 1, 0)))


def rad_kappa(f: FactoredPoly, kappa: int) -> Poly:
    """Kappa-difference radical, m(o) - min(m(o), m(o+kappa)): orders at
    w + kappa are read in w's class, as no other root differs from w by kappa."""
    if kappa == 0:
        raise ValueError("kappa must be a nonzero integer")
    return _radical(f, lambda m, o: m[o] - min(m[o], m.get(o + kappa, 0)))


def rad_delta_q(f: FactoredPoly, q: int) -> Poly:
    """Truncated difference radical, chains clamped to length at most q: the
    order rule m(o) - min(m(o-q), ..., m(o))."""
    if q < 1:
        raise ValueError("truncation level q must be >= 1")
    return _radical(f, lambda m, o: m[o] - _least_order(m, o - q, o))


def gcd_tower_euclid(p: Poly, n: int) -> Poly:
    """gcd(p, delta p, ..., delta^n p) by iterated Euclidean gcd (monic)."""
    if not p:
        raise ValueError("gcd tower of the zero polynomial")
    if n < 1:
        raise ValueError("tower height n must be >= 1")
    g = p.monic()
    for d in islice(diffcalc.differences(p), 1, n + 1):
        g = poly_gcd(g, d)
    return g


def gcd_tower_closed(f: FactoredPoly, n: int) -> Poly:
    """Closed form prod (z - start)^(falling max(length - n, 0)), chains
    shortened by n: the order rule min(m(o), ..., m(o+n))."""
    return offset_product(_tower_orders(f, n))


def _tower_orders(f: FactoredPoly, n: int) -> list[tuple[Exact, list[tuple[int, int]]]]:
    """The ``_orders`` of the closed form, d(o) = min(m(o), ..., m(o+n))."""
    if n < 1:
        raise ValueError("tower height n must be >= 1")
    return _orders(f, lambda m, o: _least_order(m, o, o + n))


def gcd_tower(p: Poly | FactoredPoly, n: int) -> Poly:
    """gcd(p, delta p, ..., delta^n p), monic.

    Factored input computes the chain closed form g and proves it equal to
    G = gcd(P, delta P, ..., delta^n P) by ``_tower_certified``, which reads
    P = g c off the same orders: g divides every nonzero delta^k P, so g | G,
    and the cofactors delta^k P / g have no common root, so G / g is a unit;
    a wrong closed form raises ArithmeticError.  Plain polynomials go
    through Euclid.
    """
    if isinstance(p, FactoredPoly):
        orders = _tower_orders(p, n)
        closed = offset_product(orders)
        if not _tower_certified(p, closed, orders, n):
            raise ArithmeticError("gcd tower routes disagree")
        return closed
    return gcd_tower_euclid(p, n)


def _tower_certified(f: FactoredPoly, g: Poly, orders: list, n: int) -> bool:
    """Whether g, the ``offset_product`` of `orders` (d per offset o of each
    class of f), is gcd(P, delta P, ..., delta^n P) for P = f.expand().

    (k = 0) P = g c for c of f's lead and orders m(o) - d(o) exactly when
    every d(o) <= m(o); a d(o) > m(o) disproves g.  (a) g divides each
    nonzero delta^k P, 1 <= k <= n, by one exact division:
    ``_divexact_ints`` of each key's primitive ints by g's when every root
    of f is rational (so g is over Q), ``Poly.divexact`` otherwise.  A
    remainder disproves g.  (b) The cofactors c_k = delta^k P / g, c_0 = c,
    have no common root, which would be a distinct root w of f.  A
    non-rational w is ruled out by an exact c_k(w) != 0.  A rational w =
    a/b, (n + o d)/d in its class, is a common root exactly when b z - a
    divides every primitive per-key int list of the c_k over Z (Gauss; the
    keys are independent over Q; prim(P) = prim(g) prim(c)), so b xi - a
    divides the gcd Gamma of their values at xi = 2^(8 width) > |w|
    (``_pack``), as in GCDHEU (Char, Geddes & Gonnet 1989).  Gamma also
    holds the small primes modulo which all c_k vanish at xi, as a P of
    high degree does modulo many, so a w it leaves open is decided by exact
    division by b z - a.  A common root disproves g.
    """
    rest = [(r, [(o, c.members[o] - d) for o, d in od]) for (r, od), c in zip(orders, f.classes)]
    if any(e < 0 for _, od in rest for _, e in od):
        return False
    c0 = offset_product(rest, f.lead)
    rational = [(c.n + o * c.key[2], c.key[2]) for c in f.classes if not c.key[0] for o in c.members]
    radical = [c.representative + o for c in f.classes if c.key[0] for o in c.members]
    base = None if radical else _primitive(g._lane.terms[_ONE_KEY])
    cofactors = [c0]  # the c_k, evaluated at the radical roots
    ints = [_primitive(part) for part in c0._lane.terms.values()]  # of every c_k
    for cur in islice(diffcalc.differences(g * c0), 1, n + 1):
        if base is not None:
            for part in cur._lane.terms.values():
                q = _divexact_ints(_primitive(part), base)
                if q is None:
                    return False
                ints.append(q)
            continue
        try:
            c = cur.divexact(g)
        except ExactDivisionError:
            return False
        cofactors.append(c)
        ints += map(_primitive, c._lane.terms.values())
    if not all(any(c(w) for c in cofactors) for w in radical):
        return False
    # |w| <= |a| < 2^e, and xi = 2^(8 width) >= 2^(e + 65)
    e = max((abs(a).bit_length() for a, _ in rational), default=0)
    width = e // 8 + 9
    gamma = math.gcd(*(_pack(part, width) for part in ints))
    xi = 1 << 8 * width
    return all(
        gamma % (b * xi - a) or any(_divexact_ints(part, [-a, b]) is None for part in ints)
        for a, b in rational
    )


def common_shifting_divisors(f: FactoredPoly, g: FactoredPoly) -> list[Exact]:
    """Base points z0 of the common shifting divisors of f and g.

    z0 is reported when some zero chain of one polynomial continues into a
    zero of the other: a zero z0 of f qualifies when g(z0 + m) = 0 for some
    1 <= m <= height of z0 in f, and symmetrically with f and g swapped.
    f and g hold their own ``shift_classes``; a class of f and a class of g
    can share a divisor only when their representatives differ by an
    integer, that is when their ``_residue_key``s agree.  So g's classes
    go in a dict by that key, each class of f finds its partner with one
    lookup, and the offset between the representatives n_f/d and n_g/d is
    (n_g - n_f) // d, all on ints.  Heights are read in ``_chain_hits``.
    Sorted by canonical text; an empty list means f and g are shifting prime.
    """
    return _common_divisors(shift_classes(f), shift_classes(g))


def _common_divisors(cfs: list[ShiftClass], cgs: list[ShiftClass]) -> list[Exact]:
    return sorted((cls.representative + o for cls, o in _shared_offsets(cfs, cgs)), key=Exact.text)


def _shared_offsets(cfs: list[ShiftClass], cgs: list[ShiftClass]) -> Iterator[tuple[ShiftClass, int]]:
    """(class, offset) per common shifting divisor of two groupings, its base
    point the class's representative plus the offset; each class's key is
    read once, from the class."""
    by_key = {cg.key: cg for cg in cgs}
    for cf in cfs:
        cg = by_key.get(cf.key)
        if cg is None:
            continue
        k = (cg.n - cf.n) // cf.key[2]
        # base points count from the lower representative
        lo, hi, k = (cg, cf, -k) if k < 0 else (cf, cg, k)
        for o in _chain_hits(lo, hi, k) | {o + k for o in _chain_hits(hi, lo, -k)}:
            yield lo, o


def _shares_divisor(cfs: list[ShiftClass], cgs: list[ShiftClass]) -> bool:
    """The verdict of ``_common_divisors`` without building its base points."""
    return next(_shared_offsets(cfs, cgs), None) is not None


def _chain_hits(a: ShiftClass, b: ShiftClass, k: int) -> set[int]:
    """Offsets in a whose zero chain runs into b; b's representative is a's + k.
    The height h(o) = h(o + 1) + 1 is read from the top offset down, and b
    holds an offset in o + 1 - k ... o + h(o) - k: one bisect, O(|a| log |b|)."""
    offsets = sorted(b.members)
    heights: dict[int, int] = {}
    hits = set()
    for o in sorted(a.members, reverse=True):
        h = heights[o] = heights.get(o + 1, 0) + 1
        i = bisect_left(offsets, o + 1 - k)
        if i < len(offsets) and offsets[i] <= o + h - k:
            hits.add(o)
    return hits


def is_shifting_prime(f: FactoredPoly, g: FactoredPoly) -> bool:
    """True when f and g have no common shifting divisor."""
    return not common_shifting_divisors(f, g)


def pairwise_shifting_prime(
    fs: list[FactoredPoly],
) -> tuple[bool, tuple[int, int, Exact] | None]:
    """All-pairs check on each input's classes; on failure returns
    (i, j, divisor base) as witness."""
    classes = [shift_classes(f) for f in fs]
    pair = _first_shared_pair(classes)
    if pair is None:
        return True, None
    i, j = pair
    return False, (i, j, _common_divisors(classes[i], classes[j])[0])


def _first_shared_pair(classes: Sequence[list[ShiftClass]]) -> tuple[int, int] | None:
    """The first pair (i, j) of groupings with a common shifting divisor,
    None when they are pairwise shifting prime."""
    for i, j in combinations(range(len(classes)), 2):
        if _shares_divisor(classes[i], classes[j]):
            return i, j
    return None
