"""Casorati determinants of polynomial tuples.

The Casoratian of f_1, ..., f_m is the determinant whose row k holds the
k-th shifts f_i(z+k).  Since f(z+k) = sum_j C(k, j) delta^j f, those shift
rows are a unitriangular recombination of the rows of k-th forward
differences, so both layouts have one determinant.  Production computes it
from the difference rows only, whose degrees drop row by row while every
shift row keeps the full degree; that identity is why the shift layout
lives on only as a test oracle.  One size rule serves every ring of
lanes: minors, with no division, through MINORS_MAX = 7 rows, Bareiss above.
"""

from __future__ import annotations

import itertools
import math
from typing import Literal, Sequence

from . import diffcalc
from .poly import Poly, _Lane

Form = Literal["delta", "shift"]
FORMS = ("delta", "shift")


def _check_form(form: str) -> None:
    if form not in FORMS:
        raise ValueError(f"unknown Casorati form {form!r}; expected one of {FORMS}")


def _det_minors(rows: list[list]) -> Poly:
    """Laplace expansion upward from the bottom row, for entries of one
    ring (Polys or lanes), keeping the lower rows' minors per column subset:
    n 2^(n-1) - n products, no division.  Rows expand over their nonzero
    entries in ascending column order, so sums and products come in the
    order of a cofactor expansion over the first row."""
    n = len(rows)
    minors = {(c,): x for c, x in enumerate(rows[-1])}
    for size in range(2, n + 1):
        row, wider = rows[n - size], {}
        for cols in itertools.combinations(range(n), size):
            total = type(row[0])()
            for k, c in enumerate(cols):
                if row[c]:
                    term = row[c] * minors[cols[:k] + cols[k + 1 :]]
                    total = total - term if k % 2 else total + term
            wider[cols] = total
        minors = wider
    return minors[tuple(range(n))]


def _det_bareiss(rows: list[list]) -> Poly:
    """Fraction-free elimination; every division is exact in the poly ring."""
    n = len(rows)
    m = [row[:] for row in rows]
    sign = 1
    prev = None  # the previous pivot; none before the first step
    for k in range(n - 1):
        if not m[k][k]:
            for r in range(k + 1, n):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return m[k][k]  # a zero column: the determinant is this zero
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = num if prev is None else num.divexact(prev)
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return -det if sign < 0 else det


def determinant(rows: Sequence[Sequence[Poly]]) -> Poly:
    """Determinant of a square grid of polynomials, given as a list of rows:
    by minors through MINORS_MAX rows, by Bareiss above.

    The entries' lanes are read once, each row scaled to integer lanes by
    the lcm of its denominators, and the product of those scales divides
    the result once at the end.
    """
    det = _det_minors if len(rows) <= MINORS_MAX else _det_bareiss
    lanes = [[p._lane for p in row] for row in rows]
    den = 1
    for row in lanes:
        d = math.lcm(*(x.den for x in row))
        row[:] = [_Lane(x.over(d).terms) for x in row]
        den *= d
    out = det(lanes)
    return Poly._wrap(_Lane(out.terms, out.den * den))


# Minors cost n 2^(n-1) - n products, Bareiss about n^3 products and exact
# divisions.  Bareiss/minors time ratio on lanes of difference rows of random
# polynomials (three tuples each, CPython 3.11, one Intel Xeon core); over Q
# minors lose from 8 rows on, over Q(i, sqrt 2, sqrt 3, sqrt 5) not yet:
#
#   rows, degree    5x5      6x6      7x7      8x8      10x10
#   Q, 12           1.9      1.6-1.9  1.3      0.9-1.0  0.6
#   Q, 24           1.9      1.5      1.1      0.8      0.35
#   radical, 9      5.1-6.6  6.1-7.0  6.2-7.2  5.6-7.2  -
MINORS_MAX = 7


def casoratian(fs: Sequence[Poly], form: Form = "delta") -> Poly:
    """Casorati determinant of the tuple.

    Both forms name the same determinant, which is computed from the
    difference rows f_i, delta f_i, ..., delta^(m-1) f_i; ``form`` is only
    checked.  Column i is the first m items of ``differences(f_i)``, padded
    with zeros past the last nonzero difference.
    """
    _check_form(form)
    if not fs:
        raise ValueError("need at least one polynomial")
    m, zero = len(fs), Poly()
    cols = [list(itertools.islice(diffcalc.differences(f), m)) for f in fs]
    return determinant(list(zip(*(col + [zero] * (m - len(col)) for col in cols))))


def linearly_independent(fs: Sequence[Poly]) -> bool:
    """True iff the Casoratian is not zero."""
    return bool(casoratian(fs))


def casoratian_replace(fs: Sequence[Poly], index: int, fsum: Poly) -> Poly:
    """Determinant with column `index` replaced by fsum = f_1 + ... + f_m.

    Replacing one column by the sum of all columns leaves the determinant
    unchanged (multilinearity kills every duplicated-column term), which is
    asserted before returning.
    """
    if sum(fs, Poly()) != fsum:
        raise ValueError("fsum must equal the sum of the tuple")
    if not 0 <= index < len(fs):
        raise ValueError("replacement index out of range")
    replaced = list(fs)
    replaced[index] = fsum
    det = casoratian(replaced)
    original = casoratian(fs)
    if det != original:  # pragma: no cover - identity
        raise ArithmeticError("column replacement changed the determinant")
    return det
