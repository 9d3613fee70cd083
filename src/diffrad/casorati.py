"""Casorati determinants of polynomial tuples.

The Casoratian of f_1, ..., f_m is the determinant whose row k holds the
k-th shifts f_i(z+k).  Since f(z+k) = sum_j C(k, j) delta^j f, those shift
rows are a unitriangular recombination of the rows of k-th forward
differences, so both layouts have one determinant.  Production computes it
from the difference rows only, whose degrees drop row by row while every
shift row keeps the full degree; that identity is why the shift layout
lives on only as a test oracle.
"""

from __future__ import annotations

import math
from typing import Literal, Sequence

from . import diffcalc
from .poly import Poly, _Lane, _to_lane
from .scalar import _ONE_KEY

Form = Literal["delta", "shift"]
FORMS = ("delta", "shift")


def _check_form(form: str) -> None:
    if form not in FORMS:
        raise ValueError(f"unknown Casorati form {form!r}; expected one of {FORMS}")


def _det_cofactor(rows: list[list]) -> Poly:
    """Cofactor expansion over the first row, for entries of one ring:
    Polys or lanes."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = type(rows[0][0])()
    for j, top in enumerate(rows[0]):
        if not top:
            continue
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        term = top * _det_cofactor(minor)
        total = total - term if j % 2 else total + term
    return total


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
    """Determinant of a square grid of polynomials, given as a list of rows.

    Exact rows are converted to lanes once, each row scaled to integer
    lanes by the lcm of its denominators, and the product of those scales
    divides the result once at the end.
    """
    rows = [list(row) for row in rows]
    lanes = [[_to_lane(p) for p in row] for row in rows]
    if any(None in row for row in lanes):
        return _det(rows, COFACTOR_MAX)
    den = 1
    for row in lanes:
        d = math.lcm(*(x.den for x in row))
        row[:] = [_Lane(x.over(d).terms) for x in row]
        den *= d
    radical = any(key != _ONE_KEY for row in lanes for x in row for key in x.terms)
    det = _det(lanes, COFACTOR_MAX_RADICAL if radical else COFACTOR_MAX)
    return _Lane(det.terms, det.den * den).to_poly()


# Cofactor expansion costs n! products, Bareiss n^3 products and exact
# divisions; each division by a radical pivot runs the conjugate tower.  The
# largest sizes that cofactors take, from the Bareiss/cofactor time ratio on
# lanes of difference rows of random degree-3 and degree-8 polynomials over
# Q and over Q(i, sqrt 2, sqrt 3, sqrt 5) (three tuples each, CPython 3.11,
# one Intel Xeon core); above 1, cofactors are faster:
#
#   rows, degree    4x4        5x5         6x6        7x7
#   Q, 3            0.97-1.01  0.60-0.81   0.32-0.36  0.17-0.19
#   Q, 8            1.19-1.34  0.79-0.84   0.31-0.33  0.09-0.10
#   radical, 3      2.0-5.0    6.0-10.9    1.8-4.0    1.4-2.9
#   radical, 8      4.8-6.0    4.3-4.9     2.2-3.7    0.9-1.2
COFACTOR_MAX = 4
COFACTOR_MAX_RADICAL = 6


def _det(rows: list[list], cofactor_max: int):
    """Determinant of rows of Polys or of lanes: cofactors up to
    cofactor_max rows, Bareiss above."""
    if len(rows) <= cofactor_max:
        return _det_cofactor(rows)
    return _det_bareiss(rows)


def casoratian(fs: Sequence[Poly], form: Form = "delta") -> Poly:
    """Casorati determinant of the tuple.

    Both forms name the same determinant, which is computed from the
    difference rows f_i, delta f_i, ..., delta^(m-1) f_i; ``form`` is only
    checked.
    """
    _check_form(form)
    if not fs:
        raise ValueError("need at least one polynomial")
    rows = [list(fs)]
    while len(rows) < len(fs):
        rows.append([diffcalc.delta(f) for f in rows[-1]])
    return determinant(rows)


def linearly_independent(fs: Sequence[Poly], tol=None) -> bool:
    """True iff the Casoratian is not negligible (see ``Poly.negligible``).

    A numeric Casoratian counts as zero (rounding noise) when every
    coefficient is below ``tol``, by default 2^(-prec/2) at its widest
    coefficient, which has the inputs' widest precision.
    """
    return not casoratian(fs).negligible(tol)


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
