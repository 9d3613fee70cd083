"""Expression front-end for polynomials with exact radical scalars.

Grammar (whitespace insignificant, no implicit multiplication):

    expr     := unary (('+' | '-') unary)*
    unary    := '-' unary | factor
    factor   := atom ('^' uint)?
    atom     := rational | 'i' | 'sqrt' '(' uint ')' | 'z' | '(' expr ')'
              | func | rootsform
    func     := ('ff' | 'rf') '(' expr ',' uint ')'
              | 'shift' '(' expr ',' int ')'
    rootsform:= 'roots' '(' expr (';' [rootspec (',' rootspec)*])? ')'
    rootspec := expr ':' uint
    rational := uint ('/' uint)?

'^' binds tighter than unary minus, so -z^2 parses as -(z^2).  ff and rf
build falling and raising factorial expressions, shift translates the
argument, and roots(lead; r1:m1, ...) enters a factored polynomial directly
(the lead and the r_i must evaluate to scalars, the lead nonzero).  sqrt
accepts any positive integer and normalizes square parts, e.g. sqrt(8) =
2*sqrt(2).

Parsing is one pass: every grammar rule returns the value it read, a Poly,
or a FactoredPoly for a roots(...) literal.  A roots literal stays factored
only when it is the whole input (parentheses allowed); an operator, ff, rf or
shift expands it.  eval_expr and eval_factored are the two readings of a
parsed value.

Every input either parses or raises ParseError with a 0-based offset, in
bounded time.  These limits are checked at the offending token, before
anything is built:

- nesting beyond MAX_NESTING levels (the interpreter stack);
- an integer literal of more than MAX_DIGITS digits;
- a sqrt radicand above MAX_RADICAND, the largest that trial division
  up to scalar.TRIAL_LIMIT always factors;
- a result of degree above MAX_DEGREE: deg * e for '^', deg * count for
  ff and rf, the degree sum for '*' and the multiplicity sum of roots(...).
  A constant counts as degree 1 there, so exponents and counts are bounded
  too;
- a result whose coefficients are estimated above MAX_BITS bits, the same
  way: bits * e for '^', the bit sum for '*', count * (bits + len(count))
  for ff and rf, bits + deg * (len(step) + 1) for shift, and the lead's
  bits plus each root's bits times its multiplicity for roots(...).  A
  coefficient counts the longer of its numerator and denominator plus half
  of each radicand.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from . import diffcalc
from .errors import ParseError
from .poly import FactoredPoly, Poly, factor
from .scalar import TRIAL_LIMIT, Exact

MAX_NESTING = 100  # ~5 interpreter frames per level, well under the stack cap
MAX_DIGITS = 1000  # below CPython's 4300-digit int() limit
MAX_RADICAND = TRIAL_LIMIT**2
MAX_DEGREE = 1000
# below CPython's 4300-digit str() limit (14284 bits), so every parsed
# constant prints; ff(z, 1000), whose coefficients reach 8530 bits,
# estimates 11000
MAX_BITS = 12_000

Value = Poly | FactoredPoly
NAMES = frozenset({"z", "i", "sqrt", "ff", "rf", "shift", "roots"})  # every name parse_name reads

# -- tokenizer ---------------------------------------------------------------

_SYMBOLS = set("+-*/^(),;:")


class _Token(NamedTuple):
    kind: str  # 'int', 'name', or the symbol itself
    text: str
    offset: int


def _tokenize(src: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    n = len(src)
    while pos < n:
        ch = src[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch.isdigit():
            start = pos
            while pos < n and src[pos].isdigit():
                pos += 1
            if pos - start > MAX_DIGITS:
                raise ParseError(
                    f"integer literal longer than {MAX_DIGITS} digits", start
                )
            tokens.append(_Token("int", src[start:pos], start))
            continue
        if ch.isalpha():
            start = pos
            while pos < n and src[pos].isalpha():
                pos += 1
            tokens.append(_Token("name", src[start:pos], start))
            continue
        if ch in _SYMBOLS:
            tokens.append(_Token(ch, ch, pos))
            pos += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", pos)
    tokens.append(_Token("end", "", n))
    return tokens


def _check_degree(degree: int | float, offset: int) -> None:
    if degree > MAX_DEGREE:
        raise ParseError(f"degree above {MAX_DEGREE}", offset)


def _bits(value: Value) -> int:
    """Estimated bits of the largest coefficient of a value, at least 1, read
    off the lane: a term n/d * sqrt(prod primes), n/d in lowest terms, counts
    the longer of n and d plus half of each radicand."""
    if isinstance(value, FactoredPoly):
        return _bits(Poly([value.lead])) + sum(m * _bits(Poly([r])) for r, m in value.roots)
    den = value._lane.den
    bits = (
        max((c // g).bit_length(), (den // g).bit_length())
        + sum((p.bit_length() + 1) // 2 for p in primes)
        for (_, primes), ints in value._lane.terms.items()
        for c in ints
        if c and (g := math.gcd(c, den))
    )
    return max(bits, default=1)


def _check_bits(bits: int, offset: int) -> None:
    if bits > MAX_BITS:
        raise ParseError(f"coefficients above {MAX_BITS} bits", offset)


def count_bound(base: Value, count: int, factorial: bool = False) -> str | None:
    """The bound an exponent or ff/rf count of base passes, None within both:
    the result's degree above MAX_DEGREE (a constant base counts as degree 1)
    or its estimated bits above MAX_BITS (each ff/rf factor base - j has
    |j| < count)."""
    if max(base.degree, 1) * count > MAX_DEGREE:
        return f"degree above {MAX_DEGREE}"
    if (_bits(base) + (count.bit_length() if factorial else 0)) * count > MAX_BITS:
        return f"coefficients above {MAX_BITS} bits"
    return None


class _Parser:
    def __init__(self, src: str):
        self.tokens = _tokenize(src)
        self.pos = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                tok.offset,
            )
        return self.advance()

    def nest(self) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError("expression nested too deeply", self.peek().offset)

    # grammar rules ---------------------------------------------------------

    def parse_expr(self) -> Value:
        self.nest()
        try:
            value = self.parse_unary()
            while self.peek().kind in ("+", "-"):
                op = self.advance().kind
                lhs, rhs = eval_expr(value), eval_expr(self.parse_unary())
                value = lhs + rhs if op == "+" else lhs - rhs
            return value
        finally:
            self.depth -= 1

    def parse_unary(self) -> Value:
        if self.peek().kind != "-":
            return self.parse_term()
        self.nest()
        try:
            self.advance()
            return -eval_expr(self.parse_unary())
        finally:
            self.depth -= 1

    def parse_term(self) -> Value:
        value = self.parse_factor()
        while self.peek().kind == "*":
            star = self.advance()
            rhs = self.parse_factor()
            _check_degree(value.degree + rhs.degree, star.offset)
            _check_bits(_bits(value) + _bits(rhs), star.offset)
            value = eval_expr(value) * eval_expr(rhs)
        return value

    def parse_factor(self) -> Value:
        value = self.parse_atom()
        if self.peek().kind == "^":
            self.advance()
            exponent = self.parse_count(value)
            value = eval_expr(value) ** exponent
        return value

    def parse_uint(self) -> int:
        return int(self.expect("int").text)

    def parse_int(self) -> int:
        if self.peek().kind == "-":
            self.advance()
            return -self.parse_uint()
        return self.parse_uint()

    def parse_count(self, base: Value, factorial: bool = False) -> int:
        """An exponent or ff/rf count, refused by ``count_bound``."""
        offset = self.peek().offset
        count = self.parse_uint()
        if passed := count_bound(base, count, factorial):
            raise ParseError(passed, offset)
        return count

    def parse_scalar(self, what: str) -> Exact:
        offset = self.peek().offset
        value = eval_expr(self.parse_expr())
        if value.degree >= 1:
            raise ParseError(f"{what} must be a scalar expression", offset)
        return value.coeff(0)

    def parse_atom(self) -> Value:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            value = Fraction(int(tok.text))
            if self.peek().kind == "/":
                self.advance()
                den = self.parse_uint()
                if den == 0:
                    raise ParseError("zero denominator", tok.offset)
                value = Fraction(int(tok.text), den)
            return Poly.constant(Exact.from_rational(value))
        if tok.kind == "(":
            self.advance()
            value = self.parse_expr()
            self.expect(")")
            return value
        if tok.kind == "name":
            return self.parse_name()
        raise ParseError(
            f"expected a value, found {tok.text or 'end of input'!r}", tok.offset
        )

    def parse_name(self) -> Value:
        tok = self.advance()
        name = tok.text
        if name not in NAMES:
            raise ParseError(f"unknown name {name!r}", tok.offset)
        if name == "z":
            return Poly.z()
        if name == "i":
            return Poly.constant(Exact.i())
        if name == "sqrt":
            self.expect("(")
            offset = self.peek().offset
            radicand = self.parse_uint()
            self.expect(")")
            if radicand == 0:
                raise ParseError("sqrt of zero is not a radical", tok.offset)
            if radicand > MAX_RADICAND:
                raise ParseError(f"sqrt radicand above {MAX_RADICAND}", offset)
            return Poly.constant(Exact.sqrt_int(radicand))
        if name in ("ff", "rf"):
            self.expect("(")
            base = eval_expr(self.parse_expr())
            self.expect(",")
            count = self.parse_count(base, factorial=True)
            self.expect(")")
            power = diffcalc.falling_power if name == "ff" else diffcalc.raising_power
            return power(base, count)
        if name == "shift":
            self.expect("(")
            base = eval_expr(self.parse_expr())
            self.expect(",")
            offset = self.peek().offset
            step = self.parse_int()
            self.expect(")")
            spread = max(base.degree, 0) * (abs(step).bit_length() + 1)
            _check_bits(_bits(base) + spread, offset)
            return diffcalc.shift(base, step)
        return self.parse_roots()  # name == "roots"

    def parse_roots(self) -> FactoredPoly:
        self.expect("(")
        offset = self.peek().offset
        lead = self.parse_scalar("leading coefficient")
        if not lead:
            raise ParseError("leading coefficient must be nonzero", offset)
        pairs: list[tuple[Exact, int]] = []
        degree, bits = 0, _bits(Poly([lead]))
        if self.peek().kind == ";":
            self.advance()
            if self.peek().kind != ")":
                while True:
                    root = self.parse_scalar("root")
                    self.expect(":")
                    offset = self.peek().offset
                    mult = self.parse_uint()
                    if mult == 0:
                        raise ParseError("multiplicity must be >= 1", offset)
                    degree += mult
                    _check_degree(degree, offset)
                    bits += mult * _bits(Poly([root]))
                    _check_bits(bits, offset)
                    pairs.append((root, mult))
                    if self.peek().kind != ",":
                        break
                    self.advance()
        self.expect(")")
        return FactoredPoly(lead, pairs)


def parse(src: str) -> Value:
    """Parse source text to its value; raises ParseError with a 0-based offset.

    A roots(...) literal that is the whole input comes back as a FactoredPoly,
    anything else as a Poly.
    """
    parser = _Parser(src)
    value = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(f"unexpected trailing input {tok.text!r}", tok.offset)
    return value


def eval_expr(value: Value) -> Poly:
    """The expanded reading of a parsed value."""
    return value.expand() if isinstance(value, FactoredPoly) else value


def eval_factored(value: Value) -> FactoredPoly:
    """The factored reading of a parsed value.

    A roots(...) literal is already factored; a Poly goes through factor(),
    which may raise RootsUnavailableError.
    """
    return value if isinstance(value, FactoredPoly) else factor(value)


def parse_poly(src: str) -> Poly:
    return eval_expr(parse(src))


def parse_factored(src: str) -> FactoredPoly:
    return eval_factored(parse(src))
