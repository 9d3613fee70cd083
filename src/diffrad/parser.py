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
(the r_i must evaluate to scalars).  sqrt accepts any positive integer and
normalizes square parts, e.g. sqrt(8) = 2*sqrt(2).

Every input either parses or raises ParseError with a 0-based offset;
nesting beyond MAX_NESTING levels is refused rather than risking the
interpreter stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from . import diffcalc
from .errors import ParseError
from .poly import FactoredPoly, Poly, factor
from .scalar import Exact

# -- AST ---------------------------------------------------------------------


@dataclass(frozen=True)
class RationalLit:
    value: Fraction


@dataclass(frozen=True)
class ImagUnit:
    pass


@dataclass(frozen=True)
class SqrtLit:
    radicand: int


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Neg:
    operand: "ExprAst"


@dataclass(frozen=True)
class BinOp:
    op: str  # '+', '-', '*'
    left: "ExprAst"
    right: "ExprAst"


@dataclass(frozen=True)
class Pow:
    base: "ExprAst"
    exponent: int


@dataclass(frozen=True)
class FallingPow:
    base: "ExprAst"
    count: int


@dataclass(frozen=True)
class RaisingPow:
    base: "ExprAst"
    count: int


@dataclass(frozen=True)
class ShiftBy:
    base: "ExprAst"
    step: int


@dataclass(frozen=True)
class RootsForm:
    lead: "ExprAst"
    pairs: tuple[tuple["ExprAst", int], ...]


ExprAst = Union[
    RationalLit, ImagUnit, SqrtLit, Var, Neg, BinOp, Pow,
    FallingPow, RaisingPow, ShiftBy, RootsForm,
]

# -- tokenizer ---------------------------------------------------------------

_SYMBOLS = set("+-*/^(),;:")


@dataclass(frozen=True)
class _Token:
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


MAX_NESTING = 100  # ~5 interpreter frames per level, well under the stack cap


class _Parser:
    def __init__(self, src: str):
        self.src = src
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

    def fail(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.offset)

    # grammar rules ---------------------------------------------------------

    def parse_expr(self) -> ExprAst:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError("expression nested too deeply", self.peek().offset)
        try:
            node = self.parse_unary()
            while self.peek().kind in ("+", "-"):
                op = self.advance().kind
                rhs = self.parse_unary()
                node = BinOp(op, node, rhs)
            return node
        finally:
            self.depth -= 1

    def parse_unary(self) -> ExprAst:
        if self.peek().kind == "-":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError("expression nested too deeply", self.peek().offset)
            try:
                self.advance()
                return Neg(self.parse_unary())
            finally:
                self.depth -= 1
        return self.parse_term()

    def parse_term(self) -> ExprAst:
        node = self.parse_factor()
        while self.peek().kind == "*":
            self.advance()
            node = BinOp("*", node, self.parse_factor())
        return node

    def parse_factor(self) -> ExprAst:
        node = self.parse_atom()
        if self.peek().kind == "^":
            self.advance()
            node = Pow(node, self.parse_uint())
        return node

    def parse_uint(self) -> int:
        return int(self.expect("int").text)

    def parse_int(self) -> int:
        if self.peek().kind == "-":
            self.advance()
            return -self.parse_uint()
        return self.parse_uint()

    def parse_atom(self) -> ExprAst:
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
            return RationalLit(value)
        if tok.kind == "(":
            self.advance()
            node = self.parse_expr()
            self.expect(")")
            return node
        if tok.kind == "name":
            return self.parse_name()
        raise self.fail(f"expected a value, found {tok.text or 'end of input'!r}")

    def parse_name(self) -> ExprAst:
        tok = self.advance()
        name = tok.text
        if name == "z":
            return Var()
        if name == "i":
            return ImagUnit()
        if name == "sqrt":
            self.expect("(")
            radicand = self.parse_uint()
            self.expect(")")
            if radicand == 0:
                raise ParseError("sqrt of zero is not a radical", tok.offset)
            return SqrtLit(radicand)
        if name in ("ff", "rf"):
            self.expect("(")
            base = self.parse_expr()
            self.expect(",")
            count = self.parse_uint()
            self.expect(")")
            return (FallingPow if name == "ff" else RaisingPow)(base, count)
        if name == "shift":
            self.expect("(")
            base = self.parse_expr()
            self.expect(",")
            step = self.parse_int()
            self.expect(")")
            return ShiftBy(base, step)
        if name == "roots":
            return self.parse_roots(tok)
        raise ParseError(f"unknown name {name!r}", tok.offset)

    def parse_roots(self, tok: _Token) -> ExprAst:
        self.expect("(")
        lead = self.parse_expr()
        pairs: list[tuple[ExprAst, int]] = []
        if self.peek().kind == ";":
            self.advance()
            if self.peek().kind != ")":
                while True:
                    root = self.parse_expr()
                    self.expect(":")
                    mult = self.parse_uint()
                    if mult == 0:
                        raise ParseError("multiplicity must be >= 1", tok.offset)
                    pairs.append((root, mult))
                    if self.peek().kind != ",":
                        break
                    self.advance()
        self.expect(")")
        return RootsForm(lead, tuple(pairs))


def parse(src: str) -> ExprAst:
    """Parse source text to an AST; raises ParseError with a 0-based offset."""
    parser = _Parser(src)
    node = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(f"unexpected trailing input {tok.text!r}", tok.offset)
    return node


# -- evaluation --------------------------------------------------------------


def eval_expr(ast: ExprAst) -> Poly:
    """Evaluate an AST to an exact polynomial."""
    if isinstance(ast, RationalLit):
        return Poly.constant(Exact.from_rational(ast.value))
    if isinstance(ast, ImagUnit):
        return Poly.constant(Exact.i())
    if isinstance(ast, SqrtLit):
        return Poly.constant(Exact.sqrt_int(ast.radicand))
    if isinstance(ast, Var):
        return Poly.z()
    if isinstance(ast, Neg):
        return -eval_expr(ast.operand)
    if isinstance(ast, BinOp):
        lhs, rhs = eval_expr(ast.left), eval_expr(ast.right)
        if ast.op == "+":
            return lhs + rhs
        if ast.op == "-":
            return lhs - rhs
        return lhs * rhs
    if isinstance(ast, Pow):
        return eval_expr(ast.base) ** ast.exponent
    if isinstance(ast, FallingPow):
        return diffcalc.falling_power(eval_expr(ast.base), ast.count)
    if isinstance(ast, RaisingPow):
        return diffcalc.raising_power(eval_expr(ast.base), ast.count)
    if isinstance(ast, ShiftBy):
        return diffcalc.shift(eval_expr(ast.base), ast.step)
    if isinstance(ast, RootsForm):
        return eval_factored(ast).expand()
    raise TypeError(f"not an expression node: {ast!r}")


def _constant_scalar(node: ExprAst, what: str) -> Exact:
    value = eval_expr(node)
    if value.degree >= 1:
        raise ParseError(f"{what} must be a scalar expression", 0)
    return value.coeff(0)


def eval_factored(ast: ExprAst) -> FactoredPoly:
    """Evaluate to a factored polynomial.

    A roots(...) literal maps directly; any other expression is expanded and
    passed through factor(), which may raise RootsUnavailableError.
    """
    if isinstance(ast, RootsForm):
        lead = _constant_scalar(ast.lead, "leading coefficient")
        pairs = [
            (_constant_scalar(node, "root"), mult) for node, mult in ast.pairs
        ]
        return FactoredPoly(lead, pairs)
    return factor(eval_expr(ast))


def parse_poly(src: str) -> Poly:
    return eval_expr(parse(src))


def parse_factored(src: str) -> FactoredPoly:
    return eval_factored(parse(src))
