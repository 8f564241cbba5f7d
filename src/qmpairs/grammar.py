"""Expression parser shared by the CLI and the round-trip tests.

Two modes.  Triangular mode knows the generators a1 b1 g1 a2 b2 g2, the
scalars s, r and q (q^k is stored as s^2k), the matrix tokens U1 and U2,
and bracket matrix literals [[e11, e12], [0, e22]].  Background mode
knows a b c d Di and the primed copies a' b' c' d' Di', plus s and q
(the background scalars carry no r).  Integers are ASCII digits.

One recursive-descent parser serves both modes.  It is given the
engine's generator names and constructors, and evaluates as it parses;
a literal's entries are parsed in place by the same expression rule as
top-level input.  Each mode imports its engine on first use, so
parse_background loads no triangular module and parse_triangular no mq2.

Syntax errors raise ParseError with a 1-based column; errors coming out
of the engine (bad corner exponents, non-invertible entries) propagate
unchanged.
"""

from functools import cache, partial

from . import InputError
from .scalars import LaurentScalar

MATRIX_NAMES = ("U1", "U2")
_TRI_SCALARS = {"s": (1, 0), "q": (2, 0), "r": (0, 1)}
_BG_SCALARS = {"s": (1, 0), "q": (2, 0)}


class ParseError(InputError):
    def __init__(self, message, column):
        super().__init__("%s (column %d)" % (message, column))
        self.column = column


_SYMBOLS = "+-*^()[],"
_DIGITS = "0123456789"


def tokenize(src):
    """(kind, value, column) triples; kinds NAME, INT, SYM, END."""
    out = []
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        col = i + 1
        if ch.isalpha():
            j = i + 1
            while j < n and (src[j].isalnum() or src[j] == "'"):
                j += 1
            out.append(("NAME", src[i:j], col))
            i = j
        elif ch in _DIGITS:
            j = i + 1
            while j < n and src[j] in _DIGITS:
                j += 1
            try:
                out.append(("INT", int(src[i:j]), col))
            except ValueError:  # more digits than int() converts
                raise ParseError("integer literal too long", col) from None
            i = j
        elif ch in _SYMBOLS:
            out.append(("SYM", ch, col))
            i += 1
        else:
            raise ParseError("unexpected character %r" % ch, col)
    out.append(("END", None, n + 1))
    return out


class _Parser:
    """Sums of products of powered atoms over one token list.

    names are the engine's generators, built by generator(name, exponent);
    scalars maps each scalar name to the (s, r) exponents of its first
    power, and scalar(LaurentScalar) builds the engine's scalar values.
    matrix(index) and literal(e11, e12, e22) build triangular matrices.
    """

    def __init__(self, tokens, names, generator, scalars, scalar,
                 matrix=None, literal=None):
        self.tokens = tokens
        self.pos = 0
        self.names = names
        self.generator = generator
        self.scalars = scalars
        self.scalar = scalar
        self.matrix = matrix
        self.make_literal = literal

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def accept(self, symbol):
        """Consume the next token if it is this symbol."""
        kind, value, _ = self.peek()
        if kind == "SYM" and value == symbol:
            self.pos += 1
            return True
        return False

    def expect_sym(self, symbol):
        kind, value, col = self.next()
        if kind != "SYM" or value != symbol:
            raise ParseError("expected %r" % symbol, col)

    def exponent(self):
        """Integer after '^', optionally negative."""
        sign = -1 if self.accept("-") else 1
        kind, value, col = self.next()
        if kind != "INT":
            raise ParseError("expected an integer exponent", col)
        return sign * value

    def parse(self, rule):
        """Run one rule over the whole input."""
        value = rule()
        kind, _, col = self.peek()
        if kind != "END":
            raise ParseError("unexpected trailing input", col)
        return value

    def expression(self):
        negate = self.accept("-")
        value = self.term()
        if negate:
            value = -value
        while True:
            if self.accept("+"):
                value = value + self.term()
            elif self.accept("-"):
                value = value - self.term()
            else:
                return value

    def term(self):
        value = self.factor()
        while self.accept("*"):
            value = value * self.factor()
        return value

    def factor(self):
        kind, token, col = self.next()
        if kind == "NAME":
            exponent = self.exponent() if self.accept("^") else 1
            return self.named(token, exponent, col)
        if kind == "INT":
            value = self.scalar(LaurentScalar.integer(token))
        elif kind == "SYM" and token == "(":
            value = self.expression()
            self.expect_sym(")")
        else:
            raise ParseError("expected a value", col)
        if self.accept("^"):
            value = value ** self.exponent()
        return value

    def named(self, name, exponent, col):
        if name in self.names:
            return self.generator(name, exponent)
        if name not in self.scalars:
            raise ParseError("unknown name %r" % name, col)
        s_exp, r_exp = self.scalars[name]
        return self.scalar(
            LaurentScalar.monomial(1, s_exp * exponent, r_exp * exponent))

    def matrix_product(self):
        """Products of powered matrix atoms: U1, U2, and bracket literals."""
        value = self.matrix_atom()
        while self.accept("*"):
            value = value * self.matrix_atom()
        return value

    def matrix_atom(self):
        kind, token, col = self.peek()
        if kind == "NAME" and token in MATRIX_NAMES:
            self.next()
            matrix = self.matrix(int(token[1]))
        elif kind == "SYM" and token == "[":
            matrix = self.literal()
        else:
            raise ParseError("expected U1, U2 or a matrix literal", col)
        if self.accept("^"):
            matrix = matrix.pow(self.exponent())
        return matrix

    def row(self):
        self.expect_sym("[")
        first = self.expression()
        self.expect_sym(",")
        second = self.expression()
        self.expect_sym("]")
        return first, second

    def literal(self):
        _, _, col = self.peek()
        self.expect_sym("[")
        e11, e12 = self.row()
        self.expect_sym(",")
        e21, e22 = self.row()
        self.expect_sym("]")
        if e21:
            raise ParseError("lower left entry must reduce to 0", col)
        return self.make_literal(e11, e12, e22)


@cache
def _triangular(family):
    from .algebra import Element, generator, DIAG_NAMES, BETA_NAMES
    from .matrices import UTMatrix, generator_matrix
    return (DIAG_NAMES + BETA_NAMES, partial(generator, family=family),
            _TRI_SCALARS, partial(Element.scalar, family),
            partial(generator_matrix, family=family), UTMatrix)


@cache
def _background():
    from .mq2 import QGElement, _MONO_NAMES
    return _MONO_NAMES, QGElement.generator, _BG_SCALARS, QGElement.scalar


def parse_triangular(src, family):
    """UTMatrix for input that starts with a matrix token (U1, U2 or the
    '[' of a literal), Element for input with none; an input whose first
    matrix token comes later is an error at that token's column."""
    tokens = tokenize(src)
    parser = _Parser(tokens, *_triangular(family))
    first = next((index for index, (kind, value, _) in enumerate(tokens)
                  if (kind == "NAME" and value in MATRIX_NAMES)
                  or (kind == "SYM" and value == "[")), None)
    if first is None:
        return parser.parse(parser.expression)
    if first:
        raise ParseError("a matrix cannot appear in an element expression",
                         tokens[first][2])
    return parser.parse(parser.matrix_product)


def parse_background(src):
    """QGElement over the background generator set."""
    parser = _Parser(tokenize(src), *_background())
    return parser.parse(parser.expression)
