"""Expression parser shared by the CLI and the round-trip tests.

Two modes.  Triangular mode knows the generators a1 b1 g1 a2 b2 g2, the
scalars s, r and q (q^k is stored as s^2k), the matrix tokens U1 and U2,
and bracket matrix literals [[e11, e12], [0, e22]].  Background mode
knows a b c d Di and the primed copies a' b' c' d' Di', plus s and q
(the background scalars carry no r).

Syntax errors raise ParseError with a 1-based column; errors coming out
of the engine (bad corner exponents, non-invertible entries) propagate
unchanged.
"""

from .scalars import LaurentScalar
from .algebra import Element, generator
from .matrices import UTMatrix, generator_matrix
from . import mq2 as background

TRI_GENERATORS = ("a1", "b1", "g1", "a2", "b2", "g2")
BG_GENERATORS = ("a", "b", "c", "d", "Di", "a'", "b'", "c'", "d'", "Di'")
MATRIX_NAMES = ("U1", "U2")


class ParseError(ValueError):
    def __init__(self, message, column):
        super().__init__("%s (column %d)" % (message, column))
        self.column = column


_SYMBOLS = "+-*^()[],"


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
        elif ch.isdigit():
            j = i + 1
            while j < n and src[j].isdigit():
                j += 1
            out.append(("INT", int(src[i:j]), col))
            i = j
        elif ch in _SYMBOLS:
            out.append(("SYM", ch, col))
            i += 1
        else:
            raise ParseError("unexpected character %r" % ch, col)
    out.append(("END", None, n + 1))
    return out


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect_sym(self, symbol):
        kind, value, col = self.next()
        if kind != "SYM" or value != symbol:
            raise ParseError("expected %r" % symbol, col)

    def at_sym(self, symbol):
        kind, value, _ = self.peek()
        return kind == "SYM" and value == symbol

    def exponent(self):
        """Integer after '^', optionally negative."""
        sign = 1
        if self.at_sym("-"):
            self.next()
            sign = -1
        kind, value, col = self.next()
        if kind != "INT":
            raise ParseError("expected an integer exponent", col)
        return sign * value


class _ElementParser(_Parser):
    """Sums of products of powered atoms, evaluated as it parses.

    A subclass names its GENERATORS, maps each scalar name to the (s, r)
    exponents of its first power in SCALARS, and builds values through
    generator_element(name, exponent) and scalar_element(scalar).
    """

    def parse(self):
        value = self.expression()
        kind, _, col = self.peek()
        if kind != "END":
            raise ParseError("unexpected trailing input", col)
        return value

    def expression_only(self):
        value = self.expression()
        kind, _, col = self.peek()
        if kind != "END":
            raise ParseError("unexpected input inside a matrix entry", col)
        return value

    def expression(self):
        negate = False
        if self.at_sym("-"):
            self.next()
            negate = True
        value = self.term()
        if negate:
            value = -value
        while True:
            if self.at_sym("+"):
                self.next()
                value = value + self.term()
            elif self.at_sym("-"):
                self.next()
                value = value - self.term()
            else:
                return value

    def term(self):
        value = self.factor()
        while self.at_sym("*"):
            self.next()
            value = value * self.factor()
        return value

    def factor(self):
        kind, token, col = self.peek()
        if kind == "SYM" and token == "(":
            self.next()
            value = self.expression()
            self.expect_sym(")")
            if self.at_sym("^"):
                self.next()
                value = value ** self.exponent()
            return value
        if kind == "INT":
            self.next()
            if self.at_sym("^"):
                self.next()
                return self.integer_element(token) ** self.exponent()
            return self.integer_element(token)
        if kind == "NAME":
            self.next()
            exponent = 1
            if self.at_sym("^"):
                self.next()
                exponent = self.exponent()
            return self.named(token, exponent, col)
        raise ParseError("expected a value", col)

    def integer_element(self, value):
        return self.scalar_element(LaurentScalar.integer(value))

    def named(self, name, exponent, col):
        if name in self.GENERATORS:
            return self.generator_element(name, exponent)
        if name not in self.SCALARS:
            raise ParseError("unknown name %r" % name, col)
        s_exp, r_exp = self.SCALARS[name]
        return self.scalar_element(
            LaurentScalar.monomial(1, s_exp * exponent, r_exp * exponent))


class TriElementParser(_ElementParser):
    GENERATORS = TRI_GENERATORS
    SCALARS = {"s": (1, 0), "q": (2, 0), "r": (0, 1)}

    def __init__(self, tokens, family):
        super().__init__(tokens)
        self.family = family

    def generator_element(self, name, exponent):
        return generator(name, exponent, self.family)

    def scalar_element(self, scalar):
        return Element.scalar(self.family, scalar)


class BackgroundElementParser(_ElementParser):
    GENERATORS = BG_GENERATORS
    SCALARS = {"s": (1, 0), "q": (2, 0)}

    def generator_element(self, name, exponent):
        return background.QGElement.generator(name, exponent)

    def scalar_element(self, scalar):
        return background.QGElement.scalar(scalar)


class TriMatrixParser(_Parser):
    """Products of powered matrix atoms: U1, U2, and bracket literals."""

    def __init__(self, tokens, family):
        super().__init__(tokens)
        self.family = family

    def parse(self):
        value = self.atom()
        while self.at_sym("*"):
            self.next()
            value = value * self.atom()
        kind, _, col = self.peek()
        if kind != "END":
            raise ParseError("unexpected trailing input", col)
        return value

    def atom(self):
        kind, token, col = self.peek()
        if kind == "NAME" and token in MATRIX_NAMES:
            self.next()
            matrix = generator_matrix(int(token[1]), self.family)
        elif kind == "SYM" and token == "[":
            matrix = self.literal()
        else:
            raise ParseError("expected U1, U2 or a matrix literal", col)
        if self.at_sym("^"):
            self.next()
            matrix = matrix.pow(self.exponent())
        return matrix

    def entry(self):
        """One literal entry: an element expression up to ',' or ']'."""
        start = self.pos
        depth = 0
        while True:
            kind, value, col = self.tokens[self.pos]
            if kind == "END":
                raise ParseError("unterminated matrix literal", col)
            if kind == "SYM" and value == "(":
                depth += 1
            elif kind == "SYM" and value == ")":
                depth -= 1
            elif kind == "SYM" and depth == 0 and value in (",", "]"):
                break
            self.pos += 1
        slice_ = self.tokens[start:self.pos] + [("END", None,
                                                 self.tokens[self.pos][2])]
        return TriElementParser(slice_, self.family).expression_only()

    def row(self):
        self.expect_sym("[")
        first = self.entry()
        self.expect_sym(",")
        second = self.entry()
        self.expect_sym("]")
        return first, second

    def literal(self):
        _, _, col = self.peek()
        self.expect_sym("[")
        e11, e12 = self.row()
        self.expect_sym(",")
        e21, e22 = self.row()
        self.expect_sym("]")
        if e21 != Element.zero(self.family):
            raise ParseError("lower left entry must reduce to 0", col)
        return UTMatrix(e11, e12, e22)


def parse_triangular(src, family):
    """Element or UTMatrix, depending on whether matrix tokens appear."""
    tokens = tokenize(src)
    is_matrix = any(
        (kind == "NAME" and value in MATRIX_NAMES) or
        (kind == "SYM" and value == "[")
        for kind, value, _ in tokens)
    if is_matrix:
        return TriMatrixParser(tokens, family).parse()
    return TriElementParser(tokens, family).parse()


def parse_background(src):
    """QGElement over the background generator set."""
    return BackgroundElementParser(tokenize(src)).parse()
