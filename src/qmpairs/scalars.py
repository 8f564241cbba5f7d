"""Exact coefficient arithmetic: integer Laurent polynomials in s and r.

The deformation parameter q is stored as s^2, so half powers of q keep
integer exponents.  A scalar is a finite sum of terms c * s^a * r^b with
integer c and integer exponents a, b of either sign.  The second unit r
is the off-diagonal deformation parameter; engines that set r = 1 do so
through substitute_r_one.

A scalar takes one of two forms.  A scalar whose terms all carry one r
power, an s-polynomial times r^b such as every scalar of the r = 1
engines, is packed along s by Kronecker substitution (Schoenhage, EUROCAM
1982; Harvey, J. Symbolic Comput. 44, 2009; FLINT's fmpz_poly does the
same): sum_k c_k s^(low + k) r^b is held as b, low and the one Python
integer sum_k c_k 2^(W k), each c_k a balanced signed digit of W bits, W a
multiple of 64.  A product of two packed values is then one big-integer
multiply, a sum at one r power one big-integer add after a shift that
lines up the two lows, and a shift moves low and b.  Every other scalar,
one spanning several r powers (as the r-polynomials of Type III) or a
sparse one such as 1 + s^100000000000, is held as a dict {(a, b): c} with
no zero coefficients and takes the term-by-term arithmetic of SparseSum.
A packed value longer than _LONG digits has at least one term per
_DENSITY digits, so no value takes much more memory packed than it would
as a dict.

Exactness guard.  A packed value carries its norm, a bound on the sum of
the sizes of its coefficients: exact when the value is packed from its
terms, and grown by |x + y| <= |x| + |y| and |x y| <= |x| |y| through
sums and products.  Each coefficient is at most the norm, so the digits
are exact while the norm stays below 2^(W-1).  An operation whose result
norm would reach that repacks its operands at their exact norms plus
_HEADROOM bits, widening W; so no digit ever overflows, and the norm is
tightened only then, not on every operation.  Equality and hash read the
terms, which depend on neither W nor the form; two values packed at one r
power and one width compare as (low, packed) directly.  text() reads a
packed value's digits, lowest first, which are already in ascending s
order, and sorts only a dict-held value's terms.  A product with a unit
+-s^a r^b moves the other factor by (a, b) and flips its sign for -1,
keeping its width and norm: no digit changes size.

The module also holds what the engine's values share: the sum core
SparseSum, the one term-pair product loop product(), the one power
routine power(), and Matrix2x2, the one body of the 2 x 2 matrices.
"""

import operator
import sys
from array import array
from itertools import compress, count, repeat
from types import MappingProxyType

_HEADROOM = 16   # spare bits above the exact norm when a value is packed
_LONG = 256      # packed values longer than this many digits must be dense
_DENSITY = 16    # ... with at least one term per _DENSITY digits
_LITTLE = sys.byteorder == "little"


class SparseSum:
    """A finite sum held as {key: coefficient} with no zero coefficients.

    The cold operations of LaurentScalar, Element and QGElement live here
    once.  A subclass holds its terms mapping as terms and supplies the
    hooks _like(terms), which builds a value of the same kind from clean
    terms without running __init__, and _operand(other), which coerces the
    other side of + and - (None when it does not apply).  Element and
    QGElement also supply _factors(key), the rendered generator powers of
    one key, for text(); Element refines _coefficient(coeff), the one way a
    coefficient enters, to its family's ground ring.  Values are equal
    when they share class, family and terms.  LaurentScalar keeps its own
    equality, hash and text, which read its digits.  Each subclass keeps a
    thin __mul__ with its own operand rule, and every term-by-term product
    runs the one loop of product(), with the subclass's kernel.
    """

    __slots__ = ()

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            accumulate(out, key, coeff)
        return self._like(out)

    __radd__ = __add__

    def __neg__(self):
        return self._like({key: -coeff for key, coeff in self.terms.items()})

    def __sub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.family is other.family and self.terms == other.terms

    def __hash__(self):
        return hash((self.family, frozenset(self.terms.items())))

    def _coefficient(self, coeff):
        """coeff, an int or a LaurentScalar, as a LaurentScalar."""
        if coeff.__class__ is LaurentScalar:
            return coeff
        scalar = _coerce(coeff)
        if scalar is None:
            raise TypeError("not a scalar coefficient: %r" % (coeff,))
        return scalar

    def _clean(self, terms):
        """terms, each coefficient made by _coefficient, zeros left out."""
        out = {}
        for key, coeff in terms.items():
            coeff = self._coefficient(coeff)
            if coeff:
                out[key] = coeff
        return out

    def scale(self, coeff):
        """Multiply by a scalar (int or LaurentScalar).  A product of two
        nonzero scalars is never zero, so only a zero coeff drops terms."""
        coeff = self._coefficient(coeff)
        if not coeff:
            return self._like({})
        return self._like({key: c * coeff for key, c in self.terms.items()})

    def text(self):
        """Canonical rendering, terms in ascending key order, each from
        term_text(coeff, _factors(key)) and joined by its sign."""
        chunks = []
        for key, coeff in sorted(self.terms.items()):
            body, negative = term_text(coeff, self._factors(key))
            if chunks:
                chunks.append((" - " if negative else " + ") + body)
            else:
                chunks.append("-" + body if negative else body)
        return "".join(chunks) or "0"


def product(x, y, kernel, rules=None, out=None):
    """The term-pair product of two term mappings, added into out, a new
    dict by default: for each term of x and each of y, kernel(out, key_x,
    key_y, coeff_x * coeff_y, rules) adds that pair's product into out,
    with whatever factor or extra terms the algebra's reordering brings.
    rules is what the kernel needs beyond the keys: an Element's family."""
    if out is None:
        out = {}
    right = y.items()
    for kx, cx in x.items():
        for ky, cy in right:
            kernel(out, kx, ky, cx * cy, rules)
    return out


def accumulate(out, key, coeff):
    """Add coeff into out[key], dropping the key when the sum is zero."""
    prev = out.get(key)
    total = coeff if prev is None else prev + coeff
    if total:
        out[key] = total
    else:
        out.pop(key, None)


def term_text(coeff, factors):
    """One term coeff * factors as (body, negative) for SparseSum.text.

    coeff is a LaurentScalar and factors the rendered generator powers.
    A unit coefficient is left out, a sign is pulled out of a one-term
    coefficient, and a longer coefficient is parenthesized; the term
    count comes from the rendering, so no term dict is built.
    """
    text, term_count = _render(coeff)
    if factors and term_count > 1:
        return "(%s) * %s" % (text, " * ".join(factors)), False
    negative = text.startswith("-")
    if negative:
        text = text[1:]
    if text != "1" or not factors:
        factors = [text] + factors
    return " * ".join(factors), negative


# ---- the packed form: balanced digits in one integer ----------------------

def _width_for(norm):
    """The digit width for coefficients of size <= norm, with headroom."""
    return 64 * ((norm.bit_length() + _HEADROOM) // 64 + 1)


def _bias(width, count):
    """B = sum_k 2^(width-1) 2^(width k) over k < count.

    P + B has every digit c_k + 2^(width-1) in [0, 2^width), so no digit
    borrows from its neighbour; flipping the top bit of each digit, (P + B)
    ^ B, leaves the digits of P in two's complement, read off in one
    to_bytes pass.
    """
    return int.from_bytes(
        (bytes(width // 8 - 1) + b"\x80") * count, "little")


def _unpack(packed, width):
    """The balanced digits of packed, lowest first.

    With the digits' norm below 2^(width-1), an n-digit value lies between
    2^(width(n-1)-1) and 2^(width n-1) in size, so its bit length gives n.
    """
    count = packed.bit_length() // width + 1
    if count == 1:
        return [packed]
    bias = _bias(width, count)
    size = width // 8
    raw = ((packed + bias) ^ bias).to_bytes(count * size, "little")
    if width == 64:
        digits = array("q", raw)
        if not _LITTLE:
            digits.byteswap()
        return digits.tolist()
    return [int.from_bytes(raw[k:k + size], "little", signed=True)
            for k in range(0, len(raw), size)]


def _pack(digits, width):
    """sum_k digits[k] 2^(width k); the inverse of _unpack."""
    if len(digits) == 1:
        return digits[0]
    if width == 64:
        raw = array("q", digits)
        if not _LITTLE:
            raw.byteswap()
    else:
        size = width // 8
        raw = b"".join(digit.to_bytes(size, "little", signed=True)
                       for digit in digits)
    bias = _bias(width, len(digits))
    return (int.from_bytes(raw, "little") ^ bias) - bias


_new = object.__new__


def _packed_value(line, low, packed, width, norm):
    out = _new(LaurentScalar)
    out._line = line
    out._low = low
    out._packed = packed
    out._width = width
    out._norm = norm
    return out


def _sparse_value(terms):
    out = _new(LaurentScalar)
    out._packed = None
    out._terms = terms
    return out


def _line_terms(line, low, digits):
    """The terms of digits, digit k at s^(low + k) r^line."""
    return {(low + k, line): c for k, c in enumerate(digits) if c}


def _thin(count, terms):
    """True when count digits holding terms nonzero ones are too sparse to
    pack."""
    return count > _LONG and count > _DENSITY * terms


def _from_terms(terms):
    """The value of clean terms {(a, b): c}, packed when they all carry
    one r power b (an s-polynomial times r^b)."""
    if not terms:
        return ZERO
    keys = iter(terms)
    _, line = next(keys)
    if any(b != line for _, b in keys):
        return _sparse_value(terms)
    low = min(a for a, _ in terms)
    count = max(a for a, _ in terms) - low + 1
    if _thin(count, len(terms)):
        return _sparse_value(terms)
    digits = [0] * count
    for (a, _), coeff in terms.items():
        digits[a - low] = coeff
    norm = sum(map(abs, digits))
    width = _width_for(norm)
    return _packed_value(line, low, _pack(digits, width), width, norm)


def _checked(value):
    """value, a packed result about _LONG digits long or longer, or its
    sparse form if it has fewer than one term per _DENSITY digits."""
    digits = _unpack(value._packed, value._width)
    if _thin(len(digits), len(digits) - digits.count(0)):
        return _sparse_value(_line_terms(value._line, value._low, digits))
    return value


def _coerce(value):
    if isinstance(value, LaurentScalar):
        return value
    if isinstance(value, int):
        return LaurentScalar.integer(value)
    return None


def _render(value):
    """(text, term count) of a scalar, its terms c * s^a * r^b in ascending
    (a, b) order.

    A packed value's digits are read as they are, lowest first, skipping
    zeros: they lie on one r power in ascending s order, so no term dict is
    built and nothing is sorted.  A dict-held value's terms are sorted.
    """
    x = value._packed
    if x is None:
        terms = sorted(value._terms.items())
    elif not x:
        return "0", 0
    else:
        digits = _unpack(x, value._width)
        terms = compress(zip(zip(count(value._low), repeat(value._line)),
                             digits), digits)
    chunks = []
    line = None
    for (a, b), c in terms:
        if b != line:
            line = b
            r_text = "" if not b else "r" if b == 1 else "r^%d" % b
            r_tail = " * " + r_text if b else ""
        if a:
            mono = ("s" if a == 1 else "s^%d" % a) + r_tail
        else:
            mono = r_text
        if c < 0:
            sign = " - " if chunks else "-"
            c = -c
        else:
            sign = " + " if chunks else ""
        if c != 1 or not mono:
            mono = str(c) + " * " + mono if mono else str(c)
        chunks.append(sign + mono)
    return "".join(chunks), len(chunks)


class LaurentScalar(SparseSum):
    """Immutable Laurent polynomial over Z[s^+-1, r^+-1].

    Built from {(s_exp, r_exp): coeff}; terms reads the same mapping back.
    A packed value (_packed not None) is packed along s at the one r power
    _line: its digit k is the term of s^(_low + k) r^_line.  A sparse value
    keeps its dict in _terms, where a packed one caches its unpacked terms;
    sums and products that meet a sparse value run term by term, the sums
    in SparseSum.__add__.
    """

    __slots__ = ("_line", "_low", "_packed", "_width", "_norm", "_terms",
                 "_hash")

    def __new__(cls, terms=None):
        if not terms:
            # a new zero, not ZERO: copy and pickle fill in what this returns
            return _packed_value(0, 0, 0, 64, 0)
        return _from_terms({key: c for key, c in terms.items() if c})

    @classmethod
    def zero(cls):
        return ZERO

    @classmethod
    def one(cls):
        return ONE

    @classmethod
    def integer(cls, n):
        return cls.monomial(n)

    @classmethod
    def monomial(cls, coeff, s_exp=0, r_exp=0):
        if not coeff:
            return ZERO
        norm = abs(coeff)
        return _packed_value(r_exp, s_exp, coeff, _width_for(norm), norm)

    def _term_dict(self):
        """The terms as a dict, unpacked once and kept."""
        try:
            return self._terms
        except AttributeError:
            pass
        terms = _line_terms(self._line, self._low,
                            _unpack(self._packed, self._width))
        self._terms = terms
        return terms

    @property
    def terms(self):
        """The {(s_exp, r_exp): coeff} terms, as a read-only mapping."""
        return MappingProxyType(self._term_dict())

    _like = staticmethod(_from_terms)
    _operand = staticmethod(_coerce)

    def text(self):
        """Canonical rendering, terms in ascending (s, r) order."""
        return _render(self)[0]

    def __bool__(self):
        if self._packed is None:
            return True
        return bool(self._packed)

    def __eq__(self, other):
        if other.__class__ is not LaurentScalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        x, y = self._packed, other._packed
        if x is not None and y is not None and self._width == other._width \
                and self._line == other._line:
            return x == y and self._low == other._low
        return self._term_dict() == other._term_dict()

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            pass
        self._hash = hash(frozenset(self._term_dict().items()))
        return self._hash

    def __add__(self, other):
        if other.__class__ is not LaurentScalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        x, y = self._packed, other._packed
        if x is None or y is None:
            return SparseSum.__add__(self, other)
        if not x:
            return other
        if not y:
            return self
        gap = self._low - other._low
        if self._line != other._line or -_LONG > gap or gap > _LONG:
            return SparseSum.__add__(self, other)
        width = self._width
        norm = self._norm + other._norm
        if width != other._width or norm >> (width - 1):
            return operator.add(*_widened(self, other, operator.add))
        if gap >= 0:
            low = other._low
            total = (x << (width * gap)) + y
        else:
            low = self._low
            total = x + (y << (-width * gap))
        if not total:
            return ZERO
        if not total & ((1 << width) - 1):
            # the lowest digits cancelled: move low up to the first term
            zeros = ((total & -total).bit_length() - 1) // width
            total >>= width * zeros
            low += zeros
        out = _packed_value(self._line, low, total, width, norm)
        if total.bit_length() > _LONG * width:
            return _checked(out)
        return out

    __radd__ = __add__

    def __neg__(self):
        if self._packed is None:
            return _sparse_value({key: -c for key, c in self._terms.items()})
        return _packed_value(self._line, self._low, -self._packed,
                             self._width, self._norm)

    def __mul__(self, other):
        if other.__class__ is not LaurentScalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        x, y = self._packed, other._packed
        if x is None or y is None:
            return _from_terms(product(self._term_dict(), other._term_dict(),
                                       _term_mul))
        if not x or not y:
            return ZERO
        if y == 1 or y == -1:
            return _moved(self, other)
        if x == 1 or x == -1:
            return _moved(other, self)
        width = self._width
        norm = self._norm * other._norm
        if width != other._width or norm >> (width - 1):
            return operator.mul(*_widened(self, other, operator.mul))
        x *= y
        out = _packed_value(self._line + other._line, self._low + other._low,
                            x, width, norm)
        if x.bit_length() > _LONG * width:
            return _checked(out)
        return out

    __rmul__ = scale = __mul__

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        base = self.monomial_inverse() if n < 0 else self
        return power(ONE, base, abs(n))

    def shift(self, s_exp, r_exp=0):
        """Multiply by the monomial s^s_exp * r^r_exp."""
        if not s_exp and not r_exp:
            return self
        x = self._packed
        if x is None:
            return _from_terms({(a + s_exp, b + r_exp): c
                                for (a, b), c in self._terms.items()})
        if not x:
            return self
        return _packed_value(self._line + r_exp, self._low + s_exp, x,
                             self._width, self._norm)

    def is_unit_monomial(self):
        """True for +-s^a * r^b, the invertible scalars."""
        if self._packed is not None:
            return self._packed in (1, -1)
        if len(self._terms) != 1:
            return False
        (coeff,) = self._terms.values()
        return coeff in (1, -1)

    def monomial_inverse(self):
        if not self.is_unit_monomial():
            raise ValueError("not an invertible scalar: %s" % self.text())
        ((a, b), coeff), = self._term_dict().items()
        return LaurentScalar.monomial(coeff, -a, -b)

    def substitute_r_one(self):
        """Collapse every r power to 1, leaving a polynomial in s alone."""
        x = self._packed
        if x is not None:
            if not self._line:
                return self
            return _packed_value(0, self._low, x, self._width, self._norm)
        if not any(b for _, b in self._terms):
            return self
        out = {}
        for (a, _), coeff in self._terms.items():
            accumulate(out, (a, 0), coeff)
        return _from_terms(out)

    def __repr__(self):
        return self.text()


def _widened(x, y, combine):
    """Packed x and y at one width that holds combine (a sum or a product)
    of their exact norms, each norm tightened to exact."""
    xd, yd = _unpack(x._packed, x._width), _unpack(y._packed, y._width)
    xn, yn = sum(map(abs, xd)), sum(map(abs, yd))
    width = max(x._width, y._width, _width_for(combine(xn, yn)))
    return (_packed_value(x._line, x._low, _pack(xd, width), width, xn),
            _packed_value(y._line, y._low, _pack(yd, width), width, yn))


def _moved(value, unit):
    """value * unit for a packed unit +-s^a r^b: value shifted by (a, b),
    negated for -1, at its own width and norm, since no digit changes
    size."""
    out = value.shift(unit._low, unit._line)
    return out if unit._packed == 1 else -out


def _term_mul(out, x, y, coeff, _rules):
    """product's kernel for two scalar terms, s^a r^b and s^a' r^b'."""
    accumulate(out, (x[0] + y[0], x[1] + y[1]), coeff)


ZERO = _packed_value(0, 0, 0, 64, 0)
ONE = LaurentScalar.monomial(1)


def _size(value):
    """The term count of a scalar or an element; of a matrix, summed over
    its entries()."""
    terms = getattr(value, "terms", None)
    if terms is not None:
        return len(terms)
    return sum(len(entry.terms) for entry in value.entries())


def power(one, base, n):
    """base^n for n >= 0, starting from x = one * base and x * base.

    The one integer-power routine of the engine: every value type and
    matrix type forms its powers here, each with its own one and its own
    handling of negative exponents.  When the square has no more terms
    than x, as for a monomial or the generator matrices, the powers do not
    grow and left-to-right binary powering takes O(log n) products
    (Knuth, TAOCP Vol. 2, 4.6.3).  Otherwise the product takes on one
    factor of base at a time: squaring a growing value multiplies two
    large operands, and costs far more than the n-fold product.  Both
    orders give one value, and the first product is the same, so a bad
    base raises the same error.
    """
    if not n:
        return one
    x = one * base
    if n == 1:
        return x
    result = x * base
    if _size(result) <= _size(x):
        # the bits of n after its leading 1; result is x^2 at the first
        for k, bit in enumerate(bin(n)[3:]):
            if k:
                result = result * result
            if bit == "1":
                result = result * x
        return result
    for _ in range(n - 2):
        result = result * base
    return result


def q_pow(half_exponent):
    """q^(half_exponent/2), i.e. the monomial s^half_exponent."""
    return LaurentScalar.monomial(1, half_exponent, 0)


def r_pow(exponent):
    return LaurentScalar.monomial(1, 0, exponent)


def quantum_integer(n):
    """The r-deformed integer (1 - r^n) / (1 - r), a Laurent polynomial for any n.

    Positive n gives 1 + r + ... + r^(n-1); n = 0 gives 0; negative n gives
    -(r^n + ... + r^-1).  Setting r = 1 recovers the plain integer n.
    """
    if n > 0:
        return LaurentScalar({(0, t): 1 for t in range(n)})
    if n == 0:
        return LaurentScalar.zero()
    return LaurentScalar({(0, t): -1 for t in range(n, 0)})


class Matrix2x2:
    """The product, entries, equality, hash and text of a 2 x 2 matrix:
    mq2.FullMatrix, modular.SL2ZMatrix and matrices.UTMatrix.

    A subclass lists its entries' names, in row order, as its __slots__;
    it may set _entry_text, how one entry renders, and _layout, the text
    around them.  UTMatrix lists its upper triangle only and keeps its
    own constructor and product.
    """

    __slots__ = ()

    _entry_text = operator.methodcaller("text")
    _layout = "[[%s, %s], [%s, %s]]"

    def __init_subclass__(cls):
        cls._entries = operator.attrgetter(*cls.__slots__)

    def __init__(self, e11, e12, e21, e22):
        for name, entry in zip(self.__slots__, (e11, e12, e21, e22)):
            setattr(self, name, entry)

    def entries(self):
        return self._entries(self)

    def __mul__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        a, b, c, d = self._entries(self)
        e, f, g, h = other._entries(other)
        return self.__class__(a * e + b * g, a * f + b * h,
                              c * e + d * g, c * f + d * h)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._entries(self) == other._entries(other)

    def __hash__(self):
        return hash(self._entries(self))

    def text(self):
        return self._layout % tuple(map(self._entry_text, self._entries(self)))
