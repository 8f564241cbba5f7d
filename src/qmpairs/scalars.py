"""Exact coefficient arithmetic: integer Laurent polynomials in s and r.

The deformation parameter q is stored as s^2, so half powers of q keep
integer exponents.  A scalar is a finite sum of terms c * s^a * r^b with
integer c and integer exponents a, b of either sign, held sparsely with
no zero coefficients.  The second unit r is the off-diagonal deformation
parameter; engines that set r = 1 do so through substitute_r_one.
"""


class SparseSum:
    """A finite sum held as {key: coefficient} with no zero coefficients.

    The cold operations live here once.  A subclass supplies three hooks:
    _like(terms) builds a value of the same kind from clean terms without
    running __init__, _operand(other) coerces the other side of + and -
    (None when it does not apply), and _term(key, coeff) renders one term
    as (body, negative).  Products stay in the subclasses, whose inner
    loops are the engine's hot paths.
    """

    __slots__ = ("terms",)

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            prev = out.get(key)
            total = coeff if prev is None else prev + coeff
            if total:
                out[key] = total
            else:
                del out[key]
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

    def text(self):
        """Canonical rendering, terms in ascending key order."""
        if not self.terms:
            return "0"
        chunks = []
        for key, coeff in sorted(self.terms.items()):
            body, negative = self._term(key, coeff)
            if not chunks:
                chunks.append("-" + body if negative else body)
            else:
                chunks.append((" - " if negative else " + ") + body)
        return "".join(chunks)


def term_text(coeff, factors):
    """One term coeff * factors as (body, negative) for SparseSum.text.

    coeff is a LaurentScalar and factors the rendered generator powers.
    A unit coefficient is left out, a sign is pulled out of a one-term
    coefficient, and a longer coefficient is parenthesized.
    """
    text = coeff.text()
    if factors and len(coeff.terms) > 1:
        return "(%s) * %s" % (text, " * ".join(factors)), False
    negative = text.startswith("-")
    if negative:
        text = text[1:]
    if text != "1" or not factors:
        factors = [text] + factors
    return " * ".join(factors), negative


def _wrap(clean_terms):
    out = object.__new__(LaurentScalar)
    out.terms = clean_terms
    out._hash = None
    return out


def _coerce(value):
    if isinstance(value, LaurentScalar):
        return value
    if isinstance(value, int):
        return LaurentScalar.integer(value)
    return None


class LaurentScalar(SparseSum):
    """Immutable sparse Laurent polynomial over Z[s^+-1, r^+-1]."""

    __slots__ = ("_hash",)

    def __init__(self, terms=None):
        self.terms = {key: c for key, c in terms.items() if c} if terms else {}
        self._hash = None

    _like = staticmethod(_wrap)
    _operand = staticmethod(_coerce)

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({(0, 0): 1})

    @classmethod
    def integer(cls, n):
        return cls({(0, 0): n})

    @classmethod
    def monomial(cls, coeff, s_exp=0, r_exp=0):
        return cls({(s_exp, r_exp): coeff})

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentScalar.integer(other)
        if not isinstance(other, LaurentScalar):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        out = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                key = (a1 + a2, b1 + b2)
                total = out.get(key, 0) + c1 * c2
                if total:
                    out[key] = total
                else:
                    del out[key]
        return _wrap(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        base = self.monomial_inverse() if n < 0 else self
        return power(ONE, base, abs(n))

    def shift(self, s_exp, r_exp=0):
        """Multiply by the monomial s^s_exp * r^r_exp."""
        if not s_exp and not r_exp:
            return self
        return _wrap({(a + s_exp, b + r_exp): c for (a, b), c in self.terms.items()})

    def is_unit_monomial(self):
        """True for +-s^a * r^b, the invertible scalars."""
        if len(self.terms) != 1:
            return False
        (coeff,) = self.terms.values()
        return coeff in (1, -1)

    def monomial_inverse(self):
        if not self.is_unit_monomial():
            raise ValueError("not an invertible scalar: %s" % self.text())
        ((a, b), coeff), = self.terms.items()
        return LaurentScalar({(-a, -b): coeff})

    def substitute_r_one(self):
        """Collapse every r power to 1, leaving a polynomial in s alone."""
        if all(b == 0 for (_, b) in self.terms):
            return self
        out = {}
        for (a, _), coeff in self.terms.items():
            key = (a, 0)
            total = out.get(key, 0) + coeff
            if total:
                out[key] = total
            else:
                del out[key]
        return _wrap(out)

    def _term(self, key, coeff):
        a, b = key
        factors = []
        if abs(coeff) != 1 or (a == 0 and b == 0):
            factors.append(str(abs(coeff)))
        if a:
            factors.append("s" if a == 1 else "s^%d" % a)
        if b:
            factors.append("r" if b == 1 else "r^%d" % b)
        return " * ".join(factors), coeff < 0

    def __repr__(self):
        return self.text()


ZERO = LaurentScalar.zero()
ONE = LaurentScalar.one()


def power(one, base, n):
    """base^n for n >= 0 as the n-fold product ((one * base) * base) ...

    The one integer-power loop of the engine: every value type and matrix
    type forms its powers here, each with its own one and its own handling
    of negative exponents.
    """
    result = one
    for _ in range(n):
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


def substitute_r_one(scalar):
    return scalar.substitute_r_one()
