"""Normal forms and rewriting for the triangular matrix pair algebra.

Generators a1, b1, g1, a2, b2, g2.  The diagonal generators (a's and g's)
are invertible, the off-diagonal b's are not and never carry an exponent
other than 0 or 1.  Three relation families share one rewrite kernel:

  Type I     a_i g_i = g_i a_i = 1,   a_i b_i = b_i g_i,   r = 1
  Type II    a_i g_i = g_i a_i,       a_i b_i = b_i g_i,   r = 1
  Type III   a_i g_i = g_i a_i,       a_i b_i = r b_i g_i

together with the mutual relations, identical in all families:

  a1 a2 = q a2 a1     a1 g2 = q^-1 g2 a1     a2 g1 = q g1 a2
  g1 g2 = q g2 g1     a1 b2 = q b2 g1        a2 b1 = q^-1 b1 g2

with q written as s^2.  The canonical monomial shape is

  a1^a * a2^b * [b1 or b2] * g1^c * g2^d

with at most one b factor; when a b factor is present both a-exponents
are zero (every a on its left was pushed through, turning into the g of
the same index), and under Type I a beta-free monomial carries no
g-exponents since g_i is a_i^-1 exactly.

A b generator can only absorb diagonal generators arriving from its left
side.  Under Types II and III a g stranded left of a b, or an a stranded
right of one, matches no relation at all; products that would need such
a move raise NonReducible.

The product kernel applies these relations to whole exponent blocks, so
its scalar factor is a closed form bilinear in the exponents.
oracle_reduce applies them one unit at a time and is the reference it is
tested against.
"""

import enum

from .scalars import LaurentScalar, SparseSum, accumulate, power, product

ONE = LaurentScalar.one()


class BetaExponent(ValueError):
    """A b generator was given an exponent outside {0, 1}."""


class BetaDegreeExceeded(ValueError):
    """A product would carry more than one b generator."""


class NonReducible(ValueError):
    """No defining relation can move the word into canonical shape."""


class NonInvertibleEntry(ValueError):
    """A diagonal entry is not an invertible monomial."""


class RelationFamily(enum.Enum):
    """The three relation families.  Two rules tell them apart, each a
    plain member attribute: r_is_one, r = 1 (Types I and II), and
    gamma_is_alpha_inverse, g_i = a_i^-1 (Type I)."""

    TYPE_I = "I"
    TYPE_II = "II"
    TYPE_III = "III"

    def __init__(self, value):
        self.r_is_one = value != "III"
        self.gamma_is_alpha_inverse = value == "I"

    def canon(self, scalar):
        """Specialize a coefficient to the family's ground ring."""
        return scalar.substitute_r_one() if self.r_is_one else scalar

    def __str__(self):
        return self.value


TYPE_I = RelationFamily.TYPE_I
TYPE_II = RelationFamily.TYPE_II
TYPE_III = RelationFamily.TYPE_III

# Diagonal letters in canonical order.  Positions: a1=0, a2=1, g1=2, g2=3.
DIAG_NAMES = ("a1", "a2", "g1", "g2")
BETA_NAMES = ("b1", "b2")

# E[x][y] is the q-exponent in  X Y = q^E[x][y] Y X  for diagonal letters,
# read off the mutual relations above.  Antisymmetric.
_E = (
    (0, 1, 0, -1),
    (-1, 0, 1, 0),
    (0, -1, 0, 1),
    (1, 0, -1, 0),
)

# Pushing one a_j unit left over b_k turns it into g_j and contributes the
# factor below, as (s_exponent, r_exponent).  The same-index pairs carry r
# (the Type III parameter, 1 after specialization for Types I and II); the
# crossed pairs carry q = s^2 and q^-1 from the mutual relations.
_BPUSH = {
    (1, 1): (0, 1),
    (2, 2): (0, 1),
    (1, 2): (2, 0),
    (2, 1): (-2, 0),
}


def _sgn(n):
    return (n > 0) - (n < 0)


def _mono_mul(out, left, right, coeff, family):
    """Add coeff times the product of two canonical monomials of family
    into out; scalars.product's kernel for Element.

    Reordering brings a scalar factor s^s_sh r^r_sh, applied to coeff as a
    shift.  The coefficients of an r = 1 family are r-free, so dropping the
    r shift there does what canon would do, without an r-bearing
    intermediate.  The right monomial enters one slot at a time, in the
    order a1, a2, b, g1, g2.  A diagonal slot X^e crosses the later
    letters on the left at a linear form in their current exponents, the
    sum of their q^(-e*f*E[x][y]):

        a1^e at s^(-2e(a2 - g2)),  a2^e at s^(-2e g1),
        g1^e at s^(-2e g2),        g2^e crosses nothing.

    Under Type I, g_i = a_i^-1: g^e before any b enters as a^-e, and a^e
    after a b as g^-e.  b_k turns a1^a a2^b on its left into g1^a g2^b at
    a times the a1 push and b times the a2 push of _BPUSH.  oracle_reduce
    applies the same rules one unit at a time.
    """
    beta, a1, a2, g1, g2 = left
    eb, e1, e2, f1, f2 = right
    s_sh = r_sh = 0
    if not beta:
        s_sh = 2 * (e1 * (g2 - a2) - e2 * g1)
        a1 += e1
        a2 += e2
    elif e1 or e2:
        if not family.gamma_is_alpha_inverse:
            raise NonReducible("a%d right of b%d admits no relation"
                               % (1 if e1 else 2, beta))
        s_sh = 2 * e1 * g2
        g1 -= e1
        g2 -= e2
    if eb:
        if beta:
            raise BetaDegreeExceeded("product carries two b generators")
        if g1 or g2:
            raise NonReducible(
                "g generators left of b%d admit no relation" % eb)
        (s1, r1), (s2, r2) = _BPUSH[(1, eb)], _BPUSH[(2, eb)]
        s_sh += a1 * s1 + a2 * s2
        r_sh = a1 * r1 + a2 * r2
        beta, a1, a2, g1, g2 = eb, 0, 0, a1, a2
    if beta or not family.gamma_is_alpha_inverse:
        s_sh -= 2 * f1 * g2
        g1 += f1
        g2 += f2
    else:
        s_sh += 2 * (f1 * (a2 - g2) + f2 * g1)
        a1 -= f1
        a2 -= f2
    accumulate(out, (beta, a1, a2, g1, g2),
               coeff.shift(s_sh, 0 if family.r_is_one else r_sh))


def _mono_factors(mono):
    beta, a, b, c, d = mono
    parts = []
    for name, exp in (("a1", a), ("a2", b)):
        if exp:
            parts.append(name if exp == 1 else "%s^%d" % (name, exp))
    if beta:
        parts.append("b%d" % beta)
    for name, exp in (("g1", c), ("g2", d)):
        if exp:
            parts.append(name if exp == 1 else "%s^%d" % (name, exp))
    return parts


class Element(SparseSum):
    """Finite linear combination of canonical monomials over one family."""

    __slots__ = ("terms", "family")

    def __init__(self, family, terms=None):
        self.family = family
        self.terms = self._clean(terms) if terms else {}

    def _like(self, terms):
        out = object.__new__(Element)
        out.family = self.family
        out.terms = terms
        return out

    def _operand(self, other):
        if not isinstance(other, Element):
            return None
        self._check_family(other)
        return other

    _factors = staticmethod(_mono_factors)

    def _coefficient(self, coeff):
        """coeff as a scalar of the family's ground ring."""
        if coeff.__class__ is not LaurentScalar:
            coeff = SparseSum._coefficient(self, coeff)
        return self.family.canon(coeff)

    @classmethod
    def zero(cls, family):
        return cls(family)

    @classmethod
    def one(cls, family):
        return cls(family, {(0, 0, 0, 0, 0): ONE})

    @classmethod
    def scalar(cls, family, coeff):
        return cls(family, {(0, 0, 0, 0, 0): coeff})

    def single_term(self):
        """(monomial, coefficient) for a one-term element, else None."""
        if len(self.terms) == 1:
            return next(iter(self.terms.items()))
        return None

    def _check_family(self, other):
        if self.family is not other.family:
            raise ValueError("elements belong to different relation families")

    def __mul__(self, other):
        if isinstance(other, (int, LaurentScalar)):
            return self.scale(other)
        if not isinstance(other, Element):
            return NotImplemented
        self._check_family(other)
        # looked up per call, so a wrapper set on _mono_mul sees every pair
        return self._like(product(self.terms, other.terms, _mono_mul,
                                  self.family))

    def __rmul__(self, other):
        if isinstance(other, (int, LaurentScalar)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        base = invert_element(self) if n < 0 else self
        return power(Element.one(self.family), base, abs(n))

    def __repr__(self):
        return "<%s: %s>" % (self.family.value, self.text())


_GEN_MONO = {
    "a1": (0, 1, 0, 0, 0),
    "a2": (0, 0, 1, 0, 0),
    "g1": (0, 0, 0, 1, 0),
    "g2": (0, 0, 0, 0, 1),
}


def generator(name, exponent, family):
    """The element name^exponent in canonical form."""
    if name in BETA_NAMES:
        if exponent == 0:
            return Element.one(family)
        if exponent != 1:
            raise BetaExponent(
                "%s only admits exponents 0 and 1, got %d" % (name, exponent))
        k = int(name[1])
        return Element(family, {(k, 0, 0, 0, 0): ONE})
    if name not in _GEN_MONO:
        raise ValueError("unknown generator %r" % name)
    if exponent == 0:
        return Element.one(family)
    beta, a, b, c, d = _GEN_MONO[name]
    a, b, c, d = a * exponent, b * exponent, c * exponent, d * exponent
    if family.gamma_is_alpha_inverse and (c or d):
        a, b, c, d = -c, -d, 0, 0
    return Element(family, {(beta, a, b, c, d): ONE})


def invert_element(element):
    """Inverse of a single-term beta-free monomial with unit coefficient."""
    term = element.single_term()
    if term is None:
        raise NonInvertibleEntry("only single monomials are invertible")
    (beta, a, b, c, d), coeff = term
    if beta:
        raise NonInvertibleEntry("b generators are not invertible")
    if not coeff.is_unit_monomial():
        raise NonInvertibleEntry(
            "coefficient %s is not an invertible scalar" % coeff.text())
    # Absorb the reversed word with negated exponents into the identity.
    result = Element.one(element.family)
    for name, exp in (("g2", -d), ("g1", -c), ("a2", -b), ("a1", -a)):
        if exp:
            result = result * generator(name, exp, element.family)
    return result.scale(coeff.monomial_inverse())


# ---------------------------------------------------------------------------
# Independent single-step rewriter used for differential testing.  It works
# on fully expanded words of exponent +-1 units and never reuses the bulk
# exponent arithmetic of _mono_mul.

_ORACLE_DIAG = {name: i for i, name in enumerate(DIAG_NAMES)}


def _expand_word(word):
    units = []
    beta_degree = 0
    for name, exponent in word:
        if name in BETA_NAMES:
            if exponent == 0:
                continue
            if exponent != 1:
                raise BetaExponent(
                    "%s only admits exponents 0 and 1, got %d" % (name, exponent))
            beta_degree += 1
            units.append(("b", int(name[1])))
        elif name in _ORACLE_DIAG:
            sign = _sgn(exponent)
            for _ in range(abs(exponent)):
                units.append((_ORACLE_DIAG[name], sign))
        else:
            raise ValueError("unknown generator %r" % name)
    if beta_degree > 1:
        raise BetaDegreeExceeded("word has b-degree %d" % beta_degree)
    return units


def _oracle_step(units, family):
    """Apply the first applicable rule, returning (new_units, s_sh, r_sh) or None."""
    type_one = family.gamma_is_alpha_inverse
    beta_pos = None
    for i, unit in enumerate(units):
        if unit[0] == "b":
            beta_pos = i
            break
    for i, unit in enumerate(units):
        nxt = units[i + 1] if i + 1 < len(units) else None
        if unit[0] != "b" and nxt is not None and nxt[0] != "b":
            x, sx = unit
            y, sy = nxt
            if x == y and sx == -sy:
                return units[:i] + units[i + 2:], 0, 0
            if x > y:
                # swap toward canonical order; factor from X Y = q^E Y X
                return (units[:i] + [nxt, unit] + units[i + 2:],
                        -2 * _E[y][x] * sx * sy, 0)
        if unit[0] != "b" and nxt is not None and nxt[0] == "b" and unit[0] < 2:
            j, sj = unit[0] + 1, unit[1]
            k = nxt[1]
            ds, dr = _BPUSH[(j, k)]
            return (units[:i] + [nxt, (unit[0] + 2, sj)] + units[i + 2:],
                    ds * sj, dr * sj)
        if type_one and unit[0] != "b":
            misplaced = (unit[0] >= 2 and (beta_pos is None or i < beta_pos)) \
                or (unit[0] < 2 and beta_pos is not None and i > beta_pos)
            if misplaced:
                flipped = (unit[0] + 2) % 4
                return units[:i] + [(flipped, -unit[1])] + units[i + 1:], 0, 0
    return None


def oracle_reduce(word, family):
    """Reduce a word of (name, exponent) pairs by single rewrite steps.

    Deliberately naive: scans for the first applicable rule and applies it,
    one unit at a time, independent of the kernel used by Element.__mul__.
    """
    units = _expand_word(word)
    s_sh = 0
    r_sh = 0
    while True:
        step = _oracle_step(units, family)
        if step is None:
            break
        units, ds, dr = step
        s_sh += ds
        r_sh += dr
    beta = 0
    exps = [0, 0, 0, 0]
    seen_beta = False
    for unit in units:
        if unit[0] == "b":
            beta = unit[1]
            seen_beta = True
            continue
        idx, sign = unit
        if seen_beta and idx < 2:
            raise NonReducible("a%d right of b%d admits no relation" % (idx + 1, beta))
        if not seen_beta and beta == 0 and idx >= 2 and any(
                u[0] == "b" for u in units):
            raise NonReducible("g%d left of a b generator admits no relation"
                               % (idx - 1))
        exps[idx] += sign
    mono = (beta, exps[0], exps[1], exps[2], exps[3])
    if beta and (exps[0] or exps[1]):
        raise NonReducible("a generators right of b%d admit no relation" % beta)
    coeff = family.canon(LaurentScalar.monomial(1, s_sh, r_sh))
    return Element(family, {mono: coeff})
