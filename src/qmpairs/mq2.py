"""PBW engine for the 2 x 2 quantum matrix background algebra.

Generators a, b, c, d with the directed rules

    ba -> q^-1 ab      ca -> q^-1 ac      cb -> bc
    db -> q^-1 bd      dc -> q^-1 cd      da -> ad - (q - q^-1) bc

ordered a < b < c < d, plus a central formal inverse Di of the quantum
determinant ad - q bc.  A second primed copy of the generator set
commutes with the first one letter by letter.

A monomial is the exponent vector (i, j, k, l, m) of a^i b^j c^k d^l
Di^m followed by the primed block; all exponents are nonnegative, and
i, l, m are never all positive, since a d Di collapses to 1 + q b c Di.
Products work on exponent blocks by closed rules (see _block_mul), with
one bounded cache of block products.  reduce_word applies the directed
rules one adjacent swap at a time and is the independent oracle.
"""

import operator
from functools import lru_cache

from .scalars import (LaurentScalar, SparseSum, accumulate, term_text, q_pow,
                      power, ONE)
from .reports import RelationReport, HOLDS, VIOLATED, compare, streamed

MQ2 = "mq2"

# letters as integers, in PBW order
_A, _B, _C, _D = 0, 1, 2, 3
_LETTER_NAMES = "abcd"

# descending adjacent pair -> scalar factor after the plain swap;
# (d, a) is handled separately since it is inhomogeneous
_SWAP_FACTOR = {
    (_B, _A): -2, (_C, _A): -2, (_C, _B): 0,
    (_D, _B): -2, (_D, _C): -2,
}


def _word_rewrites(word, pos):
    """Expand the descending pair at pos into (word, factor) branches."""
    x, y = word[pos], word[pos + 1]
    head, tail = word[:pos], word[pos + 2:]
    if (x, y) == (_D, _A):
        gap = q_pow(2) - q_pow(-2)
        return [(head + (_A, _D) + tail, ONE),
                (head + (_B, _C) + tail, -gap)]
    return [(head + (y, x) + tail, q_pow(_SWAP_FACTOR[(x, y)]))]


def _descents(word):
    return [p for p in range(len(word) - 1) if word[p] > word[p + 1]]


def reduce_word(word, strategy="leftmost"):
    """Reduce a letter word to {(i, j, k, l): scalar}, no memoization.

    strategy picks which descending pair is rewritten first at each
    step; any choice must give the same normal form, which the
    order-independence smoke test exercises.
    """
    pending = [(tuple(word), ONE)]
    out = {}
    while pending:
        current, coeff = pending.pop()
        positions = _descents(current)
        if not positions:
            counts = [0, 0, 0, 0]
            for letter in current:
                counts[letter] += 1
            accumulate(out, tuple(counts), coeff)
            continue
        pos = positions[0] if strategy == "leftmost" else positions[-1]
        for nxt, factor in _word_rewrites(current, pos):
            pending.append((nxt, coeff * factor))
    return out


@lru_cache(maxsize=4096)
def _block_mul(x, y):
    """Normal form of the block product x * y as a tuple of (block, scalar).

    A block is the exponent vector (i, j, k, l, m) of a^i b^j c^k d^l Di^m.
    The a's of y enter one at a time through

        b^j c^k d^l a = q^-(j+k) a b^j c^k d^l
                        + (q^(1-2l) - q) b^(j+1) c^(k+1) d^(l-1),

    which follows by induction on l from d b c = q^-2 b c d.  Then
    b^j' c^k' d^l' append at q^(-l(j'+k')), and Di^(m+m') is absorbed
    level by level, each level taking one a and one d through
    a d Di = 1 + q b c Di.
    """
    terms = {x[:4]: ONE}
    for _ in range(y[0]):
        entered = {}
        for (i, j, k, l), coeff in terms.items():
            accumulate(entered, (i + 1, j, k, l), coeff.shift(-2 * (j + k)))
            if l:
                accumulate(entered, (i, j + 1, k + 1, l - 1),
                           coeff.shift(2 - 4 * l) - coeff.shift(2))
        terms = entered
    _, j2, k2, l2, m2 = y
    live = {(i, j + j2, k + k2, l + l2, x[4] + m2):
            coeff.shift(-2 * l * (j2 + k2))
            for (i, j, k, l), coeff in terms.items()}
    out = {}
    while live:
        level = {}
        for key, coeff in live.items():
            i, j, k, l, m = key
            if i and l and m:
                accumulate(level, (i - 1, j, k, l - 1, m - 1),
                           coeff.shift(2 * (j + k)))
                accumulate(level, (i - 1, j + 1, k + 1, l - 1, m),
                           coeff.shift(2 * (j + k + 1)))
            else:
                accumulate(out, key, coeff)
        live = level
    return tuple(out.items())


def _mono_mul(x, y):
    """Product of two 10-exponent monomials as {monomial: scalar}.

    The unprimed and primed blocks commute, so the product is the
    product of the two block products.
    """
    primed = _block_mul(x[5:], y[5:])
    return {block + pblock: coeff * pcoeff
            for block, coeff in _block_mul(x[:5], y[:5])
            for pblock, pcoeff in primed}


_ZERO10 = (0,) * 10

_MONO_NAMES = ("a", "b", "c", "d", "Di", "a'", "b'", "c'", "d'", "Di'")

# each generator's monomial: the unit vector at its slot
_GENERATOR_MONOS = {name: tuple(int(k == slot) for k in range(10))
                    for slot, name in enumerate(_MONO_NAMES)}


def _wrap_element(clean_terms):
    out = object.__new__(QGElement)
    out.terms = clean_terms
    return out


class QGElement(SparseSum):
    """Linear combination of normal-form monomials."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = {}
        for mono, coeff in terms.items():
            coeff = _as_scalar(coeff)
            if coeff:
                self.terms[mono] = coeff

    _like = staticmethod(_wrap_element)

    def _operand(self, other):
        return other if isinstance(other, QGElement) else None

    def _term(self, mono, coeff):
        factors = [name if exp == 1 else "%s^%d" % (name, exp)
                   for name, exp in zip(_MONO_NAMES, mono) if exp]
        return term_text(coeff, factors)

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def one(cls):
        return cls({_ZERO10: ONE})

    @classmethod
    def scalar(cls, value):
        return cls({_ZERO10: _as_scalar(value)})

    @classmethod
    def generator(cls, name, exponent=1):
        if name not in _GENERATOR_MONOS:
            raise ValueError("unknown generator %r" % name)
        if exponent < 0:
            raise ValueError(
                "exponents must be nonnegative; inverse determinant powers "
                "are spelled with Di")
        base = _GENERATOR_MONOS[name]
        return cls({tuple(e * exponent for e in base): ONE})

    def scale(self, coeff):
        coeff = _as_scalar(coeff)
        return QGElement({m: c * coeff for m, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, QGElement):
            return NotImplemented
        out = {}
        for xm, xc in self.terms.items():
            for ym, yc in other.terms.items():
                coeff = xc * yc
                for mono, factor in _mono_mul(xm, ym).items():
                    accumulate(out, mono, coeff * factor)
        return QGElement(out)

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative powers need an explicit inverse")
        return power(QGElement.one(), self, n)

    def __eq__(self, other):
        if not isinstance(other, QGElement):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return "QGElement(%s)" % self.text()


def _as_scalar(value):
    if isinstance(value, LaurentScalar):
        return value
    return LaurentScalar.integer(value)


class FullMatrix:
    """General 2 x 2 matrix with QGElement entries."""

    __slots__ = ("e11", "e12", "e21", "e22")

    def __init__(self, e11, e12, e21, e22):
        self.e11, self.e12, self.e21, self.e22 = e11, e12, e21, e22

    @classmethod
    def identity(cls):
        one, zero = QGElement.one(), QGElement.zero()
        return cls(one, zero, zero, one)

    def __mul__(self, other):
        if not isinstance(other, FullMatrix):
            return NotImplemented
        return FullMatrix(
            self.e11 * other.e11 + self.e12 * other.e21,
            self.e11 * other.e12 + self.e12 * other.e22,
            self.e21 * other.e11 + self.e22 * other.e21,
            self.e21 * other.e12 + self.e22 * other.e22)

    def scale(self, coeff):
        return FullMatrix(self.e11.scale(coeff), self.e12.scale(coeff),
                          self.e21.scale(coeff), self.e22.scale(coeff))

    def entries(self):
        return (self.e11, self.e12, self.e21, self.e22)

    def __eq__(self, other):
        if not isinstance(other, FullMatrix):
            return NotImplemented
        return self.entries() == other.entries()

    def __hash__(self):
        return hash(self.entries())

    def text(self):
        return "[[%s, %s], [%s, %s]]" % tuple(e.text() for e in self.entries())

    def __repr__(self):
        return "FullMatrix(%s)" % self.text()


def generator_full_matrix(primed=False):
    suffix = "'" if primed else ""
    gen = QGElement.generator
    return FullMatrix(gen("a" + suffix), gen("b" + suffix),
                      gen("c" + suffix), gen("d" + suffix))


def qg_inverse_matrix(primed=False):
    """Di (d, -q^-1 b; -q c, a), the two-sided inverse of the generator."""
    suffix = "'" if primed else ""
    gen = QGElement.generator
    di = gen("Di" + suffix)
    return FullMatrix(
        di * gen("d" + suffix),
        di * gen("b" + suffix).scale(-q_pow(-2)),
        di * gen("c" + suffix).scale(-q_pow(2)),
        di * gen("a" + suffix))


fm_mul = operator.mul


def fm_pow(matrix, n, inverse=None):
    """matrix^n by scalars.power; n < 0 multiplies the inverse.

    The generator matrix and its inverse grow under squaring, so their
    powers are n-fold products.
    """
    if n < 0:
        if inverse is None:
            raise ValueError("negative power without an inverse matrix")
        matrix, n = inverse, -n
    return power(FullMatrix.identity(), matrix, n)


def quantum_determinant(matrix):
    """M11 M22 - q M12 M21, reduced."""
    return matrix.e11 * matrix.e22 - (matrix.e12 * matrix.e21).scale(q_pow(2))


def quantum_determinant_element(primed=False):
    return quantum_determinant(generator_full_matrix(primed))


def check_R(matrix, half_q_exponent, suite=MQ2, params=None, expected=False,
            tag=""):
    """The six defining relations among the entries, at Q = s^half.

    For the generator matrix and half = 2 these are the rules themselves;
    powers of the generator satisfy them with the exponent scaled.  Each
    entry product is the reduced product of two entries of the matrix.
    """
    entries = matrix.entries()
    return _check_relations(lambda x, y: entries[x] * entries[y],
                            half_q_exponent, suite, params, expected, tag)


def _check_relations(product, half, suite, params, expected, tag):
    """check_R's relations, with product(x, y) the reduced product of the
    entries x and y, indexed 0..3 for M11, M12, M21, M22."""
    params = params or {}
    gap = q_pow(half) - q_pow(-half)
    sub = "Q=s^%d" % half
    bc = product(1, 2)

    def times_q(x, y):
        # Q * product(x, y): Q = s^half is one term, so shift each term
        return _wrap_element({mono: coeff.shift(half) for mono, coeff
                              in product(x, y).terms.items()})

    checks = [
        ("M11*M12 = Q*M12*M11 [%s]" % sub, product(0, 1), times_q(1, 0)),
        ("M11*M21 = Q*M21*M11 [%s]" % sub, product(0, 2), times_q(2, 0)),
        ("M12*M21 = M21*M12", bc, product(2, 1)),
        ("M12*M22 = Q*M22*M12 [%s]" % sub, product(1, 3), times_q(3, 1)),
        ("M21*M22 = Q*M22*M21 [%s]" % sub, product(2, 3), times_q(3, 2)),
        ("M11*M22 - M22*M11 = (Q-Q^-1)*M12*M21 [%s]" % sub,
         product(0, 3) - product(3, 0), bc.scale(gap)),
    ]
    return [compare(lhs, rhs, suite, MQ2, params, tag + rel, expected)
            for rel, lhs, rhs in checks]


def _entry_products(matrix):
    """The 16 reduced products of two entries, keyed (x, y) as in
    _check_relations."""
    entries = matrix.entries()
    return {(x, y): entries[x] * entries[y]
            for x in range(4) for y in range(4)}


def _coproduct_products(products):
    """product(x, y) over the entries of M = X X', for _check_relations.

    X has unprimed entries only, as U^n, and products is its
    _entry_products table.  X' is X with every letter primed, as U'^n,
    and the primed letters obey the same relations, so X'_aj X'_bl is
    X_aj X_bl with its blocks in the primed slots.  M_ij = sum_a X_ia X'_aj,
    and since primed letters commute with unprimed ones,

        M_ij M_kl = sum_(a,b) (X_ia X_kb) (X'_aj X'_bl),

    where the normal form of an unprimed-only times a primed-only
    monomial is the two blocks side by side.  This is the statement that
    the coproduct u_ij -> sum_a u_ia (x) u_aj is an algebra map, and it
    is exact: the result is the same reduced element as the direct
    product of the two big entries.  The join only concatenates blocks
    and multiplies coefficients.
    """
    blocks = {key: [(mono[:5], coeff) for mono, coeff in value.terms.items()]
              for key, value in products.items()}

    def product(x, y):
        i, j = divmod(x, 2)
        k, l = divmod(y, 2)
        out = {}
        for a in (0, 1):
            for b in (0, 1):
                right = blocks[2 * a + j, 2 * b + l]
                for block, coeff in blocks[2 * i + a, 2 * k + b]:
                    for pblock, pcoeff in right:
                        accumulate(out, block + pblock, coeff * pcoeff)
        return _wrap_element(out)

    return product


@streamed
def verify_results(n_range, suite=MQ2):
    """Power, inverse-power, and primed-product relation grids.

    For every |n| <= n_range the entries of U^n satisfy the defining
    relations at parameter q^n, and so do the entries of U^n U'^n.
    Centrality of the quantum determinant and exactness of the displayed
    inverse are checked alongside.  The products of two entries of U^n
    are reduced once per n and serve both rows: the U^n relations read
    them directly, and the entry products of U^n U'^n are joined from
    them through the coproduct (_coproduct_products), never formed from
    the big entries of U^n U'^n.  U'^n is U^n with every letter primed,
    and primed letters commute with unprimed ones, so the joined products
    are exactly the direct ones.
    """
    dq = quantum_determinant_element()
    for name in ("a", "b", "c", "d", "Di"):
        x = QGElement.generator(name)
        yield compare(dq * x, x * dq, suite, MQ2, {},
                      "Dq*%s = %s*Dq" % (name, name))
    u = generator_full_matrix()
    uinv = qg_inverse_matrix()
    identity = FullMatrix.identity()
    yield compare(u * uinv, identity, suite, MQ2, {}, "U*U^-1 = I")
    yield compare(uinv * u, identity, suite, MQ2, {}, "U^-1*U = I")
    for n in range(-n_range, n_range + 1):
        products = _entry_products(fm_pow(u, n, uinv))
        yield from _check_relations(lambda x, y: products[x, y], 2 * n,
                                    suite, {"n": n}, False, "U^n: ")
        yield from _check_relations(_coproduct_products(products), 2 * n,
                                    suite, {"n": n}, False, "U^n*U'^n: ")


@streamed
def verify_pbw_smoke(word_count=300, max_length=6, seed=20260816, suite=MQ2):
    """Order-independence of the rewriting on random letter words.

    Leftmost and rightmost reduce_word must agree with each other and
    with the product of the letters as QGElements.
    """
    import random
    rng = random.Random(seed)
    for index in range(word_count):
        word = tuple(rng.randrange(4) for _ in range(rng.randint(0, max_length)))
        left = reduce_word(word, "leftmost")
        right = reduce_word(word, "rightmost")
        product = QGElement.one()
        for letter in word:
            product = product * QGElement.generator(_LETTER_NAMES[letter])
        padded = {key + (0,) * 6: coeff for key, coeff in left.items()}
        name = "".join(_LETTER_NAMES[letter] for letter in word) or "(empty)"
        relation = "word %s: strategy-independent normal form" % name
        if left == right and padded == product.terms:
            yield RelationReport(suite, MQ2, {"n": index}, relation, HOLDS)
        else:
            texts = ["%s:%s" % (k, v.text()) for k, v in sorted(left.items())]
            rtexts = ["%s:%s" % (k, v.text()) for k, v in sorted(right.items())]
            yield RelationReport(suite, MQ2, {"n": index}, relation,
                                 VIOLATED, False, "; ".join(texts),
                                 "; ".join(rtexts))
