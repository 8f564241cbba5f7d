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
one bounded cache of block products.  The a's of a right block enter a
left block at once, through one sum over the t a's consumed,

    b^j c^k d^l a^n = sum_(t=0..min(n,l)) q^(-(j+k)(n-t)) [n t]_v
                      prod_(u=l-t+1..l) (q^(1-2u) - q)
                      a^(n-t) b^(j+t) c^(k+t) d^(l-t),

with v = q^-2 and [n t]_v the Gaussian binomial, which counts where the
n - t surviving a's fall among the consumed ones (Kassel, Quantum
Groups, Ch. IV; Klimyk and Schmüdgen, Quantum Groups and Their
Representations, Ch. 9).  reduce_word applies the directed rules one
adjacent swap at a time and is the independent oracle.

verify_results decides the relations of U^n and of U^n U'^n from
products of two matrix entries, each reduced when a relation first
reads it.  The coproduct is an algebra map, so a mixed relation follows
from the U^n relations just decided: it is closed by a certificate,
linear algebra over the entry products of U^n read as symbols, and
U^n U'^n is formed only when the certificate cannot close a row (see
_coproduct_combination).
"""

import operator
from functools import lru_cache

from .scalars import (ONE, Matrix2x2, SparseSum, accumulate, power, product,
                      q_pow)
from .reports import RelationReport, HOLDS, compare, streamed

MQ2 = "mq2"

# letters as integers, in PBW order
_A, _B, _C, _D = 0, 1, 2, 3
_LETTER_NAMES = "abcd"

# descending adjacent pair -> scalar factor after the plain swap; (d, a)
# is inhomogeneous, da -> ad + _DA_GAP bc
_SWAP_FACTOR = {
    (_B, _A): q_pow(-2), (_C, _A): q_pow(-2), (_C, _B): ONE,
    (_D, _B): q_pow(-2), (_D, _C): q_pow(-2),
}
_DA_GAP = q_pow(-2) - q_pow(2)


def _word_rewrites(word, pos):
    """Expand the descending pair at pos into (word, factor) branches."""
    x, y = word[pos], word[pos + 1]
    head, tail = word[:pos], word[pos + 2:]
    if (x, y) == (_D, _A):
        return [(head + (_A, _D) + tail, ONE),
                (head + (_B, _C) + tail, _DA_GAP)]
    return [(head + (y, x) + tail, _SWAP_FACTOR[(x, y)])]


def _descents(word):
    return [p for p in range(len(word) - 1) if word[p] > word[p + 1]]


def reduce_word(word, strategy="leftmost"):
    """Reduce a letter word to {(i, j, k, l): scalar}, no memoization.

    strategy picks which descending pair is rewritten first at each
    step; any choice must give the same normal form, which the
    order-independence smoke test exercises.  Each step applies one
    directed rule, its factor a constant, and shares nothing with
    _block_mul.
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
    The n a's of y enter b^j c^k d^l by the module docstring's sum, whose
    term t is s^(-2(j+k)(n-t)) [n t]_v prod_(u=l-t+1..l) (s^(2-4u) - s^2)
    with v = s^-4, from one q-Pascal row [r t] = [r-1 t-1] + v^t [r-1 t]
    cut off at t <= min(n, l).  Then b^j' c^k' d^l' append at
    q^(-(l-t)(j'+k')), and Di^(m+m') is absorbed level by level, each
    level taking one a and one d through a d Di = 1 + q b c Di.
    """
    i, j, k, l, m = x
    n, j2, k2, l2, m2 = y
    top = min(n, l)
    # ones, as [r r] = 1 is never rewritten; top = 0 builds no row
    binomials = [ONE] * (top + 1)
    for r in range(2, n + 1 if top else 2):
        for t in range(min(r - 1, top), 0, -1):
            binomials[t] = binomials[t - 1] + binomials[t].shift(-4 * t)
    live = {}
    consumed = ONE
    for t in range(top + 1):
        if t:
            consumed = consumed.shift(2 - 4 * (l - t + 1)) - consumed.shift(2)
        live[i + n - t, j + t + j2, k + t + k2, l - t + l2, m + m2] = \
            (binomials[t] * consumed).shift(
                -2 * (j + k) * (n - t) - 2 * (l - t) * (j2 + k2))
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


def _mono_mul(out, x, y, coeff, _rules):
    """Add coeff times the product of two 10-exponent monomials into out;
    scalars.product's kernel for QGElement.

    The unprimed and primed blocks commute, so the product is the
    product of the two block products, term by term.
    """
    primed = _block_mul(x[5:], y[5:])
    for block, bcoeff in _block_mul(x[:5], y[:5]):
        for pblock, pcoeff in primed:
            accumulate(out, block + pblock, coeff * (bcoeff * pcoeff))


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

    family = None   # one algebra, so every value compares within it

    def __init__(self, terms):
        self.terms = self._clean(terms)

    _like = staticmethod(_wrap_element)

    def _operand(self, other):
        return other if isinstance(other, QGElement) else None

    @staticmethod
    def _factors(mono):
        return [name if exp == 1 else "%s^%d" % (name, exp)
                for name, exp in zip(_MONO_NAMES, mono) if exp]

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def one(cls):
        return cls({_ZERO10: ONE})

    @classmethod
    def scalar(cls, value):
        return cls({_ZERO10: value})

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

    def __mul__(self, other):
        if not isinstance(other, QGElement):
            return NotImplemented
        # looked up per call, as in Element.__mul__
        return _wrap_element(product(self.terms, other.terms, _mono_mul))

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative powers need an explicit inverse")
        return power(QGElement.one(), self, n)

    def __repr__(self):
        return "QGElement(%s)" % self.text()


class FullMatrix(Matrix2x2):
    """General 2 x 2 matrix with QGElement entries; its product,
    equality, hash and text are those of scalars.Matrix2x2."""

    __slots__ = ("e11", "e12", "e21", "e22")

    @classmethod
    def identity(cls):
        one, zero = QGElement.one(), QGElement.zero()
        return cls(one, zero, zero, one)

    def __repr__(self):
        return "FullMatrix(%s)" % self.text()


def generator_full_matrix(primed=False):
    suffix = "'" if primed else ""
    return FullMatrix(*(QGElement.generator(x + suffix) for x in "abcd"))


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


def check_R(matrix, half_q_exponent, suite=MQ2, params=None, tag=""):
    """The six defining relations among the entries, at Q = s^half.

    For the generator matrix and half = 2 these are the rules themselves;
    powers of the generator satisfy them with the exponent scaled.  Each
    entry product is the reduced product of two entries of the matrix.
    """
    return _check_relations(_entry_combination(matrix), half_q_exponent,
                            suite, params, tag)


def _relation_table(half):
    """check_R's relations at Q = s^half as rows (relation, lhs, rhs).

    Each side is a list of (x, y, factor) terms, the sum of factor times
    the product of the entries x and y, indexed 0..3 for M11, M12, M21,
    M22; a relation holds when lhs minus rhs is zero.
    """
    q = q_pow(half)
    sub = "Q=s^%d" % half
    return [
        ("M11*M12 = Q*M12*M11 [%s]" % sub, [(0, 1, ONE)], [(1, 0, q)]),
        ("M11*M21 = Q*M21*M11 [%s]" % sub, [(0, 2, ONE)], [(2, 0, q)]),
        ("M12*M21 = M21*M12", [(1, 2, ONE)], [(2, 1, ONE)]),
        ("M12*M22 = Q*M22*M12 [%s]" % sub, [(1, 3, ONE)], [(3, 1, q)]),
        ("M21*M22 = Q*M22*M21 [%s]" % sub, [(2, 3, ONE)], [(3, 2, q)]),
        ("M11*M22 - M22*M11 = (Q-Q^-1)*M12*M21 [%s]" % sub,
         [(0, 3, ONE), (3, 0, -ONE)], [(1, 2, q - q_pow(-half))]),
    ]


def _check_relations(combination, half, suite, params, tag):
    """check_R's six relations, each decided by one signed sum.

    combination(terms) is the reduced element sum(factor * M_x M_y) over
    a list of (x, y, factor) terms (see _relation_table).  Each relation
    is decided by combination(lhs - rhs) alone, so its two sides are
    never held at once.  This is exact: the normal-form monomials, of
    the doubled algebra with its primed block, are a basis over
    Z[s^+-1], and accumulate drops every zero coefficient, so the signed
    sum comes out empty exactly when the two sides have equal canonical
    forms.  Only a violated relation forms its lhs and rhs,
    with the same combination, so that compare gives its report both
    reduced sides.
    """
    out = []
    for relation, lhs, rhs in _relation_table(half):
        relation = tag + relation
        if combination(lhs + [(x, y, -f) for x, y, f in rhs]):
            out.append(compare(combination(lhs), combination(rhs), suite,
                               MQ2, params, relation))
        else:
            out.append(RelationReport(suite, MQ2, params, relation))
    return out


def _entry_combination(matrix):
    """combination(terms) for _check_relations over the entries of matrix.

    Each product of two entries is reduced the first time a term reads
    it and kept for later rows.  The relation rows read 12 of the 16
    products, and no square M_x M_x.
    """
    entries = matrix.entries()
    products = {}

    def combination(terms):
        out = {}
        for x, y, factor in terms:
            if (x, y) not in products:
                products[x, y] = entries[x] * entries[y]
            for mono, coeff in products[x, y].terms.items():
                accumulate(out, mono, coeff * factor)
        return _wrap_element(out)

    return combination


def _row_rewrites(reports, half):
    """{symbol: [(symbol, coefficient)]} for _coproduct_combination, from
    the six reports of _check_relations at Q = s^half.

    The symbol (x, y) stands for the entry product M_x M_y.  Each signed
    row of _relation_table has one descending symbol x > y, with a unit
    coefficient.  A held row rewrites it exactly by the row's ascending
    symbols: (y, x) = f^-1 (x, y) for the single-product rows, and
    (3, 0) = (0, 3) - (Q - Q^-1) (1, 2) for the last.  No rewrite has a
    descending symbol on its right side, so one step maps every symbol
    onto the symbols that no held row rewrites.
    """
    images = {(x, y): [((x, y), ONE)] for x in range(4) for y in range(4)}
    for report, (_, lhs, rhs) in zip(reports, _relation_table(half)):
        if report.status == HOLDS:
            terms = lhs + [(x, y, -f) for x, y, f in rhs]
            (x, y, lead), = [t for t in terms if t[0] > t[1]]
            scale = -lead.monomial_inverse()
            images[x, y] = [((u, v), f * scale) for u, v, f in terms if u < v]
    return images


def _tensor_kernel(out, u, w, coeff, factor):
    """scalars.product's kernel for _coproduct_combination: adds factor
    times coeff into out at the pair of symbols (u, w)."""
    accumulate(out, (u, w), factor * coeff)


def _coproduct_combination(images, mixed):
    """combination(terms) over the entries of M = X X', for
    _check_relations, where mixed() forms M.

    X has unprimed entries only, as U^n, and X' is X with every letter
    primed, as U'^n, so each row that holds for X holds for X'.
    M_ij = sum_a X_ia X'_aj, and since primed letters commute with
    unprimed ones,

        M_ij M_kl = sum_(a,b) (X_ia X_kb) (X'_aj X'_bl).

    This is the statement that the coproduct u_ij -> sum_a u_ia (x) u_aj
    is an algebra map.  A row sum(f_t M_x M_y) is thus a sum of tensors
    f u (x) w of symbols u = (ia, kb) and w = (aj, bl), four to a term.
    Both factors are mapped by images (see _row_rewrites), each image
    read as a symbol -> coefficient dict, and scalars.product collects
    the coefficients on pairs of symbols.  If all cancel, the row
    is zero by bilinearity over Z[s^+-1].  The coproduct maps each
    defining relation into the span of relation (x) element and
    element (x) relation, so when every row of X held, every row of M
    cancels and mixed is never called.  Any other row is summed from the
    entry products of M itself, formed once by mixed(), which is exact:
    the normal-form monomials are a basis and accumulate drops zero
    coefficients.
    """
    fallback = lru_cache(maxsize=None)(lambda: _entry_combination(mixed()))
    maps = {symbol: dict(image) for symbol, image in images.items()}

    def combination(terms):
        tensors = []
        for x, y, factor in terms:
            i, j = divmod(x, 2)
            k, l = divmod(y, 2)
            tensors += [((2 * i + a, 2 * k + b), (2 * a + j, 2 * b + l),
                         factor) for a in (0, 1) for b in (0, 1)]
        pairs = {}
        for u, w, factor in tensors:
            product(maps[u], maps[w], _tensor_kernel, factor, pairs)
        if not pairs:
            return QGElement.zero()
        return fallback()(terms)

    return combination


@streamed
def verify_results(n_range):
    """Power, inverse-power, and primed-product relation grids.

    For every |n| <= n_range the entries of U^n satisfy the defining
    relations at parameter q^n, and so do the entries of U^n U'^n, where
    U'^n is U^n with every letter primed.  Centrality of the quantum
    determinant and exactness of the displayed inverse are checked
    alongside.  Each U^n row just reported as holding rewrites one entry
    product in terms of the others (_row_rewrites).  When all six held,
    every mixed row cancels under these rewrites, since the coproduct is
    an algebra map (Faddeev, Reshetikhin and Takhtajan), and U^n U'^n is
    never formed; a row that does not cancel is decided on U^n U'^n,
    formed once for that n (_coproduct_combination).

    Each of the six relations is one row of _relation_table, a signed
    sum of entry products that must vanish, and _check_relations decides
    it by forming that one sum: its dict comes out empty exactly when
    the two sides are equal, since the normal-form monomials are a basis
    and zero coefficients are dropped.  So no more than one joined sum
    is held at a time.  A violated row falls back to forming both sides
    and comparing them, for the report's lhs and rhs texts.
    """
    dq = quantum_determinant_element()
    for name in ("a", "b", "c", "d", "Di"):
        x = QGElement.generator(name)
        yield compare(dq * x, x * dq, MQ2, MQ2, {},
                      "Dq*%s = %s*Dq" % (name, name))
    u = generator_full_matrix()
    uinv = qg_inverse_matrix()
    identity = FullMatrix.identity()
    yield compare(u * uinv, identity, MQ2, MQ2, {}, "U*U^-1 = I")
    yield compare(uinv * u, identity, MQ2, MQ2, {}, "U^-1*U = I")
    up = generator_full_matrix(primed=True)
    upinv = qg_inverse_matrix(primed=True)
    for n in range(-n_range, n_range + 1):
        x = fm_pow(u, n, uinv)
        params = {"n": n}
        reports = check_R(x, 2 * n, MQ2, params, "U^n: ")
        yield from reports
        yield from _check_relations(
            _coproduct_combination(_row_rewrites(reports, 2 * n),
                                   lambda: x * fm_pow(up, n, upinv)),
            2 * n, MQ2, params, "U^n*U'^n: ")


@streamed
def verify_pbw_smoke(word_count=300, max_length=6, seed=20260816):
    """Order-independence of the rewriting on random letter words.

    Leftmost and rightmost reduce_word must agree with each other and
    with the product of the letters as QGElements.  A violated word
    reports the two strategies' forms, or, when they agree, that form
    and the product.

    Each distinct word is decided once, by its two reduce_word runs and
    its letter product, formed from its prefix's; every draw of it
    reports that decision under its own params.  The decisions and the
    prefix products are kept until the suite ends.
    """
    import random
    rng = random.Random(seed)
    decided = {}
    products = {(): QGElement.one()}
    for index in range(word_count):
        word = tuple(rng.randrange(4) for _ in range(rng.randint(0, max_length)))
        params = {"n": index}
        fields = decided.get(word)
        if fields is not None:
            yield RelationReport(MQ2, MQ2, params, *fields)
            continue
        left, right = (
            QGElement({key + (0,) * 6: coeff
                       for key, coeff in reduce_word(word, strategy).items()})
            for strategy in ("leftmost", "rightmost"))
        for k in range(len(word)):
            if word[:k + 1] not in products:
                products[word[:k + 1]] = products[word[:k]] * \
                    QGElement.generator(_LETTER_NAMES[word[k]])
        name = "".join(_LETTER_NAMES[letter] for letter in word) or "(empty)"
        relation = "word %s: strategy-independent normal form" % name
        report = compare(left, products[word] if left == right else right,
                         MQ2, MQ2, params, relation)
        decided[word] = (report.relation, report.status, report.expected,
                         report.lhs, report.rhs)
        yield report
