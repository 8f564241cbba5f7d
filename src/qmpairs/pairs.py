"""Pairs of triangular matrices and the relation verification suites.

A QPair holds two upper triangular matrices over one relation family.
The check_* functions reduce both sides of a relation and return
RelationReport records (see reports); a violated relation is reported,
never raised.
"""

from .scalars import LaurentScalar, q_pow, r_pow
from .algebra import TYPE_I, TYPE_II, TYPE_III, Element, generator
from .matrices import UTMatrix, generator_matrix, closed_power, closed_product_entries
from .reports import RelationReport, compare  # noqa: F401 (re-exported)


class UnsupportedTransform(ValueError):
    """The requested exponent pattern is outside the family's transforms."""


class NonUnitScalar(ValueError):
    """Corner rescaling needs an invertible monomial scalar."""


class QPair:
    """Two triangular matrices over a shared relation family."""

    __slots__ = ("u1", "u2", "_pows")

    def __init__(self, u1, u2):
        if u1.family is not u2.family:
            raise ValueError("pair members belong to different families")
        self.u1 = u1
        self.u2 = u2
        self._pows = ({0: UTMatrix.identity(u1.family)},
                      {0: UTMatrix.identity(u1.family)})

    @property
    def family(self):
        return self.u1.family

    def _pow(self, which, n):
        """Member power n, extending the cache from the nearest cached
        exponent of the same sign one factor at a time."""
        cache = self._pows[which]
        if n not in cache:
            step = 1 if n > 0 else -1
            factor = self.u1 if which == 0 else self.u2
            if step < 0:
                if -1 not in cache:
                    cache[-1] = factor.inverse()
                factor = cache[-1]
            k = n
            while k not in cache:
                k -= step
            while k != n:
                cache[k + step] = cache[k] * factor
                k += step
        return cache[n]

    def u1_pow(self, n):
        return self._pow(0, n)

    def u2_pow(self, n):
        return self._pow(1, n)


def generator_pair(family):
    return QPair(generator_matrix(1, family), generator_matrix(2, family))


def family_internal_parameters(family, n=1):
    """(central_value, nd_parameter) for the family's internal relations.

    central_value is the scalar that the diagonal product A*C must reduce
    to under Type I (None when A*C is only required to commute), and
    nd_parameter is the factor in A*B = nd * B*C.  n scales the Type III
    parameter for matrices built from n-th powers.
    """
    if family is TYPE_I:
        return LaurentScalar.one(), LaurentScalar.one()
    if family is TYPE_II:
        return None, LaurentScalar.one()
    return None, r_pow(n)


def check_q_commutation(m1, m2, half_q_exponent, suite="adhoc", family=None,
                        params=None, expected=False):
    """Report whether m1 * m2 = q^(half_q_exponent/2) * m2 * m1."""
    family = family or m1.family.value
    lhs = m1 * m2
    rhs = (m2 * m1).scale(q_pow(half_q_exponent))
    relation = "M*N = s^%d * N*M" % half_q_exponent
    return [compare(lhs, rhs, suite, family, params or {}, relation,
                    expected)]


def check_internal(matrix, central_value, nd_parameter, suite="adhoc",
                   family=None, params=None, expected=False, tag=""):
    """Reports for the internal relations of one triangular matrix.

    Checks A*C = C*A, then A*C = central_value when a central value is
    given, then A*B = nd_parameter * B*C.  Diagonal entries must be
    beta-free, which every matrix built from generator products satisfies.
    """
    family = family or matrix.family.value
    a, b, c = matrix.a11, matrix.a12, matrix.a22
    out = []
    out.append(compare(a * c, c * a, suite, family, params or {},
                       tag + "A*C = C*A", expected))
    if central_value is not None:
        out.append(compare(a * c, Element.scalar(matrix.family, central_value),
                           suite, family, params or {},
                           tag + "A*C = %s" % central_value.text(), expected))
    nd_text = nd_parameter.text()
    out.append(compare(a * b, (b * c).scale(nd_parameter), suite, family,
                       params or {}, tag + "A*B = %s * B*C" % nd_text,
                       expected))
    return out


def check_mutual(pair, half_q_exponent, suite="adhoc", params=None,
                 expected=False):
    """Reports for the six mutual relations between the pair's entries.

    Q stands for q^(half_q_exponent/2).  The first four lines are the
    diagonal block, the last two couple a corner with the other matrix.
    """
    family = pair.family.value
    u1, u2 = pair.u1, pair.u2
    Q = q_pow(half_q_exponent)
    Qinv = q_pow(-half_q_exponent)
    sub = "Q=s^%d" % half_q_exponent
    checks = [
        ("A1*A2 = Q*A2*A1 [%s]" % sub,
         u1.a11 * u2.a11, (u2.a11 * u1.a11).scale(Q)),
        ("A1*C2 = Q^-1*C2*A1 [%s]" % sub,
         u1.a11 * u2.a22, (u2.a22 * u1.a11).scale(Qinv)),
        ("A2*C1 = Q*C1*A2 [%s]" % sub,
         u2.a11 * u1.a22, (u1.a22 * u2.a11).scale(Q)),
        ("C1*C2 = Q*C2*C1 [%s]" % sub,
         u1.a22 * u2.a22, (u2.a22 * u1.a22).scale(Q)),
        ("A1*B2 = Q*B2*C1 [%s]" % sub,
         u1.a11 * u2.a12, (u2.a12 * u1.a22).scale(Q)),
        ("B1*C2 = Q*A2*B1 [%s]" % sub,
         u1.a12 * u2.a22, (u2.a11 * u1.a12).scale(Q)),
    ]
    return [compare(lhs, rhs, suite, family, params or {}, rel, expected)
            for rel, lhs, rhs in checks]


def make_product_pair(pair, n, m, s, t):
    """The derived pair (U1^n U2^m, U1^s U2^t), with Type I prefactors.

    Type I members are scaled by q^(-nm/2) and q^(-st/2) so their diagonal
    products reduce to exactly 1.  Type III only admits the diagonal
    pattern (n, 0, 0, n); anything else raises UnsupportedTransform.
    """
    family = pair.family
    if family is TYPE_III and not (m == 0 and s == 0 and t == n):
        raise UnsupportedTransform(
            "Type III only transforms along (n, 0, 0, n), got (%d, %d, %d, %d)"
            % (n, m, s, t))
    v1 = pair.u1_pow(n) * pair.u2_pow(m)
    v2 = pair.u1_pow(s) * pair.u2_pow(t)
    if family is TYPE_I:
        v1 = v1.scale(q_pow(-n * m))
        v2 = v2.scale(q_pow(-s * t))
    return QPair(v1, v2)


def rescale_pair(pair, c1, c2):
    """Rescale the corners: (A_i, c_i * B_i; 0, C_i).  Scalars must be units."""
    family = pair.family
    out = []
    for matrix, coeff in ((pair.u1, c1), (pair.u2, c2)):
        coeff = family.canon(coeff)
        if not coeff.is_unit_monomial():
            raise NonUnitScalar(
                "corner scale %s is not an invertible monomial" % coeff.text())
        out.append(UTMatrix(matrix.a11, matrix.a12.scale(coeff), matrix.a22))
    return QPair(out[0], out[1])


def verify_pair(pair, half_q_exponent=2, power=1, suite="pair", params=None):
    """The full family suite for one pair: mutual, internal, q-commutation."""
    central, nd = family_internal_parameters(pair.family, power)
    params = params or {}
    out = []
    out += check_q_commutation(pair.u1, pair.u2, half_q_exponent, suite,
                               pair.family.value, params)
    out += check_internal(pair.u1, central, nd, suite, pair.family.value,
                          params, tag="U1: ")
    out += check_internal(pair.u2, central, nd, suite, pair.family.value,
                          params, tag="U2: ")
    out += check_mutual(pair, half_q_exponent, suite, params)
    return out


# Diagonal generator pairs and the q-exponent of X Y = q^e Y X.
_DIAG_SWAPS = (
    ("a1", "a2", 1),
    ("a1", "g1", 0),
    ("a1", "g2", -1),
    ("a2", "g1", 1),
    ("a2", "g2", 0),
    ("g1", "g2", 1),
)

# (a_i, b_j) pairs and the (s, r) exponents of the push factor f in
# a_i b_j = f b_j g_i.
_BETA_SWAPS = (
    ("a1", "b1", 0, 1),
    ("a2", "b2", 0, 1),
    ("a1", "b2", 2, 0),
    ("a2", "b1", -2, 0),
)


def verify_prop1(family, power_range, suite="prop1"):
    """Power versions of every two-generator relation.

    Checks X^n Y^m = q^(e n m) Y^m X^n for the diagonal pairs and
    a_i^n b_j = f^n b_j g_i^n for the mixed pairs, all exponents in
    [-power_range, power_range].
    """
    out = []
    rng = range(-power_range, power_range + 1)
    for x, y, e in _DIAG_SWAPS:
        for n in rng:
            xs = generator(x, n, family)
            for m in rng:
                ys = generator(y, m, family)
                lhs = xs * ys
                rhs = (ys * xs).scale(q_pow(2 * e * n * m))
                out.append(compare(
                    lhs, rhs, suite, family.value, {"n": n, "m": m},
                    "%s^n * %s^m = q^(%d*n*m) * %s^m * %s^n" % (x, y, e, y, x)))
    for x, y, s_exp, r_exp in _BETA_SWAPS:
        beta = generator(y, 1, family)
        gname = "g" + x[1]
        for n in rng:
            lhs = generator(x, n, family) * beta
            factor = LaurentScalar.monomial(1, s_exp * n, r_exp * n)
            rhs = (beta * generator(gname, n, family)).scale(factor)
            out.append(compare(
                lhs, rhs, suite, family.value, {"n": n},
                "%s^n * %s = f^n * %s * %s^n" % (x, y, y, gname)))
    return out


def verify_prop2(power_range, suite="prop2"):
    """Derive the full diagonal table inside the Type I engine.

    The Type I kernel only ever applies the a1 a2 = q a2 a1 swap and the
    inverse-pair substitution, so reducing both sides of the remaining
    three diagonal relations (and their power versions) demonstrates that
    those relations are consequences rather than independent inputs.
    """
    out = []
    rng = range(-power_range, power_range + 1)
    for x, y, e in (("a1", "g2", -1), ("a2", "g1", 1), ("g1", "g2", 1)):
        for n in rng:
            xs = generator(x, n, TYPE_I)
            for m in rng:
                ys = generator(y, m, TYPE_I)
                lhs = xs * ys
                rhs = (ys * xs).scale(q_pow(2 * e * n * m))
                out.append(compare(
                    lhs, rhs, suite, TYPE_I.value, {"n": n, "m": m},
                    "%s^n * %s^m = q^(%d*n*m) * %s^m * %s^n" % (x, y, e, y, x)))
    return out


def verify_prop3(family, power_range, suite="prop3"):
    """Repeated multiplication against the closed power form."""
    out = []
    for index in (1, 2):
        base = generator_matrix(index, family)
        for n in range(-power_range, power_range + 1):
            out.append(compare(base.pow(n), closed_power(index, n, family),
                               suite, family.value, {"n": n},
                               "U%d^n = closed power form" % index))
    return out


def _theorem1_point(pair, n, m, suite):
    family = pair.family
    product = closed_product_entries(n, m, family)
    power_product = pair.u1_pow(n) * pair.u2_pow(m)
    params = {"n": n, "m": m}
    out = [compare(product, power_product, suite, family.value, params,
                   "closed entries = U1^n*U2^m")]
    central, nd = family_internal_parameters(family, n)
    if central is not None:
        central = q_pow(2 * n * m)
    out += check_internal(product, central, nd, suite, family.value, params)
    return out


def verify_theorem1(family, power_range, suite="theorem1",
                    witness_range=8):
    """Internal relations of the product matrix U1^n * U2^m.

    Types I and II run the full exponent grid.  Type III runs the diagonal
    n = m, then probes the off-diagonal point (2, 1) for every candidate
    parameter r^k with |k| <= witness_range; those probes are expected to
    fail and are reported with expected=True.
    """
    pair = generator_pair(family)
    out = []
    rng = range(-power_range, power_range + 1)
    if family is TYPE_III:
        for n in rng:
            out += _theorem1_point(pair, n, n, suite)
        probe = closed_product_entries(2, 1, family)
        a, b, c = probe.a11, probe.a12, probe.a22
        out.append(compare(a * c, c * a, suite, family.value,
                           {"n": 2, "m": 1}, "A*C = C*A"))
        lhs = a * b
        for k in range(-witness_range, witness_range + 1):
            rhs = (b * c).scale(r_pow(k))
            out.append(compare(lhs, rhs, suite, family.value,
                               {"n": 2, "m": 1},
                               "A*B = r^%d * B*C" % k, expected=True))
    else:
        for n in rng:
            for m in rng:
                out += _theorem1_point(pair, n, m, suite)
    return out


def verify_theorem2(family, power_range, suite="theorem2"):
    """Every derived pair satisfies the family relations with shifted q.

    For exponents (n, m, s, t) the derived pair q-commutes with exponent
    q^(nt - ms); Type I members carry prefactors that restore the unit
    diagonal product; Type III transforms along (n, 0, 0, n) only, with
    internal parameter r^n.
    """
    pair = generator_pair(family)
    out = []
    rng = range(-power_range, power_range + 1)
    if family is TYPE_III:
        quads = [(n, 0, 0, n) for n in rng]
    else:
        quads = [(n, m, s, t) for n in rng for m in rng
                 for s in rng for t in rng]
    for n, m, s, t in quads:
        derived = make_product_pair(pair, n, m, s, t)
        half = 2 * (n * t - m * s)
        params = {"n": n, "m": m, "s": s, "t": t}
        central, nd = family_internal_parameters(family, n)
        out += check_q_commutation(derived.u1, derived.u2, half, suite,
                                   family.value, params)
        out += check_internal(derived.u1, central, nd, suite, family.value,
                              params, tag="V1: ")
        out += check_internal(derived.u2, central, nd, suite, family.value,
                              params, tag="V2: ")
        out += check_mutual(derived, half, suite, params)
    return out
