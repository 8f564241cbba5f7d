"""Pairs of triangular matrices and the relation verification suites.

A QPair holds two upper triangular matrices over one relation family.
The check_* functions reduce both sides of a relation and return
RelationReport records (see reports); a violated relation is reported,
never raised.  The verify_* suites are generators under reports.streamed:
each returns its reports as a list, and .stream yields them one by one.
"""

from .scalars import ONE, LaurentScalar, q_pow, r_pow
from .algebra import TYPE_I, TYPE_III, Element, generator
from .matrices import UTMatrix, generator_matrix, closed_power, closed_product_entries
from .reports import RelationReport, compare  # noqa: F401 (re-exported)
from .reports import HOLDS, streamed


class UnsupportedTransform(ValueError):
    """The requested exponent pattern is outside the family's transforms."""


class NonUnitScalar(ValueError):
    """Corner rescaling needs an invertible monomial scalar."""


class QPair:
    """Two triangular matrices over a shared relation family."""

    __slots__ = ("u1", "u2", "_members")

    def __init__(self, u1, u2):
        if u1.family is not u2.family:
            raise ValueError("pair members belong to different families")
        self.u1 = u1
        self.u2 = u2
        self._members = {}

    @property
    def family(self):
        return self.u1.family

    def u1_pow(self, n):
        return self.u1.pow(n)

    def u2_pow(self, n):
        return self.u2.pow(n)


def generator_pair(family):
    return QPair(generator_matrix(1, family), generator_matrix(2, family))


def family_internal_parameters(family, n=1):
    """(central_value, nd_parameter) for the family's internal relations.

    central_value is the scalar that the diagonal product A*C must reduce
    to under Type I (None when A*C is only required to commute), and
    nd_parameter is the factor in A*B = nd * B*C.  n scales the Type III
    parameter for matrices built from n-th powers.
    """
    return (ONE if family.gamma_is_alpha_inverse else None,
            ONE if family.r_is_one else r_pow(n))


def _commutation_products(m1, m2):
    """The eight entry products of m1*m2 and m2*m1, each reduced once, in
    the order UTMatrix.__mul__ reduces them: a1a2, a1b2, b1c2, c1c2, then
    a2a1, a2b1, b2c1, c2c1."""
    a1, b1, c1 = m1.a11, m1.a12, m1.a22
    a2, b2, c2 = m2.a11, m2.a12, m2.a22
    return (a1 * a2, a1 * b2, b1 * c2, c1 * c2,
            a2 * a1, a2 * b1, b2 * c1, c2 * c1)


# The texts of the q-commutation and of the six mutual relations of a
# pair (M, N) = ((A1, B1; 0, C1), (A2, B2; 0, C2)), in report order; %d
# is the half q exponent h of Q = s^h.  _relation_texts fills them in.
_Q_COMMUTATION = "M*N = s^%d * N*M"
_MUTUAL = (
    "A1*A2 = Q*A2*A1 [Q=s^%d]",
    "A1*C2 = Q^-1*C2*A1 [Q=s^%d]",
    "A2*C1 = Q*C1*A2 [Q=s^%d]",
    "C1*C2 = Q*C2*C1 [Q=s^%d]",
    "A1*B2 = Q*B2*C1 [Q=s^%d]",
    "B1*C2 = Q*A2*B1 [Q=s^%d]",
)


def _relation_texts(half_q_exponent):
    return [relation % half_q_exponent
            for relation in (_Q_COMMUTATION,) + _MUTUAL]


def _pair_sides(m1, m2, half_q_exponent):
    """The two sides of the q-commutation of (m1, m2), M*N against
    Q*N*M, and then of its six mutual relations, one pair at a time.

    Q*a2a1, Q*a2b1, Q*b2c1 and Q*c2c1 are formed once, for both: on
    canonical forms Q*(x + y) = Q*x + Q*y exactly, so (Q*a2a1, Q*a2b1 +
    Q*b2c1; 0, Q*c2c1) is Q*N*M.  The mutual relations add the diagonal
    cross products a1c2, c2a1, a2c1 and c1a2.
    """
    a1a2, a1b2, b1c2, c1c2, *rest = _commutation_products(m1, m2)
    Q = q_pow(half_q_exponent)
    qa2a1, qa2b1, qb2c1, qc2c1 = [x.scale(Q) for x in rest]
    a1, c1, a2, c2 = m1.a11, m1.a22, m2.a11, m2.a22
    yield (UTMatrix(a1a2, a1b2 + b1c2, c1c2),
           UTMatrix(qa2a1, qa2b1 + qb2c1, qc2c1))
    yield a1a2, qa2a1
    yield a1 * c2, (c2 * a1).scale(q_pow(-half_q_exponent))
    yield a2 * c1, (c1 * a2).scale(Q)
    yield c1c2, qc2c1
    yield a1b2, qb2c1
    yield b1c2, qa2b1


def _pair_relations(m1, m2, half_q_exponent, suite, family, params,
                    relations):
    """One report for each text of relations, a prefix of
    _relation_texts(half_q_exponent): the q-commutation, then the mutual
    relations, each reduced only when its text is there."""
    return [compare(lhs, rhs, suite, family, params, relation)
            for relation, (lhs, rhs) in zip(
                relations, _pair_sides(m1, m2, half_q_exponent))]


def check_q_commutation(m1, m2, half_q_exponent, suite="adhoc", params=None):
    """Report whether m1 * m2 = q^(half_q_exponent/2) * m2 * m1."""
    return _pair_relations(m1, m2, half_q_exponent, suite, m1.family.value,
                           params, [_Q_COMMUTATION % half_q_exponent])


def check_internal(matrix, central_value, nd_parameter, suite="adhoc",
                   params=None, tag=""):
    """Reports for the internal relations of one triangular matrix.

    Checks A*C = C*A, then A*C = central_value when a central value is
    given, then A*B = nd_parameter * B*C.  Diagonal entries must be
    beta-free, which every matrix built from generator products satisfies.
    """
    family = matrix.family.value
    a, b, c = matrix.a11, matrix.a12, matrix.a22
    ac = a * c
    out = [compare(ac, c * a, suite, family, params, tag + "A*C = C*A")]
    if central_value is not None:
        out.append(compare(ac, Element.scalar(matrix.family, central_value),
                           suite, family, params,
                           tag + "A*C = %s" % central_value.text()))
    out.append(compare(a * b, (b * c).scale(nd_parameter), suite, family,
                       params, tag + "A*B = %s * B*C" % nd_parameter.text()))
    return out


def check_mutual(pair, half_q_exponent, suite="adhoc", params=None):
    """Reports for the six mutual relations between the pair's entries.

    Q stands for q^(half_q_exponent/2).  The first four lines are the
    diagonal block, the last two couple a corner with the other matrix.
    """
    return _pair_relations(pair.u1, pair.u2, half_q_exponent, suite,
                           pair.family.value, params,
                           _relation_texts(half_q_exponent))[1:]


def _member(pair, n, m):
    """U1^n U2^m, scaled by q^(-nm/2) under Type I, built once per (n, m)."""
    member = pair._members.get((n, m))
    if member is None:
        member = pair.u1_pow(n) * pair.u2_pow(m)
        if pair.family is TYPE_I:
            member = member.scale(q_pow(-n * m))
        pair._members[(n, m)] = member
    return member


def make_product_pair(pair, n, m, s, t):
    """The derived pair (U1^n U2^m, U1^s U2^t), with Type I prefactors.

    Type I members are scaled by q^(-nm/2) and q^(-st/2) so their diagonal
    products reduce to exactly 1.  Each member is built once per pair and
    (n, m) and then read from the pair's member cache, so a grid of
    quadruples does (2R+1)^2 member products, not (2R+1)^4.  Type III only
    admits the diagonal pattern (n, 0, 0, n); anything else raises
    UnsupportedTransform.
    """
    if pair.family is TYPE_III and not (m == 0 and s == 0 and t == n):
        raise UnsupportedTransform(
            "Type III only transforms along (n, 0, 0, n), got (%d, %d, %d, %d)"
            % (n, m, s, t))
    return QPair(_member(pair, n, m), _member(pair, s, t))


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


def verify_pair(pair, half_q_exponent=2, power=1):
    """The full family suite for one pair: q-commutation, internal, mutual,
    reported under the suite name "pair" with no params."""
    central, nd = family_internal_parameters(pair.family, power)
    family = pair.family.value
    u1, u2 = pair.u1, pair.u2
    first, *mutual = _pair_relations(u1, u2, half_q_exponent, "pair",
                                     family, {},
                                     _relation_texts(half_q_exponent))
    return ([first]
            + check_internal(u1, central, nd, "pair", tag="U1: ")
            + check_internal(u2, central, nd, "pair", tag="U2: ")
            + mutual)


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


def _diagonal_swaps(family, swaps, power_range, suite):
    """Reports for X^n Y^m = q^(e n m) Y^m X^n, for each (X, Y, e) in
    swaps and all exponents in [-power_range, power_range]."""
    rng = range(-power_range, power_range + 1)
    fam = family.value
    for x, y, e in swaps:
        for n in rng:
            xs = generator(x, n, family)
            for m in rng:
                ys = generator(y, m, family)
                lhs = xs * ys
                rhs = (ys * xs).scale(q_pow(2 * e * n * m))
                yield compare(
                    lhs, rhs, suite, fam, {"n": n, "m": m},
                    "%s^n * %s^m = q^(%d*n*m) * %s^m * %s^n" % (x, y, e, y, x))


@streamed
def verify_prop1(family, power_range):
    """Power versions of every two-generator relation.

    Checks X^n Y^m = q^(e n m) Y^m X^n for the diagonal pairs and
    a_i^n b_j = f^n b_j g_i^n for the mixed pairs, all exponents in
    [-power_range, power_range].
    """
    yield from _diagonal_swaps(family, _DIAG_SWAPS, power_range, "prop1")
    rng = range(-power_range, power_range + 1)
    for x, y, s_exp, r_exp in _BETA_SWAPS:
        beta = generator(y, 1, family)
        gname = "g" + x[1]
        for n in rng:
            lhs = generator(x, n, family) * beta
            factor = LaurentScalar.monomial(1, s_exp * n, r_exp * n)
            rhs = (beta * generator(gname, n, family)).scale(factor)
            yield compare(
                lhs, rhs, "prop1", family.value, {"n": n},
                "%s^n * %s = f^n * %s * %s^n" % (x, y, y, gname))


@streamed
def verify_prop2(power_range):
    """Derive the full diagonal table inside the Type I engine.

    The Type I kernel only ever applies the a1 a2 = q a2 a1 swap and the
    inverse-pair substitution, so reducing both sides of the remaining
    three diagonal relations (and their power versions) demonstrates that
    those relations are consequences rather than independent inputs.
    """
    yield from _diagonal_swaps(
        TYPE_I, (("a1", "g2", -1), ("a2", "g1", 1), ("g1", "g2", 1)),
        power_range, "prop2")


@streamed
def verify_prop3(family, power_range):
    """Repeated multiplication against the closed power form."""
    for index in (1, 2):
        base = generator_matrix(index, family)
        for n in range(-power_range, power_range + 1):
            yield compare(base.pow(n), closed_power(index, n, family),
                          "prop3", family.value, {"n": n},
                          "U%d^n = closed power form" % index)


def _theorem1_point(pair, n, m, fam):
    family = pair.family
    product = closed_product_entries(n, m, family)
    power_product = pair.u1_pow(n) * pair.u2_pow(m)
    params = {"n": n, "m": m}
    out = [compare(product, power_product, "theorem1", fam, params,
                   "closed entries = U1^n*U2^m")]
    central, nd = family_internal_parameters(family, n)
    if central is not None:
        central = q_pow(2 * n * m)
    out += check_internal(product, central, nd, "theorem1", params)
    return out


@streamed
def verify_theorem1(family, power_range):
    """Internal relations of the product matrix U1^n * U2^m.

    Types I and II run the full exponent grid.  Type III runs the diagonal
    n = m, then probes the off-diagonal point (2, 1) for every candidate
    parameter r^k with |k| <= 8, the witness range; those probes are
    expected to fail and are reported with expected=True.
    """
    pair = generator_pair(family)
    fam = family.value
    rng = range(-power_range, power_range + 1)
    if family is TYPE_III:
        for n in rng:
            yield from _theorem1_point(pair, n, n, fam)
        probe = closed_product_entries(2, 1, family)
        a, b, c = probe.a11, probe.a12, probe.a22
        yield compare(a * c, c * a, "theorem1", fam,
                      {"n": 2, "m": 1}, "A*C = C*A")
        lhs = a * b
        for k in range(-8, 9):
            rhs = (b * c).scale(r_pow(k))
            yield compare(lhs, rhs, "theorem1", fam,
                          {"n": 2, "m": 1}, "A*B = r^%d * B*C" % k,
                          expected=True)
    else:
        for n in rng:
            for m in rng:
                yield from _theorem1_point(pair, n, m, fam)


@streamed
def verify_theorem2(family, power_range):
    """Every derived pair satisfies the family relations with shifted q.

    For exponents (n, m, s, t) the derived pair q-commutes with exponent
    q^(nt - ms); Type I members carry prefactors that restore the unit
    diagonal product; Type III transforms along (n, 0, 0, n) only, with
    internal parameter r^n.

    A member and its internal relations depend on its own exponents only,
    so each member is built once (see make_product_pair) and its internal
    checks run once per member and internal parameters.  Their fields are
    kept with the tag "V1: " and with "V2: " on the relation, each list
    built once, and every quadruple reports them under its own params.
    The pair relations of a quadruple come from _pair_sides, with the
    seven relation texts built once per h.

    An off-diagonal quadruple and its twin (s, t, n, m) are decided
    together.  Write M = (n, m), N = (s, t), h = 2(nt - ms) and Q = s^h;
    the twin has exponent -h, and each of its seven pair relations is a
    relation of (n, m, s, t) with both sides times the unit Q^-1:

        twin relation             relation of (n, m, s, t)
        N*M = Q^-1 M*N            M*N = Q N*M
        A_N A_M = Q^-1 A_M A_N    A1*A2 = Q*A2*A1
        A_N C_M = Q C_M A_N       A2*C1 = Q*C1*A2 (same two sides)
        A_M C_N = Q^-1 C_N A_M    A1*C2 = Q^-1*C2*A1 (same two sides)
        C_N C_M = Q^-1 C_M C_N    C1*C2 = Q*C2*C1
        A_N B_M = Q^-1 B_M C_N    B1*C2 = Q*A2*B1
        B_N C_M = Q^-1 A_M B_N    A1*B2 = Q*B2*C1

    Multiplying by a unit is injective on canonical forms, so each row
    has one outcome on both sides.  The keys of quadruples whose seven
    relations all held are kept until the twin comes up; the twin then
    reports them as holding under its own params and relation texts,
    with nothing reduced.  A twin of a quadruple with any violation is
    reduced in full, so its violations carry their own sides.  Diagonal
    quadruples (n, m) = (s, t) and Type III have no twin in the grid.

    A quadruple's pair relations are decided before its internal reports
    are written; its reports, in the order q-commutation, V1 internal, V2
    internal, mutual, share one params dict.  Only the members, their
    tagged internal fields, the texts and pending twin keys are kept
    across quadruples.
    """
    pair = generator_pair(family)
    fam = family.value
    internal = {}
    texts = {}
    held = set()
    rng = range(-power_range, power_range + 1)
    if family is TYPE_III:
        quads = ((n, 0, 0, n) for n in rng)
    else:
        quads = ((n, m, s, t) for n in rng for m in rng
                 for s in rng for t in rng)
    for n, m, s, t in quads:
        derived = make_product_pair(pair, n, m, s, t)
        half = 2 * (n * t - m * s)
        params = {"n": n, "m": m, "s": s, "t": t}
        central, nd = family_internal_parameters(family, n)
        v1, v2 = derived.u1, derived.u2
        if half not in texts:
            texts[half] = _relation_texts(half)
        relations = texts[half]
        if (s, t, n, m) in held:
            held.remove((s, t, n, m))
            first, *mutual = [RelationReport("theorem2", fam, params, text)
                              for text in relations]
        else:
            first, *mutual = _pair_relations(v1, v2, half, "theorem2", fam,
                                             params, relations)
            # the twin comes later in the grid exactly when (s, t) > (n, m)
            if family is not TYPE_III and (s, t) > (n, m) and all(
                    report.status == HOLDS for report in [first, *mutual]):
                held.add((n, m, s, t))
        yield first
        for index, member, exps in ((0, v1, (n, m)), (1, v2, (s, t))):
            key = (exps, central, nd)
            if key not in internal:
                reports = check_internal(member, central, nd, "theorem2")
                internal[key] = [
                    [(tag + r.relation, r.status, r.expected, r.lhs, r.rhs)
                     for r in reports] for tag in ("V1: ", "V2: ")]
            for fields in internal[key][index]:
                yield RelationReport("theorem2", fam, params, *fields)
        yield from mutual
