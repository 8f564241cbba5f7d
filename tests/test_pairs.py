"""Pair suites: internal, mutual, q-commutation, transforms, rescaling."""

import pytest

from qmpairs.scalars import LaurentScalar, q_pow, r_pow
from qmpairs.algebra import (
    TYPE_I, TYPE_II, TYPE_III, Element, NonReducible, generator,
)
from qmpairs.matrices import UTMatrix, closed_power, generator_matrix
from qmpairs.pairs import (
    QPair, RelationReport, generator_pair, check_q_commutation,
    check_internal, check_mutual, make_product_pair, rescale_pair,
    verify_pair, verify_prop1, verify_prop2, verify_prop3,
    verify_theorem1, verify_theorem2, family_internal_parameters,
    NonUnitScalar, UnsupportedTransform,
)
from qmpairs.reports import compare
from qmpairs import pairs

FAMILIES = (TYPE_I, TYPE_II, TYPE_III)


@pytest.mark.parametrize("n", (-2, 1, 3))
def test_family_internal_parameters(n):
    one = LaurentScalar.one()
    assert family_internal_parameters(TYPE_I, n) == (one, one)
    assert family_internal_parameters(TYPE_II, n) == (None, one)
    assert family_internal_parameters(TYPE_III, n) == (None, r_pow(n))


def _bad(reports):
    return [r for r in reports if not r.ok()]


def test_generator_pair_full_suite():
    for fam in FAMILIES:
        assert not _bad(verify_pair(generator_pair(fam)))


def test_prop1_grids():
    for fam in FAMILIES:
        reports = verify_prop1(fam, 3)
        assert not _bad(reports)
        # 6 diagonal pairs on a 7x7 grid plus 4 mixed pairs on a line
        assert len(reports) == 6 * 49 + 4 * 7


def test_prop2_derived_relations():
    reports = verify_prop2(3)
    assert not _bad(reports)
    assert all(r.family == "I" for r in reports)


def test_prop3_power_forms():
    for fam in FAMILIES:
        assert not _bad(verify_prop3(fam, 4))


def test_theorem1_grid_and_witness():
    for fam in (TYPE_I, TYPE_II):
        assert not _bad(verify_theorem1(fam, 3))
    reports = verify_theorem1(TYPE_III, 3)
    assert not _bad(reports)
    probes = [r for r in reports if r.expected]
    assert len(probes) == 17
    assert all(r.status == "violated" for r in probes)
    assert all(r.params == {"n": 2, "m": 1} for r in probes)


def test_theorem1_central_scalar():
    # the diagonal product collapses to an exact q power
    pair = generator_pair(TYPE_I)
    for n in (-2, 1, 3):
        for m in (-1, 2):
            product = pair.u1_pow(n) * pair.u2_pow(m)
            assert product.a11 * product.a22 == \
                Element.scalar(TYPE_I, q_pow(2 * n * m))


def test_theorem2_small_grids():
    for fam in FAMILIES:
        assert not _bad(verify_theorem2(fam, 2))


def _reference_member(family, i, j):
    """U1^i U2^j from repeated generator products, with the Type I
    prefactor q^(-ij/2)."""
    member = (generator_matrix(1, family).pow(i)
              * generator_matrix(2, family).pow(j))
    if family is TYPE_I:
        member = member.scale(q_pow(-i * j))
    return member


def _theorem2_reference(family, power_range, member=_reference_member):
    """Theorem 2 with no reuse: each quadruple rebuilds both members with
    member(family, i, j) and reduces M*N and N*M as whole matrix
    products, then runs the internal and mutual checks."""
    rng = range(-power_range, power_range + 1)
    if family is TYPE_III:
        quads = [(n, 0, 0, n) for n in rng]
    else:
        quads = [(n, m, s, t) for n in rng for m in rng
                 for s in rng for t in rng]
    out = []
    for n, m, s, t in quads:
        v1, v2 = member(family, n, m), member(family, s, t)
        half = 2 * (n * t - m * s)
        params = {"n": n, "m": m, "s": s, "t": t}
        central, nd = family_internal_parameters(family, n)
        out.append(compare(v1 * v2, (v2 * v1).scale(q_pow(half)),
                           "theorem2", family.value, params,
                           "M*N = s^%d * N*M" % half))
        out += check_internal(v1, central, nd, "theorem2", params,
                              tag="V1: ")
        out += check_internal(v2, central, nd, "theorem2", params,
                              tag="V2: ")
        out += check_mutual(QPair(v1, v2), half, "theorem2", params)
    return out


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.value)
def test_theorem2_matches_reference_without_reuse(fam):
    # verify_theorem2 reuses members, internal checks, entry products and
    # the verdicts of twin quadruples
    assert verify_theorem2(fam, 2) == _theorem2_reference(fam, 2)


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.value)
def test_theorem2_twins_reduce_no_pair_products(fam, monkeypatch):
    # at range 2 the grid has 25 diagonal and 600 off-diagonal quadruples;
    # when every relation holds, the 300 twins reduce no pair products
    calls = []
    products = pairs._commutation_products

    def counting(m1, m2):
        calls.append(1)
        return products(m1, m2)

    monkeypatch.setattr(pairs, "_commutation_products", counting)
    verify_theorem2(fam, 2)
    assert len(calls) == (5 if fam is TYPE_III else 25 + 300)


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.value)
def test_theorem2_checks_each_member_once(fam, monkeypatch):
    # a member's internal checks serve it as V1 and as V2: at range 2 the
    # grid has 25 members, and Type III its 9 members (n, 0) and (0, n)
    calls = []
    check = pairs.check_internal

    def counting(*args, **kwargs):
        calls.append(1)
        return check(*args, **kwargs)

    monkeypatch.setattr(pairs, "check_internal", counting)
    verify_theorem2(fam, 2)
    assert len(calls) == (9 if fam is TYPE_III else 25)


# a member's entries by relation-text letter
_ENTRY = {"A": "a11", "B": "a12", "C": "a22"}


def _evaluate(relation, v1, v2):
    """Both sides of a q-commutation or mutual relation of (v1, v2), read
    back from its text alone: "X*Y = F*Z*W [Q=s^h]" with F one of Q,
    Q^-1, or "M*N = s^h * N*M"."""
    if relation.startswith("M*N"):
        half = int(relation.split("s^")[1].split()[0])
        return v1 * v2, (v2 * v1).scale(q_pow(half))
    body, sub = relation.split(" [Q=s^")
    half = int(sub.rstrip("]"))
    left, right = body.split(" = ")
    factor, z, w = right.split("*")
    sign = {"Q": 1, "Q^-1": -1}[factor]
    members = {"1": v1, "2": v2}

    def entry(token):
        return getattr(members[token[1]], _ENTRY[token[0]])

    x, y = left.split("*")
    return (entry(x) * entry(y),
            (entry(z) * entry(w)).scale(q_pow(sign * half)))


_FAULTS = {
    # + b2 on the corner, which U1 = (a1, b1; 0, g1) does not push
    # through like b1: the relations that read B break
    "corner": lambda fam, v: UTMatrix(v.a11, v.a12 + generator("b2", 1, fam),
                                      v.a22),
    # + 1 on the first diagonal entry: the relations that read A break
    "diagonal": lambda fam, v: UTMatrix(v.a11 + Element.one(fam), v.a12,
                                        v.a22),
}


@pytest.mark.parametrize("fault", sorted(_FAULTS))
@pytest.mark.parametrize("fam", (TYPE_I, TYPE_II), ids=lambda f: f.value)
def test_theorem2_planted_fault_reaches_both_twins(fam, fault, monkeypatch):
    plant = _FAULTS[fault]
    member = pairs._member

    def corrupted(pair, n, m):
        value = member(pair, n, m)
        return plant(pair.family, value) if (n, m) == (1, 0) else value

    def reference_member(family, i, j):
        value = _reference_member(family, i, j)
        return plant(family, value) if (i, j) == (1, 0) else value

    monkeypatch.setattr(pairs, "_member", corrupted)
    reports = verify_theorem2(fam, 2)
    assert reports == _theorem2_reference(fam, 2, reference_member)

    # a quadruple with a violated mutual relation and its twin both
    # report violations; the loop below checks that each carries its own
    # sides
    violated = {}
    for report in reports:
        if report.status == "violated" and "Q=s^" in report.relation:
            p = report.params
            violated.setdefault((p["n"], p["m"], p["s"], p["t"]), []).append(
                report)
    quad = next(q for q in violated if q[:2] == (1, 0) and q[2:] != (1, 0))
    twin = quad[2:] + quad[:2]
    assert twin in violated

    # every pair relation of a quadruple with the faulty member agrees
    # with its own text, read back into the entry products it names
    for report in reports:
        p = report.params
        quad = (p["n"], p["m"], p["s"], p["t"])
        if (1, 0) not in (quad[:2], quad[2:]) or \
                report.relation.startswith(("V1: ", "V2: ")):
            continue
        lhs, rhs = _evaluate(report.relation,
                             reference_member(fam, *quad[:2]),
                             reference_member(fam, *quad[2:]))
        if lhs == rhs:
            assert report.status == "holds", report
        else:
            assert (report.status, report.lhs, report.rhs) == \
                ("violated", lhs.text(), rhs.text()), report


def test_product_pair_prefactor_restores_unit_diagonal():
    pair = generator_pair(TYPE_I)
    derived = make_product_pair(pair, 2, -3, 1, 2)
    one = Element.one(TYPE_I)
    assert derived.u1.a11 * derived.u1.a22 == one
    assert derived.u2.a11 * derived.u2.a22 == one


def test_product_pair_q_exponent():
    # derived pairs q-commute with exponent nt - ms
    pair = generator_pair(TYPE_II)
    n, m, s, t = 2, 1, -1, 2
    derived = make_product_pair(pair, n, m, s, t)
    half = 2 * (n * t - m * s)
    assert not _bad(check_q_commutation(derived.u1, derived.u2, half))
    assert _bad(check_q_commutation(derived.u1, derived.u2, half + 2))
    # a violation shows both sides as whole matrix products
    report, = check_q_commutation(derived.u1, derived.u2, half + 2)
    assert report.lhs == (derived.u1 * derived.u2).text()
    assert report.rhs == \
        (derived.u2 * derived.u1).scale(q_pow(half + 2)).text()



def test_q_commutation_reduces_only_its_own_products():
    # M*N and N*M need eight entry products; the mutual relations add
    # c1*a2 = b1*a1, which has no reduction under Type II
    one, zero = Element.one(TYPE_II), Element.zero(TYPE_II)
    m1 = UTMatrix(one, generator("a2", 1, TYPE_II), generator("b1", 1, TYPE_II))
    m2 = UTMatrix(generator("a1", 1, TYPE_II), zero, one)
    report, = check_q_commutation(m1, m2, 0)
    assert report.lhs == (m1 * m2).text()
    assert report.rhs == (m2 * m1).text()
    with pytest.raises(NonReducible):
        check_mutual(QPair(m1, m2), 0)

def test_diagonal_transform_keeps_r_parameter():
    pair = generator_pair(TYPE_III)
    derived = make_product_pair(pair, 2, 0, 0, 2)
    reports = check_internal(derived.u1, None, r_pow(2))
    assert not _bad(reports)


def test_transform_gate_off_diagonal():
    pair = generator_pair(TYPE_III)
    with pytest.raises(UnsupportedTransform):
        make_product_pair(pair, 2, 1, 0, 2)
    with pytest.raises(UnsupportedTransform):
        make_product_pair(pair, 1, 0, 1, 1)


def test_rescale_pair_suite():
    choices = (
        (q_pow(3), LaurentScalar.one()),
        (LaurentScalar.monomial(-1, 1, 0), q_pow(-2)),
        (LaurentScalar.monomial(1, 2, 1), LaurentScalar.monomial(-1, 0, 2)),
    )
    for fam in FAMILIES:
        pair = generator_pair(fam)
        for c1, c2 in choices:
            rescaled = rescale_pair(pair, c1, c2)
            assert not _bad(verify_pair(rescaled)), (fam, c1.text(), c2.text())


def test_rescale_rejects_non_units():
    pair = generator_pair(TYPE_II)
    with pytest.raises(NonUnitScalar):
        rescale_pair(pair, LaurentScalar.integer(2), LaurentScalar.one())
    with pytest.raises(NonUnitScalar):
        rescale_pair(pair, LaurentScalar.one() + q_pow(2),
                     LaurentScalar.one())
    with pytest.raises(NonUnitScalar):
        rescale_pair(pair, LaurentScalar.zero(), LaurentScalar.one())


def test_rescale_r_unit_is_trivial_where_r_is_one():
    pair = generator_pair(TYPE_I)
    rescaled = rescale_pair(pair, r_pow(4), r_pow(-1))
    assert rescaled.u1 == pair.u1
    assert rescaled.u2 == pair.u2


def test_mutual_relations_reference_pair():
    for fam in FAMILIES:
        reports = check_mutual(generator_pair(fam), 2)
        assert len(reports) == 6
        assert not _bad(reports)
        # the exponent is pinned: shifting it must break at least one line
        assert _bad(check_mutual(generator_pair(fam), 4))


def test_report_fields():
    reports = verify_theorem1(TYPE_III, 1)
    holds = next(r for r in reports if r.status == "holds")
    assert holds.lhs is None and holds.rhs is None
    assert holds.ok()
    probe = next(r for r in reports if r.expected)
    assert probe.lhs is not None and probe.rhs is not None
    assert probe.ok()  # expected violations do not fail a run
    made_up = RelationReport("suite", "I", {}, "x = y", "violated", False,
                             "x", "y")
    assert not made_up.ok()


def test_pair_power_cache_consistency():
    pair = generator_pair(TYPE_III)
    u1 = pair.u1
    assert pair.u1_pow(3) == u1 * u1 * u1
    assert pair.u1_pow(-2) == u1.inverse() * u1.inverse()
    assert pair.u2_pow(0).a12 == Element.zero(TYPE_III)


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.value)
def test_pair_power_cache_is_iterative(family):
    # far past the default recursion limit: powers are an iterative loop.
    # On Type III the b1 entry carries a 1200-term r-polynomial, a scalar
    # held as a dict.
    pair = generator_pair(family)
    assert pair.u1_pow(1200) == closed_power(1, 1200, family)
    assert pair.u1_pow(-1200) == closed_power(1, -1200, family)


def test_pair_construction_builds_no_matrix(monkeypatch):
    built = []
    identity = UTMatrix.identity.__func__

    def counting_identity(cls, family):
        built.append(family)
        return identity(cls, family)

    monkeypatch.setattr(UTMatrix, "identity", classmethod(counting_identity))
    generator_pair(TYPE_I)
    assert built == []


def test_pair_requires_single_family():
    with pytest.raises(ValueError):
        QPair(generator_pair(TYPE_I).u1, generator_pair(TYPE_II).u2)
