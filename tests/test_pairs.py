"""Pair suites: internal, mutual, q-commutation, transforms, rescaling."""

import pytest

from qmpairs.scalars import LaurentScalar, q_pow, r_pow
from qmpairs.algebra import TYPE_I, TYPE_II, TYPE_III, Element
from qmpairs.matrices import closed_power
from qmpairs.pairs import (
    QPair, RelationReport, generator_pair, check_q_commutation,
    check_internal, check_mutual, make_product_pair, rescale_pair,
    verify_pair, verify_prop1, verify_prop2, verify_prop3,
    verify_theorem1, verify_theorem2, NonUnitScalar, UnsupportedTransform,
)

FAMILIES = (TYPE_I, TYPE_II, TYPE_III)


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


def test_pair_power_cache_is_iterative():
    # far past the default recursion limit, one factor per cache entry
    pair = generator_pair(TYPE_I)
    assert pair.u1_pow(1200) == closed_power(1, 1200, TYPE_I)
    assert pair.u1_pow(-1200) == closed_power(1, -1200, TYPE_I)


def test_pair_requires_single_family():
    with pytest.raises(ValueError):
        QPair(generator_pair(TYPE_I).u1, generator_pair(TYPE_II).u2)
