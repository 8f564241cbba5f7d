"""Triangular matrices: closed forms, inverses, power-form extraction."""

import random

import pytest

from qmpairs.scalars import LaurentScalar, q_pow, r_pow, quantum_integer
from qmpairs.algebra import TYPE_I, TYPE_II, TYPE_III, Element, generator
from qmpairs.matrices import (
    UTMatrix, generator_matrix, closed_power, closed_product_entries,
    extract_power_form, NonInvertibleEntry,
)

FAMILIES = (TYPE_I, TYPE_II, TYPE_III)


def test_power_matches_closed_form():
    for fam in FAMILIES:
        for index in (1, 2):
            base = generator_matrix(index, fam)
            for n in range(-5, 6):
                assert base.pow(n) == closed_power(index, n, fam), (fam, n)


def test_square_corner_in_r_family():
    # U1^2 corner is (1 + r) b1 g1 when r survives
    square = generator_matrix(1, TYPE_III).pow(2)
    expected = (generator("b1", 1, TYPE_III)
                * generator("g1", 1, TYPE_III)).scale(1 + r_pow(1))
    assert square.a12 == expected
    # and collapses to 2 b1 g1 where r = 1
    square2 = generator_matrix(1, TYPE_II).pow(2)
    assert square2.a12 == (generator("b1", 1, TYPE_II)
                           * generator("g1", 1, TYPE_II)).scale(2)


def test_closed_power_corner_uses_quantum_integer():
    for n in range(-4, 5):
        m = closed_power(1, n, TYPE_III)
        expected = (generator("b1", 1, TYPE_III)
                    * generator("g1", n - 1, TYPE_III)
                    ).scale(quantum_integer(n))
        assert m.a12 == expected, n


def test_product_entries_closed_form():
    for fam in FAMILIES:
        u1, u2 = generator_matrix(1, fam), generator_matrix(2, fam)
        for n in range(-3, 4):
            for m in range(-3, 4):
                assert closed_product_entries(n, m, fam) == \
                    u1.pow(n) * u2.pow(m), (fam, n, m)


def test_inverses_two_sided():
    for fam in FAMILIES:
        u1, u2 = generator_matrix(1, fam), generator_matrix(2, fam)
        identity = UTMatrix.identity(fam)
        for matrix in (u1, u2, u1 * u2, u1.pow(2) * u2.pow(-1)):
            inv = matrix.inverse()
            assert matrix * inv == identity
            assert inv * matrix == identity


def test_inverse_requires_unit_entries():
    fam = TYPE_II
    bad = UTMatrix(Element.one(fam) + generator("a1", 1, fam),
                   Element.zero(fam), Element.one(fam))
    with pytest.raises(NonInvertibleEntry):
        bad.inverse()


def test_extract_power_form_random_collapse():
    rng = random.Random(20260816)
    for fam in FAMILIES:
        u1, u2 = generator_matrix(1, fam), generator_matrix(2, fam)
        for _ in range(100):
            n = rng.randint(-3, 3)
            m = rng.randint(-3, 3)
            k = rng.randint(-4, 4)
            matrix = (u1.pow(n) * u2.pow(m)).scale(q_pow(k))
            form = extract_power_form(matrix)
            assert form is not None, (fam, n, m, k)
            lam, got_n, got_m = form
            assert (got_n, got_m) == (n, m)
            assert matrix == (u1.pow(n) * u2.pow(m)).scale(lam)


def test_extract_power_form_rejects_non_powers():
    fam = TYPE_II
    u1 = generator_matrix(1, fam)
    two_terms = UTMatrix(Element.one(fam) + generator("a1", 2, fam),
                         Element.zero(fam), Element.one(fam))
    assert extract_power_form(two_terms) is None
    doubled = u1.scale(LaurentScalar.integer(2))
    assert extract_power_form(doubled) is None
    corner = UTMatrix(generator("a1", 1, fam),
                      generator("b2", 1, fam), generator("g1", 1, fam))
    assert extract_power_form(corner) is None


def test_scale_and_equality():
    for fam in FAMILIES:
        u1 = generator_matrix(1, fam)
        assert u1.scale(q_pow(2)).scale(q_pow(-2)) == u1
        assert u1 != generator_matrix(2, fam)
        assert hash(u1) == hash(generator_matrix(1, fam))


def test_text_and_repr():
    u1 = generator_matrix(1, TYPE_III)
    assert (u1.text(), repr(u1)) == ("[[a1, b1], [0, g1]]",
                                     "<III: [[a1, b1], [0, g1]]>")
