"""What Element and QGElement share through SparseSum: equality, hashing,
scaling and the coercion of coefficients, for both engines."""

import random
from fractions import Fraction

import pytest

from qmpairs import (TYPE_I, TYPE_II, TYPE_III, parse_background,
                     parse_triangular)
from qmpairs.algebra import Element, generator
from qmpairs.mq2 import QGElement
from qmpairs.scalars import LaurentScalar, q_pow, r_pow

FAMILIES = (TYPE_I, TYPE_II, TYPE_III)
NOT_SCALARS = ("x", "", 1.5, None, Fraction(1, 2), [1])


def _samples():
    """(element, its zero, its scalar constructor) for every family and
    the background algebra."""
    out = []
    for family in FAMILIES:
        x = parse_triangular("(a1 + s * g2)^3 - 2 * b1 * g1 + 5", family)
        if family is TYPE_III:
            x = x + parse_triangular("(1 + r) * b2", family)
        out.append((x, Element.zero(family),
                    lambda c, family=family: Element.scalar(family, c)))
    x = parse_background("(a + b + c + d)^2 - 2 * b * Di + 3")
    out.append((x, QGElement.zero(), QGElement.scalar))
    return out


def test_equality_stays_within_one_family_and_class():
    for f1 in FAMILIES:
        for f2 in FAMILIES:
            same = f1 is f2
            assert (Element.one(f1) == Element.one(f2)) is same
            assert (generator("a1", 2, f1) == generator("a1", 2, f2)) is same
            assert (Element.zero(f1) == Element.zero(f2)) is same
        for mine, other in ((Element.one(f1), QGElement.one()),
                            (Element.zero(f1), QGElement.zero()),
                            (Element.scalar(f1, 3), QGElement.scalar(3))):
            assert mine != other and other != mine
            assert not mine == other and not other == mine
        assert Element.scalar(f1, 3) != LaurentScalar.integer(3)
        assert LaurentScalar.integer(3) != Element.scalar(f1, 3)
        assert Element.one(f1) != 1
    assert QGElement.one() != LaurentScalar.integer(1)
    assert QGElement.one() != 1


def test_equal_values_built_two_ways_hash_equally():
    for x, zero, scalar in _samples():
        pairs = [(x.scale(2), x + x), (x.scale(-1), -x), (x - x, zero),
                 (x.scale(q_pow(3)), x * scalar(q_pow(3))),
                 (x.scale(LaurentScalar.integer(7)), x.scale(7))]
        for left, right in pairs:
            assert left is not right
            assert left == right and right == left
            assert hash(left) == hash(right)
        assert len({x.scale(2), x + x, x}) == 2


def _scaled_term_by_term(x, coeff):
    family = x.family
    out = {}
    for key, c in x.terms.items():
        product = c * coeff
        if family is not None:
            product = family.canon(product)
        if product:
            out[key] = product
    return out


def test_scale_by_zero_an_int_a_scalar_and_a_unit():
    factors = (0, LaurentScalar.zero(), 3, -1,
               LaurentScalar({(0, 0): 2, (3, 0): -1}), q_pow(-5),
               -q_pow(2), r_pow(1), LaurentScalar({(1, 1): 4, (0, 0): 1}))
    for x, zero, _ in _samples():
        for coeff in factors:
            scaled = x.scale(coeff)
            assert scaled.__class__ is x.__class__
            assert dict(scaled.terms) == _scaled_term_by_term(x, coeff)
            assert all(scaled.terms.values())
        assert x.scale(0) == zero and not x.scale(0)
        assert x.scale(1) == x


def test_an_r_factor_is_dropped_under_types_one_and_two():
    for family in FAMILIES:
        x = parse_triangular("s * a1 + b1 * g1 - 3", family)
        if family.r_is_one:
            assert x.scale(r_pow(1)) == x
            assert x.scale(r_pow(-2) * q_pow(1)) == x.scale(q_pow(1))
            assert not any(b for c in x.scale(r_pow(3)).terms.values()
                           for _, b in c.terms)
        else:
            assert x.scale(r_pow(1)) != x
            assert all(b == 1 for c in x.scale(r_pow(1)).terms.values()
                       for _, b in c.terms)
        # an int coefficient is coerced and specialized like a scalar
        assert Element(family, {(0, 0, 0, 0, 0): 4}) == \
            Element.scalar(family, LaurentScalar.integer(4))


@pytest.mark.parametrize("bad", NOT_SCALARS, ids=repr)
def test_a_coefficient_that_is_not_a_scalar_raises(bad):
    one = (0, 0, 0, 0, 0)
    for family in FAMILIES:
        with pytest.raises(TypeError):
            Element(family, {one: bad})
        with pytest.raises(TypeError):
            Element(family, {one: 1, (0, 1, 0, 0, 0): bad})
        with pytest.raises(TypeError):
            Element.scalar(family, bad)
        with pytest.raises(TypeError):
            generator("a1", 1, family).scale(bad)
    with pytest.raises(TypeError):
        QGElement({(0,) * 10: bad})
    with pytest.raises(TypeError):
        QGElement.scalar(bad)
    with pytest.raises(TypeError):
        QGElement.generator("a").scale(bad)


def test_background_products_and_scales_hold_no_zero_coefficient():
    rng = random.Random(20261020)
    names = ("a", "b", "c", "d", "Di", "a'", "d'")
    scalars = (2, -1, q_pow(2) - q_pow(-2), LaurentScalar({(1, 0): 3}),
               -q_pow(4))

    def element():
        out = QGElement.zero()
        for _ in range(rng.randint(1, 3)):
            term = QGElement.scalar(rng.choice(scalars))
            for _ in range(rng.randint(1, 3)):
                term = term * QGElement.generator(rng.choice(names),
                                                  rng.randint(1, 2))
            out = out + term
        return out

    for _ in range(40):
        x, y = element(), element()
        for value in (x * y, y * x, (x * y).scale(rng.choice(scalars)),
                      x.scale(rng.choice(scalars)) * y):
            assert all(c.__class__ is LaurentScalar and c
                       for c in value.terms.values())
            assert QGElement(dict(value.terms)) == value
