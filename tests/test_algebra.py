"""Triangular kernel: rewrite rules, oracle agreement, algebra laws."""

import copy
import pickle
import random

import pytest

import qmpairs
from qmpairs import algebra, matrices
from qmpairs.scalars import LaurentScalar, q_pow, r_pow
from qmpairs.algebra import (
    TYPE_I, TYPE_II, TYPE_III, Element, RelationFamily, generator,
    oracle_reduce, invert_element, BetaExponent, BetaDegreeExceeded,
    NonInvertibleEntry, NonReducible,
)

FAMILIES = (TYPE_I, TYPE_II, TYPE_III)
NAMES = ("a1", "a2", "g1", "g2", "b1", "b2")


def _word_element(word, family):
    out = Element.one(family)
    for name, exp in word:
        out = out * generator(name, exp, family)
    return out


def test_diagonal_swap_examples():
    for fam in FAMILIES:
        a1, a2 = generator("a1", 1, fam), generator("a2", 1, fam)
        g1, g2 = generator("g1", 1, fam), generator("g2", 1, fam)
        assert a1 * a2 == (a2 * a1).scale(q_pow(2))
        assert a1 * g1 == g1 * a1
        assert g2 * a1 == (a1 * g2).scale(q_pow(2))
        assert g1 * g2 == (g2 * g1).scale(q_pow(2))


def test_corner_push_examples():
    for fam in FAMILIES:
        a1, a2 = generator("a1", 1, fam), generator("a2", 1, fam)
        b1, b2 = generator("b1", 1, fam), generator("b2", 1, fam)
        g1, g2 = generator("g1", 1, fam), generator("g2", 1, fam)
        r_unit = r_pow(1) if fam is TYPE_III else LaurentScalar.one()
        assert a1 * b1 == (b1 * g1).scale(fam.canon(r_unit))
        assert a2 * b2 == (b2 * g2).scale(fam.canon(r_unit))
        assert a1 * b2 == (b2 * g1).scale(q_pow(2))
        assert a2 * b1 == (b1 * g2).scale(q_pow(-2))


def test_iterated_push_collects_r_powers():
    # a1^2 b1 = r^2 b1 g1^2 in the family that keeps r
    lhs = generator("a1", 2, TYPE_III) * generator("b1", 1, TYPE_III)
    rhs = (generator("b1", 1, TYPE_III)
           * generator("g1", 2, TYPE_III)).scale(r_pow(2))
    assert lhs == rhs


def test_inverse_pair_family():
    one = Element.one(TYPE_I)
    assert generator("a1", 1, TYPE_I) * generator("g1", 1, TYPE_I) == one
    assert generator("g1", 1, TYPE_I) == generator("a1", -1, TYPE_I)
    assert generator("g2", -3, TYPE_I) == generator("a2", 3, TYPE_I)


# family -> (value, r_is_one, gamma_is_alpha_inverse)
FAMILY_RULES = {
    TYPE_I: ("I", True, True),
    TYPE_II: ("II", True, False),
    TYPE_III: ("III", False, False),
}


@pytest.mark.parametrize("family", FAMILIES, ids=str)
def test_family_rules_are_plain_member_data(family):
    value, r_is_one, gamma_is_alpha_inverse = FAMILY_RULES[family]
    assert family.r_is_one is r_is_one
    assert family.gamma_is_alpha_inverse is gamma_is_alpha_inverse
    for rule in ("r_is_one", "gamma_is_alpha_inverse"):
        assert not isinstance(vars(RelationFamily).get(rule), property)
        assert rule in vars(family)
    assert family.value == str(family) == value
    assert RelationFamily(value) is family
    assert pickle.loads(pickle.dumps(family)) is family
    assert copy.deepcopy(family) is family


def test_non_invertible_entry_has_one_class():
    assert qmpairs.NonInvertibleEntry is matrices.NonInvertibleEntry \
        is algebra.NonInvertibleEntry is NonInvertibleEntry


@pytest.mark.parametrize("family", FAMILIES, ids=str)
def test_invert_element_refusals(family):
    a1 = generator("a1", 1, family)
    refusals = {
        "only single monomials are invertible":
            a1 + generator("g1", 1, family),
        "b generators are not invertible": generator("b1", 1, family),
        "coefficient 2 is not an invertible scalar": a1.scale(2),
    }
    for message, element in refusals.items():
        with pytest.raises(NonInvertibleEntry, match=message):
            invert_element(element)


def test_commuting_family_drops_r():
    x = generator("a1", 1, TYPE_II).scale(r_pow(5))
    assert x == generator("a1", 1, TYPE_II)
    assert TYPE_II.canon(r_pow(3) + q_pow(2)) == 1 + q_pow(2)


def test_corner_exponent_limits():
    for fam in FAMILIES:
        with pytest.raises(BetaExponent):
            generator("b1", 2, fam)
        with pytest.raises(BetaExponent):
            generator("b2", -1, fam)
        assert generator("b1", 0, fam) == Element.one(fam)


def test_corner_degree_limit():
    for fam in FAMILIES:
        b1, b2 = generator("b1", 1, fam), generator("b2", 1, fam)
        with pytest.raises(BetaDegreeExceeded):
            b1 * b2
        with pytest.raises(BetaDegreeExceeded):
            b1 * b1


def test_stuck_shapes_raise():
    # a diagonal unit trapped on the wrong side of a corner generator
    for fam in (TYPE_II, TYPE_III):
        with pytest.raises(NonReducible):
            generator("b1", 1, fam) * generator("a1", 1, fam)
        with pytest.raises(NonReducible):
            generator("g1", 1, fam) * generator("b1", 1, fam)
    # the inverse-pair family resolves both via substitution
    assert generator("b1", 1, TYPE_I) * generator("a1", 1, TYPE_I)
    assert generator("g1", 1, TYPE_I) * generator("b1", 1, TYPE_I)


def _random_word(rng, max_len=5, exponents=(-2, -1, 1, 2)):
    word = []
    used_corner = False
    for _ in range(rng.randint(1, max_len)):
        name = rng.choice(NAMES)
        if name.startswith("b"):
            if used_corner:
                name = rng.choice(NAMES[:4])
            else:
                used_corner = True
        if name.startswith("b"):
            word.append((name, 1))
        else:
            word.append((name, rng.choice(exponents)))
    return word


def test_oracle_agreement_500_admissible_words():
    """Criterion: the eager kernel and the naive rewriter coincide."""
    rng = random.Random(20260816)
    admissible = 0
    kernel_only_errors = 0
    while admissible < 500:
        family = rng.choice(FAMILIES)
        word = _random_word(rng)
        try:
            bulk = _word_element(word, family)
        except (NonReducible, BetaDegreeExceeded) as kernel_err:
            # the oracle may still reduce (it cancels inverse units
            # globally); when it fails the error class must match
            try:
                oracle_reduce(word, family)
                kernel_only_errors += 1
            except (NonReducible, BetaDegreeExceeded) as oracle_err:
                assert type(oracle_err) is type(kernel_err)
            continue
        admissible += 1
        assert oracle_reduce(word, family) == bulk, (family, word)
    assert kernel_only_errors < admissible


def _check_products_against_oracle(seed, count, exponents=(-2, -1, 1, 2)):
    rng = random.Random(seed)
    checked = 0
    while checked < count:
        family = rng.choice(FAMILIES)
        w1 = _random_word(rng, 3, exponents)
        w2 = _random_word(rng, 3, exponents)
        try:
            x = _word_element(w1, family)
            y = _word_element(w2, family)
            product = x * y
        except (NonReducible, BetaDegreeExceeded):
            continue
        assert oracle_reduce(w1 + w2, family) == product, (family, w1, w2)
        checked += 1


def test_oracle_agreement_on_products_of_words():
    _check_products_against_oracle(99, 120)


def test_oracle_agreement_on_large_exponent_products():
    # the kernel moves whole exponent blocks; the oracle moves single units
    _check_products_against_oracle(
        50, 40, [e for e in range(-50, 51) if e])


def test_associativity_500_triples():
    rng = random.Random(7)
    checked = 0
    while checked < 500:
        family = rng.choice(FAMILIES)
        try:
            x = _word_element(_random_word(rng, 2), family)
            y = _word_element(_random_word(rng, 2), family)
            z = _word_element(_random_word(rng, 2), family)
            left = (x * y) * z
            right = x * (y * z)
        except (NonReducible, BetaDegreeExceeded):
            continue
        assert left == right
        checked += 1


def test_bilinearity():
    rng = random.Random(11)
    for fam in FAMILIES:
        for _ in range(40):
            try:
                x = _word_element(_random_word(rng, 2), fam)
                y = _word_element(_random_word(rng, 2), fam)
                z = _word_element(_random_word(rng, 2), fam)
                assert (x + y) * z == x * z + y * z
                assert z * (x + y) == z * x + z * y
                scaled = x.scale(q_pow(3) + 2)
                assert scaled * y == (x * y).scale(q_pow(3) + 2)
            except (NonReducible, BetaDegreeExceeded):
                continue


def test_inverse_of_diagonal_elements():
    rng = random.Random(13)
    for fam in FAMILIES:
        one = Element.one(fam)
        for _ in range(60):
            word = [(rng.choice(NAMES[:4]), rng.choice((-2, -1, 1, 2)))
                    for _ in range(rng.randint(1, 4))]
            x = _word_element(word, fam).scale(
                LaurentScalar.monomial(-1, rng.randint(-2, 2),
                                       rng.randint(-1, 1)))
            inv = invert_element(x)
            assert x * inv == one
            assert inv * x == one


def test_power_definition():
    for fam in FAMILIES:
        x = generator("a1", 1, fam) * generator("g2", 1, fam)
        assert x ** 0 == Element.one(fam)
        assert x ** 3 == x * x * x
        assert x ** -2 == invert_element(x) * invert_element(x)


def test_zero_and_sum_normalization():
    for fam in FAMILIES:
        x = generator("a1", 1, fam)
        assert x - x == Element.zero(fam)
        assert not (x - x)
        assert (x + x) == x.scale(LaurentScalar.integer(2))
        assert 3 * x == x + x + x
        assert x * 3 == 3 * x == x.scale(3)
        assert x * q_pow(2) == x.scale(q_pow(2))
        assert Element.scalar(fam, 3) == Element.one(fam).scale(3)
        with pytest.raises(TypeError):
            x * "a"
