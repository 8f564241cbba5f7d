"""Scalar ring: exact Laurent arithmetic in s and r."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from qmpairs.scalars import (
    LaurentScalar, ZERO, ONE, q_pow, r_pow, quantum_integer,
)


def _evaluate(scalar, s_val, r_val):
    """Exact evaluation at rational points; independent of the ring code."""
    total = Fraction(0)
    for (a, b), coeff in scalar.terms.items():
        total += Fraction(coeff) * (s_val ** a) * (r_val ** b)
    return total


_POINTS = [(Fraction(2), Fraction(3)), (Fraction(-1, 2), Fraction(5, 3)),
           (Fraction(7, 4), Fraction(-2, 9))]


def _coeffs():
    return st.integers(min_value=-9, max_value=9)


def _exps():
    return st.integers(min_value=-5, max_value=5)


def scalars():
    return st.dictionaries(st.tuples(_exps(), _exps()), _coeffs(),
                           max_size=5).map(LaurentScalar)


@settings(max_examples=200, derandomize=True)
@given(scalars(), scalars(), scalars())
def test_ring_axioms(x, y, z):
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + ZERO == x
    assert x * ONE == x
    assert x - x == ZERO
    assert x * ZERO == ZERO


@settings(max_examples=200, derandomize=True)
@given(scalars(), scalars())
def test_product_against_evaluation(x, y):
    for s_val, r_val in _POINTS:
        assert _evaluate(x * y, s_val, r_val) == \
            _evaluate(x, s_val, r_val) * _evaluate(y, s_val, r_val)
        assert _evaluate(x + y, s_val, r_val) == \
            _evaluate(x, s_val, r_val) + _evaluate(y, s_val, r_val)


@settings(max_examples=100, derandomize=True)
@given(scalars())
def test_no_zero_coefficients_stored(x):
    assert all(coeff != 0 for coeff in x.terms.values())
    assert bool(x) == (len(x.terms) > 0)


def test_integer_coercion_and_equality():
    assert LaurentScalar.integer(5) == 5
    assert q_pow(0) == 1
    assert ZERO == 0
    assert 2 + q_pow(2) == q_pow(2) + LaurentScalar.integer(2)
    assert 3 * r_pow(1) == r_pow(1) + r_pow(1) + r_pow(1)
    assert 1 - q_pow(2) == LaurentScalar.integer(1) - q_pow(2)
    assert (1 - q_pow(2)).text() == "1 - s^2"


def test_power_and_monomial_inverse():
    x = q_pow(2) + r_pow(1)
    assert x ** 0 == ONE
    assert x ** 3 == x * x * x
    unit = LaurentScalar.monomial(-1, 3, -2)
    for n in range(7):
        for s_val, r_val in _POINTS:
            assert _evaluate(x ** n, s_val, r_val) == \
                _evaluate(x, s_val, r_val) ** n
            assert _evaluate(unit ** -n, s_val, r_val) == \
                _evaluate(unit, s_val, r_val) ** -n
    assert unit.is_unit_monomial()
    assert unit * unit.monomial_inverse() == ONE
    assert unit ** -2 == (unit.monomial_inverse()) ** 2
    assert not (q_pow(2) + ONE).is_unit_monomial()
    assert not LaurentScalar.monomial(2, 0, 0).is_unit_monomial()


def test_quantum_integer_values():
    assert quantum_integer(0) == ZERO
    assert quantum_integer(1) == ONE
    assert quantum_integer(3) == 1 + r_pow(1) + r_pow(2)
    assert quantum_integer(-1) == -r_pow(-1)
    assert quantum_integer(-3) == -(r_pow(-3) + r_pow(-2) + r_pow(-1))


def test_quantum_integer_identities():
    one_minus_r = ONE - r_pow(1)
    for n in range(-16, 17):
        nbar = quantum_integer(n)
        # defining identity: (1 - r^n)/(1 - r) cleared of denominators
        assert nbar * one_minus_r + r_pow(n) == ONE, n
        # recurrence
        assert nbar == r_pow(n - 1) + quantum_integer(n - 1), n
        # r = 1 gives the plain integer
        assert nbar.substitute_r_one() == LaurentScalar.integer(n), n


def test_quantum_integer_negative_reflection():
    # inverting r in the positive version recovers the negative one
    for p in range(1, 9):
        flipped = LaurentScalar(
            {(a, -b): c for (a, b), c in quantum_integer(p).terms.items()})
        assert flipped * (-r_pow(-1)) == quantum_integer(-p)


def test_substitute_r_one():
    x = LaurentScalar.monomial(2, 3, 5) + LaurentScalar.monomial(1, 3, -1)
    assert x.substitute_r_one() == LaurentScalar.monomial(3, 3, 0)
    assert q_pow(4).substitute_r_one() == q_pow(4)


def test_canonical_text():
    assert ZERO.text() == "0"
    assert ONE.text() == "1"
    assert (-ONE).text() == "-1"
    assert (ONE + q_pow(2)).text() == "1 + s^2"
    assert (q_pow(-2) * 3).text() == "3 * s^-2"
    assert LaurentScalar.monomial(1, 1, 1).text() == "s * r"
    assert (r_pow(2) - q_pow(2)).text() == "r^2 - s^2"
    assert quantum_integer(3).text() == "1 + r + r^2"


def test_text_sorted_by_exponents():
    x = q_pow(4) + q_pow(-4) + r_pow(2) + ONE
    assert x.text() == "s^-4 + 1 + r^2 + s^4"
