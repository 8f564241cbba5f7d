"""scalars.power against the n-fold product of tests/nfold_power.py.

power squares a base whose square has no more terms than the base, and
multiplies every other base on one factor at a time.  The differential
tests reach both paths on every value and matrix type; the counting tests
fix which path a base takes by the number of kernel products it costs.
"""

import pytest
from hypothesis import given, settings, strategies as st

from nfold_power import nfold_power
from qmpairs import algebra, mq2
from qmpairs.scalars import LaurentScalar, ONE, power
from qmpairs.algebra import (TYPE_I, TYPE_II, TYPE_III, Element, generator,
                             invert_element)
from qmpairs.matrices import UTMatrix, closed_power, generator_matrix
from qmpairs.mq2 import (FullMatrix, QGElement, generator_full_matrix,
                         qg_inverse_matrix)

FAMILIES = (TYPE_I, TYPE_II, TYPE_III)
DIAG = ("a1", "a2", "g1", "g2")


def _outcome(one, base, n, routine):
    """(value, None), or (None, (exception type, message)) if it raised."""
    try:
        return routine(one, base, n), None
    except ValueError as err:
        return None, (type(err), str(err))


def _assert_same(one, base, n):
    got = _outcome(one, base, n, power)
    want = _outcome(one, base, n, nfold_power)
    assert got == want, (base.text(), n)


def _scalars():
    coeff = st.sampled_from((1, -1, 2, -3))
    exp = st.integers(-4, 4)
    return st.dictionaries(st.tuples(exp, exp), coeff, min_size=1,
                           max_size=3).map(LaurentScalar)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_scalars(), st.integers(0, 40))
def test_scalar_powers(base, n):
    if len(base.terms) > 1:
        n %= 9
    _assert_same(ONE, base, n)
    if base.is_unit_monomial():
        assert base ** -n == nfold_power(ONE, base.monomial_inverse(), n)


def _monomials(family):
    """Elements of one term: a diagonal word, or a b with diagonal letters
    on its right, times a scalar."""
    def build(coeff, exps, beta):
        value = Element.scalar(family, coeff)
        if beta:
            value = value * generator(beta, 1, family)
        for name, e in zip(DIAG, exps):
            if beta and name.startswith("a"):
                continue
            value = value * generator(name, e, family)
        return value
    return st.builds(
        build, st.sampled_from((ONE, -ONE, LaurentScalar.monomial(2, 1, 1))),
        st.lists(st.integers(-3, 3), min_size=4, max_size=4),
        st.sampled_from((None, None, "b1", "b2")))


def _elements():
    return st.sampled_from(FAMILIES).flatmap(
        lambda family: st.lists(_monomials(family), min_size=1, max_size=3)
        .map(lambda terms: sum(terms[1:], terms[0])))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_elements(), st.integers(-40, 40))
def test_element_powers(base, n):
    """Values equal; a base carrying a b raises the same error."""
    one = Element.one(base.family)
    if len(base.terms) > 1:
        n %= 7
    factor = base
    if n < 0:
        try:
            factor = invert_element(base)
        except ValueError:
            return
    _assert_same(one, factor, abs(n))
    if not any(mono[0] for mono in base.terms):
        assert base ** n == nfold_power(one, factor, abs(n))


def _background():
    names = ("a", "b", "c", "d", "Di", "a'", "d'")
    word = st.lists(st.sampled_from(names), min_size=1, max_size=3)

    def build(words):
        out = QGElement.zero()
        for letters in words:
            term = QGElement.one()
            for name in letters:
                term = term * QGElement.generator(name)
            out = out + term
        return out
    return st.lists(word, min_size=1, max_size=2).map(build)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(_background(), st.integers(0, 12))
def test_background_powers(base, n):
    if len(base.terms) > 1:
        n %= 5
    _assert_same(QGElement.one(), base, n)


def test_one_term_background_power_that_grows():
    # a d is one term, but its square gains b c terms: the n-fold path
    ad = QGElement.generator("a") * QGElement.generator("d")
    assert len((ad * ad).terms) > 1
    for n in range(8):
        assert power(QGElement.one(), ad, n) == \
            nfold_power(QGElement.one(), ad, n)


def _literals():
    return st.sampled_from(FAMILIES).flatmap(
        lambda family: st.builds(
            UTMatrix, _monomials(family), _monomials(family)
            | st.just(Element.zero(family)), _monomials(family)))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_literals(), st.integers(-8, 8))
def test_matrix_literal_powers(base, n):
    one = UTMatrix.identity(base.family)
    if n < 0:
        try:
            base = base.inverse()
        except ValueError:
            return
    _assert_same(one, base, abs(n))


@pytest.mark.parametrize("family", FAMILIES)
def test_generator_matrix_powers(family):
    for index in (1, 2):
        u = generator_matrix(index, family)
        one = UTMatrix.identity(family)
        for n in range(-13, 14):
            base = u.inverse() if n < 0 else u
            assert u.pow(n) == nfold_power(one, base, abs(n)), (index, n)
        assert u.pow(1000) == closed_power(index, 1000, family)


def test_full_matrix_powers():
    gen = QGElement.generator
    diagonal = FullMatrix(gen("a"), QGElement.zero(), QGElement.zero(),
                          gen("d'"))
    one = FullMatrix.identity()
    for base in (generator_full_matrix(), generator_full_matrix(True),
                 qg_inverse_matrix(), diagonal):
        for n in range(5):
            assert power(one, base, n) == nfold_power(one, base, n)
    for n in (7, 16, 33):
        assert power(one, diagonal, n) == nfold_power(one, diagonal, n)


def _count(monkeypatch, module, name):
    """A list whose length counts the calls to module.name from now on."""
    calls = []
    kernel = getattr(module, name)

    def counted(*args):
        calls.append(None)
        return kernel(*args)
    monkeypatch.setattr(module, name, counted)
    return calls


def test_non_growing_powers_take_log_products(monkeypatch):
    calls = _count(monkeypatch, algebra, "_mono_mul")
    n = 10 ** 6
    x = generator("a1", 1, TYPE_II) * generator("g2", 1, TYPE_II)
    calls.clear()
    assert (x ** n).single_term()[0] == (0, n, 0, 0, n)
    assert 0 < len(calls) <= 2 * n.bit_length() + 2
    u = generator_matrix(1, TYPE_II)
    calls.clear()
    assert u.pow(n) == closed_power(1, n, TYPE_II)
    # a triangular product takes four entry products
    assert 0 < len(calls) <= 4 * (2 * n.bit_length() + 2)

    blocks = _count(monkeypatch, mq2, "_block_mul")
    a = QGElement.generator("a")
    assert (a ** 2 ** 17) == QGElement.generator("a", 2 ** 17)
    # a background product is two block products, unprimed and primed
    assert 0 < len(blocks) <= 2 * (2 * 18 + 2)


def test_growing_powers_multiply_one_factor_at_a_time(monkeypatch):
    blocks = _count(monkeypatch, mq2, "_block_mul")
    gen = QGElement.generator
    dense = gen("a") + gen("d")
    for k in (4, 9):
        blocks.clear()
        got = dense ** k
        spent = len(blocks)
        blocks.clear()
        assert got == nfold_power(QGElement.one(), dense, k)
        assert 0 < spent == len(blocks)

    monos = _count(monkeypatch, algebra, "_mono_mul")
    family = TYPE_II
    binomial = generator("a1", 1, family) \
        + generator("g2", 1, family).scale(LaurentScalar.monomial(1, 1))
    for k in (4, 9):
        monos.clear()
        got = binomial ** k
        spent = len(monos)
        monos.clear()
        assert got == nfold_power(Element.one(family), binomial, k)
        assert 0 < spent == len(monos)
