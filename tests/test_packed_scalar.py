"""The packed LaurentScalar against the dict scalar of tests/dict_scalar.py.

The strategies reach what the packed form has to get right: coefficients
near the 64-bit digit limits (2^62, 2^63) and up to 2^200, so products and
sums have to widen their digits; dense values hundreds of digits long,
placed anywhere in an s-range of 2 * 10^4, so sums line up far-apart lows;
sparse values with spans up to 10^4, which must stay sparse; and values
on one r power, packed along s, meeting runs along r at one s power, which
span several r powers and so are held as dicts, and the one-term values.
"""

import copy
import operator
import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import Phase, given, settings, strategies as st

from dict_scalar import DictScalar
from qmpairs import (TYPE_I, TYPE_III, parse_background, parse_triangular,
                     scalars)
from qmpairs.scalars import LaurentScalar, ONE, q_pow, r_pow, term_text

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _coeffs():
    near = st.sampled_from((2 ** 62, 2 ** 63, 2 ** 64, 2 ** 127))
    return st.one_of(
        st.integers(-9, 9),
        st.builds(lambda base, off, sign: sign * (base + off),
                  near, st.integers(-3, 3), st.sampled_from((1, -1))),
        st.integers(-2 ** 200, 2 ** 200),
    )


def _sparse_terms():
    exps = st.one_of(st.integers(-5, 5), st.integers(-10 ** 4, 10 ** 4))
    r_exps = st.one_of(st.just(0), st.integers(-3, 3))
    return st.dictionaries(st.tuples(exps, r_exps), _coeffs(), max_size=5)


def _line(axis, fixed, low, values):
    if axis:
        return {(fixed, low + k): c for k, c in enumerate(values)}
    return {(low + k, fixed): c for k, c in enumerate(values)}


def _dense_terms():
    """Dense runs of terms along s at one r power, the values the packed
    form holds, or along r at one s power, which it leaves as dicts."""
    coeffs = st.one_of(st.integers(-300, 300), _coeffs())
    length = st.one_of(st.integers(1, 8), st.integers(130, 300))
    return st.builds(
        _line, st.integers(0, 1), st.one_of(st.just(0), st.integers(-3, 3)),
        st.integers(-10 ** 4, 10 ** 4),
        length.flatmap(lambda n: st.lists(coeffs, min_size=n, max_size=n)))


def pairs():
    """A scalar and its dict-scalar twin, built from the same terms."""
    return st.one_of(_sparse_terms(), _dense_terms()).map(
        lambda terms: (LaurentScalar(terms), DictScalar(terms)))


def _same(value, oracle):
    # text() first: a packed value renders from its digits, before anything
    # has built its term dict
    assert value.text() == oracle.text()
    assert dict(value.terms) == oracle.terms
    assert value == LaurentScalar(oracle.terms)
    assert hash(value) == hash(oracle)
    assert bool(value) == bool(oracle.terms)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(pairs(), pairs(), st.integers(-10 ** 4, 10 ** 4), st.integers(-2, 2))
def test_packed_against_dict(xp, yp, s_exp, r_exp):
    (x, dx), (y, dy) = xp, yp
    _same(x, dx)
    _same(x + y, dx + dy)
    _same(x - y, dx - dy)
    _same(x * y, dx * dy)
    _same(x.shift(s_exp, r_exp), dx.shift(s_exp, r_exp))
    _same(x.substitute_r_one(), dx.substitute_r_one())
    assert (x == y) == (dx == dy)


# no shrink phase: shrinking a failing chain of large products runs for
# minutes, while the failure itself shows within seconds
@settings(max_examples=50, derandomize=True, deadline=None,
          phases=(Phase.explicit, Phase.generate))
@given(pairs(), pairs(), pairs())
def test_packed_chains_against_dict(xp, yp, zp):
    """Products of products grow the coefficient norm past each width."""
    (x, dx), (y, dy), (z, dz) = xp, yp, zp
    _same((x * y) * z, (dx * dy) * dz)
    _same(x * y + z * x, dx * dy + dz * dx)
    _same((x + y) * (x - y), (dx + dy) * (dx - dy))
    _same((x + y) - x, dy)


def test_equal_values_of_two_widths():
    x = LaurentScalar({(0, 0): 1, (3, 0): -2})
    big = LaurentScalar.integer(2 ** 70)
    wide = (x + big) - big
    assert wide._width > x._width
    assert wide == x and x == wide
    assert hash(wide) == hash(x)
    assert wide.text() == x.text() == "1 - 2 * s^3"
    # sums across two widths whose top or bottom digits cancel
    y = LaurentScalar({(1, 0): 2 ** 70, (3, 0): 2})
    _same(x + y, DictScalar({(0, 0): 1, (1, 0): 2 ** 70}))
    _same(wide - x, DictScalar())
    _same(y - x + 1, DictScalar({(1, 0): 2 ** 70, (3, 0): 4}))


def test_low_moves_past_cancelled_digits():
    x = LaurentScalar({(0, 0): 1, (1, 0): 1})
    for y in (q_pow(5), LaurentScalar({(3, 0): 4, (9, 0): -1})):
        _same((x + y) - x, DictScalar(dict(y.terms)))


def test_widening_keeps_products_exact():
    x = LaurentScalar({(0, 0): 2 ** 62 - 1, (1, 0): -(2 ** 62)})
    value, oracle = x, DictScalar(dict(x.terms))
    for _ in range(4):
        value, oracle = value * x, oracle * DictScalar(dict(x.terms))
    _same(value, oracle)


def test_sums_past_the_digit_limit():
    # norm 3037000499 < 2^31.5: the square keeps 64-bit digits, its top
    # digit 3037000498^2 just below 2^63
    x = LaurentScalar({(0, 0): 1, (1, 0): 3037000498})
    square = x * x
    assert square._width == 64
    total, oracle = square, DictScalar(dict(square.terms))
    for _ in range(3):
        total, oracle = total + total, oracle + oracle
    _same(total, oracle)


def test_long_thin_products_stay_sparse():
    x = LaurentScalar({(0, 0): 1, (200, 0): -1})
    assert x._packed is not None
    square = x * x
    assert square._packed is None
    _same(square, DictScalar({(0, 0): 1, (200, 0): -2, (400, 0): 1}))


def test_values_packed_along_r():
    terms = [{(2, 0): 1, (2, 1): 1}, {(3, 0): 1, (3, 2): -1},
             {(0, t): t + 1 for t in range(-4, 6)}, {(1, 5): 3},
             {(4, 0): 2, (5, 0): 1}]
    values = [LaurentScalar(t) for t in terms]
    oracles = [DictScalar(t) for t in terms]
    # values on several r powers are dicts; on one r power, packed
    assert [v._packed is None for v in values] == \
        [True, True, True, False, False]
    for x, dx in zip(values, oracles):
        for y, dy in zip(values, oracles):
            _same(x * y, dx * dy)
            _same(x + y, dx + dy)
            _same(x - y.shift(1, -2), dx - dy.shift(1, -2))
            _same((x + y) - x, dy)
        _same(x.substitute_r_one(), dx.substitute_r_one())


def test_terms_is_read_only():
    for x in (q_pow(2) + 3, LaurentScalar({(0, 1): 2, (5, 0): -1}),
              LaurentScalar({(0, 0): 1, (10 ** 6, 0): 1})):
        before, code = x.text(), hash(x)
        with pytest.raises(TypeError):
            x.terms[(7, 0)] = 1
        assert x.text() == before and hash(x) == code
        assert x == LaurentScalar(dict(x.terms))


def test_copies_leave_the_shared_constants_alone():
    for x in (q_pow(3) + 5, LaurentScalar({(0, 1): 2, (5, 0): -1}),
              LaurentScalar.zero(), ONE):
        assert copy.deepcopy(x) == x
        assert pickle.loads(pickle.dumps(x)) == x
    assert LaurentScalar.zero().text() == "0" and ONE.text() == "1"


def test_substitute_r_one_returns_r_free_values_themselves():
    for x in (ONE, q_pow(-3) - 5, LaurentScalar({(0, 0): 1, (10 ** 9, 0): 2}),
              LaurentScalar.zero()):
        assert x.substitute_r_one() is x


def test_sparse_wide_span_reduces_in_small_memory():
    script = (
        "import io, resource, sys\n"
        "from qmpairs.cli import main\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "out = io.StringIO()\n"
        "code = main(['reduce', '--type', 'I', '1 + s^100000000000'],"
        " out=out)\n"
        "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print(code, after - before)\n"
        "print(out.getvalue(), end='')\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    status, text = done.stdout.split("\n", 1)
    code, grown = map(int, status.split())
    grown_mb = grown / (2 ** 20 if sys.platform == "darwin" else 2 ** 10)
    assert code == 0
    assert text == "1 + s^100000000000\n"
    assert grown_mb <= 50


# (terms, digit width or None for a dict-held value, expected text or None
# where only the dict scalar's text is compared)
RENDER_CASES = [
    ({}, 64, "0"),
    ({(0, 0): 1}, 64, "1"),
    ({(0, 0): -1}, 64, "-1"),
    ({(0, 1): 1}, 64, "r"),
    ({(0, 1): -1}, 64, "-r"),
    ({(1, 0): 1}, 64, "s"),
    ({(0, -1): 1, (2, -1): -3}, 64, "r^-1 - 3 * s^2 * r^-1"),
    # a negative low, zero digits inside, -1 at s^0
    ({(-3, 0): -2, (-1, 0): 1, (0, 0): -1, (2, 0): 5}, 64,
     "-2 * s^-3 + s^-1 - 1 + 5 * s^2"),
    ({(0, 3): 1, (1, 3): -1, (4, 3): 7}, 64,
     "r^3 - s * r^3 + 7 * s^4 * r^3"),
    ({(-2, -1): -1, (1, -1): 2 ** 70}, 128,
     "-s^-2 * r^-1 + %d * s * r^-1" % 2 ** 70),
    ({(0, 0): -(2 ** 130), (1, 0): 1, (3, 0): -1, (4, 0): 1}, 192,
     "-%d + s - s^3 + s^4" % 2 ** 130),
    ({(5, 1): 2 ** 200, (6, 1): 0, (7, 1): -1}, 256,
     "%d * s^5 * r - s^7 * r" % 2 ** 200),
    ({(k, 0): (1 - 2 * (k % 2)) * (k % 7) for k in range(-150, 150)}, 64,
     None),
    ({(0, 0): 1, (0, 1): -1, (2, 0): 3}, None, "1 - r + 3 * s^2"),
    ({(-1, 0): -1, (10 ** 6, 0): 2}, None, "-s^-1 + 2 * s^1000000"),
]


@pytest.mark.parametrize("terms, width, text", RENDER_CASES,
                         ids=[str(k) for k in range(len(RENDER_CASES))])
def test_text_renders_the_digits(terms, width, text):
    value = LaurentScalar(terms)
    packed = value._packed is not None
    assert (value._width if packed else None) == width
    rendered = value.text()
    assert rendered == DictScalar(terms).text()
    if text is not None:
        assert rendered == text
    if packed:
        # rendering a packed value builds no term dict
        assert not hasattr(value, "_terms")


@pytest.mark.parametrize("terms, factors, expected", [
    ({(1, 0): -2}, ["a"], ("2 * s * a", True)),
    ({(0, 0): -3}, [], ("3", True)),
    ({(0, 0): 1}, ["a", "b"], ("a * b", False)),
    ({(0, 0): -1}, ["a"], ("a", True)),
    ({(-1, 1): -1}, ["a"], ("s^-1 * r * a", True)),
    ({(0, 0): 1, (1, 0): -1}, ["a"], ("(1 - s) * a", False)),
    ({(0, 0): 1, (1, 0): -1}, [], ("1 - s", False)),
    ({(0, 0): -(2 ** 70), (2, 0): 1}, ["a"],
     ("(-%d + s^2) * a" % 2 ** 70, False)),
    ({(0, 0): -1, (0, 1): 1}, ["a"], ("(-1 + r) * a", False)),
])
def test_term_text_parenthesizes_longer_coefficients(terms, factors,
                                                     expected):
    coeff = LaurentScalar(terms)
    assert term_text(coeff, factors) == expected
    oracle = DictScalar(terms)
    _same(coeff, oracle)
    body, negative = expected
    if not factors:
        assert (body, negative) == (oracle.text().lstrip("-"),
                                    oracle.text().startswith("-"))
    elif len(oracle.terms) > 1:
        assert body == "(%s) * %s" % (oracle.text(), " * ".join(factors))
    else:
        assert negative == oracle.text().startswith("-")


UNITS = [ONE, -ONE, q_pow(3), -q_pow(-2), r_pow(-1),
         -LaurentScalar.monomial(1, 5, 3)]


def test_unit_products_move_the_other_factor(monkeypatch):
    def repack(x, y, combine):
        raise AssertionError("a unit product was repacked")

    monkeypatch.setattr(scalars, "_widened", repack)
    packed = [LaurentScalar({(0, 0): 3, (2, 0): -1}),
              LaurentScalar({(-1, 1): 2 ** 70, (0, 1): -5}),
              LaurentScalar({(0, 0): 2 ** 130, (3, 0): -(2 ** 140),
                             (4, 0): 1})]
    assert [x._width for x in packed] == [64, 128, 192]
    zero = LaurentScalar.zero()
    for unit in UNITS:
        du = DictScalar(dict(unit.terms))
        for x in packed:
            dx = DictScalar(dict(x.terms))
            for product in (unit * x, x * unit):
                _same(product, du * dx)
                assert (product._width, product._norm) == \
                    (x._width, x._norm)
        for other in UNITS:
            _same(unit * other, du * DictScalar(dict(other.terms)))
        _same(unit * zero, DictScalar())
        _same(zero * unit, DictScalar())


def test_unit_times_a_dict_held_value_runs_term_by_term(monkeypatch):
    # the kernel of every term-pair product: one product per multiply,
    # with the dict-held scalar kernel
    calls = []
    term_by_term = scalars.product

    def spy(x, y, kernel, rules=None):
        calls.append(kernel)
        return term_by_term(x, y, kernel, rules)

    monkeypatch.setattr(scalars, "product", spy)
    held = [LaurentScalar({(0, 0): 1, (0, 1): -2, (3, 2): 5}),
            LaurentScalar({(0, 0): 1, (10 ** 6, 0): 1})]
    assert all(x._packed is None for x in held)
    for unit in UNITS:
        du = DictScalar(dict(unit.terms))
        for x in held:
            dx = DictScalar(dict(x.terms))
            _same(unit * x, du * dx)
            _same(x * unit, dx * du)
    assert len(calls) == 2 * len(held) * len(UNITS)
    assert all(kernel is scalars._term_mul for kernel in calls)


@pytest.mark.parametrize("k", [0, 3, -5])
def test_scale_by_a_unit_matches_term_by_term(k):
    elements = [parse_triangular("(a1 + s * g2)^6 + 3 * b1", TYPE_I),
                parse_triangular("(a1 + s * g2)^4 - r * b2 * g1", TYPE_III),
                parse_background("(a + b + c + d)^3 - 2 * b * Di")]
    for unit in (q_pow(k), -q_pow(k)):
        du = DictScalar(dict(unit.terms))
        for element in elements:
            scaled = element.scale(unit)
            assert scaled.terms.keys() == element.terms.keys()
            for mono, coeff in element.terms.items():
                _same(scaled.terms[mono], DictScalar(dict(coeff.terms)) * du)


def _spy(monkeypatch, name):
    """The argument tuples of every call to scalars.<name> from now on."""
    calls = []
    original = getattr(scalars, name)

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(scalars, name, spy)
    return calls


# packed values, each at the digit width it is keyed by
AT_WIDTH = {
    64: LaurentScalar({(0, 0): 3, (1, 0): -(2 ** 40), (3, 0): 7}),
    128: LaurentScalar({(-1, 0): 2 ** 70, (0, 0): -5}),
    192: LaurentScalar({(0, 0): 2 ** 130, (2, 0): -(2 ** 140), (5, 0): 1}),
    256: LaurentScalar({(2, 0): -(2 ** 200), (4, 0): 9}),
}


def _twin(value):
    return DictScalar(dict(value.terms))


def _sums_and_products(x, y):
    """x + y and x * y in both orders against the dict scalar; the widths
    of the four results."""
    widths = []
    for a, b in ((x, y), (y, x)):
        for combine in (operator.add, operator.mul):
            out = combine(a, b)
            _same(out, combine(_twin(a), _twin(b)))
            widths.append(out._width)
    return widths


@pytest.mark.parametrize("wx, wy", [(64, 128), (192, 128), (256, 64)])
def test_two_widths_meet_at_the_wider(monkeypatch, wx, wy):
    x, y = AT_WIDTH[wx], AT_WIDTH[wy]
    assert (x._width, y._width) == (wx, wy)
    for combine in (operator.add, operator.mul):
        for a, b in ((x, y), (y, x)):
            wa, wb = scalars._widened(a, b, combine)
            assert wa._width == wb._width >= max(wx, wy)
            assert (wa._norm, wb._norm) == (a._norm, b._norm)
            _same(wa, _twin(a))
            _same(wb, _twin(b))
    calls = _spy(monkeypatch, "_widened")
    assert min(_sums_and_products(x, y)) >= max(wx, wy)
    assert [combine for _, _, combine in calls] == \
        [operator.add, operator.mul] * 2


@pytest.mark.parametrize("wide", [128, 192, 256])
@pytest.mark.parametrize("combine", [operator.add, operator.mul],
                         ids=["add", "mul"])
def test_two_widths_on_one_line_widen_once(monkeypatch, wide, combine):
    # 1 + 2 s has norm 3, so the product with a wider value stays within
    # that value's width, as the sum does
    x, y = LaurentScalar({(0, 0): 1, (1, 0): 2}), AT_WIDTH[wide]
    assert (x._width, y._width) == (64, wide)
    calls = _spy(monkeypatch, "_widened")
    for a, b in ((x, y), (y, x)):
        del calls[:]
        out = combine(a, b)
        _same(out, combine(_twin(a), _twin(b)))
        assert out._width == wide
        assert len(calls) == 1


def test_overflow_at_one_width_widens(monkeypatch):
    x = LaurentScalar({(0, 0): 2 ** 31, (1, 0): -3})
    square = x * x
    # norm (2^31 + 3)^2 < 2^63: the square keeps 64-bit digits, but the
    # sum of two squares and the products with x or a square could
    # overflow one
    assert x._width == square._width == 64
    calls = _spy(monkeypatch, "_widened")
    assert _sums_and_products(square, square) == [128, 192] * 2
    for a, b in ((x, square), (square, x)):
        product = a * b
        _same(product, _twin(a) * _twin(b))
        assert product._width == 128
    assert [combine for _, _, combine in calls] == \
        [operator.add, operator.mul] * 2 + [operator.mul] * 2


def test_far_lows_and_two_r_lines_add_term_by_term(monkeypatch):
    calls = _spy(monkeypatch, "_widened")
    x = AT_WIDTH[64]
    # the last two are 128 bits wide, with a norm no 64-bit digit holds,
    # and meet x with far lows or on another r line
    near_overflow = LaurentScalar({(0, 0): 2 ** 62, (1, 0): 2 ** 62})
    for y in (AT_WIDTH[128].shift(scalars._LONG + 10),
              AT_WIDTH[64].shift(scalars._LONG + 1),
              AT_WIDTH[128].shift(0, 1), AT_WIDTH[64].shift(2, -1),
              near_overflow.shift(-scalars._LONG - 4),
              near_overflow.shift(1, 3)):
        for a, b in ((x, y), (y, x)):
            total = a + b
            _same(total, _twin(a) + _twin(b))
            assert total._packed is None
    assert not calls
