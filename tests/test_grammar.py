"""Parser: spec grammar, error columns, text round trips."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from qmpairs.scalars import LaurentScalar, q_pow
from qmpairs.algebra import (
    TYPE_I, TYPE_II, TYPE_III, Element, generator, BetaDegreeExceeded,
    NonReducible,
)
from qmpairs.matrices import UTMatrix, generator_matrix
from qmpairs.grammar import (
    parse_triangular, parse_background, tokenize, ParseError,
)
from qmpairs.mq2 import QGElement

FAMILIES = (TYPE_I, TYPE_II, TYPE_III)


def test_mixed_product_example():
    parsed = parse_triangular("a1 * b2", TYPE_II)
    expected = (generator("b2", 1, TYPE_II)
                * generator("g1", 1, TYPE_II)).scale(q_pow(2))
    assert parsed == expected


def test_matrix_tokens():
    assert parse_triangular("U1^0", TYPE_I) == UTMatrix.identity(TYPE_I)
    expected = generator_matrix(1, TYPE_III).pow(2) \
        * generator_matrix(2, TYPE_III).pow(-1)
    assert parse_triangular("U1^2 * U2^-1", TYPE_III) == expected


def test_matrix_literal():
    fam = TYPE_III
    text = (generator_matrix(1, fam) * generator_matrix(2, fam)).text()
    assert parse_triangular(text, fam).text() == text
    with pytest.raises(ParseError):
        parse_triangular("[[a1, b1], [a2, g1]]", fam)
    with pytest.raises(ParseError):
        parse_triangular("[[a1, b1], [0, g1]", fam)


def test_engine_errors_pass_through():
    with pytest.raises(BetaDegreeExceeded):
        parse_triangular("b1 * b2", TYPE_II)


def test_scalar_spellings():
    for fam in FAMILIES:
        assert parse_triangular("q^3", fam) == \
            Element.scalar(fam, q_pow(6))
        assert parse_triangular("s^-2 * s^2", fam) == Element.one(fam)
        assert parse_triangular("2^3", fam) == \
            Element.scalar(fam, LaurentScalar.integer(8))
    # r is a formal unit in the triangular grammar, normalized per family
    assert parse_triangular("r", TYPE_II) == Element.one(TYPE_II)
    assert parse_triangular("r", TYPE_III) == \
        Element.scalar(TYPE_III, LaurentScalar.monomial(1, 0, 1))


def test_parse_error_columns():
    cases = [
        ("a1 + $", 6),
        ("a1 * (b1", 9),      # missing ')' reported at end
        ("a1 ^ x", 6),
        ("zz1", 1),
        ("a1 b1", 4),         # juxtaposition is not multiplication
        # an error inside a literal's entry is reported where it occurs
        ("[[(a1, b1], [0, g1]]", 6),
        ("[[a1), b1], [0, g1]]", 5),
        ("[[a1 a2, b1], [0, g1]]", 6),
    ]
    for src, column in cases:
        with pytest.raises(ParseError) as err:
            parse_triangular(src, TYPE_II)
        assert err.value.column == column, src


def test_matrix_inside_element_expression():
    """A matrix token after the first token is reported where it stands;
    input that starts with a matrix keeps the matrix grammar's errors."""
    for src, column in (("a1 * [", 6), ("a1 + g1 * U1", 11), ("2 * U1", 5),
                        ("-U2^2", 2), ("(U1)", 2)):
        for fam in FAMILIES:
            with pytest.raises(ParseError) as err:
                parse_triangular(src, fam)
            assert err.value.column == column, src
            assert str(err.value) == "a matrix cannot appear in an " \
                "element expression (column %d)" % column
    for src, message in (
            ("U1 * a1", "expected U1, U2 or a matrix literal (column 6)"),
            ("[[a1, b1], [0, g1]] + U1", "unexpected trailing input "
                                         "(column 21)")):
        with pytest.raises(ParseError) as err:
            parse_triangular(src, TYPE_I)
        assert str(err.value) == message


def test_background_names():
    x = parse_background("q^-1 * a * b + Di'^2 * c'")
    gen = QGElement.generator
    assert x == (gen("a") * gen("b")).scale(q_pow(-2)) \
        + gen("Di'", 2) * gen("c'")
    with pytest.raises(ParseError):
        parse_background("r * a")
    with pytest.raises(ParseError):
        parse_background("U1")
    with pytest.raises(ParseError):
        parse_background("g1")


def test_tokenizer_columns_one_based():
    tokens = tokenize("a1 + b2")
    assert [(k, c) for k, _, c in tokens] == \
        [("NAME", 1), ("SYM", 4), ("NAME", 6), ("END", 8)]


def test_integers_are_ascii_digits():
    # superscripts and other scripts' digits are not integers
    for src in ("a1^\u00b2", "a1^\u0663"):
        for parse in (lambda text: parse_triangular(text, TYPE_I),
                      parse_background):
            with pytest.raises(ParseError) as err:
                parse(src)
            assert err.value.column == 4, src
            assert "unexpected character" in str(err.value)


def test_over_long_integer_literal_is_a_parse_error():
    # int() refuses more decimal digits than the interpreter's limit
    # (sys.get_int_max_str_digits(), 4300 by default)
    nines = "9" * 5000
    for parse in (lambda text: parse_triangular(text, TYPE_I),
                  parse_background):
        for src, column in ((nines + " * s", 1), ("s^" + nines, 3)):
            with pytest.raises(ParseError) as err:
                parse(src)
            assert err.value.column == column
            assert "integer literal too long" in str(err.value)


_FUZZ_TOKENS = (
    ("a1", "b1", "g1", "a2", "b2", "g2", "a", "b", "c", "d", "Di", "a'",
     "b'", "c'", "d'", "Di'", "U1", "U2", "s", "q", "r")
    + tuple("0123456789") + tuple("+-*^()[],")
    + ("\u00b2", "\u0663", "_", "\u00e9", "$"))


def _raised_in(err):
    """Module of the innermost Python frame that raised err."""
    tb = err.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    return tb.tb_frame.f_globals["__name__"]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(st.sampled_from(_FUZZ_TOKENS), max_size=10))
def test_fuzz_parsers(tokens):
    """Any text gives a value that round-trips, a ParseError with a column
    inside the input, or an engine ValueError; nothing else escapes."""
    src = " ".join(tokens)
    parsers = [lambda text, fam=fam: parse_triangular(text, fam)
               for fam in FAMILIES] + [parse_background]
    for parse in parsers:
        try:
            value = parse(src)
        except ParseError as err:
            assert 1 <= err.column <= len(src) + 1, (src, err)
            continue
        except ValueError as err:
            assert _raised_in(err) != "qmpairs.grammar", (src, err)
            continue
        text = value.text()
        assert parse(text).text() == text, src


def _random_element(rng, family):
    names = ("a1", "b1", "g1", "a2", "b2", "g2")
    out = Element.zero(family)
    for _ in range(rng.randint(1, 3)):
        term = Element.scalar(family, LaurentScalar.monomial(
            rng.choice((-3, -1, 1, 2)), rng.randint(-2, 2),
            rng.randint(-1, 1)))
        for _ in range(rng.randint(0, 3)):
            name = rng.choice(names)
            exp = 1 if name.startswith("b") else rng.randint(-2, 2)
            try:
                term = term * generator(name, exp, family)
            except (BetaDegreeExceeded, NonReducible):
                continue
        out = out + term
    return out


def test_round_trip_200_elements():
    """Criterion: format(parse(format(x))) = format(x)."""
    rng = random.Random(20260816)
    count = 0
    while count < 200:
        family = rng.choice(FAMILIES)
        element = _random_element(rng, family)
        text = element.text()
        parsed = parse_triangular(text, family)
        assert parsed == element, text
        assert parsed.text() == text
        count += 1


def test_round_trip_background_elements():
    rng = random.Random(6)
    names = ("a", "b", "c", "d", "Di", "a'", "b'", "c'", "d'", "Di'")
    for _ in range(60):
        element = QGElement.zero()
        for _ in range(rng.randint(1, 3)):
            term = QGElement.scalar(LaurentScalar.monomial(
                rng.choice((-2, 1, 3)), rng.randint(-2, 2), 0))
            for _ in range(rng.randint(0, 3)):
                term = term * QGElement.generator(rng.choice(names))
            element = element + term
        text = element.text()
        assert parse_background(text).text() == text


def test_parenthesized_power():
    fam = TYPE_II
    x = parse_triangular("(a1 * g2)^-2", fam)
    assert x == (generator("a1", 1, fam) * generator("g2", 1, fam)) ** -2
    y = parse_triangular("-(a1 + a2)", fam)
    assert y == -(generator("a1", 1, fam) + generator("a2", 1, fam))
