"""Word action on pairs and its SL(2, Z) exponent shadow."""

import random

import pytest

from qmpairs import modular
from qmpairs.scalars import LaurentScalar, q_pow
from qmpairs.algebra import TYPE_I, TYPE_II, TYPE_III
from qmpairs.pairs import QPair, generator_pair
from qmpairs.modular import (
    LETTERS, parse_word, free_reduce, apply_word, word_to_matrix,
    exponent_rows, verify_presentation, verify_theorem3,
    check_correspondence, random_words, SL2ZMatrix,
    UnsupportedFamily, WordSyntaxError,
)


def _bad(reports):
    return [r for r in reports if not r.ok()]


def test_parse_word_forms():
    assert parse_word("S T S' T'") == ("S", "T", "S'", "T'")
    assert parse_word("STS'T'") == ("S", "T", "S'", "T'")
    assert parse_word("S*T") == ("S", "T")
    assert parse_word("") == ()
    assert parse_word("  S   ") == ("S",)


def test_parse_word_errors():
    with pytest.raises(WordSyntaxError) as err:
        parse_word("SXT")
    assert err.value.column == 2
    with pytest.raises(WordSyntaxError):
        parse_word("'S")


def test_free_reduce():
    assert free_reduce(parse_word("SS'")) == ()
    assert free_reduce(parse_word("S'S")) == ()
    assert free_reduce(parse_word("TT'T")) == ("T",)
    assert free_reduce(parse_word("STT'S'")) == ()
    assert free_reduce(parse_word("STS")) == ("S", "T", "S")


def test_presentation_identities():
    for fam in (TYPE_I, TYPE_II):
        assert not _bad(verify_presentation(fam))


def test_composite_intermediate_value():
    # applying (S T) to the generator pair pins the scalar convention
    pair = generator_pair(TYPE_I)
    result = apply_word(parse_word("ST"), pair)
    assert result.u1 == pair.u2
    assert result.u2 == (pair.u2.inverse() * pair.u1.inverse()).scale(q_pow(1))
    result_ii = apply_word(parse_word("ST"), generator_pair(TYPE_II))
    pair_ii = generator_pair(TYPE_II)
    assert result_ii.u2 == pair_ii.u2.inverse() * pair_ii.u1.inverse()


def test_rightmost_letter_applies_first():
    pair = generator_pair(TYPE_II)
    word = parse_word("ST")
    composed = apply_word(word, pair)
    in_two_steps = apply_word(("S",), apply_word(("T",), pair))
    assert composed.u1 == in_two_steps.u1
    assert composed.u2 == in_two_steps.u2


def test_action_rejects_r_family():
    with pytest.raises(UnsupportedFamily):
        apply_word(("S",), generator_pair(TYPE_III))


def test_letter_matrices_written_order():
    rng = random.Random(5)
    for _ in range(60):
        word = tuple(rng.choice(LETTERS)
                     for _ in range(rng.randint(0, 8)))
        matrix = word_to_matrix(word)
        assert matrix.det() == 1
        for cut in range(len(word) + 1):
            assert word_to_matrix(word[:cut]) * word_to_matrix(word[cut:]) \
                == matrix


def test_free_reduction_invariance_of_action():
    rng = random.Random(17)
    for fam in (TYPE_I, TYPE_II):
        pair = generator_pair(fam)
        for _ in range(25):
            word = tuple(rng.choice(LETTERS)
                         for _ in range(rng.randint(0, 7)))
            full = apply_word(word, pair)
            reduced = apply_word(free_reduce(word), pair)
            assert full.u1 == reduced.u1
            assert full.u2 == reduced.u2


def test_exponent_rows_of_generator_pair():
    for fam in (TYPE_I, TYPE_II):
        assert exponent_rows(generator_pair(fam)) == ((1, 0), (0, 1))


def test_correspondence_sampled_words():
    for fam in (TYPE_I, TYPE_II):
        for word in random_words(50, 8, seed=20260816):
            assert not _bad(check_correspondence(word, fam)), (fam, word)


def test_correspondence_reports_a_broken_member(monkeypatch):
    """A transformed member that is no unit scalar times a power product
    gives one violated report: the error text against the letter matrix."""
    pair = generator_pair(TYPE_I)
    broken = pair.u1.scale(LaurentScalar.integer(2))
    monkeypatch.setattr(modular, "apply_word",
                        lambda word, pair: QPair(broken, pair.u2))
    word = parse_word("S T")
    report, = check_correspondence(word, TYPE_I)
    assert report.status == "violated" and not report.expected
    assert report.lhs == ("member is not a scalar multiple of a power "
                          "product: %s" % broken.text())
    assert report.rhs == word_to_matrix(word).text() == "[[0, 1], [-1, -1]]"
    assert (report.suite, report.family) == ("theorem3", "I")


def test_theorem3_suite_shape():
    reports = verify_theorem3(TYPE_I)
    assert not _bad(reports)
    assert len(reports) == 6 + 50
    assert {r.suite for r in reports} == {"theorem3"}


def test_sl2z_helpers():
    s = SL2ZMatrix(0, 1, -1, 0)
    assert s * SL2ZMatrix.identity() == s
    assert (s * s * s * s) == SL2ZMatrix.identity()
    assert s.rows() == ((0, 1), (-1, 0))
    assert s.text() == "[[0, 1], [-1, 0]]"
    assert repr(s) == "SL2ZMatrix(0, 1, -1, 0)"


def test_sl2z_product_takes_matrices_only():
    with pytest.raises(TypeError):
        SL2ZMatrix(1, 0, 0, 1) * 3
