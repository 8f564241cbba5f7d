"""Modular group action on pairs, and its integer matrix shadow.

Words over the letters S, T, S', T' act on a pair of triangular
matrices.  A word is applied rightmost letter first, so the word reads
as an operator composition: "S T" means first T, then S.  Under that
convention the assignment S -> [[0,1],[-1,0]], T -> [[1,1],[0,1]]
extends to a monoid homomorphism into SL(2, Z) when letter matrices are
multiplied in written order, and the exponent rows of the transformed
pair reproduce that matrix product.

Only the two families with r = 1 support the action; the third family's
transforms are confined to diagonal powers and reject these words.
"""

from .scalars import LaurentScalar, q_pow
from .algebra import TYPE_I, TYPE_II, TYPE_III
from .matrices import UTMatrix, extract_power_form
from .pairs import QPair, generator_pair
from .reports import RelationReport, VIOLATED, compare, streamed

LETTERS = ("S", "T", "S'", "T'")
_INVERSE = {"S": "S'", "S'": "S", "T": "T'", "T'": "T"}


class UnsupportedFamily(ValueError):
    """The family does not carry this group action."""


class CorrespondenceBroken(ValueError):
    """A transformed pair fell outside the scalar-times-powers form."""


class WordSyntaxError(ValueError):
    """The word contains a character outside S, T, S', T'."""

    def __init__(self, message, column):
        super().__init__("%s (column %d)" % (message, column))
        self.column = column


def parse_word(text):
    """Tokenize a word; letters may be separated by spaces or run together."""
    letters = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace() or ch == "*":
            i += 1
            continue
        if ch not in ("S", "T"):
            raise WordSyntaxError("unexpected character %r" % ch, i + 1)
        if i + 1 < len(text) and text[i + 1] == "'":
            letters.append(ch + "'")
            i += 2
        else:
            letters.append(ch)
            i += 1
    return tuple(letters)


def free_reduce(word):
    """Cancel adjacent inverse letters until none remain."""
    stack = []
    for letter in word:
        if stack and stack[-1] == _INVERSE[letter]:
            stack.pop()
        else:
            stack.append(letter)
    return tuple(stack)


def _act(letter, v1, v2, family):
    if letter == "S":
        return v2, v1.inverse()
    if letter == "S'":
        return v2.inverse(), v1
    if letter == "T":
        out = v1 * v2
        if family is TYPE_I:
            out = out.scale(q_pow(-1))
        return out, v2
    if letter == "T'":
        out = v1 * v2.inverse()
        if family is TYPE_I:
            out = out.scale(q_pow(1))
        return out, v2
    raise ValueError("unknown letter %r" % (letter,))


def apply_word(word, pair):
    """Apply a word to a pair, rightmost letter first."""
    family = pair.family
    if family is TYPE_III:
        raise UnsupportedFamily(
            "the third family only transforms along diagonal powers")
    v1, v2 = pair.u1, pair.u2
    for letter in reversed(word):
        v1, v2 = _act(letter, v1, v2, family)
    return QPair(v1, v2)


class SL2ZMatrix:
    """2 x 2 integer matrix, just enough for the letter homomorphism."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a, self.b, self.c, self.d = a, b, c, d

    @classmethod
    def identity(cls):
        return cls(1, 0, 0, 1)

    def __mul__(self, other):
        return SL2ZMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d)

    def __eq__(self, other):
        if not isinstance(other, SL2ZMatrix):
            return NotImplemented
        return (self.a, self.b, self.c, self.d) == \
               (other.a, other.b, other.c, other.d)

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    def det(self):
        return self.a * self.d - self.b * self.c

    def rows(self):
        return ((self.a, self.b), (self.c, self.d))

    def text(self):
        return "[[%d, %d], [%d, %d]]" % (self.a, self.b, self.c, self.d)

    def __repr__(self):
        return "SL2ZMatrix(%d, %d, %d, %d)" % (self.a, self.b, self.c, self.d)


_LETTER_MATRIX = {
    "S": SL2ZMatrix(0, 1, -1, 0),
    "S'": SL2ZMatrix(0, -1, 1, 0),
    "T": SL2ZMatrix(1, 1, 0, 1),
    "T'": SL2ZMatrix(1, -1, 0, 1),
}


def word_to_matrix(word):
    """Product of the letter matrices in written order."""
    out = SL2ZMatrix.identity()
    for letter in word:
        out = out * _LETTER_MATRIX[letter]
    return out


def exponent_rows(pair):
    """((n1, m1), (n2, m2)) with member i a unit scalar times U1^ni U2^mi.

    Raises CorrespondenceBroken when a member does not collapse to that
    shape.
    """
    rows = []
    for member in (pair.u1, pair.u2):
        form = extract_power_form(member)
        if form is None:
            raise CorrespondenceBroken(
                "member is not a scalar multiple of a power product: %s"
                % member.text())
        rows.append((form[1], form[2]))
    return tuple(rows)


def _member_reports(result, expected, suite, family, label):
    members = ((result.u1, expected.u1), (result.u2, expected.u2))
    return [compare(got, want, suite, family.value, {},
                    "%s: member %d" % (label, idx))
            for idx, (got, want) in enumerate(members, start=1)]


def verify_presentation(family, suite="theorem3"):
    """S^4 and (S T)^3 act as the identity, with the (S T) intermediate.

    The intermediate check pins down the scalar bookkeeping: applying
    (S T) to the generator pair must give member 1 = U2 and member 2 =
    q^(1/2) U2^-1 U1^-1 (no scalar for the commuting family).
    """
    pair = generator_pair(family)
    out = []
    out += _member_reports(apply_word(parse_word("SSSS"), pair), pair,
                           suite, family, "S^4 = identity")
    out += _member_reports(apply_word(parse_word("STSTST"), pair), pair,
                           suite, family, "(ST)^3 = identity")
    factor = q_pow(1) if family is TYPE_I else LaurentScalar.one()
    expected = QPair(pair.u2,
                     (pair.u2.inverse() * pair.u1.inverse()).scale(factor))
    out += _member_reports(apply_word(parse_word("ST"), pair), expected,
                           suite, family, "(ST) intermediate")
    return out


def check_correspondence(word, family, suite="theorem3"):
    """One report: exponent rows of the transformed pair match SL(2, Z)."""
    pair = generator_pair(family)
    word_text = "".join(word) or "(empty)"
    relation = "word %s: exponent rows = letter matrix product" % word_text
    try:
        rows = exponent_rows(apply_word(word, pair))
    except CorrespondenceBroken as err:
        return [RelationReport(suite, family.value, {}, relation, VIOLATED,
                               False, str(err), word_to_matrix(word).text())]
    return [compare(SL2ZMatrix(*rows[0], *rows[1]), word_to_matrix(word),
                    suite, family.value, {}, relation)]


def random_words(count, max_length, seed):
    """Deterministic sample of words for the correspondence suite."""
    import random
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        length = rng.randint(1, max_length)
        out.append(tuple(rng.choice(LETTERS) for _ in range(length)))
    return out


@streamed
def verify_theorem3(family, word_count=50, max_length=8, seed=20260816,
                    suite="theorem3"):
    """Presentation checks plus a seeded correspondence sample."""
    yield from verify_presentation(family, suite)
    for word in random_words(word_count, max_length, seed):
        yield from check_correspondence(word, family, suite)
