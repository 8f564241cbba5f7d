"""The one-letter-at-a-time product: the rule-level reference that
mq2._block_mul is tested against at exponents reduce_word cannot reach.

times_letter(m, x) is the normal form of a monomial m = a^i b^j c^k d^l
times one letter x.  If x is no smaller than the last letter of m it is
appended.  Otherwise the last letter y is split off, y x is rewritten by
one of the six directed rules of the mq2 module docstring, and the rest
of m is multiplied by each letter of the result in turn.  Results are
memoized on (m, x), so d^40 a^40 takes about a second, where reduce_word
branches at every d a and stops being usable near exponent 8.

A block product is a fold over the letters of the right block, after
which Di^(m + m') is absorbed by its own rule, a d Di = 1 + q b c Di.
This module shares the scalar helpers with qmpairs.mq2, and no code.

Run as a script, it checks d^k a^k against the engine for each k given
(40 by default) and prints the time the oracle took:

    python tests/letter_oracle.py 40
"""

import sys
import time
from functools import lru_cache

from qmpairs.scalars import ONE, accumulate, q_pow

A, B, C, D = range(4)

# the six directed rules, q = s^2: a descending pair -> (word, factor)s
RULES = {
    (B, A): (((A, B), q_pow(-2)),),
    (C, A): (((A, C), q_pow(-2)),),
    (C, B): (((B, C), ONE),),
    (D, B): (((B, D), q_pow(-2)),),
    (D, C): (((C, D), q_pow(-2)),),
    (D, A): (((A, D), ONE), ((B, C), q_pow(-2) - q_pow(2))),
}


def _bumped(mono, letter, by):
    return mono[:letter] + (mono[letter] + by,) + mono[letter + 1:]


@lru_cache(maxsize=None)
def times_letter(m, x):
    """The normal form of m * x as a tuple of (monomial, scalar)."""
    y = max((letter for letter in range(4) if m[letter]), default=A)
    if x >= y:
        return ((_bumped(m, x, 1), ONE),)
    head = _bumped(m, y, -1)
    out = {}
    for word, factor in RULES[y, x]:
        for mono, coeff in times_word({head: factor}, word).items():
            accumulate(out, mono, coeff)
    return tuple(out.items())


def times_word(terms, word):
    """{monomial: scalar} terms times the letters of word, left to right."""
    for x in word:
        out = {}
        for mono, coeff in terms.items():
            for key, factor in times_letter(mono, x):
                accumulate(out, key, coeff * factor)
        terms = out
    return terms


@lru_cache(maxsize=None)
def absorbed(block):
    """The normal form of a^i b^j c^k d^l Di^m as a tuple of (block,
    scalar): while a, d and Di are all present, one a moves right past
    b^j c^k (ab = q ba, ac = q ca) and a d Di = 1 + q b c Di applies."""
    i, j, k, l, m = block
    if not (i and l and m):
        return ((block, ONE),)
    out = {}
    for rest, factor in (((i - 1, j, k, l - 1, m - 1), q_pow(2 * (j + k))),
                         ((i - 1, j + 1, k + 1, l - 1, m),
                          q_pow(2 * (j + k + 1)))):
        for key, coeff in absorbed(rest):
            accumulate(out, key, factor * coeff)
    return tuple(out.items())


def letter_block_mul(x, y):
    """The block product x * y as a dict {block: scalar}, with blocks the
    exponent vectors (i, j, k, l, m) of a^i b^j c^k d^l Di^m."""
    word = sum(((letter,) * exp for letter, exp in enumerate(y[:4])), ())
    out = {}
    for mono, coeff in times_word({x[:4]: ONE}, word).items():
        for key, factor in absorbed(mono + (x[4] + y[4],)):
            accumulate(out, key, coeff * factor)
    return out


def main(argv):
    from qmpairs.mq2 import _block_mul

    for k in map(int, argv or ["40"]):
        x, y = (0, 0, 0, k, 0), (k, 0, 0, 0, 0)
        start = time.perf_counter()
        expected = letter_block_mul(x, y)
        took = time.perf_counter() - start
        ok = dict(_block_mul(x, y)) == expected
        print("d^%d a^%d: %d terms, oracle %.2f s, %s"
              % (k, k, len(expected), took, "match" if ok else "MISMATCH"))
        if not ok:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
