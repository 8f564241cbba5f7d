"""The per-`a` block product: the reference mq2._block_mul is tested
against.

It is the block product the engine ran before the closed sum: the a's of
the right block enter the left block b^j c^k d^l one at a time through

    b^j c^k d^l a = q^-(j+k) a b^j c^k d^l
                    + (q^(1-2l) - q) b^(j+1) c^(k+1) d^(l-1),

which follows by induction on l from d b c = q^-2 b c d.  Then
b^j' c^k' d^l' append at q^(-l(j'+k')), and Di^(m+m') is absorbed level
by level, each level taking one a and one d through
a d Di = 1 + q b c Di.  It shares the scalar helpers with qmpairs.mq2,
and no code.
"""

from qmpairs.scalars import ONE, accumulate


def loop_block_mul(x, y):
    """The block product x * y as a dict {block: scalar}, with blocks the
    exponent vectors (i, j, k, l, m) of a^i b^j c^k d^l Di^m."""
    terms = {x[:4]: ONE}
    for _ in range(y[0]):
        entered = {}
        for (i, j, k, l), coeff in terms.items():
            accumulate(entered, (i + 1, j, k, l), coeff.shift(-2 * (j + k)))
            if l:
                accumulate(entered, (i, j + 1, k + 1, l - 1),
                           coeff.shift(2 - 4 * l) - coeff.shift(2))
        terms = entered
    _, j2, k2, l2, m2 = y
    live = {(i, j + j2, k + k2, l + l2, x[4] + m2):
            coeff.shift(-2 * l * (j2 + k2))
            for (i, j, k, l), coeff in terms.items()}
    out = {}
    while live:
        level = {}
        for key, coeff in live.items():
            i, j, k, l, m = key
            if i and l and m:
                accumulate(level, (i - 1, j, k, l - 1, m - 1),
                           coeff.shift(2 * (j + k)))
                accumulate(level, (i - 1, j + 1, k + 1, l - 1, m),
                           coeff.shift(2 * (j + k + 1)))
            else:
                accumulate(out, key, coeff)
        live = level
    return out
