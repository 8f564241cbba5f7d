"""The slot-loop triangular kernel: the reference algebra._mono_mul is
tested against.

It is the kernel the engine ran before the closed form: the right
monomial enters one slot at a time, and each diagonal slot crosses the
later letters on the left through the q-exponent table _E, one letter
at a time.  It shares the relation tables and the exception classes with
qmpairs.algebra, and no code.
"""

from qmpairs.algebra import (_BPUSH, _E, BetaDegreeExceeded, NonReducible)
from qmpairs.scalars import accumulate


def slot_mono_mul(out, left, right, coeff, family):
    """Add coeff times the product of two canonical monomials of family
    into out, with algebra._mono_mul's signature and raises."""
    beta = left[0]
    exps = list(left[1:])
    s_sh = 0
    r_sh = 0
    type_one = family.gamma_is_alpha_inverse
    for slot in (1, 2, 0, 3, 4):
        e = right[slot]
        if not e:
            continue
        if slot == 0:
            if beta:
                raise BetaDegreeExceeded("product carries two b generators")
            if exps[2] or exps[3]:
                raise NonReducible(
                    "g generators left of b%d admit no relation" % e)
            (s1, r1), (s2, r2) = _BPUSH[(1, e)], _BPUSH[(2, e)]
            s_sh += exps[0] * s1 + exps[1] * s2
            r_sh += exps[0] * r1 + exps[1] * r2
            beta, exps = e, [0, 0, exps[0], exps[1]]
            continue
        x = slot - 1
        if type_one and (x >= 2) == (beta == 0):
            # Type I: g_i = a_i^-1, so g^e before any b is a^-e and a^e
            # after a b is g^-e
            x, e = x ^ 2, -e
        if x < 2 and beta:
            raise NonReducible(
                "a%d right of b%d admits no relation" % (x + 1, beta))
        for y in range(x + 1, 4):
            s_sh -= 2 * e * _E[x][y] * exps[y]
        exps[x] += e
    accumulate(out, (beta, *exps),
               coeff.shift(s_sh, 0 if family.r_is_one else r_sh))
