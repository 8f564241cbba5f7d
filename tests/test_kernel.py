"""The closed-form triangular kernel against the slot-loop reference.

algebra._mono_mul writes each slot's crossing as one linear form in the
left exponents; tests/slot_kernel.py keeps the loop over the q-exponent
table that it replaced.  Both run on every small pair of 5-tuples, and
on seeded random pairs with larger exponents, canonical or not, for each
family: they must add the same terms to out, or raise the same exception
class with the same message.
"""

import itertools
import random

import pytest

from qmpairs.algebra import TYPE_I, TYPE_II, TYPE_III, _mono_mul
from qmpairs.scalars import LaurentScalar

from slot_kernel import slot_mono_mul

FAMILIES = (TYPE_I, TYPE_II, TYPE_III)

# one unit and one dense coefficient: the shift must move both alike
COEFFS = (LaurentScalar.one(),
          LaurentScalar.monomial(3, 1, 0) + LaurentScalar.monomial(-2, 0, 1))


def _outcome(kernel, left, right, coeff, family):
    out = {(0, 0, 0, 0, 0): coeff}
    try:
        kernel(out, left, right, coeff, family)
    except ValueError as err:
        return type(err), str(err)
    return out


def _agree(pairs, family):
    for index, (left, right) in enumerate(pairs):
        coeff = COEFFS[index % 2]
        expected = _outcome(slot_mono_mul, left, right, coeff, family)
        assert _outcome(_mono_mul, left, right, coeff, family) == expected, \
            (family, left, right)


def _tuples(betas, exps):
    return [(beta, *rest) for beta in betas
            for rest in itertools.product(exps, repeat=4)]


@pytest.mark.parametrize("family", FAMILIES, ids=str)
def test_closed_form_matches_slot_loop_on_small_tuples(family):
    small = _tuples(range(3), range(-1, 2))
    _agree(itertools.product(small, small), family)


@pytest.mark.parametrize("family", FAMILIES, ids=str)
def test_closed_form_matches_slot_loop_on_random_tuples(family):
    rng = random.Random(30 + len(family.value))

    def exponent():
        # zero often, so that many pairs reduce instead of raising
        return rng.randint(-12, 12) if rng.random() < 0.6 else 0

    def mono():
        return (rng.choice((0, 0, 1, 2)), *(exponent() for _ in range(4)))

    _agree([(mono(), mono()) for _ in range(20000)], family)
