"""The references the background relation checks are tested against.

check_relations is the two-sided relation check, the reference
mq2._check_relations is tested against.  It forms both sides of each of
the six defining relations as whole reduced elements, from
product(x, y), the reduced product of the entries x and y (0..3 for M11,
M12, M21, M22), and hands them to reports.compare.  It shares no code
with the signed sums of mq2._relation_table; the relation texts and
their order are the contract both must keep.

plain_join is the coproduct join that expands every tensor, the
reference mq2._coproduct_combination is tested against, both where its
certificate from the held U^n rows closes a row and where it falls back
to the entry products of U^n U'^n.  It builds its own 16 products of
two entries of U^n (entry_products), squares included, and never forms
U^n U'^n.
"""

from qmpairs.mq2 import QGElement
from qmpairs.reports import compare
from qmpairs.scalars import accumulate, q_pow


def check_relations(product, half, suite, params, expected, tag):
    gap = q_pow(half) - q_pow(-half)
    q = q_pow(half)
    sub = "Q=s^%d" % half
    bc = product(1, 2)
    checks = [
        ("M11*M12 = Q*M12*M11 [%s]" % sub, product(0, 1),
         product(1, 0).scale(q)),
        ("M11*M21 = Q*M21*M11 [%s]" % sub, product(0, 2),
         product(2, 0).scale(q)),
        ("M12*M21 = M21*M12", bc, product(2, 1)),
        ("M12*M22 = Q*M22*M12 [%s]" % sub, product(1, 3),
         product(3, 1).scale(q)),
        ("M21*M22 = Q*M22*M21 [%s]" % sub, product(2, 3),
         product(3, 2).scale(q)),
        ("M11*M22 - M22*M11 = (Q-Q^-1)*M12*M21 [%s]" % sub,
         product(0, 3) - product(3, 0), bc.scale(gap)),
    ]
    return [compare(lhs, rhs, suite, "mq2", params or {}, tag + rel,
                    expected)
            for rel, lhs, rhs in checks]


def check_matrix(matrix, half, suite="mq2", params=None, expected=False,
                 tag=""):
    """check_relations on the entries of a FullMatrix, as check_R."""
    entries = matrix.entries()
    return check_relations(lambda x, y: entries[x] * entries[y], half, suite,
                           params, expected, tag)


def entry_products(matrix):
    """The 16 reduced products of two entries of matrix, keyed (x, y)."""
    entries = matrix.entries()
    return {(x, y): entries[x] * entries[y]
            for x in range(4) for y in range(4)}


def plain_join(matrix):
    """combination(terms) over the entries of X X', X' the primed copy of
    X = matrix, from the 16 reduced products of two entries of X.

    Every term (x, y, factor) expands into its four tensors
    factor (X_ia X_kb) (x) (X'_aj X'_bl), each joined monomial by
    monomial into one dict, with no grouping and no merging.
    """
    blocks = {key: [(mono[:5], coeff) for mono, coeff in value.terms.items()]
              for key, value in entry_products(matrix).items()}

    def combination(terms):
        out = {}
        for x, y, factor in terms:
            i, j = divmod(x, 2)
            k, l = divmod(y, 2)
            for a in (0, 1):
                for b in (0, 1):
                    right = blocks[2 * a + j, 2 * b + l]
                    for block, coeff in blocks[2 * i + a, 2 * k + b]:
                        coeff = coeff * factor
                        for pblock, pcoeff in right:
                            accumulate(out, block + pblock, coeff * pcoeff)
        return QGElement(out)

    return combination
