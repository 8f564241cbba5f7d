"""Upper triangular 2x2 matrices over the triangular pair algebra.

A matrix is (a11, a12; 0, a22) with Element entries, a scalars.Matrix2x2
with its own triangular product.  The generator matrices U1 = (a1, b1;
0, g1) and U2 = (a2, b2; 0, g2) and their inverses generate everything
the verification suites need.  Closed forms for powers and for the
product U1^n * U2^m are built from quantum integers and generator
powers; pow() builds the same matrices as products, formed in
scalars.power like every power in the engine, so the two constructions
can be compared.
"""

from .scalars import Matrix2x2, power, quantum_integer
from .algebra import Element, generator, invert_element
from .algebra import NonInvertibleEntry  # noqa: F401 (re-exported)


class UTMatrix(Matrix2x2):
    """Upper triangular matrix with entries in one relation family;
    entries() is (a11, a12, a22), and its product is triangular."""

    __slots__ = ("a11", "a12", "a22")

    _layout = "[[%s, %s], [0, %s]]"

    def __init__(self, a11, a12, a22):
        if a11.family is not a12.family or a11.family is not a22.family:
            raise ValueError("entries belong to different relation families")
        self.a11, self.a12, self.a22 = a11, a12, a22

    @property
    def family(self):
        return self.a11.family

    @classmethod
    def identity(cls, family):
        one = Element.one(family)
        return cls(one, Element.zero(family), one)

    def __mul__(self, other):
        if not isinstance(other, UTMatrix):
            return NotImplemented
        return UTMatrix(
            self.a11 * other.a11,
            self.a11 * other.a12 + self.a12 * other.a22,
            self.a22 * other.a22,
        )

    def scale(self, coeff):
        """Scalar multiple; every entry is scaled."""
        return UTMatrix(self.a11.scale(coeff), self.a12.scale(coeff),
                        self.a22.scale(coeff))

    def inverse(self):
        """(a11, a12; 0, a22)^-1 = (a11^-1, -a11^-1 a12 a22^-1; 0, a22^-1)."""
        top = invert_element(self.a11)
        bot = invert_element(self.a22)
        return UTMatrix(top, -(top * self.a12 * bot), bot)

    def pow(self, n):
        """Integer power from scalars.power, in O(log n) products for U1
        and U2, whose squares have no more terms; negative n multiplies
        the inverse."""
        base = self.inverse() if n < 0 else self
        return power(UTMatrix.identity(self.family), base, abs(n))

    def __repr__(self):
        return "<%s: %s>" % (self.family.value, self.text())


def generator_matrix(index, family):
    """The generator matrix U1 or U2 for index 1 or 2."""
    if index not in (1, 2):
        raise ValueError("index must be 1 or 2")
    return UTMatrix(*(generator("%s%d" % (x, index), 1, family)
                      for x in "abg"))


def closed_power(index, n, family):
    """U_index^n from the closed form (a^n, nbar * b g^(n-1); 0, g^n).

    nbar is the r-deformed integer, which specializes to the plain integer
    n once r = 1 under Types I and II.
    """
    if index not in (1, 2):
        raise ValueError("index must be 1 or 2")
    nbar = quantum_integer(n)
    corner = (generator("b%d" % index, 1, family)
              * generator("g%d" % index, n - 1, family)).scale(nbar)
    return UTMatrix(
        generator("a%d" % index, n, family),
        corner,
        generator("g%d" % index, n, family),
    )


def closed_product_entries(n, m, family):
    """The matrix U1^n * U2^m from its closed entry formulas.

    The corner is  mbar * a1^n b2 g2^(m-1) + nbar * b1 g1^(n-1) g2^m,
    evaluated in the engine so each summand lands in canonical form.
    """
    a11 = generator("a1", n, family) * generator("a2", m, family)
    a22 = generator("g1", n, family) * generator("g2", m, family)
    corner = (
        (generator("a1", n, family) * generator("b2", 1, family)
         * generator("g2", m - 1, family)).scale(quantum_integer(m))
        + (generator("b1", 1, family) * generator("g1", n - 1, family)
           * generator("g2", m, family)).scale(quantum_integer(n))
    )
    return UTMatrix(a11, corner, a22)


def extract_power_form(matrix):
    """Write matrix as lam * U1^n * U2^m if possible.

    Returns (lam, n, m) with lam a LaurentScalar, or None when the top left
    entry is not a single beta-free monomial or the match fails.
    """
    term = matrix.a11.single_term()
    if term is None:
        return None
    (beta, a, b, c, d), coeff = term
    if beta or c or d:
        return None
    n, m = a, b
    reference = generator_matrix(1, matrix.family).pow(n) \
        * generator_matrix(2, matrix.family).pow(m)
    ref_term = reference.a11.single_term()
    if ref_term is None:
        return None
    lam = coeff * ref_term[1].monomial_inverse()
    if not lam.is_unit_monomial():
        return None
    if reference.scale(lam) == matrix:
        return lam, n, m
    return None
