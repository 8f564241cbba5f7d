"""The dict Laurent scalar: the reference the packed LaurentScalar is tested
against.

Every value is a plain {(s_exp, r_exp): coeff} dict with no zero
coefficients, and every operation runs term by term, so it shares no code
and no representation with qmpairs.scalars.  The methods mirror the
LaurentScalar API that the differential tests exercise.
"""


class DictScalar:
    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {key: c for key, c in (terms or {}).items() if c}

    def __add__(self, other):
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            out[key] = out.get(key, 0) + coeff
        return DictScalar(out)

    def __neg__(self):
        return DictScalar({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                key = (a1 + a2, b1 + b2)
                out[key] = out.get(key, 0) + c1 * c2
        return DictScalar(out)

    def shift(self, s_exp, r_exp=0):
        return DictScalar({(a + s_exp, b + r_exp): c
                           for (a, b), c in self.terms.items()})

    def substitute_r_one(self):
        out = {}
        for (a, _), coeff in self.terms.items():
            out[a, 0] = out.get((a, 0), 0) + coeff
        return DictScalar(out)

    def __eq__(self, other):
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def text(self):
        if not self.terms:
            return "0"
        chunks = []
        for (a, b), coeff in sorted(self.terms.items()):
            factors = []
            if abs(coeff) != 1 or (a == 0 and b == 0):
                factors.append(str(abs(coeff)))
            if a:
                factors.append("s" if a == 1 else "s^%d" % a)
            if b:
                factors.append("r" if b == 1 else "r^%d" % b)
            body = " * ".join(factors)
            if not chunks:
                chunks.append("-" + body if coeff < 0 else body)
            else:
                chunks.append((" - " if coeff < 0 else " + ") + body)
        return "".join(chunks)
