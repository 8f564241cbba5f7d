"""Relation reports: the outcome of checking one relation.

A relation holds only when its two sides reduce to equal canonical
forms.  Nothing raises on a violated relation, since expected failures
(the Type III off-diagonal witness) are part of the contract.  Every
report carries the suite name, the family, the integer parameters and,
when violated, both reduced sides.

Suite runners are generators, so that a caller can write each report
as soon as it is decided; streamed() turns one into the list-returning
function the package exports, with the generator itself as .stream.
"""

import functools

HOLDS = "holds"
VIOLATED = "violated"

_FIELDS = ("suite", "family", "params", "relation", "status", "expected",
           "lhs", "rhs")


class RelationReport:
    """One relation's outcome: a plain record, read-only by convention.

    params is the caller's mapping, not a copy; the reports of one grid
    point share it, and it is read-only like the report.  Reports compare
    field by field, and only with reports; like the dicts in their params
    they are not hashable.
    """

    __slots__ = _FIELDS
    __hash__ = None

    def __init__(self, suite, family, params=None, relation="",
                 status=HOLDS, expected=False, lhs=None, rhs=None):
        self.suite = suite
        self.family = family
        self.params = {} if params is None else params
        self.relation = relation
        self.status = status
        self.expected = expected
        self.lhs = lhs
        self.rhs = rhs

    def _fields(self):
        return (self.suite, self.family, self.params, self.relation,
                self.status, self.expected, self.lhs, self.rhs)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        return "%s(%s)" % (self.__class__.__qualname__, ", ".join(
            "%s=%r" % item for item in zip(_FIELDS, self._fields())))

    def ok(self):
        """True when the report needs no attention."""
        return self.status == HOLDS or self.expected


def compare(lhs, rhs, suite, family, params, relation, expected=False):
    """Report whether two reduced values are equal, with their texts if
    not, under params itself (see RelationReport)."""
    if lhs == rhs:
        return RelationReport(suite, family, params, relation, HOLDS, expected)
    return RelationReport(suite, family, params, relation, VIOLATED,
                          expected, lhs.text(), rhs.text())


def streamed(runner):
    """A list-returning suite function whose reports come from the
    generator runner, which stays reachable as .stream."""
    @functools.wraps(runner)
    def collect(*args, **kwargs):
        return list(runner(*args, **kwargs))

    collect.stream = runner
    return collect
