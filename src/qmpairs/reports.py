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
from dataclasses import dataclass, field

HOLDS = "holds"
VIOLATED = "violated"


@dataclass(frozen=True)
class RelationReport:
    suite: str
    family: str
    params: dict = field(default_factory=dict)
    relation: str = ""
    status: str = HOLDS
    expected: bool = False
    lhs: str = None
    rhs: str = None

    def ok(self):
        """True when the report needs no attention."""
        return self.status == HOLDS or self.expected

    def with_params(self, params):
        """The same outcome reported under other parameters."""
        return RelationReport(self.suite, self.family, dict(params),
                              self.relation, self.status, self.expected,
                              self.lhs, self.rhs)


def compare(lhs, rhs, suite, family, params, relation, expected=False):
    """Report whether two reduced values are equal, with their texts if not."""
    if lhs == rhs:
        return RelationReport(suite, family, dict(params), relation, HOLDS,
                              expected)
    return RelationReport(suite, family, dict(params), relation, VIOLATED,
                          expected, lhs.text(), rhs.text())


def streamed(runner):
    """A list-returning suite function whose reports come from the
    generator runner, which stays reachable as .stream."""
    @functools.wraps(runner)
    def collect(*args, **kwargs):
        return list(runner(*args, **kwargs))

    collect.stream = runner
    return collect
