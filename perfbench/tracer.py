"""Per-layer spans and counters for qmpairs, installed from outside the package.

Tracer.install() replaces selected functions of the qmpairs modules with
timing wrappers at every place they are bound: module globals (cli imports
the verify_* functions by name, __init__ re-exports most of them) and class
attributes (LaurentScalar.__rmul__ is the same function as __mul__).  Each
wrapper records its call count and its self time, which is its span minus
the spans of the wrapped calls made inside it.  summary() returns the totals
together with the cache_info() of the mq2 lru caches.

Run as a script it stands in for `python -m qmpairs.cli`: it installs the
wrappers, runs the command line given to it, and writes one line
"TRACE {json}" to stderr after the command's own output.
"""

import importlib
import json
import sys
import time

# (key, module, attribute path, counter name).  Several targets may share a
# key; their calls, self times and counts add up.  A counter maps the call's
# (args, result) to a number summed into the key's "count".
TARGETS = (
    ("scalars.mul", "qmpairs.scalars", "LaurentScalar.__mul__", "term_pairs"),
    ("algebra.mono_mul", "qmpairs.algebra", "_mono_mul", None),
    ("algebra.element_mul", "qmpairs.algebra", "Element.__mul__", None),
    ("matrices.ut_mul", "qmpairs.matrices", "UTMatrix.__mul__", None),
    ("matrices.inverse", "qmpairs.matrices", "UTMatrix.inverse", None),
    ("pairs.make_product_pair", "qmpairs.pairs", "make_product_pair",
     "members"),
    ("pairs.check", "qmpairs.pairs", "check_q_commutation", None),
    ("pairs.check", "qmpairs.pairs", "check_internal", None),
    ("pairs.check", "qmpairs.pairs", "check_mutual", None),
    ("modular.apply_word", "qmpairs.modular", "apply_word", None),
    ("mq2.mono_mul", "qmpairs.mq2", "_mono_mul", None),
    ("mq2.qg_mul", "qmpairs.mq2", "QGElement.__mul__", None),
    ("grammar.parse", "qmpairs.grammar", "parse_triangular", None),
    ("grammar.parse", "qmpairs.grammar", "parse_background", None),
    ("grammar.tokenize", "qmpairs.grammar", "tokenize", "tokens"),
    ("cli.emit", "qmpairs.cli", "emit_reports", None),
    ("cli.emit", "qmpairs.cli", "_run_reduce", None),
)

# lru caches, read through cache_info() when the run ends
CACHES = (
    ("mq2.word_cache", "qmpairs.mq2", "_reduce_word_cached"),
    ("mq2.absorb_cache", "qmpairs.mq2", "_absorb"),
)


def _size(value):
    """Number of terms of a scalar operand; an int is one term unless 0."""
    if isinstance(value, int):
        return 1 if value else 0
    return len(getattr(value, "terms", ()))


def _resolve(module_name, path):
    try:
        value = importlib.import_module(module_name)
    except ImportError:
        return None
    for part in path.split("."):
        value = getattr(value, part, None)
        if value is None:
            return None
    return value


def _rebind(original, replacement):
    """Replace original wherever a qmpairs module or class binds it."""
    for name, module in list(sys.modules.items()):
        if name != "qmpairs" and not name.startswith("qmpairs."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
            elif isinstance(value, type) and \
                    value.__module__.startswith("qmpairs"):
                for cattr, cvalue in list(vars(value).items()):
                    if cvalue is original:
                        setattr(value, cattr, replacement)


class Tracer:
    """The span stack and the per-key totals of one process."""

    def __init__(self):
        self.stats = {}
        self.missing = []
        self.members = set()
        self._stack = []
        self._counters = {
            "term_pairs": lambda args, _: _size(args[0]) * _size(args[1]),
            "tokens": lambda _, result: len(result),
            "members": self._count_members,
        }

    def _count_members(self, args, _result):
        pair, n, m, s, t = args[:5]
        family = str(getattr(pair, "family", ""))
        self.members.add((family, n, m))
        self.members.add((family, s, t))
        return 2

    def _wrap(self, fn, key, counter):
        stat = self.stats.setdefault(key, [0, 0.0, 0])
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                inner = stack.pop()
                stat[0] += 1
                stat[1] += span - inner
                if stack:
                    stack[-1] += span
            if counter is not None:
                stat[2] += counter(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        importlib.import_module("qmpairs")
        importlib.import_module("qmpairs.cli")
        for key, module_name, path, counter in TARGETS:
            original = _resolve(module_name, path)
            if original is None:
                self.missing.append("%s:%s" % (module_name, path))
                continue
            _rebind(original,
                    self._wrap(original, key, self._counters.get(counter)))

    def summary(self):
        caches = {}
        for key, module_name, path in CACHES:
            fn = _resolve(module_name, path)
            if not hasattr(fn, "cache_info"):
                self.missing.append("%s:%s" % (module_name, path))
                continue
            info = fn.cache_info()
            caches[key] = {"hits": info.hits, "misses": info.misses,
                           "size": info.currsize}
        return {"stats": {key: {"calls": v[0], "self_s": v[1], "count": v[2]}
                          for key, v in self.stats.items()},
                "caches": caches,
                "distinct_members": len(self.members),
                "missing": sorted(set(self.missing))}


def main(argv):
    tracer = Tracer()
    tracer.install()
    from qmpairs import cli
    code = cli.main(argv)
    sys.stdout.flush()
    sys.stderr.write("TRACE " + json.dumps(tracer.summary()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
