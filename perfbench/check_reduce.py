"""Check `qmp reduce` outputs two ways, in a process of its own.

Reads a JSON list of requests on stdin, each with template, type, n, m,
expr and the text qmp printed, and writes a JSON list of [ok, reason].

1. Round trip: the text parses back to an element whose text is the same.
2. Reference, built without the product being checked:
   exchange  g2^N * a1^N = q^(N^2) a1^N g2^N  (the Prop 1 exchange factor)
   matrix    U1^N * U2^M = closed_product_entries(N, M)  (Theorem 1)
   binomial  (a1 + s g2)^k = sum_j s^(k-j) [k, j]_q a1^j g2^(k-j), since
             g2 a1 = q a1 g2 (Gaussian binomials computed here in integers)
   bg-*      sha256 of the text recorded at the seed commit, references.json

Needs qmpairs importable, e.g. PYTHONPATH=src.
"""

import hashlib
import json
import os
import sys

from qmpairs import (TYPE_I, TYPE_II, TYPE_III, LaurentScalar, Element,
                     generator, closed_product_entries, q_pow,
                     parse_triangular, parse_background)

FAMILIES = {"I": TYPE_I, "II": TYPE_II, "III": TYPE_III}
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def gaussian_binomial(n, k):
    """Coefficient list (index = power of q) of [n choose k]_q."""
    rows = [[1]]
    for size in range(1, n + 1):
        row = []
        for j in range(size + 1):
            # [size, j] = [size-1, j-1] + q^j [size-1, j]
            left = rows[j - 1] if j >= 1 else []
            right = rows[j] if j < size else []
            poly = [0] * max(len(left), len(right) + j, 1)
            for e, c in enumerate(left):
                poly[e] += c
            for e, c in enumerate(right):
                poly[e + j] += c
            row.append(poly)
        rows = row
    return rows[k]


def reference(request, references):
    """The expected value (Element or UTMatrix), or the expected digest."""
    template = request["template"]
    if template.startswith("bg-"):
        return references["reduce"][template][str(request["n"])]
    family = FAMILIES[request["type"]]
    n, m = request["n"], request.get("m")
    if template == "exchange":
        return (generator("a1", n, family) * generator("g2", n, family)) \
            .scale(q_pow(2 * n * n))
    if template == "matrix":
        return closed_product_entries(n, m, family)
    if template == "binomial":
        total = Element.zero(family)
        for j in range(n + 1):
            coeff = LaurentScalar({(2 * e + n - j, 0): c for e, c in
                                   enumerate(gaussian_binomial(n, j))})
            total = total + (generator("a1", j, family)
                             * generator("g2", n - j, family)).scale(coeff)
        return total
    raise ValueError("unknown template %r" % template)


def check(request, references):
    text = request["text"]
    if not text.endswith("\n"):
        return [False, "output does not end in a newline"]
    body = text[:-1]
    if request["type"] == "mq2":
        parsed = parse_background(body)
    else:
        parsed = parse_triangular(body, FAMILIES[request["type"]])
    if parsed.text() != body:
        return [False, "text does not parse back to itself"]
    expected = reference(request, references)
    if isinstance(expected, str):
        if hashlib.sha256(text.encode()).hexdigest() != expected:
            return [False, "digest differs from the recorded reference"]
    elif expected != parsed or expected.text() != body:
        return [False, "differs from the independent reference"]
    return [True, ""]


def main():
    with open(os.path.join(BENCH_DIR, "references.json")) as handle:
        references = json.load(handle)
    verdicts = []
    for request in json.load(sys.stdin):
        try:
            verdicts.append(check(request, references))
        except Exception as err:  # a bad output fails its request only
            verdicts.append([False, "%s: %s" % (type(err).__name__, err)])
    json.dump(verdicts, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
