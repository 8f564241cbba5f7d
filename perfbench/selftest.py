"""Self-tests of the benchmark harness; run from the root of a checkout:

    python3 perfbench/selftest.py

1. Peak RSS is per process: a small invocation run after a large one reads
   well below it, and about what it read before the large one.
2. A corrupted expected hash makes a grid invocation count as failed.
3. A wrong `qmp reduce` output fails the checker and counts as failed.
4. BENCHMARK.json names exactly the metrics run.py reports.
"""

import copy
import json
import os
import sys

import run

SMALL = ["verify", "--suite", "mq2", "--range", "1", "--format", "json"]
LARGE = ["reduce", "d^11 * a^11", "--type", "mq2"]


def test_rss_is_per_process(bench):
    before = bench.child(run.QMP + SMALL)
    large = bench.child(run.QMP + LARGE)
    after = bench.child(run.QMP + SMALL)
    print("  small %d KB, large %d KB, small again %d KB"
          % (before.maxrss_kb, large.maxrss_kb, after.maxrss_kb))
    assert before.code == large.code == after.code == 0
    assert after.maxrss_kb < 0.6 * large.maxrss_kb
    assert after.maxrss_kb < 1.1 * before.maxrss_kb


def test_corrupted_hash_fails(bench):
    saved = run.REFERENCES
    run.REFERENCES = copy.deepcopy(saved)
    run.REFERENCES["verify"]["all-III"]["sha256"] = "0" * 64
    run.GRIDS["selftest"] = ("all-III",)
    try:
        bench.seconds = 0
        _, _, _, _, attempted, failed = run.grid_measure(
            "selftest", 1, bench, lambda line: print("  " + line))
    finally:
        run.REFERENCES = saved
        del run.GRIDS["selftest"]
    assert attempted == failed == 635
    assert failed / attempted > 0


def test_wrong_reduce_output_fails(bench):
    requests = [r for r in run.reduce_requests(1) if r["type"] == "mq2"
                and r["n"] <= 3][:4]
    requests.append({"template": "exchange", "type": "I", "n": 3,
                     "expr": "g2^3 * a1^3"})
    _, result = run.stream_pass(requests, bench, texts=True)
    good = run.checked_digests(requests, result, bench, print)
    assert None not in good
    assert run.stream_failures(requests, good, result, print) == 0
    result["texts"][0] = result["texts"][0].replace("a", "b", 1)
    result["texts"][-1] = "s^16 * a1^3 * a2^-3\n"
    bad = run.checked_digests(requests, result, bench,
                              lambda line: print("  " + line))
    assert bad[0] is None and bad[-1] is None
    assert run.stream_failures(requests, bad, result, print) == 2


def test_metric_names(_bench):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    assert end_to_end == set(run.END_TO_END), end_to_end ^ set(run.END_TO_END)
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert per_layer == set(run.PER_LAYER), per_layer ^ set(run.PER_LAYER)


def main():
    failures = 0
    bench = run.Run(0)
    try:
        for test in (test_rss_is_per_process, test_corrupted_hash_fails,
                     test_wrong_reduce_output_fails, test_metric_names):
            print(test.__name__)
            try:
                test(bench)
            except AssertionError as err:
                failures += 1
                print("  FAILED %s" % (err,))
            else:
                print("  ok")
    finally:
        bench.close()
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
