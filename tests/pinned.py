"""The table of pinned `qmp` outputs, `tests/pinned.json`, and its CI check.

Each row of the table is one `qmp` argv with the sha256 of its stdout,
its CI time budget in seconds where it has one, and one line of
provenance: the commit that recorded the hash and the engine it came
from.  `tests/test_golden.py` runs every row in process.

Run as a script, this module runs every row through the installed `qmp`,
once with PYTHONUNBUFFERED unset and once with PYTHONUNBUFFERED=1, each
under the row's budget or, where it has none, DEFAULT_BUDGET.  It prints
the digest and wall time of each run, and after the last run lists every
mismatch and timeout and exits 1 if there was one:

    python tests/pinned.py
"""

import hashlib
import json
import os
import pathlib
import shlex
import shutil
import subprocess
import sys
import time

TABLE = pathlib.Path(__file__).with_name("pinned.json")
ROWS = json.loads(TABLE.read_text(encoding="utf-8"))
SHA256 = {tuple(row["argv"]): row["sha256"] for row in ROWS}

# the largest budget in the table
DEFAULT_BUDGET = 30


def _run(qmp, row, mode):
    """Run one row under its budget, print the run, and return what went
    wrong, or None."""
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    if mode == "PYTHONUNBUFFERED=1":
        env["PYTHONUNBUFFERED"] = "1"
    budget = row.get("budget", DEFAULT_BUDGET)
    start = time.perf_counter()
    try:
        done = subprocess.run([qmp, *row["argv"]], env=env,
                              stdout=subprocess.PIPE, timeout=budget)
    except subprocess.TimeoutExpired:
        digest, failure = "-" * 64, "timeout"
    else:
        digest = hashlib.sha256(done.stdout).hexdigest()
        failure = ("exit %d" % done.returncode if done.returncode
                   else None if digest == row["sha256"] else "mismatch")
    print("%s  %6.2f s of %2d s  %-18s  qmp %s"
          % (digest, time.perf_counter() - start, budget, mode,
             shlex.join(row["argv"])), flush=True)
    return failure


def main():
    qmp = shutil.which("qmp")
    if qmp is None:
        sys.exit("error: no qmp on PATH")
    failures = []
    for row in ROWS:
        for mode in ("buffered", "PYTHONUNBUFFERED=1"):
            failure = _run(qmp, row, mode)
            if failure:
                failures.append("%s, %s: qmp %s"
                                % (failure, mode, shlex.join(row["argv"])))
    print("%d rows, %d runs, %d failed"
          % (len(ROWS), 2 * len(ROWS), len(failures)))
    for failure in failures:
        print("FAILED", failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
