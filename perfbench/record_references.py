"""Write references.json: the outputs the benchmark accepts as correct.

The digests were recorded at the seed commit, whose outputs are the
golden outputs of the project.  Run this again only at a commit whose
outputs are trusted, from the root of the repository:

    PYTHONPATH=src python3 perfbench/record_references.py

verify  argv, stdout sha256 and relation count (stdout lines) of every
        `qmp verify` invocation the grid workloads run
reduce  for each background template of reduce-stream and each exponent
        k it can draw, the sha256 of the text `qmp reduce --type mq2` prints
"""

import hashlib
import io
import json
import os
import subprocess
import sys

from run import BACKGROUND

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

VERIFY = {
    "all-I": ["verify", "--suite", "all", "--type", "I", "--format", "json"],
    "all-II": ["verify", "--suite", "all", "--type", "II", "--format", "json"],
    "all-III": ["verify", "--suite", "all", "--type", "III",
                "--format", "json"],
    "theorem2-I-r3": ["verify", "--suite", "theorem2", "--type", "I",
                      "--range", "3", "--format", "json"],
    "mq2-r4": ["verify", "--suite", "mq2", "--range", "4", "--format", "json"],
}


def main():
    from qmpairs import cli
    out = {"verify": {}, "reduce": {}}
    for name, argv in VERIFY.items():
        data = subprocess.run([sys.executable, "-m", "qmpairs.cli"] + argv,
                              check=True, stdout=subprocess.PIPE).stdout
        out["verify"][name] = {"argv": argv,
                               "sha256": hashlib.sha256(data).hexdigest(),
                               "relations": data.count(b"\n")}
    for template, pattern, top in BACKGROUND:
        digests = {}
        for k in range(1, top + 1):
            buf = io.StringIO()
            code = cli.main(["reduce", pattern.format(k=k), "--type", "mq2"],
                            out=buf)
            if code != 0:
                raise SystemExit("reduce %s failed" % pattern.format(k=k))
            digests[str(k)] = hashlib.sha256(
                buf.getvalue().encode()).hexdigest()
        out["reduce"][template] = digests
    with open(os.path.join(BENCH_DIR, "references.json"), "w") as handle:
        json.dump(out, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
