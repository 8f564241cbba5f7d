"""One long-lived qmp process serving a stream of `qmp reduce` requests.

Reads {"requests": [[type, expression], ...], "texts": bool, "trace": bool}
as JSON on stdin, sends each request through qmpairs.cli.main in order,
timing each call on its own, and writes one JSON object to stdout:

  ms        per-request latency in milliseconds
  rc        per-request exit code (-1 when main raised)
  sha256    per-request digest of the text main wrote
  bytes_out total bytes of output
  texts     the outputs themselves, when asked for
  trace     the Tracer summary, when tracing

Needs qmpairs importable, e.g. PYTHONPATH=src.
"""

import hashlib
import io
import json
import sys
import time
import traceback


def main():
    job = json.load(sys.stdin)
    tracer = None
    if job.get("trace"):
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    from qmpairs import cli

    result = {"ms": [], "rc": [], "sha256": [], "bytes_out": 0,
              "texts": [] if job.get("texts") else None}
    clock = time.perf_counter
    for family, expression in job["requests"]:
        out = io.StringIO()
        start = clock()
        try:
            code = cli.main(["reduce", expression, "--type", family], out=out)
        except Exception:  # a crash fails this request, not the stream
            print("request %r raised:" % expression, file=sys.stderr)
            traceback.print_exc()
            code = -1
        elapsed = clock() - start
        data = out.getvalue().encode()
        result["ms"].append(elapsed * 1e3)
        result["rc"].append(code)
        result["sha256"].append(hashlib.sha256(data).hexdigest())
        result["bytes_out"] += len(data)
        if result["texts"] is not None:
            result["texts"].append(data.decode())
    if tracer is not None:
        result["trace"] = tracer.summary()
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
