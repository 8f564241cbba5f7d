"""The qmpairs benchmark: end-to-end runs and a traced per-layer run.

    python3 perfbench/run.py --workload tri-grid|bg-grid|reduce-stream \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program under test is the
checkout's own src/, run as `python -m qmpairs.cli` with PYTHONPATH=src.
Each workload is a closed loop with one client and one qmp process at a
time; passes repeat until --seconds have gone by and the metrics are
medians over them.  Every output is checked (see README.md).  The last
line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics of a traced run with --trace 1.
"""

import argparse
import dataclasses
import hashlib
import json
import marshal
import os
import platform
import random
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

from tracer import CACHES, TARGETS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
ENV = dict(os.environ, PYTHONPATH=SRC)
QMP = [sys.executable, "-m", "qmpairs.cli"]
TRACED_QMP = [sys.executable, os.path.join(BENCH_DIR, "tracer.py")]

# setup_s is the median of SETUP_FIRST imports at the start of a run and
# SETUP_PER_PASS after every pass, so that it spans the run like the other
# metrics and the host's slow and fast phases weigh in alike
SETUP_FIRST = 5
SETUP_PER_PASS = 2
DEADLINE_S = 150          # no child may run past this point of a run
REDUCE_PER_TEMPLATE = 34  # 6 templates, 204 requests per stream pass

# background templates of reduce-stream: (name, expression, largest k)
BACKGROUND = (
    ("bg-da", "d^{k} * a^{k}", 12),
    ("bg-sum", "(a + b + c + d)^{k}", 7),
    ("bg-absorb", "Di^{k} * a^{k} * d^{k}", 20),
)

GRIDS = {
    "tri-grid": ("all-I", "all-II", "all-III", "theorem2-I-r3"),
    "bg-grid": ("mq2-r4",),
}
WORKLOADS = ("tri-grid", "bg-grid", "reduce-stream")

# Counters that must be nonzero in a traced run of each workload.
NONZERO = {
    "tri-grid": (
        "scalars.mul_calls", "scalars.mul_term_pairs",
        "algebra.mono_mul_calls", "algebra.element_mul_calls",
        "matrices.ut_mul_calls", "matrices.inverse_calls",
        "pairs.make_product_pair_calls", "modular.apply_word_calls",
        "mq2.mono_mul_calls", "mq2.word_cache_misses",
        "mq2.absorb_cache_misses", "cli.bytes_out"),
    "bg-grid": (
        "scalars.mul_calls", "scalars.mul_term_pairs", "mq2.mono_mul_calls",
        "mq2.word_cache_hits", "mq2.word_cache_misses",
        "mq2.absorb_cache_hits", "mq2.absorb_cache_misses", "cli.bytes_out"),
    "reduce-stream": (
        "scalars.mul_calls", "scalars.mul_term_pairs",
        "algebra.mono_mul_calls", "algebra.element_mul_calls",
        "matrices.ut_mul_calls", "matrices.inverse_calls",
        "mq2.mono_mul_calls", "mq2.word_cache_hits", "mq2.word_cache_misses",
        "mq2.absorb_cache_misses", "grammar.parse_calls", "grammar.tokens",
        "cli.bytes_out"),
}

# per-layer metric -> (unit, tracer key, field); fields are calls, self_s
# and count of a Tracer key, or hits, misses and size of a cache
LAYER_SOURCES = {
    "scalars.mul_calls": ("count", "scalars.mul", "calls"),
    "scalars.mul_term_pairs": ("count", "scalars.mul", "count"),
    "scalars.mul_self_s": ("s", "scalars.mul", "self_s"),
    "algebra.mono_mul_calls": ("count", "algebra.mono_mul", "calls"),
    "algebra.mono_mul_self_s": ("s", "algebra.mono_mul", "self_s"),
    "algebra.element_mul_calls": ("count", "algebra.element_mul", "calls"),
    "algebra.element_mul_self_s": ("s", "algebra.element_mul", "self_s"),
    "matrices.ut_mul_calls": ("count", "matrices.ut_mul", "calls"),
    "matrices.ut_mul_self_s": ("s", "matrices.ut_mul", "self_s"),
    "matrices.inverse_calls": ("count", "matrices.inverse", "calls"),
    "pairs.make_product_pair_calls": ("count", "pairs.make_product_pair",
                                      "calls"),
    "pairs.check_self_s": ("s", "pairs.check", "self_s"),
    "modular.apply_word_calls": ("count", "modular.apply_word", "calls"),
    "modular.apply_word_self_s": ("s", "modular.apply_word", "self_s"),
    "mq2.mono_mul_calls": ("count", "mq2.mono_mul", "calls"),
    "mq2.mono_mul_self_s": ("s", "mq2.mono_mul", "self_s"),
    "mq2.qg_mul_self_s": ("s", "mq2.qg_mul", "self_s"),
    "mq2.word_cache_hits": ("count", "mq2.word_cache", "hits"),
    "mq2.word_cache_misses": ("count", "mq2.word_cache", "misses"),
    "mq2.word_cache_size": ("count", "mq2.word_cache", "size"),
    "mq2.absorb_cache_hits": ("count", "mq2.absorb_cache", "hits"),
    "mq2.absorb_cache_misses": ("count", "mq2.absorb_cache", "misses"),
    "mq2.absorb_cache_size": ("count", "mq2.absorb_cache", "size"),
    "grammar.parse_calls": ("count", "grammar.parse", "calls"),
    "grammar.tokens": ("count", "grammar.tokenize", "count"),
}

PER_LAYER = {name: unit for name, (unit, _, _) in LAYER_SOURCES.items()}
PER_LAYER.update({"pairs.member_reuse_ratio": "ratio",
                  "grammar.parse_self_s": "s",
                  "cli.emit_self_s": "s", "cli.bytes_out": "bytes",
                  "trace.overhead_ratio": "ratio"})

END_TO_END = {"run_s": "s", "relations_per_s": "1/s", "call_ms_p50": "ms",
              "call_ms_p90": "ms", "peak_rss_mb": "MB", "ok_ratio": "ratio",
              "setup_s": "s"}

with open(os.path.join(BENCH_DIR, "references.json")) as _handle:
    REFERENCES = json.load(_handle)


@dataclasses.dataclass
class Child:
    """Outcome of one child process, reaped with os.wait4 by the launcher."""

    wall_s: float
    code: int
    sha256: str
    nbytes: int
    stdout: bytes
    stderr: bytes
    maxrss_kb: int
    cpu_s: float
    timed_out: bool


class Run:
    """Clock, deadline and launcher of one benchmark run."""

    def __init__(self, seconds):
        self.start = time.perf_counter()
        self.seconds = seconds
        self.setup_times = []
        self._sock, theirs = socket.socketpair(socket.AF_UNIX,
                                               socket.SOCK_SEQPACKET)
        with theirs:
            self._launcher = subprocess.Popen(
                [sys.executable, "-S", os.path.join(BENCH_DIR, "launcher.py"),
                 str(theirs.fileno())], cwd=ROOT, pass_fds=[theirs.fileno()])

    def close(self):
        self._sock.close()
        self._launcher.wait()

    def elapsed(self):
        return time.perf_counter() - self.start

    def another_pass(self, walls):
        """Start a pass if none ran yet, or if it should end by about
        --seconds: the run then lasts --seconds give or take half a pass."""
        return not walls or \
            self.elapsed() + statistics.median(walls) / 2 < self.seconds

    def timeout(self):
        return DEADLINE_S - self.elapsed()

    def _reply(self):
        message = self._sock.recv(1 << 16)
        if not message:
            raise RuntimeError("the launcher process ended")
        return marshal.loads(message)

    def child(self, argv, stdin_data=None, keep_stdout=False, timeout=None):
        """Run argv to completion; stdout is hashed as it streams in."""
        stdin_r, stdin_w = os.pipe()
        stdout_r, stdout_w = os.pipe()
        stderr_r, stderr_w = os.pipe()
        try:
            socket.send_fds(self._sock, [marshal.dumps((argv, ENV))],
                            [stdin_r, stdout_w, stderr_w])
        finally:
            for fd in (stdin_r, stdout_w, stderr_w):
                os.close(fd)
        _, pid = self._reply()
        if pid < 0:
            for fd in (stdin_w, stdout_r, stderr_r):
                os.close(fd)
            raise OSError(-pid, "cannot spawn %s" % argv[0])
        timed_out = []

        def kill():
            timed_out.append(True)
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        timer = threading.Timer(max(timeout or self.timeout(), 1.0), kill)
        timer.start()
        errors = []
        with open(stderr_r, "rb") as err_pipe, open(stdout_r, "rb") as out_pipe:
            reader = threading.Thread(
                target=lambda: errors.append(err_pipe.read()))
            reader.start()
            with open(stdin_w, "wb") as in_pipe:
                try:
                    in_pipe.write(stdin_data or b"")
                except BrokenPipeError:
                    pass
            digest = hashlib.sha256()
            kept = []
            nbytes = 0
            for chunk in iter(lambda: out_pipe.read(1 << 16), b""):
                digest.update(chunk)
                nbytes += len(chunk)
                if keep_stdout:
                    kept.append(chunk)
            _, status, maxrss_kb, cpu_s, wall_s = self._reply()
            timer.cancel()
            reader.join()
        return Child(wall_s, os.waitstatus_to_exitcode(status),
                     digest.hexdigest(), nbytes, b"".join(kept), errors[0],
                     maxrss_kb, cpu_s, bool(timed_out))


def sample_setup(run, count):
    """Time `count` fresh interpreters importing qmpairs.cli."""
    for _ in range(count):
        child = run.child(QMP[:1] + ["-c", "import qmpairs.cli"])
        if child.code != 0:
            sys.stderr.write(child.stderr.decode(errors="replace"))
            raise SystemExit("error: cannot import qmpairs.cli from %s" % SRC)
        run.setup_times.append(child.wall_s)


# ---------------------------------------------------------------- grids

def grid_order(workload, seed):
    names = list(GRIDS[workload])
    random.Random(seed).shuffle(names)
    return names


def grid_pass(names, run, traced=False):
    """One pass over the grid invocations; returns (wall_s, children)."""
    start = time.perf_counter()
    children = []
    for name in names:
        ref = REFERENCES["verify"][name]
        prefix = TRACED_QMP if traced else QMP
        children.append((name, run.child(prefix + ref["argv"])))
    return time.perf_counter() - start, children


def grid_failures(name, child, log):
    """Relations of this invocation that count as failed: none or all."""
    ref = REFERENCES["verify"][name]
    if child.timed_out:
        problem = "timed out"
    elif child.code != 0:
        problem = "exit code %d" % child.code
    elif child.sha256 != ref["sha256"]:
        problem = "stdout sha256 %s, expected %s" % (child.sha256[:16],
                                                    ref["sha256"][:16])
    else:
        return 0
    log("FAIL %s: %s" % (name, problem))
    return ref["relations"]


def grid_measure(workload, seed, run, log):
    names = grid_order(workload, seed)
    relations = sum(REFERENCES["verify"][n]["relations"] for n in names)
    walls, calls, rss = [], [], []
    attempted = failed = 0
    while run.another_pass(walls):
        wall, children = grid_pass(names, run)
        walls.append(wall)
        for name, child in children:
            calls.append(child.wall_s * 1e3)
            rss.append(child.maxrss_kb)
            attempted += REFERENCES["verify"][name]["relations"]
            failed += grid_failures(name, child, log)
            log("  %-14s %7.3f s  cpu %7.3f s  %7.1f MB" % (
                name, child.wall_s, child.cpu_s, child.maxrss_kb / 1024))
        log("pass %d: %.3f s" % (len(walls), wall))
        sample_setup(run, SETUP_PER_PASS)
    return walls, relations, calls, rss, attempted, failed


# ---------------------------------------------------------------- stream

def reduce_requests(seed):
    """The seeded request stream of one reduce-stream pass.

    Continuous exponents are stratified on a geometric scale, one draw from
    the middle of each stratum; each run of three neighbouring strata gets the families I, II
    and III in a seeded order; each background exponent 1..k_max appears
    in every pass.  So the seed moves the order, the families, the signs
    and the jitter of the requests but not the total work by much.
    """
    rng = random.Random(seed)
    count = REDUCE_PER_TEMPLATE

    def level(top, i):
        return max(1, round(top ** ((i + 0.3 + 0.4 * rng.random()) / count)))

    def families():
        out = []
        while len(out) < count:
            out += rng.sample(("I", "II", "III"), 3)
        return out

    exchange, matrix, binomial = families(), families(), families()
    out = []
    for i in range(count):
        n = level(1600, i)
        out.append({"template": "exchange", "type": exchange[i], "n": n,
                    "expr": "g2^%d * a1^%d" % (n, n)})
        n = level(400, i) * (-1 if i % 2 else 1) * rng.choice((1, -1))
        m = level(400, i) * rng.choice((1, -1))
        out.append({"template": "matrix", "type": matrix[i], "n": n, "m": m,
                    "expr": "U1^%d * U2^%d" % (n, m)})
        n = level(30, i)
        out.append({"template": "binomial", "type": binomial[i], "n": n,
                    "expr": "(a1 + s * g2)^%d" % n})
        for template, pattern, top in BACKGROUND:
            k = 1 + i % top
            out.append({"template": template, "type": "mq2", "n": k,
                        "expr": pattern.format(k=k)})
    rng.shuffle(out)
    return out


def stream_pass(requests, run, texts=False, traced=False):
    """One worker process serving the whole stream; returns (child, result)."""
    job = json.dumps({"requests": [[r["type"], r["expr"]] for r in requests],
                      "texts": texts, "trace": traced}).encode()
    child = run.child([sys.executable,
                       os.path.join(BENCH_DIR, "stream_worker.py")],
                      stdin_data=job, keep_stdout=True)
    result = None
    if child.code == 0 and not child.timed_out:
        try:
            result = json.loads(child.stdout)
        except ValueError:
            result = None
    child.stdout = b""
    return child, result


def check_stream(requests, texts, run):
    """Verdicts [ok, reason] of check_reduce.py for each request."""
    payload = [dict(request, text=text)
               for request, text in zip(requests, texts)]
    child = run.child([sys.executable,
                       os.path.join(BENCH_DIR, "check_reduce.py")],
                      stdin_data=json.dumps(payload).encode(),
                      keep_stdout=True, timeout=max(run.timeout(), 30))
    if child.code != 0:
        sys.stderr.write(child.stderr.decode(errors="replace"))
        return [[False, "checker failed"]] * len(requests)
    return json.loads(child.stdout)


def stream_failures(requests, reference, result, log):
    """Failed requests of one pass, against the checked reference digests."""
    if result is None:
        log("FAIL stream pass: worker crashed or timed out")
        return len(requests)
    failed = 0
    for i, request in enumerate(requests):
        if result["rc"][i] != 0:
            problem = "exit code %d" % result["rc"][i]
        elif reference[i] is None:
            problem = "failed its check"
        elif result["sha256"][i] != reference[i]:
            problem = "differs from the checked output of the first pass"
        else:
            continue
        failed += 1
        if failed <= 5:
            log("FAIL %s [%s]: %s" % (request["expr"], request["type"],
                                      problem))
    return failed


def checked_digests(requests, first, run, log):
    """Digests of the first pass, with None where its output failed a check."""
    verdicts = check_stream(requests, first["texts"], run)
    digests = []
    for request, digest, (ok, reason) in zip(requests, first["sha256"],
                                             verdicts):
        if not ok:
            log("FAIL %s [%s]: %s" % (request["expr"], request["type"],
                                      reason))
        digests.append(digest if ok else None)
    return digests


def stream_measure(seed, run, log):
    requests = reduce_requests(seed)
    walls, calls, rss, results = [], [], [], []
    while run.another_pass(walls):
        child, result = stream_pass(requests, run, texts=not results)
        walls.append(child.wall_s)
        rss.append(child.maxrss_kb)
        results.append(result)
        if result is not None:
            calls += result["ms"]
        log("pass %d: %.3f s  cpu %.3f s  %.1f MB" % (
            len(walls), child.wall_s, child.cpu_s, child.maxrss_kb / 1024))
        if result is None:
            break
        sample_setup(run, SETUP_PER_PASS)
    attempted = len(requests) * len(results)
    failed = len(requests) * len(results)
    if results[0] is not None:
        reference = checked_digests(requests, results[0], run, log)
        failed = sum(stream_failures(requests, reference, result, log)
                     for result in results)
    return walls, len(requests), calls, rss, attempted, failed


# ---------------------------------------------------------------- trace

def merge_traces(traces):
    """Sum per-process tracer summaries; cache sizes take the largest."""
    stats, caches, members = {}, {}, 0
    missing = set()
    for trace in traces:
        for key, value in trace["stats"].items():
            into = stats.setdefault(key, {"calls": 0, "self_s": 0.0,
                                          "count": 0})
            for field in into:
                into[field] += value[field]
        for key, value in trace["caches"].items():
            into = caches.setdefault(key, {"hits": 0, "misses": 0, "size": 0})
            into["hits"] += value["hits"]
            into["misses"] += value["misses"]
            into["size"] = max(into["size"], value["size"])
        members += trace["distinct_members"]
        missing.update(trace["missing"])
    return {"stats": stats, "caches": caches, "distinct_members": members,
            "missing": sorted(missing)}


def layer_values(merged, bytes_out):
    """Per-layer metric values of one traced pass; None if not measurable."""
    out = {}
    for name, (_, key, field) in LAYER_SOURCES.items():
        source = merged["stats"].get(key) or merged["caches"].get(key)
        out[name] = None if source is None else source[field]
    stats = merged["stats"]
    built = stats.get("pairs.make_product_pair", {}).get("count", 0)
    out["pairs.member_reuse_ratio"] = (
        merged["distinct_members"] / built if built else 0.0)
    out["grammar.parse_self_s"] = sum(
        stats.get(key, {}).get("self_s", 0.0)
        for key in ("grammar.parse", "grammar.tokenize"))
    out["cli.emit_self_s"] = stats.get("cli.emit", {}).get("self_s", 0.0)
    out["cli.bytes_out"] = bytes_out
    return out


def parse_trace(child):
    for line in child.stderr.decode(errors="replace").splitlines():
        if line.startswith("TRACE "):
            return json.loads(line[len("TRACE "):])
    return None


def traced_grid_pass(names, run):
    wall, children = grid_pass(names, run, traced=True)
    traces = [parse_trace(child) for _, child in children]
    if any(t is None for t in traces):
        return wall, None, [c.sha256 for _, c in children]
    merged = merge_traces(traces)
    values = layer_values(merged, sum(c.nbytes for _, c in children))
    return wall, (merged, values), [c.sha256 for _, c in children]


def traced_stream_pass(requests, run):
    child, result = stream_pass(requests, run, traced=True)
    if result is None:
        return child.wall_s, None, None
    merged = merge_traces([result["trace"]])
    return (child.wall_s, (merged, layer_values(merged, result["bytes_out"])),
            result["sha256"])


def trace_measure(workload, seed, run, log):
    """An untraced pass, checked, then two traced passes compared to it."""
    problems = []
    if workload in GRIDS:
        names = grid_order(workload, seed)
        base_wall, children = grid_pass(names, run)
        attempted = sum(REFERENCES["verify"][n]["relations"] for n in names)
        failed = sum(grid_failures(n, c, log) for n, c in children)
        base_digests = [c.sha256 for _, c in children]
        traced = [traced_grid_pass(names, run) for _ in range(2)]
    else:
        requests = reduce_requests(seed)
        child, first = stream_pass(requests, run, texts=True)
        base_wall = child.wall_s
        attempted = len(requests)
        failed = attempted
        base_digests = None
        if first is not None:
            reference = checked_digests(requests, first, run, log)
            failed = stream_failures(requests, reference, first, log)
            base_digests = first["sha256"]
        traced = [traced_stream_pass(requests, run) for _ in range(2)]

    for wall, layers, digests in traced:
        log("traced pass: %.3f s (untraced %.3f s)" % (wall, base_wall))
        if layers is None:
            problems.append("a traced pass produced no trace")
        if digests != base_digests:
            problems.append("traced stdout differs from untraced stdout")
    metrics = dict.fromkeys(PER_LAYER)
    metrics["trace.overhead_ratio"] = (
        statistics.mean(t[0] for t in traced) / base_wall)
    layers = [t[1] for t in traced if t[1] is not None]
    if len(layers) == 2:
        (merged, a), (_, b) = layers
        for name, value in a.items():
            if not name.endswith("_self_s"):
                metrics[name] = value
                if value != b[name]:
                    problems.append("%s differs between traced runs: %s != %s"
                                    % (name, value, b[name]))
            elif value is not None:
                metrics[name] = (value + b[name]) / 2
        missing = set(merged["missing"])
        if missing:
            log("targets not in this code: %s" % ", ".join(sorted(missing)))
        for name in NONZERO[workload]:
            key = LAYER_SOURCES.get(name, (None, None))[1]
            if not metrics[name] and not (key and _targets(key) <= missing):
                problems.append("%s is zero on %s" % (name, workload))
    for problem in problems:
        log("TRACE CHECK FAILED: %s" % problem)
    return metrics, attempted, failed, problems


def _targets(key):
    """The "module:path" tracer targets that feed a tracer key."""
    return ({"%s:%s" % (m, p) for k, m, p, _ in TARGETS if k == key}
            | {"%s:%s" % (m, p) for k, m, p in CACHES if k == key})


# ---------------------------------------------------------------- report

def percentile(values, pct):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def environment():
    """Where the numbers came from: code, interpreter and machine."""
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    package = os.path.join(SRC, "qmpairs")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                src.update(name.encode() + b"\0" + handle.read())
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"git_sha": sha, "src_sha256": src.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qmpairs", "cli.py")):
        raise SystemExit("error: no qmpairs sources under %s" % SRC)

    def log(line):
        print(line, flush=True)

    run = Run(args.seconds)
    try:
        sample_setup(run, SETUP_FIRST)
        print(json.dumps({"workload": args.workload, "seed": args.seed,
                          "seconds": args.seconds, "trace": args.trace,
                          "environment": environment()}), flush=True)
        if args.trace:
            result = per_layer(args, run, log)
        else:
            result = end_to_end(args, run, log)
    finally:
        run.close()
    correct, attempted, failed, metrics = result
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def end_to_end(args, run, log):
    if args.workload in GRIDS:
        walls, per_pass, calls, rss, attempted, failed = grid_measure(
            args.workload, args.seed, run, log)
    else:
        walls, per_pass, calls, rss, attempted, failed = stream_measure(
            args.seed, run, log)
    run_s = statistics.median(walls)
    values = {
        "run_s": run_s,
        "relations_per_s": per_pass / run_s,
        "call_ms_p50": statistics.median(calls),
        "call_ms_p90": percentile(calls, 90),
        "peak_rss_mb": max(rss) / 1024,
        "ok_ratio": (attempted - failed) / attempted,
        "setup_s": statistics.median(run.setup_times),
    }
    log("%d passes, %d calls, %d setup samples, %d attempted, %d failed, "
        "fail_ratio %.6f" % (len(walls), len(calls), len(run.setup_times),
                             attempted, failed, failed / attempted))
    for name, value in values.items():
        log("%-16s %14.6f %s" % (name, value, END_TO_END[name]))
    metrics = {name: {"value": value, "unit": END_TO_END[name]}
               for name, value in values.items()}
    return failed == 0, attempted, failed, metrics


def per_layer(args, run, log):
    values, attempted, failed, problems = trace_measure(
        args.workload, args.seed, run, log)
    for name, value in sorted(values.items()):
        log("%-32s %16s %s" % (name, value, PER_LAYER[name]))
    metrics = {name: {"value": value or 0, "unit": PER_LAYER[name]}
               for name, value in sorted(values.items())}
    return failed == 0 and not problems, attempted, failed, metrics


if __name__ == "__main__":
    sys.exit(main())
