"""shiftlab benchmark: CLI-verb latency on seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The workload's inputs are made
from the seed and written under perfbench/out/.  One client in one
process and one thread issues each operation as a CLI verb,
shiftlab.cli.main(argv), in process with stdout captured, in a closed
loop of whole rounds until S seconds have passed and at least
MIN_TIMED_OPS operations passed their checks.  Every output is checked
against perfbench/checks.py the first time it is seen and must repeat
byte for byte after that.

--trace 0 prints the end-to-end metrics; --trace 1 runs untraced rounds
for half the time, then traced rounds, and prints the per-layer metrics
of perfbench/layertrace.py.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5
MIN_TIMED_OPS = 100
# cheap verbs run once per set-up, after the inputs are written
WARMUP = (
    ("lang", "count", "golden.graph", "--max-len", "6"),
    ("cover", "fischer", "even4.graph"),
    ("sync", "half", "dyck2.oracle", "()", "--horizon", "4"),
    ("map", "degree", "evenmap.code"),
    ("check", "t42", "evenmap.code"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def call(cli, argv):
    """One CLI verb in process: (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as e:  # argparse rejects the arguments
            code = e.code
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


class Loop:
    """Closed loop over whole rounds, with first-seen output checks."""

    def __init__(self, cli, ops, checks, tracer=None):
        self.cli, self.ops, self.checks = cli, ops, checks
        self.tracer = tracer
        self.seen = {}  # op index -> (accepted, exit code, stdout, stderr)
        self.correct = True
        self.attempted = self.failed = 0

    def round(self, latencies):
        """Run every op once; returns seconds spent inside the program."""
        gc.collect()
        busy = 0.0
        for i, op in enumerate(self.ops):
            if self.tracer is not None:
                self.tracer.op = self.attempted + 1
            try:
                code, out, err, dt = call(self.cli, op.argv)
            except Exception as e:  # a crash is a failed op, not a failed run
                code, out, err, dt = "crash", "", f"{type(e).__name__}: {e}", 0.0
            busy += dt
            self.attempted += 1
            if self.accept(i, op, code, out, err):
                latencies.append(dt)
            else:
                self.failed += 1
        return busy

    def accept(self, i, op, code, out, err):
        got = (code, out, err)
        if i in self.seen:
            ok, *first = self.seen[i]
            if tuple(first) == got:
                return ok
            reason = "output differs from the first run of the same op"
        else:
            try:
                op.check(code, out, err)
                self.seen[i] = (True, *got)
                return True
            except self.checks.CheckError as e:
                reason = str(e)
            self.seen[i] = (False, *got)
        if not op.fault:
            self.correct = False
            print(f"check failed: {' '.join(op.argv)}: {reason}", file=sys.stderr)
        return False

    def run(self, seconds):
        """Whole rounds until `seconds` passed and enough ops were timed."""
        latencies, busy, rounds = [], 0.0, 0
        start = time.perf_counter()
        while rounds == 0 or time.perf_counter() - start < seconds or len(latencies) < MIN_TIMED_OPS:
            busy += self.round(latencies)
            rounds += 1
        return latencies, busy, rounds


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None):
    args = parse_args(argv)
    src, tests = ROOT / "src", ROOT / "tests"
    if not (src / "shiftlab" / "cli.py").is_file() or not (tests / "brute.py").is_file():
        print(f"error: no shiftlab sources under {ROOT}", file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    sys.path[:0] = [str(src), str(tests), str(HERE)]
    import shiftlab.acceptance  # noqa: F401  (imported lazily by `corpus run-all`)
    import shiftlab.cli as cli

    import checks
    import workloads

    import_s = time.perf_counter() - t0
    if Path(cli.__file__).resolve().parent != src / "shiftlab":
        print(f"error: shiftlab imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    build = workloads.WORKLOADS.get(args.workload)
    if build is None:
        print(f"error: unknown workload {args.workload}; one of {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    files = workloads.Files(str(OUT / f"work-{os.getpid()}"))
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        ops = build(files, args.seed)
        for argv in WARMUP:
            code, _, err, _ = call(cli, argv)
            if code != 0:
                print(f"error: warm-up {' '.join(argv)} exited {code}: {err}", file=sys.stderr)
                return 2
        setups.append(time.perf_counter() - start)

    try:
        if args.trace:
            result = traced_run(cli, ops, checks, args)
        else:
            result = plain_run(cli, ops, checks, args, import_s + statistics.median(setups))
    finally:
        for name in os.listdir(files.root):
            os.remove(os.path.join(files.root, name))
        os.rmdir(files.root)
    print(json.dumps(result))
    return 0


def plain_run(cli, ops, checks, args, setup_s):
    loop = Loop(cli, ops, checks)
    lat, busy, rounds = loop.run(args.seconds)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(lat) / busy, "1/s"),
        "op_p50_ms": (1000 * statistics.median(lat), "ms"),
        "op_p90_ms": (1000 * quantile(lat, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"{args.workload} seed {args.seed}: {rounds} rounds of {len(ops)} ops, "
          f"{loop.attempted} attempted, {loop.failed} failed", file=sys.stderr)
    return result(loop, metrics)


def traced_run(cli, ops, checks, args):
    import layertrace

    loop = Loop(cli, ops, checks)
    lat, busy, _ = loop.run(args.seconds / 2)
    untraced = len(lat) / busy
    tracer = layertrace.Tracer()
    tracer.install()
    loop.tracer = tracer
    try:
        lat, busy, rounds = [], 0.0, 0
        start = time.perf_counter()
        while rounds == 0 or time.perf_counter() - start < args.seconds / 2:
            busy += loop.round(lat)
            rounds += 1
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(rounds)
    metrics["trace.ops_per_s_delta"] = (len(lat) / busy - untraced, "1/s")
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"trace-{args.workload}.jsonl", "w", encoding="utf-8") as f:
        f.write(json.dumps({"workload": args.workload, "seed": args.seed, "rounds": rounds,
                            "spans_kept": len(tracer.spans), "spans_dropped": tracer.dropped}) + "\n")
        for span_id, parent, op, name, start_t, end_t in tracer.spans:
            f.write(json.dumps({"id": span_id, "parent": parent, "op": op, "name": name,
                                "start": start_t, "end": end_t}) + "\n")
    return result(loop, metrics)


def result(loop, metrics):
    return {
        "correct": loop.correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
