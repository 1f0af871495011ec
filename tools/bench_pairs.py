"""Interleaved parent/change benchmark runs, summarized as one BENCH file.

    python3 tools/bench_pairs.py --parent DIR --change DIR --out BENCH_N.json
        [--workloads a,b] [--pairs 10] [--seconds 35] [--seed 500]

DIR is a source checkout holding perfbench/run.py (a `git archive` of
each commit works).  For every workload the script runs
`perfbench/run.py --trace 0` on the two trees in alternation, pair i
with seed + i and with the tree that goes first alternating between
pairs, so a slow drift of the host hits both sides alike.  Then it runs
one `--trace 1` pass per tree at the first seed for the per-layer
counters.  The output holds, per workload and end-to-end metric, each
side's values, median and quartiles, and the number of pairs the change
won; per layer, the traced metrics of both trees; and per tree, what
code was measured: the commit `git rev-parse HEAD` names when DIR is
the top of a git checkout (else null) and a sha256 over its src/ files.
For each workload and end-to-end metric it also prints one line to
stderr: the parent's median, the change's median and the pairs the
change won.  Stdlib only.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path


def run(tree, workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def provenance(tree):
    """The commit a tree is checked out at, or None when it is not the
    top of a git checkout, and a sha256 over its src/ files: each
    file's path and bytes in sorted path order, caches left out."""
    root = Path(tree).resolve()
    commit = None
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                             capture_output=True, text=True)
    except OSError:  # no git on this host
        git = None
    if git is not None and git.returncode == 0:
        top, head = git.stdout.splitlines()
        commit = head if Path(top).resolve() == root else None
    digest = hashlib.sha256()
    for path in sorted(p for p in (root / "src").rglob("*")
                       if p.is_file() and "__pycache__" not in p.parts):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "median": median, "q1": q1, "q3": q3}


def compare(parent_runs, change_runs, better):
    out = {}
    for name, direction in better.items():
        p = [r["metrics"][name]["value"] for r in parent_runs]
        c = [r["metrics"][name]["value"] for r in change_runs]
        wins = sum((b < a) if direction == "lower" else (b > a) for a, b in zip(p, c))
        ps, cs = summary(p), summary(c)
        out[name] = {"better": direction, "parent": ps, "change": cs, "change_wins": wins,
                     "median_ratio": cs["median"] / ps["median"] if ps["median"] else None}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--workloads")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--seed", type=int, default=500)
    args = ap.parse_args(argv)
    spec = json.loads((Path(args.change) / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    trees = {"parent": args.parent, "change": args.change}
    report = {
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, {platform.python_implementation()} "
                   f"{platform.python_version()}",
        "pairs": args.pairs, "seconds": args.seconds, "seeds": [args.seed, args.seed + args.pairs - 1],
        "trees": {side: provenance(tree) for side, tree in trees.items()},
        "workloads": {},
    }
    for name in names:
        runs = {"parent": [], "change": []}
        start = time.time()
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run(trees[side], name, args.seed + i, args.seconds, 0))
        traced = {side: run(tree, name, args.seed, args.seconds, 1) for side, tree in trees.items()}
        report["workloads"][name] = {
            "end_to_end": compare(runs["parent"], runs["change"], better),
            "correct": {side: all(r["correct"] for r in rs) for side, rs in runs.items()},
            "failed_share": {side: sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
                             for side, rs in runs.items()},
            "per_layer": {side: {k: v["value"] for k, v in r["metrics"].items()} for side, r in traced.items()},
        }
        print(f"{name}: {time.time() - start:.0f} s", file=sys.stderr)
        for metric, row in report["workloads"][name]["end_to_end"].items():
            print(f"  {name} {metric}: {row['parent']['median']:.4g} -> {row['change']['median']:.4g}, "
                  f"change won {row['change_wins']} of {args.pairs} pairs", file=sys.stderr)
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
