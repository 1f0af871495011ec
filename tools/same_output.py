"""Check that two source trees print the same bytes on the benchmark ops.

    python3 tools/same_output.py --parent DIR --change DIR

DIR is a source checkout holding src/, tests/ and perfbench/ (a `git
archive` of each commit works).  For each tree, one subprocess builds
every op of the perfbench workloads cover-growth, map-analysis and
half-sync at seeds 500-509 with that tree's perfbench/workloads.py,
runs each op as an in-process CLI call, `shiftlab.cli.main(argv)`, and
then runs `corpus run-all` once more.  Each op is hashed over its argv,
exit code, stdout and stderr; an op that raises is hashed as a crash
with its exception.  Each tree writes its inputs under its own
temporary directory, which is also the subprocess's working directory,
so the argv paths are relative and the same for both trees.

Prints one sha256 per tree, over all its op hashes in order, and the
first op whose hash differs.  Exits 0 when the trees agree, 1 when they
differ and 2 when a tree cannot be run.  Stdlib only.
"""

import argparse
import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("cover-growth", "map-analysis", "half-sync")
SEEDS = range(500, 510)

# Run in the tree's subprocess: argv[1] is the tree, the working
# directory is a fresh temporary directory.  One JSON line per op.
CHILD = r"""
import contextlib, hashlib, io, json, sys
from pathlib import Path

tree = Path(sys.argv[1]).resolve()
sys.path[:0] = [str(tree / "src"), str(tree / "tests"), str(tree / "perfbench")]
import shiftlab.cli as cli
import workloads

if Path(cli.__file__).resolve().parent != tree / "src" / "shiftlab":
    sys.exit(f"shiftlab imported from {cli.__file__}, not {tree / 'src'}")

def run(label, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as e:  # argparse rejects the arguments
            code = e.code
        except Exception as e:
            code = f"crash {type(e).__name__}: {e}"
    record = json.dumps([list(argv), code, out.getvalue(), err.getvalue()])
    print(json.dumps([label, hashlib.sha256(record.encode()).hexdigest()]))

for name in sys.argv[2].split(","):
    for seed in map(int, sys.argv[3].split(",")):
        ops = workloads.WORKLOADS[name](workloads.Files(f"{name}-{seed}"), seed)
        for i, op in enumerate(ops):
            run(f"{name} seed {seed} op {i}: {' '.join(op.argv)}", op.argv)
run("corpus run-all", ("corpus", "run-all"))
"""


def op_hashes(tree):
    """[(label, sha256)] of every op on the tree, in order."""
    with tempfile.TemporaryDirectory(prefix="same-output-") as work:
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, str(tree), ",".join(WORKLOADS), ",".join(map(str, SEEDS))],
            cwd=work, capture_output=True, text=True,
        )
    if proc.returncode != 0:
        print(f"error: {tree} exited {proc.returncode}:\n{proc.stderr}", file=sys.stderr)
        sys.exit(2)
    return [tuple(json.loads(line)) for line in proc.stdout.splitlines()]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    args = ap.parse_args(argv)
    runs = {side: op_hashes(Path(tree)) for side, tree in (("parent", args.parent), ("change", args.change))}
    for side, ops in runs.items():
        digest = hashlib.sha256("".join(h for _, h in ops).encode()).hexdigest()
        print(f"{side} {digest} ({len(ops)} ops)")
    parent, change = runs["parent"], runs["change"]
    for i, (p, c) in enumerate(zip(parent, change)):
        if p != c:
            print(f"first difference at op {i}: {p[0]}" + ("" if p[0] == c[0] else f" (change: {c[0]})"))
            return 1
    if len(parent) != len(change):
        print(f"op counts differ: parent {len(parent)}, change {len(change)}")
        return 1
    print("same output")
    return 0


if __name__ == "__main__":
    sys.exit(main())
