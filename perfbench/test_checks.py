"""Each output check accepts the program's real answer and rejects a
deliberately corrupted one.

    python3 perfbench/test_checks.py     (or: python3 -m pytest perfbench)
"""

import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE.parent / "tests"), str(HERE)]

import checks  # noqa: E402
import shiftlab.cli as cli  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError, Code, Graph  # noqa: E402
from run import call  # noqa: E402

CORPUS = HERE.parent / "src" / "shiftlab" / "corpus"


def graph(name):
    return Graph.parse((CORPUS / (name + ".graph")).read_text())


def code(name):
    """A bundled code file, read by the benchmark's own parser."""
    lines = [l.split("#", 1)[0].split() for l in (CORPUS / (name + ".code")).read_text().splitlines()]
    lines = [l for l in lines if l]
    head = next(l for l in lines if l[0] == "code")
    dom, cod = (graph(next(l[1] for l in lines if l[0] == kw)[: -len(".graph")]) for kw in ("domain", "codomain"))
    return Code(int(head[2]), int(head[4]), {tuple(l[1]): l[2] for l in lines if l[0] == "map"}, dom, cod)


def verb(*argv):
    exit_code, out, err, _ = call(cli, argv)
    return exit_code, out, err


class ChecksRejectCorruptOutput(unittest.TestCase):
    def assertRejects(self, fn, *args, **kwargs):
        with self.assertRaises(CheckError):
            fn(*args, **kwargs)

    def test_fischer_cover(self):
        g = graph("even4")
        x, out, _ = verb("cover", "fischer", "even4.graph")
        checks.check_fischer(g, out, x)
        relabeled = out.replace("{A,B} {A,B} 1", "{A,B} {A,B} 0")
        self.assertNotEqual(relabeled, out)
        self.assertRejects(checks.check_fischer, g, relabeled, x)
        # a redundant copy of a vertex is not follower-separated
        f = Graph.parse(out)
        copy = Graph(f.alphabet, f.vertices + ("Z",),
                     f.edges + [("Z", d, a) for s, d, a in f.edges if s == f.vertices[0]]
                     + [(s, "Z", a) for s, d, a in f.edges if d == f.vertices[0] and s != f.vertices[0]])
        self.assertRejects(checks.check_fischer, g, copy.text(), x)

    def test_subset_cover_language(self):
        g = graph("goldennd")
        x, out, _ = verb("cover", "subset", "goldennd.graph")
        checks.check_subset(g, out, x)
        extra = out + "edge " + " ".join(2 * [Graph.parse(out).vertices[0]]) + " 1\n"
        self.assertRejects(checks.check_subset, g, extra, x)

    def test_lang_count(self):
        g = graph("golden")
        x, out, _ = verb("lang", "count", "golden.graph", "--max-len", "6")
        checks.check_lang_count(g, out, x, 6)
        self.assertRejects(checks.check_lang_count, g, out.replace("count 6 21", "count 6 22"), x, 6)

    def test_sync_find_and_check(self):
        g = graph("even")
        x, out, _ = verb("sync", "find", "even.graph")
        self.assertEqual(checks.check_sync_find(g, out, x), ("1",))
        self.assertRejects(checks.check_sync_find, g, "synchronizing-word 0\n", x)
        x, out, _ = verb("sync", "check", "even.graph", "0")
        checks.check_sync_check(g, out, x, ("0",))
        self.assertRejects(checks.check_sync_check, g, "status synchronizing\n", x, ("0",))
        self.assertRejects(checks.check_sync_check, g, "status not-synchronizing\nwitness 0 0\n", x, ("0",))

    def test_degree(self):
        c = workloads.xor_code(3)
        out = "finite-to-one yes\ndegree 4\nmagic-word 0\nexact no\nexactness-bound 26\n"
        checks.check_degree(c, out, 2, known=4, word_bound=8)
        self.assertRejects(checks.check_degree, c, out.replace("degree 4", "degree 5"), 2, known=4)
        self.assertRejects(checks.check_degree, c, out.replace("degree 4", "degree 3"), 2)
        self.assertRejects(checks.check_degree, c, out, 0, known=4)  # exit 0 with exact no

    def test_hyperbolic_blocks(self):
        c = code("xor")
        x, out, _ = verb("map", "hyperbolic", "xor.code")
        checks.check_hyperbolic(c, out, x, known_d=2)
        self.assertRejects(checks.check_hyperbolic, c, out.replace(" 11", ""), x)
        self.assertRejects(checks.check_hyperbolic, c, out, x, known_d=1)

    def test_code_image_and_compose(self):
        c = code("evenmap")
        x, out, _ = verb("code", "image", "evenmap.code")
        checks.check_code_image(c, out, x)
        v = Graph.parse(out).vertices
        self.assertRejects(checks.check_code_image, c, out + f"edge {v[-1]} {v[-1]} 1\n", x)
        xc = code("xor")
        x, out, _ = verb("code", "compose", "xor.code", "xor.code")
        checks.check_compose(xc, xc, out, x)
        self.assertRejects(checks.check_compose, xc, xc, out.replace("map 000 0", "map 000 1"), x)

    def test_fiber_counts(self):
        xc = code("xor")
        x, out, _ = verb("fiber", "build", "xor.code", "xor.code")
        checks.check_fiber(xc, xc, out, x)
        self.assertRejects(checks.check_fiber, xc, xc, out.replace("fiber edges 8", "fiber edges 7"), x)

    def test_decoder(self):
        c = code("evenmap")
        x, out, _ = verb("map", "decoder", "evenmap.code", "--max-len", "4")
        checks.check_decoder(c, out, x, "1", max_len=4)
        # "0" is followed by either preimage letter, so it decodes nothing
        self.assertRejects(checks.check_decoder, c, "decoder-block 0 anticipation 0\n", 0)

    def test_theorem_checks(self):
        c = code("evenmap")
        x, out, _ = verb("check", "t33", "evenmap.code")
        checks.check_t33(c, out, x, "agree-positive", 1)
        self.assertRejects(checks.check_t33, c, out.replace("agree-positive", "disagree"), 3)
        self.assertRejects(checks.check_t33, c, out.replace("agree-positive", "inconclusive"), 0)
        x, out, _ = verb("check", "t42", "xor.code")
        checks.check_t42(code("xor"), out, x, "agree-negative", 2)
        self.assertRejects(checks.check_t42, code("xor"), out.replace("degree 2", "degree 1"), x, None, 2)

    def test_half_sync_prefixes(self):
        gens = ["0", "10", "110"]
        adm = checks.concatenation_factor(gens)
        oracle = workloads.Files(str(HERE / "out" / "test-oracles"))
        path = oracle.write("codes.oracle", "oracle codelist " + " ".join(gens) + "\n")
        x, out, _ = verb("sync", "half", path, "0", "--horizon", "4")
        checks.check_half(out, x, ("0",), 4, adm, exact=False)
        prefix = checks.row(out, "prefix")[0]
        self.assertRejects(checks.check_half, out.replace(prefix, prefix[:-1] + "1"), x, ("0",), 4, adm)
        self.assertFalse(adm(tuple("111")))
        dyck = lambda w: checks.brute.dyck_admissible((("(", ")"), ("[", "]")), w)
        bad = "status holds-at-horizon\nblock ()\nhorizon 6\nprefix-length 4\nprefix (]()\nexact yes\n"
        self.assertRejects(checks.check_half, bad, 0, ("(", ")"), 6, dyck, exact=True)
        refuted = "status refuted\nblock ()\nhorizon 6\nrefutation (]\nexact no\n"
        self.assertRejects(checks.check_half, refuted, 0, ("(", ")"), 6, dyck)

    def test_codomain_error_and_run_all(self):
        self.assertRejects(checks.check_codomain_error, "alphabet 0 1\n", "", 0)
        checks.check_codomain_error("", "error: image block 100001 is not admissible in the codomain", 1)
        rows = "".join(f"criterion {i} pass c{i}\n" for i in range(1, 11)) + "all-pass yes\n"
        checks.check_run_all(rows, 0)
        self.assertRejects(checks.check_run_all, rows.replace("criterion 4 pass", "criterion 4 fail"), 0)


if __name__ == "__main__":
    unittest.main()
