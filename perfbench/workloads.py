"""Seeded inputs and the operations of one round, per workload.

Each workload function writes its input files under a work directory and
returns one round: the fixed list of CLI invocations the benchmark
repeats, each with the check its output must pass.  The same seed
gives the same files and the same list; the number of operations in a
round never depends on the seed.
"""

import itertools
import os
import random
from dataclasses import dataclass
from typing import Callable

import brute
import checks
from checks import Code, Graph, fmt


@dataclass(frozen=True)
class Op:
    argv: tuple
    check: Callable  # (exit code, stdout, stderr) -> None, raises CheckError
    fault: bool = False  # expected to fail until a named program fault is mended


class Files:
    def __init__(self, root):
        self.root = root
        os.makedirs(root, exist_ok=True)

    def write(self, name, text):
        path = os.path.join(self.root, name)
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        return path


def code_text(c, domain_file, codomain_file, comment):
    lines = [f"# {comment}", f"code memory {c.memory} anticipation {c.anticipation}",
             f"domain {domain_file}", f"codomain {codomain_file}"]
    lines += [f"map {fmt(w)} {out}" for w, out in sorted(c.window_map.items())]
    return "\n".join(lines) + "\n"


def admissible_block(rng, g, length):
    return rng.choice(sorted(brute.path_words(g, length)))


# -- cover-growth --------------------------------------------------------------


def ring_graph(n, rng):
    """The ring generator: 0-edges i -> i+1 around a ring, plus a 1-edge
    from each vertex to a random target with probability 0.8."""
    edges = [(f"v{i}", f"v{(i + 1) % n}", "0") for i in range(n)]
    edges += [(f"v{i}", f"v{rng.randrange(n)}", "1") for i in range(n) if rng.random() < 0.8]
    return Graph(("0", "1"), [f"v{i}" for i in range(n)], edges)


def out_split(g, rng):
    """State splitting that partitions out-edges and copies in-edges:
    the same shift, presented without right-resolving."""
    split = [v for v in g.vertices if len(g.out_edges(v)) == 2 and rng.random() < 0.5]
    split = split or [next(v for v in g.vertices if len(g.out_edges(v)) == 2)]
    copies = {v: ([v + "a", v + "b"] if v in split else [v]) for v in g.vertices}
    edges = []
    for s, d, a in g.edges:
        src = copies[s][0] if (s not in split or a == "0") else copies[s][1]
        edges += [(src, t, a) for t in copies[d]]
    return Graph(g.alphabet, [c for v in g.vertices for c in copies[v]], edges)


def subset_states(g, cap):
    """States of the subset DFA reached from the full vertex set (vertex
    sets as bitmasks) and its transitions, or (None, _) past `cap` states."""
    index = {v: i for i, v in enumerate(g.vertices)}
    succ = {a: [0] * len(index) for a in g.alphabet}
    for s, d, a in g.edges:
        succ[a][index[s]] |= 1 << index[d]
    start = (1 << len(index)) - 1
    order, trans, seen = [start], {}, {start}
    for s in order:
        for a in g.alphabet:
            t, m = 0, s
            while m:
                low = m & -m
                t |= succ[a][low.bit_length() - 1]
                m ^= low
            if t:
                trans[(s, a)] = t
                if t not in seen:
                    if len(order) == cap:
                        return None, trans
                    seen.add(t)
                    order.append(t)
    return order, trans


def sync_search_vectors(order, trans, alphabet, cap):
    """Vectors a breadth-first synchronizing-word search over the subset
    DFA visits before one word focuses every state, or None past `cap`."""
    start = tuple(order)
    seen, layer = {start}, [start]
    while layer:
        nxt = []
        for vec in layer:
            for a in alphabet:
                new = tuple(None if s is None else trans.get((s, a)) for s in vec)
                live = {s for s in new if s is not None}
                if len(live) == 1:
                    return len(seen)
                if live and new not in seen:
                    seen.add(new)
                    nxt.append(new)
                    if len(seen) > cap:
                        return None
        layer = nxt
    return None


# (ring size, target subset-DFA states) of the seeded slots.  Op cost
# follows the subset-DFA size, so each slot keeps, of a fixed number of
# seeded candidates, the one whose size is nearest the target; set-up
# and round cost stay nearly seed-independent.
COVER_SLOTS = ((6, 30), (8, 60), (10, 150), (11, 300), (12, 500))
CANDIDATES = 40
COVER_SYNC_VECTORS = 100  # search depth cap; deeper inputs are the reference rings' job
# The top of the range is fixed: the ROADMAP's reference rings, drawn
# with random.Random(n), at n = 16 and 18 (about 2000 and 3400 subset
# states), and `cover fischer` on n = 17 (7800 states), the cliff.
REFERENCE_SIZES = (16, 18)
CLIFF_SIZE = 17


def draw_ring(n, target, rng):
    scored = []
    while True:
        for _ in range(CANDIDATES):
            g = ring_graph(n, rng)
            order, trans = subset_states(g, target + target // 4)
            if order is not None:
                scored.append((abs(len(order) - target), len(scored), g, order, trans))
        scored.sort(key=lambda t: t[:2])
        for _, _, g, order, trans in scored:
            if sync_search_vectors(order, trans, g.alphabet, COVER_SYNC_VECTORS) is not None:
                return g


def cover_ops(path, g, rng):
    ops = [
        Op(("cover", "fischer", path), lambda c, o, e, g=g: checks.check_fischer(g, o, c)),
        Op(("cover", "subset", path), lambda c, o, e, g=g: checks.check_subset(g, o, c)),
        Op(("sync", "find", path), lambda c, o, e, g=g: checks.check_sync_find(g, o, c)),
    ]
    v = admissible_block(rng, g, rng.choice((1, 2)))
    ops.append(Op(("sync", "check", path, fmt(v)),
                  lambda c, o, e, g=g, v=v: checks.check_sync_check(g, o, c, v)))
    m = admissible_block(rng, g, rng.choice((1, 2)))
    ops.append(Op(("sync", "half", path, fmt(m), "--horizon", "4"),
                  lambda c, o, e, g=g, m=m: checks.check_half(
                      o, c, m, 4, lambda w: brute.reads(g, w), exact=None)))
    if checks.is_right_resolving(g):
        ops.append(Op(("lang", "count", path, "--max-len", "8"),
                      lambda c, o, e, g=g: checks.check_lang_count(g, o, c, 8)))
    else:
        ops.append(Op(("cover", "resolving", path), lambda c, o, e, g=g: checks.check_subset(g, o, c)))
    return ops


def cover_growth(files, seed):
    rng = random.Random(seed)
    rings = [(str(n), draw_ring(n, target, rng), rng) for n, target in COVER_SLOTS]
    rings += [(f"{n}-ref", ring_graph(n, random.Random(n)), random.Random(n)) for n in REFERENCE_SIZES]
    ops = []
    for name, g, r in rings:
        s = out_split(g, r)
        ops += cover_ops(files.write(f"ring{name}.graph", g.text(f"ring {name}")), g, r)
        ops += cover_ops(files.write(f"split{name}.graph", s.text(f"out-split of ring {name}")), s, r)
    cliff = ring_graph(CLIFF_SIZE, random.Random(CLIFF_SIZE))
    path = files.write("cliff.graph", cliff.text(f"ring n={CLIFF_SIZE}, Random({CLIFF_SIZE})"))
    ops.append(Op(("cover", "fischer", path), lambda c, o, e: checks.check_fischer(cliff, o, c)))
    return ops


# -- map-analysis --------------------------------------------------------------

FULL2 = Graph(("0", "1"), ["A"], [("A", "A", "0"), ("A", "A", "1")])


def xor_code(k):
    wm = {w: str(sum(map(int, w)) % 2) for w in itertools.product("01", repeat=k)}
    return Code(0, k - 1, wm, FULL2, FULL2)


def gap_graph(gap):
    """1s separated by at least `gap` 0s."""
    vs = [f"z{i}" for i in range(gap + 1)]
    edges = [(vs[i], vs[i + 1], "0") for i in range(gap)] + [(vs[gap], vs[gap], "0"), (vs[gap], vs[0], "1")]
    return Graph(("0", "1"), vs, edges)


def random_abc_graph(rng, n):
    """Irreducible right-resolving graph over a b c: a ring of a-edges
    plus random b- and c-edges."""
    edges = [(f"q{i}", f"q{(i + 1) % n}", "a") for i in range(n)]
    for i in range(n):
        for lab in "bc":
            if rng.random() < 0.6:
                edges.append((f"q{i}", f"q{rng.randrange(n)}", lab))
    return Graph(tuple("abc"), [f"q{i}" for i in range(n)], edges)


def finite_to_one(g, phi):
    """No two distinct paths with equal images share both endpoints:
    no pair-graph path leaves the diagonal and comes back to it."""
    steps = {}
    for s, d, a in g.edges:
        steps.setdefault(s, []).append((a, d))
    frontier = [(r, t) for v in g.vertices for a1, r in steps.get(v, ()) for a2, t in steps.get(v, ())
                if a1 != a2 and phi[a1] == phi[a2]]
    seen = set(frontier)
    while frontier:
        p, q = frontier.pop()
        if p == q:
            return False
        for a1, r in steps.get(p, ()):
            for a2, t in steps.get(q, ()):
                if phi[a1] == phi[a2] and (r, t) not in seen:
                    seen.add((r, t))
                    frontier.append((r, t))
    return True


def collapse_map(rng):
    while True:
        g = random_abc_graph(rng, 4)
        merged = rng.sample("abc", 2)
        phi = {a: ("0" if a in merged else "1") for a in "abc"}
        if finite_to_one(g, phi):
            cod = checks.trim(Graph(("0", "1"), g.vertices, [(s, d, phi[a]) for s, d, a in g.edges]))
            used = {a for _, _, a in g.edges}
            return Code(0, 0, {(a,): phi[a] for a in used}, g, cod), g, cod


def higher_block_map(rng):
    g = random_abc_graph(rng, 3)
    wm = {w: w[0] for w in brute.path_words(g, 2)}
    return Code(0, 1, wm, g, g), g


def map_ops(path, c, known, word_bound, fiber=True, compose=True, t33=True, onetoone=False):
    """All map verbs on one code; `known` holds theory's answers."""
    wb = ("--word-bound", str(word_bound)) if word_bound else ()
    ops = [
        Op(("map", "degree", path) + wb,
           lambda x, o, e: checks.check_degree(c, o, x, known.get("degree"), word_bound)),
        Op(("map", "closing", path), lambda x, o, e: checks.check_closing(c, o, x, known.get("closing"))),
        Op(("map", "decoder", path), lambda x, o, e: checks.check_decoder(c, o, x, known.get("decoder"))),
        Op(("map", "hyperbolic", path), lambda x, o, e: checks.check_hyperbolic(c, o, x, known.get("d"))),
        Op(("check", "t42", path) + wb,
           lambda x, o, e: checks.check_t42(c, o, x, known.get("t42"), known.get("degree"))),
        Op(("code", "image", path), lambda x, o, e: checks.check_code_image(c, o, x)),
        Op(("code", "recode", path), lambda x, o, e: checks.check_recode(c, o, x)),
    ]
    if onetoone:
        ops.append(Op(("map", "onetoone", path) + wb,
                      lambda x, o, e: checks.check_onetoone(o, x, known.get("degree"))))
    if t33:
        ops.append(Op(("check", "t33", path), lambda x, o, e: checks.check_t33(c, o, x, None, known.get("d"))))
    if compose:
        ops.append(Op(("code", "compose", path, path), lambda x, o, e: checks.check_compose(c, c, o, x)))
    if fiber:
        ops.append(Op(("fiber", "build", path, path), lambda x, o, e: checks.check_fiber(c, c, o, x)))
    return ops


def map_analysis(files, seed):
    rng = random.Random(seed)
    files.write("full2.graph", FULL2.text("full 2-shift"))
    ops = []
    for k in (2, 3, 4, 5):
        c = xor_code(k)
        path = files.write(f"xor{k}.code", code_text(c, "full2.graph", "full2.graph", f"xor of {k}"))
        d = 2 ** (k - 1)
        known = {"degree": d, "d": d, "closing": ("yes", "0"), "decoder": "none", "t42": "agree-negative"}
        ops += map_ops(path, c, known, word_bound=8, fiber=k <= 4)
    ident = Code(0, 0, {("0",): "0", ("1",): "1"}, FULL2, FULL2)
    path = files.write("identity.code", code_text(ident, "full2.graph", "full2.graph", "identity"))
    ops += map_ops(path, ident, {"degree": 1, "d": 1, "closing": ("yes", "0"), "t42": "agree-positive"}, None,
                   onetoone=True)
    for i in range(2):
        c, g = higher_block_map(rng)
        files.write(f"hb{i}.graph", g.text("random abc graph"))
        path = files.write(f"hb{i}.code", code_text(c, f"hb{i}.graph", f"hb{i}.graph", "first of two"))
        ops += map_ops(path, c, {"degree": 1, "d": 1}, word_bound=6, fiber=False, t33=False, onetoone=True)
    for i in range(3):
        c, g, cod = collapse_map(rng)
        files.write(f"col{i}.graph", g.text("random abc graph"))
        files.write(f"col{i}.img.graph", cod.text("its letter collapse"))
        path = files.write(f"col{i}.code", code_text(c, f"col{i}.graph", f"col{i}.img.graph", "collapse"))
        ops += map_ops(path, c, {}, word_bound=6, compose=False, t33=False, onetoone=True)
    # identity from gap >= 4 into gap >= 5: the image leaves the codomain
    files.write("gap4.graph", gap_graph(4).text("1s at least 4 apart"))
    files.write("gap5.graph", gap_graph(5).text("1s at least 5 apart"))
    bad = Code(0, 0, {("0",): "0", ("1",): "1"}, gap_graph(4), gap_graph(5))
    path = files.write("gap4to5.code", code_text(bad, "gap4.graph", "gap5.graph", "not into its codomain"))
    for verb in (("code", "image"), ("map", "degree")):
        ops.append(Op(verb + (path,), lambda x, o, e: checks.check_codomain_error(o, e, x), fault=True))
    # the acceptance suite and the README's first verb, on the bundled corpus
    fib = "".join(f"count {n} {v}\n" for n, v in enumerate((2, 3, 5, 8, 13, 21), 1))
    ops.append(Op(("lang", "count", "golden.graph", "--max-len", "6"),
                  lambda x, o, e: checks.require(x == 0 and o == fib, "golden counts are not Fibonacci")))
    ops.append(Op(("corpus", "run-all"), lambda x, o, e: checks.check_run_all(o, x)))
    return ops


# -- half-sync -----------------------------------------------------------------

DYCK_RANKS = (1, 2, 3)
DYCK_HORIZONS = (4, 5, 6, 7, 8)


def dyck_pairs(r):
    return (("(", ")"), ("[", "]"))[:r] + tuple((f"({k}", f"){k}") for k in range(3, r + 1))


def random_word(rng, symbols, admissible, length):
    while True:
        w = tuple(rng.choice(symbols) for _ in range(length))
        if admissible(w):
            return w


def half_sync(files, seed):
    rng = random.Random(seed)
    ops = []
    for r in DYCK_RANKS:
        pairs = dyck_pairs(r)
        path = files.write(f"dyck{r}.oracle", f"oracle dyck {r}\n")
        adm = lambda w, pairs=pairs: brute.dyck_admissible(pairs, w)
        for h in DYCK_HORIZONS:
            m = random_word(rng, [s for p in pairs for s in p], adm, rng.choice((1, 2, 3)))
            ops.append(Op(("sync", "half", path, fmt(m), "--horizon", str(h)),
                          lambda x, o, e, m=m, h=h, adm=adm: checks.check_half(o, x, m, h, adm, exact=True)))
    for i in range(2):
        gens = sorted({"".join(rng.choice("01") for _ in range(rng.choice((1, 2, 3, 4))))
                       for _ in range(rng.choice((2, 3, 4)))})
        if len(gens) == 1:
            gens.append(gens[0] + ("1" if gens[0][-1] == "0" else "0"))
        path = files.write(f"codes{i}.oracle", "oracle codelist " + " ".join(gens) + "\n")
        adm = checks.concatenation_factor(gens)
        symbols = sorted(set("".join(gens)))
        for h in DYCK_HORIZONS:
            m = random_word(rng, symbols, adm, rng.choice((1, 2, 3)))
            ops.append(Op(("sync", "half", path, fmt(m), "--horizon", str(h)),
                          lambda x, o, e, m=m, h=h, adm=adm: checks.check_half(o, x, m, h, adm, exact=False)))
    return ops


WORKLOADS = {
    "cover-growth": cover_growth,
    "map-analysis": map_analysis,
    "half-sync": half_sync,
}
