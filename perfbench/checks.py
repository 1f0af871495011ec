"""Output checks made apart from the program.

Every check takes what a CLI verb printed and tests it against plain
enumeration: the walkers in tests/brute.py, a small graph type of the
benchmark's own, and answers known from theory (xor-of-K has degree
2^(K-1)).  Nothing here imports shiftlab.  A check raises CheckError
with a one-line reason; returning means the output is accepted.
"""

import itertools
from types import SimpleNamespace

import brute  # tests/brute.py, put on sys.path by run.py

BRUTE_LEN = 8  # language comparisons run over all words up to this length


class CheckError(Exception):
    pass


def require(cond, msg):
    if not cond:
        raise CheckError(msg)


class Graph:
    """Labeled graph with the duck-typed surface tests/brute.py walks."""

    def __init__(self, alphabet, vertices, edges):
        self.alphabet = tuple(alphabet)
        self.vertices = tuple(sorted(set(vertices)))
        self.edges = sorted(set(edges))
        self._out = {v: [] for v in self.vertices}
        for src, dst, lab in self.edges:
            self._out[src].append((lab, dst))

    def out_edges(self, v):
        return self._out[v]

    def text(self, comment=""):
        lines = [f"# {comment}"] if comment else []
        lines.append("alphabet " + " ".join(self.alphabet))
        lines += [f"vertex {v}" for v in self.vertices]
        lines += [f"edge {s} {d} {a}" for s, d, a in self.edges]
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text):
        alphabet, vertices, edges = None, [], []
        for raw in text.splitlines():
            f = raw.split("#", 1)[0].split()
            if not f:
                continue
            if f[0] == "alphabet":
                alphabet = f[1:]
            elif f[0] == "vertex" and len(f) == 2:
                vertices.append(f[1])
            elif f[0] == "edge" and len(f) == 4:
                edges.append((f[1], f[2], f[3]))
            else:
                raise CheckError(f"unexpected graph line {raw!r}")
        require(alphabet is not None, "graph output has no alphabet line")
        return cls(alphabet, vertices, edges)


def rows(out):
    return [line.split() for line in out.splitlines() if line.strip()]


def row(out, key):
    """Fields after `key` on the first row that starts with it."""
    for r in rows(out):
        if r[0] == key:
            return r[1:]
    raise CheckError(f"no {key!r} row in output")


def fmt(w):
    """A block as the program renders it: bare for one-letter symbols."""
    return "".join(w) if all(len(s) == 1 for s in w) else ".".join(w)


def split_block(text, symbols=()):
    """Inverse of the program's block rendering, for known symbols."""
    if text == "e":
        return ()
    if "." in text:
        return tuple(text.split("."))
    if text in symbols:
        return (text,)
    return tuple(text)


# -- graph facts by enumeration ---------------------------------------------


def is_right_resolving(g):
    return all(
        len({lab for lab, _ in g.out_edges(v)}) == len(g.out_edges(v)) for v in g.vertices
    )


def reach(g, start, forward=True):
    adj = {v: set() for v in g.vertices}
    for s, d, _ in g.edges:
        if forward:
            adj[s].add(d)
        else:
            adj[d].add(s)
    seen, stack = {start}, [start]
    while stack:
        for u in adj[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return seen


def is_irreducible(g):
    if not g.vertices:
        return False
    v = g.vertices[0]
    n = len(g.vertices)
    return len(reach(g, v)) == n and len(reach(g, v, forward=False)) == n


def reads_from(g, v, w):
    """Whether some path from vertex v reads w."""
    states = {v}
    for sym in w:
        states = {t for x in states for lab, t in g.out_edges(x) if lab == sym}
        if not states:
            return False
    return True


def separating_word(g, u, v):
    """A word readable from exactly one of two vertices of a
    right-resolving graph, by breadth-first search over vertex pairs."""
    step = {(s, a): d for s, d, a in g.edges}
    seen, layer = {(u, v)}, [((), u, v)]
    while layer:
        nxt = []
        for word, x, y in layer:
            for a in g.alphabet:
                x2, y2 = step.get((x, a)), step.get((y, a))
                if x2 is None and y2 is None:
                    continue
                if x2 is None or y2 is None:
                    return word + (a,)
                if (x2, y2) not in seen:
                    seen.add((x2, y2))
                    nxt.append((word + (a,), x2, y2))
        layer = nxt
    return None


def same_language(g, h, upto=BRUTE_LEN):
    for n in range(1, upto + 1):
        a, b = brute.path_words(g, n), brute.path_words(h, n)
        if a != b:
            extra = sorted(a ^ b)[0]
            raise CheckError(f"languages differ at length {n}, e.g. on {''.join(extra)}")


def trim(g):
    """Essential part: drop vertices without in- or out-edges until none."""
    vs, es = set(g.vertices), list(g.edges)
    while True:
        live_out = {s for s, _, _ in es}
        live_in = {d for _, d, _ in es}
        keep = vs & live_out & live_in
        if keep == vs:
            return Graph(g.alphabet, vs, es)
        vs = keep
        es = [e for e in es if e[0] in vs and e[1] in vs]


def components(g):
    """Vertex sets of the strong components that carry an edge."""
    out, left = [], set(g.vertices)
    while left:
        v = min(left)
        comp = reach(g, v) & reach(g, v, forward=False)
        left -= comp
        if any(s in comp and d in comp for s, d, _ in g.edges):
            out.append(comp)
    return out


# -- sliding block codes ------------------------------------------------------


class Code:
    """A window map with its domain/codomain graphs, as generated."""

    def __init__(self, memory, anticipation, window_map, domain, codomain):
        self.memory = memory
        self.anticipation = anticipation
        self.window_map = dict(window_map)
        self.domain = domain
        self.codomain = codomain

    @property
    def width(self):
        return self.memory + self.anticipation + 1

    def apply(self, w):
        n = self.width
        return tuple(self.window_map[tuple(w[i : i + n])] for i in range(len(w) - n + 1))

    def one_block(self):
        """Higher-block recoding: symbols are the width-blocks, written
        the way the program renders them, on the graph of paths."""
        n = self.width
        if n == 1:
            phi = {w[0]: out for w, out in self.window_map.items()}
            return SimpleNamespace(
                domain=self.domain, phi=phi,
                code=SimpleNamespace(window_map={(a,): b for a, b in phi.items()}),
            )
        g = self.domain
        paths = [(e,) for e in g.edges]
        for _ in range(n - 2):
            paths = [p + (e,) for p in paths for e in g.edges if e[0] == p[-1][1]]
        name = {p: "-".join([p[0][0]] + [x for s, d, a in p for x in (a, d)]) for p in paths}
        edges, phi = [], {}
        for p in paths:
            for e in g.edges:
                if e[0] == p[-1][1]:
                    full = p + (e,)
                    blk = tuple(a for _, _, a in full)
                    edges.append((name[p], name[full[1:]], fmt(blk)))
                    phi[fmt(blk)] = self.window_map[blk]
        dom = Graph(sorted(phi), name.values(), edges)
        return SimpleNamespace(
            domain=dom, phi=phi,
            code=SimpleNamespace(window_map={(a,): b for a, b in phi.items()}),
        )

    def image_words(self, n):
        return {self.apply(x) for x in brute.path_words(self.domain, n + self.width - 1)}


def column_counts(f1, w):
    """Per-coordinate numbers of domain symbols over all preimage paths
    of the image word w (f1 is a one-block recoding)."""
    pre = brute.preimage_blocks(f1, w)
    return [len({x[i] for x in pre}) for i in range(len(w))]


# -- per-verb checks ------------------------------------------------------------


def exit_is(code, want, what):
    require(code == want, f"{what}: exit {code}, expected {want}")


def check_fischer(g, out, code):
    exit_is(code, 0, "cover fischer")
    f = Graph.parse(out)
    require(is_right_resolving(f), "Fischer cover is not right-resolving")
    require(is_irreducible(f), "Fischer cover is not irreducible")
    for u, v in itertools.combinations(f.vertices, 2):
        w = separating_word(f, u, v)
        require(
            w is not None and reads_from(f, u, w) != reads_from(f, v, w),
            f"Fischer vertices {u} and {v} have equal followers",
        )
    same_language(f, g)
    if is_right_resolving(g):
        require(len(f.vertices) <= len(g.vertices), "Fischer cover larger than a right-resolving input")
    return f


def check_subset(g, out, code):
    exit_is(code, 0, "cover subset")
    s = Graph.parse(out)
    require(is_right_resolving(s), "subset cover is not right-resolving")
    same_language(s, g)


def check_lang_count(g, out, code, max_len):
    exit_is(code, 0, "lang count")
    got = [(int(n), int(c)) for key, n, c in rows(out) if key == "count"]
    want = [(n, len(brute.path_words(g, n))) for n in range(1, max_len + 1)]
    require(got == want, f"lang count {got} != brute {want}")


def synchronizing_over_contexts(g, v, depth):
    """Brute test of the definition: uv and vw admissible imply uvw
    admissible, for all contexts u, w up to `depth` symbols."""
    words = [w for n in range(1, depth + 1) for w in brute.path_words(g, n)]
    lefts = [u for u in words if brute.reads(g, u + v)]
    rights = [w for w in words if brute.reads(g, v + w)]
    for u in lefts:
        for w in rights:
            if not brute.reads(g, u + v + w):
                return (u, w)
    return None


def check_sync_find(g, out, code, depth=4):
    word = row(out, "synchronizing-word")[0]
    if word == "none":
        exit_is(code, 2, "sync find none")
        return None
    exit_is(code, 0, "sync find")
    w = split_block(word, g.alphabet)
    require(brute.reads(g, w), f"synchronizing word {word} is inadmissible")
    bad = synchronizing_over_contexts(g, w, depth)
    require(bad is None, f"{word} is not synchronizing: context {bad}")
    return w


def check_sync_check(g, out, code, v, depth=4):
    exit_is(code, 0, "sync check")
    status = row(out, "status")[0]
    bad = synchronizing_over_contexts(g, v, depth)
    if status == "synchronizing":
        require(bad is None, f"block reported synchronizing, brute context {bad}")
        return
    require(status == "not-synchronizing", f"unknown sync status {status}")
    u, w = (split_block(x, g.alphabet) for x in row(out, "witness"))
    require(
        brute.reads(g, u + v) and brute.reads(g, v + w) and not brute.reads(g, u + v + w),
        "sync check witness does not refute the block",
    )


def check_half(out, code, m, horizon, admissible, exact=None):
    """sync half on any oracle; `admissible` is the brute membership
    test of the shift, `exact` the flag the oracle kind must report."""
    exit_is(code, 0, "sync half")
    status = row(out, "status")[0]
    flag = row(out, "exact")[0]
    require(row(out, "horizon") == [str(horizon)], "sync half horizon echoed wrongly")
    if status == "holds-at-horizon":
        require(int(row(out, "prefix-length")[0]) >= len(m), "prefix shorter than the block")
        if any(r[0] == "prefix" for r in rows(out)):
            p = split_block(row(out, "prefix")[0])
            require(p[len(p) - len(m):] == m, "printed prefix does not end with the block")
            require(admissible(p), "printed prefix is inadmissible")
    else:
        require(status == "refuted", f"unknown half-sync status {status}")
        d = split_block(row(out, "refutation")[0])
        require(0 < len(d) <= horizon, "refutation longer than the horizon")
        require(admissible(m + d), "refutation does not follow the block")
        require(flag == "no", "a refutation is reported exact")
    if exact is not None:
        require(flag == ("yes" if exact else "no"), f"sync half exact flag {flag}")


def concatenation_factor(gens):
    """Membership in the factors of free concatenations of `gens`:
    positions (generator, offset) stepped by the next symbol."""
    starts = {(i, j) for i, g in enumerate(gens) for j in range(len(g))}

    def admissible(w):
        states = starts
        for sym in w:
            nxt = set()
            for i, j in states:
                if gens[i][j] == sym:
                    if j + 1 < len(gens[i]):
                        nxt.add((i, j + 1))
                    else:
                        nxt |= {(k, 0) for k in range(len(gens))}
            if not nxt:
                return False
            states = nxt
        return True

    return admissible


def check_code_image(c, out, code):
    exit_is(code, 0, "code image")
    img = Graph.parse(out)
    for n in range(1, BRUTE_LEN + 1):
        require(brute.path_words(img, n) == c.image_words(n), f"image language differs at length {n}")


def check_recode(c, out, code):
    exit_is(code, 0, "code recode")
    require(row(out, "code") == ["memory", "0", "anticipation", "0"], "recoding is not one-block")
    got = {r[1]: r[2] for r in rows(out) if r[0] == "map"}
    want = c.one_block().phi
    require(got == want, "recoded window map differs from the higher-block recoding")


def check_compose(c2, c1, out, code):
    exit_is(code, 0, "code compose")
    m, n = c1.memory + c2.memory, c1.anticipation + c2.anticipation
    require(row(out, "code") == ["memory", str(m), "anticipation", str(n)], "composed memory/anticipation")
    got = {split_block(r[1]): r[2] for r in rows(out) if r[0] == "map"}
    alphabet = sorted({s for w in c1.window_map for s in w})
    want = {}
    for w in itertools.product(alphabet, repeat=m + n + 1):
        try:
            mid = c1.apply(w)
            want[w] = c2.window_map[mid]
        except KeyError:
            continue
    require(got == want, "composed window map differs from applying both codes")


def check_degree(c, out, code, known=None, word_bound=None):
    if row(out, "finite-to-one") == ["no"]:
        raise CheckError("finite-to-one map reported infinite-to-one")
    d = int(row(out, "degree")[0])
    exact = row(out, "exact")[0]
    exit_is(code, 0 if exact == "yes" else 2, f"map degree exact {exact}")
    if known is not None:
        require(d == known, f"degree {d}, known {known}")
    f1 = c.one_block()
    magic = split_block(row(out, "magic-word")[0])
    require(min(column_counts(f1, magic)) == d, "magic word does not attain the degree")
    for n in range(1, min(word_bound or 6, 6) + 1):
        for w in c.image_words(n):
            require(min(column_counts(f1, w)) >= d, f"image word {w} has fewer than {d} preimage symbols")
    return d


def check_onetoone(out, code, known=None):
    # the verb exits 2 when its degree bound is not exact, and prints no exact row
    require(code in (0, 2), f"map onetoone: exit {code}")
    require(row(out, "finite-to-one") == ["yes"], "finite-to-one map reported infinite-to-one")
    d = row(out, "degree")[0]
    require(row(out, "one-to-one-ae") == [("yes" if d == "1" else "no")], "one-to-one-ae contradicts the degree")
    if known is not None:
        require(d == str(known), f"degree {d}, known {known}")


def check_closing(c, out, code, known=None, delay_bound=6):
    verdict = row(out, "right-closing-ae")[0]
    exact = row(out, "exact")[0]
    exit_is(code, 0 if exact == "yes" else 2, f"map closing exact {exact}")
    delay = row(out, "delay")[0]
    if known is not None:
        require((verdict, delay) == known, f"closing {verdict} delay {delay}, known {known}")
    if verdict == "yes":
        require(int(delay) <= delay_bound, "delay beyond the bound")
        return
    f1 = c.one_block()
    _, u, v = row(out, "witness")
    u, v = split_block(u, f1.phi), split_block(v, f1.phi)
    require(len(u) == len(v) == delay_bound + 1 and u[0] != v[0], "closing witness has the wrong shape")
    require([f1.phi[a] for a in u] == [f1.phi[a] for a in v], "closing witness images differ")
    require(brute.reads(f1.domain, u) and brute.reads(f1.domain, v), "closing witness inadmissible")


def check_decoder(c, out, code, known=None, max_len=8, max_k=4, horizon=4):
    got = row(out, "decoder-block")
    if known is not None:
        require(got[0] == known, f"decoder block {got[0]}, known {known}")
    if got[0] == "none":
        exit_is(code, 2, "map decoder none")
        return
    exit_is(code, 0, "map decoder")
    w, k = split_block(got[0]), int(got[2])
    require(len(w) <= max_len and k <= max_k, "decoder block outside the bounds")
    require(brute.reads(c.codomain, w), "decoder block inadmissible in the codomain")
    f1 = c.one_block()
    for n in range(1, horizon - k + 1):
        for u in brute.path_words(c.codomain, n + k):
            pre = brute.preimage_blocks(f1, w + u)
            cols = {x[len(w) : len(w) + n] for x in pre}
            require(len(cols) <= 1, f"decoder block does not decode after {''.join(u)}")


def parse_hyperbolic(fields, symbols):
    require(fields[0] == "word" and fields[2] == "d" and fields[4] == "k" and fields[6] == "blocks",
            "malformed hyperbolic line")
    word = split_block(fields[1])
    blocks = {split_block(b, symbols) for b in fields[7:]}
    return word, int(fields[3]), int(fields[5]), blocks


def check_hyperbolic_fields(c, fields, known_d=None):
    f1 = c.one_block()
    word, d, k, blocks = parse_hyperbolic(fields, f1.phi)
    n = (len(word) - 1) // 2
    require(len(word) % 2 == 1 and k <= n, "certificate word/k shape")
    windows = {x[n - k : n + k + 1] for x in brute.preimage_blocks(f1, word)}
    require(blocks == windows, "central blocks differ from brute preimage windows")
    require(d == len(blocks), "d is not the number of central blocks")
    if known_d is not None:
        require(d == known_d, f"hyperbolic d {d}, known {known_d}")


def check_hyperbolic(c, out, code, known_d=None):
    fields = row(out, "hyperbolic")
    if fields == ["none"]:
        exit_is(code, 2, "map hyperbolic none")
        require(known_d is None, "no certificate where one is known")
        return
    exit_is(code, 0, "map hyperbolic")
    check_hyperbolic_fields(c, fields, known_d)


STATUS_EXIT = {"agree-positive": 0, "agree-negative": 0, "inconclusive": 2, "disagree": 3}


def check_status(out, code, report, known=None):
    require(row(out, "report") == [report], f"report name is not {report}")
    status = row(out, "status")[0]
    require(status != "disagree" and code != 3, f"check {report} disagrees")
    exit_is(code, STATUS_EXIT.get(status), f"check {report} {status}")
    if known is not None:
        require(status == known, f"check {report} status {status}, known {known}")
    return status, {r[0]: r[1] for r in rows(out) if len(r) == 2}


def check_t42(c, out, code, known=None, known_degree=None):
    status, facts = check_status(out, code, "t42", known)
    if known_degree is not None:
        require(facts["degree"] == str(known_degree), f"t42 degree {facts['degree']}")
    found = facts["decoder-found"] == "yes"
    require(found == any(r[0] == "decoder-block" for r in rows(out)), "decoder fact without certificate")
    if status == "agree-positive":
        require(found and facts["right-closing-ae"] == "yes" and facts["degree"] == "1",
                "agree-positive without its three facts")
    if status == "agree-negative":
        require(not found and (facts["right-closing-ae"] == "no" or facts["degree"] != "1"),
                "agree-negative with a positive side")


def check_t33(c, out, code, known=None, known_d=None):
    status, facts = check_status(out, code, "t33", known)
    if status == "inconclusive":
        return
    for h in (4, 6, 8):
        require(facts[f"domain-half-sync-h{h}"] == facts[f"codomain-half-sync-h{h}"],
                f"half-sync verdicts differ at horizon {h}")
    check_hyperbolic_fields(c, row(out, "hyperbolic"), known_d)


def check_fiber(c1, c2, out, code):
    exit_is(code, 0, "fiber build")
    a, b = c1.one_block(), c2.one_block()
    edges = [
        (f"{u}|{v}", f"{ud}|{vd}", f"({x},{y})")
        for u, ud, x in a.domain.edges for v, vd, y in b.domain.edges if a.phi[x] == b.phi[y]
    ]
    sigma = trim(Graph(sorted({e[2] for e in edges}), [e[0] for e in edges] + [e[1] for e in edges], edges))
    sizes = [r[1:] for r in rows(out) if r[0] == "fiber"]
    want = [["vertices", str(len(sigma.vertices))], ["edges", str(len(sigma.edges))]]
    require(sizes == want, f"fiber sizes {sizes}, brute {want}")
    comps = [r for r in rows(out) if r[0] == "component"]
    want = sorted(len(s) for s in components(sigma))
    require(sorted(int(r[3]) for r in comps) == want, "fiber component sizes")
    if c1 is c2:
        require(any(r[5] == "yes" and r[7] == "yes" for r in comps), "no component onto both sides")


def check_codomain_error(out, err, code):
    """Expected answer for a code whose image leaves its codomain."""
    exit_is(code, 1, "image outside the codomain")
    require("codomain" in err, "error does not name the codomain")


def check_run_all(out, code):
    exit_is(code, 0, "corpus run-all")
    crit = [r for r in rows(out) if r[0] == "criterion"]
    require([int(r[1]) for r in crit] == list(range(1, 11)), "criteria rows 1..10")
    require(all(r[2] == "pass" for r in crit), "an acceptance criterion fails")
    require(row(out, "all-pass") == ["yes"], "all-pass is not yes")
