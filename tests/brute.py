"""Reference implementations by plain enumeration, for cross-checking.

Everything here walks paths or strings directly and ignores the
library's automata constructions on purpose.  The factor-map references
at the end build the library's graph and map types, as the library
built them before a FactorMap kept its higher-block graph.
"""

import itertools

from shiftlab.codes import BlockCode, FactorMap
from shiftlab.core import Alphabet, LabeledGraph, format_block, parse_block


def path_words(g, n):
    """Label words of all n-edge paths, as a set."""
    words = set()
    stack = [(v, ()) for v in g.vertices]
    while stack:
        v, w = stack.pop()
        if len(w) == n:
            words.add(w)
            continue
        for lab, t in g.out_edges(v):
            stack.append((t, w + (lab,)))
    return words


def paths_from(g, v, n):
    """(label word, end vertex) of every n-edge path from v."""
    layer = [((), v)]
    for _ in range(n):
        layer = [(w + (lab,), t) for w, u in layer for lab, t in g.out_edges(u)]
    return layer


def least_path_word(g, src, dst):
    """Length-lexicographically least label word of a path src -> dst,
    listing the paths of each length; None if dst is unreachable.  A
    least path visits no vertex twice, so lengths below |V| suffice."""
    for n in range(len(g.vertices)):
        words = [w for w, v in paths_from(g, src, n) if v == dst]
        if words:
            return min(words, key=g.alphabet.block_key)
    return None


def reachable(g, v):
    """Vertices at the end of some path from v, v included."""
    return {t for n in range(len(g.vertices)) for _, t in paths_from(g, v, n)}


def least_focusing_word(g, max_len):
    """Length-lexicographically least non-empty word whose paths, taken
    from every vertex, all end at one vertex; None if there is none of
    length <= max_len."""
    for n in range(1, max_len + 1):
        ends = {}
        for v in g.vertices:
            for w, t in paths_from(g, v, n):
                ends.setdefault(w, set()).add(t)
        focusing = [w for w, ts in ends.items() if len(ts) == 1]
        if focusing:
            return min(focusing, key=g.alphabet.block_key)
    return None


def essential_part(g):
    """(vertices, edges) left by deleting vertices with no in-edge or no
    out-edge, and their edges, until none is left."""
    alive = set(g.vertices)
    edges = list(g.edges)
    while True:
        out_deg = {v: 0 for v in alive}
        in_deg = {v: 0 for v in alive}
        for src, dst, _ in edges:
            out_deg[src] += 1
            in_deg[dst] += 1
        dead = {v for v in alive if out_deg[v] == 0 or in_deg[v] == 0}
        if not dead:
            return alive, edges
        alive -= dead
        edges = [e for e in edges if e[0] in alive and e[1] in alive]


def reads(g, w):
    """Whether some path reads w."""
    states = set(g.vertices)
    for sym in w:
        states = {t for v in states for lab, t in g.out_edges(v) if lab == sym}
        if not states:
            return False
    return True


def readable_from(g, start, n):
    """{word: end vertices} for every word of 1 to n symbols that labels
    a path from a vertex in `start`, listed symbol by symbol."""
    found, layer = {}, {(): set(start)}
    for _ in range(n):
        nxt = {}
        for w, ends in layer.items():
            for x in ends:
                for lab, t in g.out_edges(x):
                    nxt.setdefault(w + (lab,), set()).add(t)
        found.update(nxt)
        layer = nxt
    return found


def least_sync_witness(g, v, bound):
    """The least (u, w) in the order (|u| + |w|, |u|, u, w), u and w of
    1 to `bound` symbols, with uv and vw readable and uvw not: a context
    that shows the non-empty v is not synchronizing; None if there is
    none.  Every u and w is listed in that order; whether uvw is readable
    depends only on where the paths reading uv end, so the least w is
    found once per end set."""
    key = g.alphabet.block_key

    def ends(start, w):
        for sym in w:
            start = {t for x in start for lab, t in g.out_edges(x) if lab == sym}
        return frozenset(start)

    lefts = readable_from(g, g.vertices, bound)
    after_v = readable_from(g, ends(g.vertices, v), bound)
    words = {n: sorted((w for w in lefts if len(w) == n), key=key) for n in range(1, bound + 1)}
    rights = {n: [w for w in ws if w in after_v] for n, ws in words.items()}
    uv = {u: ends(e, v) for u, e in lefts.items()}
    least = {}  # (end set of uv, |w|) -> least w read after v, not from there
    for total in range(2, 2 * bound + 1):
        for lu in range(max(1, total - bound), min(bound, total - 1) + 1):
            n = total - lu
            for u in words[lu]:
                if not uv[u]:
                    continue
                if (uv[u], n) not in least:
                    after_uv = readable_from(g, uv[u], n)
                    least[uv[u], n] = next((w for w in rights[n] if w not in after_uv), None)
                if least[uv[u], n] is not None:
                    return u, least[uv[u], n]
    return None


def followers_equal(g, u, v, depth):
    """Extension-by-extension follower comparison to the given depth."""
    for n in range(1, depth + 1):
        for w in path_words(g, n):
            if reads(g, u + w) != reads(g, v + w):
                return False
    return True


def follower_included(g, u, v, n):
    """Whether every word of length <= n labeling a path from vertex u
    also labels a path from vertex v."""
    return all(
        {w for w, _ in paths_from(g, u, k)} <= {w for w, _ in paths_from(g, v, k)}
        for k in range(1, n + 1)
    )


def dyck_reduce(pairs, w):
    """Cancel adjacent matched pairs until nothing cancels."""
    match = {o: c for o, c in pairs}
    out = []
    for sym in w:
        if out and match.get(out[-1]) == sym:
            out.pop()
        else:
            out.append(sym)
    return tuple(out)


def dyck_admissible(pairs, w):
    """Reduction semantics: admissible iff the reduced word is some
    closers followed by some openers (no opener ever meets a wrong
    closer)."""
    openers = {o for o, _ in pairs}
    reduced = dyck_reduce(pairs, w)
    seen_opener = False
    for sym in reduced:
        if sym in openers:
            seen_opener = True
        elif seen_opener:
            return False
    return True


def preimage_blocks(f1, w):
    """Domain blocks of a one-block map hitting the image word w."""
    g = f1.domain
    phi = {x[0]: y for x, y in f1.code.window_map.items()}
    found = set()
    stack = [(v, ()) for v in g.vertices]
    while stack:
        v, x = stack.pop()
        if len(x) == len(w):
            found.add(x)
            continue
        for lab, t in g.out_edges(v):
            if phi[lab] == w[len(x)]:
                stack.append((t, x + (lab,)))
    return found


def forward_extension_witness(f1, w, k, block, max_j):
    """The least image word x = w y, with 1 <= |y| <= max_j and x ending
    in w, whose preimage blocks showing `block` on w's central window
    [n - k, n + k] (n the half-width of w) do not all agree on
    (n + k, |y| + n + k]; None if there is none.  Every y is listed,
    shortest first, and x's preimage blocks are enumerated whole."""
    n = len(w) // 2
    lo, hi = n - k, n + k
    for j in range(1, max_j + 1):
        for y in itertools.product(f1.codomain.alphabet.symbols, repeat=j):
            x = tuple(w) + y
            if x[-len(w):] != tuple(w):
                continue
            shown = [u for u in preimage_blocks(f1, x) if u[lo : hi + 1] == tuple(block)]
            if any(len({u[i] for u in shown}) > 1 for i in range(hi + 1, j + hi + 1)):
                return x
    return None


def degree_by_words(f1, n):
    """(least count, least word attaining it, the word's counts) over
    the image words of 1 to n symbols of a one-block map, listed in
    length-lexicographic order and stopping after the first length that
    reaches 1.  The count at a coordinate is the number of domain
    symbols the preimage paths of the whole word carry there."""
    phi = {x[0]: y for x, y in f1.code.window_map.items()}
    best = None
    for length in range(1, n + 1):
        words = {tuple(phi[a] for a in x) for x in path_words(f1.domain, length)}
        for w in sorted(words, key=f1.codomain.alphabet.block_key):
            pre = preimage_blocks(f1, w)
            counts = tuple(len({x[i] for x in pre}) for i in range(length))
            if best is None or min(counts) < best[0]:
                best = min(counts), w, counts
        if best[0] == 1:
            break
    return best


def concatenation_factor(gens, w):
    """Whether w occurs inside some concatenation of the generator
    blocks.  A concatenation of at most |w| + 2 * max|gen| symbols
    holds every occurrence, so listing those decides it."""
    limit = len(w) + 2 * max(len(g) for g in gens)
    layer = {()}
    while layer:
        for c in layer:
            if any(c[i : i + len(w)] == w for i in range(len(c) - len(w) + 1)):
                return True
        layer = {c + g for c in layer for g in gens if len(c) + len(g) <= limit}
    return False


# -- the subset kernel by frozensets of vertex names ---------------------------


def image(g, start, w):
    """The vertices paths from `start` reading w end at, sorted."""
    ends = set(start)
    for sym in w:
        ends = {t for v in ends for lab, t in g.out_edges(v) if lab == sym}
    return tuple(sorted(ends))


def subset_automaton(g):
    """(order, trans) of the subset construction from the full vertex
    set, states as frozensets of vertex names: order in breadth-first
    discovery order, trans mapping (S, symbol) to the non-empty image."""
    start = frozenset(g.vertices)
    if not start:
        return [], {}
    order, seen, trans = [start], {start}, {}
    for s in order:
        for sym in g.alphabet.symbols:
            t = frozenset(image(g, s, (sym,)))
            if t:
                trans[s, sym] = t
                if t not in seen:
                    seen.add(t)
                    order.append(t)
    return order, trans


def essential_subsets(g):
    """(states, trans): the states of `subset_automaton` that words of
    every length lead to, in discovery order: the states on or after a
    cycle.  The states k-symbol words lead to shrink as k grows, so the
    first k where they stop shrinking gives them."""
    order, trans = subset_automaton(g)
    layer = set(order)
    while True:
        nxt = {trans[s, a] for s in layer for a in g.alphabet.symbols if (s, a) in trans}
        if nxt == layer:
            return [s for s in order if s in layer], trans
        layer = nxt


def set_name(vertices):
    return "{" + ",".join(sorted(vertices)) + "}"


def subset_cover_parts(g):
    """(vertex names, edges) of the subset cover: the essential subsets,
    each named by its sorted vertex names."""
    states, trans = essential_subsets(g)
    edges = [(set_name(s), set_name(trans[s, a]), a)
             for s in states for a in g.alphabet.symbols if (s, a) in trans]
    return [set_name(s) for s in states], edges


def moore_classes(order, trans, alphabet):
    """Moore refinement, one signature tuple per state: (own class,
    classes of the successors in alphabet order), a dead move being the
    extra index n of class -1; ids in order of first appearance, rounds
    until nothing splits."""
    n = len(order)
    index = {s: i for i, s in enumerate(order)}
    succ = [tuple(index.get(trans.get((s, sym)), n) for sym in alphabet) for s in order]
    cls = [0] * n + [-1]
    while True:
        sig_ids = {}
        new = [
            sig_ids.setdefault((c, tuple(map(cls.__getitem__, row))), len(sig_ids))
            for c, row in zip(cls, succ)
        ]
        new.append(-1)
        if new == cls:
            return dict(zip(order, cls))
        cls = new


def fischer_cover_parts(g):
    """(vertex names, edges) of the Fischer cover of the irreducible g:
    the language classes of g itself when it is right-resolving, else of
    `essential_subsets`, cut to the classes every class reaches.  A
    class is named by its vertex set on right-resolving input, else by
    the least subset name among its sets."""
    symbols = g.alphabet.symbols
    resolving = all(
        len([lab for lab, _ in g.out_edges(v)]) == len({lab for lab, _ in g.out_edges(v)})
        for v in g.vertices
    )
    if resolving:
        order = list(g.vertices)
        trans = {(v, lab): t for v in order for lab, t in g.out_edges(v)}
    else:
        order, trans = essential_subsets(g)
    cls = moore_classes(order, trans, symbols)
    members, moves = {}, {}
    for s in order:
        members.setdefault(cls[s], []).append(s)
        moves[cls[s]] = {a: cls[trans[s, a]] for a in symbols if (s, a) in trans}

    def reached(c):
        seen, todo = {c}, [c]
        while todo:
            for d in moves[todo.pop()].values():
                if d not in seen:
                    seen.add(d)
                    todo.append(d)
        return seen

    reach = {c: reached(c) for c in moves}
    sink = [c for c in moves if all(c in reach[d] for d in moves)]
    if resolving:
        name = {c: set_name(members[c]) for c in sink}
    else:
        name = {c: min(map(set_name, members[c])) for c in sink}
    edges = [(name[c], name[d], a) for c in sink for a, d in moves[c].items()]
    return list(name.values()), edges


def synchronizing_word(g, max_len):
    """The length-lexicographically least non-empty word of at most
    max_len symbols that leads every state of `essential_subsets` that
    reads it to one state; None if there is none.  Breadth-first over
    frozensets of those states, each set stepped once per symbol."""
    states, trans = essential_subsets(g)
    layer, seen = [((), frozenset(states))], set()
    for _ in range(max_len):
        nxt = []
        for w, cur in layer:
            for a in g.alphabet.symbols:
                t = frozenset(trans[s, a] for s in cur if (s, a) in trans)
                if len(t) == 1:
                    return w + (a,)
                if t and t not in seen:
                    seen.add(t)
                    nxt.append((w + (a,), t))
        layer = nxt
    return None


def least_unreadable(g, h, max_len):
    """The length-lexicographically least word of at most max_len
    symbols that some path of g reads and no path of h; None if none."""
    if not g.vertices:
        return None
    if not h.vertices:
        return ()
    words = set(readable_from(g, g.vertices, max_len)) - set(readable_from(h, h.vertices, max_len))
    return min(words, key=g.alphabet.block_key) if words else None


def higher_block_graph(g, n):
    """The length-n higher-block graph of an essential g, n >= 2, by
    listing its paths: vertices are the paths of n - 1 edges, named
    "v0-a1-v1-...", and each n-edge path is an edge labeled by its
    formatted block."""
    paths = [(e,) for e in g.edges]
    for _ in range(n - 2):
        paths = [p + (e,) for p in paths for e in g.edges if e[0] == p[-1][1]]

    def name(p):
        return "-".join([p[0][0]] + [x for _, dst, lab in p for x in (lab, dst)])

    blocks, edges = set(), []
    for p in paths:
        for e in g.edges:
            if e[0] == p[-1][1]:
                blk = tuple(lab for _, _, lab in p + (e,))
                blocks.add(blk)
                edges.append((name(p), name(p[1:] + (e,)), format_block(blk)))
    alphabet = Alphabet(format_block(b) for b in sorted(blocks, key=g.alphabet.block_key))
    return LabeledGraph(alphabet, [name(p) for p in paths], edges)


def image_by_relabeling(f):
    """The image presentation of a factor map, built as two steps: the
    domain's higher-block graph at the code's width, relabeled through
    the window map into the codomain alphabet."""
    c = f.code
    hg = f.domain if c.width == 1 else higher_block_graph(f.domain, c.width)
    image = {format_block(w): out for w, out in c.window_map.items()}
    edges = {(src, dst, image[lab]) for src, dst, lab in hg.edges}
    return LabeledGraph(f.codomain.alphabet, hg.vertices, edges)


def recode_by_parsing(f):
    """The 1-block form of a factor map, built as a second map: each
    higher-block symbol is parsed back into its window and sent where
    the window map sends it."""
    c = f.code
    if c.width == 1:
        return f
    hg = higher_block_graph(f.domain, c.width)
    wm = {(sym,): c.window_map[parse_block(sym, f.domain.alphabet)] for sym in hg.alphabet}
    return FactorMap(BlockCode(0, 0, wm, hg.alphabet, c.codomain_alphabet), hg, f.codomain)
