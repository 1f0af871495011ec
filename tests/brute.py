"""Reference implementations by plain enumeration, for cross-checking.

Everything here walks paths or strings directly and ignores the
library's automata constructions on purpose.
"""


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


def followers_equal(g, u, v, depth):
    """Extension-by-extension follower comparison to the given depth."""
    for n in range(1, depth + 1):
        for w in path_words(g, n):
            if reads(g, u + w) != reads(g, v + w):
                return False
    return True


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
