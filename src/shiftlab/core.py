"""Alphabets, blocks, eventually periodic points, and labeled graphs.

A shift space is presented by a finite labeled graph: the bi-infinite
label sequences along edge paths form a sofic shift.  This module holds
the presentation type plus the language-level queries every other
module builds on (admissibility, block enumeration, image sets).

Conventions used throughout the package:
  * a Block is a tuple of symbol strings (tuple, not str, so that
    multi-character symbols work uniformly),
  * all set-valued results are returned sorted, with symbols ordered
    by their declared alphabet position and vertices ordered by name,
    so every operation is deterministic.
"""

import math
from collections import deque
from dataclasses import dataclass
from itertools import compress, product
from typing import Callable, NamedTuple

from .errors import (
    NotEssentialError,
    NotRightResolvingError,
    ParseError,
)

Block = tuple  # tuple of symbol strings

EPSILON = "e"  # rendering of the empty block in reports


class Alphabet:
    """Ordered finite set of symbol names.

    Iteration order is the declaration order and is used for
    deterministic tie-breaking everywhere (word enumeration, witness
    searches, canonical forms).
    """

    __slots__ = ("symbols", "_index")

    def __init__(self, symbols):
        symbols = tuple(symbols)
        if not symbols:
            raise ValueError("alphabet must be non-empty")
        seen = set()
        for s in symbols:
            if not isinstance(s, str) or s.split() != [s]:
                raise ValueError(f"bad symbol {s!r}")
            if s in seen:
                raise ValueError(f"duplicate symbol {s!r}")
            seen.add(s)
        self.symbols = symbols
        self._index = {s: i for i, s in enumerate(symbols)}

    def __contains__(self, s):
        return s in self._index

    def __iter__(self):
        return iter(self.symbols)

    def __len__(self):
        return len(self.symbols)

    def __eq__(self, other):
        return isinstance(other, Alphabet) and self.symbols == other.symbols

    def __hash__(self):
        return hash(self.symbols)

    def __repr__(self):
        return f"Alphabet({list(self.symbols)!r})"

    def index(self, s):
        return self._index[s]

    def block_key(self, w: Block):
        """Sort key realizing length-lexicographic order on blocks."""
        return (len(w), tuple(self._index[s] for s in w))

    def words(self, n: int):
        """All length-n blocks over the alphabet, in lexicographic order."""
        return product(self.symbols, repeat=n)


def format_block(w: Block) -> str:
    """Render a block for reports.

    Single-character symbols concatenate bare; anything longer joins
    with dots.  The empty block renders as 'e'.
    """
    if not w:
        return EPSILON
    if all(len(s) == 1 for s in w):
        return "".join(w)
    return ".".join(w)


def parse_block(text: str, alphabet: Alphabet) -> Block:
    """Inverse of format_block, tolerant of dot or space separators.

    Undotted text is cut greedily, longest declared symbol first.
    """
    text = text.strip()
    if text == "" or (text == EPSILON and EPSILON not in alphabet):
        return ()
    if "." in text:
        parts = text.split(".")
    elif any(c.isspace() for c in text):
        parts = text.split()
    else:
        parts = []
        by_len = sorted(alphabet.symbols, key=len, reverse=True)
        i = 0
        while i < len(text):
            for s in by_len:
                if text.startswith(s, i):
                    parts.append(s)
                    i += len(s)
                    break
            else:
                raise ValueError(f"cannot split {text!r} over {alphabet!r}")
    for p in parts:
        if p not in alphabet:
            raise ValueError(f"symbol {p!r} not in alphabet")
    return tuple(parts)


class LabeledGraph:
    """Finite directed multigraph with edge labels; presents a sofic shift.

    Edges are (source, target, label) triples.  Parallel edges with an
    identical triple are rejected: no operation here can tell them
    apart.  Vertices and edges are stored sorted so that two graphs
    built from the same data compare equal structurally.
    """

    __slots__ = ("alphabet", "vertices", "edges", "_out", "_in_deg", "_index", "_stepper")

    def __init__(self, alphabet: Alphabet, vertices, edges):
        self.alphabet = alphabet
        vertices = tuple(sorted(set(vertices)))
        for v in vertices:
            if not isinstance(v, str) or v.split() != [v]:
                raise ValueError(f"bad vertex name {v!r}")
        self.vertices = vertices
        index = {v: i for i, v in enumerate(vertices)}
        seen = set()
        for e in edges:
            src, dst, lab = e
            if src not in index or dst not in index:
                raise ValueError(f"edge {e!r} uses undeclared vertex")
            if lab not in alphabet:
                raise ValueError(f"edge {e!r} uses undeclared symbol")
            if e in seen:
                raise ValueError(f"duplicate edge {e!r}")
            seen.add(e)
        self.edges = tuple(
            sorted(seen, key=lambda e: (e[0], alphabet.index(e[2]), e[1]))
        )
        out = {v: [] for v in vertices}
        in_deg = {v: 0 for v in vertices}
        for src, dst, lab in self.edges:
            out[src].append((lab, dst))
            in_deg[dst] += 1
        self._out = out
        self._in_deg = in_deg
        self._index = index  # vertex -> its bit in a vertex mask
        self._stepper = None  # built by the first graph_stepper call

    def __eq__(self, other):
        return (
            isinstance(other, LabeledGraph)
            and self.alphabet == other.alphabet
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.alphabet, self.vertices, self.edges))

    def __repr__(self):
        return f"LabeledGraph({len(self.vertices)} vertices, {len(self.edges)} edges)"

    def out_edges(self, v):
        """(label, target) pairs leaving v, sorted by label then target."""
        return self._out[v]

    def step(self, v, label) -> tuple:
        """Targets of label-edges leaving v (sorted tuple, possibly empty)."""
        return tuple(dst for lab, dst in self._out.get(v, ()) if lab == label)

    def to_text(self) -> str:
        lines = ["alphabet " + " ".join(self.alphabet.symbols)]
        lines += [f"vertex {v}" for v in self.vertices]
        lines += [f"edge {src} {dst} {lab}" for src, dst, lab in self.edges]
        return "\n".join(lines) + "\n"


def parse_graph(text: str, path: str = "") -> LabeledGraph:
    """Parse the plain-text graph format.

    One declaration per line: `alphabet ...`, `vertex NAME`,
    `edge SRC DST LABEL`.  `#` starts a comment.  Parsing is strict:
    unknown keywords, undeclared names, and duplicates are errors
    with line numbers.
    """
    alphabet = None
    vertices = []
    vset = set()
    edges = []
    eset = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kw, args = fields[0], fields[1:]
        if kw == "alphabet":
            if alphabet is not None:
                raise ParseError("duplicate alphabet line", lineno, path)
            if not args:
                raise ParseError("empty alphabet", lineno, path)
            try:
                alphabet = Alphabet(args)
            except ValueError as e:
                raise ParseError(str(e), lineno, path)
        elif kw == "vertex":
            if len(args) != 1:
                raise ParseError("vertex takes one name", lineno, path)
            if args[0] in vset:
                raise ParseError(f"duplicate vertex {args[0]}", lineno, path)
            vset.add(args[0])
            vertices.append(args[0])
        elif kw == "edge":
            if len(args) != 3:
                raise ParseError("edge takes SRC DST LABEL", lineno, path)
            src, dst, lab = args
            if alphabet is None:
                raise ParseError("edge before alphabet", lineno, path)
            if src not in vset:
                raise ParseError(f"undeclared vertex {src}", lineno, path)
            if dst not in vset:
                raise ParseError(f"undeclared vertex {dst}", lineno, path)
            if lab not in alphabet:
                raise ParseError(f"undeclared symbol {lab}", lineno, path)
            e = (src, dst, lab)
            if e in eset:
                raise ParseError(f"duplicate edge {line}", lineno, path)
            eset.add(e)
            edges.append(e)
        else:
            raise ParseError(f"unknown keyword {kw!r}", lineno, path)
    if alphabet is None:
        raise ParseError("missing alphabet line", 0, path)
    return LabeledGraph(alphabet, vertices, edges)


def load_graph(path) -> LabeledGraph:
    with open(path, encoding="utf-8") as f:
        return parse_graph(f.read(), str(path))


def trim_to_essential(g: LabeledGraph) -> LabeledGraph:
    """Maximal subgraph where every vertex has an in- and an out-edge:
    the vertices reachable from a cycle that also reach a cycle.

    Idempotent; the result may be empty (a legal presentation of the
    empty shift).
    """
    succ = {v: [dst for _, dst in g._out[v]] for v in g.vertices}
    pred = {v: [] for v in g.vertices}
    for src, dst, _ in g.edges:
        pred[dst].append(src)
    cyclic = [
        v
        for comp in strong_components(g.vertices, succ.__getitem__)
        if len(comp) > 1 or comp[0] in succ[comp[0]]
        for v in comp
    ]
    alive = reach(cyclic, succ.__getitem__) & reach(cyclic, pred.__getitem__)
    if len(alive) == len(g.vertices):
        return g
    edges = [e for e in g.edges if e[0] in alive and e[1] in alive]
    return LabeledGraph(g.alphabet, alive, edges)


def is_essential(g: LabeledGraph) -> bool:
    return all(
        g._out[v] and g._in_deg[v] > 0 for v in g.vertices
    )


def require_essential(g: LabeledGraph):
    if not is_essential(g):
        raise NotEssentialError("graph has a stranded vertex; trim_to_essential first")


def is_irreducible(g: LabeledGraph) -> bool:
    """True iff the graph is strongly connected (and non-empty)."""
    comps = strong_components(g.vertices, lambda v: [dst for _, dst in g._out[v]])
    return len(comps) == 1


def strong_components(nodes, succ) -> list:
    """Strongly connected components of the graph on `nodes` whose
    successors are `succ(node)`, each a list, in the order Tarjan's
    algorithm closes them: a component comes after every component it
    reaches.  Iterative, so a long path meets no recursion limit."""
    index, low, stack, comps = {}, {}, [], []
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(succ(root)))]
        while work:
            v, it = work[-1]
            for w in it:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    work.append((w, iter(succ(w))))
                    break
                # a node of a closed component has index inf: no effect
                if index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        index[w] = math.inf
                        comp.append(w)
                        if w == v:
                            break
                    comps.append(comp)
    return comps


def reachable(starts, succ):
    """Every node reachable from `starts` (included) along `succ`, each
    yielded once, as soon as it is first seen: a caller that stops at
    the first match has stepped no more nodes than it needed."""
    seen = set()
    todo = []
    for s in starts:
        if s not in seen:
            seen.add(s)
            todo.append(s)
            yield s
    while todo:
        for t in succ(todo.pop()):
            if t not in seen:
                seen.add(t)
                todo.append(t)
                yield t


def reach(starts, succ) -> set:
    """Every node reachable from `starts` (included) along `succ`."""
    return set(reachable(starts, succ))


def bfs(start, moves):
    """(least word, state) for every state reachable from `start`, in
    breadth-first discovery order, where `moves(state)` lists the
    (symbol, successor) pairs in symbol order.  The word is the
    length-lexicographically least one leading to the state.  A state
    is yielded as soon as it is discovered, before the search steps
    another state, so a caller that stops at the first match has
    stepped no more states than it needed."""
    yield (), start
    seen = {start}
    queue = deque([((), start)])
    while queue:
        word, s = queue.popleft()
        for sym, t in moves(s):
            if t not in seen:
                seen.add(t)
                w = word + (sym,)
                yield w, t
                queue.append((w, t))


class Stepper(NamedTuple):
    """A language as a deterministic walk.

    `start` is the state before any symbol and `step(state, sym)` the
    state after one more symbol, or None once the word is dead.  None
    is never a live state (an empty Dyck stack `()` is live), and a
    stepper whose start is None reads nothing, not even the empty word.
    `step` is a plain function, so a walk pays no method dispatch per
    symbol.  The subset walks of `mask_stepper` and `graph_stepper`
    have int states, vertex sets as bit masks.
    """

    alphabet: Alphabet
    start: object
    step: Callable

    def at(self, state) -> "Stepper":
        """The same walk restarted at `state`."""
        return Stepper(self.alphabet, state, self.step)

    def moves(self, state):
        """(symbol, successor) for each symbol that keeps the word live,
        in alphabet order: the shape `bfs` expects."""
        step = self.step
        for sym in self.alphabet.symbols:
            t = step(state, sym)
            if t is not None:
                yield sym, t


# bin(mask) digits -> selector bytes for compress
_BIT_SELECTORS = bytes.maketrans(b"01", b"\0\1")


def _bits(mask: int) -> bytes:
    """One selector byte per bit of the mask, lowest bit first."""
    return bin(mask)[:1:-1].encode().translate(_BIT_SELECTORS)


def mask_stepper(alphabet: Alphabet, succ: dict, start: int) -> Stepper:
    """The subset walk of a finite automaton: a state is the int mask of
    the automaton states some run reading the word so far can end at,
    where succ[sym][i] is the mask of the sym-successors of state i.

    This is the package's one subset step.  A step ORs the successor
    masks of the state's set bits, taking the lowest set bit off until
    none is left."""

    def step(s, sym):
        row = succ.get(sym)
        if row is None:
            return None
        t = 0
        while s:
            low = s & -s
            t |= row[low.bit_length() - 1]
            s ^= low
        return t or None

    return Stepper(alphabet, start or None, step)


def graph_stepper(g: LabeledGraph) -> Stepper:
    """The subset walk of g from every vertex: a state is the mask of
    the vertices some path reading the word so far can end at, bit i
    standing for g.vertices[i] (see `vertex_mask`, `mask_vertices`).
    The successor masks are built on the first call and kept with the
    graph, so a graph that is only printed holds none."""
    if g._stepper is None:
        index = g._index
        succ = {lab: [0] * len(index) for lab in g.alphabet}
        for src, dst, lab in g.edges:
            succ[lab][index[src]] |= 1 << index[dst]
        g._stepper = mask_stepper(g.alphabet, succ, (1 << len(index)) - 1)
    return g._stepper


def vertex_mask(g: LabeledGraph, vertices) -> int:
    """The mask of a collection of g's vertices."""
    return sum(1 << g._index[v] for v in set(vertices))


def mask_vertices(g: LabeledGraph, mask: int) -> tuple:
    """The vertices of a mask, in g's (sorted) vertex order."""
    return tuple(compress(g.vertices, _bits(mask)))


def memoized(st: Stepper) -> Stepper:
    """The same walk with each (state, symbol) step computed once, for
    searches that step the same states many times.  The memo lives as
    long as the returned stepper."""
    memo = {}
    step = st.step

    def cached(s, sym):
        t = memo.get((s, sym), False)
        if t is False:
            t = memo[s, sym] = step(s, sym)
        return t

    return Stepper(st.alphabet, st.start, cached)


def walk(st: Stepper, w: Block):
    """The state reached by reading w from st.start, or None if w dies."""
    state, step = st.start, st.step
    for sym in w:
        if state is None:
            break
        state = step(state, sym)
    return state


def iter_blocks(st: Stepper, n: int):
    """(word, state reached) for every length-n word readable from
    st.start, in lexicographic order.  Depth-first in alphabet order,
    so a dead prefix is never extended."""
    if st.start is None:
        return
    if n == 0:
        yield (), st.start
        return
    symbols, step = st.alphabet.symbols, st.step
    word, states, todo = [], [st.start], [iter(symbols)]
    while todo:
        for sym in todo[-1]:
            nxt = step(states[-1], sym)
            if nxt is None:
                continue
            if len(states) == n:
                yield (*word, sym), nxt
            else:
                word.append(sym)
                states.append(nxt)
                todo.append(iter(symbols))
                break
        else:
            todo.pop()
            states.pop()
            if word:
                word.pop()


def first_divergence(a: Stepper, b: Stepper, max_len=None):
    """Length-lexicographically least word readable from a.start but not
    from b.start (symbols in a's alphabet order), or None if there is
    none of length <= max_len.

    Breadth-first over pairs of states, each pair expanded once, so the
    search is exact at every bound and, with max_len None, decides
    inclusion outright whenever the reachable pairs are finite.  When
    both walks share one step function, equal states read equal words,
    so a pair of equal states is never expanded.
    """
    if a.start is None:
        return None
    if b.start is None:
        return ()
    symbols, step_a, step_b = a.alphabet.symbols, a.step, b.step
    shared = step_a is step_b
    if shared and a.start == b.start:
        return None
    seen = {(a.start, b.start)}
    layer = [((), a.start, b.start)]
    depth = 0
    while layer and (max_len is None or depth < max_len):
        depth += 1
        nxt = []
        for word, s, t in layer:
            for sym in symbols:
                s2 = step_a(s, sym)
                if s2 is None:
                    continue
                t2 = step_b(t, sym)
                if t2 is None:
                    return word + (sym,)
                if (s2, t2) not in seen and not (shared and s2 == t2):
                    seen.add((s2, t2))
                    nxt.append((word + (sym,), s2, t2))
        layer = nxt
    return None


def follower_equal(a: Stepper, b: Stepper, horizon=None) -> bool:
    """Do a.start and b.start read the same words up to length `horizon`
    (every length when None)?"""
    return (
        first_divergence(a, b, horizon) is None
        and first_divergence(b, a, horizon) is None
    )


def image_set(g: LabeledGraph, w: Block, start=None) -> tuple:
    """Vertices reachable from `start` along a path labeled w (sorted).

    `start` defaults to all vertices; an empty result means w is not
    admissible from `start`.
    """
    st = graph_stepper(g)
    if start is not None:
        st = st.at(vertex_mask(g, start) or None)
    return mask_vertices(g, walk(st, w) or 0)


def is_admissible(g: LabeledGraph, w: Block) -> bool:
    return walk(graph_stepper(g), w) is not None


def iter_admissible_blocks(g: LabeledGraph, n: int):
    """Length-n admissible blocks in lexicographic order."""
    for w, _ in iter_blocks(graph_stepper(g), n):
        yield w


def blocks_of_length(g: LabeledGraph, n: int) -> list:
    """B_n of the presented shift, sorted lexicographically."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return list(iter_admissible_blocks(trim_to_essential(g), n))


def is_right_resolving(g: LabeledGraph) -> bool:
    """No vertex has two out-edges with the same label."""
    for v in g.vertices:
        labs = [lab for lab, _ in g._out[v]]
        if len(labs) != len(set(labs)):
            return False
    return True


def count_blocks(g: LabeledGraph, n: int) -> int:
    """|B_n| of the presented shift via the deterministic subset
    automaton of its essential part.

    Rejects a non-right-resolving essential part: the operation's
    contract is a determinism cross-check, not a path count.
    """
    g = trim_to_essential(g)
    if not is_right_resolving(g):
        raise NotRightResolvingError(
            "count_blocks requires a right-resolving presentation"
        )
    if n < 0:
        raise ValueError("n must be >= 0")
    st = graph_stepper(g)
    if st.start is None:
        return 0
    counts = {st.start: 1}
    for _ in range(n):
        nxt = {}
        for subset, c in counts.items():
            for sym in g.alphabet:
                key = st.step(subset, sym)
                if key is not None:
                    nxt[key] = nxt.get(key, 0) + c
        counts = nxt
    return sum(counts.values())


@dataclass(frozen=True)
class Point:
    """Eventually periodic bi-infinite sequence.

    Denotes (left)^inf . center . (right)^inf read at a shifted origin:
    coordinate i of the point is symbol (i + offset) of the rigid
    sequence whose index 0 sits at the first symbol of center (or of
    right when center is empty).  The offset field is what makes the
    shift map total: shifting the rigid form by one is in general not
    expressible by rotating the periods.
    """

    left: Block
    center: Block
    right: Block
    offset: int = 0

    def __post_init__(self):
        if not self.left or not self.right:
            raise ValueError("periodic tails must be non-empty")


def point_symbol(p: Point, i: int) -> str:
    j = i + p.offset
    c = len(p.center)
    if 0 <= j < c:
        return p.center[j]
    if j >= c:
        return p.right[(j - c) % len(p.right)]
    return p.left[j % len(p.left)]


def point_window(p: Point, i: int, j: int) -> Block:
    """The block p_i p_{i+1} ... p_j."""
    if i > j:
        raise ValueError("window requires i <= j")
    return tuple(point_symbol(p, t) for t in range(i, j + 1))


def shift(p: Point, k: int) -> Point:
    """The k-fold shift: coordinate i of the result is p_{i+k}."""
    return Point(p.left, p.center, p.right, p.offset + k)


def same_denotation(p: Point, q: Point) -> bool:
    """Exact equality of the denoted bi-infinite sequences.

    Two eventually periodic sequences agree everywhere iff they agree
    on a window covering both centers plus one least-common-multiple
    stretch of the periodic tails on each side.
    """
    lo = min(-p.offset, -q.offset)
    hi = max(-p.offset + len(p.center), -q.offset + len(q.center))
    lleft = math.lcm(len(p.left), len(q.left))
    lright = math.lcm(len(p.right), len(q.right))
    a, b = lo - lleft, hi + lright - 1
    return point_window(p, a, b) == point_window(q, a, b)
