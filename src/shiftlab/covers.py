"""Follower-set determinization, Fischer covers, and synchronization.

The subset automaton's states are the vertex sets image_set(g, w) over
admissible w; an a-labeled edge maps S to image_set(g, a, S).  A state
is an int mask of g's vertices, stepped by `core.graph_stepper`, and is
turned into vertex names only where it is named or its vertices are
read.  Language classes come from Moore refinement over per-symbol
successor columns.  One construction, `_fischer_automaton`, merges by
language class the states of g itself when g is irreducible and
right-resolving, else those of the subset automaton's essential part,
and on irreducible g keeps the one component no edge leaves: the
Fischer automaton.  `fischer_cover` names
a class by its vertex set on right-resolving input, else by the least
subset-cover name among its sets.  One-class rule: v is synchronizing
iff walking v from every class ends in one class; `context_bound` limits
only the refutation witness.

Half-synchronization of a sofic block m is decided on a right-resolving
irreducible presentation P: g itself, or its Fischer cover.  A
left-transitive ray ending in m ends at one vertex v of P up to follower
equality, any v where m can end, and has the follower set F(v) (Lind &
Marcus 3.3).  Dominance: m holds exactly iff some such v has F(u) in
F(v) for every such u.  Refutation: otherwise each v has a least word
that m, but not the ray at v, can be followed by, and m is refuted iff
all of them are within the horizon; else it holds at the horizon only.
`resolve` builds P and its follower inclusion once per decision;
`check t33` resolves each side once.

A holding verdict carries the length of a transitive-ray prefix, a word
ending in m that contains every admissible block of length
min(horizon, budget); `ray_prefix` builds the word on demand.  The Dyck
length is counted by a DP over stack depth, the sofic one summed from
the parts of its construction.
"""

import itertools
from dataclasses import dataclass, replace
from typing import Optional

from .core import (
    Block,
    LabeledGraph,
    Stepper,
    bfs,
    first_divergence,
    follower_equal,
    format_block,
    graph_stepper,
    is_admissible,
    is_irreducible,
    is_right_resolving,
    iter_admissible_blocks,
    iter_blocks,
    mask_stepper,
    mask_vertices,
    memoized,
    require_essential,
    strong_components,
    trim_to_essential,
    vertex_mask,
    walk,
)
from .errors import (
    InadmissibleBlockError,
    InvariantError,
    NotIrreducibleError,
    NotRightResolvingError,
)
from .oracle import (
    DYCK,
    SOFIC,
    ShiftOracle,
    _admissible_unbounded,
    _embed_in_concatenation,
    oracle_blocks,
)

SYNCHRONIZING = "synchronizing"
NOT_SYNCHRONIZING = "not_synchronizing"
HOLDS = "holds_at_horizon"
REFUTED = "refuted"


@dataclass(frozen=True)
class SyncVerdict:
    status: str
    witness: Optional[tuple] = None  # (u, w) with uv, vw admissible, uvw not


@dataclass(frozen=True)
class HalfSyncVerdict:
    status: str
    block: Block
    horizon: int
    prefix_length: Optional[int] = None  # iff holds: len(ray_prefix(o, block, horizon))
    refutation: Optional[Block] = None  # present iff refuted
    exact: bool = False  # follower comparison was horizon-free


def _subset_automaton(g):
    """Subsets reachable from the full vertex set, with transitions.

    Returns (order, trans): order lists the subsets, as `graph_stepper`
    masks, in breadth-first discovery order starting at the full set;
    trans maps (S, symbol) to the image subset, omitting empty images.
    """
    st = graph_stepper(g)
    if st.start is None:
        return [], {}
    step, symbols = st.step, g.alphabet.symbols
    order = [st.start]
    seen = {st.start}
    trans = {}
    for s in order:
        for sym in symbols:
            t = step(s, sym)
            if t is not None:
                trans[s, sym] = t
                if t not in seen:
                    seen.add(t)
                    order.append(t)
    return order, trans


def _essential_subsets(g):
    """(states, trans) of the subset automaton, its states cut to those
    on or after a cycle, the states long words reach, in discovery
    order: peeling the states no edge enters leaves exactly those."""
    order, trans = _subset_automaton(g)
    indeg = dict.fromkeys(order, 0)
    for t in trans.values():
        indeg[t] += 1
    todo = [s for s in order if not indeg[s]]
    while todo:
        s = todo.pop()
        for t in filter(None, (trans.get((s, sym)) for sym in g.alphabet)):
            indeg[t] -= 1
            if not indeg[t]:
                todo.append(t)
    return [s for s in order if indeg[s]], trans


def _set_name(vertices) -> str:
    """The name of a set of vertices, listed in sorted order."""
    return "{" + ",".join(vertices) + "}"


def subset_cover(g: LabeledGraph) -> LabeledGraph:
    """Right-resolving presentation of the same shift via follower sets.

    Vertex names encode the underlying vertex sets.  The result is the
    essential part of the reachable subset automaton.
    """
    require_essential(g)
    order, trans = _essential_subsets(g)
    name = {s: _set_name(mask_vertices(g, s)) for s in order}
    edges = [(name[s], name[t], sym)
             for s in order for sym in g.alphabet.symbols if (t := trans.get((s, sym)))]
    return LabeledGraph(g.alphabet, name.values(), edges)


def _moore_classes(order, trans, alphabet):
    """Language classes of deterministic states: trans maps (state,
    symbol) to the successor, omitting dead moves, and two states fall
    in one class iff exactly the same words are readable from them.
    Moore refinement from one class over state indices, where a dead
    successor is the extra index n, of class -1; ids are numbered in
    order of first appearance.  A round reads the successor classes
    column by column, one column per symbol, and stops early once every
    state is alone in its class."""
    n = len(order)
    index = {s: i for i, s in enumerate(order)}
    cols = [[index.get(trans.get((s, sym)), n) for s in order] for sym in alphabet]
    cls = [0] * n + [-1]
    while True:
        get = cls.__getitem__
        sig_ids = {}
        new = [sig_ids.setdefault(sig, len(sig_ids)) for sig in zip(cls, *[map(get, col) for col in cols])]
        new.append(-1)
        if new == cls or len(sig_ids) == n:
            return dict(zip(order, new))
        cls = new


def follower_separation(g: LabeledGraph):
    """Coarsest partition of vertices by equality of follower languages.

    Requires a right-resolving presentation; computed by iterated
    refinement from the out-label signature.
    """
    require_essential(g)
    if not is_right_resolving(g):
        raise NotRightResolvingError("follower_separation needs right-resolving input")
    step = {(v, lab): dst for v in g.vertices for lab, dst in g.out_edges(v)}
    cls = _moore_classes(g.vertices, step, g.alphabet)
    groups = {}
    for v in g.vertices:
        groups.setdefault(cls[v], []).append(v)
    return tuple(tuple(sorted(grp)) for grp in sorted(groups.values()))


def _fischer_automaton(g: LabeledGraph):
    """The follower quotient of a deterministic automaton for the
    essential g: (moves, members), moves mapping each language class to
    its {symbol: class} and members listing each class's states.  The
    automaton is g itself when g is irreducible and right-resolving, else
    `_essential_subsets`.  On irreducible g the quotient is cut to the
    component Tarjan closes first, the one no edge leaves: it holds the
    follower set of a synchronizing word, which every class reaches, so
    it is the Fischer automaton (Lind & Marcus 3.3).
    """
    irreducible = is_irreducible(g)
    if irreducible and is_right_resolving(g):
        order = g.vertices
        trans = {(v, lab): dst for v in order for lab, dst in g.out_edges(v)}
    else:
        order, trans = _essential_subsets(g)
    cls = _moore_classes(order, trans, g.alphabet)
    moves = {cls[s]: {a: cls[t] for a in g.alphabet if (t := trans.get((s, a)))} for s in order}
    members = {}
    for s in order:
        members.setdefault(cls[s], []).append(s)
    if irreducible:
        comp = strong_components(moves, lambda c: moves[c].values())[0]
        moves = {c: moves[c] for c in comp}
    return moves, members


def _nonempty_images(st: Stepper):
    """(least word, state) for every state st reaches by a non-empty
    word, in `bfs` order.  The search starts at a root before the first
    symbol, so the start state comes only if a non-empty word leads
    back to it."""
    if st.start is None:
        return
    found = bfs(None, lambda s: st.moves(st.start if s is None else s))
    next(found)  # the root
    yield from found


def find_synchronizing_word(g: LabeledGraph, max_len: int) -> Optional[Block]:
    """Length-lexicographically least non-empty admissible block whose
    image in the subset cover is a single vertex, or None if there is
    none of length <= max_len.  `bfs` over the image sets of the subset
    cover yields each set with its least word, in that order; an image
    set is walked as a mask over the `_essential_subsets` states that
    are the cover's vertices, so the named cover is never built.
    """
    require_essential(g)
    order, trans = _essential_subsets(g)
    index = {s: i for i, s in enumerate(order)}
    succ = {
        sym: [1 << index[t] if (t := trans.get((s, sym))) else 0 for s in order]
        for sym in g.alphabet.symbols
    }
    for word, s in _nonempty_images(mask_stepper(g.alphabet, succ, (1 << len(order)) - 1)):
        if len(word) > max_len:
            return None
        if s & (s - 1) == 0:
            return word
    return None


def is_synchronizing(g: LabeledGraph, v: Block, context_bound: int = 8) -> SyncVerdict:
    """Exact synchronizing-block test, for every essential presentation.

    v is synchronizing iff uv, vw admissible always implies uvw
    admissible: by the one-class rule, iff walking v from every class of
    `_fischer_automaton` ends in one class.  context_bound limits only
    the witness, the least (u, w) by (|u| + |w|, |u|, u, w) with both of
    1 to context_bound symbols, absent when no such pair exists.
    Per set T that uv reaches, the least u comes first in a bfs over
    image sets, and the least w is a first divergence from T after v.
    """
    require_essential(g)
    if not is_admissible(g, v):
        raise InadmissibleBlockError(f"inadmissible block {format_block(v)}")
    moves, _ = _fischer_automaton(g)
    classes = Stepper(g.alphabet, None, lambda c, sym: moves[c].get(sym))
    if len({walk(classes.at(c), v) for c in moves} - {None}) == 1:
        return SyncVerdict(SYNCHRONIZING)
    st = memoized(graph_stepper(g))
    after_v = st.at(walk(st, v))
    key = g.alphabet.block_key
    found, seen = [], set()
    for u, s in _nonempty_images(st):
        if len(u) > context_bound or found and len(u) + 1 > min(found)[0]:
            break
        t = walk(st.at(s), v)
        if t is not None and t not in seen:
            seen.add(t)
            if (w := first_divergence(after_v, st.at(t), context_bound)) is not None:
                found.append((len(u) + len(w), key(u), key(w), (u, w)))
    return SyncVerdict(NOT_SYNCHRONIZING, witness=min(found)[3] if found else None)


def fischer_cover(g: LabeledGraph) -> LabeledGraph:
    """Minimal right-resolving presentation of an irreducible sofic shift:
    the follower quotient of `_fischer_automaton`, with named vertices.

    On right-resolving input a class of vertices is named by its vertex
    set, as `{A,C}`; otherwise a class of vertex sets is named by the
    least subset-cover name among them.  Idempotent up to canonical
    isomorphism.  `is_synchronizing` applies the one-class rule to the
    same quotient; its context_bound limits only the witness.
    """
    require_essential(g)
    if not is_irreducible(g):
        raise NotIrreducibleError("fischer_cover needs an irreducible presentation")
    moves, members = _fischer_automaton(g)
    if is_right_resolving(g):
        name = {c: _set_name(members[c]) for c in moves}
    else:
        name = {c: min(_set_name(mask_vertices(g, s)) for s in members[c]) for c in moves}
    edges = [(name[c], name[t], sym) for c, row in moves.items() for sym, t in row.items()]
    return LabeledGraph(g.alphabet, name.values(), edges)


def canonical_form(g: LabeledGraph) -> LabeledGraph:
    """Canonical relabeling of a minimal right-resolving irreducible cover.

    The root is the one vertex the least non-empty word that focuses g
    leads to; vertices are renamed in breadth-first discovery order from
    the root, following the alphabet order.  Two minimal covers are
    isomorphic iff their canonical forms are equal.  Input that is not
    right-resolving and follower-separated raises ValueError.
    """
    require_essential(g)
    if not is_irreducible(g):
        raise NotIrreducibleError("canonical_form needs an irreducible presentation")
    if not is_right_resolving(g) or any(len(c) > 1 for c in follower_separation(g)):
        raise ValueError("input is not a minimal cover: not right-resolving or not follower-separated")
    # a right-resolving follower-separated graph has a focusing word
    # (Lind & Marcus 3.3.16), and bfs visits every image set
    focused = next(s for _, s in _nonempty_images(graph_stepper(g)) if s & (s - 1) == 0)
    (root,) = mask_vertices(g, focused)
    width = len(str(max(len(g.vertices) - 1, 1)))
    names = {x: f"{i:0{width}d}" for i, (_, x) in enumerate(bfs(root, g.out_edges))}
    edges = [(names[src], names[dst], lab) for src, dst, lab in g.edges]
    return LabeledGraph(g.alphabet, names.values(), edges)


def isomorphic_minimal(g1: LabeledGraph, g2: LabeledGraph) -> bool:
    return canonical_form(g1) == canonical_form(g2)


def languages_equal(g1: LabeledGraph, g2: LabeledGraph) -> bool:
    """Exact language equality of two presentations over one alphabet,
    for every presentation, reducible or not.

    The blocks of a shift are the words readable in the essential part
    of its graph, so the shifts are equal iff no word is readable from
    the full vertex set of one essential part and not the other: a
    first_divergence search both ways over pairs of subset states.
    """
    g1 = trim_to_essential(g1)
    g2 = trim_to_essential(g2)
    if g1.alphabet != g2.alphabet:
        return False
    return follower_equal(graph_stepper(g1), graph_stepper(g2))


def _follower_inclusion(p: LabeledGraph) -> set:
    """Pairs (u, v) of vertices of the right-resolving p with F(u) in
    F(v): the greatest relation where each move of u is matched by v
    on its symbol into a related pair.  A refuted pair refutes each pair
    stepping into it, so every (pair, symbol) is seen once: O(n^2 k)."""
    labels = {v: {lab for lab, _ in p.out_edges(v)} for v in p.vertices}
    pred = {v: {} for v in p.vertices}  # vertex -> label -> sources
    for src, dst, lab in p.edges:
        pred[dst].setdefault(lab, []).append(src)
    pairs = list(itertools.product(p.vertices, repeat=2))
    rel = {(u, v) for u, v in pairs if labels[u] <= labels[v]}
    todo = [pair for pair in pairs if pair not in rel]
    while todo:
        x, y = todo.pop()
        for sym, us in pred[x].items():
            for v in pred[y].get(sym, ()):
                for u in us:
                    if (u, v) in rel:
                        rel.remove((u, v))
                        todo.append((u, v))
    return rel


@dataclass(frozen=True)
class Resolved:
    """P, its subset stepper, and the pairs (u, v) with F(u) in F(v)."""
    graph: LabeledGraph
    stepper: Stepper
    inclusion: frozenset


def resolve(g: LabeledGraph) -> Resolved:
    """P for the essential, irreducible g: g itself when right-resolving,
    else its Fischer cover."""
    if not is_irreducible(g):
        raise NotIrreducibleError("half-synchronization needs an irreducible presentation")
    p = g if is_right_resolving(g) else fischer_cover(g)
    return Resolved(p, graph_stepper(p), frozenset(_follower_inclusion(p)))


def _half_sync_sofic(r: Resolved, m: Block, horizon: int):
    """The sofic decision (see the module docstring) on r: (verdict
    without prefix, ends), where ends are the vertices of P whose rays
    agree with m, exactly or to the horizon.  A refutation is the
    length-lex greatest least separating word."""
    p, st = r.graph, r.stepper
    after_m = st.at(walk(st, m))
    image = mask_vertices(p, after_m.start)
    ends = {v for v in image if all((u, v) in r.inclusion for u in image)}
    if ends:
        return HalfSyncVerdict(HOLDS, m, horizon, exact=True), ends
    sep = {v: first_divergence(after_m, st.at(vertex_mask(p, [v])), horizon) for v in image}
    ends = {v for v, d in sep.items() if d is None}
    if ends:
        return HalfSyncVerdict(HOLDS, m, horizon), ends
    worst = max(sep.values(), key=p.alphabet.block_key)
    return HalfSyncVerdict(REFUTED, m, horizon, refutation=worst), ends


def _ray_parts(p: LabeledGraph, m: Block, depth: int, ends):
    """(unit, reps, f) such that unit * reps + f + m is a word of p that
    contains every admissible block of length `depth` and ends in an m
    that ends in `ends`.  The blocks, joined by least connectors and
    closed into a cycle by the least return word, make a unit, repeated
    until the vertex set it reaches is stable; f is the least word from
    there to such an m."""
    st = memoized(graph_stepper(p))
    parts, s = [], st.start
    for b in iter_admissible_blocks(p, depth):
        d = next(d for d, x in bfs(s, st.moves) if walk(st.at(x), b) is not None)
        parts += [d, b]
        s = walk(st.at(s), d + b)
    c = tuple(itertools.chain.from_iterable(parts))
    returns = (
        next(w for w, z in bfs(y, p.out_edges) if z == x)
        for x in p.vertices
        for y in mask_vertices(p, walk(st.at(vertex_mask(p, [x])), c) or 0)
    )
    unit = c + min(returns, key=p.alphabet.block_key)
    t, reps = st.start, 1
    while (t2 := walk(st.at(t), unit)) != t:
        t, reps = t2, reps + 1
    end_mask = vertex_mask(p, ends)
    f = next(w for w, x in bfs(t, st.moves) if (walk(st.at(x), m) or 0) & end_mask)
    return unit, reps, f


def _dyck_counts(r: int, n: int):
    """(N, total depth) over the N admissible length-n blocks of the
    Dyck shift on r pairs, the depth of a block being the size of its
    stack of unmatched openers.  A DP over depth, O(n^2): at depth 0
    the r openers go one deeper and the r closers, matching the unseen
    past, stay; at depth d > 0 the r openers go one deeper and the one
    matching closer one shallower."""
    counts = [1]  # counts[d]: blocks so far that end at depth d
    for _ in range(n):
        nxt = [0] * (len(counts) + 1)
        nxt[0] = r * counts[0]
        for d, c in enumerate(counts):
            nxt[d + 1] += r * c
            if d:
                nxt[d - 1] += c
        counts = nxt
    return sum(counts), sum(d * c for d, c in enumerate(counts))


def _dyck_prefix(o, m, depth) -> Block:
    """Every admissible length-`depth` block in lexicographic order,
    each followed by the closers that empty its stack, then m: every
    part starts at the empty stack, so the word ends with m's
    signature, hence m's follower set at every horizon.  Its length is
    N * depth + total depth + |m| (see `_dyck_counts`)."""
    closer_of = dict(o.pairs)

    def closers(stack):
        """Closers that empty the stack, top first."""
        c = tuple(closer_of[sym] for sym in reversed(stack))
        if walk(o.stepper.at(stack), c) != ():
            raise InvariantError(f"{format_block(c)} does not empty the stack {format_block(stack)}")
        return c

    parts = []
    stack = ()
    for b, after in iter_blocks(o.stepper, depth):
        parts += [closers(stack), b]
        stack = after
    parts += [closers(stack), m]
    return tuple(itertools.chain.from_iterable(parts))


def _half_sync_code(o, m, horizon, depth):
    """(verdict, prefix or None when refuted): the window-based code-list
    decision, which compares m with the one prefix it constructs."""
    blocks = list(oracle_blocks(o, depth)) or [()]
    parts = []
    for b in blocks:
        alpha, beta = _embed_in_concatenation(o, b)
        parts += [alpha, b, beta]
    alpha_m, _ = _embed_in_concatenation(o, m)
    parts += [alpha_m, m]
    prefix = tuple(itertools.chain.from_iterable(parts))

    a = walk(o.stepper, m)
    b = walk(o.stepper, prefix)
    if b is None:
        raise InvariantError(f"the constructed prefix of {format_block(m)} is not admissible")
    delta = first_divergence(o.stepper.at(a), o.stepper.at(b), horizon)
    if delta is not None:
        return HalfSyncVerdict(REFUTED, m, horizon, refutation=delta), None
    return HalfSyncVerdict(HOLDS, m, horizon, prefix_length=len(prefix), exact=False), prefix


def _half_sync(o: ShiftOracle, m: Block, horizon: int):
    """(verdict, spell): the decision on any oracle kind, and a function
    that builds its prefix, or returns None when m is refuted."""
    if not _admissible_unbounded(o, m):
        raise InadmissibleBlockError(f"inadmissible block {format_block(m)}")
    depth = min(horizon, o.horizon_budget)
    if o.kind == DYCK:
        n, total_depth = _dyck_counts(len(o.pairs), depth)
        length = n * depth + total_depth + len(m)
        verdict = HalfSyncVerdict(HOLDS, m, horizon, prefix_length=length, exact=True)
        return verdict, lambda: _dyck_prefix(o, m, depth)
    if o.kind != SOFIC:
        verdict, prefix = _half_sync_code(o, m, horizon, depth)
        return verdict, lambda: prefix
    r = resolve(o.graph)
    verdict, ends = _half_sync_sofic(r, m, horizon)
    if verdict.status == REFUTED:
        return verdict, lambda: None
    unit, reps, f = _ray_parts(r.graph, m, depth, ends)
    length = len(unit) * reps + len(f) + len(m)
    return replace(verdict, prefix_length=length), lambda: unit * reps + f + m


def is_half_synchronizing(o: ShiftOracle, m: Block, horizon: int) -> HalfSyncVerdict:
    """Is m half-synchronizing: does some left-transitive ray ending in
    m have the follower set of m itself?

    Sofic oracles are decided by follower dominance on a right-resolving
    presentation (see `_half_sync_sofic`): holds exactly iff a vertex
    where m can end dominates every other such vertex; otherwise
    refuted iff every possible ray is separated from m by a word within
    the horizon, reporting the length-lex greatest of those least
    separating words, and else holds, not exactly.  Dyck verdicts
    compare signatures and are exact; code_list verdicts are
    window-based.  A holding verdict carries the length of its
    transitive-ray prefix, the word `ray_prefix` builds on demand: on
    Dyck oracles it is counted by `_dyck_counts`, no block enumerated.
    """
    return _half_sync(o, m, horizon)[0]


def ray_prefix(o: ShiftOracle, m: Block, horizon: int) -> Optional[Block]:
    """The transitive-ray prefix behind a holding verdict of
    `is_half_synchronizing(o, m, horizon)`, of its `prefix_length`
    symbols, or None when m is refuted: an admissible word ending in m
    that contains every admissible block of length min(horizon, budget)
    and, read as a word, is followed by what m is (at every length when
    the verdict is exact, else up to the horizon).
    """
    return _half_sync(o, m, horizon)[1]()
