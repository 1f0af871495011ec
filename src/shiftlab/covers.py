"""Follower-set determinization, Fischer covers, and synchronization.

The central tool is the subset automaton of a presentation: states are
the vertex sets reachable as image_set(g, w) over admissible w, and
an a-labeled edge maps S to image_set(g, a, S).  Its essential part is
a right-resolving presentation of the same shift, language classes of
its states decide follower-set equality exactly, and singleton images
detect synchronizing words.

Half-synchronizing verdicts are horizon-bounded by nature (the
definition quantifies over an infinite left-transitive ray); the
verdict records the horizon and, where the argument is horizon-free
(sofic language classes, Dyck signatures), an exact flag.
"""

import itertools
from dataclasses import dataclass
from typing import Optional

from .core import (
    Block,
    LabeledGraph,
    bfs,
    first_divergence,
    follower_equal,
    format_block,
    graph_stepper,
    image_set,
    is_admissible,
    is_irreducible,
    is_right_resolving,
    iter_admissible_blocks,
    iter_blocks,
    memoized,
    require_essential,
    strong_components,
    trim_to_essential,
    walk,
)
from .errors import (
    InadmissibleBlockError,
    NotIrreducibleError,
    NotRightResolvingError,
    SynchronizingWordNotFoundError,
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
    transitive_ray_prefix: Optional[Block] = None  # present iff holds
    refutation: Optional[Block] = None  # present iff refuted
    exact: bool = False  # follower comparison was horizon-free


def _subset_automaton(g):
    """Subsets reachable from the full vertex set, with transitions.

    Returns (order, trans): order lists the subsets in breadth-first
    discovery order starting at the full set; trans maps (S, symbol)
    to the image subset, omitting empty images.
    """
    st = graph_stepper(g)
    if st.start is None:
        return [], {}
    order = [st.start]
    seen = {st.start}
    trans = {}
    i = 0
    while i < len(order):
        s = order[i]
        i += 1
        for sym in g.alphabet:
            t = st.step(s, sym)
            if t is not None:
                trans[(s, sym)] = t
                if t not in seen:
                    seen.add(t)
                    order.append(t)
    return order, trans


def _set_name(s) -> str:
    return "{" + ",".join(sorted(s)) + "}"


def subset_cover(g: LabeledGraph) -> LabeledGraph:
    """Right-resolving presentation of the same shift via follower sets.

    Vertex names encode the underlying vertex sets.  The result is the
    essential part of the reachable subset automaton.
    """
    require_essential(g)
    order, trans = _subset_automaton(g)
    vertices = [_set_name(s) for s in order]
    edges = [
        (_set_name(s), _set_name(t), sym) for (s, sym), t in trans.items()
    ]
    return trim_to_essential(LabeledGraph(g.alphabet, vertices, edges))


def _moore_classes(order, trans, alphabet):
    """Language classes of deterministic states: trans maps (state,
    symbol) to the successor, omitting dead moves, and two states fall
    in one class iff exactly the same words are readable from them.
    Moore refinement from one class; dead successors are encoded as
    class -1 and ids are numbered in order of first appearance."""
    cls = {s: 0 for s in order}
    while True:
        sig_ids = {}
        new = {}
        for s in order:
            succ = []
            for sym in alphabet:
                t = trans.get((s, sym))
                succ.append(-1 if t is None else cls[t])
            sig = (cls[s], tuple(succ))
            if sig not in sig_ids:
                sig_ids[sig] = len(sig_ids)
            new[s] = sig_ids[sig]
        if new == cls:
            return cls
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


def _merge_by_partition(g: LabeledGraph, partition) -> LabeledGraph:
    """Quotient graph; each class is named by its least member."""
    rep = {}
    for grp in partition:
        name = min(grp)
        for v in grp:
            rep[v] = name
    edges = {(rep[src], rep[dst], lab) for src, dst, lab in g.edges}
    return LabeledGraph(g.alphabet, sorted(set(rep.values())), sorted(edges))


def find_synchronizing_word(g: LabeledGraph, max_len: int) -> Optional[Block]:
    """Length-lexicographically least non-empty admissible block whose
    image in the subset cover is a single vertex, or None if there is
    none of length <= max_len.

    `bfs` over the image sets of the subset cover yields each set with
    its least word, in that order.  It starts at a root before the
    first symbol, so in a one-vertex cover the start set, already a
    singleton, is still reached by a non-empty word.
    """
    require_essential(g)
    st = graph_stepper(subset_cover(g))
    if st.start is None:
        return None
    found = bfs(None, lambda s: st.moves(st.start if s is None else s))
    next(found)  # the root
    for word, s in found:
        if len(word) > max_len:
            return None
        if len(s) == 1:
            return word
    return None


def _first_dead_extension(st, live_set, dead_set, length):
    """Least word of exact `length` readable from live_set but not from
    dead_set, or None."""
    dead = st.at(dead_set)
    for w, _ in iter_blocks(st.at(live_set), length):
        if walk(dead, w) is None:
            return w
    return None


def is_synchronizing(g: LabeledGraph, v: Block, context_bound: int = 8) -> SyncVerdict:
    """Exact synchronizing-block test.

    v is synchronizing iff uv, vw admissible always implies uvw
    admissible; equivalently, iff the follower language after uv is
    independent of u.  The test compares language classes of v-images
    over every reachable subset, which is exact for any presentation,
    right-resolving or not.  context_bound only limits the refutation
    witness search: a NOT_SYNCHRONIZING verdict carries no witness when
    none has both context words within the bound.
    """
    require_essential(g)
    if not is_admissible(g, v):
        raise InadmissibleBlockError(f"inadmissible block {format_block(v)}")
    order, trans = _subset_automaton(g)
    cls = _moore_classes(order, trans, g.alphabet)
    st = memoized(graph_stepper(g))
    images = set()
    for s in order:
        t = walk(st.at(s), v)
        if t is not None:
            images.add(cls[t])
    if len(images) == 1:
        return SyncVerdict(SYNCHRONIZING)
    s_v = walk(st, v)
    for total in range(2, 2 * context_bound + 1):
        for lu in range(1, min(context_bound, total - 1) + 1):
            lw = total - lu
            if lw < 1 or lw > context_bound:
                continue
            for u, img_u in iter_blocks(st, lu):
                s_uv = walk(st.at(img_u), v)
                if s_uv is None:
                    continue
                w = _first_dead_extension(st, s_v, s_uv, lw)
                if w is not None:
                    return SyncVerdict(NOT_SYNCHRONIZING, witness=(u, w))
    return SyncVerdict(NOT_SYNCHRONIZING)


def fischer_cover(g: LabeledGraph) -> LabeledGraph:
    """Minimal right-resolving presentation of an irreducible sofic shift.

    Subset cover, then follower-set merging, then restriction to the
    follower sets of synchronizing words.  Those are reached from every
    state and closed under every symbol, so they form the one component
    no edge leaves, and Tarjan closes that component first.  Idempotent
    up to canonical isomorphism.
    """
    require_essential(g)
    if not is_irreducible(g):
        raise NotIrreducibleError("fischer_cover needs an irreducible presentation")
    sc = subset_cover(g)
    merged = _merge_by_partition(sc, follower_separation(sc))
    succ = {x: [dst for _, dst in merged.out_edges(x)] for x in merged.vertices}
    comp = set(strong_components(merged.vertices, succ.__getitem__)[0])
    edges = [e for e in merged.edges if e[0] in comp and e[1] in comp]
    return LabeledGraph(g.alphabet, comp, edges)


def canonical_form(g: LabeledGraph) -> LabeledGraph:
    """Canonical relabeling of a minimal right-resolving irreducible cover.

    The root is the (single) image vertex of the least synchronizing
    word; vertices are renamed in breadth-first discovery order from
    the root, following the alphabet order.  Two minimal covers are
    isomorphic iff their canonical forms are equal.
    """
    require_essential(g)
    if not is_irreducible(g):
        raise NotIrreducibleError("canonical_form needs an irreducible presentation")
    sc = subset_cover(g)
    alpha = find_synchronizing_word(g, max_len=len(sc.vertices))
    if alpha is None:
        raise SynchronizingWordNotFoundError(
            f"no synchronizing word of length <= {len(sc.vertices)}"
        )
    root_set = image_set(g, alpha)
    if len(root_set) != 1:
        raise ValueError(
            "input is not a minimal cover: its least synchronizing word"
            f" ends at {len(root_set)} vertices"
        )
    width = len(str(max(len(g.vertices) - 1, 1)))
    names = {
        x: f"{i:0{width}d}" for i, (_, x) in enumerate(bfs(root_set[0], g.out_edges))
    }
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


def _shortest_path_word(g, src, dst) -> Optional[Block]:
    """Least word labeling a path src -> dst (empty if src == dst)."""
    return next((w for w, y in bfs(src, g.out_edges) if y == dst), None)


def _connector_to_read(st, b) -> Block:
    """Least word d such that b is readable after d from st.start."""
    for d, s in bfs(st.start, st.moves):
        if walk(st.at(s), b) is not None:
            return d
    raise NotIrreducibleError("cannot reach every admissible block; graph not irreducible")


def _wrap_word(g, st, c) -> Block:
    """Least word d such that (c + d) labels a cycle somewhere, making
    the left-infinite repetition ...(c+d)(c+d) admissible."""
    best = None
    for x in g.vertices:
        for y in walk(st.at(frozenset([x])), c) or ():
            w = _shortest_path_word(g, y, x)
            if w is None:
                continue
            key = (len(w), tuple(g.alphabet.index(s) for s in w))
            if best is None or key < best[0]:
                best = (key, w)
    if best is None:
        raise NotIrreducibleError("no cyclic return path; graph not irreducible")
    return best[1]


def _half_sync_sofic(o, m, horizon) -> HalfSyncVerdict:
    g = o.graph
    if not is_irreducible(g):
        raise NotIrreducibleError("half-synchronization needs an irreducible presentation")
    depth = min(horizon, o.horizon_budget)
    blocks = list(iter_admissible_blocks(g, depth)) or [()]

    # weave: every admissible block at the transitivity depth, joined
    # by shortest connectors, read from the full vertex set
    st = memoized(o.stepper)
    parts = []
    s = st.start
    for b in blocks:
        d = _connector_to_read(st.at(s), b)
        parts.append(d)
        parts.append(b)
        s = walk(st.at(s), d + b)
    c = tuple(itertools.chain.from_iterable(parts))

    # make the weave cyclically repeatable and compute the stable
    # vertex set of the left-infinite repetition
    unit = c + _wrap_word(g, st, c)
    t = st.start
    reps = 0
    while True:
        t2 = walk(st.at(t), unit)
        reps += 1
        if t2 == t:
            break
        t = t2
    t_star = t

    order, trans = _subset_automaton(g)
    cls = _moore_classes(order, trans, g.alphabet)
    s_m = walk(st, m)
    target = cls[s_m]

    # shortest final connector from the stable set that aligns the
    # follower class of the ray with that of m
    f_match = None
    f_any = None
    for word, s in bfs(t_star, st.moves):
        img = walk(st.at(s), m)
        if img is not None:
            if f_any is None:
                f_any = (word, img)
            if cls[img] == target:
                f_match = (word, img)
                break

    if f_match is not None:
        prefix = unit * reps + f_match[0] + m
        return HalfSyncVerdict(HOLDS, m, horizon, transitive_ray_prefix=prefix, exact=True)
    assert f_any is not None, "m must be reachable, graph irreducible"
    t_eff = f_any[1]
    delta = first_divergence(st.at(s_m), st.at(t_eff))
    assert delta is not None, "classes differ, a separating word exists"
    if len(delta) <= horizon:
        return HalfSyncVerdict(REFUTED, m, horizon, refutation=delta)
    prefix = unit * reps + f_any[0] + m
    return HalfSyncVerdict(HOLDS, m, horizon, transitive_ray_prefix=prefix, exact=False)


def _half_sync_dyck(o, m, horizon) -> HalfSyncVerdict:
    depth = min(horizon, o.horizon_budget)
    blocks = list(oracle_blocks(o, depth)) or [()]
    closer_of = dict(o.pairs)

    def closers(stack):
        """Closers that empty the stack, top first."""
        return tuple(closer_of[sym] for sym in reversed(stack))

    parts = []
    stack = ()
    for b in blocks:
        parts.append(closers(stack))
        parts.append(b)
        stack = walk(o.stepper, b)
    parts.append(closers(stack))
    parts.append(m)
    prefix = tuple(itertools.chain.from_iterable(parts))
    # closing the stack before m gives the prefix the signature of m
    # itself, and equal signatures have equal follower sets at every
    # horizon, so the verdict is horizon-free
    assert walk(o.stepper, prefix) == walk(o.stepper, m)
    return HalfSyncVerdict(HOLDS, m, horizon, transitive_ray_prefix=prefix, exact=True)


def _half_sync_code(o, m, horizon) -> HalfSyncVerdict:
    depth = min(horizon, o.horizon_budget)
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
    assert b is not None, "constructed prefix must be admissible"
    delta = first_divergence(o.stepper.at(a), o.stepper.at(b), horizon)
    if delta is not None:
        return HalfSyncVerdict(REFUTED, m, horizon, refutation=delta)
    return HalfSyncVerdict(HOLDS, m, horizon, transitive_ray_prefix=prefix, exact=False)


def is_half_synchronizing(o: ShiftOracle, m: Block, horizon: int) -> HalfSyncVerdict:
    """Horizon-bounded test of the half-synchronizing block property.

    Constructs a left context that ends in m and contains every
    admissible block up to min(horizon, budget), then checks that
    every continuation of m up to the horizon also continues the
    constructed context.  The sofic check compares follower classes
    exactly and the Dyck check compares signatures, so their positive
    verdicts carry exact=True; code_list verdicts are window-based.
    """
    if not _admissible_unbounded(o, m):
        raise InadmissibleBlockError(f"inadmissible block {format_block(m)}")
    if o.kind == SOFIC:
        return _half_sync_sofic(o, m, horizon)
    if o.kind == DYCK:
        return _half_sync_dyck(o, m, horizon)
    return _half_sync_code(o, m, horizon)
