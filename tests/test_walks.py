"""The shared language walks and graph searches against plain
enumeration.

Generated graphs include reducible and non-right-resolving ones, and
pairs built to share a language (a disjoint copy, a subgraph copy, a
transient vertex, an out-split) as well as unrelated pairs.
"""

import itertools
import random

import pytest

from brute import (
    concatenation_factor,
    dyck_admissible,
    essential_part,
    followers_equal,
    least_focusing_word,
    least_path_word,
    path_words,
    reachable,
    reads,
)
from shiftlab.core import (
    Alphabet,
    LabeledGraph,
    bfs,
    first_divergence,
    graph_stepper,
    image_set,
    is_irreducible,
    parse_graph,
    reach,
    strong_components,
    trim_to_essential,
)
from shiftlab.covers import (
    _merge_by_partition,
    find_synchronizing_word,
    fischer_cover,
    follower_separation,
    languages_equal,
    subset_cover,
)
from shiftlab.oracle import (
    code_list_oracle,
    dyck_oracle_rank,
    oracle_admissible,
    oracle_blocks,
    oracle_follower_equal,
    sofic_oracle,
)

BINARY = Alphabet(("0", "1"))


def _random_graph(rng, prefix):
    n = rng.randint(1, 4)
    vs = [f"{prefix}{i}" for i in range(n)]
    edges = set()
    for v in vs:
        for sym in BINARY:
            if rng.random() < 0.6:
                edges.add((v, rng.choice(vs), sym))
        if rng.random() < 0.2:  # a second edge with some label: not right-resolving
            edges.add((v, rng.choice(vs), rng.choice(BINARY.symbols)))
    return LabeledGraph(BINARY, vs, edges)


def _union(g, h):
    return LabeledGraph(BINARY, g.vertices + h.vertices, g.edges + h.edges)


def _renamed(g, prefix):
    return LabeledGraph(
        BINARY, [prefix + v for v in g.vertices],
        [(prefix + s, prefix + d, a) for s, d, a in g.edges],
    )


def _out_split(g, rng):
    """Split one vertex's out-edges between two copies that share its
    in-edges: same language, and in general not right-resolving."""
    v = rng.choice(g.vertices)
    copies = [v + "x", v + "y"]
    outs = [e for e in g.edges if e[0] == v]
    side = {e: rng.randrange(2) for e in outs}
    edges = []
    for s, d, a in g.edges:
        srcs = [copies[side[(s, d, a)]]] if s == v else [s]
        dsts = copies if d == v else [d]
        edges += [(x, y, a) for x in srcs for y in dsts]
    return LabeledGraph(BINARY, [u for u in g.vertices if u != v] + copies, edges)


def _pair(seed):
    rng = random.Random(seed)
    g = _random_graph(rng, "p")
    kind = seed % 5
    if kind == 0:
        h = _union(g, _renamed(g, "c"))
    elif kind == 1:
        sub = [e for e in g.edges if rng.random() < 0.6]
        h = _union(g, _renamed(LabeledGraph(BINARY, g.vertices, sub), "c"))
    elif kind == 2:
        h = LabeledGraph(BINARY, g.vertices + ("t",),
                         g.edges + (("t", g.vertices[0], "1"),))
    elif kind == 3:
        h = _out_split(g, rng)
    else:
        h = _random_graph(rng, "q")
    return g, h


def _successors(g):
    return lambda v: [t for _, t in g.out_edges(v)]


@pytest.mark.parametrize("seed", range(40))
def test_strong_components_against_mutual_reachability(seed):
    for g in _pair(seed):
        reach_of = {v: reachable(g, v) for v in g.vertices}
        comps = strong_components(g.vertices, _successors(g))
        assert sorted(v for c in comps for v in c) == list(g.vertices)
        for c in comps:
            for v in g.vertices:
                assert (v in c) == (v in reach_of[c[0]] and c[0] in reach_of[v])
        # closing order: a component comes after every component it reaches
        pos = {v: i for i, c in enumerate(comps) for v in c}
        assert all(pos[dst] <= pos[src] for src, dst, _ in g.edges)
        for v in g.vertices:
            assert reach([v], _successors(g)) == reach_of[v]


@pytest.mark.parametrize("seed", range(40))
def test_trim_to_essential_against_pruning(seed):
    for g in _pair(seed):
        alive, edges = essential_part(g)
        t = trim_to_essential(g)
        assert (set(t.vertices), set(t.edges)) == (alive, set(edges))


@pytest.mark.parametrize("seed", range(40))
def test_bfs_words_against_enumeration(seed):
    for g in _pair(seed):
        for src in g.vertices:
            found = list(bfs(src, g.out_edges))
            assert sorted(v for _, v in found) == sorted(reachable(g, src))
            keys = [g.alphabet.block_key(w) for w, _ in found]
            assert keys == sorted(keys)  # discovery order is length-lex order
            for w, v in found:
                assert w == least_path_word(g, src, v)


@pytest.mark.parametrize("seed", range(40))
def test_find_synchronizing_word_against_enumeration(seed):
    for g in map(trim_to_essential, _pair(seed)):
        sc = subset_cover(g)
        assert find_synchronizing_word(g, 6) == least_focusing_word(sc, 6)


@pytest.mark.parametrize("seed", range(40))
def test_fischer_cover_against_the_synchronizing_word_component(seed):
    # the component of the merged subset cover around the image of a
    # least synchronizing word, found by plain enumeration
    for g in map(trim_to_essential, _pair(seed)):
        if not is_irreducible(g):
            continue
        sc = subset_cover(g)
        merged = _merge_by_partition(sc, follower_separation(sc))
        (root,) = image_set(merged, least_focusing_word(sc, len(sc.vertices)))
        comp = {v for v in reachable(merged, root) if root in reachable(merged, v)}
        edges = [e for e in merged.edges if e[0] in comp and e[1] in comp]
        assert fischer_cover(g) == LabeledGraph(g.alphabet, comp, edges)


def test_bfs_is_breadth_first_and_yields_on_discovery():
    # the generated graphs are too small to tell breadth-first from
    # depth-first order: here depth-first would reach D by 10, not 00
    g = parse_graph(
        "alphabet 0 1\nvertex A\nvertex B\nvertex C\nvertex D\n"
        "edge A B 0\nedge A C 1\nedge B D 0\nedge C D 0\nedge D A 0\n"
    )
    stepped = []

    def moves(v):
        stepped.append(v)
        return g.out_edges(v)

    found = bfs("A", moves)
    assert [next(found) for _ in range(3)] == [((), "A"), (("0",), "B"), (("1",), "C")]
    assert stepped == ["A"]
    assert list(found) == [(("0", "0"), "D")]


def test_strong_components_on_a_long_ring():
    # deeper than the interpreter's recursion limit
    n = 5000
    comps = strong_components(range(n), lambda i: [(i + 1) % n])
    assert [sorted(c) for c in comps] == [list(range(n))]


def test_disjoint_full_shift_loops_equal_full2(graphs):
    loops = parse_graph(
        "alphabet 0 1\nvertex A\nvertex B\n"
        "edge A A 0\nedge A A 1\nedge B B 0\nedge B B 1\n"
    )
    assert languages_equal(loops, graphs["full2"])
    assert languages_equal(graphs["full2"], loops)


def test_reducible_pair_with_different_languages():
    # a golden-mean component plus a 0-loop, against the golden mean
    # plus a 1-loop: the second reads 11
    g = parse_graph(
        "alphabet 0 1\nvertex A\nvertex B\nvertex Z\n"
        "edge A A 0\nedge A B 1\nedge B A 0\nedge Z Z 0\n"
    )
    h = parse_graph(
        "alphabet 0 1\nvertex A\nvertex B\nvertex Z\n"
        "edge A A 0\nedge A B 1\nedge B A 0\nedge Z Z 1\n"
    )
    assert not languages_equal(g, h)
    assert first_divergence(graph_stepper(h), graph_stepper(g)) == ("1", "1")
    assert first_divergence(graph_stepper(g), graph_stepper(h)) is None


@pytest.mark.parametrize("seed", range(40))
def test_languages_equal_against_enumeration(seed):
    g, h = _pair(seed)
    tg, th = trim_to_essential(g), trim_to_essential(h)
    if languages_equal(g, h):
        for n in range(1, 9):
            assert path_words(tg, n) == path_words(th, n)
        return
    found = [
        (w, a, b)
        for a, b in ((tg, th), (th, tg))
        for w in [first_divergence(graph_stepper(a), graph_stepper(b))]
        if w is not None
    ]
    assert found
    for w, a, b in found:
        if w == ():  # the empty word separates only a non-empty shift from the empty one
            assert a.vertices and not b.vertices
            continue
        assert reads(a, w) and not reads(b, w)
        # least length: every shorter block set agrees
        for n in range(1, len(w)):
            assert path_words(a, n) <= path_words(b, n)


def test_generated_pairs_cover_both_verdicts():
    verdicts = [languages_equal(*_pair(seed)) for seed in range(40)]
    assert verdicts.count(True) >= 10 and verdicts.count(False) >= 5


@pytest.mark.parametrize("seed", range(12))
def test_sofic_follower_equal_against_enumeration(seed):
    g = trim_to_essential(_random_graph(random.Random(seed), "v"))
    if not g.vertices:
        return
    o = sofic_oracle(g)
    words = [w for n in (1, 2) for w in oracle_blocks(o, n)]
    for u, v in itertools.combinations(words, 2):
        assert oracle_follower_equal(o, u, v, 4) == followers_equal(g, u, v, 4)


def _all_words(alphabet, max_len):
    return [w for n in range(max_len + 1) for w in itertools.product(alphabet.symbols, repeat=n)]


@pytest.mark.parametrize("rank", (1, 2))
def test_dyck_follower_equal_against_reduction(rank):
    o = dyck_oracle_rank(rank)
    words = [w for w in _all_words(o.alphabet, 3) if oracle_admissible(o, w)]
    tails = _all_words(o.alphabet, 3)
    for u, v in itertools.combinations(words, 2):
        brute = all(
            dyck_admissible(o.pairs, u + w) == dyck_admissible(o.pairs, v + w)
            for w in tails
        )
        assert oracle_follower_equal(o, u, v, 3) == brute


@pytest.mark.parametrize("gens", [("10", "0"), ("10",), ("011", "1"), ("0", "111", "10")])
def test_code_list_follower_equal_against_concatenations(gens):
    gens = [tuple(g) for g in gens]
    o = code_list_oracle(BINARY, gens)
    words = [w for w in _all_words(BINARY, 3) if concatenation_factor(gens, w)]
    assert words == [w for w in _all_words(BINARY, 3) if oracle_admissible(o, w)]
    tails = _all_words(BINARY, 3)
    for u, v in itertools.combinations(words, 2):
        brute = all(
            concatenation_factor(gens, u + w) == concatenation_factor(gens, v + w)
            for w in tails
        )
        assert oracle_follower_equal(o, u, v, 3) == brute
