"""The bitmask subset kernel against its frozenset reference.

`core.mask_stepper` steps int masks, ORing the successor masks of a
state's set bits.  The generated inputs sit on both sides of the byte
boundaries (1, 7, 8, 9, 16 and 17 vertices) and of 64 states, where a
mask outgrows a machine word.  Vertex names are chosen so that their
sorted order, which fixes the bit order, differs from their numbering.
"""

import itertools
import random

import pytest

import brute
from shiftlab import covers
from shiftlab.acceptance import corpus_path
from shiftlab.cli import main
from shiftlab.core import (
    Alphabet,
    LabeledGraph,
    first_divergence,
    graph_stepper,
    image_set,
    is_irreducible,
    load_graph,
    mask_stepper,
    mask_vertices,
    vertex_mask,
    walk,
)
from shiftlab.covers import fischer_cover, find_synchronizing_word, subset_cover

BINARY = Alphabet(("0", "1"))
TERNARY = Alphabet(("a", "b", "c"))
SIZES = (1, 7, 8, 9, 16, 17)


def _graph(rng, n, alphabet=BINARY, p=0.5, extra=0.2, prefix="v"):
    """Random edges: each (vertex, symbol) gets one with probability p,
    and each vertex a second edge with some label, which may make the
    graph not right-resolving, with probability extra."""
    vs = [f"{prefix}{i}" for i in range(n)]
    edges = set()
    for v in vs:
        for sym in alphabet:
            if rng.random() < p:
                edges.add((v, rng.choice(vs), sym))
        if rng.random() < extra:
            edges.add((v, rng.choice(vs), rng.choice(alphabet.symbols)))
    return LabeledGraph(alphabet, vs, edges)


def _ring(rng, n, split=False):
    """The ring generator of the cover-growth benchmark, irreducible:
    0-edges around a ring of n, a 1-edge from most vertices to a random
    target, and with `split` a vertex with two out-edges out-split, so
    that the graph is not right-resolving."""
    vs = [f"r{i}" for i in range(n)]
    edges = {(vs[i], vs[(i + 1) % n], "0") for i in range(n)}
    edges |= {(v, rng.choice(vs), "1") for v in vs if rng.random() < 0.8}
    outs = {v: [e for e in edges if e[0] == v] for v in vs}
    v = next((v for v in vs if len(outs[v]) == 2), None)
    if split and v is not None:
        ins = [e for e in edges if e[1] == v]
        outs = outs[v]
        edges -= set(ins) | set(outs)
        copies = (v + "x", v + "y")
        edges |= {(src if src != v else copies[0], c, lab) for src, _, lab in ins for c in copies}
        for i, (_, dst, lab) in enumerate(sorted(outs)):
            edges.add((copies[i % 2], dst if dst != v else copies[0], lab))
        vs = [x for x in vs if x != v] + list(copies)
    return LabeledGraph(BINARY, vs, edges)


def _seeded_graphs():
    """(name, graph): reducible, not right-resolving, empty, and every
    size of SIZES."""
    rng = random.Random(1700)
    yield "empty", LabeledGraph(BINARY, [], [])
    for n in SIZES:
        for i in range(3):
            yield f"random{n}-{i}", _graph(rng, n, p=rng.choice((0.4, 0.7)))
        yield f"ternary{n}", _graph(rng, n, TERNARY, p=0.4)
        a, b = _graph(rng, n, prefix="a"), _graph(rng, max(1, n // 2), prefix="b")
        bridge = [(a.vertices[0], b.vertices[0], "1")] if n > 1 else []
        yield f"reducible{n}", LabeledGraph(BINARY, a.vertices + b.vertices, a.edges + b.edges + tuple(bridge))


def _irreducible_graphs():
    """(name, graph): benchmark rings and their out-splits up to 9
    vertices (from 16 on their subset automata pass 10^4 states), and a
    random irreducible graph of every size."""
    rng = random.Random(1701)
    for n in (1, 7, 8, 9):
        yield f"ring{n}", _ring(rng, n)
        if n > 1:
            yield f"split{n}", _ring(rng, n, split=True)
    for n in SIZES:
        graphs = (_graph(rng, n, p=0.9, extra=0.3) for _ in itertools.count())
        yield f"random{n}", next(g for g in graphs if is_irreducible(g))


GRAPHS = list(_seeded_graphs())
IRREDUCIBLE = list(_irreducible_graphs())


def _essential(g):
    """The graph cut to vertices with an in- and an out-edge, as
    brute.essential_part computes it."""
    vs, edges = brute.essential_part(g)
    return LabeledGraph(g.alphabet, vs, edges)


@pytest.mark.parametrize("n", (1, 7, 8, 9, 16, 17, 63, 64, 65, 130))
def test_mask_stepper_matches_frozenset_union(n):
    rng = random.Random(n)
    succ = {a: [{j for j in range(n) if rng.random() < 2 / n} for _ in range(n)] for a in "xy"}
    masks = {a: [sum(1 << j for j in row) for row in rows] for a, rows in succ.items()}
    st = mask_stepper(Alphabet("xy"), masks, (1 << n) - 1)
    assert st.start == (1 << n) - 1
    for _ in range(200):
        s = {i for i in range(n) if rng.random() < rng.random()} or {rng.randrange(n)}
        for a in "xy":
            want = set().union(*(succ[a][i] for i in s))
            got = st.step(sum(1 << i for i in s), a)
            assert got == (sum(1 << j for j in want) or None)
        assert st.step(sum(1 << i for i in s), "z") is None
    assert mask_stepper(Alphabet("xy"), masks, 0).start is None


def test_graph_stepper_is_built_once_per_graph():
    g = _graph(random.Random(5), 9)
    h = LabeledGraph(g.alphabet, g.vertices, g.edges)
    assert h.to_text() == g.to_text() and h._stepper is None
    st = graph_stepper(g)
    assert graph_stepper(g) is st and h._stepper is None


def test_masks_name_vertices_in_sorted_order():
    g = _graph(random.Random(3), 17)
    assert g.vertices[:3] == ("v0", "v1", "v10")
    assert vertex_mask(g, ["v10"]) == 1 << 2
    assert graph_stepper(g).start == vertex_mask(g, g.vertices) == (1 << 17) - 1
    rng = random.Random(4)
    for _ in range(200):
        names = tuple(sorted(rng.sample(g.vertices, rng.randint(0, 17))))
        assert mask_vertices(g, vertex_mask(g, names)) == names


@pytest.mark.parametrize("name,g", GRAPHS, ids=[name for name, _ in GRAPHS])
def test_subset_automaton_matches_frozenset_reference(name, g):
    order, trans = covers._subset_automaton(g)
    ref_order, ref_trans = brute.subset_automaton(g)
    names = [frozenset(mask_vertices(g, s)) for s in order]
    assert names == ref_order
    assert {(frozenset(mask_vertices(g, s)), a): frozenset(mask_vertices(g, t)) for (s, a), t in trans.items()} == ref_trans
    states, _ = covers._essential_subsets(g)
    assert [frozenset(mask_vertices(g, s)) for s in states] == brute.essential_subsets(g)[0]


@pytest.mark.parametrize("name,g", GRAPHS, ids=[name for name, _ in GRAPHS])
def test_subset_cover_and_synchronizing_word_match_reference(name, g):
    g = _essential(g)
    vertices, edges = brute.subset_cover_parts(g)
    assert subset_cover(g) == LabeledGraph(g.alphabet, vertices, edges)
    assert find_synchronizing_word(g, 8) == brute.synchronizing_word(g, 8)


@pytest.mark.parametrize("name,g", IRREDUCIBLE, ids=[name for name, _ in IRREDUCIBLE])
def test_fischer_cover_matches_reference(name, g):
    vertices, edges = brute.fischer_cover_parts(g)
    assert fischer_cover(g) == LabeledGraph(g.alphabet, vertices, edges)
    assert find_synchronizing_word(g, 8) == brute.synchronizing_word(g, 8)


@pytest.mark.parametrize("name,g", GRAPHS, ids=[name for name, _ in GRAPHS])
def test_image_set_and_first_divergence_match_reference(name, g):
    rng = random.Random(name)
    words = [tuple(rng.choice(g.alphabet.symbols) for _ in range(rng.randrange(6))) for _ in range(40)]
    for w in words:
        assert image_set(g, w) == brute.image(g, g.vertices, w)
        start = [rng.choice(g.vertices) for _ in range(rng.randint(0, len(g.vertices)))]
        assert image_set(g, w, start) == brute.image(g, start, w)
        assert walk(graph_stepper(g), w) == (vertex_mask(g, brute.image(g, g.vertices, w)) or None)
    for other_name, h in GRAPHS[:: len(GRAPHS) // 8]:
        if h.alphabet != g.alphabet:
            continue
        for a, b in ((g, h), (h, g)):
            assert first_divergence(graph_stepper(a), graph_stepper(b), 6) == brute.least_unreadable(a, b, 6)


def test_moore_classes_keep_their_numbering():
    """Random deterministic automata with dead moves, their states
    listed in a shuffled order: identical class-id dicts."""
    rng = random.Random(1702)
    for _ in range(300):
        n = rng.randint(0, 40)
        k = rng.randint(1, 3)
        alphabet = "abc"[:k]
        order = [f"s{i}" for i in range(n)]
        rng.shuffle(order)
        dead = rng.random()
        trans = {
            (s, a): rng.choice(order[: rng.randint(1, n)])
            for s in order
            for a in alphabet
            if rng.random() > dead
        }
        assert covers._moore_classes(order, trans, alphabet) == brute.moore_classes(order, trans, alphabet)


@pytest.mark.parametrize("name", ["", " ", "a b", "a\x1cb", "\t", "a\n", "\x85", "b "])
def test_names_with_whitespace_are_rejected(name):
    with pytest.raises(ValueError):
        LabeledGraph(BINARY, [name], [])
    with pytest.raises(ValueError):
        Alphabet(["0", name])


def test_non_string_names_are_rejected():
    with pytest.raises(ValueError):
        LabeledGraph(BINARY, [1], [])


@pytest.mark.parametrize("graph", ["goldennd.graph", "evenedge.graph", "even4.graph"])
def test_tsv_cover_prints_tab_joined_rows(capsys, graph):
    text = subset_cover(load_graph(corpus_path(graph))).to_text()
    assert main(["cover", "subset", graph, "--format", "tsv"]) == 0
    rows = [line.split(" ") for line in text.splitlines()]
    assert capsys.readouterr().out == "".join("\t".join(row) + "\n" for row in rows)
    assert main(["cover", "subset", graph]) == 0
    assert capsys.readouterr().out == text
