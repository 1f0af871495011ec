import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute import follower_included, followers_equal, least_sync_witness, path_words, reads
from shiftlab import covers
from shiftlab.cli import main
from shiftlab.core import (
    Alphabet,
    LabeledGraph,
    blocks_of_length,
    image_set,
    is_admissible,
    parse_graph,
    trim_to_essential,
)
from shiftlab.covers import (
    HOLDS,
    NOT_SYNCHRONIZING,
    REFUTED,
    SYNCHRONIZING,
    canonical_form,
    fischer_cover,
    find_synchronizing_word,
    follower_separation,
    is_half_synchronizing,
    is_right_resolving,
    is_synchronizing,
    isomorphic_minimal,
    languages_equal,
    ray_prefix,
    subset_cover,
)
from shiftlab.errors import InadmissibleBlockError, NotIrreducibleError
from shiftlab.oracle import sofic_oracle


def test_subset_cover_is_right_resolving_and_language_preserving(graphs):
    for g in graphs.values():
        sc = subset_cover(g)
        assert is_right_resolving(sc)
        for n in range(1, 11):
            assert blocks_of_length(g, n) == blocks_of_length(sc, n)


def test_fischer_cover_language_preserving(graphs):
    for g in graphs.values():
        fc = fischer_cover(g)
        for n in range(1, 11):
            assert blocks_of_length(g, n) == blocks_of_length(fc, n)


def test_fischer_cover_idempotent(graphs):
    for g in graphs.values():
        fc = fischer_cover(g)
        assert isomorphic_minimal(fc, fischer_cover(fc))


def test_fischer_cover_minimizes_redundant_presentation(graphs):
    assert len(fischer_cover(graphs["even4"]).vertices) == 2
    assert len(fischer_cover(graphs["goldennd"]).vertices) == 2
    assert len(fischer_cover(graphs["full2"]).vertices) == 1


def test_fischer_cover_requires_irreducible():
    g = parse_graph(
        "alphabet 0 1\nvertex A\nvertex B\nedge A A 0\nedge A B 1\nedge B B 0\n"
    )
    with pytest.raises(NotIrreducibleError):
        fischer_cover(g)


def test_follower_separation_classes(graphs):
    # the transient full-set vertex keeps its own class; minimality
    # only lands after the bireachable restriction
    partition = follower_separation(subset_cover(graphs["even4"]))
    assert len(partition) == 3
    minimal = follower_separation(fischer_cover(graphs["even4"]))
    assert all(len(cls) == 1 for cls in minimal)


def test_canonical_form_stable_under_vertex_renaming(graphs):
    g = graphs["even"]
    renamed = parse_graph(
        "alphabet 0 1\nvertex Z\nvertex Y\nedge Z Z 1\nedge Z Y 0\nedge Y Z 0\n"
    )
    assert canonical_form(fischer_cover(g)).to_text() == canonical_form(fischer_cover(renamed)).to_text()


def test_canonical_form_rejects_input_that_is_not_a_minimal_cover(graphs):
    # even4 presents the even shift with every state split in two: its
    # least synchronizing word does not focus it on one vertex
    with pytest.raises(ValueError):
        canonical_form(graphs["even4"])
    loops = parse_graph(
        "alphabet 0 1\nvertex A\nvertex B\n"
        "edge A A 0\nedge A A 1\nedge B B 0\nedge B B 1\n"
    )
    with pytest.raises(NotIrreducibleError):
        canonical_form(loops)


def test_languages_equal(graphs):
    assert languages_equal(graphs["even"], graphs["even4"])
    assert languages_equal(graphs["golden"], graphs["goldennd"])
    assert not languages_equal(graphs["even"], graphs["golden"])
    assert not languages_equal(graphs["even"], graphs["full2"])


def test_find_synchronizing_word_golden_and_even(graphs):
    assert find_synchronizing_word(graphs["golden"], 8) == ("1",)
    assert find_synchronizing_word(graphs["even"], 8) == ("1",)
    assert find_synchronizing_word(graphs["full2"], 8) == ("0",)


# Rings of the ROADMAP generator (0-edges i -> i+1 around a ring of 16,
# plus a 1-edge from each vertex to a random target with probability
# 0.8), drawn with random.Random(5016) and random.Random(1016).  Their
# subset covers have 7765 and 8945 states, so a search whose states
# grow with the cover, not with its image sets, takes minutes here.
RING_5016 = """\
alphabet 0 1
vertex v0
vertex v1
vertex v10
vertex v11
vertex v12
vertex v13
vertex v14
vertex v15
vertex v2
vertex v3
vertex v4
vertex v5
vertex v6
vertex v7
vertex v8
vertex v9
edge v0 v1 0
edge v1 v2 0
edge v1 v4 1
edge v10 v11 0
edge v10 v9 1
edge v11 v11 1
edge v11 v12 0
edge v12 v13 0
edge v12 v7 1
edge v13 v13 1
edge v13 v14 0
edge v14 v13 1
edge v14 v15 0
edge v15 v0 0
edge v15 v6 1
edge v2 v10 1
edge v2 v3 0
edge v3 v4 0
edge v4 v1 1
edge v4 v5 0
edge v5 v11 1
edge v5 v6 0
edge v6 v11 1
edge v6 v7 0
edge v7 v2 1
edge v7 v8 0
edge v8 v5 1
edge v8 v9 0
edge v9 v10 0
edge v9 v10 1
"""

RING_1016 = """\
alphabet 0 1
vertex v0
vertex v1
vertex v10
vertex v11
vertex v12
vertex v13
vertex v14
vertex v15
vertex v2
vertex v3
vertex v4
vertex v5
vertex v6
vertex v7
vertex v8
vertex v9
edge v0 v1 0
edge v0 v12 1
edge v1 v2 0
edge v1 v5 1
edge v10 v11 0
edge v10 v7 1
edge v11 v12 0
edge v11 v8 1
edge v12 v13 0
edge v12 v14 1
edge v13 v14 0
edge v13 v7 1
edge v14 v10 1
edge v14 v15 0
edge v15 v0 0
edge v15 v4 1
edge v2 v2 1
edge v2 v3 0
edge v3 v15 1
edge v3 v4 0
edge v4 v15 1
edge v4 v5 0
edge v5 v12 1
edge v5 v6 0
edge v6 v15 1
edge v6 v7 0
edge v7 v8 0
edge v7 v8 1
edge v8 v11 1
edge v8 v9 0
edge v9 v10 0
edge v9 v10 1
"""


def test_fischer_cover_and_synchronizing_word_on_seeded_rings():
    g = parse_graph(RING_5016)
    assert len(fischer_cover(g).vertices) == 16
    assert find_synchronizing_word(g, 12) == tuple("101110001101")
    assert find_synchronizing_word(g, 11) is None
    g = parse_graph(RING_1016)
    assert len(fischer_cover(g).vertices) == 1
    assert find_synchronizing_word(g, 14) == tuple("10111011111001")


def test_synchronizing_verdicts(graphs):
    g = graphs["even"]
    assert is_synchronizing(g, ("1",)).status == SYNCHRONIZING
    v = is_synchronizing(g, ("0",))
    assert v.status == NOT_SYNCHRONIZING
    u, w = v.witness
    assert is_admissible(g, u + ("0",))
    assert is_admissible(g, ("0",) + w)
    assert not is_admissible(g, u + ("0",) + w)


SIX = """alphabet a b c
vertex v0
vertex v1
vertex v2
vertex v3
vertex v4
vertex v5
edge v0 v2 a
edge v0 v3 a
edge v0 v2 b
edge v0 v2 c
edge v1 v3 a
edge v1 v4 c
edge v1 v5 c
edge v2 v5 a
edge v2 v4 b
edge v2 v0 c
edge v2 v1 c
edge v3 v2 a
edge v3 v3 a
edge v3 v1 b
edge v3 v0 c
edge v3 v5 c
edge v4 v1 a
edge v4 v2 a
edge v4 v4 b
edge v4 v3 c
edge v4 v4 c
edge v5 v2 a
edge v5 v0 b
edge v5 v2 b
"""


def test_sync_check_without_a_witness_within_the_default_bound(tmp_path, capsys):
    # listing every u and w of up to 8 symbols each took minutes here;
    # the least witness has a 10-symbol w (brute.least_sync_witness at
    # bound 10 agrees, in seconds)
    path = tmp_path / "six.graph"
    path.write_text(SIX)
    start = time.perf_counter()
    assert main(["sync", "check", str(path), "bac"]) == 0
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().out == "status not-synchronizing\n"
    g = parse_graph(SIX)
    assert least_sync_witness(g, tuple("bac"), 8) is None
    assert is_synchronizing(g, tuple("bac"), 10).witness == (tuple("aac"), tuple("ccbbaaccac"))


def test_synchronizing_rejects_inadmissible_block(graphs):
    with pytest.raises(InadmissibleBlockError):
        is_synchronizing(graphs["golden"], ("1", "1"))


def test_synchronizing_extension_monotone(graphs):
    # uvw is synchronizing whenever v is and uvw is admissible
    for name in ("golden", "even"):
        g = graphs[name]
        v = ("1",)
        for u in sorted(path_words(g, 2)):
            for w in sorted(path_words(g, 2)):
                uvw = u + v + w
                if is_admissible(g, uvw):
                    assert is_synchronizing(g, uvw).status == SYNCHRONIZING


def test_synchronizing_matches_brute_followers(graphs):
    g = graphs["even"]
    # a synchronizing block's follower ignores left context, a
    # non-synchronizing one's does not; verified by plain enumeration
    for m in (("1",), ("0", "0"), ("1", "0", "0")):
        verdict = is_synchronizing(g, m).status == SYNCHRONIZING
        brute = all(
            followers_equal(g, u + m, m, 6)
            for k in range(1, 5)
            for u in path_words(g, k)
            if reads(g, u + m)
        )
        assert verdict == brute


def test_half_sync_golden_holds(graphs):
    o = sofic_oracle(graphs["golden"])
    v = is_half_synchronizing(o, ("1",), 8)
    assert v.status == HOLDS
    assert v.exact
    prefix = ray_prefix(o, ("1",), 8)
    assert prefix is not None
    assert prefix[-1:] == ("1",)
    assert len(prefix) == v.prefix_length


def test_half_sync_even_zero_refuted(graphs):
    # 0 and 00 end at either parity: 1 separates the ray at odd parity,
    # 01 the ray at even parity, which agrees longer and is reported
    o = sofic_oracle(graphs["even"])
    for m in (("0",), ("0", "0")):
        v = is_half_synchronizing(o, m, 8)
        assert v.status == REFUTED
        assert v.refutation == ("0", "1")


def test_half_sync_even_one_holds_exactly(graphs):
    o = sofic_oracle(graphs["even"])
    v = is_half_synchronizing(o, ("1",), 8)
    assert v.status == HOLDS
    assert v.exact


def test_half_sync_verdict_monotone_over_horizons(graphs):
    # a refutation found at a small horizon persists at larger ones
    o = sofic_oracle(graphs["even"])
    statuses = [is_half_synchronizing(o, ("0",), h).status for h in (2, 4, 6, 8)]
    first_refuted = statuses.index(REFUTED)
    assert all(s == REFUTED for s in statuses[first_refuted:])


def test_half_sync_prefix_contains_all_short_blocks(graphs):
    g = graphs["even"]
    o = sofic_oracle(g)
    text = "".join(ray_prefix(o, ("1",), 6))
    for w in blocks_of_length(g, 6):
        assert "".join(w) in text


FORK = """alphabet 0 1 2
vertex v0
vertex v1
vertex v2
edge v0 v1 1
edge v0 v0 2
edge v1 v2 2
edge v2 v0 1
edge v2 v0 2
"""


def test_half_sync_refutes_only_when_every_ray_is_separated():
    # 2 ends at v0 or v2; 11 follows the ray at v2 but not the one at
    # v0, and 1211 the ray at v0 but not the one at v2.  So up to
    # horizon 3 the ray at v2 agrees with 2, and from horizon 4 on
    # every ray is separated, by 1211 at the latest
    g = parse_graph(FORK)
    o = sofic_oracle(g)
    assert follower_included(g, "v0", "v2", 3) and not follower_included(g, "v0", "v2", 4)
    assert not follower_included(g, "v2", "v0", 2)
    for h in (2, 3):
        v = is_half_synchronizing(o, ("2",), h)
        assert (v.status, v.exact, v.refutation) == (HOLDS, False, None)
        prefix = ray_prefix(o, ("2",), h)
        assert prefix[-1:] == ("2",)
        assert followers_equal(g, prefix, ("2",), h)
    for h in (4, 8):
        v = is_half_synchronizing(o, ("2",), h)
        assert (v.status, v.refutation) == (REFUTED, ("1", "2", "1", "1"))


def test_half_sync_exact_verdict_does_not_depend_on_the_horizon():
    # 1 is refuted by 01 from horizon 2 on, so no horizon calls it exact
    g = parse_graph(
        "alphabet 0 1 2\nvertex v0\nvertex v1\nvertex v2\nvertex v3\n"
        "edge v0 v1 0\nedge v0 v2 0\nedge v0 v1 1\nedge v1 v3 0\n"
        "edge v1 v3 1\nedge v2 v3 0\nedge v3 v0 0\n"
    )
    o = sofic_oracle(g)
    v = is_half_synchronizing(o, ("1",), 1)
    assert (v.status, v.exact) == (HOLDS, False)
    for h in range(2, 9):
        v = is_half_synchronizing(o, ("1",), h)
        assert (v.status, v.refutation) == (REFUTED, ("0", "1"))


def test_half_sync_on_right_resolving_input_builds_no_subset_automaton(graphs, monkeypatch):
    calls = []
    real = covers._subset_automaton
    monkeypatch.setattr(covers, "_subset_automaton", lambda g: calls.append(g) or real(g))
    for name in ("golden", "even", "even4", "full2", "evenedge"):
        g = graphs[name]
        assert is_right_resolving(g)
        for m in blocks_of_length(g, 1) + blocks_of_length(g, 2):
            is_half_synchronizing(sofic_oracle(g), m, 8)
    assert calls == []
    # the counter sees the subset automaton a presentation that is not
    # right-resolving needs
    is_half_synchronizing(sofic_oracle(graphs["goldennd"]), ("0",), 8)
    assert len(calls) == 1


def test_fischer_cover_and_sync_check_on_right_resolving_input_build_no_subset_automaton(
    graphs, monkeypatch
):
    calls = []
    real = covers._subset_automaton
    monkeypatch.setattr(covers, "_subset_automaton", lambda g: calls.append(g) or real(g))
    for name in ("golden", "even", "even4", "full2", "evenedge"):
        g = graphs[name]
        assert is_right_resolving(g)
        fischer_cover(g)
        for v in blocks_of_length(g, 1) + blocks_of_length(g, 2):
            is_synchronizing(g, v)
    assert calls == []
    fischer_cover(graphs["goldennd"])
    is_synchronizing(graphs["goldennd"], ("0",))
    assert len(calls) == 2


BINARY = Alphabet(("0", "1"))


@st.composite
def _irreducible_graphs(draw):
    """A ring through every vertex, so the graph is irreducible, plus
    random extra edges; often not right-resolving."""
    n = draw(st.integers(1, 4))
    vs = [f"v{i}" for i in range(n)]
    labels = st.sampled_from(BINARY.symbols)
    edges = {(vs[i], vs[(i + 1) % n], draw(labels)) for i in range(n)}
    extra = st.tuples(st.sampled_from(vs), st.sampled_from(vs), labels)
    edges |= set(draw(st.lists(extra, max_size=2 * n)))
    return LabeledGraph(BINARY, vs, edges)


def _out_split(g):
    """Split v0 into two copies sharing its in-edges, its out-edges
    dealt out alternately: the same shift."""
    outs = [e for e in g.edges if e[0] == "v0"]
    side = {e: ("v0x", "v0y")[i % 2] for i, e in enumerate(outs)}
    edges = []
    for e in g.edges:
        srcs = [side[e]] if e[0] == "v0" else [e[0]]
        dsts = ["v0x", "v0y"] if e[1] == "v0" else [e[1]]
        edges += [(x, y, e[2]) for x in srcs for y in dsts]
    vs = [v for v in g.vertices if v != "v0"] + ["v0x", "v0y"]
    return trim_to_essential(LabeledGraph(g.alphabet, vs, edges))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_irreducible_graphs(), st.data())
def test_half_sync_dominance_property(g, data):
    m = data.draw(st.sampled_from(blocks_of_length(g, 1) + blocks_of_length(g, 2)))
    h = data.draw(st.integers(1, 4))
    r = covers.resolve(g)
    v, ends = covers._half_sync_sofic(r, m, h)
    p = r.graph
    image = image_set(p, m)

    def agrees(x, n):
        return all(follower_included(p, u, x, n) for u in image)

    # against enumeration on the resolving presentation
    if v.status == REFUTED:
        assert not any(agrees(x, h) for x in image)
        assert reads(g, m + v.refutation) and 0 < len(v.refutation) <= h
    elif v.exact:
        assert ends and all(agrees(x, 8) for x in ends)
    else:
        assert ends == {x for x in image if agrees(x, h)} != set()
    # the prefix ends the ray: read as a word it is followed by what m
    # is, at every length when exact, else up to the horizon
    if v.status == HOLDS:
        o = sofic_oracle(g)
        prefix = ray_prefix(o, m, h)
        assert len(prefix) == is_half_synchronizing(o, m, h).prefix_length
        assert prefix[len(prefix) - len(m):] == m and reads(g, prefix)
        assert followers_equal(g, prefix, m, 6 if v.exact else h)
    # the verdict belongs to the shift, not to its presentation
    for other in (fischer_cover(g), _out_split(g)):
        w = covers._half_sync_sofic(covers.resolve(other), m, h)[0]
        assert (w.status, w.exact, w.refutation) == (v.status, v.exact, v.refutation)
