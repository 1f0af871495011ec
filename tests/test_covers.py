import pytest

from brute import followers_equal, path_words, reads
from shiftlab.core import blocks_of_length, is_admissible, parse_graph
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
    assert v.transitive_ray_prefix is not None
    assert v.transitive_ray_prefix[-1:] == ("1",)


def test_half_sync_even_zero_refuted(graphs):
    o = sofic_oracle(graphs["even"])
    v = is_half_synchronizing(o, ("0",), 8)
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
    v = is_half_synchronizing(o, ("1",), 6)
    text = "".join(v.transitive_ray_prefix)
    for w in blocks_of_length(g, 6):
        assert "".join(w) in text
