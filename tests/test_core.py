import pytest

from brute import path_words, reads
from shiftlab.core import (
    Alphabet,
    Point,
    blocks_of_length,
    count_blocks,
    format_block,
    image_set,
    is_admissible,
    is_essential,
    is_irreducible,
    is_right_resolving,
    iter_admissible_blocks,
    parse_block,
    parse_graph,
    point_symbol,
    point_window,
    same_denotation,
    shift,
    trim_to_essential,
)
from shiftlab.covers import follower_separation
from shiftlab.errors import NotEssentialError, NotRightResolvingError, ParseError

EVEN_TEXT = "alphabet 0 1\nvertex A\nvertex B\nedge A A 1\nedge A B 0\nedge B A 0\n"


def test_alphabet_order_and_membership():
    a = Alphabet(("0", "1"))
    assert list(a) == ["0", "1"]
    assert "1" in a and "2" not in a
    assert a.index("1") == 1


def test_block_round_trip():
    a = Alphabet(("0", "1"))
    assert format_block(("0", "1", "1")) == "011"
    assert parse_block("011", a) == ("0", "1", "1")
    multi = Alphabet(("00", "01"))
    assert format_block(("00", "01")) == "00.01"
    assert parse_block("00.01", multi) == ("00", "01")


def test_parse_graph_round_trip():
    g = parse_graph(EVEN_TEXT)
    assert g.vertices == ("A", "B")
    assert len(g.edges) == 3
    assert parse_graph(g.to_text()).edges == g.edges


def test_parse_graph_errors_carry_line_numbers():
    with pytest.raises(ParseError) as e:
        parse_graph("alphabet 0 1\nvertex A\nedge A B 0\n", path="x.graph")
    assert "x.graph:3" in str(e.value)
    with pytest.raises(ParseError):
        parse_graph("vertex A\n")
    with pytest.raises(ParseError):
        parse_graph("alphabet 0 1\nvertex A\nedge A A 7\n")
    with pytest.raises(ParseError):
        parse_graph("alphabet 0 1\nvertex A\nvertex A\n")


def test_trim_removes_stranded_vertices():
    g = parse_graph(
        "alphabet 0 1\nvertex A\nvertex B\nvertex C\n"
        "edge A A 0\nedge A B 1\nedge C A 0\n"
    )
    assert not is_essential(g)
    t = trim_to_essential(g)
    assert t.vertices == ("A",)
    assert is_essential(t)


def test_irreducibility(graphs):
    for name in ("golden", "even", "even4", "full2", "goldennd", "evenedge"):
        assert is_irreducible(graphs[name])
    two_parts = parse_graph(
        "alphabet 0 1\nvertex A\nvertex B\nedge A A 0\nedge A B 1\nedge B B 0\n"
    )
    assert not is_irreducible(two_parts)


def test_image_set_is_a_block_homomorphism(graphs):
    g = graphs["even"]
    s = frozenset(g.vertices)
    for u in path_words(g, 2):
        for v in path_words(g, 2):
            joined = image_set(g, v, frozenset(image_set(g, u, s)))
            assert frozenset(image_set(g, u + v, s)) == frozenset(joined)


def test_counts_match_brute_paths(graphs):
    for name, g in graphs.items():
        if name == "goldennd":
            continue
        for n in range(1, 13):
            assert count_blocks(g, n) == len(path_words(g, n))


def test_count_blocks_rejects_nondeterministic_presentations(graphs):
    with pytest.raises(NotRightResolvingError):
        count_blocks(graphs["goldennd"], 3)


def test_is_right_resolving_needs_no_essential_input(graphs):
    assert is_right_resolving(graphs["golden"])
    assert not is_right_resolving(graphs["goldennd"])
    # C has no in-edge; only callers that need essential input check it
    stranded = "alphabet 0 1\nvertex A\nvertex C\nvertex D\nedge A A 0\nedge C A 1\n"
    assert is_right_resolving(parse_graph(stranded + "edge C D 0\nedge D A 0\n"))
    assert not is_right_resolving(parse_graph(stranded + "edge C D 1\nedge D A 0\n"))
    with pytest.raises(NotEssentialError):
        follower_separation(parse_graph(stranded + "edge C D 0\nedge D A 0\n"))


def test_blocks_of_length_enumeration(graphs):
    g = graphs["golden"]
    assert blocks_of_length(g, 2) == sorted(path_words(g, 2))
    assert list(iter_admissible_blocks(g, 3)) == blocks_of_length(g, 3)
    # factorial closure: subwords of admissible blocks are admissible
    for w in blocks_of_length(g, 8):
        for i in range(8):
            for j in range(i + 1, 9):
                assert is_admissible(g, w[i:j])


def test_is_admissible_matches_brute(graphs):
    g = graphs["even"]
    for n in range(1, 7):
        for w in _all_words(g.alphabet, n):
            assert is_admissible(g, w) == reads(g, w)


def _all_words(alphabet, n):
    words = [()]
    for _ in range(n):
        words = [w + (s,) for w in words for s in alphabet]
    return words


def test_point_window_and_shift():
    p = Point(("0",), ("1", "1"), ("0",), 0)
    assert point_symbol(p, 0) == "1"
    assert point_symbol(p, 1) == "1"
    assert point_symbol(p, 2) == "0"
    assert point_symbol(p, -1) == "0"
    assert point_window(p, -2, 3) == ("0", "0", "1", "1", "0", "0")
    q = shift(p, 3)
    assert point_symbol(q, -3) == point_symbol(p, 0)
    assert same_denotation(shift(q, -3), p)


def test_same_denotation_ignores_presentation():
    p = Point(("0",), ("1",), ("0",), 0)
    q = Point(("0", "0"), ("1",), ("0", "0", "0"), 0)
    assert same_denotation(p, q)
    r = Point(("0",), ("1", "1"), ("0",), 0)
    assert not same_denotation(p, r)
