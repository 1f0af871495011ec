import pytest

from brute import dyck_admissible, path_words
from shiftlab.core import Alphabet, blocks_of_length
from shiftlab.covers import HOLDS, is_half_synchronizing
from shiftlab.errors import InadmissibleBlockError, ParseError
from shiftlab.oracle import (
    DYCK_PAIRS_2,
    code_list_oracle,
    dyck_follower_signature,
    dyck_oracle,
    dyck_oracle_rank,
    load_oracle,
    oracle_admissible,
    oracle_blocks,
    oracle_follower_equal,
    parse_oracle,
    sofic_oracle,
)


def _words(alphabet, n):
    words = [()]
    for _ in range(n):
        words = [w + (s,) for w in words for s in alphabet]
    return words


def test_sofic_oracle_equals_graph_language(graphs):
    g = graphs["even"]
    o = sofic_oracle(g)
    for n in range(1, 7):
        assert sorted(oracle_blocks(o, n)) == blocks_of_length(g, n)


def test_dyck_scan_basics():
    o = dyck_oracle()
    assert not oracle_admissible(o, ("(", "]"))
    assert oracle_admissible(o, (")", "("))
    assert oracle_admissible(o, ("(", ")"))
    assert oracle_admissible(o, ("]", "]", "("))
    assert not oracle_admissible(o, ("(", "[", ")"))


def test_dyck_matches_reduction_semantics():
    o = dyck_oracle()
    for n in range(1, 7):
        for w in _words(o.alphabet, n):
            assert oracle_admissible(o, w) == dyck_admissible(DYCK_PAIRS_2, w)


def test_dyck_rank_constructor():
    assert dyck_oracle_rank(2).alphabet.symbols == ("(", ")", "[", "]")
    three = dyck_oracle_rank(3)
    assert "(3" in three.alphabet.symbols
    with pytest.raises(ValueError):
        dyck_oracle_rank(0)


def test_dyck_signature_tracks_unmatched_openers():
    o = dyck_oracle()
    assert dyck_follower_signature(o, ("(", "[")) == ("(", "[")
    assert dyck_follower_signature(o, ("(", "[", "]")) == ("(",)
    assert dyck_follower_signature(o, (")", ")")) == ()
    with pytest.raises(InadmissibleBlockError, match=r"^inadmissible block \(\]$"):
        dyck_follower_signature(o, ("(", "]"))
    with pytest.raises(InadmissibleBlockError, match=r"^inadmissible block \[\)$"):
        oracle_follower_equal(o, ("(",), ("[", ")"), 2)


def test_dyck_equal_signatures_give_equal_followers():
    o = dyck_oracle()
    pairs = [
        (("(", ")"), (")", ")")),
        (("(", "[", "]"), ("(",)),
        (("[", "(", ")"), ("]", "[",)),
    ]
    for u, v in pairs:
        assert dyck_follower_signature(o, u) == dyck_follower_signature(o, v)
        assert oracle_follower_equal(o, u, v, horizon=4)
    assert not oracle_follower_equal(o, ("(",), ("[",), horizon=4)


def test_code_list_membership():
    o = code_list_oracle(Alphabet(("0", "1")), [("1", "0"), ("0",)])
    assert oracle_admissible(o, ("1", "0", "0"))
    assert oracle_admissible(o, ("0", "1"))
    tight = code_list_oracle(Alphabet(("0", "1")), [("1", "0")])
    assert not oracle_admissible(tight, ("0", "0"))
    assert oracle_admissible(tight, ("0", "1"))


def test_code_list_blocks_are_concatenation_fragments():
    o = code_list_oracle(Alphabet(("0", "1")), [("1", "0"), ("0",)])
    for n in range(1, 6):
        for w in oracle_blocks(o, n):
            assert oracle_admissible(o, w)


def test_sofic_follower_equal_matches_graph(graphs):
    g = graphs["even"]
    o = sofic_oracle(g)
    assert oracle_follower_equal(o, ("1",), ("0", "0", "1"), horizon=6)
    assert not oracle_follower_equal(o, ("1",), ("1", "0"), horizon=6)


def test_dyck_half_synchronizing_candidate():
    o = dyck_oracle()
    assert is_half_synchronizing(o, ("(", ")"), 6).status == HOLDS


def test_parse_oracle_formats(tmp_path):
    assert parse_oracle("oracle dyck 2\n").kind == "dyck"
    p = tmp_path / "g.graph"
    p.write_text("alphabet 0 1\nvertex A\nedge A A 0\nedge A A 1\n")
    o = parse_oracle(f"oracle sofic {p.name}\n", base_dir=str(tmp_path))
    assert o.kind == "sofic"
    o = parse_oracle("oracle codelist 10 0\n")
    assert o.kind == "code_list"
    with pytest.raises(ParseError):
        parse_oracle("oracle dyck x\n")
    with pytest.raises(ParseError):
        parse_oracle("nonsense\n")


def test_load_oracle_resolves_sibling_graphs():
    from shiftlab.acceptance import corpus_path

    o = load_oracle(corpus_path("even.oracle"))
    assert o.kind == "sofic"
    assert oracle_admissible(o, ("1", "0", "0", "1"))
    assert not oracle_admissible(o, ("1", "0", "1"))


def test_path_words_helper_agrees(graphs):
    g = graphs["golden"]
    assert sorted(path_words(g, 4)) == blocks_of_length(g, 4)
