import pytest

from brute import dyck_admissible, path_words
from shiftlab import core, covers, oracle
from shiftlab.cli import main
from shiftlab.core import Alphabet, blocks_of_length, walk
from shiftlab.covers import HOLDS, _dyck_counts, is_half_synchronizing, ray_prefix
from shiftlab.errors import InadmissibleBlockError, InvariantError, ParseError
from shiftlab.oracle import (
    DYCK_PAIRS_2,
    _embed_in_concatenation,
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


@pytest.mark.parametrize("rank", (1, 2))
def test_dyck_half_sync_prefix_walked_whole(rank):
    # the prefix is checked part by part when it is built; here it is
    # walked symbol by symbol
    o = dyck_oracle_rank(rank)
    for h in range(1, 6):
        blocks = ["".join(w) for w in _words(o.alphabet, h) if dyck_admissible(o.pairs, w)]
        for m in [w for n in (1, 2) for w in _words(o.alphabet, n) if dyck_admissible(o.pairs, w)]:
            prefix = ray_prefix(o, m, h)
            assert dyck_admissible(o.pairs, prefix)
            assert prefix[-len(m):] == m
            assert walk(o.stepper, prefix) == walk(o.stepper, m)
            text = "".join(prefix)
            assert all(b in text for b in blocks)


def _dyck_blocks(o, n):
    return [w for w in _words(o.alphabet, n) if dyck_admissible(o.pairs, w)]


@pytest.mark.parametrize("rank", (1, 2, 3))
def test_dyck_prefix_length_is_the_built_length(rank):
    o = dyck_oracle_rank(rank)
    ms = (_dyck_blocks(o, 1)[0], _dyck_blocks(o, 2)[1])
    for h in range(1, 9):
        for m in ms:
            v = is_half_synchronizing(o, m, h)
            assert v.prefix_length == len(ray_prefix(o, m, h))
    # a budget below the horizon bounds the block length
    tight = dyck_oracle_rank(rank, horizon_budget=3)
    m = ms[1]
    v = is_half_synchronizing(tight, m, 6)
    assert v.prefix_length == len(ray_prefix(tight, m, 6)) == len(ray_prefix(o, m, 3))


@pytest.mark.parametrize("rank", (1, 2, 3))
def test_dyck_counts_match_enumeration(rank):
    o = dyck_oracle_rank(rank)
    for n in range(6):
        blocks = _dyck_blocks(o, n)
        depths = sum(len(walk(o.stepper, b)) for b in blocks)
        assert _dyck_counts(rank, n) == (len(blocks), depths)


def test_dyck_half_sync_enumerates_no_blocks(monkeypatch):
    calls = []

    def counted(name, fn):
        return lambda *args: calls.append(name) or fn(*args)

    for mod in (core, covers, oracle):
        monkeypatch.setattr(mod, "iter_blocks", counted("iter_blocks", mod.iter_blocks))
    monkeypatch.setattr(covers, "_dyck_prefix", counted("_dyck_prefix", covers._dyck_prefix))
    monkeypatch.setattr(covers, "ray_prefix", counted("ray_prefix", covers.ray_prefix))
    o = dyck_oracle_rank(3)
    v = is_half_synchronizing(o, ("(3", ")3", "["), 8)
    assert (v.status, v.exact, v.prefix_length) == (HOLDS, True, 2809164)
    assert calls == []


def test_cli_dyck3_prefix_length(tmp_path, capsys):
    p = tmp_path / "dyck3.oracle"
    p.write_text("oracle dyck 3\n")
    assert main(["sync", "half", str(p), "(3.)3.[", "--horizon", "8"]) == 0
    out = capsys.readouterr().out
    assert "prefix-length 2809164\n" in out
    assert "prefix " not in out


def test_embed_in_concatenation_needs_a_code_list():
    with pytest.raises(InvariantError):
        _embed_in_concatenation(dyck_oracle(), ("(",))


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
