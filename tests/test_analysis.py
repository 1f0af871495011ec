import itertools
import math
import random
from pathlib import Path

import pytest

from brute import degree_by_words, forward_extension_witness, preimage_blocks
from shiftlab import analysis, codes, covers
from shiftlab.analysis import (
    AGREE_NEGATIVE,
    AGREE_POSITIVE,
    DISAGREE,
    INCONCLUSIVE,
    PairAutomaton,
    check_theorem_3_3,
    check_theorem_3_4,
    check_theorem_4_2,
    degree,
    fiber_product,
    find_decoder_block,
    find_hyperbolic_certificate,
    is_finite_to_one,
    is_one_to_one_ae,
    right_closing_ae,
    verify_decoder_block,
)
from shiftlab.cli import main
from shiftlab.codes import (
    BlockCode,
    FactorMap,
    apply_block,
    identity_factor_map,
    image_presentation,
    recode_to_one_block,
)
from shiftlab.core import (
    Alphabet,
    LabeledGraph,
    blocks_of_length,
    format_block,
    graph_stepper,
    image_set,
    parse_graph,
    reach,
    reachable,
    walk,
)
from shiftlab.errors import (
    CodomainMismatchError,
    InadmissibleBlockError,
    NotFiniteToOneError,
    NotSurjectiveError,
)
from shiftlab.oracle import sofic_oracle

FULL1 = "alphabet a\nvertex A\nedge A A a\n"


def _collapse(graphs):
    g = graphs["full2"]
    h = parse_graph(FULL1)
    return FactorMap(
        BlockCode(0, 0, {("0",): "a", ("1",): "a"}, g.alphabet, h.alphabet), g, h
    )


def _pair_automaton(f):
    f1 = recode_to_one_block(f)
    phi = {w[0]: out for w, out in f1.code.window_map.items()}
    return PairAutomaton(f1.domain, phi)


def test_pair_automaton_shape(maps, graphs):
    pa = _pair_automaton(maps["xor"])
    n = len(pa.graph.vertices)
    assert len(pa.states) == n * n
    assert len(pa.diagonal) == n
    # the recoded xor map is right-resolving, the collapse map is not
    assert not pa.divergences()
    assert _pair_automaton(_collapse(graphs)).divergences()


def test_pair_automaton_survival_chain_decreases(maps):
    pa = _pair_automaton(maps["xor"])
    chain = pa.survival_chain()
    sizes = [len(s) for s in chain]
    assert sizes == sorted(sizes, reverse=True)
    assert chain[-1]  # xor has an everlasting off-diagonal pair


def test_finite_to_one(maps, graphs):
    assert is_finite_to_one(maps["evenmap"])
    assert is_finite_to_one(maps["xor"])
    assert is_finite_to_one(maps["identity"])
    assert not is_finite_to_one(_collapse(graphs))


def test_degree_values(maps):
    rep = degree(maps["evenmap"])
    assert (rep.degree, rep.exact) == (1, True)
    assert format_block(rep.magic_word) == "1"
    rep = degree(maps["xor"])
    assert (rep.degree, rep.exact) == (2, True)
    rep = degree(maps["identity"])
    assert rep.degree == 1


def test_degree_counts_preimages_of_magic_word(maps):
    f = maps["xor"]
    rep = degree(f)
    f1 = recode_to_one_block(f)
    pre = preimage_blocks(f1, rep.magic_word)
    # the magic word's preimage count at the minimizing coordinate
    # equals the degree; coordinate detail comes with the report
    coord = rep.details.index(min(rep.details))
    symbols = {x[coord] for x in pre}
    assert len(symbols) == rep.degree


def test_degree_invariant_under_recoding(maps):
    for name in ("evenmap", "xor", "identity"):
        f = maps[name]
        assert degree(recode_to_one_block(f)).degree == degree(f).degree


def test_degree_requires_finite_to_one(graphs):
    with pytest.raises(NotFiniteToOneError):
        degree(_collapse(graphs))


def _seeded_maps(full2, seeds):
    """Finite-to-one maps into 0 1, onto their images, on a random graph
    whose ring of first-letter edges makes it irreducible: by seed mod
    3, a one-block map of a b c on 1-4 vertices, or a two-block map of
    0 1 on 1-4 or on 1-2 vertices."""
    for seed in seeds:
        rng = random.Random(seed)
        kind = seed % 3
        width = 1 if kind == 0 else 2
        labels = ("a", "b", "c") if kind == 0 else ("0", "1")
        n = rng.randint(1, 2 if kind == 2 else 4)
        edges = {(f"q{i}", f"q{(i + 1) % n}", labels[0]) for i in range(n)}
        edges |= {
            (f"q{i}", f"q{rng.randrange(n)}", lab)
            for i in range(n) for lab in labels[1:] for _ in range(2) if rng.random() < 0.45
        }
        g = LabeledGraph(Alphabet(labels), [f"q{i}" for i in range(n)], edges)
        wm = {w: rng.choice("01") for w in itertools.product(labels, repeat=width)}
        code = BlockCode(0, width - 1, wm, g.alphabet, full2.alphabet)
        f = FactorMap(code, g, image_presentation(FactorMap(code, g, full2)))
        if is_finite_to_one(f):
            yield f


def test_degree_matches_word_enumeration(graphs):
    """Degree, magic word and counts equal the least over all image
    words, listed to the old exactness bound (squared subset-automaton
    size plus one) where that is at most 10 or the degree is 1.  On the
    other maps the listing runs to the magic word's length, which still
    pins the word and the counts."""
    by_degree = {}
    for f in _seeded_maps(graphs["full2"], range(600)):
        rep = degree(f)
        f1 = recode_to_one_block(f)
        bound = len(covers._subset_automaton(f1.domain)[0]) ** 2 + 1
        ref = degree_by_words(f1, max(len(rep.magic_word), bound if bound <= 10 else 0))
        assert (rep.degree, rep.magic_word, rep.details) == ref
        assert rep.exact
        exact = rep.degree == 1 or bound <= 10
        by_degree[rep.degree, exact] = by_degree.get((rep.degree, exact), 0) + 1
    assert sum(by_degree.values()) >= 240 and by_degree[2, True] >= 20


def test_degree_magic_word_is_least_in_reading_order(graphs):
    """After the image symbol the magic word takes the least word of its
    length in reading order; the least word of a breadth-first search on
    the reversed graph, read backwards, would give 0101001."""
    g = parse_graph(
        "alphabet a b c d e f g h\n" + "".join(f"vertex q{i}\n" for i in range(4))
        + "edge q0 q1 a\nedge q0 q3 b\nedge q1 q2 c\nedge q2 q0 d\n"
        + "edge q2 q3 e\nedge q3 q0 f\nedge q3 q1 g\nedge q3 q2 h\n"
    )
    code = BlockCode(0, 0, {(a,): b for a, b in zip("abcdefgh", "01010011")}, g.alphabet, graphs["full2"].alphabet)
    f = FactorMap(code, g, image_presentation(FactorMap(code, g, graphs["full2"])))
    rep = degree(f)
    assert (rep.degree, rep.magic_word) == (1, tuple("0100101"))
    assert (rep.degree, rep.magic_word, rep.details) == degree_by_words(recode_to_one_block(f), 7)


@pytest.mark.parametrize("k", (2, 3, 4, 5, 6))
def test_degree_of_xor_of_k(graphs, k):
    rep = degree(_xor_of(k, graphs["full2"]))
    assert (rep.degree, rep.magic_word, rep.details, rep.exact) == (2 ** (k - 1), ("0",), (2 ** (k - 1),), True)


def test_one_to_one_ae(maps):
    assert is_one_to_one_ae(maps["evenmap"])
    assert is_one_to_one_ae(maps["identity"])
    assert not is_one_to_one_ae(maps["xor"])


def test_right_closing_reports(maps, graphs):
    rep = right_closing_ae(maps["evenmap"])
    assert (rep.right_closing_ae, rep.delay, rep.exact) == (True, 0, True)
    rep = right_closing_ae(maps["xor"])
    assert (rep.right_closing_ae, rep.delay, rep.exact) == (True, 0, True)
    rep = right_closing_ae(_collapse(graphs))
    assert (rep.right_closing_ae, rep.delay, rep.exact) == (False, None, True)
    vtx, u, v = rep.witness
    assert u[0] != v[0]
    assert len(u) == len(v) == 7


def test_right_closing_delay_monotone(maps):
    # a delay certified under a small bound persists under larger ones
    for bound in (1, 3, 6):
        rep = right_closing_ae(maps["evenmap"], delay_bound=bound)
        assert rep.right_closing_ae and rep.delay == 0


def test_decoder_blocks(maps):
    cert = find_decoder_block(maps["evenmap"])
    assert (format_block(cert.block), cert.anticipation) == ("1", 0)
    assert cert.verified_horizon == math.inf
    cert = find_decoder_block(maps["identity"])
    assert (format_block(cert.block), cert.anticipation) == ("0", 0)
    assert find_decoder_block(maps["xor"], max_len=8, max_anticipation=4) is None


def test_verify_decoder_block(maps):
    f = maps["evenmap"]
    assert verify_decoder_block(f, ("1",), 0, horizon=10)
    assert not verify_decoder_block(f, ("0",), 0, horizon=8)
    assert not verify_decoder_block(f, ("0",), 4, horizon=8)
    assert verify_decoder_block(maps["identity"], ("0",), 0, horizon=8)
    with pytest.raises(InadmissibleBlockError):
        verify_decoder_block(f, ("1", "0", "1"), 0)


def test_decoder_requires_surjectivity(graphs):
    g = graphs["full2"]
    constant = FactorMap(
        BlockCode(0, 0, {("0",): "0", ("1",): "0"}, g.alphabet, g.alphabet), g, g
    )
    with pytest.raises(NotSurjectiveError):
        find_decoder_block(constant)


def test_decoder_search_closes_each_end_set_once(graphs, monkeypatch):
    f = _xor_of(4, graphs["full2"])
    img = graph_stepper(image_presentation(recode_to_one_block(f)))
    ends = {walk(img, w) for n in range(1, 9) for w in blocks_of_length(f.codomain, n)}
    calls = []
    monkeypatch.setattr(analysis, "reach", lambda *args: calls.append(args) or reach(*args))
    assert find_decoder_block(f) is None
    assert len(calls) == len(ends) == 1


def _decoder_by_every_word(f, max_len=8, max_anticipation=4):
    """The decoder search closing the end set of every image word."""
    f1 = recode_to_one_block(f)
    pa = PairAutomaton(f1.domain, {w[0]: out for w, out in f1.code.window_map.items()})
    chain = pa.survival_chain()
    img = image_presentation(f1)
    for length in range(1, max_len + 1):
        for w in blocks_of_length(f.codomain, length):
            ends = image_set(img, w)
            if not ends:
                continue
            closure = reach(
                [(p, q) for p in ends for q in ends],
                lambda pq: [succ for _, a1, a2, succ in pa.transitions[pq] if a1 == a2],
            )
            for k in range(max_anticipation + 1):
                surv = chain[min(k, len(chain) - 1)]
                if not any(
                    a1 != a2 and succ in surv for pq in closure for _, a1, a2, succ in pa.transitions[pq]
                ):
                    return w, k
    return None


def test_decoder_search_matches_every_word_search(maps, graphs):
    found = []
    for f in [*maps.values(), *_seeded_maps(graphs["full2"], range(300))]:
        cert = find_decoder_block(f)
        assert (cert and (cert.block, cert.anticipation)) == _decoder_by_every_word(f)
        found.append(cert is not None)
    assert found.count(True) >= 100 and found.count(False) >= 10


def test_hyperbolic_certificates(maps):
    cert = find_hyperbolic_certificate(maps["xor"])
    assert format_block(cert.word) == "0"
    assert (cert.d, cert.k) == (2, 0)
    assert sorted(format_block(b) for b in cert.central_blocks) == ["00", "11"]
    f1 = recode_to_one_block(maps["xor"])
    for m in cert.central_blocks:
        assert forward_extension_witness(f1, cert.word, cert.k, m, 8) is None
    cert = find_hyperbolic_certificate(maps["evenmap"])
    assert (format_block(cert.word), cert.d) == ("1", 1)
    assert [format_block(b) for b in cert.central_blocks] == ["a"]
    cert = find_hyperbolic_certificate(maps["identity"])
    assert (format_block(cert.word), cert.d) == ("0", 1)


def test_hyperbolic_blocks_match_enumeration(maps):
    for name in ("xor", "evenmap", "identity"):
        f = maps[name]
        cert = find_hyperbolic_certificate(f)
        f1 = recode_to_one_block(f)
        n = len(cert.word) // 2
        brute = set()
        for x in preimage_blocks(f1, cert.word):
            brute.add(x[n - cert.k : n + cert.k + 1])
        assert set(cert.central_blocks) == brute


def test_hyperbolic_on_golden_identity(graphs):
    f = identity_factor_map(graphs["golden"])
    cert = find_hyperbolic_certificate(f)
    assert (format_block(cert.word), cert.d) == ("0", 1)


def test_kmp_automaton_matches_its_definition():
    for n in range(1, 7):
        for w in itertools.product("01", repeat=n):
            delta = analysis._kmp_automaton(w)
            for s in range(n + 1):
                for b in "01":
                    read = w[:s] + (b,)
                    want = max(t for t in range(min(s + 1, n) + 1) if read[len(read) - t :] == w[:t])
                    assert delta[s].get(b, 0) == want


def _onto_image(g, phi):
    """The one-block map of g sending a to phi[a] in 0 1, onto its image."""
    full2 = Alphabet(("0", "1"))
    code = BlockCode(0, 0, {(a,): b for a, b in phi.items()}, g.alphabet, full2)
    onto = LabeledGraph(full2, ["v"], [("v", "v", "0"), ("v", "v", "1")])
    return FactorMap(code, g, image_presentation(FactorMap(code, g, onto)))


def _collapse_maps(seeds):
    """Per seed, the first finite-to-one letter collapse of a b c onto
    0 1 drawn on a 4-vertex ring of a-edges with random b- and c-edges."""
    for seed in seeds:
        rng = random.Random(seed)
        f = None
        while f is None or not is_finite_to_one(f):
            edges = {(f"q{i}", f"q{(i + 1) % 4}", "a") for i in range(4)}
            edges |= {(f"q{i}", f"q{rng.randrange(4)}", lab) for i in range(4) for lab in "bc" if rng.random() < 0.6}
            g = LabeledGraph(Alphabet(tuple("abc")), [f"q{i}" for i in range(4)], edges)
            merged = rng.sample("abc", 2)
            f = _onto_image(g, {a: "0" if a in merged else "1" for a in "abc"})
        yield f


def _higher_block_maps(seeds):
    """The first-symbol map from the 2-block code of a random a b c
    graph onto itself."""
    for seed in seeds:
        rng = random.Random(seed)
        edges = {(f"q{i}", f"q{(i + 1) % 3}", "a") for i in range(3)}
        edges |= {(f"q{i}", f"q{rng.randrange(3)}", lab) for i in range(3) for lab in "bc" if rng.random() < 0.6}
        g = LabeledGraph(Alphabet(tuple("abc")), [f"q{i}" for i in range(3)], edges)
        wm = {w: w[0] for w in itertools.product("abc", repeat=2)}
        yield FactorMap(BlockCode(0, 1, wm, g.alphabet, g.alphabet), g, g)


def _condition_two_cases():
    """(one-block map, pair automaton, w, n, k, block) for every block
    shown by an image word of length 1 or 3 of seeded collapse and
    higher-block maps."""
    for f in [*_collapse_maps(range(24)), *_higher_block_maps(range(6))]:
        f1 = recode_to_one_block(f)
        pa = PairAutomaton(f1.domain, analysis._phi(f1))
        for w in [*blocks_of_length(f.codomain, 1), *blocks_of_length(f.codomain, 3)]:
            n = len(w) // 2
            for k in range(n + 1):
                for m in sorted({x[n - k : n + k + 1] for x in preimage_blocks(f1, w)}):
                    yield f1, pa, w, n, k, m


def test_condition_two_searches_a_finite_state_set(monkeypatch):
    """Every state stepped to lies in V x V x 0..|w| x ({inf} | 0..n - k),
    so the search ends and its verdict needs no length bound."""
    cases = list(_condition_two_cases())
    shape = []

    def in_range(state):
        w, n, k = shape[-1]
        _, _, s, lag = state
        assert 0 <= s <= len(w) and (lag == math.inf or 0 <= lag <= n - k), state
        return state

    def searched(starts, succ):
        calls.append(starts)
        return reachable(starts, lambda st: map(in_range, succ(st)))

    calls = []
    monkeypatch.setattr(analysis, "reachable", searched)
    for f1, pa, w, n, k, m in cases:
        shape.append((w, n, k))
        analysis._condition_two(pa, w, n, k, m)
    assert len(calls) == len(cases)


def test_condition_two_stops_at_the_first_refuting_state(monkeypatch):
    """A holding block closes its whole reach; a refuted one stops at the
    first refuting state, most often before the reach is closed."""
    counts = []

    def searched(starts, succ):
        starts = list(starts)
        counts.append([0, len(reach(starts, succ))])
        for state in reachable(starts, succ):
            counts[-1][0] += 1
            yield state

    monkeypatch.setattr(analysis, "reachable", searched)
    early = 0
    for f1, pa, w, n, k, m in _condition_two_cases():
        holds = analysis._condition_two(pa, w, n, k, m)
        pulled, whole = counts[-1]
        assert pulled == whole if holds else pulled <= whole
        early += pulled < whole
    assert early >= 400


def test_condition_two_matches_brute_enumeration():
    """Every refutation has an enumerated witness and no holding block
    has one."""
    verdicts = []
    for f1, pa, w, n, k, m in _condition_two_cases():
        holds = analysis._condition_two(pa, w, n, k, m)
        assert holds == (forward_extension_witness(f1, w, k, m, 8) is None), (w, k, m)
        verdicts.append(holds)
    assert verdicts.count(True) >= 300 and verdicts.count(False) >= 400


# letter collapses of a b c with a -> 1, b, c -> 0 that the map-analysis
# benchmark draws at seeds 507 and 509
SEED_507 = """alphabet a b c
vertex q0
vertex q1
vertex q2
vertex q3
edge q0 q0 c
edge q0 q1 a
edge q1 q2 a
edge q2 q0 c
edge q2 q3 a
edge q3 q0 a
edge q3 q0 b
"""
SEED_509 = """alphabet a b c
vertex q0
vertex q1
vertex q2
vertex q3
edge q0 q1 a
edge q0 q3 c
edge q1 q2 a
edge q1 q2 b
edge q2 q1 b
edge q2 q3 a
edge q3 q0 a
edge q3 q3 b
"""


def test_hyperbolic_certificates_that_enumeration_refutes():
    """Both maps took the certificate word 1, d 1, k 0, block a while
    forward extension went unchecked; enumeration refutes that block."""
    phi = {"a": "1", "b": "0", "c": "0"}
    for text in (SEED_507, SEED_509):
        f1 = recode_to_one_block(_onto_image(parse_graph(text), phi))
        assert forward_extension_witness(f1, ("1",), 0, ("a",), 8) is not None
    f = _onto_image(parse_graph(SEED_507), phi)
    cert = find_hyperbolic_certificate(f)
    assert (format_block(cert.word), cert.d, cert.k, cert.central_blocks) == ("000", 1, 0, (("c",),))
    assert forward_extension_witness(recode_to_one_block(f), cert.word, 0, ("c",), 8) is None
    assert find_hyperbolic_certificate(_onto_image(parse_graph(SEED_509), phi)) is None

def test_fiber_product_identity(maps):
    f = maps["identity"]
    fp = fiber_product(f, f)
    assert len(fp.components) == 1
    assert fp.components[0].both_onto


def test_fiber_product_xor(maps):
    f = maps["xor"]
    fp = fiber_product(f, f)
    assert len(fp.presentation.vertices) == 4
    assert len(fp.presentation.edges) == 8
    assert [len(c.graph.vertices) for c in fp.components] == [2, 2]
    assert all(c.both_onto for c in fp.components)


def test_fiber_product_evenmap(maps):
    fp = fiber_product(maps["evenmap"], maps["evenmap"])
    flags = [(c.onto_first, c.onto_second) for c in fp.components]
    assert (True, True) in flags and (False, False) in flags


def test_fiber_projections_commute(maps):
    f = maps["xor"]
    fp = fiber_product(f, f)
    f1 = recode_to_one_block(f)
    p1, p2 = fp.projections
    for n in range(1, 9):
        for w in blocks_of_length(fp.presentation, n):
            assert apply_block(f1.code, apply_block(p1.code, w)) == apply_block(
                f1.code, apply_block(p2.code, w)
            )


def test_fiber_product_rejects_mismatched_codomains(maps):
    with pytest.raises(CodomainMismatchError):
        fiber_product(maps["xor"], maps["evenmap"])


def test_theorem_4_2(maps, graphs):
    rep = check_theorem_4_2(maps["evenmap"])
    assert rep.status == AGREE_POSITIVE
    assert ("decoder-block 1 anticipation 0",) == rep.certificates
    rep = check_theorem_4_2(maps["xor"])
    assert rep.status == AGREE_NEGATIVE
    rep = check_theorem_4_2(maps["identity"])
    assert rep.status == AGREE_POSITIVE


def test_theorem_4_2_never_disagrees_on_corpus(maps):
    for f in maps.values():
        assert check_theorem_4_2(f).status != DISAGREE


def test_theorem_3_3(maps):
    for name in ("xor", "evenmap", "identity"):
        rep = check_theorem_3_3(maps[name])
        assert rep.status == AGREE_POSITIVE
        facts = dict(rep.facts)
        assert facts["construction-block-half-sync"] == "yes"


def _xor_of(k, g):
    """Sum mod 2 of k adjacent symbols, on the full 2-shift g."""
    wm = {w: str(sum(map(int, w)) % 2) for w in itertools.product("01", repeat=k)}
    return FactorMap(BlockCode(0, k - 1, wm, g.alphabet, g.alphabet), g, g)


@pytest.mark.parametrize("k", (2, 3, 4))
def test_theorem_3_3_builds_no_ray_prefix(graphs, monkeypatch, k):
    built = []
    ray_parts = covers._ray_parts
    monkeypatch.setattr(covers, "_ray_parts", lambda *args: built.append(args) or ray_parts(*args))
    rep = check_theorem_3_3(_xor_of(k, graphs["full2"]))
    assert rep.status == AGREE_POSITIVE
    assert dict(rep.facts)["construction-block-half-sync"] == "yes"
    assert built == []
    # the counter sees the prefix a holding verdict of the CLI builds
    covers.is_half_synchronizing(sofic_oracle(graphs["full2"]), ("0",), 4)
    assert len(built) == 1


def test_theorem_3_3_builds_each_follower_inclusion_once_per_side(monkeypatch, capsys):
    built = []
    inclusion = covers._follower_inclusion
    monkeypatch.setattr(covers, "_follower_inclusion", lambda p: built.append(p) or inclusion(p))
    assert main(["check", "t33", "evenmap.code"]) == 0
    assert "status agree-positive\n" in capsys.readouterr().out
    assert 0 < len(built) <= 2


def test_theorem_3_3_report_lines(maps):
    rep = check_theorem_3_3(maps["evenmap"])
    lines = rep.lines()
    assert lines[0] == "report t33"
    assert lines[1] == "status agree-positive"
    assert "hyperbolic word 1 d 1 k 0 blocks a" in lines


def test_theorem_3_4(maps):
    rep = check_theorem_3_4(
        maps["identity"], maps["xor"], maps["xor"], maps["identity"]
    )
    assert rep.status == AGREE_POSITIVE
    facts = dict(rep.facts)
    assert facts["left-certificate"] == "yes"
    assert facts["right-certificate"] == "yes"
    assert any(line.startswith("left hyperbolic word") for line in rep.certificates)


def test_theorem_3_4_reads_the_recoded_domain_it_already_has(maps, monkeypatch):
    """The first-symbol projection comes from the width-2 xor window map,
    so the harness builds no higher-block graph of its own and its
    report stays the golden one."""

    def refuse(*args):
        raise AssertionError("higher_block called")

    built = []
    block_paths = codes._block_paths
    monkeypatch.setattr(codes, "higher_block", refuse)
    monkeypatch.setattr(analysis, "higher_block", refuse, raising=False)
    monkeypatch.setattr(codes, "_block_paths", lambda g, n: built.append(n) or block_paths(g, n))
    rep = check_theorem_3_4(maps["identity"], maps["xor"], maps["xor"], maps["identity"])
    golden = Path(__file__).parent / "golden" / "check_t34_identity-code_xor-code_xor-code_identity-code.out"
    assert "\n".join(rep.lines()) + "\n" == golden.read_text(encoding="utf-8").split("\n", 1)[1]
    assert built and set(built) == {1}


def test_theorem_3_4_all_identity(maps):
    f = maps["identity"]
    assert check_theorem_3_4(f, f, f, f).status == AGREE_POSITIVE


def test_theorem_3_4_mixed_instance(maps, graphs):
    fem = maps["evenmap"]
    ident = identity_factor_map(graphs["evenedge"])
    rep = check_theorem_3_4(ident, fem, fem, ident)
    assert rep.status == AGREE_POSITIVE


def test_theorem_3_4_rejects_mismatched_middles(maps):
    with pytest.raises(CodomainMismatchError):
        check_theorem_3_4(
            maps["identity"], maps["xor"], maps["evenmap"], maps["identity"]
        )


def test_theorem_reports_are_renderable(maps):
    rep = check_theorem_4_2(maps["xor"])
    lines = rep.lines()
    assert lines[0] == "report t42"
    assert all(" " in line for line in lines[1:])
    assert rep.status in (AGREE_POSITIVE, AGREE_NEGATIVE, DISAGREE, INCONCLUSIVE)
