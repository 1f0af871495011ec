import pytest

from brute import higher_block_graph, image_by_relabeling, path_words, recode_by_parsing
from shiftlab import codes
from shiftlab.analysis import (
    check_theorem_3_3,
    check_theorem_4_2,
    degree,
    fiber_product,
    find_decoder_block,
    find_hyperbolic_certificate,
    right_closing_ae,
)
from shiftlab.codes import (
    BlockCode,
    FactorMap,
    apply_block,
    apply_code,
    certify_surjectivity,
    compose,
    higher_block,
    identity_factor_map,
    image_presentation,
    load_factor_map,
    parse_code,
    recode_to_one_block,
    recoding_code,
)
from shiftlab.core import (
    Point,
    blocks_of_length,
    format_block,
    parse_graph,
    point_window,
    same_denotation,
    trim_to_essential,
)
from shiftlab.covers import languages_equal
from shiftlab.errors import (
    BlockTooShortError,
    CodomainMismatchError,
    InadmissibleWindowError,
    ParseError,
)
from test_analysis import _collapse_maps, _higher_block_maps, _xor_of

FULL2 = "alphabet 0 1\nvertex A\nedge A A 0\nedge A A 1\n"


def _xor(maps):
    return maps["xor"]


def test_apply_block_xor(maps):
    c = _xor(maps).code
    assert format_block(apply_block(c, ("0", "1", "1", "0"))) == "101"
    with pytest.raises(BlockTooShortError):
        apply_block(c, ("0",))


def test_apply_block_locality(maps):
    # coding a long block equals coding each window independently
    for f in maps.values():
        g, c = f.domain, f.code
        for n in range(c.width, 13):
            for w in blocks_of_length(g, n):
                image = apply_block(c, w)
                windows = [w[i : i + c.width] for i in range(len(w) - c.width + 1)]
                assert image == tuple(c.window_map[win] for win in windows)


def test_apply_block_reports_bad_window():
    g = parse_graph(FULL2)
    c = BlockCode(0, 1, {("0", "0"): "0", ("0", "1"): "1", ("1", "0"): "1"},
                  g.alphabet, g.alphabet)
    with pytest.raises(InadmissibleWindowError) as e:
        apply_block(c, ("0", "1", "1"))
    assert e.value.coordinate == 1


def test_apply_code_offset_and_periodicity(maps):
    f = _xor(maps)
    p = Point(("0",), ("0", "1", "1", "0", "1"), ("1",), 0)
    q = apply_code(f.code, p)
    assert q.offset == p.offset + f.code.anticipation
    # the image of an eventually periodic point keeps the period lengths
    assert len(q.left) == len(p.left)
    assert len(q.right) == len(p.right)
    # spot-check coordinates against the window rule
    for t in range(-3, 6):
        window = point_window(p, t, t + 1)
        assert apply_block(f.code, window)[0] == point_window(q, t, t)[0]


def test_apply_code_identity_is_identity(maps):
    f = maps["identity"]
    p = Point(("0", "1"), ("1",), ("0",), 2)
    assert same_denotation(apply_code(f.code, p), p)


def test_higher_block_presentation(graphs):
    g2, code = higher_block(graphs["even"], 2)
    assert sorted(g2.alphabet.symbols) == ["00", "01", "10", "11"]
    # vertices are labeled edges of the original graph
    assert all("-" in v for v in g2.vertices)
    # (N-1)-overlap: consecutive symbols share a one-symbol overlap
    for src, dst, lab in g2.edges:
        assert lab[0] in "01" and lab[1] in "01"
    for n in range(1, 9):
        imgs = {apply_block(code, w) for w in blocks_of_length(g2, n)}
        assert imgs <= set(blocks_of_length(graphs["even"], n))
    assert higher_block(graphs["even"], 1)[0] is graphs["even"]


def test_higher_block_no_parallel_duplicates(graphs):
    for n in (2, 3):
        g, _ = higher_block(graphs["golden"], n)
        assert len(set(g.edges)) == len(g.edges)


def test_recode_to_one_block_pointwise(maps):
    f = _xor(maps)
    f1 = recode_to_one_block(f)
    assert f1.code.width == 1
    psi = recoding_code(f)
    for w in blocks_of_length(f.domain, 6):
        assert apply_block(f1.code, apply_block(psi, w)) == apply_block(f.code, w)


def test_recode_leaves_one_block_maps_alone(maps):
    f = maps["evenmap"]
    assert recode_to_one_block(f) is f


def test_compose_xor_with_itself(maps):
    c = compose(_xor(maps).code, _xor(maps).code)
    assert (c.memory, c.anticipation) == (0, 2)
    assert len(c.window_map) == 8
    for w, out in c.window_map.items():
        assert out == str(int(w[0]) ^ int(w[2]))


def test_compose_associative(maps):
    c = _xor(maps).code
    i = maps["identity"].code
    left = compose(compose(c, c), i)
    right = compose(c, compose(c, i))
    assert left.window_map == right.window_map
    assert (left.memory, left.anticipation) == (right.memory, right.anticipation)


def test_compose_rejects_alphabet_mismatch(maps):
    with pytest.raises(CodomainMismatchError):
        compose(maps["evenmap"].code, _xor(maps).code)


def test_image_presentation_within_codomain(maps):
    for f in maps.values():
        img = trim_to_essential(image_presentation(f))
        for n in range(1, 11):
            assert set(blocks_of_length(img, n)) <= set(blocks_of_length(f.codomain, n))


def test_image_equals_codomain_iff_onto(maps, graphs):
    onto = maps["evenmap"]
    assert languages_equal(trim_to_essential(image_presentation(onto)), onto.codomain)
    g = graphs["full2"]
    constant = FactorMap(
        BlockCode(0, 0, {("0",): "0", ("1",): "0"}, g.alphabet, g.alphabet), g, g
    )
    assert not languages_equal(trim_to_essential(image_presentation(constant)), g)


def test_certify_surjectivity(maps, graphs):
    f = _xor(maps)
    assert certify_surjectivity(f) is True
    g = graphs["full2"]
    constant = FactorMap(
        BlockCode(0, 0, {("0",): "0", ("1",): "0"}, g.alphabet, g.alphabet), g, g
    )
    assert certify_surjectivity(constant) is False


def test_certify_surjectivity_exact_on_reducible_presentations(graphs):
    # two disjoint full-shift loops onto full2, and a golden-mean part
    # plus a lone 0-loop onto the golden mean shift: both reducible
    full2 = graphs["full2"]
    loops = parse_graph(
        "alphabet 0 1\nvertex A\nvertex B\n"
        "edge A A 0\nedge A A 1\nedge B B 0\nedge B B 1\n"
    )
    ident = BlockCode(0, 0, {("0",): "0", ("1",): "1"}, full2.alphabet, full2.alphabet)
    assert certify_surjectivity(FactorMap(ident, loops, full2))
    golden = graphs["golden"]
    part = parse_graph(
        "alphabet 0 1\nvertex A\nvertex B\nvertex Z\n"
        "edge A A 0\nedge A B 1\nedge B A 0\nedge Z Z 0\n"
    )
    assert certify_surjectivity(FactorMap(ident, part, golden))
    zeros = parse_graph("alphabet 0 1\nvertex Z\nvertex Y\nedge Z Z 0\nedge Y Y 0\n")
    assert not certify_surjectivity(FactorMap(ident, zeros, golden))


def _gap_graph(gap):
    """1s separated by at least `gap` 0s."""
    vs = [f"z{i}" for i in range(gap + 1)]
    lines = ["alphabet 0 1"] + [f"vertex {v}" for v in vs]
    lines += [f"edge {vs[i]} {vs[i + 1]} 0" for i in range(gap)]
    lines += [f"edge {vs[gap]} {vs[gap]} 0", f"edge {vs[gap]} {vs[0]} 1"]
    return parse_graph("\n".join(lines) + "\n")


@pytest.mark.parametrize("gap, witness", [(4, "100001"), (5, "1000001")])
def test_factor_map_rejects_image_past_the_window_horizon(gap, witness):
    # the least image block outside the codomain is longer than the
    # window plus four, so only an exact inclusion check sees it
    dom, cod = _gap_graph(gap), _gap_graph(gap + 1)
    ident = BlockCode(0, 0, {("0",): "0", ("1",): "1"}, dom.alphabet, cod.alphabet)
    with pytest.raises(CodomainMismatchError) as e:
        FactorMap(ident, dom, cod)
    assert "codomain" in str(e.value)
    assert f"image block {witness} " in str(e.value)
    FactorMap(ident, cod, dom)


def test_factor_map_validates_window_coverage(graphs):
    g = graphs["full2"]
    with pytest.raises(ValueError):
        FactorMap(BlockCode(0, 0, {("0",): "0"}, g.alphabet, g.alphabet), g, g)
    # 01 and 10 are missing; the error names the least
    partial = BlockCode(0, 1, {("0", "0"): "0", ("1", "1"): "0"}, g.alphabet, g.alphabet)
    with pytest.raises(ValueError, match=r"^window map misses admissible window 01$"):
        FactorMap(partial, g, g)


def test_factor_map_checks_image_admissibility(graphs):
    # b c reads as 1 0 1 under this map, an odd 0-run
    g = graphs["evenedge"]
    even = graphs["even"]
    bad = BlockCode(0, 0, {("a",): "1", ("b",): "0", ("c",): "1"},
                    g.alphabet, even.alphabet)
    with pytest.raises(CodomainMismatchError):
        FactorMap(bad, g, even)


def test_identity_factor_map(graphs):
    f = identity_factor_map(graphs["golden"])
    assert f.code.width == 1
    for w in blocks_of_length(graphs["golden"], 5):
        assert apply_block(f.code, w) == w


def test_parse_code_round_trip_and_errors(tmp_path):
    good = (
        "code memory 0 anticipation 1\n"
        "map 00 0\nmap 01 1\nmap 10 1\nmap 11 0\n"
    )
    code, dom, cod = parse_code(good)
    assert dom is None and cod is None
    assert code.width == 2
    with pytest.raises(ParseError) as e:
        parse_code("code memory 0 anticipation 1\nmap 00 0\nmap 00 1\nmap 01 0\nmap 10 0\nmap 11 0\n", path="c.code")
    assert "c.code:3" in str(e.value)
    with pytest.raises(ParseError):
        parse_code("map 0 0\n")
    with pytest.raises(ParseError):
        parse_code("code memory 0 anticipation 0\n")


def test_parse_code_strict_against_domain(tmp_path):
    (tmp_path / "g.graph").write_text(FULL2)
    missing = (
        "code memory 0 anticipation 1\n"
        f"domain g.graph\ncodomain g.graph\n"
        "map 00 0\nmap 01 1\nmap 10 1\n"
    )
    with pytest.raises(ParseError):
        parse_code(missing, base_dir=str(tmp_path))
    extra = (
        "code memory 0 anticipation 0\n"
        f"domain g.graph\ncodomain g.graph\n"
        "map 0 0\nmap 1 1\nmap 2 0\n"
    )
    with pytest.raises(ParseError):
        parse_code(extra, base_dir=str(tmp_path))


def test_load_factor_map_requires_presentations(tmp_path):
    p = tmp_path / "c.code"
    p.write_text("code memory 0 anticipation 1\nmap 00 0\nmap 01 1\nmap 10 1\nmap 11 0\n")
    with pytest.raises(ParseError):
        load_factor_map(str(p))


def test_brute_paths_agree_with_domain(maps):
    f = maps["evenmap"]
    assert sorted(path_words(f.domain, 3)) == blocks_of_length(f.domain, 3)


def _shift_maps(graphs):
    """Codes with memory > 0 on corpus graphs, onto the same graph:
    the identity and the shift, read through wider windows."""
    for name in ("golden", "even", "evenedge"):
        g = graphs[name]
        for m, n in ((1, 0), (1, 1), (2, 0)):
            windows = blocks_of_length(g, m + n + 1)
            for at in (0, m):
                yield FactorMap(BlockCode(m, n, {w: w[at] for w in windows}, g.alphabet, g.alphabet), g, g)


def _all_maps(maps, graphs):
    yield from maps.values()
    yield from (_xor_of(k, graphs["full2"]) for k in range(2, 6))
    yield from _shift_maps(graphs)
    yield from _collapse_maps(range(24))
    yield from _higher_block_maps(range(6))


def test_higher_block_matches_path_listing(graphs):
    for g in graphs.values():
        for n in (2, 3):
            assert higher_block(trim_to_essential(g), n)[0] == higher_block_graph(trim_to_essential(g), n)


def test_factor_map_fields_match_the_two_step_constructions(maps, graphs):
    for f in _all_maps(maps, graphs):
        assert image_presentation(f) == image_by_relabeling(f)
        f1, ref = recode_to_one_block(f), recode_by_parsing(f)
        assert f1.code == ref.code
        assert (f1.domain, f1.codomain) == (ref.domain, ref.codomain)
        assert f1.one_block is f1


VERBS = (
    degree,
    right_closing_ae,
    find_decoder_block,
    find_hyperbolic_certificate,
    check_theorem_4_2,
    check_theorem_3_3,
    lambda f: fiber_product(f, f),
)


def _slots(f):
    return [getattr(x, name) for x in (f, f.one_block) for name in FactorMap.__slots__]


def test_factor_map_is_not_written_by_the_verbs(maps, graphs):
    for f in [*maps.values(), *(_xor_of(k, graphs["full2"]) for k in range(2, 6))]:
        assert not hasattr(f, "_cache")
        before = _slots(f)
        for verb in VERBS:
            verb(f)
            assert all(a is b for a, b in zip(before, _slots(f))), verb


def test_factor_map_builds_its_higher_block_graph_once(graphs, monkeypatch):
    # a width-1 build reads its graph's own edges (n = 1) and builds nothing
    calls = []
    build = codes._block_paths
    monkeypatch.setattr(codes, "_block_paths", lambda g, n: calls.append((g, n)) or build(g, n))
    f = _xor_of(5, graphs["full2"])
    assert [(g, n) for g, n in calls if n > 1] == [(f.domain, 5)]
    for verb in VERBS:
        calls.clear()
        verb(f)
        assert all(n == 1 and g is not f.domain and g is not f.one_block.domain for g, n in calls), verb
