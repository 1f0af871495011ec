"""Sliding block codes: construction, application, composition,
higher-block recoding, and image presentations.

A block code with memory m and anticipation n maps a point x to the
point y with y_i determined by the window x_{i-m} ... x_{i+n}.  The
window map is stored extensionally (domains are finite at desk scale),
which makes composition and recoding mechanical.

A FactorMap is built once: its constructor walks one higher-block graph
of the domain at the code's width, and from it checks the windows and
keeps two fields, `image` (the image presentation) and `one_block`
(the equivalent 1-block map the analysis verbs run on).
"""

from .core import (
    Alphabet,
    Block,
    LabeledGraph,
    Point,
    blocks_of_length,
    first_divergence,
    format_block,
    graph_stepper,
    parse_block,
    point_window,
    require_essential,
    trim_to_essential,
)
from .covers import languages_equal
from .errors import (
    BlockTooShortError,
    CodomainMismatchError,
    InadmissibleWindowError,
    ParseError,
)


class BlockCode:
    """A window map together with its memory and anticipation."""

    __slots__ = ("memory", "anticipation", "window_map", "domain_alphabet", "codomain_alphabet")

    def __init__(self, memory, anticipation, window_map, domain_alphabet, codomain_alphabet):
        if memory < 0 or anticipation < 0:
            raise ValueError("memory and anticipation must be >= 0")
        self.memory = memory
        self.anticipation = anticipation
        self.domain_alphabet = domain_alphabet
        self.codomain_alphabet = codomain_alphabet
        width = memory + anticipation + 1
        wm = {}
        for w, out in window_map.items():
            w = tuple(w)
            if len(w) != width:
                raise ValueError(f"window {w!r} is not of length {width}")
            for s in w:
                if s not in domain_alphabet:
                    raise ValueError(f"window symbol {s!r} not in domain alphabet")
            if out not in codomain_alphabet:
                raise ValueError(f"image symbol {out!r} not in codomain alphabet")
            wm[w] = out
        self.window_map = dict(
            sorted(wm.items(), key=lambda kv: domain_alphabet.block_key(kv[0]))
        )

    @property
    def width(self) -> int:
        return self.memory + self.anticipation + 1

    def __eq__(self, other):
        return (
            isinstance(other, BlockCode)
            and self.memory == other.memory
            and self.anticipation == other.anticipation
            and self.window_map == other.window_map
            and self.domain_alphabet == other.domain_alphabet
            and self.codomain_alphabet == other.codomain_alphabet
        )

    def __repr__(self):
        return f"BlockCode(m={self.memory}, n={self.anticipation}, {len(self.window_map)} windows)"


def apply_block(c: BlockCode, w: Block) -> Block:
    """Code a finite block; the result is shorter by memory + anticipation."""
    width = c.width
    if len(w) < width:
        raise BlockTooShortError(
            f"block of length {len(w)} is shorter than the window {width}"
        )
    out = []
    for i in range(len(w) - width + 1):
        win = tuple(w[i : i + width])
        if win not in c.window_map:
            raise InadmissibleWindowError(
                f"window {format_block(win)} at position {i} is not in the code's domain",
                coordinate=i,
            )
        out.append(c.window_map[win])
    return tuple(out)


def apply_code(c: BlockCode, p: Point) -> Point:
    """Code an eventually periodic point.

    The image symbol at coordinate i comes from the window at
    coordinates [i - m, i + n]; eventual periodicity is preserved with
    the same period lengths.
    """
    m, n = c.memory, c.anticipation
    rigid = Point(p.left, p.center, p.right, 0)

    def z(t):
        win = point_window(rigid, t - m, t + n)
        got = c.window_map.get(win)
        if got is None:
            raise InadmissibleWindowError(
                f"window {format_block(win)} at coordinate {t - m - p.offset}"
                " is not in the code's domain",
                coordinate=t - m - p.offset,
            )
        return got

    lp, lc, rp = len(p.left), len(p.center), len(p.right)
    left = tuple(z(t) for t in range(-n - lp, -n))
    center = tuple(z(t) for t in range(-n, lc + m))
    right = tuple(z(t) for t in range(lc + m, lc + m + rp))
    return Point(left, center, right, p.offset + n)


def _block_paths(g: LabeledGraph, n: int):
    """The higher-block graph of an essential g at block length n, with
    blocks for labels: (vertices, edges, blocks).

    Vertices name the paths of n - 1 edges, "v0-a1-v1-...-v(n-1)" (at
    n = 1 the vertices of g); an edge joins a path to its one-step
    successor and is labeled by the length-n block read along the union
    path, so the labels are exactly the admissible length-n blocks,
    returned length-lex sorted.  Distinct edges never share source,
    target, and label, so the construction cannot create duplicates.
    """
    paths = [(v,) for v in g.vertices]
    for _ in range(n - 1):
        paths = [p + (lab, dst) for p in paths for lab, dst in g.out_edges(p[-1])]
    edges = []
    for p in paths:
        for lab, dst in g.out_edges(p[-1]):
            full = p + (lab, dst)
            edges.append(("-".join(p), "-".join(full[2:]), full[1::2]))
    blocks = sorted({w for _, _, w in edges}, key=g.alphabet.block_key)
    return ["-".join(p) for p in paths], edges, blocks


def _named_blocks(vertices, edges, blocks) -> LabeledGraph:
    """The graph of _block_paths with each block named by format_block."""
    return LabeledGraph(
        Alphabet(map(format_block, blocks)),
        vertices,
        [(src, dst, format_block(w)) for src, dst, w in edges],
    )


def higher_block(g: LabeledGraph, n_blocks: int):
    """The higher-block presentation and its first-symbol projection.

    Its symbols are the admissible length-n_blocks blocks, formatted,
    and its vertices the paths of n_blocks - 1 edges (see _block_paths).
    Returns (graph, code) where code is the 1-block projection onto
    the first symbol of each higher symbol.
    """
    require_essential(g)
    if n_blocks < 1:
        raise ValueError("block length must be >= 1")
    if n_blocks == 1:
        used = sorted({lab for _, _, lab in g.edges}, key=g.alphabet.index)
        code = BlockCode(0, 0, {(s,): s for s in used}, g.alphabet, g.alphabet)
        return g, code
    vertices, edges, blocks = _block_paths(g, n_blocks)
    graph = _named_blocks(vertices, edges, blocks)
    code = BlockCode(0, 0, {(format_block(b),): b[0] for b in blocks}, graph.alphabet, g.alphabet)
    return graph, code


class FactorMap:
    """A block code bundled with domain and codomain presentations.

    Everything is built once, in the constructor, from one higher-block
    graph of the trimmed domain at the code's width (_block_paths):
      * its labels are the domain's admissible windows.  The window map
        is pruned to exactly these; a missing one is an error naming
        the least;
      * relabeled by the window map it is `image`, a presentation of
        exactly the image shift (edges that become identical collapse
        into one).  The image must lie in the codomain; this is checked
        exactly, for every presentation, by a first_divergence search
        from `image` to the codomain, and the least image block outside
        the codomain is named in the error;
      * with its windows as symbols it is the domain of `one_block`, the
        equivalent 1-block map (see recode_to_one_block), built by this
        same constructor; at width 1 `one_block` is the map itself.
    Nothing is written after the constructor returns.
    """

    __slots__ = ("code", "domain", "codomain", "image", "one_block")

    def __init__(self, code: BlockCode, domain: LabeledGraph, codomain: LabeledGraph):
        domain = trim_to_essential(domain)
        codomain = trim_to_essential(codomain)
        if not domain.vertices:
            raise ValueError("domain presents the empty shift")
        vertices, edges, windows = _block_paths(domain, code.width)
        for w in windows:
            if w not in code.window_map:
                raise ValueError(f"window map misses admissible window {format_block(w)}")
        self.code = BlockCode(
            code.memory, code.anticipation, {w: code.window_map[w] for w in windows},
            code.domain_alphabet, code.codomain_alphabet,
        )
        wm = self.code.window_map
        image = LabeledGraph(code.codomain_alphabet, vertices, {(s, d, wm[w]) for s, d, w in edges})
        outside = first_divergence(graph_stepper(image), graph_stepper(codomain))
        if outside is not None:
            raise CodomainMismatchError(
                f"image block {format_block(outside)} is not admissible in the codomain"
            )
        self.domain = domain
        self.codomain = codomain
        self.image = image
        if code.width == 1:
            self.one_block = self
        else:
            hg = _named_blocks(vertices, edges, windows)
            one = {(format_block(w),): out for w, out in wm.items()}
            self.one_block = FactorMap(BlockCode(0, 0, one, hg.alphabet, code.codomain_alphabet), hg, codomain)

    def __repr__(self):
        return f"FactorMap(m={self.code.memory}, n={self.code.anticipation})"


def identity_factor_map(g: LabeledGraph) -> FactorMap:
    g = trim_to_essential(g)
    used = sorted({lab for _, _, lab in g.edges}, key=g.alphabet.index)
    code = BlockCode(0, 0, {(s,): s for s in used}, g.alphabet, g.alphabet)
    return FactorMap(code, g, g)


def recode_to_one_block(f: FactorMap) -> FactorMap:
    """An equivalent 1-block map on the higher-block presentation:
    f.one_block, built with f.

    The recoding conjugacy (see recoding_code) sends x to the sequence
    of its aligned windows x_{[i-m, i+n]}; composing the returned map
    with it reproduces f pointwise, with no shift correction.
    """
    return f.one_block


def recoding_code(f: FactorMap) -> BlockCode:
    """The conjugacy onto the higher-block presentation used by
    recode_to_one_block: x maps to the sequence of aligned windows."""
    c = f.code
    wm = {w: format_block(w) for w in c.window_map}
    return BlockCode(c.memory, c.anticipation, wm, f.domain.alphabet, f.one_block.domain.alphabet)


def compose(c2: BlockCode, c1: BlockCode) -> BlockCode:
    """The code acting as c2 after c1; memory and anticipation add."""
    if set(c2.domain_alphabet.symbols) != set(c1.codomain_alphabet.symbols):
        raise CodomainMismatchError(
            "codomain alphabet of the inner code does not match the outer domain"
        )
    m = c1.memory + c2.memory
    n = c1.anticipation + c2.anticipation
    width = m + n + 1
    w1 = c1.width
    wm = {}

    def rec(prefix):
        if len(prefix) == width:
            mid = apply_block(c1, tuple(prefix))
            out = c2.window_map.get(mid)
            if out is not None:
                wm[tuple(prefix)] = out
            return
        for s in c1.domain_alphabet:
            prefix.append(s)
            if len(prefix) < w1 or tuple(prefix[-w1:]) in c1.window_map:
                rec(prefix)
            prefix.pop()

    rec([])
    return BlockCode(m, n, wm, c1.domain_alphabet, c2.codomain_alphabet)


def image_presentation(f: FactorMap) -> LabeledGraph:
    """The domain's higher-block graph relabeled through the window
    map: f.image, built with f.

    Presents exactly the image shift; edges that become identical
    after relabeling collapse into one.
    """
    return f.image


def certify_surjectivity(f: FactorMap) -> bool:
    """Whether the image language equals the codomain language.

    Exact for every presentation, reducible or not: FactorMap already
    proved the image inside the codomain, and languages_equal decides
    equality by a pair walk over subset states.
    """
    return languages_equal(image_presentation(f), f.codomain)


def parse_code(text: str, base_dir: str = ".", path: str = ""):
    """Parse the block-code text format.

    Returns (code, domain, codomain) where the graphs may be None if
    the file has no domain/codomain lines.  Format, one item per line:

        code memory 0 anticipation 1
        domain full2.graph
        codomain full2.graph
        map 00 0
        ...

    With a domain present, the map lines must cover its admissible
    windows exactly once each, no more.  Without one, the alphabets
    are inferred from the map lines (single-character symbols).
    """
    import os

    from .core import load_graph

    memory = anticipation = None
    domain = codomain = None
    raw_maps = []
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kw = fields[0]
        if kw == "code":
            if memory is not None:
                raise ParseError("duplicate code line", lineno, path)
            if (
                len(fields) != 5
                or fields[1] != "memory"
                or fields[3] != "anticipation"
                or not fields[2].isdigit()
                or not fields[4].isdigit()
            ):
                raise ParseError("expected: code memory M anticipation N", lineno, path)
            memory, anticipation = int(fields[2]), int(fields[4])
        elif kw == "domain" or kw == "codomain":
            if len(fields) != 2:
                raise ParseError(f"{kw} takes a graph file", lineno, path)
            try:
                graph = load_graph(os.path.join(base_dir, fields[1]))
            except OSError as e:
                raise ParseError(str(e), lineno, path)
            if kw == "domain":
                domain = graph
            else:
                codomain = graph
        elif kw == "map":
            if len(fields) != 3:
                raise ParseError("expected: map WINDOW SYMBOL", lineno, path)
            raw_maps.append((lineno, fields[1], fields[2]))
        else:
            raise ParseError(f"unknown keyword {kw!r}", lineno, path)
    if memory is None:
        raise ParseError("missing code line", 0, path)
    if not raw_maps:
        raise ParseError("no map lines", 0, path)

    if domain is not None:
        dom_alpha = domain.alphabet
    else:
        dom_alpha = Alphabet(sorted({ch for _, win, _ in raw_maps for ch in win}))
    if codomain is not None:
        cod_alpha = codomain.alphabet
    else:
        cod_alpha = Alphabet(sorted({out for _, _, out in raw_maps}))

    window_map = {}
    width = memory + anticipation + 1
    for lineno, win_text, out in raw_maps:
        try:
            win = parse_block(win_text, dom_alpha)
        except ValueError as e:
            raise ParseError(str(e), lineno, path)
        if len(win) != width:
            raise ParseError(f"window {win_text} is not of length {width}", lineno, path)
        if win in window_map:
            raise ParseError(f"duplicate window {win_text}", lineno, path)
        if out not in cod_alpha:
            raise ParseError(f"symbol {out!r} not in codomain alphabet", lineno, path)
        window_map[win] = out

    if domain is not None:
        admissible = set(blocks_of_length(domain, width))
        for w in admissible:
            if w not in window_map:
                raise ParseError(f"admissible window {format_block(w)} unmapped", 0, path)
        for w in window_map:
            if w not in admissible:
                raise ParseError(
                    f"window {format_block(w)} is not admissible in the domain", 0, path
                )
    code = BlockCode(memory, anticipation, window_map, dom_alpha, cod_alpha)
    return code, domain, codomain


def load_code(path) -> BlockCode:
    import os

    with open(path, encoding="utf-8") as f:
        code, _, _ = parse_code(f.read(), os.path.dirname(os.path.abspath(path)), str(path))
    return code


def load_factor_map(path) -> FactorMap:
    import os

    with open(path, encoding="utf-8") as f:
        code, domain, codomain = parse_code(
            f.read(), os.path.dirname(os.path.abspath(path)), str(path)
        )
    if domain is None or codomain is None:
        raise ParseError("factor map needs domain and codomain lines", 0, str(path))
    return FactorMap(code, domain, codomain)
