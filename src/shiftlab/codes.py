"""Sliding block codes: construction, application, composition,
higher-block recoding, and image presentations.

A block code with memory m and anticipation n maps a point x to the
point y with y_i determined by the window x_{i-m} ... x_{i+n}.  The
window map is stored extensionally (domains are finite at desk scale),
which makes composition and recoding mechanical.
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


def higher_block(g: LabeledGraph, n_blocks: int):
    """The higher-block presentation and its first-symbol projection.

    Vertices are paths of n_blocks - 1 edges; an edge joins a path to
    its one-step successor and is labeled by the length-n_blocks block
    read along the union path.  Distinct edges never share source,
    target, and label, so the construction cannot create duplicates.
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

    paths = [(e,) for e in g.edges]
    for _ in range(n_blocks - 2):
        paths = [p + (e,) for p in paths for e in g.edges if e[0] == p[-1][1]]

    def path_name(p):
        bits = [p[0][0]]
        for src, dst, lab in p:
            bits += [lab, dst]
        return "-".join(bits)

    def path_block(p):
        return tuple(lab for _, _, lab in p)

    vertices = [path_name(p) for p in paths]
    sym_blocks = set()
    new_edges = []
    for p in paths:
        for e in g.edges:
            if e[0] != p[-1][1]:
                continue
            full = p + (e,)
            blk = path_block(full)
            sym_blocks.add(blk)
            new_edges.append((path_name(p), path_name(full[1:]), format_block(blk)))
    ordered = sorted(sym_blocks, key=g.alphabet.block_key)
    alphabet = Alphabet(format_block(b) for b in ordered)
    graph = LabeledGraph(alphabet, vertices, new_edges)
    code = BlockCode(
        0,
        0,
        {(format_block(b),): b[0] for b in ordered},
        alphabet,
        g.alphabet,
    )
    return graph, code


def _image_graph(code: BlockCode, domain: LabeledGraph, alphabet: Alphabet) -> LabeledGraph:
    """The higher-block presentation of an essential domain at the
    code's width, relabeled by the window map into `alphabet`: it
    presents exactly the image shift, and edges that become identical
    collapse into one.  Higher-block symbols are the formatted windows."""
    hg, _ = higher_block(domain, code.width)
    image = {format_block(w): out for w, out in code.window_map.items()}
    edges = {(src, dst, image[lab]) for src, dst, lab in hg.edges}
    return LabeledGraph(alphabet, hg.vertices, edges)


class FactorMap:
    """A block code bundled with domain and codomain presentations.

    The window map is pruned to exactly the admissible windows of the
    domain; a missing admissible window is an error.  The image shift
    must lie in the codomain; this is checked exactly, for every
    presentation, by a first_divergence search from the image
    presentation to the codomain, and the least image block outside
    the codomain is named in the error.
    """

    __slots__ = ("code", "domain", "codomain", "_cache")

    def __init__(self, code: BlockCode, domain: LabeledGraph, codomain: LabeledGraph):
        domain = trim_to_essential(domain)
        codomain = trim_to_essential(codomain)
        if not domain.vertices:
            raise ValueError("domain presents the empty shift")
        width = code.width
        admissible = blocks_of_length(domain, width)
        pruned = {}
        for w in admissible:
            if w not in code.window_map:
                raise ValueError(f"window map misses admissible window {format_block(w)}")
            pruned[w] = code.window_map[w]
        self.code = BlockCode(
            code.memory, code.anticipation, pruned,
            code.domain_alphabet, code.codomain_alphabet,
        )
        image = _image_graph(self.code, domain, code.codomain_alphabet)
        outside = first_divergence(graph_stepper(image), graph_stepper(codomain))
        if outside is not None:
            raise CodomainMismatchError(
                f"image block {format_block(outside)} is not admissible in the codomain"
            )
        self.domain = domain
        self.codomain = codomain
        self._cache = {}

    def __repr__(self):
        return f"FactorMap(m={self.code.memory}, n={self.code.anticipation})"


def identity_factor_map(g: LabeledGraph) -> FactorMap:
    g = trim_to_essential(g)
    used = sorted({lab for _, _, lab in g.edges}, key=g.alphabet.index)
    code = BlockCode(0, 0, {(s,): s for s in used}, g.alphabet, g.alphabet)
    return FactorMap(code, g, g)


def recode_to_one_block(f: FactorMap) -> FactorMap:
    """An equivalent 1-block map on the higher-block presentation.

    The recoding conjugacy (see recoding_code) sends x to the sequence
    of its aligned windows x_{[i-m, i+n]}; composing the returned map
    with it reproduces f pointwise, with no shift correction.
    """
    c = f.code
    if c.memory == 0 and c.anticipation == 0:
        return f
    hg, _ = higher_block(f.domain, c.width)
    wm = {}
    for sym in hg.alphabet:
        blk = parse_block(sym, f.domain.alphabet)
        wm[(sym,)] = c.window_map[blk]
    code = BlockCode(0, 0, wm, hg.alphabet, c.codomain_alphabet)
    return FactorMap(code, hg, f.codomain)


def recoding_code(f: FactorMap) -> BlockCode:
    """The conjugacy onto the higher-block presentation used by
    recode_to_one_block: x maps to the sequence of aligned windows."""
    c = f.code
    hg, _ = higher_block(f.domain, c.width)
    wm = {w: format_block(w) for w in blocks_of_length(f.domain, c.width)}
    return BlockCode(c.memory, c.anticipation, wm, f.domain.alphabet, hg.alphabet)


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
    """The domain graph relabeled through the (recoded) 1-block map.

    Presents exactly the image shift; edges that become identical
    after relabeling collapse into one.
    """
    return _image_graph(f.code, f.domain, f.codomain.alphabet)


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
