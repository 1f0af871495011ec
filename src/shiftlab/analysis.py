"""Structure theory for factor maps: finiteness of fibers, degree,
right-closing a.e., decoder blocks, hyperbolicity certificates, fiber
products, and the theorem harnesses built from them.

Everything is decided on finite automata after recoding the map to
1-block form.  Conditions quantified over points become safety
properties of path pairs: a product of the domain presentation with
itself, walked under equal image labels.  Where a fixpoint closes the
quantifier the verdict is exact (horizon infinity); where it does not,
the verdict is bounded and says so.  The hyperbolic certificate's
unique forward extension is exact: pairs of paths past a word w are
walked with the KMP state of w and a lag capped at the half-width of
w's central window, a finite state set that one reach closes.
"""

import math
from dataclasses import dataclass
from typing import Optional

from .core import (
    Alphabet,
    Block,
    LabeledGraph,
    bfs,
    format_block,
    graph_stepper,
    is_admissible,
    is_irreducible,
    iter_admissible_blocks,
    mask_vertices,
    reach,
    reachable,
    strong_components,
    trim_to_essential,
    vertex_mask,
    walk,
)
from .covers import (
    HOLDS,
    fischer_cover,
    _essential_subsets,
    _half_sync_sofic,
    _nonempty_images,
    resolve,
)
from .codes import (
    BlockCode,
    FactorMap,
    certify_surjectivity,
    compose,
)
from .errors import (
    CodomainMismatchError,
    InadmissibleBlockError,
    InvariantError,
    NotFiniteToOneError,
    NotIrreducibleError,
    NotSurjectiveError,
)

AGREE_POSITIVE = "agree-positive"
AGREE_NEGATIVE = "agree-negative"
DISAGREE = "disagree"
INCONCLUSIVE = "inconclusive"


class PairAutomaton:
    """Vertex pairs of a presentation, stepped under equal image labels.

    For each pair (P, Q) the transitions list the moves ((P, Q), b,
    a1, a2, (P2, Q2)) where P carries an a1-edge to P2, Q carries an
    a2-edge to Q2, and both symbols code to the image symbol b.
    """

    __slots__ = ("graph", "phi", "states", "transitions", "diagonal")

    def __init__(self, graph: LabeledGraph, phi: dict):
        self.graph = graph
        self.phi = dict(phi)
        self.states = tuple(
            (p, q) for p in graph.vertices for q in graph.vertices
        )
        trans = {}
        for p, q in self.states:
            moves = []
            for a1, r in graph.out_edges(p):
                for a2, s in graph.out_edges(q):
                    if phi[a1] == phi[a2]:
                        moves.append((phi[a1], a1, a2, (r, s)))
            trans[(p, q)] = tuple(moves)
        self.transitions = trans
        self.diagonal = frozenset((p, p) for p in graph.vertices)

    def diagonal_flags(self):
        """Start states for diamond search: diagonal, nothing differed yet."""
        return [(p, p, False) for p, _ in sorted(self.diagonal)]

    def divergences(self):
        """(vertex, a1, a2, successor pair): distinct equal-image edge
        pairs leaving a single vertex, each listed once."""
        divs = []
        index = self.graph.alphabet.index
        for p in self.graph.vertices:
            for _, a1, a2, succ in self.transitions[(p, p)]:
                if index(a1) < index(a2):
                    divs.append((p, a1, a2, succ))
        return divs

    def survival_chain(self):
        """Decreasing pair sets: chain[k] holds the pairs admitting k
        further equal-image steps; the last entry is the fixpoint."""
        cur = set(self.states)
        chain = [cur]
        while True:
            nxt = {
                pq
                for pq in cur
                if any(succ in cur for _, _, _, succ in self.transitions[pq])
            }
            chain.append(nxt)
            if nxt == cur:
                return chain
            cur = nxt


@dataclass(frozen=True)
class DegreeReport:
    finite_to_one: bool
    degree: Optional[int]
    magic_word: Optional[Block]
    details: Optional[tuple]
    exact: bool = True


@dataclass(frozen=True)
class ClosingReport:
    """witness, when present, is (vertex, u, v): two continuations
    from the vertex with equal image blocks and distinct first symbols,
    each one symbol longer than the tested delay bound."""
    right_closing_ae: bool
    delay: Optional[int]
    witness: Optional[tuple]
    exact: bool = True


@dataclass(frozen=True)
class DecoderCertificate:
    block: Block
    anticipation: int
    verified_horizon: float


@dataclass(frozen=True)
class HyperbolicCertificate:
    word: Block
    half_width_n: int
    d: int
    central_blocks: tuple
    k: int


@dataclass(frozen=True)
class FiberComponent:
    graph: LabeledGraph
    onto_first: bool
    onto_second: bool

    @property
    def both_onto(self) -> bool:
        return self.onto_first and self.onto_second


@dataclass(frozen=True)
class FiberProduct:
    presentation: LabeledGraph
    projections: tuple
    components: tuple


class TheoremReport:
    __slots__ = ("name", "status", "facts", "certificates")

    def __init__(self, name, status, facts=(), certificates=()):
        self.name = name
        self.status = status
        self.facts = tuple(facts)
        self.certificates = tuple(certificates)

    def lines(self):
        out = [f"report {self.name}", f"status {self.status}"]
        out += [f"{k} {v}" for k, v in self.facts]
        out += list(self.certificates)
        return out

    def __repr__(self):
        return f"TheoremReport({self.name}, {self.status})"


def _phi(f1: FactorMap) -> dict:
    return {w[0]: out for w, out in f1.code.window_map.items()}


def _image_out(g: LabeledGraph, phi: dict) -> dict:
    """(vertex, image symbol) -> list of (domain symbol, target)."""
    table = {}
    for src, dst, a in g.edges:
        table.setdefault((src, phi[a]), []).append((a, dst))
    return table


def _require_irreducible(g: LabeledGraph, what: str):
    if not is_irreducible(g):
        raise NotIrreducibleError(f"{what} must be irreducible")


def _certified_surjective(f: FactorMap):
    if not certify_surjectivity(f):
        raise NotSurjectiveError("the map is not onto its codomain")


def is_finite_to_one(f: FactorMap) -> bool:
    """Exact fiber-finiteness test.

    On the Fischer cover of the (recoded) domain, the map is finite-
    to-one iff no two distinct equal-image paths share both endpoints.
    The pair walk carries a flag for "the paths have differed", so
    parallel equal-image edges between the same two vertices are
    caught as well as genuinely diverging path pairs.
    """
    pa = _fischer_pairs(f)

    def succ(state):
        p, q, flag = state
        return [
            (r, s, flag or (p, a1) != (q, a2))
            for _, a1, a2, (r, s) in pa.transitions[(p, q)]
        ]

    return not any(flag and r == s for r, s, flag in reach(pa.diagonal_flags(), succ))


def degree(f: FactorMap) -> DegreeReport:
    """The least number of preimage symbols at a coordinate of an image
    word, over all words and coordinates; the length-lex least word
    attaining it is the magic word.

    Coordinate i of w counts c(F, w[i], B): the domain symbols on
    w[i]-image edges from F, the vertices paths reading w[:i] can end
    at, into B, the vertices paths reading w[i+1:] can start at.  So
    the degree is the least nonzero c(F, b, B) over the forward sets F
    of the image presentation, its backward sets B (the forward sets of
    its reverse) and the image symbols b, with no word bound: a triple
    with c > 0 is read by u b v for any u reaching F and v reaching B,
    and at coordinate |u| that word counts exactly c.  The magic word
    is the least such u b v over the minimizing triples, u the least
    word reaching F and v, of all shortest words reaching B, the least
    in reading order.
    """
    if not is_finite_to_one(f):
        raise NotFiniteToOneError("degree is defined for finite-to-one maps")
    f1 = f.one_block
    _require_irreducible(f.codomain, "the codomain")
    g = f1.domain
    phi = _phi(f1)
    img = f1.image
    fwd = graph_stepper(img)
    back = graph_stepper(LabeledGraph(img.alphabet, img.vertices, [(d, s, b) for s, d, b in img.edges]))
    # the domain's edges by image symbol, with image-stepper masks of their ends
    bit = {v: vertex_mask(img, [v]) for v in img.vertices}
    by_img = {}
    for src, dst, a in g.edges:
        by_img.setdefault(phi[a], []).append((bit[src], bit[dst], a))
    index = img.alphabet.index
    # v for every backward set, built forward: v = c v' with v' least
    # for a set one layer nearer the full set; layers stay sorted
    least = {back.start: ()}
    layer = [back.start]
    while layer:
        nxt = []
        for c in img.alphabet.symbols:
            for t in layer:
                s = back.step(t, c)
                if s is not None and s not in least:
                    least[s] = (c,) + least[t]
                    nxt.append(s)
        layer = nxt
    backward = [(t, v, tuple(map(index, v))) for t, v in least.items()]
    best = w = None
    for u, s in bfs(fwd.start, fwd.moves):
        iu = tuple(map(index, u))
        for b in img.alphabet.symbols:
            edges = [(dst, a) for src, dst, a in by_img.get(b, ()) if src & s]
            if not edges:
                continue
            ib = (index(b),)
            for t, v, iv in backward:
                c = len({a for dst, a in edges if dst & t})
                if c and (best is None or c <= best[0]):
                    key = (c, len(u) + 1 + len(v), iu + ib + iv)
                    if best is None or key < best:
                        best, w = key, u + (b,) + v

    def count(i):
        s, t = walk(fwd, w[:i]), walk(back, w[:i:-1])
        return len({a for src, dst, a in by_img[w[i]] if src & s and dst & t})

    return DegreeReport(True, best[0], w, tuple(map(count, range(len(w)))))


def is_one_to_one_ae(f: FactorMap) -> bool:
    return degree(f).degree == 1


def _fischer_pairs(f: FactorMap) -> PairAutomaton:
    f1 = f.one_block
    _require_irreducible(f1.domain, "the domain")
    return PairAutomaton(fischer_cover(f1.domain), _phi(f1))


def right_closing_ae(f: FactorMap, delay_bound: int = 6) -> ClosingReport:
    """Least delay d such that a shared transitive left ray plus image
    agreement through coordinate d+1 forces agreement at coordinate 1.

    On the Fischer cover a transitive left ray pins the carrying path,
    so the question reduces to divergent edge pairs at a single vertex
    surviving under equal images.  The survival chain makes every
    verdict exact except "no delay up to the bound but the fixpoint
    still shrinks", which is reported inexact.
    """
    pa = _fischer_pairs(f)
    chain = pa.survival_chain()
    divs = pa.divergences()

    def bad(k):
        surv = chain[min(k, len(chain) - 1)]
        return any(succ in surv for _, _, _, succ in divs)

    for k in range(delay_bound + 1):
        if not bad(k):
            return ClosingReport(True, k, None, True)
    exact_false = bad(len(chain) - 1)
    witness = _closing_witness(pa, chain, divs, delay_bound)
    return ClosingReport(False, None, witness, exact_false)


def _closing_witness(pa, chain, divs, delay_bound):
    surv = chain[min(delay_bound, len(chain) - 1)]
    for p, a1, a2, succ in divs:
        if succ not in surv:
            continue
        u, v = [a1], [a2]
        cur = succ
        for j in range(delay_bound):
            remaining = delay_bound - j - 1
            target = chain[min(remaining, len(chain) - 1)]
            found = None
            for _, b1, b2, nxt in pa.transitions[cur]:
                if nxt in target:
                    found = (b1, b2, nxt)
                    break
            u.append(found[0])
            v.append(found[1])
            cur = found[2]
        return (p, tuple(u), tuple(v))
    return None


def find_decoder_block(
    f: FactorMap, max_len: int = 8, max_anticipation: int = 4
) -> Optional[DecoderCertificate]:
    """Least image block w (length-lex) and least anticipation k such
    that after any two w-image occurrences, equal images with lag k
    force equal preimage symbols, for all continuation lengths at once.

    The proof is a fixpoint: close the end-vertex pairs of w under
    equal-symbol steps and demand no equal-image divergence that can
    survive k further steps, so the certificate's horizon is infinite.
    The test depends on w only through its end set in the image
    presentation, which reads exactly the codomain's words once the map
    is certified onto; `bfs` yields each end set once, with its least
    word, in length-lex order.
    """
    f1 = f.one_block
    _require_irreducible(f1.domain, "the domain")
    _certified_surjective(f)
    pa = PairAutomaton(f1.domain, _phi(f1))
    chain = pa.survival_chain()
    img = f1.image
    for w, mask in _nonempty_images(graph_stepper(img)):
        if len(w) > max_len:
            return None
        ends = mask_vertices(img, mask)
        closure = reach(
            [(p, q) for p in ends for q in ends],
            lambda pq: [succ for _, a1, a2, succ in pa.transitions[pq] if a1 == a2],
        )
        for k in range(max_anticipation + 1):
            surv = chain[min(k, len(chain) - 1)]
            if not any(
                a1 != a2 and succ in surv for pq in closure for _, a1, a2, succ in pa.transitions[pq]
            ):
                return DecoderCertificate(w, k, math.inf)
    return None


def verify_decoder_block(f: FactorMap, w: Block, k: int, horizon: int = 10) -> bool:
    """Layer-by-layer re-check of the decoder condition, independent
    of the fixpoint used by find_decoder_block: for each n up to the
    horizon, walk all pairs of domain paths whose images continue
    equally for n+k steps after showing w, and reject if any pair can
    disagree within the first n symbols."""
    f1 = f.one_block
    if not is_admissible(f.codomain, w):
        raise InadmissibleBlockError(
            f"{format_block(w)} is not admissible in the codomain"
        )
    g = f1.domain
    phi = _phi(f1)
    img = f1.image
    ends = mask_vertices(img, walk(graph_stepper(img), w) or 0)
    for n in range(1, horizon + 1):
        layer = {(p, q, False) for p in ends for q in ends}
        for step in range(1, n + k + 1):
            nxt = set()
            for p, q, diverged in layer:
                for a1, r in g.out_edges(p):
                    for a2, s in g.out_edges(q):
                        if phi[a1] != phi[a2]:
                            continue
                        nxt.add((r, s, diverged or (step <= n and a1 != a2)))
            layer = nxt
        if any(diverged for _, _, diverged in layer):
            return False
    return True


def _central_window_set(image_out, w, n, k, fset, pset):
    """All (F, P) limit-set combinations give the central label
    windows of w-reading paths from F into P; returns the list of
    nonempty window sets in a fixed order.  The walk of w from a vertex
    does not depend on P, so w is walked once per vertex of some F."""
    lo, hi = n - k, n + k
    walked = {}
    for v in set().union(*fset):
        configs = {(v, ())}
        for i, b in enumerate(w):
            configs = {
                (dst, mid + (a,) if lo <= i <= hi else mid)
                for u, mid in configs
                for a, dst in image_out.get((u, b), ())
            }
        walked[v] = configs
    results = []
    for F in fset:
        configs = set().union(*(walked[v] for v in F))
        for P in pset:
            mids = {mid for v, mid in configs if v in P}
            if mids:
                results.append(mids)
    return results


def _kmp_automaton(w):
    """delta[s][b], for s = 0..|w| and b a symbol of w: the longest
    prefix of w that w[:s] + (b,) ends with (Knuth, Morris & Pratt).
    Any symbol not in w leads to 0."""
    delta = [{b: int(b == w[0]) for b in w}]
    x = 0  # the state after w[1:s]
    for s in range(1, len(w) + 1):
        delta.append(dict(delta[x]))
        if s < len(w):
            delta[s][w[s]] = s + 1
            x = delta[x][w[s]]
    return delta


def _condition_two(pa: PairAutomaton, w, n, k, block) -> bool:
    """Uniqueness of forward extensions for one central block, decided
    exactly on the pair automaton of the one-block domain.

    The block is refuted by two preimage paths of one image word w y
    that ends in w, both showing the block on w's central window
    [n - k, n + k], whose labels differ at some i with
    n + k < i <= |y| + n + k: the first divergence after the block lies
    no later than the central window of the completed w.  The search
    runs over states (p, q, s, lag): p and q end the two paths, s is
    the KMP state of w (the longest prefix of w the image read so far
    ends with), and lag counts the steps left before the earliest
    divergence lies inside a completed w's central window.  lag is inf
    before a divergence, n - k right after one, and one less per step,
    floored at 0.  Reading w with the central labels forced, where only
    divergences after the window count, gives the start states; the
    block is refuted iff a state with s = |w| and lag 0 is reached.
    There are at most |V|^2 (|w| + 1) (n - k + 2) states, so one search
    decides it with no length bound; it stops at the first refuting
    state."""
    lo, hi = n - k, n + k
    kmp = _kmp_automaton(w)
    # lag -> (lag after an equal step, lag after a divergent step)
    later = {lag: (max(lag - 1, 0), min(max(lag - 1, 0), n - k)) for lag in (math.inf, *range(n - k + 1))}
    starts = {(p, q, math.inf) for p, q in pa.states}
    for i, b in enumerate(w):
        forced = block[i - lo] if lo <= i <= hi else None
        starts = {
            (r, t, later[lag][i > hi and a1 != a2])
            for p, q, lag in starts
            for c, a1, a2, (r, t) in pa.transitions[p, q]
            if c == b and (forced is None or a1 == a2 == forced)
        }

    def succ(state):
        p, q, s, lag = state
        row, steps = kmp[s], later[lag]
        return [(r, t, row.get(b, 0), steps[a1 != a2]) for b, a1, a2, (r, t) in pa.transitions[p, q]]

    reached = reachable([(p, q, len(w), lag) for p, q, lag in starts], succ)
    return not any(s == len(w) and lag == 0 for _, _, s, lag in reached)


def find_hyperbolic_certificate(
    f: FactorMap,
    word_bound: int = 8,
    k_bound: int = 4,
) -> Optional[HyperbolicCertificate]:
    """First odd image word w and least k whose preimage central
    windows form one fixed set of d blocks over all points showing w
    (limit-set analysis, exact), with uniquely determined forward
    extensions (one reach over (p, q, KMP state of w, lag) per block,
    exact: see _condition_two).  Search order: |w| odd ascending, w
    lex, k ascending; k is capped at the half-width so the central
    window stays inside the image window."""
    if not is_finite_to_one(f):
        raise NotFiniteToOneError("hyperbolicity needs a finite-to-one map")
    _certified_surjective(f)
    f1 = f.one_block
    g = f1.domain
    phi = _phi(f1)
    image_out = _image_out(g, phi)
    pa = PairAutomaton(g, phi)
    img = f1.image
    rev = LabeledGraph(img.alphabet, img.vertices, [(d, s, b) for s, d, b in img.edges])
    # the constraint sets an infinite image past (future) leaves behind
    fset = [frozenset(t) for t in sorted(mask_vertices(img, s) for s in _essential_subsets(img)[0])]
    pset = [frozenset(t) for t in sorted(mask_vertices(rev, s) for s in _essential_subsets(rev)[0])]
    for length in range(1, word_bound + 1, 2):
        n = (length - 1) // 2
        for w in iter_admissible_blocks(f.codomain, length):
            for k in range(min(k_bound, n) + 1):
                window_sets = _central_window_set(image_out, w, n, k, fset, pset)
                if not window_sets:
                    continue
                first = window_sets[0]
                if any(ws != first for ws in window_sets[1:]):
                    continue
                blocks = tuple(sorted(first, key=g.alphabet.block_key))
                center = tuple(w[n - k : n + k + 1])
                if any(tuple(phi[a] for a in m) != center for m in blocks):
                    raise InvariantError(f"a central block does not map onto {format_block(center)}")
                if all(_condition_two(pa, w, n, k, m) for m in blocks):
                    return HyperbolicCertificate(w, n, len(blocks), blocks, k)
    return None


def _strong_components(g: LabeledGraph):
    """Strongly connected components with at least one internal edge,
    as induced subgraphs, ordered by least vertex name."""
    comps = []
    for members in strong_components(g.vertices, lambda v: [dst for _, dst in g.out_edges(v)]):
        mset = set(members)
        edges = [e for e in g.edges if e[0] in mset and e[1] in mset]
        if edges:
            comps.append(LabeledGraph(g.alphabet, mset, edges))
    comps.sort(key=lambda c: c.vertices[0])
    return comps


def _projection_code(sigma, pair_of, side, alphabet) -> BlockCode:
    """The 1-block code sending each symbol sigma's edges use to its
    side of the symbol pair it names, into `alphabet`."""
    wm = {(lab,): pair_of[lab][side] for _, _, lab in sigma.edges}
    return BlockCode(0, 0, wm, sigma.alphabet, alphabet)


def _projection_map(sigma, pair_of, side, target):
    return FactorMap(_projection_code(sigma, pair_of, side, target.alphabet), sigma, target)


def fiber_product(f1: FactorMap, f2: FactorMap) -> FiberProduct:
    """Pairs of domain edges with equal images, labeled by symbol
    pairs; the two evident projections; and the irreducible components
    flagged by whether both projection restrictions stay onto."""
    if f1.codomain != f2.codomain:
        raise CodomainMismatchError("the maps must share a codomain presentation")
    a = f1.one_block
    b = f2.one_block
    _require_irreducible(a.domain, "the first domain")
    _require_irreducible(b.domain, "the second domain")
    g1, g2 = a.domain, b.domain
    p1, p2 = _phi(a), _phi(b)
    pair_of = {}
    symbols = []
    for a1 in g1.alphabet:
        if a1 not in p1:
            continue
        for a2 in g2.alphabet:
            if a2 not in p2 or p1[a1] != p2[a2]:
                continue
            sym = f"({a1},{a2})"
            pair_of[sym] = (a1, a2)
            symbols.append(sym)
    if not symbols:
        raise ValueError("the maps share no image symbols")
    alphabet = Alphabet(symbols)
    vertices = [f"{u}|{v}" for u in g1.vertices for v in g2.vertices]
    edges = []
    for u, ud, a1 in g1.edges:
        for v, vd, a2 in g2.edges:
            if p1[a1] == p2[a2]:
                edges.append((f"{u}|{v}", f"{ud}|{vd}", f"({a1},{a2})"))
    sigma = trim_to_essential(LabeledGraph(alphabet, vertices, edges))
    if not sigma.vertices:
        raise ValueError("the fiber product presents the empty shift")
    proj1 = _projection_map(sigma, pair_of, 0, g1)
    proj2 = _projection_map(sigma, pair_of, 1, g2)
    components = []
    for comp in _strong_components(sigma):
        r1 = _projection_map(comp, pair_of, 0, g1)
        r2 = _projection_map(comp, pair_of, 1, g2)
        onto1, onto2 = certify_surjectivity(r1), certify_surjectivity(r2)
        components.append(FiberComponent(comp, onto1, onto2))
    return FiberProduct(sigma, (proj1, proj2), tuple(components))


def _decoder_line(cert: DecoderCertificate) -> str:
    return f"decoder-block {format_block(cert.block)} anticipation {cert.anticipation}"


def _hyperbolic_line(cert: HyperbolicCertificate) -> str:
    blocks = " ".join(format_block(m) for m in cert.central_blocks)
    return (
        f"hyperbolic word {format_block(cert.word)} d {cert.d}"
        f" k {cert.k} blocks {blocks}"
    )


def check_theorem_4_2(
    f: FactorMap,
    max_len: int = 8,
    max_anticipation: int = 4,
    delay_bound: int = 6,
) -> TheoremReport:
    """Right-closing a.e. plus 1-1 a.e. against decoder-block
    existence.  Disagreement needs both sides definite; a bounded
    search that ran out on one side only is inconclusive."""
    closing = right_closing_ae(f, delay_bound)
    deg = degree(f)
    lhs = closing.right_closing_ae and deg.degree == 1
    cert = find_decoder_block(f, max_len, max_anticipation)
    rhs = cert is not None
    if lhs == rhs:
        status = AGREE_POSITIVE if lhs else AGREE_NEGATIVE
    elif rhs and closing.exact:
        status = DISAGREE
    else:
        status = INCONCLUSIVE
    facts = [
        ("right-closing-ae", "yes" if closing.right_closing_ae else "no"),
        ("closing-delay", str(closing.delay) if closing.delay is not None else "-"),
        ("degree", str(deg.degree)),
        ("degree-exact", "yes" if deg.exact else "no"),
        ("decoder-found", "yes" if rhs else "no"),
    ]
    certificates = [_decoder_line(cert)] if cert else []
    return TheoremReport("t42", status, facts, certificates)


_T33_HORIZONS = (4, 6, 8)


def check_theorem_3_3(f: FactorMap, word_bound: int = 8, k_bound: int = 4) -> TheoremReport:
    """Under a hyperbolic certificate, half-synchronized verdicts for
    domain and codomain must agree; additionally the certificate's
    first central block must itself be half-synchronizing on the
    domain whenever the certificate word is on the codomain."""
    cert = find_hyperbolic_certificate(f, word_bound, k_bound)
    if cert is None:
        return TheoremReport(
            "t33",
            INCONCLUSIVE,
            (("reason", "no hyperbolic certificate within bounds"),),
        )
    dom = resolve(f.one_block.domain)
    cod = resolve(f.codomain)

    def holds(r, m, h):
        return _half_sync_sofic(r, m, h)[0].status == HOLDS

    def system_holds(r, h):  # some block of length 1 or 2 holds
        blocks = (m for n in (1, 2) for m in iter_admissible_blocks(r.graph, n))
        return any(holds(r, m, h) for m in blocks)

    facts = []
    disagreed = False
    for h in _T33_HORIZONS:
        dom_hs = system_holds(dom, h)
        cod_hs = system_holds(cod, h)
        facts.append((f"domain-half-sync-h{h}", "yes" if dom_hs else "no"))
        facts.append((f"codomain-half-sync-h{h}", "yes" if cod_hs else "no"))
        disagreed |= dom_hs != cod_hs
    top = max(_T33_HORIZONS)
    if holds(cod, cert.word, top):
        proof_ok = holds(dom, cert.central_blocks[0], top)
        facts.append(("construction-block-half-sync", "yes" if proof_ok else "no"))
        disagreed |= not proof_ok
    if disagreed:
        status = DISAGREE
    else:
        status = AGREE_POSITIVE if (dom_hs and cod_hs) else AGREE_NEGATIVE
    return TheoremReport("t33", status, facts, (_hyperbolic_line(cert),))


def _compose_through_component(f_out, f_in, component, pair_of, side):
    """Restrict a fiber projection to one component, step down from
    the recoded presentation, and compose with the outer map."""
    hb_alphabet = f_in.one_block.domain.alphabet
    chain = _projection_code(component, pair_of, side, hb_alphabet)
    if f_in.code.width > 1:
        first = {(format_block(w),): w[0] for w in f_in.code.window_map}
        chain = compose(BlockCode(0, 0, first, hb_alphabet, f_in.domain.alphabet), chain)
    chain = compose(f_out.code, chain)
    return FactorMap(chain, component, f_out.codomain)


def check_theorem_3_4(
    f_xv: FactorMap,
    f_yv: FactorMap,
    f_yw: FactorMap,
    f_zw: FactorMap,
    word_bound: int = 8,
    k_bound: int = 4,
) -> TheoremReport:
    """One transitivity instance of the common-extension relation:
    fiber the two maps onto the shared middle system, pick a both-onto
    component, and certify hyperbolicity of the two composed maps."""
    if f_yv.codomain != f_yw.codomain:
        raise CodomainMismatchError("the middle codomains must coincide")
    if f_xv.domain != f_yv.domain:
        raise ValueError("the left pair must share a domain presentation")
    if f_zw.domain != f_yw.domain:
        raise ValueError("the right pair must share a domain presentation")
    for name, fm in (
        ("f-xv", f_xv),
        ("f-yv", f_yv),
        ("f-yw", f_yw),
        ("f-zw", f_zw),
    ):
        cert = find_hyperbolic_certificate(fm, word_bound, k_bound)
        if cert is None:
            return TheoremReport(
                "t34",
                INCONCLUSIVE,
                (("reason", f"no hyperbolic certificate for {name}"),),
            )
    fp = fiber_product(f_yv, f_yw)
    gamma = None
    for comp in fp.components:
        if comp.both_onto:
            gamma = comp
            break
    if gamma is None:
        return TheoremReport(
            "t34",
            INCONCLUSIVE,
            (("reason", "no component with both projections onto"),),
        )
    first_of = fp.projections[0].code.window_map
    second_of = fp.projections[1].code.window_map
    pair_of = {
        sym: (first_of[(sym,)], second_of[(sym,)])
        for (sym,) in first_of
    }
    left = _compose_through_component(f_xv, f_yv, gamma.graph, pair_of, 0)
    right = _compose_through_component(f_zw, f_yw, gamma.graph, pair_of, 1)
    c_left = find_hyperbolic_certificate(left, word_bound, k_bound)
    c_right = find_hyperbolic_certificate(right, word_bound, k_bound)
    facts = [
        ("component-vertices", str(len(gamma.graph.vertices))),
        ("left-certificate", "yes" if c_left else "no"),
        ("right-certificate", "yes" if c_right else "no"),
    ]
    certificates = []
    if c_left:
        certificates.append("left " + _hyperbolic_line(c_left))
    if c_right:
        certificates.append("right " + _hyperbolic_line(c_right))
    status = AGREE_POSITIVE if (c_left and c_right) else INCONCLUSIVE
    return TheoremReport("t34", status, facts, certificates)
