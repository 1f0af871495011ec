"""Structure theory for factor maps: finiteness of fibers, degree,
right-closing a.e., decoder blocks, hyperbolicity certificates, fiber
products, and the theorem harnesses built from them.

Everything is decided on finite automata after recoding the map to
1-block form.  Conditions quantified over points become safety
properties of path pairs: a product of the domain presentation with
itself, walked under equal image labels.  Where a fixpoint closes the
quantifier the verdict is exact (horizon infinity); where it does not,
the verdict is bounded and says so.
"""

import math
from dataclasses import dataclass
from typing import Optional

from .core import (
    Alphabet,
    Block,
    LabeledGraph,
    format_block,
    graph_stepper,
    is_admissible,
    is_irreducible,
    iter_admissible_blocks,
    reach,
    strong_components,
    trim_to_essential,
    walk,
)
from .covers import (
    HOLDS,
    fischer_cover,
    is_half_synchronizing,
    _subset_automaton,
)
from .codes import (
    BlockCode,
    FactorMap,
    certify_surjectivity,
    compose,
    higher_block,
    image_presentation,
    recode_to_one_block,
)
from .errors import (
    CodomainMismatchError,
    InadmissibleBlockError,
    NotFiniteToOneError,
    NotIrreducibleError,
    NotSurjectiveError,
)
from .oracle import sofic_oracle

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
    exact: bool = False
    exactness_bound: int = 0


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
    extension_horizon: float


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


def _one_block(f: FactorMap) -> FactorMap:
    got = f._cache.get("one_block")
    if got is None:
        got = recode_to_one_block(f)
        f._cache["one_block"] = got
    return got


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
    got = f._cache.get("finite_to_one")
    if got is not None:
        return got
    pa = _fischer_pairs(f)

    def succ(state):
        p, q, flag = state
        return [
            (r, s, flag or (p, a1) != (q, a2))
            for _, a1, a2, (r, s) in pa.transitions[(p, q)]
        ]

    ok = not any(flag and r == s for r, s, flag in reach(pa.diagonal_flags(), succ))
    f._cache["finite_to_one"] = ok
    return ok


def degree(f: FactorMap, word_bound: Optional[int] = None) -> DegreeReport:
    """The minimum over image words of per-coordinate preimage-symbol
    counts; the minimizing word is the magic word.

    Exact once word_bound reaches the squared subset-cover size plus
    one; below that the degree is an upper bound and the report's
    exact flag stays false.
    """
    if not is_finite_to_one(f):
        raise NotFiniteToOneError("degree is defined for finite-to-one maps")
    f1 = _one_block(f)
    _require_irreducible(f.codomain, "the codomain")
    g = f1.domain
    phi = _phi(f1)
    order, _ = _subset_automaton(g)
    bound = len(order) ** 2 + 1
    if word_bound is None:
        word_bound = bound
    by_img = {}
    for src, dst, a in g.edges:
        by_img.setdefault(phi[a], []).append((src, dst, a))
    img = trim_to_essential(image_presentation(f1))
    vertices = set(g.vertices)
    best = None
    best_w = None
    best_details = None
    for length in range(1, word_bound + 1):
        for w in iter_admissible_blocks(img, length):
            fwd = [vertices]
            for b in w:
                cur = fwd[-1]
                fwd.append({dst for src, dst, a in by_img[b] if src in cur})
            bwd = [None] * (length + 1)
            bwd[length] = vertices
            for i in range(length - 1, -1, -1):
                nxt = bwd[i + 1]
                bwd[i] = {src for src, dst, a in by_img[w[i]] if dst in nxt}
            details = []
            for i, b in enumerate(w):
                syms = {
                    a
                    for src, dst, a in by_img[b]
                    if src in fwd[i] and dst in bwd[i + 1]
                }
                details.append(len(syms))
            d_w = min(details)
            if best is None or d_w < best:
                best = d_w
                best_w = w
                best_details = tuple(details)
        if best == 1:
            break
    return DegreeReport(
        finite_to_one=True,
        degree=best,
        magic_word=best_w,
        details=best_details,
        exact=word_bound >= bound,
        exactness_bound=bound,
    )


def is_one_to_one_ae(f: FactorMap, word_bound: Optional[int] = None) -> bool:
    return degree(f, word_bound).degree == 1


def _fischer_pairs(f: FactorMap) -> PairAutomaton:
    pa = f._cache.get("fischer_pairs")
    if pa is None:
        f1 = _one_block(f)
        _require_irreducible(f1.domain, "the domain")
        pa = PairAutomaton(fischer_cover(f1.domain), _phi(f1))
        f._cache["fischer_pairs"] = pa
    return pa


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
    """
    f1 = _one_block(f)
    _require_irreducible(f1.domain, "the domain")
    _certified_surjective(f)
    g = f1.domain
    phi = _phi(f1)
    pa = PairAutomaton(g, phi)
    chain = pa.survival_chain()
    img = graph_stepper(image_presentation(f1))
    for length in range(1, max_len + 1):
        for w in iter_admissible_blocks(f.codomain, length):
            ends = walk(img, w)
            if ends is None:
                continue
            closure = reach(
                [(p, q) for p in ends for q in ends],
                lambda pq: [succ for _, a1, a2, succ in pa.transitions[pq] if a1 == a2],
            )
            for k in range(max_anticipation + 1):
                surv = chain[min(k, len(chain) - 1)]
                ok = True
                for pq in closure:
                    for _, a1, a2, succ in pa.transitions[pq]:
                        if a1 != a2 and succ in surv:
                            ok = False
                            break
                    if not ok:
                        break
                if ok:
                    return DecoderCertificate(w, k, math.inf)
    return None


def verify_decoder_block(f: FactorMap, w: Block, k: int, horizon: int = 10) -> bool:
    """Layer-by-layer re-check of the decoder condition, independent
    of the fixpoint used by find_decoder_block: for each n up to the
    horizon, walk all pairs of domain paths whose images continue
    equally for n+k steps after showing w, and reject if any pair can
    disagree within the first n symbols."""
    f1 = _one_block(f)
    if not is_admissible(f.codomain, w):
        raise InadmissibleBlockError(
            f"{format_block(w)} is not admissible in the codomain"
        )
    g = f1.domain
    phi = _phi(f1)
    ends = walk(graph_stepper(image_presentation(f1)), w) or ()
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


def _limit_sets(img):
    """Subset-automaton states of the image presentation reachable from
    the full vertex set by arbitrarily long image words: exactly the
    states reachable from a cycle.  These are the possible constraint
    sets an infinite image past (or future, on the reversed graph)
    leaves behind."""
    nodes, trans = _subset_automaton(img)
    succ = {s: set() for s in nodes}
    for (s, _), t in trans.items():
        succ[s].add(t)
    on_cycle = [
        s
        for comp in strong_components(nodes, succ.__getitem__)
        if len(comp) > 1 or comp[0] in succ[comp[0]]
        for s in comp
    ]
    return reach(on_cycle, succ.__getitem__)


def _central_window_set(image_out, w, n, k, fset, pset):
    """All (F, P) limit-set combinations give the central label
    windows of w-reading paths from F into P; returns the list of
    nonempty window sets in a fixed order."""
    lo, hi = n - k, n + k
    results = []
    for F in fset:
        for P in pset:
            configs = {(v, ()) for v in F}
            for i, b in enumerate(w):
                central = lo <= i <= hi
                nxt = set()
                for v, mid in configs:
                    for a, dst in image_out.get((v, b), ()):
                        nxt.add((dst, mid + (a,) if central else mid))
                configs = nxt
                if not configs:
                    break
            mids = {mid for v, mid in configs if v in P}
            if mids:
                results.append(mids)
    return results


def _condition_two(g, phi, image_out, w, n, k, block, extension_bound):
    """Uniqueness of forward extensions for one central block.

    Walks pairs of preimage paths of a common image word that begins
    and ends with w, both showing the central block; a label
    divergence inside the determined window refutes uniqueness.  Exact
    up to the extension bound; upgraded to an unbounded proof when no
    divergence is reachable at all."""
    length = len(w)
    lo, hi = n - k, n + k
    symbols = sorted({b for (_, b) in image_out}, key=str)
    # phase A: read w, central labels forced to the block
    configs = {}
    for p in g.vertices:
        for q in g.vertices:
            configs[(p, q)] = math.inf
    for i, b in enumerate(w):
        central = lo <= i <= hi
        forced = block[i - lo] if central else None
        nxt = {}
        for (p, q), need in configs.items():
            for a1, r in image_out.get((p, b), ()):
                if central and a1 != forced:
                    continue
                for a2, s in image_out.get((q, b), ()):
                    if central and a2 != forced:
                        continue
                    nd = need
                    if a1 != a2 and i > hi:
                        nd = min(nd, i - n - k)
                    key = (r, s)
                    if nxt.get(key, math.inf) > nd:
                        nxt[key] = nd
        configs = nxt
    # phase B: extend with a rolling image buffer, watching for a
    # completed w-suffix while a recorded divergence is in window
    state = {}
    for (p, q), need in configs.items():
        state[(p, q, w)] = min(state.get((p, q, w), math.inf), need)
    for j in range(1, max(0, extension_bound - length) + 1):
        nxt = {}
        for (p, q, buf), need in state.items():
            for b in symbols:
                for a1, r in image_out.get((p, b), ()):
                    for a2, s in image_out.get((q, b), ()):
                        nd = need
                        if a1 != a2:
                            nd = min(nd, n + j - k)
                        nbuf = (buf + (b,))[-length:]
                        key = (r, s, nbuf)
                        if nxt.get(key, math.inf) > nd:
                            nxt[key] = nd
        state = nxt
        for (p, q, buf), need in state.items():
            if buf == w and need <= j:
                return False, extension_bound
    # unbounded upgrade: no reachable pair admits any divergence
    if any(need < math.inf for need in configs.values()):
        return True, extension_bound

    def moves(pq):
        """(labels differ, successor pair) for each equal-image step."""
        p, q = pq
        return [
            (a1 != a2, (r, s))
            for b in symbols
            for a1, r in image_out.get((p, b), ())
            for a2, s in image_out.get((q, b), ())
        ]

    closure = reach(configs, lambda pq: [rs for differ, rs in moves(pq) if not differ])
    divergent = any(differ for pq in closure for differ, _ in moves(pq))
    return True, extension_bound if divergent else math.inf


def find_hyperbolic_certificate(
    f: FactorMap,
    word_bound: int = 8,
    k_bound: int = 4,
    extension_bound: int = 10,
) -> Optional[HyperbolicCertificate]:
    """First odd image word w and least k whose preimage central
    windows form one fixed set of d blocks over all points showing w
    (limit-set analysis, exact), with uniquely determined forward
    extensions (pair analysis, exact to extension_bound or proven
    outright).  Search order: |w| odd ascending, w lex, k ascending;
    k is capped at the half-width so the central window stays inside
    the image window."""
    if not is_finite_to_one(f):
        raise NotFiniteToOneError("hyperbolicity needs a finite-to-one map")
    _certified_surjective(f)
    f1 = _one_block(f)
    g = f1.domain
    phi = _phi(f1)
    image_out = _image_out(g, phi)
    img = image_presentation(f1)
    rev = LabeledGraph(img.alphabet, img.vertices, [(d, s, b) for s, d, b in img.edges])
    fset = sorted(_limit_sets(img), key=sorted)
    pset = sorted(_limit_sets(rev), key=sorted)
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
                assert all(
                    tuple(phi[a] for a in m) == center for m in blocks
                )
                ok = True
                horizon = math.inf
                for m in blocks:
                    good, h = _condition_two(
                        g, phi, image_out, w, n, k, m, extension_bound
                    )
                    if not good:
                        ok = False
                        break
                    horizon = min(horizon, h)
                if ok:
                    return HyperbolicCertificate(
                        w, n, len(blocks), blocks, k, horizon
                    )
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


def _projection_map(sigma, pair_of, side, target):
    used = sorted(
        {lab for _, _, lab in sigma.edges}, key=sigma.alphabet.index
    )
    code = BlockCode(
        0,
        0,
        {(s,): pair_of[s][side] for s in used},
        sigma.alphabet,
        target.alphabet,
    )
    return FactorMap(code, sigma, target)


def fiber_product(f1: FactorMap, f2: FactorMap) -> FiberProduct:
    """Pairs of domain edges with equal images, labeled by symbol
    pairs; the two evident projections; and the irreducible components
    flagged by whether both projection restrictions stay onto."""
    if f1.codomain != f2.codomain:
        raise CodomainMismatchError("the maps must share a codomain presentation")
    a = _one_block(f1)
    b = _one_block(f2)
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
    word_bound: Optional[int] = None,
    delay_bound: int = 6,
) -> TheoremReport:
    """Right-closing a.e. plus 1-1 a.e. against decoder-block
    existence.  Disagreement needs both sides definite; a bounded
    search that ran out on one side only is inconclusive."""
    closing = right_closing_ae(f, delay_bound)
    deg = degree(f, word_bound)
    lhs = closing.right_closing_ae and deg.degree == 1
    lhs_definite = closing.exact and deg.exact
    cert = find_decoder_block(f, max_len, max_anticipation)
    rhs = cert is not None
    if lhs == rhs:
        status = AGREE_POSITIVE if lhs else AGREE_NEGATIVE
    elif rhs and lhs_definite:
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


def _system_half_synchronized(oracle, graph, horizon, block_len):
    for length in range(1, block_len + 1):
        for m in iter_admissible_blocks(graph, length):
            verdict = is_half_synchronizing(oracle, m, horizon)
            if verdict.status == HOLDS:
                return True
    return False


def check_theorem_3_3(
    f: FactorMap,
    horizons=(4, 6, 8),
    word_bound: int = 8,
    k_bound: int = 4,
    extension_bound: int = 10,
    block_len: int = 2,
) -> TheoremReport:
    """Under a hyperbolic certificate, half-synchronized verdicts for
    domain and codomain must agree; additionally the certificate's
    first central block must itself be half-synchronizing on the
    domain whenever the certificate word is on the codomain."""
    cert = find_hyperbolic_certificate(f, word_bound, k_bound, extension_bound)
    if cert is None:
        return TheoremReport(
            "t33",
            INCONCLUSIVE,
            (("reason", "no hyperbolic certificate within bounds"),),
        )
    f1 = _one_block(f)
    dom_oracle = sofic_oracle(f1.domain)
    cod_oracle = sofic_oracle(f.codomain)
    facts = []
    disagreed = False
    dom_hs = cod_hs = False
    for h in horizons:
        dom_hs = _system_half_synchronized(dom_oracle, f1.domain, h, block_len)
        cod_hs = _system_half_synchronized(cod_oracle, f.codomain, h, block_len)
        facts.append((f"domain-half-sync-h{h}", "yes" if dom_hs else "no"))
        facts.append((f"codomain-half-sync-h{h}", "yes" if cod_hs else "no"))
        if dom_hs != cod_hs:
            disagreed = True
    top = max(horizons)
    word_verdict = is_half_synchronizing(cod_oracle, cert.word, top)
    if word_verdict.status == HOLDS:
        m_verdict = is_half_synchronizing(dom_oracle, cert.central_blocks[0], top)
        proof_ok = m_verdict.status == HOLDS
        facts.append(("construction-block-half-sync", "yes" if proof_ok else "no"))
        if not proof_ok:
            disagreed = True
    if disagreed:
        status = DISAGREE
    else:
        status = AGREE_POSITIVE if (dom_hs and cod_hs) else AGREE_NEGATIVE
    return TheoremReport("t33", status, facts, (_hyperbolic_line(cert),))


def _compose_through_component(f_out, f_in, component, pair_of, side):
    """Restrict a fiber projection to one component, step down from
    the recoded presentation, and compose with the outer map."""
    used = sorted(
        {lab for _, _, lab in component.edges}, key=component.alphabet.index
    )
    f_in1 = _one_block(f_in)
    psi = BlockCode(
        0,
        0,
        {(s,): pair_of[s][side] for s in used},
        component.alphabet,
        f_in1.domain.alphabet,
    )
    chain = psi
    if f_in.code.width > 1:
        _, proj = higher_block(f_in.domain, f_in.code.width)
        chain = compose(proj, chain)
    chain = compose(f_out.code, chain)
    return FactorMap(chain, component, f_out.codomain)


def check_theorem_3_4(
    f_xv: FactorMap,
    f_yv: FactorMap,
    f_yw: FactorMap,
    f_zw: FactorMap,
    word_bound: int = 8,
    k_bound: int = 4,
    extension_bound: int = 10,
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
        cert = find_hyperbolic_certificate(fm, word_bound, k_bound, extension_bound)
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
    c_left = find_hyperbolic_certificate(left, word_bound, k_bound, extension_bound)
    c_right = find_hyperbolic_certificate(right, word_bound, k_bound, extension_bound)
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
