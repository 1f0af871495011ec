"""Executable acceptance criteria over the bundled corpus.

Each criterion recomputes everything from freshly loaded files and
returns a plain verdict, so runs are independent and deterministic.
The command line front end prints one row per criterion; the test
suite asserts each verdict individually.
"""

from importlib import resources

from .analysis import (
    AGREE_NEGATIVE,
    AGREE_POSITIVE,
    INCONCLUSIVE,
    check_theorem_3_3,
    check_theorem_3_4,
    check_theorem_4_2,
    degree,
    fiber_product,
    find_decoder_block,
    find_hyperbolic_certificate,
    is_one_to_one_ae,
    right_closing_ae,
    verify_decoder_block,
)
from .codes import apply_block, load_factor_map, recode_to_one_block
from .core import (
    blocks_of_length,
    count_blocks,
    format_block,
    is_admissible,
    iter_blocks,
    load_graph,
)
from .covers import (
    HOLDS,
    NOT_SYNCHRONIZING,
    fischer_cover,
    find_synchronizing_word,
    is_half_synchronizing,
    is_synchronizing,
    isomorphic_minimal,
)
from .oracle import load_oracle, oracle_admissible

GRAPHS = ("golden", "even", "even4", "full2", "goldennd", "evenedge")
MAPS = ("evenmap", "xor", "identity")


def corpus_path(name: str) -> str:
    return str(resources.files("shiftlab") / "corpus" / name)


def _graph(name):
    return load_graph(corpus_path(name + ".graph"))


def _map(name):
    return load_factor_map(corpus_path(name + ".code"))


def _paths(g, n):
    """All label words of n-edge paths, by brute walk."""
    words = set()
    stack = [(v, ()) for v in g.vertices]
    while stack:
        v, w = stack.pop()
        if len(w) == n:
            words.add(w)
            continue
        for lab, t in g.out_edges(v):
            stack.append((t, w + (lab,)))
    return words


def _reached(g, w):
    """Vertices at the end of some w-reading path from any start."""
    states = set(g.vertices)
    for sym in w:
        states = {t for v in states for lab, t in g.out_edges(v) if lab == sym}
    return frozenset(states)


def _extension_profile(g, prefix, candidates):
    """Which candidate continuations are admissible after prefix."""
    return frozenset(w for w in candidates if is_admissible(g, prefix + w))


def criterion_1():
    """Golden mean block counts follow the Fibonacci law."""
    g = _graph("golden")
    want = [2, 3, 5, 8, 13, 21]
    for n, target in zip(range(1, 7), want):
        if count_blocks(g, n) != target:
            return False
        if len(_paths(g, n)) != target:
            return False
        if len(blocks_of_length(g, n)) != target:
            return False
    return True


def criterion_2():
    """Redundant even presentation minimizes to two vertices; the
    minimal cover construction is idempotent on every corpus graph."""
    if len(fischer_cover(_graph("even4")).vertices) != 2:
        return False
    for name in GRAPHS:
        fc = fischer_cover(_graph(name))
        if not isomorphic_minimal(fc, fischer_cover(fc)):
            return False
    return True


def criterion_3():
    """Synchronizing word search returns 1 on both reference shifts,
    verified against the definition; 0 is refuted on the even shift."""
    for name in ("golden", "even"):
        g = _graph(name)
        v = find_synchronizing_word(g, 8)
        if v != ("1",):
            return False
        # definitional check: follower after uv never depends on u;
        # prefixes with the same reachable set share one brute profile
        continuations = sorted(w for n in range(1, 9) for w in _paths(g, n))
        target = _extension_profile(g, v, continuations)
        profiles = {_reached(g, v): target}
        for m in range(1, 9):
            for u in sorted(_paths(g, m)):
                if not is_admissible(g, u + v):
                    continue
                key = _reached(g, u + v)
                if key not in profiles:
                    profiles[key] = _extension_profile(g, u + v, continuations)
                if profiles[key] != target:
                    return False
    g = _graph("even")
    verdict = is_synchronizing(g, ("0",), 8)
    if verdict.status != NOT_SYNCHRONIZING or verdict.witness is None:
        return False
    u, w = verdict.witness
    return (
        is_admissible(g, u + ("0",))
        and is_admissible(g, ("0",) + w)
        and not is_admissible(g, u + ("0",) + w)
    )


def criterion_4():
    """The even-shift collapse map is right-closing with delay zero,
    degree one, and carries a decoder block."""
    f = _map("evenmap")
    closing = right_closing_ae(f)
    if not (closing.right_closing_ae and closing.delay == 0 and closing.exact):
        return False
    rep = degree(f)
    if rep.degree != 1 or not rep.exact:
        return False
    cert = find_decoder_block(f)
    if cert is None or (format_block(cert.block), cert.anticipation) != ("1", 0):
        return False
    if not verify_decoder_block(f, cert.block, cert.anticipation, horizon=10):
        return False
    return check_theorem_4_2(f).status == AGREE_POSITIVE


def criterion_5():
    """The xor map has degree exactly two and no decoder block."""
    f = _map("xor")
    rep = degree(f)
    if rep.degree != 2 or not rep.exact:
        return False
    if is_one_to_one_ae(f):
        return False
    if find_decoder_block(f, max_len=8, max_anticipation=4) is not None:
        return False
    return check_theorem_4_2(f).status == AGREE_NEGATIVE


def _brute_central_windows(f, word, k):
    """Central (2k+1)-windows of all preimage blocks of word, by
    enumeration over the one-block recoding."""
    f1 = recode_to_one_block(f)
    n = len(word) // 2
    found = set()
    for x in blocks_of_length(f1.domain, len(word)):
        if apply_block(f1.code, x) == word:
            found.add(x[n - k : n + k + 1])
    return found


def criterion_6():
    """Hyperbolicity certificates: degree two for xor, one for the
    even-shift map, central blocks matching brute enumeration."""
    fx = _map("xor")
    cx = find_hyperbolic_certificate(fx)
    if cx is None or cx.d != 2:
        return False
    if set(cx.central_blocks) != _brute_central_windows(fx, cx.word, cx.k):
        return False
    fe = _map("evenmap")
    ce = find_hyperbolic_certificate(fe)
    if ce is None or ce.d != 1:
        return False
    return set(ce.central_blocks) == _brute_central_windows(fe, ce.word, ce.k)


def criterion_7():
    """Half-synchronization transfers along every corpus map t33 finds a
    certificate for, at all tested horizons, construction block included."""
    for name in MAPS:
        rep = check_theorem_3_3(_map(name))
        if rep.status == INCONCLUSIVE:
            continue
        if rep.status != AGREE_POSITIVE:
            return False
        facts = dict(rep.facts)
        for h in (4, 6, 8):
            if facts.get(f"domain-half-sync-h{h}") != facts.get(f"codomain-half-sync-h{h}"):
                return False
        if facts.get("construction-block-half-sync") != "yes":
            return False
    return True


def criterion_8():
    """Common-extension instance through the xor fiber product, with
    projections that commute on every fiber symbol.

    The projections and the recoded xor map are 1-block codes, which
    act symbol by symbol, so one check per fiber symbol covers every
    block of the fiber product.
    """
    fx = _map("xor")
    ident = _map("identity")
    rep = check_theorem_3_4(ident, fx, fx, ident)
    if rep.status != AGREE_POSITIVE:
        return False
    fp = fiber_product(fx, fx)
    f1 = recode_to_one_block(fx)
    p1, p2 = fp.projections
    if {p1.code.width, p2.code.width, f1.code.width} != {1}:
        return False
    for s in {lab for _, _, lab in fp.presentation.edges}:
        left = apply_block(f1.code, apply_block(p1.code, (s,)))
        right = apply_block(f1.code, apply_block(p2.code, (s,)))
        if left != right:
            return False
    return True


# each Dyck-2 closer and the opener it cancels
_CLOSES = {")": "(", "]": "["}


def _bracket_reductions(symbols, n):
    """Each admissible Dyck-2 word of length 1..n with its unmatched
    openers, by free bracket reduction.

    A word is reduced one symbol at a time: a closer cancels an opener
    of its own kind just before it, and anything else is appended.  The
    word is admissible while no opener in its reduction is directly
    followed by a closer, that is, while the reduction is unmatched
    closers followed by unmatched openers; the openers are the stack.
    An admissible prefix already has that form, so only the appended
    symbol can break it.  Returns one dict {word: openers} per length.
    """
    levels = []
    words = {(): ()}
    for _ in range(n):
        grown = {}
        for w, reduced in words.items():
            for s in symbols:
                if s in _CLOSES and reduced and reduced[-1] == _CLOSES[s]:
                    r = reduced[:-1]
                else:
                    r = reduced + (s,)
                if len(r) > 1 and r[-2] not in _CLOSES and r[-1] in _CLOSES:
                    continue
                grown[w + (s,)] = r
        words = grown
        levels.append(
            {w: tuple(t for t in r if t not in _CLOSES) for w, r in words.items()}
        )
    return levels


def criterion_9():
    """Dyck oracle: bracket discipline, stepper states equal to an
    independent bracket reduction, and a half-synchronizing candidate
    block."""
    o = load_oracle(corpus_path("dyck2.oracle"))
    if oracle_admissible(o, ("(", "]")):
        return False
    if not oracle_admissible(o, (")", "(")):
        return False
    for n, reduced in enumerate(_bracket_reductions(o.alphabet.symbols, 6), start=1):
        if dict(iter_blocks(o.stepper, n)) != reduced:
            return False
    return is_half_synchronizing(o, ("(", ")"), 6).status == HOLDS


LABELS = (
    "golden-mean-counts",
    "fischer-minimality",
    "synchronizing-words",
    "evenmap-decoder",
    "xor-degree-two",
    "hyperbolic-certificates",
    "half-sync-transfer",
    "common-extension",
    "dyck-oracle",
    "determinism",
)

_CHECKS = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
)


def _core_rows():
    rows = []
    for i, check in enumerate(_CHECKS):
        rows.append(("criterion", i + 1, "pass" if check() else "fail", LABELS[i]))
    return rows


def report_rows():
    """Rows 1..10: row 10 passes iff rows 1..9 as printed equal a fresh pass."""
    rows = _core_rows()
    rows.append(("criterion", 10, "pass" if rows == _core_rows() else "fail", LABELS[9]))
    return rows


def criterion_10():
    """The verdict of row 10 of `report_rows`."""
    return report_rows()[-1][2] == "pass"
