"""Bounded-horizon query interface over shift spaces.

Three kinds of oracle answer block-admissibility and follower-set
questions:

  * sofic: backed by a labeled graph, exact at every length;
  * dyck: bracket matching with r pairs, exact at every length (a
    closer must match the most recent unmatched opener inside the
    block; unmatched closers at the bottom are allowed, they may match
    openers in the unseen past, and unmatched openers may match the
    unseen future);
  * code_list: the coded system generated by freely concatenating a
    finite list of generator blocks; a block is accepted iff it is a
    factor of some concatenation.  Exact membership in the closure of
    the coded system is not finitely decidable in general, so public
    admissibility queries are gated by the horizon budget and the
    answer is documented as window-based.

Every oracle carries a Stepper (see shiftlab.core): a start state and
a plain function step(state, sym) that returns the next state or None
once the block is dead.  The sofic state is the set of graph vertices
a block can end at, the Dyck state the stack of unmatched openers, and
the code_list state the set of unread generator tails.  Admissibility,
block enumeration and follower comparison are the shared walks of
shiftlab.core over that stepper, so they are written once for all
three kinds; a new shift class needs only a new stepper.

Oracles are immutable after construction.
"""

from .core import (
    Alphabet,
    Block,
    Stepper,
    follower_equal,
    format_block,
    graph_stepper,
    is_essential,
    iter_blocks,
    parse_block,
    trim_to_essential,
    walk,
)
from .errors import (
    BudgetExceededError,
    InadmissibleBlockError,
    InvariantError,
    OracleKindError,
    ParseError,
)

SOFIC = "sofic"
DYCK = "dyck"
CODE_LIST = "code_list"

DEFAULT_BUDGET = 8

# default bracket pairs for the 2-pair Dyck shift
DYCK_PAIRS_2 = (("(", ")"), ("[", "]"))


class ShiftOracle:
    """Uniform front end; construct via sofic_oracle / dyck_oracle /
    code_list_oracle rather than directly."""

    __slots__ = (
        "alphabet",
        "kind",
        "horizon_budget",
        "stepper",
        "graph",
        "pairs",
        "generators",
    )

    def __init__(self, kind, horizon_budget, stepper, graph=None, pairs=None, generators=None):
        self.alphabet = stepper.alphabet
        self.kind = kind
        self.horizon_budget = horizon_budget
        self.stepper = stepper
        self.graph = graph
        self.pairs = pairs
        self.generators = generators

    def __repr__(self):
        return f"ShiftOracle({self.kind}, budget={self.horizon_budget})"


def sofic_oracle(graph, horizon_budget: int = DEFAULT_BUDGET) -> ShiftOracle:
    """Exact oracle for the sofic shift presented by `graph`."""
    g = graph if is_essential(graph) else trim_to_essential(graph)
    return ShiftOracle(SOFIC, horizon_budget, graph_stepper(g), graph=g)


def dyck_oracle(pairs=DYCK_PAIRS_2, horizon_budget: int = DEFAULT_BUDGET) -> ShiftOracle:
    """Dyck shift oracle over the given (opener, closer) pairs.

    Symbols are declared opener-closer pairwise, so the alphabet order
    for pairs (("(", ")"), ("[", "]")) is ( ) [ ].
    """
    pairs = tuple((o, c) for o, c in pairs)
    symbols = []
    for o, c in pairs:
        symbols += [o, c]
    openers = {o for o, _ in pairs}
    opener_of = {c: o for o, c in pairs}

    def step(stack, sym):
        if sym in openers:
            return stack + (sym,)
        if not stack:
            return stack  # matches an opener in the unseen past
        if stack[-1] == opener_of[sym]:
            return stack[:-1]
        return None

    stepper = Stepper(Alphabet(symbols), (), step)
    return ShiftOracle(DYCK, horizon_budget, stepper, pairs=pairs)


def dyck_oracle_rank(r: int, horizon_budget: int = DEFAULT_BUDGET) -> ShiftOracle:
    """Dyck oracle with r bracket pairs.

    Ranks one and two use the literal pairs () and []; larger ranks
    get numbered pairs (3 )3 onward.
    """
    if r < 1:
        raise ValueError("need at least one bracket pair")
    pairs = DYCK_PAIRS_2[:r] + tuple(
        (f"({k}", f"){k}") for k in range(3, r + 1)
    )
    return dyck_oracle(pairs, horizon_budget)


def code_list_oracle(alphabet, generators, horizon_budget: int = DEFAULT_BUDGET) -> ShiftOracle:
    """Coded-system oracle generated by freely concatenating `generators`."""
    gens = []
    for gen in generators:
        gen = tuple(gen)
        if not gen:
            raise ValueError("empty generator block")
        for s in gen:
            if s not in alphabet:
                raise ValueError(f"generator symbol {s!r} not in alphabet")
        if gen not in gens:
            gens.append(gen)
    if not gens:
        raise ValueError("need at least one generator")
    starts = {()}
    for gen in gens:
        for i in range(1, len(gen)):
            starts.add(gen[i:])

    def step(states, sym):
        # a residual is the unread tail of the generator being spelled;
        # the empty residual is a boundary, where any generator
        # starting with sym may begin
        new = set()
        for r in states:
            if r:
                if r[0] == sym:
                    new.add(r[1:])
            else:
                new.update(gen[1:] for gen in gens if gen[0] == sym)
        return frozenset(new) or None

    stepper = Stepper(alphabet, frozenset(starts), step)
    return ShiftOracle(CODE_LIST, horizon_budget, stepper, generators=tuple(gens))


def _admissible_unbounded(o, w) -> bool:
    """Internal admissibility with no budget gate (used by searches)."""
    for sym in w:
        if sym not in o.alphabet:
            return False
    return walk(o.stepper, w) is not None


def oracle_admissible(o: ShiftOracle, w: Block) -> bool:
    """Is w an admissible block of the shift?

    Exact for sofic and dyck at any length; for code_list the check is
    window-based and gated by the horizon budget.
    """
    if o.kind == CODE_LIST and len(w) > o.horizon_budget:
        raise BudgetExceededError(
            f"block of length {len(w)} exceeds budget {o.horizon_budget}"
        )
    return _admissible_unbounded(o, w)


def dyck_follower_signature(o: ShiftOracle, u: Block) -> Block:
    """The unmatched-opener stack of u, bottom to top.

    Two admissible contexts with equal signatures have equal follower
    sets at every horizon.
    """
    if o.kind != DYCK:
        raise OracleKindError("dyck_follower_signature needs a dyck oracle")
    stack = walk(o.stepper, u)
    if stack is None:
        raise InadmissibleBlockError(f"inadmissible block {format_block(u)}")
    return stack


def _after(o, u) -> Stepper:
    """The oracle's stepper restarted at the state u leads to."""
    if not _admissible_unbounded(o, u):
        raise InadmissibleBlockError(f"inadmissible block {format_block(u)}")
    return o.stepper.at(walk(o.stepper, u))


def oracle_follower_equal(o: ShiftOracle, u: Block, v: Block, horizon: int) -> bool:
    """Do u and v admit exactly the same continuations up to `horizon`?"""
    if horizon > o.horizon_budget:
        raise BudgetExceededError(
            f"horizon {horizon} exceeds budget {o.horizon_budget}"
        )
    return follower_equal(_after(o, u), _after(o, v), horizon)


def oracle_blocks(o: ShiftOracle, n: int):
    """All admissible length-n blocks, lexicographic order (exact for
    every kind; the code_list state space already encodes boundary
    alignments)."""
    for w, _ in iter_blocks(o.stepper, n):
        yield w


def _embed_in_concatenation(o, b):
    """For a code_list block b, a pair (alpha, beta) of completion
    blocks such that alpha + b + beta is an exact concatenation of
    generators.  Deterministic: least start residual that survives,
    then least final residual."""
    if o.kind != CODE_LIST:
        raise InvariantError(f"concatenation embedding needs a code_list oracle, not {o.kind}")

    def reskey(r):
        return (len(r), r)

    for r0 in sorted(o.stepper.start, key=reskey):
        states = walk(o.stepper.at(frozenset([r0])), b)
        if states is not None:
            if r0:
                cands = [
                    g for g in o.generators
                    if len(g) > len(r0) and g[-len(r0):] == r0
                ] + [g for g in o.generators if g == r0]
                gen = min(cands, key=reskey)
                alpha = gen[: len(gen) - len(r0)]
            else:
                alpha = ()
            beta = min(states, key=reskey)
            return alpha, beta
    raise InadmissibleBlockError(f"inadmissible block {format_block(b)}")


def parse_oracle(text: str, base_dir=".", path: str = "") -> ShiftOracle:
    """Parse the oracle declaration format.

    One `oracle` line: `oracle sofic <graph-file>`, `oracle dyck <r>`,
    or `oracle codelist <block> <block> ...`.  Graph paths resolve
    relative to base_dir.  The codelist alphabet is inferred from the
    generator blocks: distinct single-character symbols, sorted.
    """
    import os

    decl = None
    declline = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if decl is not None:
            raise ParseError("more than one oracle line", lineno, path)
        decl = line.split()
        declline = lineno
    if decl is None:
        raise ParseError("missing oracle line", 0, path)
    if decl[0] != "oracle" or len(decl) < 2:
        raise ParseError("expected: oracle <kind> ...", declline, path)
    kind = decl[1]
    args = decl[2:]
    if kind == "sofic":
        if len(args) != 1:
            raise ParseError("oracle sofic takes a graph file", declline, path)
        from .core import load_graph

        return sofic_oracle(load_graph(os.path.join(base_dir, args[0])))
    if kind == "dyck":
        if len(args) != 1 or not args[0].isdigit() or int(args[0]) < 1:
            raise ParseError("oracle dyck takes a pair count", declline, path)
        return dyck_oracle_rank(int(args[0]))
    if kind == "codelist":
        if not args:
            raise ParseError("oracle codelist needs generator blocks", declline, path)
        symbols = sorted({c for blk in args for c in blk})
        alphabet = Alphabet(symbols)
        return code_list_oracle(alphabet, [parse_block(blk, alphabet) for blk in args])
    raise ParseError(f"unknown oracle kind {kind!r}", declline, path)


def load_oracle(path) -> ShiftOracle:
    import os

    with open(path, encoding="utf-8") as f:
        return parse_oracle(f.read(), os.path.dirname(os.path.abspath(path)), str(path))
