"""Exception types raised across the package.

Every failure mode that callers are expected to branch on gets its own
class; generic misuse (wrong types, impossible arguments) raises the
usual ValueError/TypeError instead.
"""


class ShiftlabError(Exception):
    """Base class for all package-specific errors."""


class ParseError(ShiftlabError):
    """A text description of a graph, code, or oracle failed to parse."""

    def __init__(self, message: str, line: int = 0, path: str = ""):
        self.line = line
        self.path = path
        loc = ""
        if path:
            loc += path
        if line:
            loc += f":{line}"
        if loc:
            message = f"{loc}: {message}"
        super().__init__(message)


class NotEssentialError(ShiftlabError):
    """Graph has a stranded vertex (no incoming or no outgoing edge)."""


class NotRightResolvingError(ShiftlabError):
    """Operation requires deterministic outgoing labels and the graph has a conflict."""


class NotIrreducibleError(ShiftlabError):
    """Operation requires a strongly connected presentation."""


class InadmissibleBlockError(ShiftlabError):
    """A block was passed where an admissible one is required."""


class BlockTooShortError(ShiftlabError):
    """A block is shorter than the operation's minimum length."""


class InadmissibleWindowError(ShiftlabError):
    """A sliding window in the input point escapes the code's domain.

    The offending coordinate (position of the window's leftmost symbol
    in the point's own indexing) is stored on the exception.
    """

    def __init__(self, message: str, coordinate: int = 0):
        self.coordinate = coordinate
        super().__init__(message)


class CodomainMismatchError(ShiftlabError):
    """Composition was attempted between codes whose alphabets do not chain."""


class NotFiniteToOneError(ShiftlabError):
    """The factor map has a point with infinitely many preimages."""


class NotSurjectiveError(ShiftlabError):
    """The factor map does not cover its declared codomain."""


class BudgetExceededError(ShiftlabError):
    """An oracle or search ran past its configured horizon budget."""


class InvariantError(ShiftlabError):
    """A construction broke a property it guarantees: a bug, not bad input."""


class OracleKindError(ShiftlabError):
    """An oracle of the wrong kind was passed to an operation."""
