"""Shared exception types.

The CLI maps these onto its exit-code contract: malformed input -> 2,
resource caps -> 3, falsified properties -> 1.
"""

from math import log10


class OrbitlabError(Exception):
    pass


class MalformedInputError(OrbitlabError, ValueError):
    """Input that fails validation before any computation starts."""


class ResourceCapError(OrbitlabError):
    """An enumeration or search exceeded a configured cap."""


class FalsificationError(OrbitlabError):
    """A property that should hold by construction failed.

    Raised instead of silently patching: a genuine occurrence would
    contradict one of the combinatorial facts the library relies on,
    and must be surfaced verbatim.
    """


def format_count(n: int) -> str:
    """n in decimal, for a cap message; a count too long for int-to-str
    conversion (past 4,300 digits by default) is given as a power of ten."""
    try:
        return str(n)
    except ValueError:
        return f"about 10^{log10(n):.0f}"


def parse_int(text: str, what: str) -> int:
    """`int(text)`, reporting text that is not an integer as malformed input."""
    try:
        return int(text)
    except ValueError:
        raise MalformedInputError(f"bad {what}: {text!r}") from None
