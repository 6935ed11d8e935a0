"""Shared exception types.

The CLI maps these onto its exit-code contract: malformed input -> 2,
resource caps -> 3, falsified properties -> 1.
"""


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


def parse_int(text: str, what: str) -> int:
    """`int(text)`, reporting text that is not an integer as malformed input."""
    try:
        return int(text)
    except ValueError:
        raise MalformedInputError(f"bad {what}: {text!r}") from None
