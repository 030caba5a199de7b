"""Error types shared across the package, and the name table that raises one."""

from typing import TypeVar

_V = TypeVar("_V")


class SenseParseError(Exception):
    """Base class for all package-specific errors."""


class FormatError(SenseParseError):
    """A record of a resource file failed to parse or to check.

    The message is ``file:line: problem``, with the source path and the
    1-based line of the record at fault.
    """

    def __init__(self, message: str, source: str, line: int):
        super().__init__(f"{source}:{line}: {message}")


class StructuralError(SenseParseError):
    """A loaded resource violates a structural invariant.

    Examples: multiple roots or a parent cycle in the type hierarchy, a
    role restriction naming a missing type, a synset mapped to two types.
    When one record is at fault, ``index`` is its position among the
    records the constructor was handed.
    """

    def __init__(self, message: str, index: int | None = None):
        self.index = index
        super().__init__(message)


class UnknownName(SenseParseError, KeyError):
    """Lookup of a type or synset identifier that does not exist."""

    def __str__(self) -> str:  # KeyError quotes its arg; keep the message plain
        return self.args[0] if self.args else ""


class Names(dict[str, _V]):
    """A table by name: looking up a missing name raises :class:`UnknownName`,
    ``unknown <kind> <name>``; ``in`` and ``.get`` test without raising."""

    def __init__(self, kind: str) -> None:
        self.kind = kind

    def __missing__(self, name: str) -> _V:
        raise UnknownName(f"unknown {self.kind} {name}")


class ParseFailure(SenseParseError):
    """The parser was invoked on input it cannot process at all (e.g. no tokens)."""
