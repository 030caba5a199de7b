"""The record syntax shared by every input file.

The ontology, synset, lexicon, grammar, corpus and advice files are all
line-oriented: ``#`` starts a comment line, blank lines are skipped (the
ontology uses them to separate multi-line blocks), a record is a run of
whitespace-separated tokens, optional fields are ``key value`` pairs, and
a list value is comma-separated with ``-`` for the empty list.  Every
malformed record raises :class:`FormatError` naming ``file:line`` and the
offending token.  The format modules keep only what is particular to
their own records.
"""

from __future__ import annotations

from math import isfinite
from pathlib import Path
from typing import Callable, Iterator, TypeVar

from .errors import FormatError

T = TypeVar("T")


def load(parse: Callable[..., T], path: str | Path, *args: object) -> T:
    """Read ``path`` as UTF-8 and hand it to ``parse`` with the path as source."""
    p = Path(path)
    return parse(p.read_text(encoding="utf-8"), *args, source=str(p))


def lines(text: str) -> list[tuple[int, list[str]]]:
    """(line number, whitespace tokens) per non-blank, non-comment line."""
    return [
        (lineno, line.split())
        for lineno, raw in enumerate(text.splitlines(), start=1)
        if (line := raw.strip()) and line[0] != "#"
    ]


def blocks(text: str) -> Iterator[tuple[int, list[str]]]:
    """Yield (first line number, whitespace tokens) per blank-separated block.

    Comment lines neither end a block nor contribute to it.
    """
    start = None
    tokens: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("#"):
            continue
        if not line:
            if tokens:
                yield start, tokens  # type: ignore[misc]
                tokens = []
                start = None
            continue
        if start is None:
            start = lineno
        tokens.extend(line.split())
    if tokens:
        yield start, tokens  # type: ignore[misc]


def fields(
    tokens: list[str], start: int, allowed: tuple[str, ...], source: str, lineno: int
) -> dict[str, str]:
    """Read the ``key value`` pairs of ``tokens[start:]``, each key from
    ``allowed`` and at most once.  Errors name the record by its first two
    tokens, such as ``type animal``."""
    if (len(tokens) - start) % 2 != 0:
        raise FormatError(
            f"dangling key '{tokens[-1]}' in {tokens[0]} {tokens[1]}", source, lineno
        )
    out: dict[str, str] = {}
    for key, value in zip(tokens[start::2], tokens[start + 1 :: 2]):
        if key not in allowed:
            raise FormatError(
                f"unknown key '{key}' in {tokens[0]} {tokens[1]}", source, lineno
            )
        if key in out:
            raise FormatError(
                f"repeated key '{key}' in {tokens[0]} {tokens[1]}", source, lineno
            )
        out[key] = value
    return out


def split_list(value: str) -> list[str]:
    """The non-empty items of a comma-separated list; ``-`` is the empty list."""
    if value == "-":
        return []
    items = value.split(",")
    return [v for v in items if v] if "" in items else items


def integer(text: str, what: str, source: str, lineno: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise FormatError(f"non-numeric {what} '{text}'", source, lineno) from None


def finite(text: str, what: str, source: str, lineno: int) -> float:
    """A float that is neither NaN nor infinite."""
    try:
        value = float(text)
    except ValueError:
        raise FormatError(f"non-numeric {what} '{text}'", source, lineno) from None
    if not isfinite(value):
        raise FormatError(f"non-finite {what} '{text}'", source, lineno)
    return value


def span(start_text: str, end_text: str, source: str, lineno: int) -> tuple[int, int]:
    """A non-empty character interval ``[start, end)`` with ``start >= 0``."""
    try:
        start, end = int(start_text), int(end_text)
    except ValueError:
        raise FormatError(
            f"non-numeric span '{start_text} {end_text}'", source, lineno
        ) from None
    if start >= end or start < 0:
        raise FormatError(f"bad character span '{start_text} {end_text}'", source, lineno)
    return start, end
