"""The record syntax shared by every input file.

The ontology, synset, lexicon, grammar, corpus and advice files are all
line-oriented: ``#`` starts a comment line, blank lines are skipped, a
record is a run of whitespace-separated tokens on one line, optional fields
are ``key value`` pairs, and a list value is comma-separated, with ``-``
for the empty list and no empty item.  Every malformed record raises
:class:`FormatError` naming ``file:line`` and the offending token.  So does
an ontology type, a synset, a lexicon template, default or entry, or a
grammar rule that a structural check finds at fault, such as a duplicate
or a dangling name; another structural error names the file.
The format modules keep only what is particular to their own records.

Every record type is a ``typing.NamedTuple``, by one rule:

- A record is immutable and compares equal to a plain tuple of its
  values.  The parser builds each chart item (``parser.Constituent``) with
  ``tuple.__new__`` and all of its fields: on the hot path that skips the
  generated ``__new__``, one Python frame per item, and the item is the
  same tuple.
- A config that checks its values (``parser.ParserConfig``,
  ``evaluation.VariantConfig``) subclasses a private named tuple of its
  fields, with ``__slots__ = ()`` and a ``__new__`` that builds the tuple
  and checks it.  ``_make`` and ``_replace`` skip ``__new__``, so no code
  here calls either on such a config.
- A file record checks nothing itself.  The container it is read into
  (``Ontology``, ``SynsetGraph``, ``Lexicon``, ``Grammar``) or its reader
  (corpus and advice) checks it, and :func:`build` names a container's
  fault at the ``file:line`` of the record at fault.
"""

from __future__ import annotations

import os
from math import isfinite
from typing import Callable, Sequence, TypeVar

from .errors import FormatError, StructuralError

T = TypeVar("T")


def load(parse: Callable[..., T], path: str | os.PathLike[str], *args: object) -> T:
    """Read ``path`` as UTF-8, less a leading byte-order mark, and hand it
    to ``parse`` with ``str(path)``, the path as given, as the source that
    errors name."""
    with open(path, encoding="utf-8-sig") as handle:
        text = handle.read()
    return parse(text, *args, source=str(path))


def build(construct: Callable[..., T], source: str, *args: object, lines: Sequence[int]) -> T:
    """Call ``construct(*args)``; a :class:`StructuralError` it raises is
    re-raised with ``source`` in front, so it names the file at fault.  One
    that names the record at fault is re-raised as a :class:`FormatError`
    at that record's line, its entry in ``lines``."""
    try:
        return construct(*args)
    except StructuralError as exc:
        if exc.index is not None:
            raise FormatError(str(exc), source, lines[exc.index]) from exc
        raise StructuralError(f"{source}: {exc}") from exc


def lines(text: str) -> list[tuple[int, list[str]]]:
    """(line number, whitespace tokens) per non-blank, non-comment line."""
    return [
        (lineno, line.split())
        for lineno, raw in enumerate(text.splitlines(), start=1)
        if (line := raw.strip()) and line[0] != "#"
    ]


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


def split_list(value: str, source: str, lineno: int) -> list[str]:
    """The items of a comma-separated list; ``-`` is the empty list.  An
    empty item, as in ``a,,b``, ``a,`` or ``,a``, is malformed."""
    if value == "-":
        return []
    items = value.split(",")
    if "" in items:
        raise FormatError(f"empty item in list '{value}'", source, lineno)
    return items


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
