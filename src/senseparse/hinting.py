"""Sense hinting: seeding, steering, and forcing the parser's choices.

Three mechanisms share the per-sentence advice map of (word, token, type,
score) hints, each advising one token of the sentence:

- *prehinting* injects a score-1 lexical entry for each advised sense
  before parsing starts, guaranteeing the sense is on the chart;
- *progressive hinting* augments a constituent's root component whenever
  a hint matches it (same word, advised token inside the constituent's
  span, hinted type an ancestor-or-self of the constituent's type),
  blending through ``augment(s_c, s, alpha) = alpha * (s_c * s) +
  (1 - alpha)``; the parser then averages that component with the
  daughters' scores;
- *sense fixing* replaces a token's entries with the advised senses
  outright, synthesizing an entry when none exists.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Sequence

from .diagnostics import DISCARD, Diagnostics
from .lexicon import LexicalEntry, Lexicon
from .ontology import Ontology
from .parser import Scorer, Span, Token


class Hint(NamedTuple):
    """One advised sense: the token's base-form word, the token's index,
    an ontology type, and a confidence in [0, 1]."""

    word: str
    token: int
    onto_type: str
    score: float


class AdviceMap:
    """All hints for one sentence, indexed by word."""

    def __init__(self, hints: Sequence[Hint]) -> None:
        self.hints = tuple(hints)
        self._by_word: dict[str, list[Hint]] = {}
        for hint in self.hints:
            self._by_word.setdefault(hint.word, []).append(hint)

    def best_match(
        self, word: str, span: Span, onto_type: str, ontology: Ontology
    ) -> Hint | None:
        """The hint of ``word`` with the highest score among those whose
        token lies inside ``span`` and whose type is an ancestor-or-self of
        ``onto_type``; ties by type name, then by hint order."""
        ancestors = ontology.ancestor_sets.get(onto_type, ())
        start, end = span
        best = None
        for hint in self._by_word.get(word, ()):
            if start <= hint.token < end and hint.onto_type in ancestors and (
                best is None or (-hint.score, hint.onto_type) < (-best.score, best.onto_type)
            ):
                best = hint
        return best


def augment(s_c: float, s: float, alpha: float) -> float:
    """Blend a constituent score with a hint score.

    Returns ``alpha * (s_c * s) + (1 - alpha)``, which always lands in
    ``[1 - alpha, 1]`` and is monotone in both scores.
    """
    # each of the three in [0, 1] (NaN fails every comparison); which one
    # is not is worked out only to name it
    if 0.0 <= s_c <= 1.0 >= s >= 0.0 <= alpha <= 1.0:
        return alpha * (s_c * s) + (1.0 - alpha)
    for name, value in (("s_c", s_c), ("s", s), ("alpha", alpha)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {value}")


def progressive_scorer(advice: AdviceMap, ontology: Ontology, alpha: float) -> Scorer:
    """Scoring hook for the parser that applies progressive hinting.

    Given an item's (word, span, type) and its root component ``own``, the
    hook returns the augment of ``own`` with the best matching hint,
    blended by ``alpha``, or ``own`` unchanged when nothing matches.  The
    parser averages what it returns with the daughters' scores.
    """

    def scorer(item: tuple[str, Span, str], own: float) -> float:
        word, span, onto_type = item
        hint = advice.best_match(word, span, onto_type, ontology)
        return own if hint is None else augment(own, hint.score, alpha)

    return scorer


# -- entry-list manipulation ---------------------------------------------------


def prehint(
    advice: AdviceMap,
    lexicon: Lexicon,
    tokens: Sequence[Token],
    diagnostics: Diagnostics = DISCARD,
) -> dict[int, list[LexicalEntry]]:
    """Score-1 entries to inject for each advised sense, keyed by token.

    The template is chosen exactly as for generated entries.  A hint for
    which no template fits is skipped with a diagnostic; existing entries
    are never removed.  Hints are unique per (token, type), so each advised
    type gets one entry.
    """
    additions: dict[int, list[LexicalEntry]] = {}
    for hint in sorted(advice.hints, key=lambda h: (h.token, h.onto_type)):
        entry = _advised_entry(lexicon, hint.word, tokens[hint.token].pos, hint.onto_type)
        if entry is None:
            diagnostics.note(
                "skipped-prehint", f"{hint.word} {hint.onto_type}: no compatible template"
            )
            continue
        additions.setdefault(hint.token, []).append(entry)
    return additions


def _advised_entry(
    lexicon: Lexicon, word: str, pos: str | None, onto_type: str
) -> LexicalEntry | None:
    """The score-1 entry for an advised sense, with its template chosen
    exactly as for generated entries; None when no template fits."""
    template = lexicon.template_for_type(onto_type, pos)
    if template is None:
        return None
    return LexicalEntry(word, template.name, onto_type, 1.0)


def apply_prehints(
    entries: Sequence[Sequence[LexicalEntry]],
    additions: Mapping[int, Sequence[LexicalEntry]],
) -> list[list[LexicalEntry]]:
    """Merge prehint entries into per-token lists.

    A prehint that duplicates an existing (word, template, type) key
    replaces that entry (same sense, score pinned to 1), so no token's
    list ever shrinks.
    """
    merged: list[list[LexicalEntry]] = []
    for index, bucket in enumerate(entries):
        extra = list(additions.get(index, []))
        if not extra:
            merged.append(list(bucket))
            continue
        extra_keys = {e.key(): e for e in extra}
        out = [extra_keys.pop(e.key(), e) for e in bucket]
        out.extend(e for e in extra if e.key() in extra_keys)
        merged.append(out)
    return merged


def fix_senses(
    advice: AdviceMap,
    entries: Sequence[Sequence[LexicalEntry]],
    lexicon: Lexicon,
    tokens: Sequence[Token],
    diagnostics: Diagnostics = DISCARD,
) -> list[list[LexicalEntry]]:
    """Force each advised token to its advised senses.

    Entries whose type is not among the token's advised types are dropped;
    when nothing survives, a score-1 entry is synthesized per advised type.
    If even synthesis fails (no template anywhere) the original entries are
    kept, with a diagnostic, so no token is ever left entry-less.
    """
    advised: dict[int, set[str]] = {}
    for hint in advice.hints:
        advised.setdefault(hint.token, set()).add(hint.onto_type)

    out: list[list[LexicalEntry]] = []
    for index, bucket in enumerate(entries):
        types = advised.get(index)
        if not types:
            out.append(list(bucket))
            continue
        kept = [e for e in bucket if e.onto_type in types]
        if not kept:
            token = tokens[index]
            for onto_type in sorted(types):
                entry = _advised_entry(lexicon, token.lemma, token.pos, onto_type)
                if entry is None:
                    diagnostics.note(
                        "forced-entry-failed", f"{token.lemma} {onto_type}: no template"
                    )
                    continue
                kept.append(entry)
        if not kept:
            diagnostics.note("forcing-skipped", f"token {index} kept original entries")
            kept = list(bucket)
        out.append(kept)
    return out
