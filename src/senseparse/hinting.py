"""Sense hinting: seeding, steering, and forcing the parser's choices.

Three mechanisms share the per-sentence advice map of (word, span, type,
score) hints:

- *prehinting* injects a score-1 lexical entry for each advised sense
  before parsing starts, guaranteeing the sense is on the chart;
- *progressive hinting* augments a constituent's score whenever a hint
  matches it (same word, overlapping span, hinted type an ancestor-or-self
  of the constituent's type), blending through
  ``augment(s_c, s, alpha) = alpha * (s_c * s) + (1 - alpha)``;
- *sense fixing* replaces a token's entries with the advised senses
  outright, synthesizing an entry when none exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .diagnostics import Diagnostics
from .lexicon import LexicalEntry, Lexicon
from .ontology import Ontology
from .parser import Constituent, Scorer, Token, recursive_score

__all__ = [
    "Hint",
    "AdviceMap",
    "match",
    "augment",
    "progressive_score",
    "progressive_scorer",
    "prehint",
    "apply_prehints",
    "fix_senses",
]

Span = tuple[int, int]


@dataclass(frozen=True)
class Hint:
    """One advised sense: base-form word, token span, type, confidence."""

    word: str
    span: Span
    onto_type: str
    score: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.score <= 1.0:
            raise ValueError("hint score must be in [0, 1]")
        if self.span[0] >= self.span[1]:
            raise ValueError("hint span must be non-empty")


class AdviceMap:
    """All hints for one sentence, indexed by word, plus the blend weight."""

    def __init__(self, hints: Sequence[Hint] = (), alpha: float = 0.5) -> None:
        if not 0.0 <= alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        self.hints = tuple(hints)
        self.alpha = alpha
        self._by_word: dict[str, list[Hint]] = {}
        for hint in self.hints:
            self._by_word.setdefault(hint.word, []).append(hint)

    def __len__(self) -> int:
        return len(self.hints)

    def for_word(self, word: str) -> list[Hint]:
        return self._by_word.get(word, [])

    def best_match(
        self, word: str, span: Span, onto_type: str, ontology: Ontology
    ) -> Hint | None:
        """The matching hint with the highest score; ties by type name."""
        matched = [
            h for h in self.for_word(word) if match(h, word, span, onto_type, ontology)
        ]
        if not matched:
            return None
        return min(matched, key=lambda h: (-h.score, h.onto_type))


def _spans_intersect(a: Span, b: Span) -> bool:
    return max(a[0], b[0]) < min(a[1], b[1])


def match(
    hint: Hint, word: str, span: Span, onto_type: str, ontology: Ontology
) -> bool:
    """A hint matches a constituent query when the words agree, the spans
    intersect, and the hinted type is an ancestor-or-self of the
    constituent's type (ancestry is reflexive, so an exact-type hint
    matches)."""
    return (
        hint.word == word
        and _spans_intersect(hint.span, span)
        and hint.onto_type in ontology
        and onto_type in ontology
        and ontology.is_a(onto_type, hint.onto_type)
    )


def augment(s_c: float, s: float, alpha: float) -> float:
    """Blend a constituent score with a hint score.

    Returns ``alpha * (s_c * s) + (1 - alpha)``, which always lands in
    ``[1 - alpha, 1]`` and is monotone in both scores.
    """
    for name, value in (("s_c", s_c), ("s", s), ("alpha", alpha)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {value}")
    return alpha * (s_c * s) + (1.0 - alpha)


def progressive_score(
    constituent: Constituent,
    advice: AdviceMap,
    ontology: Ontology,
    child_scores: Sequence[float] = (),
) -> float:
    """Effective score of a constituent under progressive hinting.

    The root component is the augment of the constituent's own score with
    the best matching hint (or the own score unchanged when nothing
    matches); the result is the mean of the root component and the
    daughters' effective scores.
    """
    hint = advice.best_match(
        constituent.word, constituent.span, constituent.onto_type, ontology
    )
    if hint is None:
        root = constituent.own_score
    else:
        root = augment(constituent.own_score, hint.score, advice.alpha)
    return recursive_score(root, child_scores)


def progressive_scorer(advice: AdviceMap, ontology: Ontology) -> Scorer:
    """Scoring hook for the parser that applies progressive hinting."""

    def scorer(constituent: Constituent, child_scores: Sequence[float]) -> float:
        return progressive_score(constituent, advice, ontology, child_scores)

    return scorer


# -- entry-list manipulation ---------------------------------------------------


def prehint(
    advice: AdviceMap,
    lexicon: Lexicon,
    ontology: Ontology,
    tokens: Sequence[Token],
    diagnostics: Diagnostics | None = None,
) -> dict[int, list[LexicalEntry]]:
    """Score-1 entries to inject for each advised sense, keyed by token.

    The template is chosen exactly as for generated entries.  A hint whose
    type is missing from the ontology or for which no template fits is
    skipped with a diagnostic; existing entries are never removed.
    """
    additions: dict[int, list[LexicalEntry]] = {}
    for hint in sorted(set(advice.hints), key=lambda h: (h.span, h.onto_type)):
        index = hint.span[0]
        if not 0 <= index < len(tokens):
            _skip(diagnostics, hint, "span outside sentence")
            continue
        if hint.onto_type not in ontology:
            _skip(diagnostics, hint, "type missing from ontology")
            continue
        template = lexicon.template_for_type(hint.onto_type, tokens[index].pos)
        if template is None:
            _skip(diagnostics, hint, "no compatible template")
            continue
        entry = LexicalEntry(
            word=hint.word,
            features={"pos": tokens[index].pos or template.category},
            template=template.name,
            onto_type=hint.onto_type,
            score=1.0,
            provenance="prehint",
        )
        bucket = additions.setdefault(index, [])
        if all(e.key() != entry.key() for e in bucket):
            bucket.append(entry)
    return additions


def _skip(diagnostics: Diagnostics | None, hint: Hint, reason: str) -> None:
    if diagnostics is not None:
        diagnostics.note("skipped-prehint", f"{hint.word} {hint.onto_type}: {reason}")


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
    ontology: Ontology,
    tokens: Sequence[Token],
    diagnostics: Diagnostics | None = None,
) -> list[list[LexicalEntry]]:
    """Force each advised token to its advised senses.

    Entries whose type is not among the token's advised types are dropped;
    when nothing survives, a score-1 entry is synthesized per advised type.
    If even synthesis fails (no template anywhere) the original entries are
    kept, with a diagnostic, so no token is ever left entry-less.
    """
    advised: dict[int, set[str]] = {}
    for hint in advice.hints:
        if hint.onto_type not in ontology:
            _skip(diagnostics, hint, "type missing from ontology")
            continue
        for index in range(max(hint.span[0], 0), min(hint.span[1], len(tokens))):
            advised.setdefault(index, set()).add(hint.onto_type)

    out: list[list[LexicalEntry]] = []
    for index, bucket in enumerate(entries):
        types = advised.get(index)
        if not types:
            out.append(list(bucket))
            continue
        kept = [e for e in bucket if e.onto_type in types]
        if not kept:
            for onto_type in sorted(types):
                template = lexicon.template_for_type(onto_type, tokens[index].pos)
                if template is None:
                    if diagnostics is not None:
                        diagnostics.note(
                            "forced-entry-failed",
                            f"{tokens[index].lemma} {onto_type}: no template",
                        )
                    continue
                kept.append(
                    LexicalEntry(
                        word=tokens[index].lemma,
                        features={"pos": tokens[index].pos or template.category},
                        template=template.name,
                        onto_type=onto_type,
                        score=1.0,
                        provenance="prehint",
                    )
                )
        if not kept:
            if diagnostics is not None:
                diagnostics.note(
                    "forcing-skipped", f"token {index} kept original entries"
                )
            kept = list(bucket)
        out.append(kept)
    return out
