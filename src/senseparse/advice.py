"""Ingesting external sense advice and unifying divergent tokenizations.

The parser, the external disambiguator, and gold annotations may each
tokenize a sentence differently.  Rather than forcing one tokenization on
everything, tokens are matched pairwise: first by intersecting character
spans with exactly equal base forms, then, among leftovers, by identical
surface words.  Advice that cannot be matched onto a parser token is
dropped (and counted) instead of being attached to a guess.

Also hosts the corpus and advice file readers.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from . import records
from .diagnostics import Diagnostics
from .errors import FormatError
from .hinting import AdviceMap, Hint, _spans_intersect
from .ontology import Ontology
from .sensemap import SenseDistribution, SynsetGraph, best_types, transform_advice

__all__ = [
    "TokenRecord",
    "UnifiedToken",
    "CorpusToken",
    "SentenceRecord",
    "unify",
    "build_advice_map",
    "load_corpus",
    "parse_corpus",
    "load_advice",
    "parse_advice",
]


@dataclass(frozen=True)
class TokenRecord:
    """One token in one system's tokenization of a sentence."""

    source: str  # parser | wsd | gold
    index: int
    span: tuple[int, int]  # character interval in the raw sentence
    surface: str
    lemma: str


@dataclass(frozen=True)
class UnifiedToken:
    parser_index: int
    wsd_index: int | None = None


def unify(
    parser_tokens: Sequence[TokenRecord], wsd_tokens: Sequence[TokenRecord]
) -> list[UnifiedToken]:
    """Match the disambiguator's tokens onto parser tokens, one-to-one.

    Pass 1 claims pairs whose character spans intersect and whose lemmas
    are exactly equal; pass 2 claims remaining pairs with identical
    surface words, greedily left-to-right by parser index.  Unmatched
    tokens on either side stay unmatched.
    """
    for t in wsd_tokens:
        if t.source != "wsd":
            raise ValueError(f"cannot unify source '{t.source}'")

    matched: dict[int, int] = {}
    taken: set[int] = set()
    for p in parser_tokens:
        for o in wsd_tokens:
            if o.index in taken:
                continue
            if _spans_intersect(p.span, o.span) and p.lemma == o.lemma:
                matched[p.index] = o.index
                taken.add(o.index)
                break
    for p in parser_tokens:
        if p.index in matched:
            continue
        for o in wsd_tokens:
            if o.index in taken:
                continue
            if p.surface == o.surface:
                matched[p.index] = o.index
                taken.add(o.index)
                break

    return [UnifiedToken(p.index, matched.get(p.index)) for p in parser_tokens]


# -- corpus ---------------------------------------------------------------------


@dataclass(frozen=True)
class CorpusToken:
    index: int
    start: int
    end: int
    surface: str
    lemma: str
    pos: str
    gold: str | None = None


@dataclass(frozen=True)
class SentenceRecord:
    sentence_id: str
    tokens: tuple[CorpusToken, ...]


def parse_corpus(text: str, source: str = "<string>") -> list[SentenceRecord]:
    """Parse the corpus format: a ``sentence <id>`` header followed by
    ``tok <index> <char-start> <char-end> <surface> <lemma> <pos>
    [gold=<synset-id>]`` lines."""
    sentences: list[tuple[str, list[CorpusToken]]] = []
    current: list[CorpusToken] | None = None
    seen_ids: set[str] = set()
    for lineno, tokens in records.lines(text):
        if tokens[0] == "tok":
            if current is None:
                raise FormatError("tok line before any sentence header", source, lineno)
            if len(tokens) not in (7, 8):
                raise FormatError("expected 'tok <i> <start> <end> <surface> <lemma> <pos> [gold=...]'", source, lineno)
            index = len(current)
            if tokens[1] != str(index):
                raise FormatError(f"token index '{tokens[1]}' out of order (expected {index})", source, lineno)
            start, end = records.span(tokens[2], tokens[3], source, lineno)
            gold = None
            if len(tokens) == 8:
                if not tokens[7].startswith("gold="):
                    raise FormatError(f"unknown trailing field '{tokens[7]}'", source, lineno)
                gold = tokens[7][len("gold="):]
                if not gold:
                    raise FormatError("empty gold synset", source, lineno)
            current.append(CorpusToken(index, start, end, tokens[4], tokens[5], tokens[6], gold))
        elif tokens[0] == "sentence":
            if len(tokens) != 2:
                raise FormatError("expected 'sentence <id>'", source, lineno)
            if tokens[1] in seen_ids:
                raise FormatError(f"repeated sentence id {tokens[1]}", source, lineno)
            seen_ids.add(tokens[1])
            current = []
            sentences.append((tokens[1], current))
        else:
            raise FormatError(f"unknown record '{tokens[0]}'", source, lineno)
    return [SentenceRecord(sid, tuple(toks)) for sid, toks in sentences]


def load_corpus(path: str | Path) -> list[SentenceRecord]:
    return records.load(parse_corpus, path)


# -- advice file ------------------------------------------------------------------


def parse_advice(text: str, source: str = "<string>") -> dict[str, list[SenseDistribution]]:
    """Parse advice lines into per-sentence sense distributions::

        advice <sentence-id> <char-start> <char-end> <word> <synset>=<prob>[,...]

    The character span anchors the advised word in the raw sentence, which
    is how the advising system's tokenization is communicated.
    """
    out: dict[str, list[SenseDistribution]] = {}
    for lineno, tokens in records.lines(text):
        if tokens[0] != "advice" or len(tokens) != 6:
            raise FormatError(
                "expected 'advice <sid> <start> <end> <word> <synset>=<prob>,...'",
                source,
                lineno,
            )
        sid, word = tokens[1], tokens[4]
        span = records.span(tokens[2], tokens[3], source, lineno)
        weights: dict[str, float] = {}
        for pair in records.split_list(tokens[5]):
            synset, eq, prob_text = pair.rpartition("=")
            if not eq:
                raise FormatError(f"bad weight '{pair}'", source, lineno)
            if synset in weights:
                raise FormatError(f"repeated synset {synset}", source, lineno)
            weights[synset] = records.finite(prob_text, "probability", source, lineno)
        if not weights:
            raise FormatError(f"no weights for '{word}'", source, lineno)
        try:
            dist = SenseDistribution(word, span, weights)
        except ValueError as exc:
            raise FormatError(str(exc), source, lineno)
        out.setdefault(sid, []).append(dist)
    return out


def load_advice(path: str | Path) -> dict[str, list[SenseDistribution]]:
    return records.load(parse_advice, path)


# -- pipeline ---------------------------------------------------------------------


def build_advice_map(
    records: Sequence[SenseDistribution],
    parser_tokens: Sequence[CorpusToken],
    graph: SynsetGraph,
    ontology: Ontology,
    alpha: float = 0.5,
    diagnostics: Diagnostics | None = None,
) -> tuple[AdviceMap, int]:
    """Turn raw advice for one sentence into an advice map of hints.

    Each record is transformed to type advice, its best (tied) types kept,
    and its span re-anchored onto the parser tokenization through
    :func:`unify`.  Records whose token cannot be matched are dropped;
    the second return value counts them.
    """
    parser_records = [
        TokenRecord("parser", t.index, (t.start, t.end), t.surface, t.lemma)
        for t in parser_tokens
    ]
    wsd_records = [
        TokenRecord("wsd", k, r.span, r.word, r.word) for k, r in enumerate(records)
    ]
    unified = unify(parser_records, wsd_records)
    wsd_to_parser = {
        u.wsd_index: u.parser_index for u in unified if u.wsd_index is not None
    }

    hints: list[Hint] = []
    dropped = 0
    for k, record in enumerate(records):
        parser_index = wsd_to_parser.get(k)
        if parser_index is None:
            dropped += 1
            if diagnostics is not None:
                diagnostics.note("dropped-advice", f"{record.word} {record.span}")
            continue
        advice = transform_advice(record, graph, ontology.synset_mapping, diagnostics)
        for onto_type, score in sorted(best_types(advice)):
            hints.append(
                Hint(
                    word=parser_tokens[parser_index].lemma,
                    span=(parser_index, parser_index + 1),
                    onto_type=onto_type,
                    score=score,
                )
            )
    return AdviceMap(hints, alpha), dropped
