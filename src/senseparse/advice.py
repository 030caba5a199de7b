"""Ingesting external sense advice and unifying divergent tokenizations.

The parser, the external disambiguator, and gold annotations may each
tokenize a sentence differently.  Rather than forcing one tokenization on
everything, each advice record (a character span and one word) is matched
onto one token of the sentence as read: first by intersecting character
spans with the word equal to the token's base form, then, among leftovers,
by the word equal to its surface.  Advice that cannot be matched onto a parser
token is dropped (and counted) instead of being attached to a guess; a
matched record becomes (word, token, type, score) hints on that one token.

Also hosts the corpus and advice file readers.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple, Sequence

from . import records
from .diagnostics import DISCARD, Diagnostics
from .errors import FormatError
from .hinting import AdviceMap, Hint
from .ontology import Ontology
from .parser import Span, Token
from .sensemap import SenseDistribution, SynsetGraph, best_types, transform_advice


def unify(
    parser_tokens: Sequence[Token], records: Sequence[SenseDistribution]
) -> dict[int, int]:
    """Match advice records onto parser tokens, one-to-one; returns record
    position -> parser token index.

    Pass 1 claims pairs whose character spans intersect and whose advised
    word equals the token's lemma exactly; pass 2 claims remaining pairs
    whose advised word equals the token's surface, greedily left-to-right
    by parser index.  Unmatched tokens and records are absent from the map.
    """
    matched: dict[int, int] = {}
    claimed: set[int] = set()
    for p in parser_tokens:
        for k, r in enumerate(records):
            if k in matched:
                continue
            if _spans_intersect((p.start, p.end), r.span) and p.lemma == r.word:
                matched[k] = p.index
                claimed.add(p.index)
                break
    for p in parser_tokens:
        if p.index in claimed:
            continue
        for k, r in enumerate(records):
            if k in matched:
                continue
            if p.surface == r.word:
                matched[k] = p.index
                break
    return matched


def _spans_intersect(a: Span, b: Span) -> bool:
    return max(a[0], b[0]) < min(a[1], b[1])


# -- corpus ---------------------------------------------------------------------


class SentenceRecord(NamedTuple):
    sentence_id: str
    tokens: tuple[Token, ...]


def parse_corpus(text: str, source: str = "<string>") -> list[SentenceRecord]:
    """Parse the corpus format: a ``sentence <id>`` header followed by
    ``tok <index> <char-start> <char-end> <surface> <lemma> <pos>
    [gold=<synset-id>]`` lines."""
    sentences: list[tuple[str, int, list[Token]]] = []
    current: list[Token] | None = None
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
            current.append(Token(index, start, end, tokens[4], tokens[5], tokens[6], gold))
        elif tokens[0] == "sentence":
            if len(tokens) != 2:
                raise FormatError("expected 'sentence <id>'", source, lineno)
            if tokens[1] in seen_ids:
                raise FormatError(f"repeated sentence id {tokens[1]}", source, lineno)
            seen_ids.add(tokens[1])
            current = []
            sentences.append((tokens[1], lineno, current))
        else:
            raise FormatError(f"unknown record '{tokens[0]}'", source, lineno)
    for sid, lineno, toks in sentences:
        if not toks:
            raise FormatError(f"sentence {sid} has no tok lines", source, lineno)
    return [SentenceRecord(sid, tuple(toks)) for sid, _, toks in sentences]


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
        for pair in records.split_list(tokens[5], source, lineno):
            synset, _, prob_text = pair.rpartition("=")
            if not synset:  # no '=' leaves the synset empty too
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
    parser_tokens: Sequence[Token],
    graph: SynsetGraph,
    ontology: Ontology,
    diagnostics: Diagnostics = DISCARD,
    sentence_id: str = "",
) -> tuple[AdviceMap, int]:
    """Turn raw advice for one sentence into an advice map of hints.

    Each record is matched onto one parser token through :func:`unify` and
    transformed to type scores; each of its best (tied) types becomes a
    hint on that token, under the token's lemma.  So hints are unique per
    (token, type), name types of ``ontology``, and score in [0, 1].
    Records whose token cannot be matched, and records none of whose
    synsets resolves to a type, yield no hint and are dropped; the second
    return value counts them.
    """
    wsd_to_parser = unify(parser_tokens, records)

    hints: list[Hint] = []
    dropped = 0
    for k, record in enumerate(records):
        parser_index = wsd_to_parser.get(k)
        best: set[tuple[str, float]] = set()
        if parser_index is not None:
            scored = transform_advice(record, graph, ontology.synset_mapping, diagnostics)
            best = best_types(scored)
        if not best:
            dropped += 1
            reason = "no token" if parser_index is None else "no type"
            diagnostics.note(
                "dropped-advice", f"{record.word} {record.span}: {reason}", sentence_id
            )
            continue
        for onto_type, score in sorted(best):
            hints.append(Hint(parser_tokens[parser_index].lemma, parser_index, onto_type, score))
    return AdviceMap(hints), dropped
