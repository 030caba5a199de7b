"""Lexical sense graph and its subsumption mapping into the type hierarchy.

Synsets form a multiple-inheritance acyclic hypernym graph.  A sparse
hand-mapping (carried by the ontology) assigns some synsets to ontology
types; every other synset inherits a type by *subsumption*: walk upward
through hypernyms and take the first mapped synset reached, provided no
earlier synset on the walk is mapped.  Sense distributions from an
external disambiguator are converted to type advice by pushing each
synset's probability mass onto its subsumed type.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from . import records
from .diagnostics import Diagnostics
from .errors import FormatError, StructuralError, UnknownName

__all__ = [
    "Synset",
    "SynsetGraph",
    "SenseDistribution",
    "TypeAdvice",
    "load_synsets",
    "parse_synsets",
    "transform_advice",
    "best_types",
]

_WEIGHT_SLACK = 1e-9


@dataclass(frozen=True)
class Synset:
    id: str
    lemmas: frozenset[str] = frozenset()
    hypernyms: frozenset[str] = frozenset()


class SynsetGraph:
    """A validated, immutable hypernym graph."""

    def __init__(self, synsets: Iterable[Synset]) -> None:
        self._synsets: dict[str, Synset] = {}
        for s in synsets:
            if s.id in self._synsets:
                raise StructuralError(f"duplicate synset {s.id}")
            self._synsets[s.id] = s

        for s in self._synsets.values():
            for h in s.hypernyms:
                if h not in self._synsets:
                    raise StructuralError(f"synset {s.id} names missing hypernym {h}")

        self._check_acyclic()

        self._by_lemma: dict[str, list[str]] = {}
        for sid in sorted(self._synsets):
            for lemma in self._synsets[sid].lemmas:
                self._by_lemma.setdefault(lemma, []).append(sid)

    def _check_acyclic(self) -> None:
        WHITE, GREY, BLACK = 0, 1, 2
        color = {sid: WHITE for sid in self._synsets}
        for start in self._synsets:
            if color[start] != WHITE:
                continue
            stack: list[tuple[str, Iterator[str]]] = [
                (start, iter(sorted(self._synsets[start].hypernyms)))
            ]
            color[start] = GREY
            while stack:
                node, it = stack[-1]
                for nxt in it:
                    if color[nxt] == GREY:
                        raise StructuralError(f"hypernym cycle involving {nxt}")
                    if color[nxt] == WHITE:
                        color[nxt] = GREY
                        stack.append((nxt, iter(sorted(self._synsets[nxt].hypernyms))))
                        break
                else:
                    color[node] = BLACK
                    stack.pop()

    def __contains__(self, synset_id: str) -> bool:
        return synset_id in self._synsets

    def __iter__(self) -> Iterator[str]:
        return iter(self._synsets)

    def __len__(self) -> int:
        return len(self._synsets)

    def get(self, synset_id: str) -> Synset:
        self._check(synset_id)
        return self._synsets[synset_id]

    def _check(self, synset_id: str) -> None:
        if synset_id not in self._synsets:
            raise UnknownName(f"unknown synset {synset_id}")

    def synsets_for_lemma(self, word: str) -> list[Synset]:
        """All synsets whose lemma set contains ``word``, sorted by id."""
        return [self._synsets[sid] for sid in self._by_lemma.get(word, [])]

    def assign_type(
        self,
        synset_id: str,
        mapping: Mapping[str, str],
        diagnostics: Diagnostics | None = None,
    ) -> str | None:
        """Resolve a synset to an ontology type by subsumption.

        Searches hypernym paths breadth-first; the first level containing a
        mapped synset wins, so the nearest mapping blocks anything above it.
        When distinct mapped synsets at that level disagree, the
        lexicographically least type is returned and the ambiguity is noted.
        """
        self._check(synset_id)
        frontier = [synset_id]
        visited = {synset_id}
        while frontier:
            hits = sorted({mapping[s] for s in frontier if s in mapping})
            if hits:
                if len(hits) > 1 and diagnostics is not None:
                    diagnostics.note(
                        "ambiguous-subsumption",
                        f"{synset_id} candidates {','.join(hits)}",
                    )
                return hits[0]
            nxt: list[str] = []
            for s in sorted(frontier):
                for h in sorted(self._synsets[s].hypernyms):
                    if h not in visited:
                        visited.add(h)
                        nxt.append(h)
            frontier = nxt
        return None


@dataclass(frozen=True)
class SenseDistribution:
    """External disambiguator output for one advised word occurrence.

    ``span`` anchors the word in the advisor's own view of the sentence;
    ``weights`` maps synset ids to probabilities (possibly truncated, so
    they may sum to less than one).
    """

    word: str
    span: tuple[int, int]
    weights: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        total = 0.0
        for sid, w in self.weights.items():
            if w < 0:
                raise ValueError(f"negative weight for {sid}")
            total += w
        if total > 1.0 + _WEIGHT_SLACK:
            raise ValueError(f"weights for {self.word} sum to {total} > 1")


@dataclass(frozen=True)
class TypeAdvice:
    """A sense distribution re-expressed over ontology types."""

    word: str
    span: tuple[int, int]
    scored_types: Mapping[str, float] = field(default_factory=dict)


def transform_advice(
    dist: SenseDistribution,
    graph: SynsetGraph,
    mapping: Mapping[str, str],
    diagnostics: Diagnostics | None = None,
) -> TypeAdvice:
    """Push each synset's probability onto its subsumed ontology type.

    Synsets that resolve to no type contribute nothing, so the total score
    can be less than the total input mass.
    """
    totals: dict[str, float] = {}
    for sid in sorted(dist.weights):
        onto_type = graph.assign_type(sid, mapping, diagnostics)
        if onto_type is None:
            continue
        totals[onto_type] = totals.get(onto_type, 0.0) + dist.weights[sid]
    scored = {t: totals[t] for t in sorted(totals)}
    return TypeAdvice(dist.word, dist.span, scored)


def best_types(advice: TypeAdvice) -> set[tuple[str, float]]:
    """All (type, score) entries tied for the maximum score; empty if none."""
    if not advice.scored_types:
        return set()
    top = max(advice.scored_types.values())
    return {(t, s) for t, s in advice.scored_types.items() if s == top}


# -- file format --------------------------------------------------------------


def parse_synsets(text: str, source: str = "<string>") -> SynsetGraph:
    """Parse the synset file format, one record per line::

        synset <id> lemmas w1,w2 hypernyms h1,h2|-
    """
    synsets: list[Synset] = []
    for lineno, tokens in records.lines(text):
        if tokens[0] != "synset" or len(tokens) < 2:
            raise FormatError(f"expected 'synset <id> ...', got '{tokens[0]}'", source, lineno)
        sid = tokens[1]
        sections = records.fields(tokens, 2, ("lemmas", "hypernyms"), source, lineno)
        lemmas = records.split_list(sections.get("lemmas", "-"))
        hypernyms = records.split_list(sections.get("hypernyms", "-"))
        synsets.append(Synset(sid, frozenset(lemmas), frozenset(hypernyms)))
    try:
        return SynsetGraph(synsets)
    except StructuralError as exc:
        raise StructuralError(f"{source}: {exc}") from exc


def load_synsets(path: str | Path) -> SynsetGraph:
    return records.load(parse_synsets, path)
