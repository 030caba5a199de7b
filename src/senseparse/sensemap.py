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

import os
from typing import Iterable, Iterator, Mapping, NamedTuple

from . import records
from .diagnostics import DISCARD, Diagnostics
from .errors import FormatError, Names, StructuralError


class Synset(NamedTuple):
    id: str
    lemmas: frozenset[str] = frozenset()
    hypernyms: frozenset[str] = frozenset()


class SynsetGraph:
    """A validated, immutable hypernym graph; ``synsets`` is its
    :class:`~senseparse.errors.Names` table of synsets by id.  A duplicate
    id, a missing hypernym or a hypernym cycle is rejected with the position
    of the synset at fault."""

    def __init__(self, synsets: Iterable[Synset]) -> None:
        # checked and indexed as a plain dict (CPython specialises subscripts
        # and stores on an exact dict only), then handed to ``Names`` once
        table: dict[str, Synset] = {}
        for index, s in enumerate(synsets):
            if s.id in table:
                raise StructuralError(f"duplicate synset {s.id}", index)
            table[s.id] = s

        for index, s in enumerate(table.values()):
            for h in s.hypernyms:
                if h not in table:
                    # the least one, so the message does not follow set order
                    missing = min(s.hypernyms - table.keys())
                    raise StructuralError(f"synset {s.id} names missing hypernym {missing}", index)

        self._check_acyclic(table)

        self._by_lemma: dict[str, list[str]] = {}
        for sid in sorted(table):
            for lemma in table[sid].lemmas:
                self._by_lemma.setdefault(lemma, []).append(sid)
        self.synsets: Names[Synset] = Names("synset")
        self.synsets.update(table)

    @staticmethod
    def _check_acyclic(synsets: dict[str, Synset]) -> None:
        WHITE, GREY, BLACK = 0, 1, 2
        color = {sid: WHITE for sid in synsets}
        for start in synsets:
            if color[start] != WHITE:
                continue
            stack: list[tuple[str, Iterator[str]]] = [
                (start, iter(sorted(synsets[start].hypernyms)))
            ]
            color[start] = GREY
            while stack:
                node, it = stack[-1]
                for nxt in it:
                    if color[nxt] == GREY:
                        raise StructuralError(
                            f"hypernym cycle involving {nxt}", list(synsets).index(nxt)
                        )
                    if color[nxt] == WHITE:
                        color[nxt] = GREY
                        stack.append((nxt, iter(sorted(synsets[nxt].hypernyms))))
                        break
                else:
                    color[node] = BLACK
                    stack.pop()

    def __contains__(self, synset_id: str) -> bool:
        return synset_id in self.synsets

    def __iter__(self) -> Iterator[str]:
        return iter(self.synsets)

    def synsets_for_lemma(self, word: str) -> list[Synset]:
        """All synsets whose lemma set contains ``word``, sorted by id."""
        return [self.synsets[sid] for sid in self._by_lemma.get(word, [])]

    def assign_type(
        self,
        synset_id: str,
        mapping: Mapping[str, str],
        diagnostics: Diagnostics = DISCARD,
    ) -> str | None:
        """Resolve a synset to an ontology type by subsumption.

        Searches hypernym paths breadth-first; the first level containing a
        mapped synset wins, so the nearest mapping blocks anything above it.
        When distinct mapped synsets at that level disagree, the
        lexicographically least type is returned and the ambiguity is noted.
        """
        self.synsets[synset_id]  # an unknown id raises UnknownName
        # a level is a set: its sorted hits are all that is read of it
        frontier = {synset_id}
        visited = {synset_id}
        while frontier:
            hits = sorted({mapping[s] for s in frontier if s in mapping})
            if hits:
                if len(hits) > 1:
                    diagnostics.note(
                        "ambiguous-subsumption",
                        f"{synset_id} candidates {','.join(hits)}",
                    )
                return hits[0]
            frontier = {h for s in frontier for h in self.synsets[s].hypernyms} - visited
            visited |= frontier
        return None


class SenseDistribution(NamedTuple):
    """External disambiguator output for one advised word occurrence.

    ``span`` anchors the word in the advisor's own view of the sentence;
    ``weights`` maps synset ids to probabilities (possibly truncated, so
    they may sum to less than one); the advice reader checks them.
    ``line`` is the record's line in the advice file it was read from, for
    errors that other files find (None when built in code).
    """

    word: str
    span: tuple[int, int]
    weights: Mapping[str, float]
    line: int | None = None


def transform_advice(
    dist: SenseDistribution,
    graph: SynsetGraph,
    mapping: Mapping[str, str],
    diagnostics: Diagnostics = DISCARD,
) -> dict[str, float]:
    """Push each synset's probability onto its subsumed ontology type,
    returning each reached type's score, in type order.

    Synsets that resolve to no type contribute nothing, so the total score
    can be less than the total input mass.  Each of them is noted, unless
    none of the record's synsets resolves: the caller drops and notes that
    record whole.  Each type's score is capped at 1, so rounding in a sum
    (or a reader's slack) never yields a score above 1.
    """
    totals: dict[str, float] = {}
    unmapped = []
    for sid in sorted(dist.weights):
        onto_type = graph.assign_type(sid, mapping, diagnostics)
        if onto_type is None:
            unmapped.append(sid)
            continue
        totals[onto_type] = totals.get(onto_type, 0.0) + dist.weights[sid]
    if totals:
        for sid in unmapped:
            diagnostics.note("unmapped-advice", f"{dist.word} {sid}")
    return {t: min(totals[t], 1.0) for t in sorted(totals)}


# -- file format --------------------------------------------------------------


def parse_synsets(text: str, source: str = "<string>") -> SynsetGraph:
    """Parse the synset file format, one record per line::

        synset <id> lemmas w1,w2 hypernyms h1,h2|-

    An error the graph rejects names the line of the synset at fault.
    """
    synsets: list[Synset] = []
    rows = records.lines(text)
    for lineno, tokens in rows:
        if tokens[0] != "synset" or len(tokens) < 2:
            raise FormatError(f"expected 'synset <id> ...', got '{tokens[0]}'", source, lineno)
        sid = tokens[1]
        sections = records.fields(tokens, 2, ("lemmas", "hypernyms"), source, lineno)
        lemmas = records.split_list(sections.get("lemmas", "-"), source, lineno)
        hypernyms = records.split_list(sections.get("hypernyms", "-"), source, lineno)
        synsets.append(Synset(sid, frozenset(lemmas), frozenset(hypernyms)))
    return records.build(SynsetGraph, source, synsets, lines=[lineno for lineno, _ in rows])


def load_synsets(path: str | os.PathLike[str]) -> SynsetGraph:
    return records.load(parse_synsets, path)
