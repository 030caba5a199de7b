"""Batch evaluation: run parser variants over a corpus and score them.

Advice steers the parser in three independent ways: prehinting (a score-1
entry for each advised sense), progressive hinting (hints augment
constituent scores during the search) and forcing (advised tokens keep
only their advised senses).  The five variants are fixed presets over
those three flags, read from one table, ``_VARIANT_FLAGS``: ``plain`` sets
none and ignores the advice, ``pre`` prehints, ``prog`` is progressive,
``comb`` does both, and ``fixed`` forces.

Preparing a sentence (base candidate entries, and the advice map with its
dropped count) depends on no variant setting, so
``run_experiment`` prepares each corpus position once and every variant
parses from that preparation through ``run_variant``, the one parse path;
the blend weight only enters through the progressive scorer.  The shared
entry lists are tuples; prehinting and forcing build new lists from them,
so no variant changes what the next one sees.  The diagnostics noted while
preparing are buffered and replayed into each variant's log where
building them would have noted them, so the log reads as if every variant
had prepared the sentence itself.  Before the first parse, every gold and
advice synset is checked against the synset graph.

Gold annotations are synset-level.  No variant setting enters them, so
``run_experiment`` maps each gold synset to an ontology type through
subsumption once per run, and factorizes the ontology once for the
semantic-factor scores.  Instances whose gold synset reaches no type are
excluded from scoring and noted.  The gold notes are buffered and replayed
after each variant's parse notes, where scoring that variant would have
noted them.  Predictions carrying the fallback type count as abstentions:
they hurt recall, not precision, and the similarity means are taken over
attempted instances only.
"""

from __future__ import annotations

import os
from typing import Mapping, NamedTuple, Sequence

from .advice import SentenceRecord, build_advice_map
from .diagnostics import DISCARD, Diagnostics
from .errors import SenseParseError
from .hinting import AdviceMap, apply_prehints, fix_senses, prehint, progressive_scorer
from .lexicon import LexicalEntry, Lexicon, load_lexicon
from .ontology import FactorizedOntology, Ontology, factorize, load_ontology
from .parser import (
    FALLBACK_TYPE, ChartParser, Grammar, ParseResult, ParserConfig, load_grammar
)
from .sensemap import SenseDistribution, SynsetGraph, load_synsets

# variant -> (prehint, progressive, force)
_VARIANT_FLAGS = {
    "plain": (False, False, False),
    "pre": (True, False, False),
    "prog": (False, True, False),
    "comb": (True, True, False),
    "fixed": (False, False, True),
}
VARIANT_NAMES = tuple(_VARIANT_FLAGS)

REPORT_HEADER = (
    "variant\tf_score\twu_palmer\tsemfac\tfrag\tattempted\tscored\tdropped_advice"
)


class _VariantSettings(NamedTuple):
    variant: str
    alpha: float = 0.5
    parser: ParserConfig = ParserConfig()


class VariantConfig(_VariantSettings):
    __slots__ = ()

    def __new__(cls, *args: object, **kwargs: object) -> VariantConfig:
        self = super().__new__(cls, *args, **kwargs)
        if self.variant not in VARIANT_NAMES:
            raise ValueError(f"unknown variant {self.variant}")
        if not isinstance(self.alpha, (int, float)):
            raise ValueError("alpha must be a number")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        return self


class VariantRow(NamedTuple):
    variant: str
    f_score: float
    wu_palmer: float
    semfac: float
    frag: int
    attempted: int
    scored: int
    dropped_advice: int

    def tsv(self) -> str:
        return (
            f"{self.variant}\t{self.f_score:.4f}\t{self.wu_palmer:.4f}\t"
            f"{self.semfac:.4f}\t{self.frag}\t{self.attempted}\t{self.scored}\t"
            f"{self.dropped_advice}"
        )


class ScoreReport(NamedTuple):
    rows: tuple[VariantRow, ...]

    def to_tsv(self) -> str:
        return "\n".join([REPORT_HEADER, *(row.tsv() for row in self.rows)]) + "\n"


class Resources(NamedTuple):
    ontology: Ontology
    graph: SynsetGraph
    lexicon: Lexicon
    grammar: Grammar


def load_resources(
    ontology_path: str | os.PathLike[str],
    synsets_path: str | os.PathLike[str],
    lexicon_path: str | os.PathLike[str],
    grammar_path: str | os.PathLike[str],
) -> Resources:
    ontology = load_ontology(ontology_path)
    return Resources(
        ontology=ontology,
        graph=load_synsets(synsets_path),
        lexicon=load_lexicon(lexicon_path, ontology),
        grammar=load_grammar(grammar_path),
    )


# -- gold handling ---------------------------------------------------------------


class GoldInstance(NamedTuple):
    sentence_id: str
    token_index: int
    onto_type: str


def gold_instances(
    corpus: Sequence[SentenceRecord],
    graph: SynsetGraph,
    ontology: Ontology,
    diagnostics: Diagnostics,
) -> list[GoldInstance]:
    """Each gold token of ``corpus`` with the type its synset subsumes to.

    A token whose gold synset maps to no type is left out and noted.
    """
    out = []
    for sentence in corpus:
        for index, token in enumerate(sentence.tokens):
            if token.gold is None:
                continue
            onto_type = graph.assign_type(token.gold, ontology.synset_mapping, diagnostics)
            if onto_type is None:
                diagnostics.note("unmapped-gold", token.gold)
                continue
            out.append(GoldInstance(sentence.sentence_id, index, onto_type))
    return out


# -- scoring -----------------------------------------------------------------------


def score_run(
    results: Mapping[str, ParseResult],
    instances: Sequence[GoldInstance],
    ontology: Ontology,
    factorized: FactorizedOntology,
) -> dict[str, float | int]:
    """Exact/similarity agreement metrics for one variant's parse results.

    Every instance's token must have a logical-form node in its sentence's
    parse; that node's type is the prediction.  A prediction of
    the parser's ``FALLBACK_TYPE`` is an abstention: it is not attempted, so
    it cannot be wrong for precision, but the instance still counts toward
    recall.  Wu-Palmer and factor-similarity means are over attempted
    instances.  ``frag`` counts non-spanning sentences in the whole run.
    """
    attempted: list[tuple[str, str]] = []  # (predicted, gold) type pairs
    for instance in instances:
        result = results.get(instance.sentence_id)
        if result is None:
            raise SenseParseError(f"no parse result for sentence {instance.sentence_id}")
        nodes = result.logical_form.nodes
        if not 0 <= instance.token_index < len(nodes):
            raise SenseParseError(
                f"no logical-form node covers token {instance.token_index} "
                f"of {instance.sentence_id}"
            )
        predicted = nodes[instance.token_index].onto_type
        if predicted != FALLBACK_TYPE:
            attempted.append((predicted, instance.onto_type))
    correct = sum(1 for predicted, gold in attempted if predicted == gold)

    precision = correct / len(attempted) if attempted else 0.0
    recall = correct / len(instances) if instances else 0.0
    if precision + recall > 0:
        f_score = 2 * precision * recall / (precision + recall)
    else:
        f_score = 0.0

    if attempted:
        wu = sum(ontology.wu_palmer(p, g) for p, g in attempted) / len(attempted)
        semfac = sum(factorized.similarity(p, g) for p, g in attempted) / len(attempted)
    else:
        wu = 0.0
        semfac = 0.0

    frag = sum(1 for r in results.values() if not r.spanning)
    return {
        "f_score": f_score,
        "wu_palmer": wu,
        "semfac": semfac,
        "frag": frag,
        "attempted": len(attempted),
        "scored": len(instances),
    }


# -- running variants ----------------------------------------------------------------


def check_synsets(
    graph: SynsetGraph,
    corpus: Sequence[SentenceRecord],
    advice_by_sentence: Mapping[str, Sequence[SenseDistribution]],
    corpus_source: str = "",
    advice_source: str = "",
) -> None:
    """Fail on the first gold synset of ``corpus``, then the first advice
    synset, that the graph lacks, naming the sentence (and the file, when
    a source is given, with the token's or record's line when it has one).
    Called before any parse, so a run never stops half-way."""
    uses = [
        (corpus_source, t.line, s.sentence_id, t.gold)
        for s in corpus for t in s.tokens if t.gold is not None
    ]
    uses += [
        (advice_source, d.line, sid, synset)
        for sid, dists in advice_by_sentence.items() for d in dists for synset in d.weights
    ]
    for source, line, sentence_id, synset in uses:
        if synset not in graph:
            where = source if line is None else f"{source}:{line}"
            prefix = f"{where}: " if source else ""
            raise SenseParseError(f"{prefix}sentence {sentence_id}: unknown synset {synset}")


class PreparedSentence(NamedTuple):
    """The work on one sentence that every variant shares.

    ``entries`` are tuples, so no variant can change them for the next.
    ``entry_notes`` and ``advice_notes`` hold, in order, the diagnostics
    noted while building the entries and the advice map.
    """

    sentence: SentenceRecord
    entries: tuple[tuple[LexicalEntry, ...], ...]
    advice_map: AdviceMap
    dropped: int
    entry_notes: Diagnostics
    advice_notes: Diagnostics


def prepare_sentence(
    resources: Resources,
    sentence: SentenceRecord,
    advice_records: Sequence[SenseDistribution],
) -> PreparedSentence:
    """Base entries and advice map of one sentence, with their diagnostics
    buffered for replay."""
    entry_notes, advice_notes = Diagnostics(), Diagnostics()
    entries = tuple(
        tuple(
            resources.lexicon.candidate_entries(t.lemma, t.pos, resources.graph, entry_notes)
        )
        for t in sentence.tokens
    )
    advice_map, dropped = build_advice_map(
        advice_records, sentence.tokens, resources.graph, resources.ontology,
        advice_notes, sentence.sentence_id,
    )
    return PreparedSentence(sentence, entries, advice_map, dropped, entry_notes, advice_notes)


def parse_sentence_with_variant(
    resources: Resources,
    sentence: SentenceRecord,
    advice_records: Sequence[SenseDistribution],
    config: VariantConfig,
    diagnostics: Diagnostics = DISCARD,
) -> tuple[ParseResult, int]:
    """Parse one sentence under a variant; returns (result, dropped advice)."""
    results, dropped = run_variant(
        resources, [sentence], {sentence.sentence_id: advice_records}, config, diagnostics
    )
    return results[sentence.sentence_id], dropped


def run_variant(
    resources: Resources,
    corpus: Sequence[SentenceRecord],
    advice_by_sentence: Mapping[str, Sequence[SenseDistribution]],
    config: VariantConfig,
    diagnostics: Diagnostics = DISCARD,
    prepared: Sequence[PreparedSentence] | None = None,
) -> tuple[dict[str, ParseResult], int]:
    """Parse the corpus under one variant; returns the results by sentence
    id and the dropped advice count.

    ``prepared`` holds one preparation per corpus position; without it
    every sentence is prepared here, with no advice for a variant that uses
    none.  Each preparation's notes are replayed before its parse, where
    preparing the sentence for this variant alone would have noted them.
    """
    prehinting, progressive, forcing = _VARIANT_FLAGS[config.variant]
    uses_advice = prehinting or progressive or forcing
    if prepared is None:
        prepared = [
            prepare_sentence(
                resources, s, advice_by_sentence.get(s.sentence_id, ()) if uses_advice else ()
            )
            for s in corpus
        ]
    parser = ChartParser(
        resources.grammar, resources.ontology, resources.lexicon.templates, config.parser
    )
    results: dict[str, ParseResult] = {}
    dropped = 0
    for sentence in prepared:
        diagnostics.replay(sentence.entry_notes)
        if uses_advice:
            diagnostics.replay(sentence.advice_notes)
        tokens = sentence.sentence.tokens
        entries: Sequence[Sequence[LexicalEntry]] = sentence.entries
        advice_map = sentence.advice_map
        if prehinting:
            additions = prehint(advice_map, resources.lexicon, tokens, diagnostics)
            entries = apply_prehints(entries, additions)
        if forcing:
            entries = fix_senses(advice_map, entries, resources.lexicon, tokens, diagnostics)
        scorer = None
        if progressive:
            scorer = progressive_scorer(advice_map, resources.ontology, config.alpha)
        sentence_id = sentence.sentence.sentence_id
        results[sentence_id] = parser.parse(
            tokens, entries, sentence_id=sentence_id, scorer=scorer, diagnostics=diagnostics
        )
        if uses_advice:
            dropped += sentence.dropped
    return results, dropped


def run_experiment(
    resources: Resources,
    corpus: Sequence[SentenceRecord],
    advice_by_sentence: Mapping[str, Sequence[SenseDistribution]],
    variants: Sequence[VariantConfig],
    diagnostics: Diagnostics = DISCARD,
    corpus_source: str = "",
    advice_source: str = "",
) -> ScoreReport:
    """Run every variant over the corpus and assemble the metrics table.

    Raises :class:`SenseParseError` before any parse if a gold or advice
    synset is missing from the synset graph; the message names the
    corpus or advice file when its source is given.
    """
    check_synsets(resources.graph, corpus, advice_by_sentence, corpus_source, advice_source)
    gold_notes = Diagnostics()
    instances = gold_instances(corpus, resources.graph, resources.ontology, gold_notes)
    factorized = factorize(resources.ontology)
    prepared = [
        prepare_sentence(resources, s, advice_by_sentence.get(s.sentence_id, ()))
        for s in corpus
    ]
    rows = []
    for config in variants:
        results, dropped = run_variant(
            resources, corpus, advice_by_sentence, config, diagnostics, prepared
        )
        diagnostics.replay(gold_notes)
        metrics = score_run(results, instances, resources.ontology, factorized)
        rows.append(VariantRow(config.variant, **metrics, dropped_advice=dropped))
    return ScoreReport(tuple(rows))
