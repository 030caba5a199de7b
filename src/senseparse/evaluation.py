"""Batch evaluation: run parser variants over a corpus and score them.

Advice steers the parser in three independent ways: prehinting (a score-1
entry for each advised sense), progressive hinting (hints augment
constituent scores during the search) and forcing (advised tokens keep
only their advised senses).  The five variants are fixed presets over
those three flags, read from one table, ``_VARIANT_FLAGS``: ``plain`` sets
none and ignores the advice, ``pre`` prehints, ``prog`` is progressive,
``comb`` does both, and ``fixed`` forces.

What does not depend on the variant is done once per sentence:
``run_experiment`` prepares each corpus position (tokens, base candidate
entries, and the advice map with its dropped count) once per distinct
entry count and blend weight, and every variant parses from that
preparation.  The shared entry lists are tuples; prehinting and forcing
build new lists from them, so no variant changes what the next one sees.
The diagnostics noted while preparing are buffered and replayed into
each variant's log where building them would have noted them, so the log
reads as if every variant had prepared the sentence itself.  Before the
first parse, every gold and advice synset is checked against the synset
graph.

Gold annotations are synset-level; they are mapped to ontology types
through subsumption, and instances whose gold synset reaches no type are
excluded from scoring but counted.  Predictions carrying the fallback
type count as abstentions: they hurt recall, not precision, and the
similarity means are taken over attempted instances only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from .advice import SentenceRecord, build_advice_map
from .diagnostics import Diagnostics
from .errors import SenseParseError
from .hinting import AdviceMap, apply_prehints, fix_senses, prehint, progressive_scorer
from .lexicon import LexicalEntry, Lexicon, load_lexicon
from .ontology import FactorizedOntology, Ontology, factorize, load_ontology
from .parser import ChartParser, Grammar, ParseResult, ParserConfig, Token, load_grammar
from .sensemap import SenseDistribution, SynsetGraph, load_synsets

__all__ = [
    "VARIANT_NAMES",
    "VariantConfig",
    "VariantRow",
    "ScoreReport",
    "Resources",
    "load_resources",
    "gold_instances",
    "GoldInstance",
    "InstanceOutcome",
    "instance_outcomes",
    "score_run",
    "check_synsets",
    "PreparedSentence",
    "prepare_sentence",
    "parse_sentence_with_variant",
    "run_variant",
    "run_experiment",
]

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


@dataclass(frozen=True)
class VariantConfig:
    variant: str
    alpha: float = 0.5
    parser: ParserConfig = field(default_factory=ParserConfig)

    def __post_init__(self) -> None:
        if self.variant not in VARIANT_NAMES:
            raise ValueError(f"unknown variant {self.variant}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")


@dataclass(frozen=True)
class VariantRow:
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


@dataclass(frozen=True)
class ScoreReport:
    rows: tuple[VariantRow, ...]

    def to_tsv(self) -> str:
        return "\n".join([REPORT_HEADER, *(row.tsv() for row in self.rows)]) + "\n"


@dataclass(frozen=True)
class Resources:
    ontology: Ontology
    factorized: FactorizedOntology
    graph: SynsetGraph
    lexicon: Lexicon
    grammar: Grammar


def load_resources(
    ontology_path: str | Path,
    synsets_path: str | Path,
    lexicon_path: str | Path,
    grammar_path: str | Path,
) -> Resources:
    ontology = load_ontology(ontology_path)
    return Resources(
        ontology=ontology,
        factorized=factorize(ontology),
        graph=load_synsets(synsets_path),
        lexicon=load_lexicon(lexicon_path, ontology),
        grammar=load_grammar(grammar_path),
    )


# -- gold handling ---------------------------------------------------------------


@dataclass(frozen=True)
class GoldInstance:
    sentence_id: str
    token_index: int
    synset: str


def gold_instances(corpus: Sequence[SentenceRecord]) -> list[GoldInstance]:
    out = []
    for sentence in corpus:
        for token in sentence.tokens:
            if token.gold is not None:
                out.append(GoldInstance(sentence.sentence_id, token.index, token.gold))
    return out


# -- scoring -----------------------------------------------------------------------


@dataclass(frozen=True)
class InstanceOutcome:
    instance: GoldInstance
    gold_type: str
    predicted: str


def instance_outcomes(
    results: Mapping[str, ParseResult],
    instances: Sequence[GoldInstance],
    graph: SynsetGraph,
    ontology: Ontology,
    diagnostics: Diagnostics | None = None,
) -> list[InstanceOutcome]:
    """Resolve each scorable gold instance to (gold type, predicted type).

    Instances whose gold synset maps to no type are excluded (and noted);
    every remaining instance must be covered by a logical-form node of its
    sentence's parse.
    """
    out = []
    for instance in instances:
        mapped = graph.assign_type(instance.synset, ontology.synset_mapping, diagnostics)
        if mapped is None:
            if diagnostics is not None:
                diagnostics.note("unmapped-gold", instance.synset)
            continue
        result = results.get(instance.sentence_id)
        if result is None:
            raise SenseParseError(f"no parse result for sentence {instance.sentence_id}")
        node = result.logical_form.node_at(instance.token_index)
        if node is None:
            raise SenseParseError(
                f"no logical-form node covers token {instance.token_index} "
                f"of {instance.sentence_id}"
            )
        out.append(InstanceOutcome(instance, mapped, node.onto_type))
    return out


def score_run(
    results: Mapping[str, ParseResult],
    instances: Sequence[GoldInstance],
    ontology: Ontology,
    factorized: FactorizedOntology,
    graph: SynsetGraph,
    fallback_type: str,
    diagnostics: Diagnostics | None = None,
) -> dict[str, float | int]:
    """Exact/similarity agreement metrics for one variant's parse results.

    A fallback-typed prediction is an abstention: it is not attempted, so
    it cannot be wrong for precision, but the instance still counts toward
    recall.  Wu-Palmer and factor-similarity means are over attempted
    instances.  ``frag`` counts non-spanning sentences in the whole run.
    """
    outcomes = instance_outcomes(results, instances, graph, ontology, diagnostics)
    attempted = [o for o in outcomes if o.predicted != fallback_type]
    correct = sum(1 for o in attempted if o.predicted == o.gold_type)

    precision = correct / len(attempted) if attempted else 0.0
    recall = correct / len(outcomes) if outcomes else 0.0
    if precision + recall > 0:
        f_score = 2 * precision * recall / (precision + recall)
    else:
        f_score = 0.0

    if attempted:
        wu = sum(ontology.wu_palmer(o.predicted, o.gold_type) for o in attempted) / len(
            attempted
        )
        semfac = sum(
            factorized.similarity(o.predicted, o.gold_type) for o in attempted
        ) / len(attempted)
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
        "scored": len(outcomes),
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
    a source is given).  Called before any parse, so a run never stops
    half-way."""
    uses = [
        (corpus_source, s.sentence_id, t.gold)
        for s in corpus for t in s.tokens if t.gold is not None
    ]
    uses += [
        (advice_source, sid, synset)
        for sid, dists in advice_by_sentence.items() for d in dists for synset in d.weights
    ]
    for source, sentence_id, synset in uses:
        if synset not in graph:
            prefix = f"{source}: " if source else ""
            raise SenseParseError(f"{prefix}sentence {sentence_id}: unknown synset {synset}")


@dataclass(frozen=True)
class PreparedSentence:
    """The work on one sentence that every variant shares.

    ``entries`` are tuples, so no variant can change them for the next.
    ``advice_map`` is empty and ``dropped`` 0 when prepared without advice.
    ``entry_notes`` and ``advice_notes`` hold, in order, the diagnostics
    noted while building the entries and the advice map, or are None when
    no diagnostics were asked for.
    """

    sentence: SentenceRecord
    tokens: tuple[Token, ...]
    entries: tuple[tuple[LexicalEntry, ...], ...]
    advice_map: AdviceMap
    dropped: int
    entry_notes: Diagnostics | None
    advice_notes: Diagnostics | None


def _uses_advice(config: VariantConfig) -> bool:
    return any(_VARIANT_FLAGS[config.variant])


def prepare_sentence(
    resources: Resources,
    sentence: SentenceRecord,
    advice_records: Sequence[SenseDistribution],
    config: VariantConfig,
    with_advice: bool,
    keep_notes: bool,
) -> PreparedSentence:
    """Tokens, base entries and, when ``with_advice``, the advice map of one
    sentence under ``config``'s entry count and blend weight; with
    ``keep_notes`` their diagnostics are buffered for replay."""
    entry_notes = Diagnostics() if keep_notes else None
    advice_notes = Diagnostics() if keep_notes else None
    entries = tuple(
        tuple(
            resources.lexicon.candidate_entries(
                t.lemma, t.pos, resources.graph, config.parser.entry_keep, entry_notes
            )
        )
        for t in sentence.tokens
    )
    advice_map, dropped = AdviceMap((), config.alpha), 0
    if with_advice and advice_records:
        advice_map, dropped = build_advice_map(
            advice_records,
            sentence.tokens,
            resources.graph,
            resources.ontology,
            config.alpha,
            advice_notes,
            sentence.sentence_id,
        )
    tokens = tuple(Token(t.surface, t.lemma, t.pos) for t in sentence.tokens)
    return PreparedSentence(
        sentence, tokens, entries, advice_map, dropped, entry_notes, advice_notes
    )


def _prepare_corpus(
    resources: Resources,
    corpus: Sequence[SentenceRecord],
    advice_by_sentence: Mapping[str, Sequence[SenseDistribution]],
    config: VariantConfig,
    with_advice: bool,
    keep_notes: bool,
) -> list[PreparedSentence]:
    return [
        prepare_sentence(
            resources, sentence, advice_by_sentence.get(sentence.sentence_id, ()),
            config, with_advice, keep_notes,
        )
        for sentence in corpus
    ]


def _parser(resources: Resources, config: VariantConfig) -> ChartParser:
    return ChartParser(
        resources.grammar, resources.ontology, resources.lexicon.templates, config.parser
    )


def _parse_prepared(
    resources: Resources,
    parser: ChartParser,
    prepared: PreparedSentence,
    config: VariantConfig,
    diagnostics: Diagnostics | None,
) -> tuple[ParseResult, int]:
    """Parse a prepared sentence under one variant; returns (result,
    dropped advice).  The preparation's notes are replayed first, where
    preparing the sentence for this variant would have noted them."""
    prehinting, progressive, forcing = _VARIANT_FLAGS[config.variant]
    uses_advice = prehinting or progressive or forcing
    if diagnostics is not None and prepared.entry_notes is not None:
        diagnostics.replay(prepared.entry_notes)
        if uses_advice:
            diagnostics.replay(prepared.advice_notes)

    tokens = prepared.tokens
    entries: Sequence[Sequence[LexicalEntry]] = prepared.entries
    advice_map = prepared.advice_map
    if prehinting:
        additions = prehint(
            advice_map, resources.lexicon, resources.ontology, tokens, diagnostics
        )
        entries = apply_prehints(entries, additions)
    if forcing:
        entries = fix_senses(
            advice_map, entries, resources.lexicon, resources.ontology, tokens, diagnostics
        )

    scorer = progressive_scorer(advice_map, resources.ontology) if progressive else None
    result = parser.parse(
        tokens, entries, sentence_id=prepared.sentence.sentence_id, scorer=scorer,
        diagnostics=diagnostics,
    )
    return result, prepared.dropped if uses_advice else 0


def parse_sentence_with_variant(
    resources: Resources,
    sentence: SentenceRecord,
    advice_records: Sequence[SenseDistribution],
    config: VariantConfig,
    diagnostics: Diagnostics | None = None,
) -> tuple[ParseResult, int]:
    """Parse one sentence under a variant; returns (result, dropped advice)."""
    prepared = prepare_sentence(
        resources, sentence, advice_records, config, _uses_advice(config),
        diagnostics is not None,
    )
    return _parse_prepared(
        resources, _parser(resources, config), prepared, config, diagnostics
    )


def run_variant(
    resources: Resources,
    corpus: Sequence[SentenceRecord],
    advice_by_sentence: Mapping[str, Sequence[SenseDistribution]],
    config: VariantConfig,
    diagnostics: Diagnostics | None = None,
    prepared: Sequence[PreparedSentence] | None = None,
) -> tuple[dict[str, ParseResult], int]:
    """Parse the corpus under one variant; returns the results by sentence
    id and the dropped advice count.

    ``prepared`` holds one preparation per corpus position, made under
    this variant's entry count and blend weight, with advice if it uses
    any and with notes kept if ``diagnostics`` is given; without it every
    sentence is prepared here.
    """
    if prepared is None:
        prepared = _prepare_corpus(
            resources, corpus, advice_by_sentence, config, _uses_advice(config),
            diagnostics is not None,
        )
    parser = _parser(resources, config)
    results: dict[str, ParseResult] = {}
    dropped_total = 0
    for sentence in prepared:
        result, dropped = _parse_prepared(resources, parser, sentence, config, diagnostics)
        results[sentence.sentence.sentence_id] = result
        dropped_total += dropped
    return results, dropped_total


def run_experiment(
    resources: Resources,
    corpus: Sequence[SentenceRecord],
    advice_by_sentence: Mapping[str, Sequence[SenseDistribution]],
    variants: Sequence[VariantConfig],
    diagnostics: Diagnostics | None = None,
) -> ScoreReport:
    """Run every variant over the corpus and assemble the metrics table.

    Raises :class:`SenseParseError` before any parse if a gold or advice
    synset is missing from the synset graph.
    """
    check_synsets(resources.graph, corpus, advice_by_sentence)
    instances = gold_instances(corpus)
    with_advice = any(_uses_advice(config) for config in variants)
    shared: dict[tuple[int, float], list[PreparedSentence]] = {}
    rows = []
    for config in variants:
        key = (config.parser.entry_keep, config.alpha)
        if key not in shared:
            shared[key] = _prepare_corpus(
                resources, corpus, advice_by_sentence, config, with_advice,
                diagnostics is not None,
            )
        results, dropped = run_variant(
            resources, corpus, advice_by_sentence, config, diagnostics, shared[key]
        )
        metrics = score_run(
            results,
            instances,
            resources.ontology,
            resources.factorized,
            resources.graph,
            config.parser.fallback_type,
            diagnostics,
        )
        rows.append(
            VariantRow(
                variant=config.variant,
                f_score=metrics["f_score"],
                wu_palmer=metrics["wu_palmer"],
                semfac=metrics["semfac"],
                frag=int(metrics["frag"]),
                attempted=int(metrics["attempted"]),
                scored=int(metrics["scored"]),
                dropped_advice=dropped,
            )
        )
    return ScoreReport(tuple(rows))
