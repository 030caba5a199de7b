"""Batch evaluation: run parser variants over a corpus and score them.

Five variants are supported: ``plain`` (no advice), ``pre`` (prehinting),
``prog`` (progressive hinting), ``comb`` (both), and ``fixed`` (advised
tokens are forced to their advised senses).  Gold annotations are
synset-level; they are mapped to ontology types through subsumption, and
instances whose gold synset reaches no type are excluded from scoring but
counted.  Predictions carrying the fallback type count as abstentions:
they hurt recall, not precision, and the similarity means are taken over
attempted instances only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from .advice import SentenceRecord, build_advice_map
from .diagnostics import Diagnostics
from .errors import SenseParseError
from .hinting import AdviceMap, apply_prehints, fix_senses, prehint, progressive_scorer
from .lexicon import Lexicon, load_lexicon
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
    "gold_type",
    "gold_instances",
    "GoldInstance",
    "InstanceOutcome",
    "instance_outcomes",
    "score_run",
    "parse_sentence_with_variant",
    "run_variant",
    "run_experiment",
]

VARIANT_NAMES = ("plain", "pre", "prog", "comb", "fixed")

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

    @property
    def uses_prehint(self) -> bool:
        return self.variant in ("pre", "comb")

    @property
    def uses_progressive(self) -> bool:
        return self.variant in ("prog", "comb")

    @property
    def uses_forcing(self) -> bool:
        return self.variant == "fixed"

    @property
    def uses_advice(self) -> bool:
        return self.variant != "plain"


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


def gold_type(
    synset: str,
    graph: SynsetGraph,
    ontology: Ontology,
    diagnostics: Diagnostics | None = None,
) -> str | None:
    """The ontology type a gold synset subsumes to, or None."""
    return graph.assign_type(synset, ontology.synset_mapping, diagnostics)


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
        mapped = gold_type(instance.synset, graph, ontology, diagnostics)
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


def parse_sentence_with_variant(
    resources: Resources,
    sentence: SentenceRecord,
    advice_records: Sequence[SenseDistribution],
    config: VariantConfig,
    diagnostics: Diagnostics | None = None,
) -> tuple[ParseResult, int]:
    """Parse one sentence under a variant; returns (result, dropped advice)."""
    tokens = [Token(t.surface, t.lemma, t.pos) for t in sentence.tokens]
    entries: list[list] = [
        resources.lexicon.candidate_entries(
            t.lemma, t.pos, resources.graph, config.parser.entry_keep, diagnostics
        )
        for t in sentence.tokens
    ]

    dropped = 0
    advice_map = AdviceMap((), config.alpha)
    if config.uses_advice and advice_records:
        advice_map, dropped = build_advice_map(
            advice_records,
            sentence.tokens,
            resources.graph,
            resources.ontology,
            config.alpha,
            diagnostics,
        )

    if config.uses_prehint:
        additions = prehint(
            advice_map, resources.lexicon, resources.ontology, tokens, diagnostics
        )
        entries = apply_prehints(entries, additions)
    if config.uses_forcing:
        entries = fix_senses(
            advice_map, entries, resources.lexicon, resources.ontology, tokens, diagnostics
        )

    scorer = None
    if config.uses_progressive:
        scorer = progressive_scorer(advice_map, resources.ontology)

    parser = ChartParser(
        resources.grammar, resources.ontology, resources.lexicon.templates, config.parser
    )
    result = parser.parse(
        tokens, entries, sentence_id=sentence.sentence_id, scorer=scorer,
        diagnostics=diagnostics,
    )
    return result, dropped


def run_variant(
    resources: Resources,
    corpus: Sequence[SentenceRecord],
    advice_by_sentence: Mapping[str, Sequence[SenseDistribution]],
    config: VariantConfig,
    diagnostics: Diagnostics | None = None,
) -> tuple[dict[str, ParseResult], int]:
    results: dict[str, ParseResult] = {}
    dropped_total = 0
    for sentence in corpus:
        records = advice_by_sentence.get(sentence.sentence_id, ())
        result, dropped = parse_sentence_with_variant(
            resources, sentence, records, config, diagnostics
        )
        results[sentence.sentence_id] = result
        dropped_total += dropped
    return results, dropped_total


def run_experiment(
    resources: Resources,
    corpus: Sequence[SentenceRecord],
    advice_by_sentence: Mapping[str, Sequence[SenseDistribution]],
    variants: Sequence[VariantConfig],
    diagnostics: Diagnostics | None = None,
) -> ScoreReport:
    """Run every variant over the corpus and assemble the metrics table."""
    instances = gold_instances(corpus)
    rows = []
    for config in variants:
        results, dropped = run_variant(
            resources, corpus, advice_by_sentence, config, diagnostics
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
