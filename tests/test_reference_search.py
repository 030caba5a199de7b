"""The parser's search against ``oracles.reference_parse``, a plain-list
agenda search with no indexes: every fragment (ids, spans, ``repr``
scores, derivations), pop count, logical form and role-violation note."""

from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import random_ontology, reference_parse, shape
from senseparse.diagnostics import Diagnostics
from senseparse.evaluation import VARIANT_NAMES, VariantConfig, run_experiment
from senseparse.hinting import AdviceMap, Hint, progressive_scorer
from senseparse.lexicon import LexicalEntry, SyntacticTemplate
from senseparse.ontology import Ontology, OntologyType
from senseparse.parser import (
    FALLBACK_TYPE,
    ChartParser,
    Grammar,
    GrammarRule,
    ParserConfig,
    Token,
)

CATEGORIES = ("A", "B", "C")
# r9 is declared by no type of random_ontology
ROLES = ("r1", "r2", "r3", "r9")
SCORES = (0.25, 0.5, 1.0)


def assert_same_search(parser, tokens, entries, sentence_id="", scorer=None):
    notes = Diagnostics()
    result = parser.parse(tokens, entries, sentence_id, scorer, notes)
    want = reference_parse(
        tokens, entries, parser.grammar, parser.ontology, parser.templates,
        parser.config, sentence_id, scorer,
    )
    assert tuple(shape(f) for f in result.fragments) == want.fragments
    assert result.spanning == want.spanning
    assert result.agenda_pops == want.pops
    assert result.logical_form.nodes == want.nodes
    assert result.logical_form.edges == want.edges
    assert tuple(notes.events) == want.notes


def random_grammar(rng):
    """Rules of one to three daughters over three categories, so unary
    cycles, ``X -> A A``, ``X -> A A A`` and links to undeclared roles all
    turn up."""
    rules = []
    for _ in range(rng.randrange(1, 8)):
        arity = rng.choice((1, 1, 2, 2, 2, 3, 3))
        head = rng.randrange(arity)
        links = tuple(
            (k, rng.choice(ROLES)) for k in range(arity) if k != head and rng.random() < 0.6
        )
        rhs = tuple(rng.choice(CATEGORIES) for _ in range(arity))
        weight = rng.choice((0.5, 0.8, 1.0))
        rules.append(GrammarRule(rng.choice(CATEGORIES), rhs, head, links, weight))
    return Grammar(rules)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    beam_width=st.integers(1, 4),
    max_pops=st.none() | st.integers(1, 40),
    # entry scores among them, so a root can score exactly the threshold
    threshold=st.sampled_from((0.0, 0.25, 0.5, 0.9, 1.0)),
    hooked=st.booleans(),
)
def test_search_equals_the_reference_on_random_grammars(
    seed, beam_width, max_pops, threshold, hooked
):
    assert_same_search(*random_search(seed, beam_width, max_pops, threshold, hooked))


def random_search(seed, beam_width, max_pops, threshold, hooked):
    """A parser, its tokens and entries, a sentence id and a progressive
    hook (or None) over a random ontology and grammar."""
    rng = Random(seed)
    base = random_ontology(rng, rng.randrange(2, 8))
    ontology = Ontology([*base.types.values(), OntologyType(FALLBACK_TYPE, base.root)])
    types = sorted(base)
    templates = {c: SyntacticTemplate(c, c) for c in CATEGORIES}
    n = rng.randrange(1, 6)
    tokens = [
        Token(i, 2 * i, 2 * i + 1, f"w{i}", f"w{i % 3}", rng.choice(("N", None)))
        for i in range(n)
    ]
    # few types and scores, so beam keys and agenda keys tie
    entries = [
        [
            LexicalEntry(t.lemma, rng.choice(CATEGORIES), rng.choice(types), rng.choice(SCORES))
            for _ in range(rng.randrange(4))
        ]
        for t in tokens
    ]
    scorer = None
    if hooked:
        hints = [
            Hint(f"w{rng.randrange(3)}", rng.randrange(n), rng.choice(types), rng.choice(SCORES))
            for _ in range(rng.randrange(1, 6))
        ]
        scorer = progressive_scorer(AdviceMap(hints), ontology, rng.choice((0.0, 0.5, 1.0)))
    config = ParserConfig(beam_width, max_pops, threshold)
    parser = ChartParser(random_grammar(rng), ontology, templates, config)
    return parser, tokens, entries, rng.choice(("", "s1")), scorer


def captured_parses(monkeypatch, resources, corpus, advice):
    """Every (parser, tokens, entries, sentence id, hook) an all-variant
    ``run_experiment`` hands ``ChartParser.parse``."""
    calls = []
    original = ChartParser.parse

    def capture(self, tokens, entries, sentence_id="", scorer=None, diagnostics=None):
        calls.append((self, tokens, entries, sentence_id, scorer))
        return original(self, tokens, entries, sentence_id, scorer, diagnostics)

    monkeypatch.setattr(ChartParser, "parse", capture)
    run_experiment(resources, corpus, advice, [VariantConfig(v) for v in VARIANT_NAMES])
    monkeypatch.undo()
    assert len(calls) == len(VARIANT_NAMES) * len(corpus)
    return calls


@pytest.mark.parametrize("workload", ["fixture", "long-ambig chunk"])
def test_search_equals_the_reference_on_every_variant(
    workload, resources, corpus, advice_records, long_ambig_chunk, monkeypatch
):
    inputs = (resources, corpus, advice_records)
    if workload != "fixture":
        inputs = long_ambig_chunk
    for parser, tokens, entries, sentence_id, scorer in captured_parses(monkeypatch, *inputs):
        assert_same_search(parser, tokens, entries, sentence_id, scorer)
