import math

import pytest

from oracles import best_parse_oracle
from senseparse.diagnostics import Diagnostics
from senseparse.errors import ParseFailure, StructuralError
from senseparse.evaluation import VariantConfig, parse_sentence_with_variant
from senseparse.lexicon import LexicalEntry
from senseparse.parser import (
    Chart,
    ChartParser,
    Constituent,
    GrammarRule,
    ParserConfig,
    Token,
    fragment_fallback,
    parse_grammar,
    verify_role_soundness,
)


def make_parser(resources, **config_kwargs):
    config = ParserConfig(**config_kwargs)
    return ChartParser(
        resources.grammar, resources.ontology, resources.lexicon.templates, config
    )


def entries_for(resources, tokens, keep=4):
    return [
        resources.lexicon.candidate_entries(t.lemma, t.pos, resources.graph, keep)
        for t in tokens
    ]


def sentence_tokens(text, pos_tags):
    lemmas = {"cooked": "cook", "played": "play", "saw": "see"}
    return [
        Token(w, lemmas.get(w, w), p) for w, p in zip(text.split(), pos_tags)
    ]


COOKED_BASS = sentence_tokens("i cooked the bass", ["PRO", "V", "DET", "N"])
PLAYED_BASS = sentence_tokens("i played the bass", ["PRO", "V", "DET", "N"])


def leaf(cid, span, category, onto_type, word, score):
    return Constituent(cid, span, category, onto_type, word, score, score)


# -- combine -------------------------------------------------------------------


def vp_rule():
    return GrammarRule("VP", ("V", "NP"), 0, ((1, "affected"),), 1.0)


def test_combine_accepts_restriction_satisfying_filler(resources):
    parser = make_parser(resources)
    v = leaf(0, (0, 1), "V", "cook-action", "cook", 0.8)
    np = leaf(1, (1, 2), "NP", "freshwater-fish", "bass", 0.6)
    built = parser.combine(vp_rule(), [v, np], cid=2)
    assert built is not None
    assert built.onto_type == "cook-action"
    assert built.word == "cook"
    assert built.role_children == (("affected", 1),)
    assert built.own_score == pytest.approx(1.0 * math.sqrt(0.8 * 0.6))


def test_combine_rejects_restriction_violation(resources):
    parser = make_parser(resources)
    diag = Diagnostics()
    v = leaf(0, (0, 1), "V", "cook-action", "cook", 0.8)
    np = leaf(1, (1, 2), "NP", "idea-type", "idea", 0.6)
    assert parser.combine(vp_rule(), [v, np], cid=2, diagnostics=diag) is None
    assert diag.count("role-violation") == 1
    assert "affected phys-obj idea-type" in diag.events[0]


def test_combine_unary_weight_one_is_identity(resources):
    parser = make_parser(resources)
    np_rule = GrammarRule("NP", ("N",), 0, (), 1.0)
    n = leaf(0, (0, 1), "N", "bread", "bread", 0.37)
    built = parser.combine(np_rule, [n], cid=1)
    assert built.own_score == pytest.approx(0.37)


def test_combine_rejects_undeclared_role(resources):
    parser = make_parser(resources)
    diag = Diagnostics()
    rule = GrammarRule("X", ("N", "N"), 0, ((1, "affected"),), 1.0)
    a = leaf(0, (0, 1), "N", "bread", "bread", 0.5)
    b = leaf(1, (1, 2), "N", "cheese", "cheese", 0.5)
    assert parser.combine(rule, [a, b], cid=2, diagnostics=diag) is None
    assert diag.count("role-violation") == 1


# -- chart pruning ----------------------------------------------------------------


def test_prune_chart_beam_keeps_top_three():
    chart = Chart(beam_width=3)
    for i, score in enumerate([0.9, 0.1, 0.5, 0.7, 0.3]):
        chart.add(leaf(i, (0, 1), "N", f"t{i}", "w", score))
    assert chart.live == {0, 3, 2}


def test_prune_chart_tie_breaks_by_type_then_insertion():
    chart = Chart(beam_width=1)
    chart.add(leaf(0, (0, 1), "N", "zeta", "w", 0.5))
    chart.add(leaf(1, (0, 1), "N", "alpha", "w", 0.5))
    chart.add(leaf(2, (0, 1), "N", "alpha", "w", 0.5))
    assert chart.live == {1}


# -- fragment fallback ---------------------------------------------------------------


def test_fallback_returns_single_full_span_fragment():
    chart = Chart(beam_width=5)
    chart.add(leaf(0, (0, 3), "S", "action", "cook", 0.2))
    chart.add(leaf(1, (0, 1), "N", "bread", "bread", 0.9))
    tokens = [Token("a", "a", None)] * 3
    fragments, _ = fragment_fallback(chart, tokens, "referential-sem", 10)
    assert [f.span for f in fragments] == [(0, 3)]


def test_fallback_two_fragments():
    chart = Chart(beam_width=5)
    chart.add(leaf(0, (0, 2), "NP", "bread", "bread", 0.5))
    chart.add(leaf(1, (2, 3), "N", "cheese", "cheese", 0.5))
    tokens = [Token("a", "a", None)] * 3
    fragments, _ = fragment_fallback(chart, tokens, "referential-sem", 10)
    assert [f.span for f in fragments] == [(0, 2), (2, 3)]


def test_fallback_fills_gaps_with_fallback_type():
    chart = Chart(beam_width=5)
    tokens = [Token(w, w, "N") for w in ("a", "b", "c")]
    fragments, _ = fragment_fallback(chart, tokens, "referential-sem", 0)
    assert len(fragments) == 3
    assert all(f.onto_type == "referential-sem" for f in fragments)
    assert [f.word for f in fragments] == ["a", "b", "c"]


# -- parse ------------------------------------------------------------------------


def test_parse_cooked_bass_spans_with_fish_reading(resources):
    parser = make_parser(resources)
    result = parser.parse(COOKED_BASS, entries_for(resources, COOKED_BASS), "t1")
    assert result.spanning
    assert len(result.fragments) == 1
    node = result.logical_form.node_at(3)
    assert node.onto_type == "freshwater-fish"
    edges = {(p, role, c) for p, role, c in result.logical_form.edges}
    assert (1, "affected", 3) in edges
    assert (1, "agent", 0) in edges


def test_parse_played_bass_reproduces_biased_mislabel(resources):
    parser = make_parser(resources)
    result = parser.parse(PLAYED_BASS, entries_for(resources, PLAYED_BASS), "t2")
    assert result.spanning
    assert result.logical_form.node_at(3).onto_type == "freshwater-fish"


def test_parse_no_entries_yields_per_token_fallback(resources):
    parser = make_parser(resources)
    tokens = [Token(w, w, "N") for w in ("blorp", "zzz", "qqq")]
    result = parser.parse(tokens, [[], [], []], "t3")
    assert not result.spanning
    assert len(result.fragments) == 3
    assert all(f.onto_type == "referential-sem" for f in result.fragments)


def test_parse_empty_token_list_is_an_error(resources):
    parser = make_parser(resources)
    with pytest.raises(ParseFailure):
        parser.parse([], [], "t4")


def test_parse_respects_pop_budget(resources):
    parser = make_parser(resources, max_pops=2)
    result = parser.parse(COOKED_BASS, entries_for(resources, COOKED_BASS), "t5")
    assert result.agenda_pops <= 2


def test_parse_deterministic(resources):
    parser = make_parser(resources)
    entries = entries_for(resources, COOKED_BASS)
    first = parser.parse(COOKED_BASS, entries, "t6")
    second = parser.parse(COOKED_BASS, entries, "t6")
    assert str(first.logical_form) == str(second.logical_form)
    assert first.agenda_pops == second.agenda_pops
    assert [f.effective_score for f in first.fragments] == [
        f.effective_score for f in second.fragments
    ]


def test_parse_results_are_role_sound(resources, corpus):
    for sentence in corpus[:8]:
        result, _ = parse_sentence_with_variant(
            resources, sentence, (), VariantConfig("plain")
        )
        assert verify_role_soundness(result, resources.ontology) == []


def test_fragment_cover_is_disjoint_and_total(resources, corpus, fixtures_dir):
    config = VariantConfig("fixed")
    from senseparse.advice import load_advice

    advice = load_advice(fixtures_dir / "advice.txt")
    for sentence in corpus:
        result, _ = parse_sentence_with_variant(
            resources, sentence, advice.get(sentence.sentence_id, ()), config
        )
        covered = []
        for fragment in result.fragments:
            covered.extend(range(*fragment.span))
        assert covered == list(range(len(sentence.tokens)))


def test_best_first_matches_exhaustive_oracle(resources):
    parser = make_parser(
        resources, beam_width=10**6, max_pops=10**6, accept_threshold=1.0
    )
    for tokens in (COOKED_BASS, PLAYED_BASS):
        entries = entries_for(resources, tokens, keep=10)
        want = best_parse_oracle(
            tokens, entries, resources.grammar, resources.ontology,
            resources.lexicon.templates,
        )
        result = parser.parse(tokens, entries, "oracle")
        assert result.spanning
        assert result.fragments[0].effective_score == pytest.approx(want, abs=1e-9)


def test_fallback_type_must_exist(resources):
    from senseparse.ontology import parse_ontology

    tiny = parse_ontology("type root parent -\n")
    with pytest.raises(StructuralError, match="fallback"):
        ChartParser(resources.grammar, tiny, resources.lexicon.templates)


# -- grammar file ----------------------------------------------------------------------


def test_parse_grammar_roundtrip():
    grammar = parse_grammar(
        "rule S -> NP VP head 1 weight 1.0 link 0:agent\n"
        "rule NP -> N head 0 weight 0.8\n"
    )
    assert len(grammar.rules) == 2
    assert grammar.rules[0].role_links == ((0, "agent"),)
    assert grammar.positions("NP") == [(0, 0)]
    assert grammar.positions("N") == [(1, 0)]


def test_parse_grammar_rejects_bad_head():
    from senseparse.errors import FormatError

    with pytest.raises(FormatError, match="head"):
        parse_grammar("rule S -> NP VP head 5 weight 1.0\n")


def test_parse_grammar_rejects_bad_weight():
    from senseparse.errors import FormatError

    with pytest.raises(FormatError, match="weight"):
        parse_grammar("rule S -> NP head 0 weight 1.5\n")


def test_parse_grammar_rejects_link_to_head():
    from senseparse.errors import FormatError

    with pytest.raises(FormatError, match="head"):
        parse_grammar("rule S -> NP VP head 1 weight 1.0 link 1:agent\n")
