import pytest

from senseparse.advice import TokenRecord, UnifiedToken, build_advice_map, unify
from senseparse.diagnostics import Diagnostics
from senseparse.evaluation import VARIANT_NAMES, VariantConfig, run_experiment
from senseparse.sensemap import SenseDistribution


def parser_token(index, span, surface, lemma):
    return TokenRecord("parser", index, span, surface, lemma)


def wsd_token(index, span, surface, lemma=None):
    return TokenRecord("wsd", index, span, surface, lemma or surface)


# -- unify ---------------------------------------------------------------------------


def test_unify_matches_intersecting_span_with_equal_lemma():
    parser = [parser_token(0, (0, 1), "i", "i"), parser_token(1, (2, 8), "played", "play")]
    wsd = [wsd_token(0, (3, 7), "play")]
    assert unify(parser, wsd) == [UnifiedToken(0, None), UnifiedToken(1, 0)]


def test_unify_falls_back_to_surface_word():
    # the spans are disjoint and the lemmas differ, but the surface agrees
    parser = [parser_token(0, (0, 6), "played", "play")]
    wsd = [wsd_token(0, (20, 26), "played")]
    assert unify(parser, wsd) == [UnifiedToken(0, 0)]


def test_unify_needs_equal_lemma_for_a_span_match():
    parser = [parser_token(0, (0, 6), "played", "play")]
    wsd = [wsd_token(0, (0, 6), "plays", "plays")]
    assert unify(parser, wsd) == [UnifiedToken(0, None)]


def test_unify_claims_one_to_one_span_pass_first():
    # the repeated word's advice sits on its second occurrence; the span pass
    # claims it there, so the surface pass cannot give it to the first one
    parser = [
        parser_token(0, (0, 4), "bass", "bass"),
        parser_token(1, (5, 8), "saw", "see"),
        parser_token(2, (9, 13), "bass", "bass"),
    ]
    wsd = [wsd_token(0, (9, 13), "bass")]
    assert unify(parser, wsd) == [
        UnifiedToken(0, None), UnifiedToken(1, None), UnifiedToken(2, 0)
    ]


def test_unify_surface_pass_is_greedy_left_to_right():
    parser = [parser_token(0, (0, 4), "bass", "bass"), parser_token(1, (5, 9), "bass", "bass")]
    wsd = [wsd_token(0, (40, 44), "bass"), wsd_token(1, (50, 54), "bass")]
    assert unify(parser, wsd) == [UnifiedToken(0, 0), UnifiedToken(1, 1)]


def test_unify_rejects_non_wsd_tokens():
    parser = [parser_token(0, (0, 4), "bass", "bass")]
    with pytest.raises(ValueError, match="cannot unify source 'gold'"):
        unify(parser, [TokenRecord("gold", 0, (0, 4), "bass", "bass")])


# -- advice that yields no hint ------------------------------------------------------


def typeless_s01(advice_records):
    """The fixture advice with s01's record naming only entity.n.01, a synset
    that subsumes to no ontology type."""
    (record,) = advice_records["s01"]
    return {**advice_records, "s01": [SenseDistribution(record.word, record.span, {"entity.n.01": 1.0})]}


def test_advice_resolving_to_no_type_is_dropped_and_noted(resources, corpus, advice_records):
    advice = typeless_s01(advice_records)
    diagnostics = Diagnostics()
    advice_map, dropped = build_advice_map(
        advice["s01"], corpus[0].tokens, resources.graph, resources.ontology,
        diagnostics=diagnostics, sentence_id="s01",
    )
    assert len(advice_map) == 0
    assert dropped == 1
    assert diagnostics.lines() == ["dropped-advice s01 bass (13, 17): no type"]


def test_eval_counts_advice_resolving_to_no_type(resources, corpus, advice_records):
    variants = [VariantConfig(name) for name in VARIANT_NAMES]
    report = run_experiment(resources, corpus, typeless_s01(advice_records), variants)
    assert {row.variant: row.dropped_advice for row in report.rows} == {
        "plain": 0, "pre": 1, "prog": 1, "comb": 1, "fixed": 1,
    }
