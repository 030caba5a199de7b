from senseparse import cli, evaluation
from senseparse.advice import build_advice_map, unify
from senseparse.diagnostics import Diagnostics
from senseparse.evaluation import VARIANT_NAMES, VariantConfig, run_experiment
from senseparse.parser import Token
from senseparse.sensemap import SenseDistribution


def parser_token(index, span, surface, lemma):
    return Token(index, span[0], span[1], surface, lemma, "N")


def wsd_token(span, word):
    """An advice record: its span and the one word the advisor reports."""
    return SenseDistribution(word, span, {"s.n.01": 1.0})


# -- unify ---------------------------------------------------------------------------


def test_unify_matches_intersecting_span_with_equal_lemma():
    parser = [parser_token(0, (0, 1), "i", "i"), parser_token(1, (2, 8), "played", "play")]
    wsd = [wsd_token((3, 7), "play")]
    assert unify(parser, wsd) == {0: 1}


def test_unify_falls_back_to_surface_word():
    # the spans are disjoint and the lemmas differ, but the surface agrees
    parser = [parser_token(0, (0, 6), "played", "play")]
    wsd = [wsd_token((20, 26), "played")]
    assert unify(parser, wsd) == {0: 0}


def test_unify_needs_equal_lemma_for_a_span_match():
    parser = [parser_token(0, (0, 6), "played", "play")]
    wsd = [wsd_token((0, 6), "plays")]
    assert unify(parser, wsd) == {}


def test_unify_claims_one_to_one_span_pass_first():
    # the repeated word's advice sits on its second occurrence; the span pass
    # claims it there, so the surface pass cannot give it to the first one
    parser = [
        parser_token(0, (0, 4), "bass", "bass"),
        parser_token(1, (5, 8), "saw", "see"),
        parser_token(2, (9, 13), "bass", "bass"),
    ]
    wsd = [wsd_token((9, 13), "bass")]
    assert unify(parser, wsd) == {0: 2}


def test_unify_span_pass_ignores_spans_that_only_touch():
    # the record starts where the second "bass" ends, so only the surface
    # pass matches it, onto the first occurrence
    parser = [
        parser_token(0, (0, 4), "bass", "bass"),
        parser_token(1, (5, 8), "saw", "see"),
        parser_token(2, (9, 13), "bass", "bass"),
    ]
    wsd = [wsd_token((13, 17), "bass")]
    assert unify(parser, wsd) == {0: 0}


def test_unify_surface_pass_is_greedy_left_to_right():
    parser = [parser_token(0, (0, 4), "bass", "bass"), parser_token(1, (5, 9), "bass", "bass")]
    wsd = [wsd_token((40, 44), "bass"), wsd_token((50, 54), "bass")]
    assert unify(parser, wsd) == {0: 0, 1: 1}


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
    assert advice_map.hints == ()
    assert dropped == 1
    assert diagnostics.lines() == ["dropped-advice s01 bass (13, 17): no type"]


def test_eval_counts_advice_resolving_to_no_type(resources, corpus, advice_records):
    variants = [VariantConfig(name) for name in VARIANT_NAMES]
    report = run_experiment(resources, corpus, typeless_s01(advice_records), variants)
    assert {row.variant: row.dropped_advice for row in report.rows} == {
        "plain": 0, "pre": 1, "prog": 1, "comb": 1, "fixed": 1,
    }


# -- the hints build_advice_map emits ------------------------------------------------


def assert_one_hint_per_token_and_type(advice_map, tokens, ontology):
    """Each hint advises one token of the sentence with a known type, under
    that token's lemma and a score in [0, 1]; no (token, type) pair repeats."""
    pairs = [(hint.token, hint.onto_type) for hint in advice_map.hints]
    assert len(set(pairs)) == len(pairs)
    for hint in advice_map.hints:
        assert 0 <= hint.token < len(tokens)
        assert hint.onto_type in ontology
        assert hint.word == tokens[hint.token].lemma
        assert 0.0 <= hint.score <= 1.0


def test_hints_advise_one_known_type_per_token(
    resources, corpus, advice_records, long_ambig_chunk
):
    workloads = [(resources, corpus, advice_records), long_ambig_chunk]
    seen = 0
    for res, sentences, advice in workloads:
        for sentence in sentences:
            advice_map, _ = build_advice_map(
                advice.get(sentence.sentence_id, ()), sentence.tokens, res.graph, res.ontology
            )
            assert_one_hint_per_token_and_type(advice_map, sentence.tokens, res.ontology)
            seen += len(advice_map.hints)
    assert seen > len(corpus)


def test_cli_parse_hints_advise_one_known_type_per_token(
    resources, corpus, fixtures_dir, tmp_path, monkeypatch
):
    built = []

    def recording(records, tokens, *args, **kwargs):
        advice_map, dropped = build_advice_map(records, tokens, *args, **kwargs)
        built.append((advice_map, tokens))
        return advice_map, dropped

    monkeypatch.setattr(evaluation, "build_advice_map", recording)
    resource_args = []
    for name in ("ontology", "synsets", "lexicon", "grammar"):
        resource_args += [f"--{name}", str(fixtures_dir / f"{name}.txt")]
    for sentence in corpus:
        text = " ".join(f"{t.surface}/{t.lemma}/{t.pos}" for t in sentence.tokens)
        code = cli.main(["parse", *resource_args, "--sentence", text, "--variant", "comb",
                         "--advice", str(fixtures_dir / "advice.txt"),
                         "--sentence-id", sentence.sentence_id,
                         "--output", str(tmp_path / "lf.txt")])
        assert code in (0, 2)
    assert len(built) == len(corpus)
    for advice_map, tokens in built:
        assert_one_hint_per_token_and_type(advice_map, tokens, resources.ontology)
    assert sum(len(advice_map.hints) for advice_map, _ in built) >= len(corpus)
