import hashlib
import math
from dataclasses import replace

import pytest

from senseparse import evaluation
from senseparse.advice import (
    SentenceRecord,
    parse_advice,
)
from senseparse.cli import main
from senseparse.diagnostics import DISCARD, Diagnostics
from senseparse.errors import SenseParseError
from senseparse.evaluation import (
    VARIANT_NAMES,
    GoldInstance,
    ScoreReport,
    VariantConfig,
    VariantRow,
    gold_instances,
    parse_sentence_with_variant,
    prepare_sentence,
    run_experiment,
    run_variant,
    score_run,
)
from senseparse.lexicon import parse_lexicon
from senseparse.ontology import factorize
from senseparse.parser import (
    FALLBACK_TYPE,
    ChartParser,
    LFNode,
    LogicalForm,
    ParseResult,
    Token,
)
from senseparse.sensemap import parse_synsets


# The fixture eval report: a regression gate for every change that must
# leave the parser's output unchanged.
GOLDEN_REPORT = (
    "variant\tf_score\twu_palmer\tsemfac\tfrag\tattempted\tscored\tdropped_advice\n"
    "plain\t0.4000\t0.6443\t0.8111\t0\t30\t30\t0\n"
    "pre\t0.8000\t0.8571\t0.9333\t0\t30\t30\t0\n"
    "prog\t0.8000\t0.8571\t0.9333\t0\t30\t30\t0\n"
    "comb\t0.8000\t0.8571\t0.9333\t0\t30\t30\t0\n"
    "fixed\t1.0000\t1.0000\t1.0000\t6\t30\t30\t0\n"
)


def test_fixture_report_matches_golden(resources, corpus, advice_records):
    variants = [VariantConfig(name) for name in VARIANT_NAMES]
    report = run_experiment(resources, corpus, advice_records, variants)
    assert report.to_tsv() == GOLDEN_REPORT


# The fixture `eval --diagnostics` file: four variants each reject the same
# role filler in s13-s18; nothing else is noted.
GOLDEN_DIAGNOSTICS = "".join(
    f"role-violation s{n} affected phys-obj composition\n"
    for _ in range(4)
    for n in range(13, 19)
)


def test_fixture_eval_diagnostics_match_golden(fixtures_dir, tmp_path):
    args = ["eval"]
    for name in ("ontology", "synsets", "lexicon", "grammar", "corpus", "advice"):
        args += [f"--{name}", str(fixtures_dir / f"{name}.txt")]
    report, diagnostics = tmp_path / "report.tsv", tmp_path / "diagnostics.txt"
    args += ["--output", str(report), "--diagnostics", str(diagnostics)]
    assert main(args) == 0
    assert report.read_text() == GOLDEN_REPORT
    assert diagnostics.read_text() == GOLDEN_DIAGNOSTICS


# The fixture with two notes raised while scoring gold: s09's gold is a
# synset under two mapped hypernyms (ambiguous subsumption) and s15's gold
# maps to no type (not scored).  Each variant's gold notes follow its parse
# notes; `plain` rejects no role filler.
GOLDEN_GOLD_NOTES_REPORT = (
    "variant\tf_score\twu_palmer\tsemfac\tfrag\tattempted\tscored\tdropped_advice\n"
    "plain\t0.4138\t0.6582\t0.8161\t0\t29\t29\t0\n"
    "pre\t0.7931\t0.8674\t0.9425\t0\t29\t29\t0\n"
    "prog\t0.7931\t0.8674\t0.9425\t0\t29\t29\t0\n"
    "comb\t0.7931\t0.8674\t0.9425\t0\t29\t29\t0\n"
    "fixed\t0.9655\t0.9906\t1.0000\t6\t29\t29\t0\n"
)
_GOLD_NOTES = [
    "ambiguous-subsumption bass_hybrid.n.01 candidates bird,fish",
    "unmapped-gold entity.n.01",
]
_ROLE_NOTES = [f"role-violation s{n} affected phys-obj composition" for n in range(13, 19)]
GOLDEN_GOLD_NOTES_DIAGNOSTICS = _GOLD_NOTES + 4 * (_ROLE_NOTES + _GOLD_NOTES)


def test_gold_notes_land_after_each_variants_parse_notes(
    resources, corpus, advice_records, fixtures_dir
):
    synsets = (fixtures_dir / "synsets.txt").read_text()
    synsets += "synset bass_hybrid.n.01 hypernyms bird.n.01,fish.n.01\n"
    resources = replace(resources, graph=parse_synsets(synsets))
    golds = {"s09": "bass_hybrid.n.01", "s15": "entity.n.01"}
    corpus = [
        s._replace(tokens=s.tokens[:3] + (s.tokens[3]._replace(gold=golds[s.sentence_id]),))
        if s.sentence_id in golds else s
        for s in corpus
    ]
    diagnostics = Diagnostics()
    variants = [VariantConfig(name) for name in VARIANT_NAMES]
    report = run_experiment(resources, corpus, advice_records, variants, diagnostics)
    assert report.to_tsv() == GOLDEN_GOLD_NOTES_REPORT
    assert diagnostics.lines() == GOLDEN_GOLD_NOTES_DIAGNOSTICS


# The first 10-sentence chunk (5-40 tokens) of the long-ambig benchmark
# workload, seed 1: its recursive grammar fills beam cells, so this gate
# also pins pruning order and the agenda's pop sequence.
GOLDEN_LONG_AMBIG_REPORT = (
    "variant\tf_score\twu_palmer\tsemfac\tfrag\tattempted\tscored\tdropped_advice\n"
    "plain\t0.5641\t0.8010\t0.9487\t1\t78\t78\t0\n"
    "pre\t0.7051\t0.8620\t0.9551\t1\t78\t78\t0\n"
    "prog\t0.7308\t0.8687\t0.9487\t1\t78\t78\t0\n"
    "comb\t0.6795\t0.8492\t0.9487\t1\t78\t78\t0\n"
    "fixed\t0.7436\t0.8797\t0.9615\t7\t78\t78\t0\n"
)
GOLDEN_LONG_AMBIG_POPS = {"plain": 1678, "pre": 1718, "prog": 1681, "comb": 1774, "fixed": 678}
GOLDEN_LONG_AMBIG_LF_SHA256 = (
    "5343326a12e9daea228f9febd3f54c201f53e05fdc030ada331445be7a848781"
)


def test_long_ambig_chunk_matches_golden(long_ambig_chunk):
    resources, corpus, advice = long_ambig_chunk
    variants = [VariantConfig(name) for name in VARIANT_NAMES]

    report = run_experiment(resources, corpus, advice, variants)
    assert report.to_tsv() == GOLDEN_LONG_AMBIG_REPORT

    pops = {}
    digest = hashlib.sha256()
    for config in variants:
        results, _ = run_variant(resources, corpus, advice, config)
        pops[config.variant] = sum(r.agenda_pops for r in results.values())
        for sid, result in results.items():
            digest.update(f"{config.variant} {sid}\n{result.logical_form}\n".encode())
    assert pops == GOLDEN_LONG_AMBIG_POPS
    assert digest.hexdigest() == GOLDEN_LONG_AMBIG_LF_SHA256


def test_long_ambig_chunk_notes_each_role_violation_once_per_parse(long_ambig_chunk, monkeypatch):
    # a rejected filler is retried on every combine attempt that meets it;
    # each parse notes the rejection once
    resources, corpus, advice = long_ambig_chunk
    per_parse = []
    original = ChartParser.parse

    def capture(self, tokens, entries, sentence_id="", scorer=None, diagnostics=None):
        start = len(diagnostics.events)
        result = original(self, tokens, entries, sentence_id, scorer, diagnostics)
        per_parse.append(diagnostics.events[start:])
        return result

    monkeypatch.setattr(ChartParser, "parse", capture)
    diagnostics = Diagnostics()
    variants = [VariantConfig(name) for name in VARIANT_NAMES]
    run_experiment(resources, corpus, advice, variants, diagnostics)
    assert len(per_parse) == 5 * len(corpus)
    assert all(len(set(notes)) == len(notes) for notes in per_parse)
    assert len(diagnostics.lines()) == 332


@pytest.mark.parametrize("workload", ["fixture", "long-ambig"])
def test_discarding_notes_changes_no_result_and_keeps_none(
    workload, resources, corpus, advice_records, long_ambig_chunk, monkeypatch
):
    # a run with no sink notes into the shared DISCARD; it must parse and
    # score exactly as a run that collects, and DISCARD must keep nothing
    if workload == "long-ambig":
        resources, corpus, advice_records = long_ambig_chunk
    parses = []
    original = ChartParser.parse

    def capture(self, *args, **kwargs):
        parses.append(original(self, *args, **kwargs))
        return parses[-1]

    monkeypatch.setattr(ChartParser, "parse", capture)
    variants = [VariantConfig(name) for name in VARIANT_NAMES]
    discarded = run_experiment(resources, corpus, advice_records, variants)
    discarded_parses = parses[:]
    parses.clear()
    diagnostics = Diagnostics()
    collected = run_experiment(resources, corpus, advice_records, variants, diagnostics)

    assert collected == discarded
    assert len(parses) == 5 * len(corpus)
    # whole results: LF, spanning flag, pop count and every derivation item
    assert parses == discarded_parses
    assert diagnostics.lines() != []
    assert DISCARD.lines() == []


# -- shared preparation ---------------------------------------------------------------


def outputs_of(results, dropped):
    lfs = {sid: (str(r.logical_form), r.spanning, r.agenda_pops) for sid, r in results.items()}
    return lfs, dropped


def variant_by_variant(resources, corpus, advice, variants):
    """run_experiment's report, outputs and diagnostics, rebuilt by parsing
    sentence by sentence under each variant with nothing shared."""
    diagnostics = Diagnostics()
    rows, outputs = [], []
    for config in variants:
        results, dropped = {}, 0
        for sentence in corpus:
            result, d = parse_sentence_with_variant(
                resources, sentence, advice.get(sentence.sentence_id, ()), config, diagnostics
            )
            results[sentence.sentence_id] = result
            dropped += d
        instances = gold_instances(corpus, resources.graph, resources.ontology, diagnostics)
        metrics = score_run(
            results, instances, resources.ontology, factorize(resources.ontology)
        )
        rows.append(VariantRow(config.variant, **metrics, dropped_advice=dropped))
        outputs.append((config.variant, outputs_of(results, dropped)))
    return ScoreReport(tuple(rows)).to_tsv(), outputs, diagnostics.lines()


def shared_run(resources, corpus, advice, variants, monkeypatch):
    outputs = []
    original = evaluation.run_variant

    def capture(resources, corpus, advice, config, *args, **kwargs):
        out = original(resources, corpus, advice, config, *args, **kwargs)
        outputs.append((config.variant, outputs_of(*out)))
        return out

    monkeypatch.setattr(evaluation, "run_variant", capture)
    diagnostics = Diagnostics()
    report = run_experiment(resources, corpus, advice, variants, diagnostics)
    return report.to_tsv(), outputs, diagnostics.lines()


def test_run_experiment_matches_variant_by_variant_on_fixture(
    resources, corpus, fixtures_dir, monkeypatch
):
    # every variant's preparation notes must land where an unshared run
    # notes them: a "bass" synset under two mapped hypernyms makes every
    # candidate-entry lookup of "bass" note an ambiguous subsumption, and
    # s01's advice resolving to no type makes each advice-using variant
    # note a dropped record
    synsets = (fixtures_dir / "synsets.txt").read_text()
    synsets += "synset bass_hybrid.n.01 lemmas bass hypernyms bird.n.01,fish.n.01\n"
    resources = replace(resources, graph=parse_synsets(synsets))
    text = (fixtures_dir / "advice.txt").read_text()
    advice = parse_advice(text.replace("bass bass_guitar.n.01=1.0", "bass entity.n.01=1.0", 1))
    variants = [VariantConfig(name) for name in VARIANT_NAMES]

    expected = variant_by_variant(resources, corpus, advice, variants)
    assert shared_run(resources, corpus, advice, variants, monkeypatch) == expected
    lines = expected[2]
    assert sum(line.startswith("dropped-advice s01 ") for line in lines) == 4
    assert any(line.startswith("ambiguous-subsumption bass_hybrid.n.01 ") for line in lines)
    assert {v: out[1] for v, out in expected[1]} == {
        "plain": 0, "pre": 1, "prog": 1, "comb": 1, "fixed": 1,
    }


def test_run_experiment_prepares_once_per_sentence(
    resources, corpus, advice_records, monkeypatch
):
    variants = [
        VariantConfig("prog", 0.2),
        VariantConfig("plain"),
        VariantConfig("comb", 0.2),
        VariantConfig("fixed", 0.9),
        VariantConfig("pre"),
        VariantConfig("prog", 0.9),
    ]
    calls = []
    original = evaluation.prepare_sentence

    def counted(resources, sentence, records):
        calls.append(sentence.sentence_id)
        return original(resources, sentence, records)

    expected = variant_by_variant(resources, corpus, advice_records, variants)
    monkeypatch.setattr(evaluation, "prepare_sentence", counted)
    assert shared_run(resources, corpus, advice_records, variants, monkeypatch) == expected
    # one preparation per sentence, whatever the variants' blend weights
    assert calls == [sentence.sentence_id for sentence in corpus]


def test_advice_summing_past_one_gives_a_score_one_hint(
    resources, corpus, fixtures_dir, monkeypatch
):
    # 0.33 + 0.56 + 0.11 sums to 1.0000000000000002 in floats, all three
    # synsets subsume to freshwater-fish; the advice reader accepts a single
    # weight up to 1e-9 above 1
    text = (fixtures_dir / "advice.txt").read_text()
    maps = {}
    original = evaluation.prepare_sentence

    def captured(resources, sentence, records):
        prepared = original(resources, sentence, records)
        maps[sentence.sentence_id] = prepared.advice_map
        return prepared

    monkeypatch.setattr(evaluation, "prepare_sentence", captured)
    variants = [VariantConfig(name) for name in VARIANT_NAMES]

    def run(weights):
        advice = parse_advice(text.replace("bass bass_guitar.n.01=1.0", f"bass {weights}", 1))
        return run_experiment(resources, corpus, advice, variants).to_tsv()

    run("bass.n.07=0.33,freshwater_fish.n.01=0.56,perch.n.01=0.11")
    assert [(h.onto_type, h.score) for h in maps["s01"].hints] == [("freshwater-fish", 1.0)]
    assert run("bass_guitar.n.01=1.0000000005") == GOLDEN_REPORT


def test_run_experiment_matches_variant_by_variant_on_long_ambig(long_ambig_chunk, monkeypatch):
    resources, corpus, advice = long_ambig_chunk
    variants = [VariantConfig(name) for name in VARIANT_NAMES]

    expected = variant_by_variant(resources, corpus, advice, variants)
    assert shared_run(resources, corpus, advice, variants, monkeypatch) == expected


def test_prepare_sentence_keeps_four_entries_per_token(resources, fixtures_dir):
    text = (fixtures_dir / "lexicon.txt").read_text()
    types = ("bread", "cheese", "drum", "hammer", "barrel")
    text += "".join(f"entry zork cat N template noun type {t}\n" for t in types)
    lexicon = parse_lexicon(text, resources.ontology)
    sentence = SentenceRecord("z", (Token(0, 0, 4, "zork", "zork", "N"),))
    prepared = prepare_sentence(replace(resources, lexicon=lexicon), sentence, ())
    assert len(prepared.entries[0]) == 4


def test_the_parser_reads_the_sentence_records_tokens(
    resources, corpus, advice_records, monkeypatch
):
    # no copy: each parse gets the reader's own token tuple, whether the
    # sentence was prepared for all variants or for one
    seen = []
    original = ChartParser.parse

    def capture(self, tokens, *args, **kwargs):
        seen.append(tokens)
        return original(self, tokens, *args, **kwargs)

    monkeypatch.setattr(ChartParser, "parse", capture)
    variants = [VariantConfig(name) for name in VARIANT_NAMES]
    run_experiment(resources, corpus, advice_records, variants)
    run_variant(resources, corpus, advice_records, VariantConfig("comb"))
    sentences = corpus * (len(VARIANT_NAMES) + 1)
    assert len(seen) == len(sentences)
    assert all(tokens is s.tokens for tokens, s in zip(seen, sentences))


def test_a_sentence_without_advice_drops_no_advice(resources, corpus):
    for name in VARIANT_NAMES:
        assert run_variant(resources, corpus, {}, VariantConfig(name))[1] == 0


def derivation_items(result):
    """Every item of the fragments' derivations, walked from the fragments."""
    items, stack = [], list(result.fragments)
    while stack:
        c = stack.pop()
        items.append(c)
        stack.extend(c.children)
    return items


@pytest.mark.parametrize("workload", ["fixture", "long-ambig"])
def test_fragment_leaves_tile_the_sentence_and_heads_point_at_them(
    workload, resources, corpus, advice_records, long_ambig_chunk
):
    # a logical form's node ids and edge ends are items' head tokens; that
    # is sound only while the leaves cover each token exactly once and each
    # head token's leaf carries its item's word and type
    if workload == "long-ambig":
        resources, corpus, advice_records = long_ambig_chunk
    lengths = {s.sentence_id: len(s.tokens) for s in corpus}
    for name in VARIANT_NAMES:
        results, _ = run_variant(resources, corpus, advice_records, VariantConfig(name))
        for sid, result in results.items():
            items = derivation_items(result)
            leaves = sorted((c for c in items if not c.children), key=lambda c: c.span)
            assert [t for c in leaves for t in range(*c.span)] == list(range(lengths[sid]))
            leaf_at = {t: c for c in leaves for t in range(*c.span)}
            for c in items:
                assert c.span[0] <= c.head < c.span[1]
                assert (leaf_at[c.head].word, leaf_at[c.head].onto_type) == (c.word, c.onto_type)
            assert [n.id for n in result.logical_form.nodes] == [
                n.start for n in result.logical_form.nodes
            ]


@pytest.mark.parametrize("field", ["advice", "gold"])
def test_run_experiment_rejects_unknown_synset_before_any_parse(
    resources, corpus, fixtures_dir, monkeypatch, field
):
    advice_text = (fixtures_dir / "advice.txt").read_text()
    if field == "advice":
        advice_text = advice_text.replace("bass_guitar.n.01=1.0", "no_such.n.01=1.0", 1)
    else:
        s01 = corpus[0]
        tokens = s01.tokens[:3] + (s01.tokens[3]._replace(gold="no_such.n.01"),)
        corpus = [s01._replace(tokens=tokens), *corpus[1:]]

    def no_parse(*args, **kwargs):
        raise AssertionError("parsed before the synset check")

    monkeypatch.setattr(ChartParser, "parse", no_parse)
    variants = [VariantConfig(name) for name in VARIANT_NAMES]
    with pytest.raises(SenseParseError, match="^sentence s01: unknown synset no_such.n.01$"):
        run_experiment(resources, corpus, parse_advice(advice_text), variants)


# -- score_run --------------------------------------------------------------------


def lf_result(sentence_id, spanning, types):
    nodes = tuple(LFNode(i, i, i + 1, f"w{i}", t) for i, t in enumerate(types))
    return ParseResult(sentence_id, spanning, (), LogicalForm(nodes, ()), 0)


def test_variant_config_alpha_bound_is_inclusive():
    assert VariantConfig("prog", 1.0).alpha == 1.0
    assert VariantConfig("prog", 0.0).alpha == 0.0
    for alpha in (math.nextafter(1.0, 2.0), math.nextafter(0.0, -1.0)):
        with pytest.raises(ValueError, match="alpha must be in"):
            VariantConfig("prog", alpha)


def test_score_run_rejects_an_instance_it_cannot_score(resources):
    ontology = resources.ontology
    factorized = factorize(ontology)
    instances = [GoldInstance("a", 1, "drum")]
    with pytest.raises(SenseParseError, match="^no parse result for sentence a$"):
        score_run({}, instances, ontology, factorized)
    # a one-node LF covers token 0 only
    results = {"a": lf_result("a", True, ["drum"])}
    assert results["a"].logical_form.node_at(1) is None
    with pytest.raises(SenseParseError, match="^no logical-form node covers token 1 of a$"):
        score_run(results, instances, ontology, factorized)


def test_score_run_with_nothing_attempted_scores_zero(resources):
    results = {"a": lf_result("a", False, [FALLBACK_TYPE])}
    instances = [GoldInstance("a", 0, "drum")]
    metrics = score_run(results, instances, resources.ontology, factorize(resources.ontology))
    assert (metrics["f_score"], metrics["wu_palmer"], metrics["semfac"]) == (0.0, 0.0, 0.0)
    assert (metrics["attempted"], metrics["scored"], metrics["frag"]) == (0, 1, 1)


def test_score_run_abstention_lowers_recall_not_precision(resources):
    results = {
        "a": lf_result("a", True, ["electric-bass", FALLBACK_TYPE]),
        "b": lf_result("b", False, ["saltwater-fish", "bread"]),
    }
    golds = {
        "a": ["bass_guitar.n.01",  # electric-bass: correct
              "drum.n.01"],  # drum: abstained (fallback type)
        "b": ["trout.n.01",  # freshwater-fish: wrong
              "entity.n.01"],  # no type: not scored
    }
    corpus = [
        SentenceRecord(sid, tuple(
            Token(i, i, i + 1, f"w{i}", f"w{i}", "N", gold) for i, gold in enumerate(g)
        ))
        for sid, g in golds.items()
    ]
    diagnostics = Diagnostics()
    instances = gold_instances(corpus, resources.graph, resources.ontology, diagnostics)
    assert instances == [
        GoldInstance("a", 0, "electric-bass"),
        GoldInstance("a", 1, "drum"),
        GoldInstance("b", 0, "freshwater-fish"),
    ]
    assert diagnostics.lines() == ["unmapped-gold entity.n.01"]
    metrics = score_run(results, instances, resources.ontology, factorize(resources.ontology))
    # precision 1/2 over the attempted, recall 1/3 over the scored:
    # F = 2 * (1/2) * (1/3) / (1/2 + 1/3) = 2/5
    assert metrics["f_score"] == pytest.approx(0.4)
    assert (metrics["attempted"], metrics["scored"], metrics["frag"]) == (2, 3, 1)
    # Wu-Palmer over the attempted only: 1 for the exact match, and
    # 2 * depth(fish) / (depth(saltwater-fish) + depth(freshwater-fish))
    # = 2 * 5 / (6 + 6) for the wrong one
    assert metrics["wu_palmer"] == pytest.approx((1.0 + 10 / 12) / 2)
