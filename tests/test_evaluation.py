import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

from senseparse.advice import load_advice, load_corpus
from senseparse.cli import main
from senseparse.evaluation import (
    VARIANT_NAMES,
    GoldInstance,
    VariantConfig,
    load_resources,
    run_experiment,
    run_variant,
    score_run,
)
from senseparse.parser import FALLBACK_TYPE, LFNode, LogicalForm, ParseResult

ROOT = Path(__file__).resolve().parent.parent

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


def test_long_ambig_chunk_matches_golden(tmp_path):
    subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "gen.py"), "--workload", "long-ambig",
         "--seed", "1", "--out", str(tmp_path)],
        check=True, capture_output=True,
    )
    resources = load_resources(
        *(tmp_path / f"{name}.txt" for name in ("ontology", "synsets", "lexicon", "grammar"))
    )
    corpus = load_corpus(tmp_path / "corpus.txt")[:10]
    advice = load_advice(tmp_path / "advice.txt")
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


# -- score_run --------------------------------------------------------------------


def lf_result(sentence_id, spanning, types):
    nodes = tuple(LFNode(i, i, i + 1, f"w{i}", t) for i, t in enumerate(types))
    return ParseResult(sentence_id, spanning, (), LogicalForm(nodes, ()), 0, {})


def test_score_run_abstention_lowers_recall_not_precision(resources):
    results = {
        "a": lf_result("a", True, ["electric-bass", FALLBACK_TYPE]),
        "b": lf_result("b", False, ["saltwater-fish", "bread"]),
    }
    instances = [
        GoldInstance("a", 0, "bass_guitar.n.01"),  # electric-bass: correct
        GoldInstance("a", 1, "drum.n.01"),  # drum: abstained (fallback type)
        GoldInstance("b", 0, "trout.n.01"),  # freshwater-fish: wrong
        GoldInstance("b", 1, "entity.n.01"),  # no type: not scored
    ]
    metrics = score_run(
        results, instances, resources.ontology, resources.factorized,
        resources.graph, FALLBACK_TYPE,
    )
    # precision 1/2 over the attempted, recall 1/3 over the scored:
    # F = 2 * (1/2) * (1/3) / (1/2 + 1/3) = 2/5
    assert metrics["f_score"] == pytest.approx(0.4)
    assert (metrics["attempted"], metrics["scored"], metrics["frag"]) == (2, 3, 1)
    # Wu-Palmer over the attempted only: 1 for the exact match, and
    # 2 * depth(fish) / (depth(saltwater-fish) + depth(freshwater-fish))
    # = 2 * 5 / (6 + 6) for the wrong one
    assert metrics["wu_palmer"] == pytest.approx((1.0 + 10 / 12) / 2)
