"""Tests of the benchmark's own code: input generation and the checks.

Run with ``python3 -m pytest perfbench/tests``.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import checks  # noqa: E402
import gen  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402

ROOT = HERE.parent.parent


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", ["long-ambig", "wide-lexicon"])
def test_generator_is_deterministic_per_seed(tmp_path, workload):
    gen.generate(workload, 5, tmp_path / "a", ROOT)
    gen.generate(workload, 5, tmp_path / "b", ROOT)
    gen.generate(workload, 6, tmp_path / "c", ROOT)
    first = _files(tmp_path / "a")
    assert first == _files(tmp_path / "b")
    assert first["corpus.txt"] != _files(tmp_path / "c")["corpus.txt"]


@pytest.mark.parametrize("workload", ["long-ambig", "wide-lexicon"])
def test_generated_gold_types_agree_with_path_enumeration(tmp_path, workload):
    gen.generate(workload, 2, tmp_path, ROOT)
    facts = checks.read_ontology(tmp_path / "ontology.txt")
    hypernyms = checks.read_hypernyms(tmp_path / "synsets.txt")
    known = dict(line.split() for line in (tmp_path / "gold_types.txt").read_text().splitlines())
    for _, tokens in checks.read_gold(tmp_path / "corpus.txt").values():
        for synset in tokens.values():
            assert checks.path_gold_type(synset, hypernyms, facts.synset_type) == known[synset]


def _lf(*lines: str) -> checks.LF:
    return checks.read_lf("\n".join(lines))


def test_f_recomputation_on_three_hand_worked_sentences():
    # s1: gold A at token 1 (predicted A, correct), gold B at token 2
    #     (predicted D, wrong); s2: gold C at token 0 (fallback, abstains),
    #     token 1's gold synset maps to no type (not scored); s3: gold A at
    #     token 1 (predicted A, correct).  Scored 4, attempted 3, correct 2:
    #     P = 2/3, R = 1/2, F = 2PR / (P + R) = 4/7.
    gold = {
        "s1": (3, {1: "a.n.01", 2: "b.n.01"}),
        "s2": (2, {0: "c.n.01", 1: "x.n.01"}),
        "s3": (2, {1: "a.n.01"}),
    }
    gold_types = {"a.n.01": "A", "b.n.01": "B", "c.n.01": "C", "x.n.01": None}
    lfs = {
        "s1": _lf("node 0 0 1 the ref", "node 1 1 2 w A", "node 2 2 3 v D"),
        "s2": _lf("node 0 0 1 u ref", "node 1 1 2 y E"),
        "s3": _lf("node 0 0 1 the ref", "node 1 1 2 w A"),
    }
    score = checks.score(lfs, gold, gold_types, "ref", "plain")
    assert (score.scored, score.attempted, score.correct) == (4, 3, 2)
    assert score.f_score == pytest.approx(4 / 7)
    checks.check_f(4 / 7, score, "plain")
    with pytest.raises(checks.CheckFailed, match="f-score"):
        checks.check_f(0.6, score, "plain")
    with pytest.raises(checks.CheckFailed, match="fixed-exact.*s1"):
        checks.score(lfs, gold, gold_types, "ref", "fixed", exact=True)


ONTOLOGY = """\
type root parent -

type action parent root roles agent:animate

type sprint parent action

type animate parent root

type person parent animate

type rock parent root
"""


@pytest.fixture()
def facts(tmp_path):
    path = tmp_path / "ontology.txt"
    path.write_text(ONTOLOGY)
    return checks.read_ontology(path)


def test_role_edge_check_accepts_declared_and_inherited_roles(facts):
    lf = _lf("node 0 0 1 i person", "node 1 1 2 run sprint", "edge 1 agent 0")
    checks.check_edges(lf, facts, "s1", "plain")


def test_role_edge_check_rejects_a_hand_made_unsound_edge(facts):
    lf = _lf("node 0 0 1 it rock", "node 1 1 2 run sprint", "edge 1 agent 0")
    with pytest.raises(checks.CheckFailed, match="role-edge.*s1.*plain.*wants animate, got rock"):
        checks.check_edges(lf, facts, "s1", "plain")
    undeclared = _lf("node 0 0 1 i person", "node 1 1 2 run sprint", "edge 0 agent 1")
    with pytest.raises(checks.CheckFailed, match="not declared on person"):
        checks.check_edges(undeclared, facts, "s1", "plain")


def test_cover_check_rejects_overlap_and_gaps():
    checks.check_cover(_lf("node 0 0 1 a x", "node 1 1 3 b y"), 3, "s1", "pre")
    with pytest.raises(checks.CheckFailed, match="cover.*token 1 covered 2 times"):
        checks.check_cover(_lf("node 0 0 2 a x", "node 1 1 3 b y"), 3, "s1", "pre")
    with pytest.raises(checks.CheckFailed, match="token 2 covered 0 times"):
        checks.check_cover(_lf("node 0 0 2 a x"), 3, "s1", "pre")


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    emitted = {
        **layers.setup_metrics({}), **layers.eval_metrics({}, {}), **layers.cli_metrics({}),
    }
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units(emitted)
