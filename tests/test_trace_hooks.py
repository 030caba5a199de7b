"""The benchmark's per-layer tracer still finds every name it wraps.

``perfbench/layers.py`` patches module globals and methods by name, so a
rename or a changed call path in ``src/`` would leave a layer unmeasured
(or break the traced run).  This drives the tracer over one fixture eval
and one ``parse`` call and checks that each hooked layer counted work, and
that uninstalling puts every original back.  The other tests pin traced
counts that show work shared across variants being done once per run.
"""

import importlib.util
from pathlib import Path

from senseparse import cli, evaluation, parser
from senseparse.evaluation import VARIANT_NAMES, VariantConfig, run_experiment
from senseparse.lexicon import Lexicon
from senseparse.parser import Chart, ChartParser
from senseparse.sensemap import SynsetGraph

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"
PATCHED = (cli, evaluation, parser, Lexicon, ChartParser, Chart, SynsetGraph)


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_every_layer_and_restores_originals(
    resources, corpus, advice_records, fixtures_dir, tmp_path
):
    before = [dict(vars(owner)) for owner in PATCHED]
    tracer = load_layers().Tracer()
    tracer.install()
    try:
        variants = [VariantConfig(name) for name in VARIANT_NAMES]
        run_experiment(resources, corpus, advice_records, variants)
        args = ["parse"]
        for name in ("ontology", "synsets", "lexicon", "grammar", "advice"):
            args += [f"--{name}", str(fixtures_dir / f"{name}.txt")]
        args += ["--sentence", "i/PRO played/play/V the/DET bass/N", "--sentence-id", "s01",
                 "--variant", "comb", "--output", str(tmp_path / "lf.txt")]
        assert cli.main(args) == 0
    finally:
        tracer.uninstall()

    for key in (
        "lexicon.candidate_entries_calls",
        "hinting.prehint_entries",
        "hinting.progressive_calls",
        "parser.pops",
        "advice.hints",
        "cli.load_calls",
        "cli.parse_calls",
    ):
        assert tracer.acc[key] > 0, key

    for owner, attrs in zip(PATCHED, before):
        after = vars(owner)
        assert set(after) == set(attrs), owner
        changed = [name for name in attrs if after[name] is not attrs[name]]
        assert changed == [], (owner, changed)


def traced(run):
    """The tracer's accumulator after ``run()``."""
    tracer = load_layers().Tracer()
    tracer.install()
    try:
        run()
    finally:
        tracer.uninstall()
    return tracer.acc


def traced_eval(resources, corpus, advice_records, names):
    variants = [VariantConfig(name) for name in names]
    return traced(lambda: run_experiment(resources, corpus, advice_records, variants))


def test_traced_fixture_eval_looks_up_each_corpus_token_once(
    resources, corpus, advice_records
):
    # every sentence is prepared once for all five variants
    acc = traced_eval(resources, corpus, advice_records, VARIANT_NAMES)
    tokens = sum(len(sentence.tokens) for sentence in corpus)
    assert tokens == 120
    assert acc["lexicon.candidate_entries_calls"] == tokens


def test_traced_fixture_eval_resolves_gold_once_per_run(resources, corpus, advice_records):
    # preparation and gold resolution are shared, so adding variants adds
    # no subsumption
    plain = traced_eval(resources, corpus, advice_records, ["plain"])
    every = traced_eval(resources, corpus, advice_records, VARIANT_NAMES)
    assert plain["sensemap.assign_type_calls"] == every["sensemap.assign_type_calls"] > 0


def test_traced_parse_computes_no_factorization(fixtures_dir, tmp_path):
    args = ["parse"]
    for name in ("ontology", "synsets", "lexicon", "grammar", "advice"):
        args += [f"--{name}", str(fixtures_dir / f"{name}.txt")]
    args += ["--sentence", "i/PRO played/play/V the/DET bass/N", "--sentence-id", "s01",
             "--output", str(tmp_path / "lf.txt")]
    acc = traced(lambda: cli.main(args))
    assert acc["cli.load_calls"] == 1
    assert acc["load.factorize_calls"] == 0


# The traced chart counts of the first 10-sentence chunk of the long-ambig
# workload, seed 1, all five variants.  Scoring where an item is built must
# not move any of them: every item is still built, rejected or pruned once,
# and the hook is called once per item.
LONG_AMBIG_CHUNK_COUNTS = {
    "parser.pops": 7529,
    "parser.combine_calls": 16567,
    "parser.built": 14867,
    "parser.role_rejected": 1700,
    "parser.beam_pruned": 9166,
    "parser.fallback": 11,
    "hinting.progressive_calls": 8310,
}


def test_traced_long_ambig_chunk_counts(long_ambig_chunk):
    resources, corpus, advice = long_ambig_chunk
    acc = traced_eval(resources, corpus, advice, VARIANT_NAMES)
    assert {key: acc[key] for key in LONG_AMBIG_CHUNK_COUNTS} == LONG_AMBIG_CHUNK_COUNTS
