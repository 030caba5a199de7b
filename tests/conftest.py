import subprocess
import sys
from pathlib import Path

import pytest

from senseparse.advice import load_advice, load_corpus
from senseparse.evaluation import load_resources
from senseparse.ontology import factorize, parse_ontology

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

FOUR_NODE_TREE = """
type root parent -

type a parent root

type a1 parent a

type b parent root
"""

FACTOR_TREE = """
type root parent -

type A parent root roles r1:root

type A1 parent A

type B parent root roles r2:root
"""


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES


@pytest.fixture(scope="session")
def resources():
    return load_resources(
        FIXTURES / "ontology.txt",
        FIXTURES / "synsets.txt",
        FIXTURES / "lexicon.txt",
        FIXTURES / "grammar.txt",
    )


@pytest.fixture(scope="session")
def ontology(resources):
    return resources.ontology


@pytest.fixture(scope="session")
def graph(resources):
    return resources.graph


@pytest.fixture(scope="session")
def lexicon(resources):
    return resources.lexicon


@pytest.fixture(scope="session")
def grammar(resources):
    return resources.grammar


@pytest.fixture(scope="session")
def corpus():
    return load_corpus(FIXTURES / "corpus.txt")


@pytest.fixture(scope="session")
def advice_records():
    return load_advice(FIXTURES / "advice.txt")


@pytest.fixture(scope="session")
def four_node():
    return parse_ontology(FOUR_NODE_TREE)


@pytest.fixture(scope="session")
def factor_tree():
    ont = parse_ontology(FACTOR_TREE)
    return ont, factorize(ont)


@pytest.fixture(scope="session")
def long_ambig_chunk(tmp_path_factory):
    """Resources, the first 10 sentences and the advice of the long-ambig
    workload, seed 1, as ``perfbench/gen.py`` writes them."""
    out = tmp_path_factory.mktemp("long-ambig")
    subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "gen.py"), "--workload", "long-ambig",
         "--seed", "1", "--out", str(out)],
        check=True, capture_output=True,
    )
    resources = load_resources(
        *(out / f"{name}.txt" for name in ("ontology", "synsets", "lexicon", "grammar"))
    )
    return resources, load_corpus(out / "corpus.txt")[:10], load_advice(out / "advice.txt")
