"""The program's outputs on the seed-1 fixture, long-ambig and wide-lexicon
workloads digest as ``tests/equivalence.json`` records: the report, the
diagnostics, every logical form, ``spanning`` flag, pop count and
derivation item of each variant, and the ``map`` and ``factorize``
listings.  See ``tests/tools/equivalence.py``."""

import json

import pytest

import senseparse.parser as parser
from tools.equivalence import MANIFEST, WORKLOADS, changed, digests, generate


@pytest.fixture(scope="module")
def manifest():
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_outputs_digest_as_the_manifest_records(workload, manifest, tmp_path):
    differing = changed(workload, digests(generate(workload, tmp_path / workload)), manifest)
    assert not differing, f"changed: {', '.join(differing)}"


def test_a_lost_edge_changes_the_lf_digest(manifest, tmp_path, monkeypatch):
    original = parser._extract_logical_form

    def drop_first_edge(fragments):
        lf = original(fragments)
        return lf._replace(edges=lf.edges[1:])

    monkeypatch.setattr(parser, "_extract_logical_form", drop_first_edge)
    got = digests(generate("fixture", tmp_path / "fixture"))
    assert "fixture/plain/lf" in changed("fixture", got, manifest)
