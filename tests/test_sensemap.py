import math
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import assign_type_oracle, random_synset_graph
from senseparse.advice import parse_advice
from senseparse.diagnostics import Diagnostics
from senseparse.errors import FormatError, StructuralError, UnknownName
from senseparse.sensemap import (
    SenseDistribution,
    Synset,
    SynsetGraph,
    parse_synsets,
    transform_advice,
)


def graph_of(*records):
    """records: (id, hypernyms) pairs."""
    return SynsetGraph(
        [Synset(sid, frozenset(), frozenset(hyps)) for sid, hyps in records]
    )


CHAIN = graph_of(("s1", ["s2"]), ("s2", ["s3"]), ("s3", []))
DIAMOND = graph_of(("s1", ["s2", "s2x"]), ("s2", []), ("s2x", []))


# -- loading -------------------------------------------------------------------


def test_parse_synsets_roundtrip():
    graph = parse_synsets(
        "synset a.n lemmas cat,feline hypernyms -\n"
        "synset b.n lemmas dog hypernyms a.n\n"
        "synset c.n\n"
    )
    assert sorted(graph) == ["a.n", "b.n", "c.n"]
    assert {s.id for s in graph.synsets_for_lemma("cat")} == {"a.n"}
    assert graph.synsets["b.n"].hypernyms == {"a.n"}
    assert graph.synsets["c.n"] == Synset("c.n")


def test_hypernym_cycle_rejected():
    with pytest.raises(StructuralError, match="cycle"):
        graph_of(("s1", ["s2"]), ("s2", ["s1"]))


def test_acyclic_check_walks_shared_hypernyms_once():
    # 30 levels of two synsets, each under both of the next level's, listed
    # top level first: a walk that re-entered finished synsets would follow
    # 2**30 paths
    levels = [(f"a{i}", f"b{i}") for i in range(30)]
    records = [
        (s, [*levels[i + 1]] if i < 29 else []) for i in range(29, -1, -1) for s in levels[i]
    ]
    assert sorted(graph_of(*records)) == sorted(s for level in levels for s in level)


def test_missing_hypernym_rejected():
    with pytest.raises(StructuralError, match="missing hypernym"):
        graph_of(("s1", ["ghost"]))


def test_bad_synset_line_names_line():
    with pytest.raises(FormatError) as err:
        parse_synsets("synset ok lemmas - hypernyms -\nnot a record\n", source="s.txt")
    assert "s.txt:2" in str(err.value)


# -- subsumption -----------------------------------------------------------------


def test_chain_assignment_walks_to_mapped():
    assert CHAIN.assign_type("s1", {"s3": "T"}) == "T"


def test_intermediate_mapping_blocks_deeper_one():
    assert CHAIN.assign_type("s1", {"s2": "T2", "s3": "T"}) == "T2"


def test_direct_mapping_zero_length_path():
    assert CHAIN.assign_type("s1", {"s1": "T"}) == "T"


def test_no_mapping_returns_none():
    assert CHAIN.assign_type("s1", {}) is None


def test_unknown_synset():
    with pytest.raises(UnknownName):
        CHAIN.assign_type("nope", {})


def test_diamond_tie_breaks_lexicographically_and_notes_ambiguity():
    diag = Diagnostics()
    got = DIAMOND.assign_type("s1", {"s2": "Tb", "s2x": "Ta"}, diag)
    assert got == "Ta"
    assert diag.lines() == ["ambiguous-subsumption s1 candidates Ta,Tb"]


def test_nearer_mapping_wins_over_shorter_name():
    graph = graph_of(("s1", ["s2"]), ("s2", ["s3"]), ("s3", []))
    # Tz is nearer than Ta; distance beats name
    assert graph.assign_type("s1", {"s2": "Tz", "s3": "Ta"}) == "Tz"


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**31), n=st.integers(1, 100))
def test_assign_type_matches_path_enumeration_oracle(seed, n):
    graph, mapping = random_synset_graph(Random(seed), n)
    hypernyms = {sid: graph.synsets[sid].hypernyms for sid in graph}
    for sid in graph:
        assert graph.assign_type(sid, mapping) == assign_type_oracle(
            hypernyms, mapping, sid
        )


def test_assign_type_deterministic_on_repeat():
    graph, mapping = random_synset_graph(Random(123), 60)
    first = {sid: graph.assign_type(sid, mapping) for sid in graph}
    second = {sid: graph.assign_type(sid, mapping) for sid in graph}
    assert first == second


# -- advice transformation ----------------------------------------------------------


def test_transform_advice_sums_probability_per_type():
    graph = graph_of(("sa", ["t1"]), ("sb", ["t1"]), ("sc", ["t2"]), ("t1", []), ("t2", []))
    mapping = {"t1": "T1", "t2": "T2"}
    dist = SenseDistribution("w", (0, 1), {"sa": 0.6, "sb": 0.3, "sc": 0.1})
    scored = transform_advice(dist, graph, mapping)
    assert scored == {"T1": pytest.approx(0.9), "T2": pytest.approx(0.1)}


def test_transform_advice_empty_distribution():
    assert transform_advice(SenseDistribution("w", (0, 1), {}), CHAIN, {}) == {}


def test_transform_advice_drops_unassignable_mass():
    dist = SenseDistribution("w", (0, 1), {"s1": 1.0})
    assert transform_advice(dist, CHAIN, {}) == {}


def test_transform_advice_unknown_synset():
    with pytest.raises(UnknownName):
        transform_advice(SenseDistribution("w", (0, 1), {"ghost": 0.5}), CHAIN, {})


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**31), n=st.integers(1, 60))
def test_conservation_with_leakage(seed, n):
    rng = Random(seed)
    graph, mapping = random_synset_graph(rng, n)
    ids = sorted(graph)
    chosen = [sid for sid in ids if rng.random() < 0.3] or [ids[0]]
    raw = {sid: rng.random() for sid in chosen}
    scale = sum(raw.values()) or 1.0
    weights = {sid: w / scale for sid, w in raw.items()}
    dist = SenseDistribution("w", (0, 1), weights)
    total_out = sum(transform_advice(dist, graph, mapping).values())
    total_in = sum(weights.values())
    assert total_out <= total_in + 1e-9
    all_assignable = all(
        graph.assign_type(sid, mapping) is not None for sid in weights
    )
    if all_assignable:
        assert math.isclose(total_out, total_in, abs_tol=1e-9)
    else:
        assert total_out < total_in or total_in == 0.0


# -- distribution validation -------------------------------------------------------------


def test_distribution_rejects_mass_above_one():
    # the sum check lives where a distribution is read; three weights that are each
    # below one but together above it are refused at their line
    with pytest.raises(FormatError, match="weights for w sum to"):
        parse_advice("advice s 0 1 w s.n=0.4,t.n=0.4,u.n=0.4\n")
