import math
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import chain_to_root, random_ontology, random_tree, wu_palmer_oracle
from senseparse.errors import FormatError, StructuralError, UnknownName
from senseparse.ontology import (
    Ontology,
    OntologyType,
    RoleSpec,
    factorize,
    parse_ontology,
)


def ontology_from_parents(parents):
    return Ontology([OntologyType(n, p) for n, p in parents.items()])


# -- loading and validation ---------------------------------------------------


def test_load_minimal_four_type_file():
    ont = parse_ontology(
        "type root parent -\n\n"
        "type phys-obj parent root\n\n"
        "type fish parent phys-obj\n\n"
        "type instrument parent phys-obj\n"
    )
    assert len(ont) == 4
    assert ont.depth("fish") == 3
    assert ont.root == "root"


def test_cycle_rejected():
    with pytest.raises(StructuralError, match="cycle"):
        parse_ontology(
            "type root parent -\n\ntype x parent y\n\ntype y parent x\n"
        )


def test_multiple_roots_rejected():
    with pytest.raises(StructuralError, match="multiple roots"):
        parse_ontology("type r1 parent -\n\ntype r2 parent -\n")


def test_no_root_rejected():
    with pytest.raises(StructuralError, match="no root"):
        Ontology([OntologyType("a", "b"), OntologyType("b", "a")])


def test_duplicate_name_rejected():
    with pytest.raises(FormatError, match="duplicate type"):
        parse_ontology("type root parent -\n\ntype a parent root\n\ntype a parent root\n")


def test_missing_parent_rejected():
    with pytest.raises(StructuralError, match="missing parent"):
        parse_ontology("type root parent -\n\ntype a parent ghost\n")


def test_dangling_restriction_rejected():
    with pytest.raises(StructuralError, match="missing"):
        parse_ontology("type root parent -\n\ntype a parent root roles r:nowhere\n")


def test_parse_error_carries_line_number():
    with pytest.raises(FormatError) as err:
        parse_ontology("type root parent -\n\nbogus record here\n", source="f.txt")
    assert "f.txt:3" in str(err.value)


def test_duplicate_synset_mapping_rejected():
    with pytest.raises(StructuralError, match="mapped to both"):
        parse_ontology(
            "type root parent - synsets s1\n\ntype a parent root synsets s1\n"
        )


def test_features_and_required_roles_parse():
    ont = parse_ontology(
        "type root parent - features k=v,m=n\n\n"
        "type a parent root roles agent:root:required,theme:a:optional\n"
    )
    assert ont.get("root").features == {"k": "v", "m": "n"}
    roles = ont.effective_roles("a")
    assert roles["agent"].required and not roles["theme"].required


# -- ancestry -------------------------------------------------------------------


def test_ancestors_of_root(four_node):
    assert four_node.ancestors("root") == ["root"]


def test_ancestors_chain(four_node):
    assert four_node.ancestors("a1") == ["a1", "a", "root"]


def test_ancestors_unknown_type(four_node):
    with pytest.raises(UnknownName):
        four_node.ancestors("no-such-type")


def test_ancestry_is_reflexive(ontology):
    for name in ontology:
        chain = ontology.ancestors(name)
        assert chain[0] == name
        parent = ontology.get(name).parent
        if parent is not None:
            assert parent in chain


# -- effective roles -------------------------------------------------------------


def test_roles_inherit_and_override(ontology):
    action = ontology.effective_roles("action")
    assert action["affected"].restriction == "phys-obj"
    cook = ontology.effective_roles("cook-action")
    assert cook["affected"].restriction == "phys-obj"
    assert cook["agent"].required
    discuss = ontology.effective_roles("discuss-action")
    assert discuss["affected"].restriction == "abstract-obj"
    assert discuss["agent"].restriction == "animate"


# -- Wu-Palmer --------------------------------------------------------------------


def test_wu_palmer_fixture_values(four_node):
    assert four_node.wu_palmer("a1", "b") == pytest.approx(0.4, abs=1e-12)
    assert four_node.wu_palmer("a", "a1") == pytest.approx(0.8, abs=1e-12)


def test_wu_palmer_identity(ontology):
    for name in ontology:
        assert ontology.wu_palmer(name, name) == 1.0


def test_wu_palmer_unknown(four_node):
    with pytest.raises(UnknownName):
        four_node.wu_palmer("a", "nope")


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_wu_palmer_matches_oracle_on_random_trees(data):
    n = data.draw(st.integers(2, 50))
    seed = data.draw(st.integers(0, 2**31))
    parents = random_tree(Random(seed), n)
    ont = ontology_from_parents(parents)
    names = sorted(parents)
    a = data.draw(st.sampled_from(names))
    b = data.draw(st.sampled_from(names))
    got = ont.wu_palmer(a, b)
    want = wu_palmer_oracle(parents, a, b)
    assert math.isclose(got, want, abs_tol=1e-12)
    # symmetry, bounds, and identity-only maximum
    assert math.isclose(got, ont.wu_palmer(b, a), abs_tol=1e-12)
    assert 0.0 < got <= 1.0
    assert (got == 1.0) == (a == b)


def test_wu_palmer_one_only_for_identity():
    parents = random_tree(Random(7), 30)
    ont = ontology_from_parents(parents)
    names = sorted(parents)
    for a in names:
        for b in names:
            if a != b:
                assert ont.wu_palmer(a, b) < 1.0


# -- factorization ----------------------------------------------------------------


def test_factorize_no_role_changes_single_factor():
    parents = random_tree(Random(3), 12)
    fact = factorize(ontology_from_parents(parents))
    assert len(set(fact.factor_of.values())) == 1


def test_factorize_every_type_distinct_roles_one_factor_each():
    names = ["t00", "t01", "t02", "t03"]
    types = [
        OntologyType("t00", None, roles=(RoleSpec("a0", "t00"),)),
        OntologyType("t01", "t00", roles=(RoleSpec("a1", "t00"),)),
        OntologyType("t02", "t01", roles=(RoleSpec("a2", "t00"),)),
        OntologyType("t03", "t00", roles=(RoleSpec("a3", "t00"),)),
    ]
    ont = Ontology(types)
    fact = factorize(ont)
    assert len(set(fact.factor_of.values())) == len(names)
    # factor tree is isomorphic to the type tree
    for t in types:
        if t.parent is not None:
            assert fact.factor_parent[fact.factor_of[t.name]] == fact.factor_of[t.parent]


def test_factor_fixture_partition(factor_tree):
    ont, fact = factor_tree
    assert fact.factor_of["A"] == fact.factor_of["A1"]
    assert fact.factor_of["B"] != fact.factor_of["A"]
    assert fact.factor_of["root"] not in (fact.factor_of["A"], fact.factor_of["B"])
    assert fact.factor_depth[fact.factor_of["A"]] == 2


def test_semfac_fixture_values(factor_tree):
    _, fact = factor_tree
    assert fact.similarity("A1", "B") == pytest.approx(0.5, abs=1e-12)
    assert fact.similarity("root", "A1") == pytest.approx(2 / 3, abs=1e-12)


def test_semfac_identity_within_factor(factor_tree):
    _, fact = factor_tree
    assert fact.similarity("A", "A1") == 1.0


def test_semfac_unknown_type(factor_tree):
    _, fact = factor_tree
    with pytest.raises(UnknownName):
        fact.similarity("A", "nope")


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31), n=st.integers(2, 40))
def test_factor_soundness_and_quotient_on_random_ontologies(seed, n):
    ont = random_ontology(Random(seed), n)
    fact = factorize(ont)
    by_factor: dict[str, list[str]] = {}
    for name in ont:
        by_factor.setdefault(fact.factor_of[name], []).append(name)
    # soundness: all members of a factor share an identical effective role set
    for members in by_factor.values():
        signatures = {ont.role_signature(m) for m in members}
        assert len(signatures) == 1
    # quotient: a type's factor is its parent's factor or a child of it
    for name in ont:
        parent = ont.get(name).parent
        if parent is None:
            continue
        f, pf = fact.factor_of[name], fact.factor_of[parent]
        assert f == pf or fact.factor_parent[f] == pf
    # completeness: role set equal to parent's implies the same factor
    for name in ont:
        parent = ont.get(name).parent
        if parent is not None and ont.role_signature(name) == ont.role_signature(parent):
            assert fact.factor_of[name] == fact.factor_of[parent]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31), n=st.integers(2, 40))
def test_semfac_equals_wu_palmer_on_factor_tree(seed, n):
    ont = random_ontology(Random(seed), n)
    fact = factorize(ont)
    factor_parents = dict(fact.factor_parent)
    rng = Random(seed + 1)
    names = sorted(ont)
    for _ in range(10):
        a, b = rng.choice(names), rng.choice(names)
        want = wu_palmer_oracle(factor_parents, fact.factor_of[a], fact.factor_of[b])
        assert math.isclose(fact.similarity(a, b), want, abs_tol=1e-12)
        if fact.factor_of[a] == fact.factor_of[b]:
            assert fact.similarity(a, b) == 1.0
