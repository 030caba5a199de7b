from random import Random

import pytest

from oracles import random_lexicon, random_ontology, template_for_type_oracle
from senseparse.errors import FormatError, StructuralError
from senseparse.lexicon import (
    LexicalEntry,
    parse_lexicon,
    prune_entries,
)
from senseparse.ontology import parse_ontology
from senseparse.sensemap import parse_synsets

MINI_ONTOLOGY = """
type root parent -

type referential-sem parent root

type animate parent root

type action parent root roles agent:animate,affected:root

type cook-type parent action

type phys-obj parent root

type freshwater-fish parent phys-obj

type musical-instrument parent phys-obj
"""

MINI_LEXICON = """
template tv cat V slots subj:agent,obj:affected
template n cat N slots -
default-template N n

entry cook cat V template tv type cook-type
entry bass cat N template n type freshwater-fish freq 0.9
entry bass cat N template n type musical-instrument freq 0.1
"""

MINI_SYNSETS = """
synset fish.n lemmas - hypernyms -
synset bass-fish.n lemmas bass hypernyms fish.n
synset instr.n lemmas - hypernyms -
synset bass-instr.n lemmas bass hypernyms instr.n
synset trout.n lemmas trout hypernyms fish.n
synset opaque.n lemmas mystery hypernyms -
"""


@pytest.fixture(scope="module")
def mini():
    ont = parse_ontology(
        MINI_ONTOLOGY.replace(
            "type freshwater-fish parent phys-obj",
            "type freshwater-fish parent phys-obj synsets fish.n",
        ).replace(
            "type musical-instrument parent phys-obj",
            "type musical-instrument parent phys-obj synsets instr.n",
        )
    )
    lex = parse_lexicon(MINI_LEXICON, ont)
    graph = parse_synsets(MINI_SYNSETS)
    return ont, lex, graph


# -- lookup ------------------------------------------------------------------


def test_lookup_single_core_entry(mini):
    _, lex, _ = mini
    entries = lex.lookup("cook", "V")
    assert len(entries) == 1
    assert entries[0].onto_type == "cook-type"


def test_lookup_unknown_word(mini):
    _, lex, _ = mini
    assert lex.lookup("zzz", "N") == []


def test_lookup_ambiguous_word_both_readings(mini):
    _, lex, _ = mini
    types = {e.onto_type for e in lex.lookup("bass", "N")}
    assert types == {"freshwater-fish", "musical-instrument"}


def test_lookup_filters_incompatible_pos(mini):
    _, lex, _ = mini
    assert lex.lookup("cook", "N") == []
    assert len(lex.lookup("cook", None)) == 1


# -- scoring ------------------------------------------------------------------


def test_core_score_compatible_no_freq(mini):
    _, lex, _ = mini
    entry = LexicalEntry("w", {"pos": "V"}, "tv", "cook-type", provenance="core")
    assert lex.score_entry(entry) == pytest.approx(0.8)


def test_generated_score_compatible(mini):
    _, lex, _ = mini
    entry = LexicalEntry("w", {"pos": "N"}, "n", "freshwater-fish", provenance="generated")
    assert lex.score_entry(entry) == pytest.approx(0.5)


def test_prehint_score_pinned_to_one(mini):
    _, lex, _ = mini
    entry = LexicalEntry("w", {"pos": "N"}, "n", "freshwater-fish", provenance="prehint")
    assert lex.score_entry(entry) == 1.0


def test_freq_pulls_score(mini):
    _, lex, _ = mini
    high = next(e for e in lex.lookup("bass", "N") if e.freq == 0.9)
    low = next(e for e in lex.lookup("bass", "N") if e.freq == 0.1)
    assert high.score > 0.8 > low.score
    assert high.score == pytest.approx(0.75 * 0.8 + 0.25 * 0.9)


# -- generation ------------------------------------------------------------------


def test_generate_entries_for_unlisted_word(mini):
    _, lex, graph = mini
    entries = lex.generate_entries("trout", "N", graph)
    assert [e.onto_type for e in entries] == ["freshwater-fish"]
    assert entries[0].provenance == "generated"
    assert entries[0].template == "n"
    assert entries[0].score == pytest.approx(0.5)


def test_generate_suppresses_core_duplicates(mini):
    _, lex, graph = mini
    assert lex.generate_entries("bass", "N", graph) == []


def test_generate_unknown_word_yields_nothing(mini):
    _, lex, graph = mini
    assert lex.generate_entries("qwerty", "N", graph) == []


def test_generate_unmapped_senses_yield_nothing(mini):
    _, lex, graph = mini
    assert lex.generate_entries("mystery", "N", graph) == []


def test_generate_is_pure(mini):
    _, lex, graph = mini
    assert lex.generate_entries("trout", "N", graph) == lex.generate_entries(
        "trout", "N", graph
    )


def test_generated_entry_roles_exist_on_type(mini, resources):
    lex, graph = resources.lexicon, resources.graph
    for word in ("trout", "salmon"):
        for entry in lex.generate_entries(word, "N", graph):
            template = lex.templates[entry.template]
            effective = resources.ontology.effective_roles(entry.onto_type)
            assert all(role in effective for role in template.role_names())


# -- pruning ---------------------------------------------------------------------


def entry(word, onto_type, score, provenance="core"):
    return LexicalEntry(word, {"pos": "N"}, "n", onto_type, score, provenance)


def test_prune_keeps_top_k():
    entries = [entry("w", f"t{i}", s) for i, s in enumerate([0.9, 0.2, 0.7, 0.4, 0.6])]
    kept = prune_entries(entries, 3)
    assert [e.score for e in kept] == [0.9, 0.7, 0.6]


def test_prune_underfull_keeps_all():
    entries = [entry("w", "t1", 0.3), entry("w", "t2", 0.6)]
    assert len(prune_entries(entries, 3)) == 2


def test_prune_never_drops_prehint():
    entries = [
        entry("w", "t1", 0.9),
        entry("w", "t2", 0.8),
        entry("w", "t3", 0.7),
        entry("w", "hinted", 1.0, "prehint"),
    ]
    kept = prune_entries(entries, 1)
    provenances = [e.provenance for e in kept]
    assert "prehint" in provenances
    assert len(kept) == 2  # the reserved prehint slot plus the top regular entry
    assert kept[0].onto_type == "hinted"
    assert kept[1].onto_type == "t1"


def test_prune_tie_break_by_provenance_then_type():
    entries = [
        entry("w", "zzz", 0.5, "generated"),
        entry("w", "aaa", 0.5, "core"),
        entry("w", "bbb", 0.5, "core"),
    ]
    kept = prune_entries(entries, 2)
    assert [e.onto_type for e in kept] == ["aaa", "bbb"]


def test_prune_rejects_bad_keep():
    with pytest.raises(ValueError):
        prune_entries([], 0)


# -- file validation ----------------------------------------------------------------


def test_entry_with_missing_template_rejected(mini):
    ont, _, _ = mini
    with pytest.raises(StructuralError, match="missing template"):
        parse_lexicon("entry w cat N template ghost type root\n", ont)


def test_entry_with_missing_type_rejected(mini):
    ont, _, _ = mini
    with pytest.raises(StructuralError, match="missing type"):
        parse_lexicon("template n cat N slots -\nentry w cat N template n type ghost\n", ont)


def test_template_roles_must_exist_on_entry_type(mini):
    ont, _, _ = mini
    text = (
        "template tv cat V slots subj:agent,obj:affected\n"
        "entry w cat V template tv type phys-obj\n"
    )
    with pytest.raises(StructuralError, match="roles absent"):
        parse_lexicon(text, ont)


def test_entry_category_must_match_template(mini):
    ont, _, _ = mini
    text = "template n cat N slots -\nentry w cat V template n type root\n"
    with pytest.raises(FormatError, match="declares cat V"):
        parse_lexicon(text, ont)


def test_default_template_category_checked(mini):
    ont, _, _ = mini
    text = "template n cat N slots -\ndefault-template V n\n"
    with pytest.raises(StructuralError, match="category"):
        parse_lexicon(text, ont)


def test_duplicate_entry_rejected(mini):
    ont, _, _ = mini
    text = (
        "template n cat N slots -\n"
        "entry w cat N template n type root\n"
        "entry w cat N template n type root\n"
    )
    with pytest.raises(StructuralError, match="duplicate entry"):
        parse_lexicon(text, ont)


# -- template choice against the full-lexicon scan ---------------------------------


def test_template_for_type_matches_scan_oracle():
    covered = {"donor below": 0, "no donor": 0, "no template": 0}
    for seed in range(60):
        rng = Random(seed)
        ontology = random_ontology(rng, rng.randrange(3, 30))
        lexicon = random_lexicon(rng, ontology)
        donor_types = {e.onto_type for w in lexicon.words() for e in lexicon.lookup(w)}
        for onto_type in ontology:
            has_donor = bool(donor_types.intersection(ontology.ancestors(onto_type)))
            for pos in (None, "N", "V", "ADJ", "P"):
                expected = template_for_type_oracle(lexicon, ontology, onto_type, pos)
                assert lexicon.template_for_type(onto_type, pos) == expected
                # the memoised answer repeats
                assert lexicon.template_for_type(onto_type, pos) == expected
                covered["donor below" if has_donor else "no donor"] += 1
                covered["no template"] += expected is None
    # the seeds reach types with and without a donor, and pairs with no
    # template at all
    assert min(covered.values()) > 100, covered


def test_template_for_type_deepest_donor_then_name(mini):
    ont, lex, _ = mini
    assert lex.template_for_type("cook-type", "V").name == "tv"
    assert lex.template_for_type("freshwater-fish", None).name == "n"
    assert lex.template_for_type("freshwater-fish", "V") is None
