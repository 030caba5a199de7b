from random import Random

import pytest

from oracles import random_lexicon, random_ontology, template_for_type_oracle
from senseparse.diagnostics import Diagnostics
from senseparse.errors import FormatError, StructuralError
from senseparse.lexicon import ENTRY_KEEP, LexicalEntry, Lexicon, SyntacticTemplate, parse_lexicon
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
    [entry] = lex.lookup("cook", "V")
    assert entry.score == 0.8


def test_generated_score_compatible(mini):
    _, lex, graph = mini
    [entry] = lex.generate_entries("trout", "N", graph)
    assert entry.score == 0.5


def test_freq_pulls_score(mini):
    _, lex, _ = mini
    scores = {e.onto_type: e.score for e in lex.lookup("bass", "N")}
    high, low = scores["freshwater-fish"], scores["musical-instrument"]  # freq 0.9, 0.1
    assert high > 0.8 > low
    assert high == 0.75 * 0.8 + 0.25 * 0.9


def test_freq_bounds_are_inclusive(mini):
    ont, _, _ = mini
    for freq in (0.0, 1.0):
        text = f"template n cat N slots -\nentry w cat N template n type root freq {freq}\n"
        [entry] = parse_lexicon(text, ont).lookup("w", "N")
        assert entry.score == pytest.approx(0.75 * 0.8 + 0.25 * freq)


def test_template_slot_with_a_second_colon_is_rejected(mini):
    # no ontology role can match "agent:x", so the slot itself is malformed
    ont, _, _ = mini
    with pytest.raises(FormatError, match=r"^lex.txt:2: bad slot 'subj:agent:x' in template t$"):
        parse_lexicon("template n cat N slots -\ntemplate t cat V slots subj:agent:x\n", ont, "lex.txt")


# -- generation ------------------------------------------------------------------


def test_generate_entries_for_unlisted_word(mini):
    _, lex, graph = mini
    entries = lex.generate_entries("trout", "N", graph)
    assert [e.onto_type for e in entries] == ["freshwater-fish"]
    assert entries[0].template == "n"


def test_generate_suppresses_core_duplicates(mini):
    _, lex, graph = mini
    assert lex.generate_entries("bass", "N", graph) == []


def test_generate_unknown_word_yields_nothing(mini):
    _, lex, graph = mini
    assert lex.generate_entries("qwerty", "N", graph) == []


def test_generate_unmapped_senses_yield_nothing(mini):
    _, lex, graph = mini
    assert lex.generate_entries("mystery", "N", graph) == []


def test_generate_notes_a_sense_no_template_fits(mini):
    # trout maps to freshwater-fish, whose only donor builds N, and there is
    # no default V template
    _, lex, graph = mini
    diag = Diagnostics()
    assert lex.generate_entries("trout", "V", graph, diag) == []
    assert diag.lines() == ["no-template trout freshwater-fish (pos V)"]


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
            effective = resources.ontology.effective_roles[entry.onto_type]
            assert all(role in effective for role in template.roles)


# -- pruning ---------------------------------------------------------------------


def candidates(mini, *entry_lines, word="w"):
    """``candidate_entries`` of ``word`` (pos N) in a lexicon of two slotless
    N templates, ``n`` and ``n2``, and the given entry lines."""
    ont, _, graph = mini
    text = "template n cat N slots -\ntemplate n2 cat N slots -\n"
    lex = parse_lexicon(text + "".join(f"entry {line}\n" for line in entry_lines), ont)
    return lex.candidate_entries(word, "N", graph)


def test_prune_keeps_top_k(mini):
    types = ("root", "animate", "action", "phys-obj", "referential-sem", "cook-type")
    freqs = (0.9, 0.2, 0.7, 0.4, 0.6, 0.1)
    kept = candidates(
        mini, *(f"w cat N template n type {t} freq {f}" for t, f in zip(types, freqs))
    )
    assert len(kept) == ENTRY_KEEP == 4
    assert [e.onto_type for e in kept] == ["root", "action", "referential-sem", "phys-obj"]


def test_prune_underfull_keeps_all(mini):
    kept = candidates(
        mini, "w cat N template n type root freq 0.3", "w cat N template n type animate"
    )
    assert [(e.onto_type, e.score) for e in kept] == [
        ("animate", 0.8), ("root", 0.75 * 0.8 + 0.25 * 0.3),
    ]


def test_prune_tie_break_by_type_then_template(mini):
    kept = candidates(
        mini,
        "w cat N template n2 type root",
        "w cat N template n type root",
        "w cat N template n2 type animate",
    )
    assert [(e.onto_type, e.template) for e in kept] == [
        ("animate", "n2"), ("root", "n"), ("root", "n2"),
    ]


@pytest.mark.parametrize("freq", [0.0, 1.0])
def test_core_entry_outscores_a_generated_one_at_any_freq(mini, freq):
    # trout's synset maps to freshwater-fish, which sorts before root: only
    # the score puts the core entry first
    [core, generated] = candidates(
        mini, f"trout cat N template n type root freq {freq}", word="trout"
    )
    assert (core.onto_type, generated.onto_type) == ("root", "freshwater-fish")
    assert core.score > generated.score


# -- file validation ----------------------------------------------------------------


def test_entry_with_missing_template_rejected(mini):
    ont, _, _ = mini
    with pytest.raises(FormatError, match="^<string>:1: entry w references missing template ghost$"):
        parse_lexicon("entry w cat N template ghost type root\n", ont)


def test_entry_with_missing_type_rejected(mini):
    ont, _, _ = mini
    with pytest.raises(FormatError, match="^<string>:2: entry w references missing type ghost$"):
        parse_lexicon("template n cat N slots -\nentry w cat N template n type ghost\n", ont)


def test_template_roles_must_exist_on_entry_type(mini):
    ont, _, _ = mini
    text = (
        "template tv cat V slots subj:agent,obj:affected\n"
        "entry w cat V template tv type phys-obj\n"
    )
    with pytest.raises(FormatError, match="^<string>:2: template tv names roles absent from phys-obj$"):
        parse_lexicon(text, ont)


def test_entry_category_must_match_template(mini):
    ont, _, _ = mini
    text = "template n cat N slots -\nentry w cat V template n type root\n"
    with pytest.raises(FormatError, match="declares cat V"):
        parse_lexicon(text, ont)


def test_default_template_category_checked(mini):
    ont, _, _ = mini
    text = "template n cat N slots -\ndefault-template V n\n"
    with pytest.raises(FormatError, match="^<string>:2: default template n has category N, not V$"):
        parse_lexicon(text, ont)


NOUN = SyntacticTemplate("n", "N")


# (templates, defaults, entries, message, index): the index counts the
# templates, then the defaults, then the entries
DIRECT_FAULTS = [
    ((NOUN, NOUN), {}, (), "duplicate template n", 1),
    ((NOUN,), {"N": "v"}, (), "default template v not declared", 1),
    ((NOUN,), {"V": "n"}, (), "default template n has category N, not V", 1),
    ((NOUN,), {"N": "n"}, (LexicalEntry("w", "v", "root", 0.8),),
     "entry w references missing template v", 2),
]


@pytest.mark.parametrize(
    "templates, defaults, entries, message, index",
    DIRECT_FAULTS,
    ids=[message.replace(" ", "_") for _, _, _, message, _ in DIRECT_FAULTS],
)
def test_direct_construction_names_the_record_at_fault(
    mini, templates, defaults, entries, message, index
):
    ont, _, _ = mini
    with pytest.raises(StructuralError, match=f"^{message}$") as raised:
        Lexicon(templates, entries, defaults, ont)
    assert raised.value.index == index


def test_duplicate_entry_rejected(mini):
    ont, _, _ = mini
    text = (
        "template n cat N slots -\n"
        "entry w cat N template n type root\n"
        "entry w cat N template n type root\n"
    )
    with pytest.raises(FormatError, match="^<string>:3: duplicate entry w/n/root$"):
        parse_lexicon(text, ont)


# -- template choice against the full-lexicon scan ---------------------------------


def test_template_for_type_matches_scan_oracle():
    covered = {"donor below": 0, "no donor": 0, "no template": 0}
    for seed in range(60):
        rng = Random(seed)
        ontology = random_ontology(rng, rng.randrange(3, 30))
        lexicon, entries = random_lexicon(rng, ontology)
        donor_types = {e.onto_type for e in entries}
        for onto_type in ontology:
            has_donor = bool(donor_types.intersection(ontology.ancestors[onto_type]))
            for pos in (None, "N", "V", "ADJ", "P"):
                expected = template_for_type_oracle(lexicon, entries, ontology, onto_type, pos)
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
