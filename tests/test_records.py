import pytest

from senseparse.advice import (
    SentenceRecord,
    load_advice,
    load_corpus,
    parse_advice,
    parse_corpus,
)
from senseparse.errors import FormatError, StructuralError
from senseparse.evaluation import (
    PreparedSentence,
    Resources,
    ScoreReport,
    VariantConfig,
    VariantRow,
)
from senseparse.hinting import Hint
from senseparse.lexicon import LexicalEntry, SyntacticTemplate, parse_lexicon
from senseparse.ontology import FactorizedOntology, OntologyType, RoleSpec, parse_ontology
from senseparse.parser import (
    Grammar,
    GrammarRule,
    LFNode,
    LogicalForm,
    ParserConfig,
    ParseResult,
    Token,
    parse_grammar,
)
from senseparse.sensemap import SenseDistribution, Synset, parse_synsets

MINI_ONTOLOGY = parse_ontology("type root parent -\n")

PARSERS = {
    "ontology": parse_ontology,
    "synsets": parse_synsets,
    "lexicon": lambda text, source: parse_lexicon(text, MINI_ONTOLOGY, source=source),
    "grammar": parse_grammar,
    "corpus": parse_corpus,
    "advice": parse_advice,
}

# (format, text, line of the bad record, token the message must name)
MALFORMED = [
    ("ontology", "type root parent -\n\ntype a parent root roles\n", 3, "roles"),
    ("ontology", "type root parent - colour red\n", 1, "colour"),
    ("ontology", "type root parent - parent root\n", 1, "parent"),
    ("ontology", "type root parent -\n\ntype a parent root roles agent\n", 3, "agent"),
    ("ontology", "type root parent - features big\n", 1, "big"),
    ("synsets", "synset a.n lemmas\n", 1, "lemmas"),
    ("synsets", "synset a.n glosses x\n", 1, "glosses"),
    ("synsets", "synset a.n lemmas a lemmas b\n", 1, "lemmas"),
    ("lexicon", "template n cat N slots\n", 1, "slots"),
    ("lexicon", "template n cat N slots -\nentry w cat N template n type root colour red\n", 2, "colour"),
    ("lexicon", "template n cat N slots -\nentry w cat N cat N template n type root\n", 2, "cat"),
    ("lexicon", "template n cat N slots -\nentry w cat N template n type root freq often\n", 2, "often"),
    ("lexicon", "template n cat N slots -\nentry w cat N template n type root freq nan\n", 2, "nan"),
    ("lexicon", "template tv cat V slots subj\n", 1, "subj"),
    ("grammar", "rule NP -> N head 0 weight\n", 1, "weight"),
    ("grammar", "rule NP -> N head 0 colour red weight 1\n", 1, "colour"),
    ("grammar", "rule NP -> N head 0 head 0 weight 1\n", 1, "head"),
    ("grammar", "rule NP -> N head zero weight 1\n", 1, "zero"),
    ("grammar", "rule NP -> N head 0 weight heavy\n", 1, "heavy"),
    ("grammar", "rule S -> NP VP head 1 weight 1 link agent\n", 1, "agent"),
    ("grammar", "rule S -> NP VP head 1 weight 1 link x:agent\n", 1, "x"),
    ("corpus", "sentence s\ntok 0 a 4 i i PRO\n", 2, "a"),
    ("corpus", "sentence s\ntok 0 5 3 i i PRO\n", 2, "5 3"),
    ("corpus", "sentence s\ntok 7 0 4 i i PRO\n", 2, "7"),
    ("corpus", "sentence s\ntok 0 0 4 i i PRO silver=x\n", 2, "silver=x"),
    ("advice", "advice s 0 x w a.n=1.0\n", 1, "x"),
    ("advice", "advice s 4 4 w a.n=1.0\n", 1, "4 4"),
    ("advice", "advice s 0 4 w a.n=high\n", 1, "high"),
    ("advice", "advice s 0 4 w a.n=nan\n", 1, "nan"),
    ("advice", "advice s 0 4 w a.n\n", 1, "a.n"),
    ("advice", "advice s 0 4 w a.n=0.5,a.n=0.5\n", 1, "a.n"),
    ("ontology", "type root\n", 1, "parent"),
    ("lexicon", "lemma w\n", 1, "lemma"),
    ("lexicon", "template\n", 1, "template"),
    ("lexicon", "template n slots -\n", 1, "cat"),
    ("lexicon", "default-template N\n", 1, "default-template"),
    ("lexicon", "template n cat N slots -\ndefault-template N n\ndefault-template N n\n", 3, "N"),
    ("lexicon", "entry\n", 1, "entry"),
    ("lexicon", "template n cat N slots -\nentry w cat N type root\n", 2, "template"),
    ("grammar", "rule S NP\n", 1, "rule"),
    ("grammar", "rule S -> NP head 0\n", 1, "weight"),
    ("grammar", "rule S -> head 0 weight 1\n", 1, "right-hand side"),
    ("grammar", "rule S -> NP VP head 1 weight 1 link 2:agent\n", 1, "daughter 2"),
    ("corpus", "para s\n", 1, "para"),
    ("corpus", "sentence\n", 1, "sentence"),
    ("corpus", "sentence s\ntok 0 0 4 i i\n", 2, "tok"),
    ("corpus", "sentence s\ntok 0 0 4 i i PRO gold=\n", 2, "gold"),
    ("advice", "advice s 0 4 w\n", 1, "advice"),
    ("advice", "advice s 0 4 w -\n", 1, "w"),
    ("grammar", "rules S -> NP head 0 weight 1\n", 1, "rule"),
    ("grammar", "rule S -> NP\n", 1, "weight"),
    ("grammar", "rule S -> NP head 1 weight 1\n", 1, "head index"),
    ("grammar", "rule S -> NP head 0 weight 0\n", 1, "weight"),
    ("lexicon", "template n\n", 1, "missing cat"),
    ("lexicon", "template n cat N slots -\nentry w\n", 2, "missing cat"),
    ("synsets", "synonym a.n lemmas a\n", 1, "synonym"),
    ("lexicon", "template t cat V slots subj:agent:x\n", 1, "subj:agent:x"),
    ("lexicon", "template t cat V slots subj:\n", 1, "subj:"),
    ("corpus", "sentence s00\nsentence s01\ntok 0 0 1 i i PRO\n", 1, "s00"),
    ("lexicon", "template n cat N slots -\nentry w cat N template n type root freq 1.5\n", 2, "1.5"),
    # an empty list item, in each format that reads lists
    ("ontology", "type root parent - synsets a.n,,b.n\n", 1, "a.n,,b.n"),
    ("synsets", "synset a.n lemmas a, hypernyms -\n", 1, "a,"),
    ("lexicon", "template tv cat V slots ,subj:agent\n", 1, ",subj:agent"),
    ("grammar", "rule S -> NP VP head 1 weight 1 link 0:agent,\n", 1, "0:agent,"),
    ("advice", "advice s 0 4 w a.n=0.5,,b.n=0.5\n", 1, "a.n=0.5,,b.n=0.5"),
    ("ontology", "typo animal parent -\n", 1, "typo"),
    ("ontology", "type\n", 1, "got 'type'"),
    # one record per line: a line that does not open a type record, as a
    # pair wrapped onto the next line would, is named by its own line
    ("ontology", "type root parent -\n\ntype a parent root\n  roles agent\n", 4, "agent"),
    ("ontology", "type root parent -\n\ntype a parent root\n  synsets x,,y\n", 4, "x,,y"),
    ("ontology", "type root parent -\n\ntype a parent\n  root\n", 3, "dangling key 'parent'"),
    # an entry that breaks a structural check is named by its own line
    ("lexicon", "entry w cat N template n type root\n", 1, "missing template n"),
    ("lexicon", "template n cat N slots -\nentry w cat N template n type sort\n", 2, "missing type sort"),
    ("lexicon", "template tv cat V slots 0:agent\nentry w cat V template tv type root\n", 2, "tv"),
    ("lexicon", "template n cat N slots -\nentry w cat N template n type root\n"
     "entry x cat N template n type root\nentry w cat N template n type root\n", 4, "w/n/root"),
    # a pair that follows its type on the next line is a record of its own
    ("ontology", "type root parent -\n\ntype a parent root\n  parent root\n", 4, "got 'parent root'"),
    # a synset that breaks a structural check is named by its own line
    ("synsets", "synset a.n hypernyms b.n\n", 1, "missing hypernym b.n"),
    ("synsets", "synset a.n lemmas - hypernyms -\nsynset a.n lemmas - hypernyms -\n", 2,
     "duplicate synset a.n"),
    ("synsets", "synset a.n hypernyms b.n\nsynset b.n hypernyms a.n\n", 1,
     "hypernym cycle involving a.n"),
    # a type line whose pairs sit on the next line is missing its parent
    ("ontology", "type root parent -\n\ntype a\n  parent ghost\n", 3, "a missing parent"),
    # a lexicon template or default that breaks a structural check is named
    # by its own line, wherever its line sits among the other records
    ("lexicon", "template n cat N slots -\ntemplate n cat N slots -\n", 2, "duplicate template n"),
    ("lexicon", "default-template N n\n", 1, "default template n not declared"),
    ("lexicon", "default-template N v\ntemplate n cat N slots -\ntemplate v cat V slots -\n", 1,
     "default template v has category V, not N"),
    ("lexicon", "template n cat N slots -\nentry w cat N template n type root\n"
     "default-template N n\nentry x cat N template m type root\n", 4, "missing template m"),
    # a rule has at most three daughters, and links a daughter to a role once
    ("grammar", "rule S -> NP VP head 1 weight 1\nrule S -> A B C D head 0 weight 1\n", 2,
     "three daughters"),
    ("grammar", "rule S -> NP VP head 1 weight 1 link 0:agent,0:agent\n", 1,
     "daughter 0 to agent twice"),
    # a role, like a template slot, has no empty part
    ("ontology", "type root parent -\n\ntype a parent root roles :root\n", 3, "bad role ':root'"),
    ("ontology", "type root parent -\n\ntype a parent root roles agent:\n", 3, "bad role 'agent:'"),
    ("ontology", "type root parent -\n\ntype a parent root roles agent::required\n", 3,
     "bad role 'agent::required'"),
    ("ontology", "type root parent - roles agent:root:always\n", 1, "bad role 'agent:root:always'"),
    # an advised synset has a name
    ("advice", "advice s01 13 17 bass =1.0\n", 1, "bad weight '=1.0'"),
    # the reader checks a distribution's weights
    ("advice", "advice s 0 4 w a.n=0.5,b.n=-0.1\n", 1, "negative weight for b.n"),
    # the grammar checks its rules once all of them are read, so a format
    # error on a later line wins over a rule an earlier line gets wrong
    ("grammar", "rule S -> NP head 1 weight 1\nrule NP -> N head zero weight 1\n", 2, "zero"),
]


@pytest.mark.parametrize(
    "fmt,text,lineno,token",
    MALFORMED,
    ids=[f"{fmt}-{i}-{token.replace(' ', '_')}" for i, (fmt, _, _, token) in enumerate(MALFORMED)],
)
def test_malformed_record_names_file_line_and_token(fmt, text, lineno, token):
    with pytest.raises(FormatError) as err:
        PARSERS[fmt](text, source="src.txt")
    message = str(err.value)
    assert f"src.txt:{lineno}:" in message
    assert token in message.split(":", 2)[2]


def test_nan_advice_weight_is_rejected_with_its_line(fixtures_dir, tmp_path):
    text = (fixtures_dir / "advice.txt").read_text(encoding="utf-8")
    bad = tmp_path / "advice.txt"
    bad.write_text(text.replace("bass_guitar.n.01=1.0", "bass_guitar.n.01=nan", 1))
    with pytest.raises(FormatError) as err:
        load_advice(bad)
    assert str(err.value) == f"{bad}:4: non-finite probability 'nan'"


def test_a_file_with_a_byte_order_mark_reads_as_without_it(fixtures_dir, tmp_path):
    text = (fixtures_dir / "corpus.txt").read_text(encoding="utf-8")
    marked = tmp_path / "corpus.txt"
    marked.write_text("\ufeff" + text, encoding="utf-8")
    assert load_corpus(marked) == load_corpus(fixtures_dir / "corpus.txt")


def test_parse_corpus_reads_sentences_tokens_and_gold():
    corpus = parse_corpus(
        "# comment\n"
        "sentence s1\n"
        "tok 0 0 1 I i PRO\n"
        "tok 1 2 8 played play V gold=play.v.03\n"
        "\n"
        "sentence s2\n"
        "tok 0 0 3 you you PRO\n"
    )
    assert [s.sentence_id for s in corpus] == ["s1", "s2"]
    first = corpus[0].tokens
    assert [(t.start, t.end) for t in first] == [(0, 1), (2, 8)]
    assert (first[0].surface, first[0].lemma, first[0].pos, first[0].gold) == (
        "I", "i", "PRO", None,
    )
    assert first[1].gold == "play.v.03"
    assert len(corpus[1].tokens) == 1


def test_parse_corpus_rejects_repeated_id_and_orphan_tok():
    with pytest.raises(FormatError, match="repeated sentence id s1"):
        parse_corpus("sentence s1\nsentence s1\n")
    with pytest.raises(FormatError, match="before any sentence"):
        parse_corpus("tok 0 0 1 i i PRO\n")


def test_parse_advice_groups_distributions_by_sentence():
    advice = parse_advice(
        "advice s1 13 17 bass bass_guitar.n.01=0.7,bass.n.07=0.2\n"
        "# comment\n"
        "advice s2 0 4 drum drum.n.01=1.0\n"
        "advice s1 0 1 i person.n.01=1.0\n"
    )
    assert sorted(advice) == ["s1", "s2"]
    bass, pronoun = advice["s1"]
    assert (bass.word, bass.span) == ("bass", (13, 17))
    assert dict(bass.weights) == {"bass_guitar.n.01": 0.7, "bass.n.07": 0.2}
    assert pronoun.word == "i"
    assert dict(advice["s2"][0].weights) == {"drum.n.01": 1.0}


def test_parse_advice_rejects_mass_above_one():
    with pytest.raises(FormatError, match="src.txt:1: weights for w sum to"):
        parse_advice("advice s 0 4 w a.n=0.7,b.n=0.7\n", source="src.txt")


@pytest.mark.parametrize(
    "weights",
    ["a.n=0.0", f"a.n={1.0 + 1e-9!r}", "a.n=0.4"],
    ids=["zero-weight", "slack-above-one", "truncated-mass"],
)
def test_parse_advice_accepts_mass_up_to_one_and_its_slack(weights):
    (dist,) = parse_advice(f"advice s 0 4 w {weights}\n")["s"]
    assert dist == SenseDistribution("w", (0, 4), {"a.n": float(weights[4:])}, 1)


# a rule that a directly built grammar rejects, and the message naming it
BAD_RULES = [
    (GrammarRule("S", (), 0), "rule S has empty right-hand side"),
    (GrammarRule("S", ("A", "B", "C", "D"), 0), "rule S has more than three daughters"),
    (GrammarRule("S", ("A",), 1), "rule S head index out of range"),
    (GrammarRule("S", ("A",), -1), "rule S head index out of range"),
    (GrammarRule("S", ("A", "B"), 0, ((2, "agent"),)), "rule S links missing daughter 2"),
    (GrammarRule("S", ("A", "B"), 1, ((-1, "agent"),)), "rule S links missing daughter -1"),
    (GrammarRule("S", ("A", "B"), 0, ((0, "agent"),)), "rule S links role agent to its head"),
    (GrammarRule("S", ("A", "B"), 0, ((1, "agent"), (1, "agent"))),
     "rule S links daughter 1 to agent twice"),
    (GrammarRule("S", ("A",), 0, (), 0.0), "rule S weight must be in (0, 1]"),
    (GrammarRule("S", ("A",), 0, (), 1.5), "rule S weight must be in (0, 1]"),
]


@pytest.mark.parametrize(
    "rule, message",
    BAD_RULES,
    ids=[f"{i}-{message.replace(' ', '_')}" for i, (_, message) in enumerate(BAD_RULES)],
)
def test_grammar_rejects_a_rule_with_its_position(rule, message):
    # the rule before it links a daughter to two roles and weighs exactly 1
    good = GrammarRule("S", ("A", "B", "C"), 2, ((0, "agent"), (0, "theme")), 1.0)
    with pytest.raises(StructuralError) as err:
        Grammar([good, rule])
    assert str(err.value) == message
    assert err.value.index == 1
    assert Grammar([good]).rules == (good,)


# a record set that reads cleanly but breaks a structural invariant; the
# error names the file even though the text was passed in directly
STRUCTURAL = [
    ("ontology", "type a parent b\n\ntype b parent a\n", "no root"),
    ("ontology", "type r1 parent -\n\ntype r2 parent -\n", "multiple roots: r1, r2"),
]


@pytest.mark.parametrize("fmt, text, problem", STRUCTURAL)
def test_structural_error_names_its_source(fmt, text, problem):
    with pytest.raises(StructuralError, match=f"^src.txt: .*{problem}"):
        PARSERS[fmt](text, source="src.txt")


# -- record types -----------------------------------------------------------------

TOKEN_FIELDS = ("start", "end", "surface", "lemma", "pos", "gold", "line")

# records that validate nothing: (type, field names in order, defaults)
NAMED_TUPLES = [
    (Token, TOKEN_FIELDS, {"gold": None, "line": None}),
    (SentenceRecord, ("sentence_id", "tokens"), {}),
    (Synset, ("id", "lemmas", "hypernyms"), {"lemmas": frozenset(), "hypernyms": frozenset()}),
    (OntologyType, ("name", "parent", "roles", "synsets"), {"roles": (), "synsets": frozenset()}),
    (RoleSpec, ("name", "restriction", "required"), {"required": False}),
    (FactorizedOntology, ("factor_of", "factors"), {}),
    (SyntacticTemplate, ("name", "category", "roles"), {"roles": ()}),
    (LexicalEntry, ("word", "template", "onto_type", "score"), {}),
    (Hint, ("word", "token", "onto_type", "score"), {}),
    (LFNode, ("word", "onto_type"), {}),
    (LogicalForm, ("nodes", "edges"), {}),
    (ParseResult, ("spanning", "fragments", "logical_form", "agenda_pops"), {}),
    (
        PreparedSentence,
        ("sentence", "entries", "advice_map", "dropped", "entry_notes", "advice_notes"),
        {},
    ),
    (
        VariantRow,
        ("variant", "f_score", "wu_palmer", "semfac", "frag", "attempted", "scored",
         "dropped_advice"),
        {},
    ),
    (
        GrammarRule,
        ("lhs", "rhs", "head_index", "role_links", "weight"),
        {"role_links": (), "weight": 1.0},
    ),
    (SenseDistribution, ("word", "span", "weights", "line"), {"line": None}),
    (Resources, ("ontology", "graph", "lexicon", "grammar"), {}),
    (ScoreReport, ("rows",), {}),
]


# the token type the corpus reader builds, checked under the name of the
# reader's own token record that ``Token`` replaced
CORPUS_TOKEN = (
    type(parse_corpus("sentence s\ntok 0 0 1 a a DT\n")[0].tokens[0]),
    TOKEN_FIELDS,
    {"gold": None, "line": None},
)


@pytest.mark.parametrize(
    "record_type, names, defaults",
    [*NAMED_TUPLES, CORPUS_TOKEN],
    ids=[*(t.__name__ for t, _, _ in NAMED_TUPLES), "CorpusToken"],
)
def test_record_without_checks_is_an_immutable_named_tuple(record_type, names, defaults):
    assert record_type._fields == names
    assert record_type._field_defaults == defaults
    values = {name: f"v{i}" for i, name in enumerate(names)}
    record = record_type(**values)
    assert record == record_type(*values.values())
    # each field reads its own value
    assert [getattr(record, name) for name in names] == list(values.values())
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, "changed")
    required = {name: v for name, v in values.items() if name not in defaults}
    assert record_type(**required)._asdict() == {**values, **defaults}



# records that check their values: (type, required values, the defaults, bad
# values); each is a named tuple subclass that checks in ``__new__``
VALIDATED = [
    (
        ParserConfig,
        {},
        {"beam_width": 3, "max_pops": None, "accept_threshold": 0.0},
        [{"beam_width": 0}, {"beam_width": 2.5}, {"beam_width": True}, {"max_pops": 0},
         {"max_pops": 2.5}, {"max_pops": True}, {"accept_threshold": -0.1},
         {"accept_threshold": 1.5}, {"accept_threshold": "0.5"}],
    ),
    (
        VariantConfig,
        {"variant": "plain"},
        {"alpha": 0.5, "parser": ParserConfig()},
        [{"variant": "best"}, {"alpha": -0.1}, {"alpha": 1.5}, {"alpha": "0.5"}],
    ),
]


@pytest.mark.parametrize(
    "record_type, required, defaults, bad", VALIDATED, ids=[t.__name__ for t, *_ in VALIDATED]
)
def test_record_with_checks_checks_every_build_and_is_immutable(
    record_type, required, defaults, bad
):
    assert record_type._fields == (*required, *defaults)
    assert record_type._field_defaults == defaults
    record = record_type(**required)
    assert record._asdict() == {**required, **defaults}
    assert record == record_type(*required.values())
    assert type(record) is record_type
    for name in record_type._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.other = 1
    for values in bad:
        fields = {**record._asdict(), **values}
        # the message names the field at fault
        (name,) = values
        with pytest.raises(ValueError, match=name):
            record_type(**fields)
        with pytest.raises(ValueError, match=name):
            record_type(*fields.values())
        # ``_make`` and ``_replace`` build the tuple without ``__new__``
        assert record_type._make(fields.values())._asdict() == fields
        assert record._replace(**values)._asdict() == fields
