import pytest

from senseparse.advice import load_advice, parse_advice, parse_corpus
from senseparse.errors import FormatError
from senseparse.lexicon import parse_lexicon
from senseparse.ontology import parse_ontology
from senseparse.parser import parse_grammar
from senseparse.sensemap import parse_synsets

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
    assert [(t.index, t.start, t.end) for t in first] == [(0, 0, 1), (1, 2, 8)]
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
