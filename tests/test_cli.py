import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from senseparse import cli, evaluation
from senseparse.cli import build_arg_parser, main, parse_args
from senseparse.evaluation import VariantConfig
from senseparse.parser import Token


@pytest.fixture
def resource_args(fixtures_dir):
    args = []
    for name in ("ontology", "synsets", "lexicon", "grammar"):
        args += [f"--{name}", str(fixtures_dir / f"{name}.txt")]
    return args


def test_parse_exit_code_zero_for_spanning_parse(resource_args, tmp_path):
    out = tmp_path / "lf.txt"
    code = main(["parse", *resource_args, "--sentence", "i/PRO cooked/cook/V the/DET bass/N",
                 "--output", str(out)])
    assert code == 0
    assert "node 3 3 4 bass freshwater-fish" in out.read_text().splitlines()


def test_parse_exit_code_two_for_fragmented_parse(resource_args, tmp_path):
    # an unknown word gets no entry, so only a fallback fragment covers it
    out = tmp_path / "lf.txt"
    code = main(["parse", *resource_args, "--sentence", "i/PRO cooked/cook/V the/DET xyzzy/N",
                 "--output", str(out)])
    assert code == 2
    assert "node 3 3 4 xyzzy referential-sem" in out.read_text().splitlines()


@pytest.mark.parametrize("sentence", ["bass/N", "the/DET bass/N"])
def test_parse_exit_code_two_when_no_goal_category_spans(resource_args, tmp_path, sentence):
    # a bare noun or noun phrase covers the input but is not an S
    code = main(["parse", *resource_args, "--sentence", sentence,
                 "--output", str(tmp_path / "lf.txt")])
    assert code == 2


def test_parse_reads_bare_tokens_and_writes_to_stdout(resource_args, capsys):
    # a bare token's lemma is its lowercased surface, with no POS
    assert main(["parse", *resource_args, "--sentence", "I cooked the bass"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "node 0 0 1 i person"
    assert "edge 1 affected 3" in lines


@pytest.mark.parametrize("text, surface, lemma, pos", [
    ("Bass", "Bass", "bass", None),
    ("Bass/N", "Bass", "bass", "N"),
    ("Bass/bass_guitar/N", "Bass", "bass_guitar", "N"),
])
def test_tokens_read_surface_lemma_and_pos(text, surface, lemma, pos):
    # the surface is what advice records are matched against
    token = cli._tokenize_sentence(f"i {text}")[1]
    assert token == Token(2, 2 + len(text), surface, lemma, pos)


def test_parse_rejects_a_sentence_without_tokens(resource_args, capsys):
    assert main(["parse", *resource_args, "--sentence", "   "]) == 1
    assert capsys.readouterr().err == "senseparse: error: no tokens in sentence\n"


@pytest.mark.parametrize(
    "sentence, index, token",
    [
        ("i/PRO cooked/cook/V the/DET /N", 3, "/N"),
        ("i/PRO played//V the/DET bass/N", 1, "played//V"),
        ("i/PRO cooked/cook/V the/DET bass/", 3, "bass/"),
        ("i cooked the a/b/c/d", 3, "a/b/c/d"),
        ("i/PRO /cook/V", 1, "/cook/V"),
    ],
)
def test_parse_rejects_a_malformed_token(resource_args, tmp_path, capsys, sentence, index, token):
    # an empty part, or more parts than surface/lemma/POS, fails before any output
    out = tmp_path / "lf.txt"
    assert main(["parse", *resource_args, "--sentence", sentence, "--output", str(out)]) == 1
    assert f"token {index} '{token}'" in capsys.readouterr().err
    assert not out.exists()


def test_exit_code_one_for_missing_file(resource_args, tmp_path, capsys):
    args = list(resource_args)
    args[args.index("--ontology") + 1] = str(tmp_path / "missing.txt")
    assert main(["parse", *args, "--sentence", "i/PRO"]) == 1
    assert "missing.txt" in capsys.readouterr().err


def test_exit_code_one_for_unknown_variant(resource_args, fixtures_dir, capsys):
    code = main(["eval", *resource_args, "--corpus", str(fixtures_dir / "corpus.txt"),
                 "--variants", "plain,bogus"])
    assert code == 1
    assert "unknown variant bogus" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exited:
        main(["parse", *resource_args, "--sentence", "i/PRO", "--variant", "bogus"])
    assert exited.value.code == 1


def test_eval_reads_variant_as_its_own_variants_flag(resource_args, fixtures_dir, capsys):
    # --variant is parse's flag alone; eval reads it as argparse reads any
    # unique prefix of an option, here of --variants, so it is not ignored
    evaluate = ["eval", *resource_args, "--corpus", str(fixtures_dir / "corpus.txt")]
    assert "variant" not in vars(parse_args([*evaluate, "--variant", "fixed"]))
    assert main([*evaluate, "--variant", "fixed"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split("\t")[0] for row in rows] == ["fixed"]
    assert main([*evaluate, "--variant", "bogus"]) == 1
    assert "unknown variant bogus" in capsys.readouterr().err


def test_flag_defaults_are_the_library_defaults(resource_args):
    # with no parser flag, `parse` and `eval` run what VariantConfig and
    # ParserConfig default to
    for argv in (["parse", *resource_args], ["eval", *resource_args, "--corpus", "c"]):
        args = parse_args(argv)
        assert VariantConfig("plain", args.alpha, cli._parser_config(args)) == VariantConfig("plain")
    assert parse_args(["parse", *resource_args]).variant == "plain"


@pytest.mark.parametrize("flag, value, message", [
    ("--alpha", "1.5", "alpha must be in [0, 1]"),
    ("--alpha", "nan", "alpha must be in [0, 1]"),
    ("--beam-width", "0", "beam_width must be >= 1"),
    ("--max-pops", "0", "max_pops must be >= 1"),
    ("--accept-threshold", "1.5", "accept_threshold must be in [0, 1]"),
])
def test_exit_code_one_for_out_of_range_flag(
    resource_args, fixtures_dir, capsys, flag, value, message
):
    parse = ["parse", *resource_args, "--sentence", "i/PRO", flag, value]
    evaluate = ["eval", *resource_args, "--corpus", str(fixtures_dir / "corpus.txt"), flag, value]
    for argv in (parse, evaluate):
        assert main(argv) == 1
        assert f"senseparse: error: {message}" in capsys.readouterr().err


def renamed_s01_copy(fixtures_dir, tmp_path, name):
    """A copy of one fixture file with s01's synset bass_guitar.n.01 (the
    first in both the advice file, at its line 4, and the corpus file, at
    its line 8) renamed to no_such.n.01."""
    text = (fixtures_dir / name).read_text()
    path = tmp_path / name
    path.write_text(text.replace("bass_guitar.n.01", "no_such.n.01", 1))
    return str(path)


@pytest.mark.parametrize("name", ["advice.txt", "corpus.txt"])
def test_eval_rejects_unknown_synset_before_parsing(
    resource_args, fixtures_dir, tmp_path, capsys, name
):
    paths = {n: str(fixtures_dir / n) for n in ("corpus.txt", "advice.txt")}
    renamed = paths[name] = renamed_s01_copy(fixtures_dir, tmp_path, name)
    output = tmp_path / "report.tsv"
    code = main(["eval", *resource_args, "--corpus", paths["corpus.txt"],
                 "--advice", paths["advice.txt"], "--output", str(output)])
    assert code == 1
    where = {"advice.txt": f"{renamed}:4", "corpus.txt": f"{renamed}:8"}[name]
    assert capsys.readouterr().err == (
        f"senseparse: error: {where}: sentence s01: unknown synset no_such.n.01\n"
    )
    assert not output.exists()


def test_eval_rejects_a_sentence_without_tokens(resource_args, fixtures_dir, tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("sentence s00\n" + (fixtures_dir / "corpus.txt").read_text())
    output = tmp_path / "report.tsv"
    code = main(["eval", *resource_args, "--corpus", str(corpus),
                 "--advice", str(fixtures_dir / "advice.txt"), "--output", str(output)])
    assert code == 1
    assert capsys.readouterr().err == (
        f"senseparse: error: {corpus}:1: sentence s00 has no tok lines\n"
    )
    assert not output.exists()


def test_eval_checks_synsets_once(resource_args, fixtures_dir, tmp_path, monkeypatch):
    calls = []
    original = evaluation.check_synsets

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (cli, evaluation):
        monkeypatch.setattr(module, "check_synsets", counted)
    code = main(["eval", *resource_args, "--corpus", str(fixtures_dir / "corpus.txt"),
                 "--advice", str(fixtures_dir / "advice.txt"), "--variants", "plain",
                 "--output", str(tmp_path / "report.tsv")])
    assert code == 0
    assert len(calls) == 1


def test_parse_rejects_unknown_advice_synset(resource_args, fixtures_dir, tmp_path, capsys):
    advice = renamed_s01_copy(fixtures_dir, tmp_path, "advice.txt")
    output = tmp_path / "lf.txt"
    code = main(["parse", *resource_args, "--advice", advice, "--sentence-id", "s02",
                 "--sentence", "i/PRO", "--output", str(output)])
    assert code == 1
    assert capsys.readouterr().err == (
        f"senseparse: error: {advice}:4: sentence s01: unknown synset no_such.n.01\n"
    )
    assert not output.exists()


def test_parse_advice_without_a_record_for_the_sentence(
    resource_args, fixtures_dir, tmp_path, capsys
):
    # no --sentence-id: the default id "cli" names no record of the file
    advice = fixtures_dir / "advice.txt"
    output = tmp_path / "lf.txt"
    code = main(["parse", *resource_args, "--advice", str(advice), "--variant", "fixed",
                 "--sentence", "i/PRO played/play/V the/DET bass/N", "--output", str(output)])
    assert code == 1
    assert capsys.readouterr().err == (
        f"senseparse: error: {advice}: no advice for sentence cli\n"
    )
    assert not output.exists()

    # a named sentence with no records has nothing to advise, as in `eval`
    plain = tmp_path / "plain.txt"
    sentence = ["--variant", "fixed", "--sentence", "i/PRO played/play/V the/DET bass/N"]
    assert main(["parse", *resource_args, *sentence, "--output", str(plain)]) == 0
    assert main(["parse", *resource_args, "--advice", str(advice), "--sentence-id", "s99",
                 *sentence, "--output", str(output)]) == 0
    assert output.read_text() == plain.read_text()


def test_eval_rejects_advice_for_a_sentence_not_in_the_corpus(
    resource_args, fixtures_dir, tmp_path, capsys
):
    # a valid record for s99, which the corpus lacks, after s01's advice
    corpus = tmp_path / "corpus.txt"
    corpus.write_text((fixtures_dir / "corpus.txt").read_text())
    advice = tmp_path / "advice.txt"
    advice.write_text(
        (fixtures_dir / "advice.txt").read_text() + "advice s99 0 4 bass bass.n.07=1.0\n"
    )
    output, notes = tmp_path / "report.tsv", tmp_path / "diagnostics.txt"
    code = main(["eval", *resource_args, "--corpus", str(corpus), "--advice", str(advice),
                 "--output", str(output), "--diagnostics", str(notes)])
    assert code == 1
    assert capsys.readouterr().err == (
        f"senseparse: error: {advice}:34: sentence s99: not in corpus {corpus}\n"
    )
    assert not output.exists()
    assert not notes.exists()



# argv read by the one-subcommand parser and by the full parser: valid calls,
# abbreviations, help, and every kind of usage error, including leftovers
ARGV_CASES = [
    ["parse", "--ontology", "o", "--synsets", "s", "--lexicon", "l", "--grammar", "g"],
    ["parse", "--ontology", "o", "--synsets", "s", "--lexicon", "l", "--grammar", "g",
     "--variant", "pre", "--alpha", "0.9", "--beam-width", "1", "--sent", "a b", "--out", "x"],
    ["eval", "--ontology", "o", "--synsets", "s", "--lexicon", "l", "--grammar", "g",
     "--corpus", "c", "--variants", "plain,fixed", "--max-pops", "7"],
    ["factorize", "--ontology", "o"],
    ["map", "--ontology", "o", "--synsets", "s", "--output", "x"],
    ["parse", "--ontology", "o"],
    ["parse", "--ontology", "o", "--synsets", "s", "--lexicon", "l", "--grammar", "g",
     "--max-pops", "many"],
    ["parse", "--ontology", "o", "--synsets", "s", "--lexicon", "l", "--grammar", "g",
     "--variant", "nope"],
    ["parse", "--ontology", "o", "--synsets", "s", "--lexicon", "l", "--grammar", "g",
     "--corpus", "c"],
    ["factorize", "--ontology", "o", "stray", "--", "x"],
    ["map", "--ontology"],
    ["parse", "-h"],
    ["eval", "--help"],
    ["-h"],
    [],
    ["frobnicate", "--ontology", "o"],
    ["--ontology", "o", "parse"],
]


def _outcome(read, argv, capsys):
    try:
        result = vars(read(argv))
    except SystemExit as exited:
        result = exited.code
    return result, capsys.readouterr()


@pytest.mark.parametrize("argv", ARGV_CASES, ids=[" ".join(a) or "-" for a in ARGV_CASES])
def test_parse_args_reads_argv_as_the_full_parser_does(argv, capsys):
    expected = _outcome(build_arg_parser().parse_args, argv, capsys)
    assert _outcome(parse_args, argv, capsys) == expected


def test_well_formed_call_builds_only_its_subcommand(resource_args, tmp_path, monkeypatch):
    def full_parser():
        raise AssertionError("built the parser of every subcommand")

    monkeypatch.setattr(cli, "build_arg_parser", full_parser)
    code = main(["parse", *resource_args, "--sentence", "i/PRO cooked/cook/V the/DET bass/N",
                 "--output", str(tmp_path / "lf.txt")])
    assert code == 0


# The fixture `factorize` table: every type's factor, then every factor's
# parent and depth in the factor tree.
GOLDEN_FACTORIZE = (
    "type abstract-obj factor root\n"
    "type action factor action\n"
    "type animal factor animate\n"
    "type animate factor animate\n"
    "type artifact factor artifact\n"
    "type barrel factor artifact\n"
    "type bird factor animate\n"
    "type body-part factor root\n"
    "type bread factor root\n"
    "type chain-artifact factor artifact\n"
    "type cheese factor root\n"
    "type composition factor root\n"
    "type container factor artifact\n"
    "type cook-action factor action\n"
    "type discuss-action factor discuss-action\n"
    "type drum factor artifact\n"
    "type electric-bass factor artifact\n"
    "type fish factor animate\n"
    "type food factor root\n"
    "type freshwater-fish factor animate\n"
    "type hammer factor artifact\n"
    "type horn-growth factor root\n"
    "type horn-instrument factor artifact\n"
    "type idea-type factor root\n"
    "type musical-instrument factor artifact\n"
    "type perceive-action factor action\n"
    "type person factor animate\n"
    "type phys-obj factor root\n"
    "type pipe-instrument factor artifact\n"
    "type pipe-tube factor artifact\n"
    "type plan-type factor root\n"
    "type play-music factor action\n"
    "type recording factor artifact\n"
    "type referential-sem factor root\n"
    "type roost factor artifact\n"
    "type root factor root\n"
    "type saltwater-fish factor animate\n"
    "type situation factor root\n"
    "type strike-action factor action\n"
    "type tool factor artifact\n"
    "factor action parent root depth 2\n"
    "factor animate parent root depth 2\n"
    "factor artifact parent root depth 2\n"
    "factor discuss-action parent action depth 3\n"
    "factor root parent - depth 1\n"
)


def test_fixture_factorize_matches_golden(fixtures_dir, tmp_path):
    out = tmp_path / "factors.txt"
    assert main(["factorize", "--ontology", str(fixtures_dir / "ontology.txt"),
                 "--output", str(out)]) == 0
    assert out.read_text() == GOLDEN_FACTORIZE


# The fixture `map` listing: each synset's type by subsumption, or NONE when
# no synset on its hypernym paths is mapped.  No subsumption is ambiguous,
# so nothing is noted.
GOLDEN_MAP = (
    "abstraction.n.01 -> NONE\n"
    "animal.n.01 -> animal\n"
    "artifact.n.01 -> artifact\n"
    "barrel.n.01 -> barrel\n"
    "bass.n.07 -> freshwater-fish\n"
    "bass_guitar.n.01 -> electric-bass\n"
    "bird.n.01 -> bird\n"
    "body_part.n.01 -> body-part\n"
    "bread.n.01 -> bread\n"
    "chain.n.01 -> chain-artifact\n"
    "cheese.n.01 -> cheese\n"
    "container.n.01 -> container\n"
    "cook.v.01 -> cook-action\n"
    "discuss.v.01 -> discuss-action\n"
    "drum.n.01 -> drum\n"
    "entity.n.01 -> NONE\n"
    "fish.n.01 -> fish\n"
    "food.n.01 -> food\n"
    "freshwater_fish.n.01 -> freshwater-fish\n"
    "hammer.n.01 -> hammer\n"
    "horn.n.01 -> horn-growth\n"
    "horn.n.07 -> horn-instrument\n"
    "idea.n.01 -> idea-type\n"
    "instrument.n.01 -> musical-instrument\n"
    "living_thing.n.01 -> NONE\n"
    "musical_composition.n.01 -> composition\n"
    "object.n.01 -> NONE\n"
    "perch.n.01 -> freshwater-fish\n"
    "person.n.01 -> person\n"
    "piece.n.05 -> composition\n"
    "pipe.n.01 -> pipe-tube\n"
    "pipe.n.04 -> pipe-instrument\n"
    "plan.n.01 -> plan-type\n"
    "play.v.03 -> play-music\n"
    "recording.n.01 -> recording\n"
    "roost.n.01 -> roost\n"
    "salmon.n.01 -> freshwater-fish\n"
    "saltwater_fish.n.01 -> saltwater-fish\n"
    "see.v.01 -> perceive-action\n"
    "song.n.01 -> composition\n"
    "strike.v.01 -> strike-action\n"
    "tool.n.01 -> tool\n"
    "trout.n.01 -> freshwater-fish\n"
)


def test_fixture_map_matches_golden(fixtures_dir, tmp_path):
    out = tmp_path / "map.txt"
    assert main(["map", "--ontology", str(fixtures_dir / "ontology.txt"),
                 "--synsets", str(fixtures_dir / "synsets.txt"), "--output", str(out)]) == 0
    assert out.read_text() == GOLDEN_MAP


def test_output_does_not_follow_the_hash_seed(resource_args, fixtures_dir, tmp_path):
    # string hashes, and so set order, change with PYTHONHASHSEED; the
    # eval report, its diagnostics, a parse with advice and the error for a
    # synset with several missing hypernyms must not
    src = Path(__file__).resolve().parent.parent / "src"
    synsets = tmp_path / "synsets.txt"
    synsets.write_text("synset a.n hypernyms x.n,y.n,z.n\n")
    runs = []
    for seed in ("0", "1"):
        out = tmp_path / seed
        out.mkdir()
        commands = [
            ["eval", *resource_args, "--corpus", str(fixtures_dir / "corpus.txt"),
             "--advice", str(fixtures_dir / "advice.txt"),
             "--output", str(out / "report.tsv"), "--diagnostics", str(out / "notes.txt")],
            ["parse", *resource_args, "--advice", str(fixtures_dir / "advice.txt"),
             "--sentence-id", "s01", "--variant", "comb",
             "--sentence", "i/PRO played/play/V the/DET bass/N",
             "--output", str(out / "lf.txt")],
            ["map", "--ontology", str(fixtures_dir / "ontology.txt"), "--synsets", str(synsets),
             "--output", str(out / "map.txt")],
        ]
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(src)}
        exits = []
        for command in commands:
            done = subprocess.run(
                [sys.executable, "-m", "senseparse.cli", *command],
                env=env, capture_output=True, check=False,
            )
            exits.append((done.returncode, done.stderr))
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        runs.append((exits, files))
    missing = f"senseparse: error: {synsets}:1: synset a.n names missing hypernym x.n\n"
    assert runs[0][0] == [(0, b""), (0, b""), (1, missing.encode())]
    assert sorted(runs[0][1]) == ["lf.txt", "notes.txt", "report.tsv"]
    assert runs[0] == runs[1]


@pytest.mark.filterwarnings("ignore:'senseparse.cli' found in sys.modules:RuntimeWarning")
def test_module_run_as_a_script_exits_with_mains_code(fixtures_dir, tmp_path, monkeypatch):
    # `python -m senseparse.cli`, in process
    out = tmp_path / "factors.txt"
    monkeypatch.setattr(sys, "argv", ["senseparse", "factorize", "--ontology",
                                      str(fixtures_dir / "ontology.txt"), "--output", str(out)])
    with pytest.raises(SystemExit) as exited:
        runpy.run_module("senseparse.cli", run_name="__main__")
    assert exited.value.code == 0
    assert out.read_text() == GOLDEN_FACTORIZE


def test_cli_import_loads_neither_dataclasses_pathlib_nor_inspect():
    # without ``site``, which may import pathlib itself, a ``senseparse``
    # process pays for no module its records and annotations do not need
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import senseparse.cli; "
        "print(*sorted({'dataclasses', 'pathlib', 'inspect'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert done.stdout == "\n"
