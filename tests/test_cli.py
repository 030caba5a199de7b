import pytest

from senseparse.cli import main


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
