"""One sha256 digest per (workload, artefact) of what the program outputs on
the seed-1 workloads, so a change meant to keep behaviour can show it did.

Stdlib only.  Run from the repository root:

    python tests/tools/equivalence.py [--write]

It regenerates the seed-1 ``fixture``, ``long-ambig`` and ``wide-lexicon``
inputs with ``perfbench/gen.py`` in a temporary directory and digests, per
workload:

- ``report`` and ``diagnostics``: a five-variant ``run_experiment``'s TSV
  report and its notes, in order;
- per variant, over the corpus in order: ``<variant>/lf`` (each logical
  form), ``<variant>/spanning``, ``<variant>/pops`` and
  ``<variant>/derivations`` (every item of every fragment's derivation:
  id, span, category, type, word, ``repr`` score, head, role links and
  daughter ids);
- ``map`` and ``factorize``: the two CLI listings.

Without ``--write`` it compares the digests with ``MANIFEST`` and prints
each artefact whose digest differs; the exit code is 1 if any does.  With
``--write`` it rewrites ``MANIFEST``: only for a change that alters these
outputs on purpose.  ``tests/test_equivalence.py`` runs the comparison in
tier-1.  The file has no ``test_`` prefix, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
MANIFEST = ROOT / "tests" / "equivalence.json"
WORKLOADS = ("fixture", "long-ambig", "wide-lexicon")
SEED = 1

sys.path.insert(0, str(ROOT / "src"))

from senseparse.advice import load_advice, load_corpus
from senseparse.cli import main as cli_main
from senseparse.diagnostics import Diagnostics
from senseparse.evaluation import (
    VARIANT_NAMES,
    VariantConfig,
    load_resources,
    run_experiment,
    run_variant,
)


def generate(workload: str, out: Path) -> Path:
    """Write the workload's seed-1 inputs into ``out``, as the benchmark does."""
    subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "gen.py"), "--workload", workload,
         "--seed", str(SEED), "--out", str(out)],
        check=True, capture_output=True,
    )
    return out


def _sha(lines) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(f"{line}\n".encode())
    return digest.hexdigest()


def _derivation(fragment):
    """Each item of the fragment's derivation, parent before daughters."""
    stack = [fragment]
    while stack:
        c = stack.pop()
        daughters = " ".join(str(d.id) for d in c.children)
        yield (
            f"{c.id} {c.span[0]} {c.span[1]} {c.category} {c.onto_type} {c.word} "
            f"{c.effective_score!r} {c.head} {c.role_links} [{daughters}]"
        )
        stack.extend(reversed(c.children))


def digests(inputs: Path) -> dict[str, str]:
    """Every artefact's digest for the inputs ``generate`` wrote."""
    paths = {name: str(inputs / f"{name}.txt") for name in (
        "ontology", "synsets", "lexicon", "grammar", "corpus", "advice")}
    resources = load_resources(
        paths["ontology"], paths["synsets"], paths["lexicon"], paths["grammar"]
    )
    corpus = load_corpus(paths["corpus"])
    advice = load_advice(paths["advice"])
    variants = [VariantConfig(name) for name in VARIANT_NAMES]

    notes = Diagnostics()
    report = run_experiment(resources, corpus, advice, variants, notes)
    out = {"report": _sha([report.to_tsv()]), "diagnostics": _sha(notes.lines())}
    for config in variants:
        results, _ = run_variant(resources, corpus, advice, config)
        name = config.variant
        out[f"{name}/lf"] = _sha(f"{sid}\n{r.logical_form}" for sid, r in results.items())
        out[f"{name}/spanning"] = _sha(f"{sid} {r.spanning}" for sid, r in results.items())
        out[f"{name}/pops"] = _sha(f"{sid} {r.agenda_pops}" for sid, r in results.items())
        out[f"{name}/derivations"] = _sha(
            f"{sid} {line}"
            for sid, r in results.items()
            for fragment in r.fragments
            for line in _derivation(fragment)
        )
    for command, args in (
        ("map", ["--ontology", paths["ontology"], "--synsets", paths["synsets"]]),
        ("factorize", ["--ontology", paths["ontology"]]),
    ):
        listing = inputs / f"{command}.out"
        if cli_main([command, *args, "--output", str(listing)]) != 0:
            raise RuntimeError(f"{command} failed on {inputs}")
        out[command] = _sha([listing.read_text(encoding="utf-8")])
    return out


def changed(workload: str, got: dict[str, str], manifest: dict) -> list[str]:
    """The artefacts of ``workload`` whose digest differs from the manifest's,
    or that only one side has, as ``<workload>/<artefact>``."""
    want = manifest.get(workload, {})
    return sorted(
        f"{workload}/{name}" for name in want.keys() | got.keys() if want.get(name) != got.get(name)
    )


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--write", action="store_true", help=f"rewrite {MANIFEST.name}")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        got = {w: digests(generate(w, Path(tmp) / w)) for w in WORKLOADS}
    if args.write:
        MANIFEST.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {sum(map(len, got.values()))} digests to {MANIFEST}")
        return 0
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    differing = [name for w in WORKLOADS for name in changed(w, got[w], manifest)]
    for name in differing:
        print(f"changed: {name}")
    print(f"{len(differing)} of {sum(map(len, got.values()))} digests differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
