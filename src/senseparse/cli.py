"""Command-line front end.

Subcommands:

- ``parse``      parse one sentence and print its logical form
- ``eval``       run parser variants over a corpus and print the report
- ``factorize``  dump the semantic factor assignment table
- ``map``        list every synset's subsumption-assigned type

Exit codes: 0 success (spanning parse for ``parse``), 2 fragmented parse
(``parse`` only), 1 any error.
"""

from __future__ import annotations

import argparse
import re
import sys
from typing import Sequence

from .advice import CorpusToken, SentenceRecord, load_advice, load_corpus
from .diagnostics import Diagnostics
from .errors import SenseParseError
from .evaluation import (
    VARIANT_NAMES,
    VariantConfig,
    check_synsets,
    load_resources,
    parse_sentence_with_variant,
    run_experiment,
)
from .ontology import factorize, load_ontology
from .parser import ParserConfig
from .sensemap import load_synsets


class _CliParser(argparse.ArgumentParser):
    # resource and usage problems both map onto exit code 1; the default
    # argparse exit code 2 is reserved for fragmented parses
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_arg_parser() -> argparse.ArgumentParser:
    parser = _CliParser(prog="senseparse")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_resource_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--ontology", required=True)
        p.add_argument("--synsets", required=True)
        p.add_argument("--lexicon", required=True)
        p.add_argument("--grammar", required=True)

    # value ranges are checked once, by VariantConfig and ParserConfig
    def add_parser_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--variant", choices=VARIANT_NAMES, default="plain")
        p.add_argument("--alpha", type=float, default=0.5)
        p.add_argument("--beam-width", type=int, default=3)
        p.add_argument("--max-pops", type=int, default=None)
        p.add_argument("--accept-threshold", type=float, default=0.0)

    p_parse = sub.add_parser("parse", help="parse one sentence")
    add_resource_args(p_parse)
    add_parser_flags(p_parse)
    p_parse.add_argument("--sentence", help="sentence text; read from stdin if omitted")
    p_parse.add_argument("--sentence-id", default="cli", help="id used to select advice records")
    p_parse.add_argument("--advice", help="advice file path")
    p_parse.add_argument("--output", help="write logical form here instead of stdout")

    p_eval = sub.add_parser("eval", help="run variants over a corpus")
    add_resource_args(p_eval)
    add_parser_flags(p_eval)
    p_eval.add_argument("--corpus", required=True)
    p_eval.add_argument("--advice", help="advice file path (optional)")
    p_eval.add_argument(
        "--variants",
        default=",".join(VARIANT_NAMES),
        help="comma-separated subset of " + "|".join(VARIANT_NAMES),
    )
    p_eval.add_argument("--output", help="write report TSV here instead of stdout")
    p_eval.add_argument("--diagnostics", help="write per-sentence diagnostics here")

    p_fact = sub.add_parser("factorize", help="dump the factor assignment table")
    p_fact.add_argument("--ontology", required=True)
    p_fact.add_argument("--output", help="write table here instead of stdout")

    p_map = sub.add_parser("map", help="list synset-to-type assignments")
    p_map.add_argument("--ontology", required=True)
    p_map.add_argument("--synsets", required=True)
    p_map.add_argument("--output", help="write listing here instead of stdout")

    return parser


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


_TOKEN_PATTERN = re.compile(r"\S+")


def _tokenize_sentence(raw: str) -> list[CorpusToken]:
    """Whitespace tokenization with character spans over the raw text.

    Each token may be ``surface``, ``surface/POS``, or
    ``surface/lemma/POS``; the lemma defaults to the lowercased surface.
    """
    tokens: list[CorpusToken] = []
    for index, match in enumerate(_TOKEN_PATTERN.finditer(raw)):
        text = match.group()
        parts = text.split("/")
        if len(parts) == 3:
            surface, lemma, pos = parts
        elif len(parts) == 2:
            surface, lemma, pos = parts[0], parts[0].lower(), parts[1]
        else:
            surface, lemma, pos = text, text.lower(), None
        tokens.append(
            CorpusToken(index, match.start(), match.end(), surface, lemma, pos)
        )
    return tokens


def _parser_config(args: argparse.Namespace) -> ParserConfig:
    return ParserConfig(
        beam_width=args.beam_width,
        max_pops=args.max_pops,
        accept_threshold=args.accept_threshold,
    )


def cmd_parse(args: argparse.Namespace) -> int:
    config = VariantConfig(args.variant, args.alpha, _parser_config(args))
    resources = load_resources(args.ontology, args.synsets, args.lexicon, args.grammar)
    records = ()
    if args.advice:
        advice = load_advice(args.advice)
        check_synsets(resources.graph, (), advice, advice_source=args.advice)
        records = tuple(advice.get(args.sentence_id, ()))

    raw = args.sentence if args.sentence is not None else sys.stdin.read().strip()
    tokens = _tokenize_sentence(raw)
    if not tokens:
        raise SenseParseError("no tokens in sentence")
    sentence = SentenceRecord(args.sentence_id, tuple(tokens))
    result, _ = parse_sentence_with_variant(resources, sentence, records, config)
    _emit(str(result.logical_form) + "\n", args.output)
    return 0 if result.spanning else 2


def cmd_eval(args: argparse.Namespace) -> int:
    names = [v for v in args.variants.split(",") if v]
    variants = [VariantConfig(n, args.alpha, _parser_config(args)) for n in names]
    resources = load_resources(args.ontology, args.synsets, args.lexicon, args.grammar)
    corpus = load_corpus(args.corpus)
    advice = load_advice(args.advice) if args.advice else {}
    check_synsets(resources.graph, corpus, advice, args.corpus, args.advice or "")

    diagnostics = Diagnostics()
    report = run_experiment(resources, corpus, advice, variants, diagnostics)
    _emit(report.to_tsv(), args.output)
    if args.diagnostics:
        with open(args.diagnostics, "w", encoding="utf-8") as handle:
            handle.write("\n".join(diagnostics.lines()))
            if diagnostics.lines():
                handle.write("\n")
    return 0


def cmd_factorize(args: argparse.Namespace) -> int:
    ontology = load_ontology(args.ontology)
    factorized = factorize(ontology)
    lines = [
        f"type {name} factor {factorized.factor_of[name]}"
        for name in sorted(ontology)
    ]
    for factor in sorted(factorized.factor_parent):
        parent = factorized.factor_parent[factor] or "-"
        depth = factorized.factor_depth[factor]
        lines.append(f"factor {factor} parent {parent} depth {depth}")
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_map(args: argparse.Namespace) -> int:
    ontology = load_ontology(args.ontology)
    graph = load_synsets(args.synsets)
    diagnostics = Diagnostics()
    lines = []
    for sid in sorted(graph):
        assigned = graph.assign_type(sid, ontology.synset_mapping, diagnostics)
        lines.append(f"{sid} -> {assigned if assigned is not None else 'NONE'}")
    lines.extend(diagnostics.lines())
    _emit(("\n".join(lines) + "\n") if lines else "", args.output)
    return 0


_COMMANDS = {
    "parse": cmd_parse,
    "eval": cmd_eval,
    "factorize": cmd_factorize,
    "map": cmd_map,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.subcommand](args)
    except (SenseParseError, OSError, ValueError) as exc:
        print(f"senseparse: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
