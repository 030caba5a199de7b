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

from .advice import SentenceRecord, load_advice, load_corpus
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
from .parser import ParserConfig, Token
from .sensemap import load_synsets


class _CliParser(argparse.ArgumentParser):
    # resource and usage problems both map onto exit code 1; the default
    # argparse exit code 2 is reserved for fragmented parses
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_resource_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ontology", required=True)
    p.add_argument("--synsets", required=True)
    p.add_argument("--lexicon", required=True)
    p.add_argument("--grammar", required=True)


# value ranges are checked once, by VariantConfig and ParserConfig
def _add_parser_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--beam-width", type=int, default=3)
    p.add_argument("--max-pops", type=int, default=None)
    p.add_argument("--accept-threshold", type=float, default=0.0)


def _add_parse_args(p: argparse.ArgumentParser) -> None:
    _add_resource_args(p)
    _add_parser_flags(p)
    p.add_argument("--variant", choices=VARIANT_NAMES, default="plain")
    p.add_argument("--sentence", help="sentence text; read from stdin if omitted")
    p.add_argument("--sentence-id", help="id used to select advice records (default: cli)")
    p.add_argument("--advice", help="advice file path")
    p.add_argument("--output", help="write logical form here instead of stdout")


def _add_eval_args(p: argparse.ArgumentParser) -> None:
    _add_resource_args(p)
    _add_parser_flags(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--advice", help="advice file path (optional)")
    p.add_argument(
        "--variants",
        default=",".join(VARIANT_NAMES),
        help="comma-separated subset of " + "|".join(VARIANT_NAMES),
    )
    p.add_argument("--output", help="write report TSV here instead of stdout")
    p.add_argument("--diagnostics", help="write per-sentence diagnostics here")


def _add_factorize_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ontology", required=True)
    p.add_argument("--output", help="write table here instead of stdout")


def _add_map_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ontology", required=True)
    p.add_argument("--synsets", required=True)
    p.add_argument("--output", help="write listing here instead of stdout")


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


_TOKEN_PATTERN = re.compile(r"\S+")


def _tokenize_sentence(raw: str) -> list[Token]:
    """Whitespace tokenization with character spans over the raw text.

    Each token must be ``surface``, ``surface/POS``, or
    ``surface/lemma/POS`` with no part empty; the lemma defaults to the
    lowercased surface.
    """
    tokens: list[Token] = []
    for index, match in enumerate(_TOKEN_PATTERN.finditer(raw)):
        text = match.group()
        parts = text.split("/")
        if len(parts) > 3 or "" in parts:
            raise SenseParseError(
                f"token {index} '{text}': expected surface, surface/POS or surface/lemma/POS"
            )
        if len(parts) == 3:
            surface, lemma, pos = parts
        elif len(parts) == 2:
            surface, lemma, pos = parts[0], parts[0].lower(), parts[1]
        else:
            surface, lemma, pos = text, text.lower(), None
        tokens.append(Token(index, match.start(), match.end(), surface, lemma, pos))
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
    sentence_id = "cli" if args.sentence_id is None else args.sentence_id
    records = ()
    if args.advice:
        advice = load_advice(args.advice)
        check_synsets(resources.graph, (), advice, advice_source=args.advice)
        # a named sentence may have nothing to advise, as in `eval`; the
        # default id matching no record means --sentence-id was forgotten
        if args.sentence_id is None and sentence_id not in advice:
            raise SenseParseError(f"{args.advice}: no advice for sentence {sentence_id}")
        records = tuple(advice.get(sentence_id, ()))

    raw = args.sentence if args.sentence is not None else sys.stdin.read().strip()
    tokens = _tokenize_sentence(raw)
    if not tokens:
        raise SenseParseError("no tokens in sentence")
    sentence = SentenceRecord(sentence_id, tuple(tokens))
    result, _ = parse_sentence_with_variant(resources, sentence, records, config)
    _emit(str(result.logical_form) + "\n", args.output)
    return 0 if result.spanning else 2


def cmd_eval(args: argparse.Namespace) -> int:
    names = [v for v in args.variants.split(",") if v]
    variants = [VariantConfig(n, args.alpha, _parser_config(args)) for n in names]
    resources = load_resources(args.ontology, args.synsets, args.lexicon, args.grammar)
    corpus = load_corpus(args.corpus)
    advice = load_advice(args.advice) if args.advice else {}
    # run_experiment ignores advice for other sentences, as a caller that
    # evaluates part of a corpus wants; a whole file must match its corpus
    corpus_ids = {s.sentence_id for s in corpus}
    stray = next((sid for sid in advice if sid not in corpus_ids), None)
    if stray is not None:
        raise SenseParseError(f"{args.advice}: sentence {stray}: not in corpus {args.corpus}")
    diagnostics = Diagnostics()
    report = run_experiment(
        resources, corpus, advice, variants, diagnostics, args.corpus, args.advice or ""
    )
    _emit(report.to_tsv(), args.output)
    if args.diagnostics:
        _emit("".join(f"{line}\n" for line in diagnostics.lines()), args.diagnostics)
    return 0


def cmd_factorize(args: argparse.Namespace) -> int:
    ontology = load_ontology(args.ontology)
    factor_of, factors = factorize(ontology)
    lines = [f"type {name} factor {factor_of[name]}" for name in sorted(ontology)]
    for factor in sorted(factors):
        parent = factors.types[factor].parent or "-"
        lines.append(f"factor {factor} parent {parent} depth {factors.depth(factor)}")
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


# subcommand -> (help line, argument builder, handler)
_SUBCOMMANDS = {
    "parse": ("parse one sentence", _add_parse_args, cmd_parse),
    "eval": ("run variants over a corpus", _add_eval_args, cmd_eval),
    "factorize": ("dump the factor assignment table", _add_factorize_args, cmd_factorize),
    "map": ("list synset-to-type assignments", _add_map_args, cmd_map),
}


def build_arg_parser() -> argparse.ArgumentParser:
    parser = _CliParser(prog="senseparse")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_line, add_args, _) in _SUBCOMMANDS.items():
        add_args(sub.add_parser(name, help=help_line))
    return parser


def parse_args(argv: Sequence[str] | None = None) -> argparse.Namespace:
    """The arguments of ``argv``, as ``build_arg_parser().parse_args`` reads them.

    When ``argv`` starts with a subcommand name, only that subcommand's
    parser is built: the full parser would hand it everything after the name
    unchanged.  If any argument is left over, the full parser reads ``argv``
    again, so its own error message reports it.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in _SUBCOMMANDS:
        sub = _CliParser(prog=f"senseparse {argv[0]}")
        _SUBCOMMANDS[argv[0]][1](sub)
        args, extra = sub.parse_known_args(argv[1:])
        if not extra:
            args.subcommand = argv[0]
            return args
    return build_arg_parser().parse_args(argv)


def main(argv: Sequence[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        return _SUBCOMMANDS[args.subcommand][2](args)
    except (SenseParseError, OSError, ValueError) as exc:
        print(f"senseparse: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
