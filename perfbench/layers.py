"""Per-layer tracing for the traced benchmark run.

The tracer wraps each module's public callables where the pipeline looks
them up (module globals that ``evaluation`` and ``cli`` call through, and
the methods of ``Lexicon``, ``SynsetGraph``, ``ChartParser`` and
``Chart``), so the traced run drives the unmodified pipeline.  Wrappers
add wall time (``perf_counter_ns``) and counts into one accumulator; the
caller resets it around each unit of work and reads it afterwards.

Times are inclusive of nested wrapped calls, except ``parser.parse``,
which excludes the progressive scoring hook it calls back.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.acc: dict[str, float] = defaultdict(float)
        self.distinct: dict[str, set] = defaultdict(set)
        self._undo: list[tuple[object, str, object]] = []
        self._progressive_ns = 0

    def reset(self) -> None:
        self.acc = defaultdict(float)
        self.distinct = defaultdict(set)

    # -- installation ----------------------------------------------------------

    def _patch(self, owner: object, name: str, wrapper) -> None:
        original = getattr(owner, name)
        self._undo.append((owner, name, original))
        setattr(owner, name, functools.wraps(original)(wrapper(original)))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def install(self) -> None:
        from senseparse import cli, evaluation, parser
        from senseparse.lexicon import Lexicon
        from senseparse.parser import Chart, ChartParser
        from senseparse.sensemap import SynsetGraph

        for name, key in (
            ("load_ontology", "load.ontology"),
            ("factorize", "load.factorize"),
            ("load_synsets", "load.synsets"),
            ("load_lexicon", "load.lexicon"),
            ("load_grammar", "load.grammar"),
            ("score_run", "evaluation.score"),
            ("fix_senses", "hinting.fix_senses"),
        ):
            self._patch(evaluation, name, self._timed(key))
        self._patch(evaluation, "build_advice_map", self._build_advice_map)
        self._patch(evaluation, "prehint", self._prehint)
        self._patch(evaluation, "progressive_scorer", self._progressive_scorer)
        self._patch(evaluation, "run_variant", self._run_variant)
        self._patch(cli, "load_resources", self._timed("cli.load"))
        self._patch(cli, "parse_sentence_with_variant", self._timed("cli.parse"))
        self._patch(Lexicon, "candidate_entries", self._candidate_entries)
        self._patch(Lexicon, "template_for_type", self._template_for_type)
        self._patch(SynsetGraph, "assign_type", self._assign_type)
        self._patch(ChartParser, "parse", self._parse)
        self._patch(ChartParser, "combine", self._combine)
        self._patch(Chart, "prune_cell", self._prune_cell)
        self._patch(parser, "fragment_fallback", self._counted("parser.fallback"))

    # -- wrapper factories -------------------------------------------------------

    def _timed(self, key: str):
        def wrap(fn):
            def inner(*args, **kwargs):
                t0 = perf_counter_ns()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.acc[key + "_ns"] += perf_counter_ns() - t0
                    self.acc[key + "_calls"] += 1
            return inner
        return wrap

    def _counted(self, key: str):
        def wrap(fn):
            def inner(*args, **kwargs):
                self.acc[key] += 1
                return fn(*args, **kwargs)
            return inner
        return wrap

    def _build_advice_map(self, fn):
        timed = self._timed("advice.build")(fn)

        def inner(records, *args, **kwargs):
            advice_map, dropped = timed(records, *args, **kwargs)
            self.acc["advice.records"] += len(records)
            self.acc["advice.hints"] += len(advice_map.hints)
            self.acc["advice.dropped"] += dropped
            return advice_map, dropped
        return inner

    def _prehint(self, fn):
        timed = self._timed("hinting.prehint")(fn)

        def inner(*args, **kwargs):
            additions = timed(*args, **kwargs)
            self.acc["hinting.prehint_entries"] += sum(len(v) for v in additions.values())
            return additions
        return inner

    def _progressive_scorer(self, fn):
        def inner(*args, **kwargs):
            scorer = fn(*args, **kwargs)

            def traced_scorer(constituent, child_scores):
                t0 = perf_counter_ns()
                try:
                    return scorer(constituent, child_scores)
                finally:
                    elapsed = perf_counter_ns() - t0
                    self._progressive_ns += elapsed
                    self.acc["hinting.progressive_ns"] += elapsed
                    self.acc["hinting.progressive_calls"] += 1
            return traced_scorer
        return inner

    def _run_variant(self, fn):
        def inner(resources, corpus, advice, config, *args, **kwargs):
            t0 = perf_counter_ns()
            try:
                return fn(resources, corpus, advice, config, *args, **kwargs)
            finally:
                self.acc[f"evaluation.variant.{config.variant}_ns"] += perf_counter_ns() - t0
        return inner

    def _candidate_entries(self, fn):
        timed = self._timed("lexicon.candidate_entries")(fn)

        def inner(*args, **kwargs):
            out = timed(*args, **kwargs)
            self.acc["lexicon.entries"] += len(out)
            return out
        return inner

    def _template_for_type(self, fn):
        timed = self._timed("lexicon.template_for_type")(fn)

        def inner(lexicon, onto_type, pos):
            self.distinct["lexicon.template_for_type"].add((onto_type, pos))
            return timed(lexicon, onto_type, pos)
        return inner

    def _assign_type(self, fn):
        timed = self._timed("sensemap.assign_type")(fn)

        def inner(graph, synset_id, *args, **kwargs):
            self.distinct["sensemap.assign_type"].add(synset_id)
            return timed(graph, synset_id, *args, **kwargs)
        return inner

    def _parse(self, fn):
        def inner(chart_parser, tokens, *args, **kwargs):
            hooked = self._progressive_ns
            t0 = perf_counter_ns()
            result = fn(chart_parser, tokens, *args, **kwargs)
            elapsed = perf_counter_ns() - t0 - (self._progressive_ns - hooked)
            self.acc["parser.parse_ns"] += elapsed
            self.acc["parser.pops"] += result.agenda_pops
            if result.agenda_pops >= chart_parser.config.pop_budget(len(tokens)):
                self.acc["parser.budget_exhausted"] += 1
            self.acc["parser.parses"] += 1
            return result
        return inner

    def _combine(self, fn):
        def inner(*args, **kwargs):
            built = fn(*args, **kwargs)
            self.acc["parser.combine_calls"] += 1
            self.acc["parser.built" if built is not None else "parser.role_rejected"] += 1
            return built
        return inner

    def _prune_cell(self, fn):
        def inner(chart, key):
            before = len(chart.live)
            fn(chart, key)
            self.acc["parser.beam_pruned"] += before - len(chart.live)
        return inner


VARIANTS = ("plain", "pre", "prog", "comb", "fixed")


def eval_metrics(acc: dict[str, float], distinct: dict[str, set]) -> dict[str, float]:
    """Per-layer metrics of one traced ``run_experiment`` pass."""
    ms = lambda key: acc.get(key + "_ns", 0.0) / 1e6  # noqa: E731
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    tft_calls = acc.get("lexicon.template_for_type_calls", 0.0)
    assign_calls = acc.get("sensemap.assign_type_calls", 0.0)
    parses = acc.get("parser.parses", 0.0)
    out = {
        "lexicon.candidate_entries_ms": ms("lexicon.candidate_entries"),
        "lexicon.candidate_entries_calls": acc.get("lexicon.candidate_entries_calls", 0.0),
        "lexicon.template_for_type_ms": ms("lexicon.template_for_type"),
        "lexicon.template_for_type_calls": tft_calls,
        "lexicon.template_for_type_distinct_ratio": ratio(
            len(distinct.get("lexicon.template_for_type", ())), tft_calls),
        "lexicon.entries_per_token": ratio(
            acc.get("lexicon.entries", 0.0), acc.get("lexicon.candidate_entries_calls", 0.0)),
        "sensemap.assign_type_ms": ms("sensemap.assign_type"),
        "sensemap.assign_type_calls": assign_calls,
        "sensemap.assign_type_distinct_ratio": ratio(
            len(distinct.get("sensemap.assign_type", ())), assign_calls),
        "advice.build_ms": ms("advice.build"),
        "advice.records": acc.get("advice.records", 0.0),
        "advice.hints": acc.get("advice.hints", 0.0),
        "advice.dropped": acc.get("advice.dropped", 0.0),
        "hinting.prehint_ms": ms("hinting.prehint"),
        "hinting.prehint_entries": acc.get("hinting.prehint_entries", 0.0),
        "hinting.fix_senses_ms": ms("hinting.fix_senses"),
        "hinting.progressive_calls": acc.get("hinting.progressive_calls", 0.0),
        "hinting.progressive_ms": ms("hinting.progressive"),
        "parser.parse_ms": ms("parser.parse"),
        "parser.pops": acc.get("parser.pops", 0.0),
        "parser.combine_calls": acc.get("parser.combine_calls", 0.0),
        "parser.built": acc.get("parser.built", 0.0),
        "parser.role_rejected": acc.get("parser.role_rejected", 0.0),
        "parser.built_ratio": ratio(acc.get("parser.built", 0.0), acc.get("parser.combine_calls", 0.0)),
        "parser.beam_pruned": acc.get("parser.beam_pruned", 0.0),
        "parser.accepted": parses - acc.get("parser.fallback", 0.0),
        "parser.fallback": acc.get("parser.fallback", 0.0),
        "parser.budget_exhausted": acc.get("parser.budget_exhausted", 0.0),
        "evaluation.score_ms": ms("evaluation.score"),
    }
    for variant in VARIANTS:
        out[f"evaluation.variant_ms.{variant}"] = ms(f"evaluation.variant.{variant}")
    return out


def setup_metrics(acc: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced set-up (resource load plus inputs)."""
    keys = ("ontology", "factorize", "synsets", "lexicon", "grammar", "inputs")
    return {f"load.{k}_ms": acc.get(f"load.{k}_ns", 0.0) / 1e6 for k in keys}


def cli_metrics(acc: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced ``parse`` call."""
    return {
        "cli.load_ms": acc.get("cli.load_ns", 0.0) / 1e6,
        "cli.parse_ms": acc.get("cli.parse_ns", 0.0) / 1e6,
    }
