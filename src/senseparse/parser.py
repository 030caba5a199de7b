"""Best-first bottom-up chart parser with semantic role restrictions.

The chart is seeded with one constituent per lexical entry.  A priority
agenda repeatedly pops the highest-scoring constituent and combines it
with adjacent chart items under the grammar rules; a combination that
violates a role restriction is rejected outright rather than penalized.
Every newly built constituent is scored through a caller-supplied hook
(this is where progressive hinting plugs in) and each (span, category)
cell is beam-pruned.  Parsing stops when a spanning constituent at or
above the acceptance threshold is popped, when the agenda drains, or at
the pop budget; without an accepted root the result is a best-effort
greedy fragment cover, with sense-neutral fallback fragments over tokens
nothing else covers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from heapq import heappop, heappush
from pathlib import Path
from statistics import fmean
from typing import Callable, Iterator, Mapping, Sequence

from . import records
from .diagnostics import Diagnostics
from .errors import FormatError, ParseFailure, StructuralError
from .lexicon import LexicalEntry, SyntacticTemplate
from .ontology import Ontology

__all__ = [
    "Token",
    "GrammarRule",
    "Grammar",
    "Constituent",
    "ParserConfig",
    "Chart",
    "ChartParser",
    "ParseResult",
    "LogicalForm",
    "LFNode",
    "load_grammar",
    "parse_grammar",
    "fragment_fallback",
    "recursive_score",
    "verify_role_soundness",
]

Span = tuple[int, int]

FALLBACK_TYPE = "referential-sem"


@dataclass(frozen=True)
class Token:
    surface: str
    lemma: str
    pos: str | None = None


@dataclass(frozen=True)
class GrammarRule:
    """One context-free rule with a designated head and role attachments.

    ``role_links`` attach non-head daughters to roles of the head's
    semantic type; the filler must satisfy the role's restriction.
    """

    lhs: str
    rhs: tuple[str, ...]
    head_index: int
    role_links: tuple[tuple[int, str], ...] = ()
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.rhs:
            raise StructuralError(f"rule {self.lhs} has empty right-hand side")
        if not 0 <= self.head_index < len(self.rhs):
            raise StructuralError(f"rule {self.lhs} head index out of range")
        for index, role in self.role_links:
            if not 0 <= index < len(self.rhs):
                raise StructuralError(f"rule {self.lhs} links missing daughter {index}")
            if index == self.head_index:
                raise StructuralError(f"rule {self.lhs} links role {role} to its head")
        if not 0.0 < self.weight <= 1.0:
            raise StructuralError(f"rule {self.lhs} weight must be in (0, 1]")


class Grammar:
    def __init__(self, rules: Sequence[GrammarRule]) -> None:
        self.rules = tuple(rules)
        self._positions: dict[str, list[tuple[int, int]]] = {}
        for rule_index, rule in enumerate(self.rules):
            for j, category in enumerate(rule.rhs):
                self._positions.setdefault(category, []).append((rule_index, j))

    def positions(self, category: str) -> list[tuple[int, int]]:
        """(rule index, rhs position) pairs where ``category`` can plug in."""
        return self._positions.get(category, [])


@dataclass(frozen=True)
class Constituent:
    """A scored chart item covering a contiguous token span.

    ``own_score`` is the lexical or rule score before hint augmentation;
    ``effective_score`` is what the scoring hook produced and is what the
    agenda and the beam order by.  ``role_children`` are semantic role
    attachments; ``children_ids`` are the derivation daughters.
    """

    id: int
    span: Span
    category: str
    onto_type: str
    word: str
    own_score: float
    effective_score: float = 0.0
    role_children: tuple[tuple[str, int], ...] = ()
    children_ids: tuple[int, ...] = ()
    head_child: int | None = None

    @property
    def is_leaf(self) -> bool:
        return not self.children_ids

    def length(self) -> int:
        return self.span[1] - self.span[0]


@dataclass(frozen=True)
class ParserConfig:
    beam_width: int = 3
    max_pops: int | None = None  # None: 10 * n^2 for an n-token sentence
    accept_threshold: float = 0.0
    entry_keep: int = 4
    fallback_type: str = FALLBACK_TYPE

    def __post_init__(self) -> None:
        if self.beam_width < 1:
            raise ValueError("beam_width must be >= 1")
        if self.max_pops is not None and self.max_pops < 1:
            raise ValueError("max_pops must be >= 1")
        if not 0.0 <= self.accept_threshold <= 1.0:
            raise ValueError("accept_threshold must be in [0, 1]")
        if self.entry_keep < 1:
            raise ValueError("entry_keep must be >= 1")

    def pop_budget(self, n_tokens: int) -> int:
        if self.max_pops is not None:
            return self.max_pops
        return 10 * n_tokens * n_tokens


@dataclass(frozen=True)
class LFNode:
    id: int
    start: int
    end: int
    word: str
    onto_type: str


@dataclass(frozen=True)
class LogicalForm:
    """Sense-typed nodes plus directed, role-labelled edges."""

    nodes: tuple[LFNode, ...]
    edges: tuple[tuple[int, str, int], ...]

    def lines(self) -> list[str]:
        out = [
            f"node {n.id} {n.start} {n.end} {n.word} {n.onto_type}" for n in self.nodes
        ]
        out.extend(f"edge {p} {role} {c}" for p, role, c in self.edges)
        return out

    def __str__(self) -> str:
        return "\n".join(self.lines())

    def node_at(self, token_index: int) -> LFNode | None:
        for n in self.nodes:
            if n.start <= token_index < n.end:
                return n
        return None


@dataclass(frozen=True)
class ParseResult:
    sentence_id: str
    spanning: bool
    fragments: tuple[Constituent, ...]
    logical_form: LogicalForm
    agenda_pops: int
    constituents: Mapping[int, Constituent]  # derivation closure of the fragments


Scorer = Callable[[Constituent, Sequence[float]], float]


def recursive_score(root_component: float, child_scores: Sequence[float]) -> float:
    """Mean of the root's component and its daughters' effective scores."""
    return fmean([root_component, *child_scores])


def plain_score(constituent: Constituent, child_scores: Sequence[float]) -> float:
    """The hint-free scoring hook: a plain recursive mean of own scores."""
    return recursive_score(constituent.own_score, child_scores)


class Chart:
    """Constituent store with per-(span, category) beam pruning."""

    def __init__(self, beam_width: int) -> None:
        self.beam_width = beam_width
        self.items: dict[int, Constituent] = {}
        self.live: set[int] = set()
        self._cells: dict[tuple[Span, str], list[int]] = {}
        self._by_start: dict[int, list[int]] = {}
        self._by_end: dict[int, list[int]] = {}

    def add(self, constituent: Constituent) -> bool:
        """Insert and beam-prune the cell; returns False if the new item
        itself was pruned straight away."""
        cid = constituent.id
        self.items[cid] = constituent
        self.live.add(cid)
        self._cells.setdefault((constituent.span, constituent.category), []).append(cid)
        self._by_start.setdefault(constituent.span[0], []).append(cid)
        self._by_end.setdefault(constituent.span[1], []).append(cid)
        self.prune_cell((constituent.span, constituent.category))
        return cid in self.live

    def prune_cell(self, key: tuple[Span, str]) -> None:
        ids = [cid for cid in self._cells.get(key, []) if cid in self.live]
        if len(ids) <= self.beam_width:
            return
        ids.sort(key=self._beam_key)
        for cid in ids[self.beam_width :]:
            self.live.discard(cid)

    def _beam_key(self, cid: int):
        c = self.items[cid]
        return (-c.effective_score, c.onto_type, cid)

    def live_ending_at(self, position: int, category: str) -> list[Constituent]:
        return [
            self.items[cid]
            for cid in self._by_end.get(position, [])
            if cid in self.live and self.items[cid].category == category
        ]

    def live_starting_at(self, position: int, category: str | None = None) -> list[Constituent]:
        return [
            self.items[cid]
            for cid in self._by_start.get(position, [])
            if cid in self.live
            and (category is None or self.items[cid].category == category)
        ]


class ChartParser:
    """Parses token sequences against a grammar, ontology, and templates.

    The parser holds no per-sentence state; one instance can parse many
    sentences.  ``templates`` resolves each lexical entry's template name
    to the category it seeds.
    """

    def __init__(
        self,
        grammar: Grammar,
        ontology: Ontology,
        templates: Mapping[str, SyntacticTemplate],
        config: ParserConfig = ParserConfig(),
    ) -> None:
        if config.fallback_type not in ontology:
            raise StructuralError(
                f"fallback type {config.fallback_type} missing from ontology"
            )
        self.grammar = grammar
        self.ontology = ontology
        self.templates = templates
        self.config = config

    # -- combination --------------------------------------------------------

    def combine(
        self,
        rule: GrammarRule,
        children: Sequence[Constituent],
        cid: int = 0,
        diagnostics: Diagnostics | None = None,
        sentence_id: str = "",
    ) -> Constituent | None:
        """Build the parent constituent, or reject on a role violation.

        The parent takes the head daughter's type and head word; each role
        link is checked against the head type's effective roles and the
        restriction must subsume the filler's type.
        """
        head = children[rule.head_index]
        roles = self.ontology.effective_roles(head.onto_type)
        role_children: list[tuple[str, int]] = []
        for index, role in rule.role_links:
            filler = children[index]
            spec = roles.get(role)
            if spec is None:
                self._reject(diagnostics, sentence_id, role, "(undeclared)", filler)
                return None
            if not self.ontology.is_a(filler.onto_type, spec.restriction):
                self._reject(diagnostics, sentence_id, role, spec.restriction, filler)
                return None
            role_children.append((role, filler.id))
        own = rule.weight * _geometric_mean([c.effective_score for c in children])
        return Constituent(
            id=cid,
            span=(children[0].span[0], children[-1].span[1]),
            category=rule.lhs,
            onto_type=head.onto_type,
            word=head.word,
            own_score=own,
            role_children=tuple(role_children),
            children_ids=tuple(c.id for c in children),
            head_child=rule.head_index,
        )

    @staticmethod
    def _reject(
        diagnostics: Diagnostics | None,
        sentence_id: str,
        role: str,
        restriction: str,
        filler: Constituent,
    ) -> None:
        if diagnostics is not None:
            prefix = f"{sentence_id} " if sentence_id else ""
            diagnostics.note(
                "role-violation", f"{prefix}{role} {restriction} {filler.onto_type}"
            )

    # -- main loop ------------------------------------------------------------

    def parse(
        self,
        tokens: Sequence[Token],
        entries: Sequence[Sequence[LexicalEntry]],
        sentence_id: str = "",
        scorer: Scorer | None = None,
        diagnostics: Diagnostics | None = None,
    ) -> ParseResult:
        if not tokens:
            raise ParseFailure("cannot parse an empty token list")
        if len(entries) != len(tokens):
            raise ParseFailure("one entry list per token required")
        if scorer is None:
            scorer = plain_score

        n = len(tokens)
        budget = self.config.pop_budget(n)
        chart = Chart(self.config.beam_width)
        agenda: list[tuple[float, int, int]] = []
        next_id = 0
        seen: set[tuple[int, tuple[int, ...]]] = set()

        def admit(c: Constituent, child_scores: Sequence[float]) -> None:
            scored = replace(c, effective_score=scorer(c, child_scores))
            if chart.add(scored):
                heappush(agenda, (-scored.effective_score, scored.id, scored.id))

        for i in range(n):
            for entry in entries[i]:
                template = self.templates.get(entry.template)
                if template is None:
                    raise ParseFailure(f"entry for '{entry.word}' names missing template {entry.template}")
                leaf = Constituent(
                    id=next_id,
                    span=(i, i + 1),
                    category=template.category,
                    onto_type=entry.onto_type,
                    word=entry.word,
                    own_score=entry.score,
                )
                next_id += 1
                admit(leaf, ())

        pops = 0
        accepted: Constituent | None = None
        while agenda and pops < budget:
            _, _, cid = heappop(agenda)
            if cid not in chart.live:
                continue
            pops += 1
            popped = chart.items[cid]
            if (
                popped.span == (0, n)
                and popped.effective_score >= self.config.accept_threshold
            ):
                accepted = popped
                break
            for rule_index, j in self.grammar.positions(popped.category):
                rule = self.grammar.rules[rule_index]
                for children in self._rhs_matches(chart, rule, j, popped):
                    signature = (rule_index, tuple(c.id for c in children))
                    if signature in seen:
                        continue
                    seen.add(signature)
                    built = self.combine(
                        rule, children, next_id, diagnostics, sentence_id
                    )
                    if built is None:
                        continue
                    next_id += 1
                    admit(built, [c.effective_score for c in children])

        if accepted is not None:
            fragments: list[Constituent] = [accepted]
        else:
            fragments, next_id = fragment_fallback(
                chart, tokens, self.config.fallback_type, next_id
            )
            for frag in fragments:
                if frag.id not in chart.items:
                    chart.items[frag.id] = frag

        spanning = len(fragments) == 1 and fragments[0].span == (0, n)
        closure = _derivation_closure(fragments, chart.items)
        logical_form = _extract_logical_form(fragments, closure)
        return ParseResult(
            sentence_id=sentence_id,
            spanning=spanning,
            fragments=tuple(fragments),
            logical_form=logical_form,
            agenda_pops=pops,
            constituents=closure,
        )

    def _rhs_matches(
        self, chart: Chart, rule: GrammarRule, j: int, fixed: Constituent
    ) -> Iterator[list[Constituent]]:
        """All ways to realize ``rule.rhs`` with ``fixed`` at position ``j``
        and live, span-adjacent chart items elsewhere."""
        partial: list[list[Constituent]] = [[fixed]]
        for k in range(j - 1, -1, -1):
            extended = []
            for seq in partial:
                start = seq[0].span[0]
                for cand in chart.live_ending_at(start, rule.rhs[k]):
                    extended.append([cand] + seq)
            partial = extended
            if not partial:
                return
        for k in range(j + 1, len(rule.rhs)):
            extended = []
            for seq in partial:
                end = seq[-1].span[1]
                for cand in chart.live_starting_at(end, rule.rhs[k]):
                    extended.append(seq + [cand])
            partial = extended
            if not partial:
                return
        yield from partial


def fragment_fallback(
    chart: Chart,
    tokens: Sequence[Token],
    fallback_type: str,
    next_id: int,
) -> tuple[list[Constituent], int]:
    """Greedy left-to-right cover of the sentence by chart constituents.

    At each uncovered position the longest, then highest-scoring live
    constituent starting there wins; positions nothing covers become
    single-token fragments carrying the sense-neutral fallback type.
    """
    fragments: list[Constituent] = []
    position = 0
    while position < len(tokens):
        candidates = chart.live_starting_at(position)
        if candidates:
            best = min(
                candidates,
                key=lambda c: (-c.length(), -c.effective_score, c.onto_type, c.id),
            )
            fragments.append(best)
            position = best.span[1]
        else:
            token = tokens[position]
            fragments.append(
                Constituent(
                    id=next_id,
                    span=(position, position + 1),
                    category=token.pos if token.pos is not None else "X",
                    onto_type=fallback_type,
                    word=token.lemma,
                    own_score=0.0,
                    effective_score=0.0,
                )
            )
            next_id += 1
            position += 1
    return fragments, next_id


def _geometric_mean(scores: Sequence[float]) -> float:
    return math.prod(scores) ** (1.0 / len(scores))


def _derivation_closure(
    fragments: Sequence[Constituent], items: Mapping[int, Constituent]
) -> dict[int, Constituent]:
    closure: dict[int, Constituent] = {}
    stack = list(fragments)
    while stack:
        c = stack.pop()
        if c.id in closure:
            continue
        closure[c.id] = c
        stack.extend(items[cid] for cid in c.children_ids)
    return dict(sorted(closure.items()))


def _head_leaf(constituent: Constituent, items: Mapping[int, Constituent]) -> Constituent:
    c = constituent
    while not c.is_leaf:
        assert c.head_child is not None
        c = items[c.children_ids[c.head_child]]
    return c


def _extract_logical_form(
    fragments: Sequence[Constituent], closure: Mapping[int, Constituent]
) -> LogicalForm:
    leaves = sorted(
        (c for c in closure.values() if c.is_leaf), key=lambda c: c.span
    )
    node_ids = {leaf.id: index for index, leaf in enumerate(leaves)}
    nodes = tuple(
        LFNode(node_ids[leaf.id], leaf.span[0], leaf.span[1], leaf.word, leaf.onto_type)
        for leaf in leaves
    )
    edges = []
    for c in closure.values():
        if not c.role_children:
            continue
        parent = node_ids[_head_leaf(c, closure).id]
        for role, child_id in c.role_children:
            child = node_ids[_head_leaf(closure[child_id], closure).id]
            edges.append((parent, role, child))
    return LogicalForm(nodes, tuple(sorted(edges)))


def verify_role_soundness(result: ParseResult, ontology: Ontology) -> list[str]:
    """Return a description of every role edge violating its restriction.

    An empty list means the result is sound.  Used by tests to assert the
    parser never emits a restriction-breaking attachment.
    """
    problems = []
    for c in result.constituents.values():
        roles = ontology.effective_roles(c.onto_type)
        for role, child_id in c.role_children:
            filler = result.constituents[child_id]
            spec = roles.get(role)
            if spec is None:
                problems.append(f"{c.id}: role {role} undeclared on {c.onto_type}")
            elif not ontology.is_a(filler.onto_type, spec.restriction):
                problems.append(
                    f"{c.id}: {role} wants {spec.restriction}, got {filler.onto_type}"
                )
    return problems


# -- grammar file format -------------------------------------------------------


_CLAUSES = ("head", "weight", "link")


def parse_grammar(text: str, source: str = "<string>") -> Grammar:
    """Parse the grammar file format, one rule per line::

        rule <lhs> -> <rhs...> head <index> weight <w> [link <index>:<role>,...]
    """
    rules: list[GrammarRule] = []
    for lineno, tokens in records.lines(text):
        if tokens[0] != "rule" or len(tokens) < 4 or tokens[2] != "->":
            raise FormatError("expected 'rule <lhs> -> <rhs...> ...'", source, lineno)
        lhs = tokens[1]
        index = 3
        while index < len(tokens) and tokens[index] not in _CLAUSES:
            index += 1
        rhs = tuple(tokens[3:index])
        fields = records.fields(tokens, index, _CLAUSES, source, lineno)
        if "head" not in fields or "weight" not in fields:
            raise FormatError(f"rule {lhs} missing head or weight", source, lineno)
        head = records.integer(fields["head"], "head", source, lineno)
        weight = records.finite(fields["weight"], "weight", source, lineno)
        links: list[tuple[int, str]] = []
        for item in records.split_list(fields.get("link", "-")):
            daughter, _, role = item.partition(":")
            if not role:
                raise FormatError(f"bad link '{item}' in rule {lhs}", source, lineno)
            links.append((records.integer(daughter, "link daughter", source, lineno), role))
        try:
            rules.append(GrammarRule(lhs, rhs, head, tuple(links), weight))
        except StructuralError as exc:
            raise FormatError(str(exc), source, lineno)
    return Grammar(rules)


def load_grammar(path: str | Path) -> Grammar:
    return records.load(parse_grammar, path)
