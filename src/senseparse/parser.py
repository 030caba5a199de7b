"""Best-first bottom-up chart parser with semantic role restrictions.

The chart is seeded with one constituent per lexical entry.  A priority
agenda repeatedly pops the highest-scoring constituent and plugs it into
each rule position its category fills.  A rule has one, two or three
daughters, and each arity is matched inline: a unary rule's one match is
the item itself, a binary rule pairs it with each live item of the one
neighbouring cell, and a three-daughter rule reads the two cells around the
item, or the neighbouring cell and, per item there, the cell beyond it.
A longer rule is rejected rather than binarized: intermediate categories
would change its scores and beam cells.
Each (rule, daughters) match is combined once; a combination that
violates a role restriction is rejected outright rather than penalized,
and each distinct rejection is noted once per parse, after the search.
Each constituent is built once, with its final score: the recursive mean
of its root component and its daughters' scores.  A leaf's root component
is its entry score; a parent's is the rule weight times the geometric mean
of its daughters' scores.  A caller-supplied hook (this is where
progressive hinting plugs in) may replace the root component before the
mean is taken.  Each (span, category) cell is beam-pruned.  Parsing stops
when a spanning constituent of the grammar's goal category at or above the
acceptance threshold is popped, when the agenda drains, or at the pop
budget; without an accepted root the result is a best-effort greedy
fragment cover, with sense-neutral fallback fragments over tokens nothing
else covers.
Each constituent holds its own derivation: its daughters, its rule's role
links and the token of its head leaf.  The logical form is read off the
fragments in one walk: a node per leaf, an edge per role link.
"""

from __future__ import annotations

import math
import os
from bisect import insort
from heapq import heappop, heappush
from typing import Callable, Mapping, NamedTuple, Sequence

from . import records
from .diagnostics import DISCARD, Diagnostics
from .errors import FormatError, ParseFailure, StructuralError
from .lexicon import LexicalEntry, SyntacticTemplate
from .ontology import Ontology

Span = tuple[int, int]

FALLBACK_TYPE = "referential-sem"


class Token(NamedTuple):
    """One token of a sentence as read: its position, its character span
    in the raw text, surface and base forms, part of speech (None when
    untagged), gold synset (None when unannotated) and its line in the
    corpus file it was read from (None when not read from one)."""

    index: int
    start: int
    end: int
    surface: str
    lemma: str
    pos: str | None
    gold: str | None = None
    line: int | None = None


class GrammarRule(NamedTuple):
    """One context-free rule with a designated head and role attachments.

    ``rhs`` holds one to three daughter categories.  ``role_links`` attach
    non-head daughters to roles of the head's semantic type, each pair
    once; the filler must satisfy the role's restriction.  The
    :class:`Grammar` that holds a rule checks it.
    """

    lhs: str
    rhs: tuple[str, ...]
    head_index: int
    role_links: tuple[tuple[int, str], ...] = ()
    weight: float = 1.0


class Grammar:
    """Rules plus the goal category: the first rule's left-hand side, the
    only category a full parse may have (None for an empty grammar).  A
    rule that fails a check below is rejected with its position."""

    def __init__(self, rules: Sequence[GrammarRule]) -> None:
        self.rules = tuple(rules)
        self.goal = self.rules[0].lhs if self.rules else None
        # per category, the (rule index, rhs position) pairs it can plug into
        self.positions: dict[str, list[tuple[int, int]]] = {}
        for rule_index, (lhs, rhs, head, links, weight) in enumerate(self.rules):
            if not rhs:
                raise StructuralError(f"rule {lhs} has empty right-hand side", rule_index)
            if len(rhs) > 3:
                raise StructuralError(f"rule {lhs} has more than three daughters", rule_index)
            if not 0 <= head < len(rhs):
                raise StructuralError(f"rule {lhs} head index out of range", rule_index)
            for k, (index, role) in enumerate(links):
                if not 0 <= index < len(rhs):
                    raise StructuralError(f"rule {lhs} links missing daughter {index}", rule_index)
                if index == head:
                    raise StructuralError(f"rule {lhs} links role {role} to its head", rule_index)
                if (index, role) in links[:k]:
                    raise StructuralError(f"rule {lhs} links daughter {index} to {role} twice", rule_index)
            if not 0.0 < weight <= 1.0:
                raise StructuralError(f"rule {lhs} weight must be in (0, 1]", rule_index)
            for j, category in enumerate(rhs):
                self.positions.setdefault(category, []).append((rule_index, j))


class Constituent(NamedTuple):
    """A scored chart item covering a contiguous token span.

    ``effective_score`` is the item's final score, hint included; the
    agenda and the beam order by it.  ``head`` is the token of the item's
    head leaf: a leaf's own token, a parent's head daughter's head.
    ``children`` are the derivation daughters (none for a leaf), and
    ``role_links`` are the building rule's (daughter index, role) links,
    the rule's own tuple (empty for a leaf).

    A named tuple by the rule in :mod:`senseparse.records`: it validates
    nothing, and the parser builds each item once, with its score.  Seeding
    and ``combine`` build it with ``tuple.__new__`` and all nine fields.
    """

    id: int
    span: Span
    category: str
    onto_type: str
    word: str
    effective_score: float
    head: int
    role_links: tuple[tuple[int, str], ...] = ()
    children: tuple[Constituent, ...] = ()


class _ParserSettings(NamedTuple):
    beam_width: int = 3
    max_pops: int | None = None  # None: 10 * n^2 for an n-token sentence
    accept_threshold: float = 0.0


class ParserConfig(_ParserSettings):
    __slots__ = ()
    fallback_type = FALLBACK_TYPE  # read-only: not a setting

    def __new__(cls, *args: object, **kwargs: object) -> ParserConfig:
        self = super().__new__(cls, *args, **kwargs)
        if not isinstance(self.beam_width, int):
            raise ValueError("beam_width must be an integer")
        if self.beam_width < 1:
            raise ValueError("beam_width must be >= 1")
        if self.max_pops is not None and not isinstance(self.max_pops, int):
            raise ValueError("max_pops must be an integer")
        if self.max_pops is not None and self.max_pops < 1:
            raise ValueError("max_pops must be >= 1")
        if not 0.0 <= self.accept_threshold <= 1.0:
            raise ValueError("accept_threshold must be in [0, 1]")
        return self

    def pop_budget(self, n_tokens: int) -> int:
        if self.max_pops is not None:
            return self.max_pops
        return 10 * n_tokens * n_tokens


class LFNode(NamedTuple):
    id: int
    start: int
    end: int
    word: str
    onto_type: str


class LogicalForm(NamedTuple):
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


class ParseResult(NamedTuple):
    """One sentence's parse.  ``fragments`` cover the sentence left to
    right, one accepted root for a full parse; each carries its
    derivation, and ``logical_form`` is read off them."""

    sentence_id: str
    spanning: bool
    fragments: tuple[Constituent, ...]
    logical_form: LogicalForm
    agenda_pops: int


# A scoring hook: given an item's (head word, span, type) and its root
# component, returns the root component to score the item with.
Scorer = Callable[[tuple[str, Span, str], float], float]


class Chart:
    """Constituent store with per-(span, category) beam pruning.

    Each cell is kept in beam order (a new cell starts as its first item)
    and cut by ``prune_cell`` on every add, which overfills it by one item
    at most, so a new item is admitted (or pruned) before it is stored.  An
    item pruned on arrival is never stored: it cannot become a daughter, so
    no derivation reaches it; one pruned later stays reachable from the
    parents built on it.  Live items are indexed by (end, category) and
    (start, category), so a rule daughter is looked up in exactly the cell
    it can come from; each index keeps insertion (id) order and drops an
    item when the beam prunes it.
    """

    def __init__(self, beam_width: int) -> None:
        self.beam_width = beam_width
        self.live: set[int] = set()
        self._cells: dict[tuple[Span, str], list[Constituent]] = {}
        self._ending: dict[tuple[int, str], dict[int, Constituent]] = {}
        self._starting: dict[tuple[int, str], dict[int, Constituent]] = {}

    def add(self, constituent: Constituent) -> bool:
        """Insert and beam-prune the cell; returns False if the new item
        itself was pruned straight away."""
        cid = constituent.id
        key = (constituent.span, constituent.category)
        self.live.add(cid)
        cell = self._cells.get(key)
        if cell is None:
            self._cells[key] = [constituent]
        else:
            insort(cell, constituent, key=_beam_key)
        self.prune_cell(key)
        if cid not in self.live:
            return False
        start, end = constituent.span
        category = constituent.category
        self._ending.setdefault((end, category), {})[cid] = constituent
        self._starting.setdefault((start, category), {})[cid] = constituent
        return True

    def prune_cell(self, key: tuple[Span, str]) -> None:
        cell = self._cells[key]
        if len(cell) > self.beam_width:
            (start, end), category = key
            cid = cell.pop().id
            self.live.discard(cid)
            # an item pruned on admission was never indexed
            self._ending[(end, category)].pop(cid, None)
            self._starting[(start, category)].pop(cid, None)


def _beam_key(c: Constituent) -> tuple[float, str, int]:
    return (-c.effective_score, c.onto_type, c.id)


class ChartParser:
    """Parses token sequences against a grammar, ontology, and templates.

    The parser holds no mutable state; one instance can parse many
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
        if FALLBACK_TYPE not in ontology:
            raise StructuralError(f"fallback type {FALLBACK_TYPE} missing from ontology")
        self.grammar = grammar
        self.ontology = ontology
        self.templates = templates
        self.config = config

    # -- combination --------------------------------------------------------

    def combine(
        self,
        rule: GrammarRule,
        children: Sequence[Constituent],
        cid: int,
        rejected: dict[tuple[str, str, str], None],
        scorer: Scorer | None = None,
    ) -> Constituent | None:
        """Build and score the parent constituent, or, on a role violation,
        add its (role, restriction, filler type) key to ``rejected``.

        The parent takes the head daughter's type, head word and head
        token, and holds its daughters and the rule's role links.  Each
        link's role must be among the head type's effective roles, and its
        restriction must subsume the linked daughter's type.  Its root
        component is the rule weight times the daughters' geometric mean,
        or what ``scorer`` makes of that; its score is the recursive mean
        of the root component and the daughters' scores.  Each of the three
        arities is spelled out with the rounding of the general form,
        ``math.prod(s) ** (1 / len(s))`` and ``statistics.fmean``.
        """
        head = children[rule.head_index]
        if rule.role_links:
            ancestor_sets = self.ontology.ancestor_sets
            roles = self.ontology.effective_roles[head.onto_type]
            for index, role in rule.role_links:
                filler = children[index]
                spec = roles.get(role)
                # leaf types were validated at seeding and restrictions at
                # ontology construction, so the unchecked ancestry test is safe
                if spec is None or spec.restriction not in ancestor_sets[filler.onto_type]:
                    restriction = "(undeclared)" if spec is None else spec.restriction
                    rejected[(role, restriction, filler.onto_type)] = None
                    return None
        span = (children[0].span[0], children[-1].span[1])
        if len(children) == 1:
            only = children[0].effective_score
            root = rule.weight * only
            if scorer is not None:
                root = scorer((head.word, span, head.onto_type), root)
            score = math.fsum((root, only)) / 2
        elif len(children) == 2:
            left, right = children[0].effective_score, children[1].effective_score
            # the rounding of math.prod(scores) ** (1 / 2) and of fsum / count
            root = rule.weight * (left * right) ** 0.5
            if scorer is not None:
                root = scorer((head.word, span, head.onto_type), root)
            score = math.fsum((root, left, right)) / 3
        else:
            a, b, c = children
            first, second, third = a.effective_score, b.effective_score, c.effective_score
            root = rule.weight * (first * second * third) ** (1.0 / 3)
            if scorer is not None:
                root = scorer((head.word, span, head.onto_type), root)
            score = math.fsum((root, first, second, third)) / 4
        return tuple.__new__(Constituent, (
            cid, span, rule.lhs, head.onto_type, head.word, score, head.head,
            rule.role_links, tuple(children),
        ))

    # -- main loop ------------------------------------------------------------

    def parse(
        self,
        tokens: Sequence[Token],
        entries: Sequence[Sequence[LexicalEntry]],
        sentence_id: str = "",
        scorer: Scorer | None = None,
        diagnostics: Diagnostics = DISCARD,
    ) -> ParseResult:
        if not tokens:
            raise ParseFailure("cannot parse an empty token list")
        if len(entries) != len(tokens):
            raise ParseFailure("one entry list per token required")

        n = len(tokens)
        config = self.config
        budget = config.pop_budget(n)
        chart = Chart(config.beam_width)
        # bound once per parse, so a wrapper put on ``ChartParser.combine`` or
        # ``Chart.prune_cell`` before the parse still runs
        add = chart.add
        combine = self.combine
        templates = self.templates
        types = self.ontology.types
        # (-score, id, constituent): ids are unique, so the constituent
        # itself is never compared
        agenda: list[tuple[float, int, Constituent]] = []
        next_id = 0
        seen: set[tuple[int, ...]] = set()  # (rule index, *daughter ids)
        # each distinct role violation once, in first-seen order
        rejected: dict[tuple[str, str, str], None] = {}

        for i in range(n):
            span = (i, i + 1)
            for entry in entries[i]:
                template = templates.get(entry.template)
                if template is None:
                    raise ParseFailure(f"entry for '{entry.word}' names missing template {entry.template}")
                if entry.onto_type not in types:
                    raise ParseFailure(f"entry for '{entry.word}' names unknown type {entry.onto_type}")
                # a leaf's recursive mean is exactly its root component
                score = entry.score
                if scorer is not None:
                    score = scorer((entry.word, span, entry.onto_type), score)
                leaf = tuple.__new__(Constituent, (
                    next_id, span, template.category, entry.onto_type, entry.word, score, i,
                    (), (),
                ))
                if add(leaf):
                    heappush(agenda, (-score, next_id, leaf))
                next_id += 1

        pops = 0
        accepted: Constituent | None = None
        rules = self.grammar.rules
        goal = self.grammar.goal
        positions = self.grammar.positions
        threshold = config.accept_threshold
        full = (0, n)
        live, ending, starting = chart.live, chart._ending, chart._starting
        while agenda and pops < budget:
            _, cid, popped = heappop(agenda)
            if cid not in live:
                continue
            pops += 1
            span = popped.span
            if span == full and popped.category == goal and popped.effective_score >= threshold:
                accepted = popped
                break
            start, end = span
            for rule_index, j in positions.get(popped.category, ()):
                rule = rules[rule_index]
                rhs = rule.rhs
                if len(rhs) == 1:
                    # an item is popped once, so its unary match is new
                    matches: list[Sequence[Constituent]] = [(popped,)]
                elif len(rhs) == 2:
                    # the popped item's partners are the live items of the
                    # one cell on its other side
                    if j == 1:
                        cell = ending.get((start, rhs[0]))
                    else:
                        cell = starting.get((end, rhs[1]))
                    if not cell:
                        continue
                    matches = []
                    for other in cell.values():
                        pair = (other, popped) if j == 1 else (popped, other)
                        signature = (rule_index, pair[0].id, pair[1].id)
                        if signature not in seen:
                            seen.add(signature)
                            matches.append(pair)
                else:
                    # leftward daughters first, then rightward: the outer
                    # loop runs over the daughter next to the popped item
                    # (the left one when both are), each cell in id order
                    matches = []
                    if j == 1:
                        firsts = ending.get((start, rhs[0]))
                        lasts = starting.get((end, rhs[2]))
                        if not firsts or not lasts:
                            continue
                        for a in firsts.values():
                            for c in lasts.values():
                                signature = (rule_index, a.id, cid, c.id)
                                if signature not in seen:
                                    seen.add(signature)
                                    matches.append((a, popped, c))
                    elif j == 0:
                        mids = starting.get((end, rhs[1]))
                        if not mids:
                            continue
                        last_category = rhs[2]
                        for b in mids.values():
                            lasts = starting.get((b.span[1], last_category))
                            if lasts:
                                for c in lasts.values():
                                    signature = (rule_index, cid, b.id, c.id)
                                    if signature not in seen:
                                        seen.add(signature)
                                        matches.append((popped, b, c))
                    else:
                        mids = ending.get((start, rhs[1]))
                        if not mids:
                            continue
                        first_category = rhs[0]
                        for b in mids.values():
                            firsts = ending.get((b.span[0], first_category))
                            if firsts:
                                for a in firsts.values():
                                    signature = (rule_index, a.id, b.id, cid)
                                    if signature not in seen:
                                        seen.add(signature)
                                        matches.append((a, b, popped))
                for children in matches:
                    built = combine(rule, children, next_id, rejected, scorer)
                    if built is None:
                        continue
                    next_id += 1
                    if add(built):
                        heappush(agenda, (-built.effective_score, built.id, built))

        for role, restriction, filler_type in rejected:
            diagnostics.note("role-violation", f"{role} {restriction} {filler_type}", sentence_id)
        if accepted is not None:
            fragments: list[Constituent] = [accepted]
        else:
            fragments = fragment_fallback(chart, tokens, next_id)

        spanning = (
            len(fragments) == 1
            and fragments[0].span == full
            and fragments[0].category == goal
        )
        return ParseResult(
            sentence_id, spanning, tuple(fragments), _extract_logical_form(fragments), pops
        )


def fragment_fallback(
    chart: Chart,
    tokens: Sequence[Token],
    next_id: int,
) -> list[Constituent]:
    """Greedy left-to-right cover of the sentence by chart constituents.

    At each uncovered position the longest, then highest-scoring live
    constituent starting there wins; positions nothing covers become
    single-token fragments carrying the sense-neutral fallback type, with
    ids counting up from ``next_id``.
    """
    fragments: list[Constituent] = []
    position = 0
    while position < len(tokens):
        # of the live items starting at ``position`` the longest ends last
        best = min(
            (c for (start, _), cell in chart._starting.items() if start == position
             for c in cell.values()),
            key=lambda c: (-c.span[1], -c.effective_score, c.onto_type, c.id),
            default=None,
        )
        if best is not None:
            fragments.append(best)
            position = best.span[1]
        else:
            token = tokens[position]
            fragments.append(
                Constituent(
                    id=next_id,
                    span=(position, position + 1),
                    category=token.pos if token.pos is not None else "X",
                    onto_type=FALLBACK_TYPE,
                    word=token.lemma,
                    effective_score=0.0,
                    head=position,
                )
            )
            next_id += 1
            position += 1
    return fragments


def _extract_logical_form(fragments: Sequence[Constituent]) -> LogicalForm:
    """A node per leaf of the fragments' derivations and an edge per role
    link, from head token to the linked daughter's head token.  The leaves
    cover every token exactly once, so a leaf's token is its node id."""
    nodes = []
    edges = []
    stack = list(fragments)
    while stack:
        c = stack.pop()
        children = c.children
        if children:
            head = c.head
            for index, role in c.role_links:
                edges.append((head, role, children[index].head))
            stack.extend(children)
        else:
            start, end = c.span
            nodes.append(LFNode(c.head, start, end, c.word, c.onto_type))
    nodes.sort()
    edges.sort()
    return LogicalForm(tuple(nodes), tuple(edges))


# -- grammar file format -------------------------------------------------------


_CLAUSES = ("head", "weight", "link")


def parse_grammar(text: str, source: str = "<string>") -> Grammar:
    """Parse the grammar file format, one rule per line::

        rule <lhs> -> <cat> [<cat> [<cat>]] head <index> weight <w> [link <index>:<role>,...]

    A longer rule is written with intermediate categories.  The first
    rule's left-hand side is the goal category: only a constituent of that
    category spanning the whole sentence is a full parse.  A rule that the
    :class:`Grammar` rejects is named by its own line.
    """
    rules: list[GrammarRule] = []
    rows = records.lines(text)
    for lineno, tokens in rows:
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
        for item in records.split_list(fields.get("link", "-"), source, lineno):
            daughter, _, role = item.partition(":")
            if not role:
                raise FormatError(f"bad link '{item}' in rule {lhs}", source, lineno)
            links.append((records.integer(daughter, "link daughter", source, lineno), role))
        rules.append(GrammarRule(lhs, rhs, head, tuple(links), weight))
    return records.build(Grammar, source, rules, lines=[lineno for lineno, _ in rows])


def load_grammar(path: str | os.PathLike[str]) -> Grammar:
    return records.load(parse_grammar, path)
