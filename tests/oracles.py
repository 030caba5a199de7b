"""Independent brute-force oracles and random fixture generators.

Everything here recomputes expected answers from definitions, without
touching the implementation paths under test: ancestry by walking parent
chains, similarity by enumerating common ancestors, subsumption by
enumerating hypernym paths, template choice by scanning every core entry,
parsing by exhaustively enumerating derivations CKY-style, and the
parser's best-first search by an agenda over plain lists.
"""

from dataclasses import dataclass
from itertools import product
from random import Random
from statistics import fmean
from typing import NamedTuple, Sequence

from senseparse.lexicon import LexicalEntry, Lexicon, SyntacticTemplate
from senseparse.ontology import Ontology, OntologyType, RoleSpec
from senseparse.parser import FALLBACK_TYPE
from senseparse.sensemap import Synset, SynsetGraph

# -- ancestry and similarity ------------------------------------------------


def chain_to_root(parents: dict[str, str | None], node: str) -> list[str]:
    chain = [node]
    while parents[chain[-1]] is not None:
        chain.append(parents[chain[-1]])  # type: ignore[arg-type]
    return chain


def is_a(ontology: Ontology, name: str, ancestor: str) -> bool:
    """Walk ``name``'s parent chain looking for ``ancestor``; both must be
    types of ``ontology``."""
    ontology.types[ancestor]  # an unknown ancestor raises UnknownName
    node: str | None = name
    while node is not None:
        if node == ancestor:
            return True
        node = ontology.types[node].parent
    return False


def wu_palmer_oracle(parents: dict[str, str | None], a: str, b: str) -> float:
    """Maximize depth over *all* common ancestors, then apply the formula."""
    chain_a = chain_to_root(parents, a)
    chain_b = chain_to_root(parents, b)
    common = set(chain_a) & set(chain_b)
    deepest = max(len(chain_to_root(parents, t)) for t in common)
    return 2.0 * deepest / (len(chain_a) + len(chain_b))


# -- subsumption ------------------------------------------------------------


def assign_type_oracle(
    hypernyms: dict[str, frozenset[str]],
    mapping: dict[str, str],
    synset_id: str,
) -> str | None:
    """Enumerate every hypernym path that ends at its first mapped synset.

    A valid path has all-unmapped intermediates, so enumeration never
    continues past a mapped node.  Shortest valid path wins; equal-length
    ties resolve to the lexicographically least type.
    """
    found: list[tuple[int, str]] = []

    def walk(node: str, length: int) -> None:
        if node in mapping:
            found.append((length, mapping[node]))
            return
        for h in sorted(hypernyms.get(node, ())):
            walk(h, length + 1)

    walk(synset_id, 0)
    if not found:
        return None
    shortest = min(length for length, _ in found)
    return min(t for length, t in found if length == shortest)


# -- template choice -------------------------------------------------------------


def _fits(ontology: Ontology, template: SyntacticTemplate, onto_type: str) -> bool:
    effective = ontology.effective_roles[onto_type]
    return all(role in effective for role in template.roles)


def template_for_type_oracle(
    lexicon: Lexicon,
    entries: Sequence[LexicalEntry],
    ontology: Ontology,
    onto_type: str,
    pos: str | None,
) -> SyntacticTemplate | None:
    """Scan ``entries``, the lexicon's core entries, for a donor template.

    A donor is an entry whose type is an ancestor-or-self of ``onto_type``
    and whose template matches ``pos`` and fits the type; the deepest donor
    type wins, ties by template name.  Without a donor, the per-category
    default for ``pos`` (or for each category in name order when ``pos`` is
    None) that fits the type.
    """
    best: tuple[int, str] | None = None
    for entry in entries:
        tpl = lexicon.templates[entry.template]
        if pos is not None and tpl.category != pos:
            continue
        if not is_a(ontology, onto_type, entry.onto_type):
            continue
        if not _fits(ontology, tpl, onto_type):
            continue
        candidate = (-ontology.depth(entry.onto_type), tpl.name)
        if best is None or candidate < best:
            best = candidate
    if best is not None:
        return lexicon.templates[best[1]]
    for category in [pos] if pos is not None else sorted(lexicon.defaults):
        name = lexicon.defaults.get(category)
        if name is not None and _fits(ontology, lexicon.templates[name], onto_type):
            return lexicon.templates[name]
    return None


# -- exhaustive parsing --------------------------------------------------------


@dataclass(frozen=True)
class Deriv:
    category: str
    onto_type: str
    word: str
    own: float
    eff: float
    children: tuple["Deriv", ...] = ()


def _compositions(total: int, parts: int):
    """All ways to write ``total`` as ``parts`` positive integers, in order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first, *rest)


def enumerate_derivations(tokens, entries, grammar, ontology: Ontology, templates):
    """Every derivation for every span, without pruning or search order."""
    n = len(tokens)
    table: dict[tuple[int, int], list[Deriv]] = {
        span: [] for span in ((i, j) for i in range(n) for j in range(i + 1, n + 1))
    }
    for i in range(n):
        for entry in entries[i]:
            category = templates[entry.template].category
            table[(i, i + 1)].append(
                Deriv(category, entry.onto_type, entry.word, entry.score, entry.score)
            )

    def build(rule, children):
        head = children[rule.head_index]
        roles = ontology.effective_roles[head.onto_type]
        for index, role in rule.role_links:
            spec = roles.get(role)
            if spec is None or not is_a(ontology, children[index].onto_type, spec.restriction):
                return None
        product_score = 1.0
        for c in children:
            product_score *= c.eff
        own = rule.weight * product_score ** (1.0 / len(children))
        eff = fmean([own] + [c.eff for c in children])
        return Deriv(rule.lhs, head.onto_type, head.word, own, eff, tuple(children))

    for length in range(1, n + 1):
        for start in range(0, n - length + 1):
            span = (start, start + length)
            cell = table[span]
            for rule in grammar.rules:
                if len(rule.rhs) < 2 or len(rule.rhs) > length:
                    continue
                for sizes in _compositions(length, len(rule.rhs)):
                    bounds = [start]
                    for size in sizes:
                        bounds.append(bounds[-1] + size)
                    child_cells = []
                    for k in range(len(rule.rhs)):
                        child_cells.append(
                            [
                                d
                                for d in table[(bounds[k], bounds[k + 1])]
                                if d.category == rule.rhs[k]
                            ]
                        )
                    for children in product(*child_cells):
                        built = build(rule, children)
                        if built is not None:
                            cell.append(built)
            # unary closure to a fixed point
            unary = [r for r in grammar.rules if len(r.rhs) == 1]
            processed: set[tuple[int, int]] = set()
            changed = True
            while changed:
                changed = False
                for rule_index, rule in enumerate(unary):
                    for child_index in range(len(cell)):
                        if (rule_index, child_index) in processed:
                            continue
                        processed.add((rule_index, child_index))
                        child = cell[child_index]
                        if child.category != rule.rhs[0]:
                            continue
                        built = build(rule, (child,))
                        if built is not None:
                            cell.append(built)
                            changed = True
    return table


def best_parse_oracle(tokens, entries, grammar, ontology, templates) -> float | None:
    """Maximum effective score over all full-span derivations of the goal
    category (the first rule's left-hand side), or None."""
    table = enumerate_derivations(tokens, entries, grammar, ontology, templates)
    goal = grammar.rules[0].lhs
    cell = [d for d in table[(0, len(tokens))] if d.category == goal]
    if not cell:
        return None
    return max(d.eff for d in cell)


# -- best-first search --------------------------------------------------------------


class Item(NamedTuple):
    id: int
    span: tuple[int, int]
    category: str
    onto_type: str
    word: str
    score: float
    head: int
    links: tuple[tuple[int, str], ...] = ()
    children: tuple["Item", ...] = ()


class Search(NamedTuple):
    """What :func:`reference_parse` found: the fragments, as :func:`shape`
    renders them, whether they are one goal item over the sentence, the
    counted pops, the logical form's node and edge tuples, and each
    distinct role-violation note in first-seen order."""

    fragments: tuple
    spanning: bool
    pops: int
    nodes: tuple
    edges: tuple
    notes: tuple[str, ...]


def shape(c) -> tuple:
    """A chart item as comparable plain data, its score as ``repr``; reads
    both :class:`Item` and the parser's ``Constituent`` by position."""
    *fields, links, children = c
    fields[5] = repr(fields[5])
    return (*fields, links, tuple(shape(d) for d in children))


def reference_parse(tokens, entries, grammar, ontology, templates, config,
                    sentence_id="", scorer=None) -> Search:
    """The parser's best-first search as an executable spec: an agenda of
    items over plain lists, with no indexes (after Shieber, Schabes &
    Pereira 1995, *Principles and Implementation of Deductive Parsing*).

    Each (span, category) cell is re-sorted by (-score, type, id) and cut
    to the beam after every add.  The agenda is scanned for the least
    (-score, id) until the budget (``max_pops``, else 10 n^2) is popped.
    A pop tries every rule position of its category, in rule order,
    against every product of live, span-adjacent items, taken in the order
    of the ids at positions j-1 down to 0, then j+1 up; a (rule,
    daughters) pair is combined once.
    """
    n, prefix = len(tokens), f"{sentence_id} " if sentence_id else ""
    cells: dict = {}
    agenda: list[Item] = []
    seen, notes = set(), []

    def live():
        return [c for cell in cells.values() for c in cell]

    def add(item):
        cell = cells.setdefault((item.span, item.category), [])
        cell.append(item)
        cell.sort(key=lambda c: (-c.score, c.onto_type, c.id))
        del cell[config.beam_width:]
        if item in cell:
            agenda.append(item)

    def build(rule, children, cid):
        head = children[rule.head_index]
        roles = ontology.effective_roles[head.onto_type]
        for index, role in rule.role_links:
            spec, filler = roles.get(role), children[index]
            if spec is None or not is_a(ontology, filler.onto_type, spec.restriction):
                restriction = "(undeclared)" if spec is None else spec.restriction
                note = f"role-violation {prefix}{role} {restriction} {filler.onto_type}"
                if note not in notes:
                    notes.append(note)
                return None
        product_score = 1.0
        for c in children:
            product_score *= c.score
        own = rule.weight * product_score ** (1.0 / len(children))
        span = (children[0].span[0], children[-1].span[1])
        if scorer is not None:
            own = scorer((head.word, span, head.onto_type), own)
        score = fmean([own, *(c.score for c in children)])
        return Item(cid, span, rule.lhs, head.onto_type, head.word, score, head.head,
                    rule.role_links, tuple(children))

    next_id = 0
    for i, bucket in enumerate(entries):
        for entry in bucket:
            score = entry.score
            if scorer is not None:
                score = scorer((entry.word, (i, i + 1), entry.onto_type), score)
            add(Item(next_id, (i, i + 1), templates[entry.template].category,
                     entry.onto_type, entry.word, score, i))
            next_id += 1

    pops, accepted = 0, None
    budget = config.max_pops if config.max_pops is not None else 10 * n * n
    while agenda and pops < budget:
        popped = min(agenda, key=lambda c: (-c.score, c.id))
        agenda.remove(popped)
        if popped not in cells[(popped.span, popped.category)]:
            continue
        pops += 1
        if (popped.span == (0, n) and popped.category == grammar.goal
                and popped.score >= config.accept_threshold):
            accepted = popped
            break
        for rule_index, rule in enumerate(grammar.rules):
            for j, category in enumerate(rule.rhs):
                if category != popped.category:
                    continue
                # the products of live items with adjacent spans, grown
                # outward from the popped item
                items, matches = live(), [(popped,)]
                for k in range(j - 1, -1, -1):
                    matches = [(c, *m) for m in matches for c in items
                               if c.category == rule.rhs[k] and c.span[1] == m[0].span[0]]
                for k in range(j + 1, len(rule.rhs)):
                    matches = [(*m, c) for m in matches for c in items
                               if c.category == rule.rhs[k] and c.span[0] == m[-1].span[1]]
                order = [*range(j - 1, -1, -1), *range(j + 1, len(rule.rhs))]
                matches.sort(key=lambda m: [m[k].id for k in order])
                for match in matches:
                    signature = (rule_index, *(c.id for c in match))
                    if signature in seen:
                        continue
                    seen.add(signature)
                    built = build(rule, match, next_id)
                    if built is not None:
                        next_id += 1
                        add(built)

    fragments = [accepted] if accepted is not None else []
    position = 0
    while accepted is None and position < n:
        starting = [c for c in live() if c.span[0] == position]
        if starting:
            best = min(starting, key=lambda c: (-c.span[1], -c.score, c.onto_type, c.id))
        else:
            token = tokens[position]
            category = token.pos if token.pos is not None else "X"
            best = Item(next_id, (position, position + 1), category,
                        FALLBACK_TYPE, token.lemma, 0.0, position)
            next_id += 1
        fragments.append(best)
        position = best.span[1]

    nodes, edges, stack = [], [], list(fragments)
    while stack:
        c = stack.pop()
        if not c.children:
            nodes.append((c.head, *c.span, c.word, c.onto_type))
        edges.extend((c.head, role, c.children[index].head) for index, role in c.links)
        stack.extend(c.children)
    spanning = [(f.span, f.category) for f in fragments] == [((0, n), grammar.goal)]
    return Search(tuple(shape(f) for f in fragments), spanning, pops, tuple(sorted(nodes)),
                  tuple(sorted(edges)), tuple(notes))


def verify_role_soundness(result, ontology: Ontology) -> list[str]:
    """Return a description of every role edge violating its restriction.

    An empty list means the result is sound: the parser never emits a
    restriction-breaking attachment.
    """
    problems = []
    stack = list(result.fragments)
    while stack:
        c = stack.pop()
        stack.extend(c.children)
        roles = ontology.effective_roles[c.onto_type]
        for index, role in c.role_links:
            filler = c.children[index]
            spec = roles.get(role)
            if spec is None:
                problems.append(f"{c.id}: role {role} undeclared on {c.onto_type}")
            elif not is_a(ontology, filler.onto_type, spec.restriction):
                problems.append(
                    f"{c.id}: {role} wants {spec.restriction}, got {filler.onto_type}"
                )
    return problems


# -- hint matching -----------------------------------------------------------------


def best_match_oracle(hints, word, span, onto_type, ontology: Ontology):
    """Scan every hint: keep those of ``word`` whose token lies inside
    ``span`` and whose type lies on ``onto_type``'s chain to the root, and
    return the one with the highest score, ties by type name, then by hint
    order; None when nothing matches."""
    chain = ontology.ancestors.get(onto_type, ())
    best = None
    for h in hints:
        if h.word != word or h.onto_type not in chain:
            continue
        if h.token not in range(*span):
            continue
        if best is None or (-h.score, h.onto_type) < (-best.score, best.onto_type):
            best = h
    return best


# -- random fixtures -------------------------------------------------------------


def random_tree(rng: Random, n: int) -> dict[str, str | None]:
    """Random parent map over ``n`` nodes; node 0 is the root."""
    names = [f"t{i:02d}" for i in range(n)]
    parents: dict[str, str | None] = {names[0]: None}
    for i in range(1, n):
        parents[names[i]] = names[rng.randrange(i)]
    return parents


def random_ontology(rng: Random, n: int, role_prob: float = 0.4) -> Ontology:
    """Random hierarchy where some nodes declare or override roles."""
    parents = random_tree(rng, n)
    names = list(parents)
    role_names = ("r1", "r2", "r3")
    types = []
    for name in names:
        roles = []
        if rng.random() < role_prob:
            for role in rng.sample(role_names, rng.randrange(1, 3)):
                roles.append(
                    RoleSpec(role, names[rng.randrange(n)], rng.random() < 0.5)
                )
        types.append(OntologyType(name, parents[name], roles=tuple(roles)))
    return Ontology(types)


def random_synset_graph(
    rng: Random, n: int, mapping_prob: float = 0.3
) -> tuple[SynsetGraph, dict[str, str]]:
    """Random acyclic hypernym graph (edges point to higher indices) plus a
    random partial mapping onto a small pool of type names."""
    ids = [f"s{i:03d}" for i in range(n)]
    synsets = []
    for i in range(n):
        hypernyms = set()
        for _ in range(rng.randrange(0, 3)):
            if i + 1 < n:
                hypernyms.add(ids[rng.randrange(i + 1, min(i + 8, n))])
        synsets.append(Synset(ids[i], frozenset(), frozenset(hypernyms)))
    pool = ("TA", "TB", "TC", "TD")
    mapping = {
        sid: pool[rng.randrange(len(pool))] for sid in ids if rng.random() < mapping_prob
    }
    return SynsetGraph(synsets), mapping


def random_lexicon(rng: Random, ontology: Ontology) -> tuple[Lexicon, list[LexicalEntry]]:
    """Random N, V and ADJ templates (with role slots from
    ``random_ontology``'s role names), a default template for some
    categories, and core entries on a random subset of types; every entry's
    template fits its type.  Returns the lexicon and its core entries."""
    categories = ("N", "V", "ADJ")
    types = sorted(ontology)
    templates = []
    for i in range(rng.randrange(2, 7)):
        roles = rng.sample(("r1", "r2", "r3"), rng.randrange(0, 3))
        templates.append(SyntacticTemplate(f"tpl{i}", rng.choice(categories), tuple(roles)))
    defaults = {}
    for category in categories:
        own = [t.name for t in templates if t.category == category]
        if own and rng.random() < 0.6:
            defaults[category] = rng.choice(own)
    entries = {}
    for k in range(rng.randrange(0, 2 * len(types))):
        tpl = rng.choice(templates)
        onto_type = rng.choice(types)
        if _fits(ontology, tpl, onto_type):
            entry = LexicalEntry(f"w{k % 7}", tpl.name, onto_type, 0.8)
            entries.setdefault(entry.key(), entry)
    return Lexicon(templates, entries.values(), defaults, ontology), list(entries.values())


def entries_to_seeds(entries: list[tuple[str, str, str, float]]) -> list[LexicalEntry]:
    """(word, template, type, score) shorthand for hand-built entry lists."""
    return [
        LexicalEntry(word, template, onto_type, score)
        for word, template, onto_type, score in entries
    ]
