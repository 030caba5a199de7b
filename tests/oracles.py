"""Independent brute-force oracles and random fixture generators.

Everything here recomputes expected answers from definitions, without
touching the implementation paths under test: similarity by enumerating
common ancestors, subsumption by enumerating hypernym paths, template
choice by scanning every core entry, and parsing by exhaustively
enumerating derivations CKY-style.
"""

from dataclasses import dataclass
from itertools import product
from random import Random
from statistics import fmean

from senseparse.lexicon import LexicalEntry, Lexicon, SyntacticTemplate
from senseparse.ontology import Ontology, OntologyType, RoleSpec
from senseparse.sensemap import Synset, SynsetGraph

# -- similarity ------------------------------------------------------------


def chain_to_root(parents: dict[str, str | None], node: str) -> list[str]:
    chain = [node]
    while parents[chain[-1]] is not None:
        chain.append(parents[chain[-1]])  # type: ignore[arg-type]
    return chain


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
    effective = ontology.effective_roles(onto_type)
    return all(role in effective for _, role in template.arg_slots)


def template_for_type_oracle(
    lexicon: Lexicon, ontology: Ontology, onto_type: str, pos: str | None
) -> SyntacticTemplate | None:
    """Scan every core entry of every word for a donor template.

    A donor is an entry whose type is an ancestor-or-self of ``onto_type``
    and whose template matches ``pos`` and fits the type; the deepest donor
    type wins, ties by template name.  Without a donor, the per-category
    default for ``pos`` (or for each category in name order when ``pos`` is
    None) that fits the type.
    """
    best: tuple[int, str] | None = None
    for word in lexicon.words():
        for entry in lexicon.lookup(word):
            tpl = lexicon.templates[entry.template]
            if pos is not None and tpl.category != pos:
                continue
            if not ontology.is_a(onto_type, entry.onto_type):
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
        roles = ontology.effective_roles(head.onto_type)
        for index, role in rule.role_links:
            spec = roles.get(role)
            if spec is None or not ontology.is_a(children[index].onto_type, spec.restriction):
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
    """Maximum effective score over all full-span derivations, or None."""
    table = enumerate_derivations(tokens, entries, grammar, ontology, templates)
    cell = table[(0, len(tokens))]
    if not cell:
        return None
    return max(d.eff for d in cell)


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


def random_lexicon(rng: Random, ontology: Ontology) -> Lexicon:
    """Random N, V and ADJ templates (with role slots from
    ``random_ontology``'s role names), a default template for some
    categories, and core entries on a random subset of types; every entry's
    template fits its type."""
    categories = ("N", "V", "ADJ")
    types = sorted(ontology)
    templates = []
    for i in range(rng.randrange(2, 7)):
        roles = rng.sample(("r1", "r2", "r3"), rng.randrange(0, 3))
        slots = tuple((f"a{k}", role) for k, role in enumerate(roles))
        templates.append(SyntacticTemplate(f"tpl{i}", rng.choice(categories), slots))
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
            entry = LexicalEntry(f"w{k % 7}", {"pos": tpl.category}, tpl.name, onto_type)
            entries.setdefault(entry.key(), entry)
    return Lexicon(templates, entries.values(), defaults, ontology)


def entries_to_seeds(entries: list[tuple[str, str, str, float]]) -> list[LexicalEntry]:
    """(word, template, type, score) shorthand for hand-built entry lists."""
    return [
        LexicalEntry(word, {"pos": None}, template, onto_type, score, "core")
        for word, template, onto_type, score in entries
    ]
