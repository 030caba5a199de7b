"""Correctness checks that do not rely on the program's own scoring.

The checks read the resource files with their own small readers, resolve
gold types themselves and inspect logical forms in the program's output
format (``node <id> <start> <end> <word> <type>`` and
``edge <parent> <role> <child>`` lines):

1. ``f-score``: each variant's F recomputed from the logical forms equals
   the report's F.  Fallback-typed nodes count as abstentions.
2. ``role-edge``: every role is declared on the head's type or inherited
   by it, and the filler's type descends from the role's restriction.
3. ``cover``: the logical form's nodes cover each token exactly once.
4. ``fixed-exact``: where advice is gold at confidence 1.0, every attempted
   ``fixed`` instance is correct.

A violation raises :class:`CheckFailed` naming the check, the sentence and
the variant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path


class CheckFailed(Exception):
    def __init__(self, check: str, sentence: str, variant: str, detail: str) -> None:
        super().__init__(f"check {check} failed: sentence {sentence} variant {variant}: {detail}")
        self.check = check


@dataclass
class OntologyFacts:
    parent: dict[str, str | None] = field(default_factory=dict)
    roles: dict[str, dict[str, str]] = field(default_factory=dict)  # declared only
    synset_type: dict[str, str] = field(default_factory=dict)

    def chain(self, name: str) -> list[str]:
        out = [name]
        while (up := self.parent[out[-1]]) is not None:
            out.append(up)
        return out

    def restriction(self, head_type: str, role: str) -> str | None:
        """The restriction of ``role`` on ``head_type``: the nearest
        declaration on the type's parent chain, or None if undeclared."""
        for name in self.chain(head_type):
            if role in self.roles[name]:
                return self.roles[name][role]
        return None


def _items(value: str) -> list[str]:
    return [] if value == "-" else [v for v in value.split(",") if v]


def read_ontology(path: Path) -> OntologyFacts:
    facts = OntologyFacts()
    text = "\n".join(
        line.strip() for line in path.read_text(encoding="utf-8").splitlines()
        if not line.strip().startswith("#")
    )
    for block in text.split("\n\n"):
        words = block.split()
        if not words:
            continue
        name, fields = words[1], dict(zip(words[2::2], words[3::2]))
        facts.parent[name] = None if fields["parent"] == "-" else fields["parent"]
        facts.roles[name] = {
            item.split(":")[0]: item.split(":")[1] for item in _items(fields.get("roles", "-"))
        }
        for sid in _items(fields.get("synsets", "-")):
            facts.synset_type[sid] = name
    return facts


def read_hypernyms(path: Path) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        words = line.split()
        if not words or words[0] != "synset":
            continue
        fields = dict(zip(words[2::2], words[3::2]))
        out[words[1]] = _items(fields.get("hypernyms", "-"))
    return out


def path_gold_type(synset: str, hypernyms: dict[str, list[str]], mapping: dict[str, str]) -> str | None:
    """Enumerate every hypernym path that stops at its first mapped synset;
    the shortest wins, ties to the lexicographically least type."""
    found: list[tuple[int, str]] = []

    def walk(node: str, length: int) -> None:
        if node in mapping:
            found.append((length, mapping[node]))
            return
        for up in sorted(hypernyms.get(node, ())):
            walk(up, length + 1)

    walk(synset, 0)
    if not found:
        return None
    shortest = min(length for length, _ in found)
    return min(t for length, t in found if length == shortest)


def read_corpus(path: Path) -> list[tuple[str, list[tuple[int, int, str, str, str, str | None]]]]:
    """(sentence id, [(start, end, surface, lemma, pos, gold synset or None)])
    per sentence."""
    out: list[tuple[str, list]] = []
    for line in path.read_text(encoding="utf-8").splitlines():
        words = line.split()
        if not words or words[0].startswith("#"):
            continue
        if words[0] == "sentence":
            out.append((words[1], []))
        elif words[0] == "tok":
            gold = words[7][len("gold="):] if len(words) == 8 else None
            out[-1][1].append((int(words[2]), int(words[3]), words[4], words[5], words[6], gold))
    return out


def read_gold(corpus_path: Path) -> dict[str, tuple[int, dict[int, str]]]:
    """sentence id -> (token count, {token index: gold synset})."""
    return {
        sid: (len(tokens), {i: t[5] for i, t in enumerate(tokens) if t[5] is not None})
        for sid, tokens in read_corpus(corpus_path)
    }


# -- logical forms -----------------------------------------------------------------


@dataclass(frozen=True)
class LF:
    nodes: tuple[tuple[int, int, int, str], ...]  # (id, start, end, type)
    edges: tuple[tuple[int, str, int], ...]


def read_lf(text: str) -> LF:
    nodes, edges = [], []
    for line in text.splitlines():
        words = line.split()
        if not words:
            continue
        if words[0] == "node":
            nodes.append((int(words[1]), int(words[2]), int(words[3]), words[5]))
        elif words[0] == "edge":
            edges.append((int(words[1]), words[2], int(words[3])))
        else:
            raise ValueError(f"unexpected logical-form line: {line}")
    return LF(tuple(nodes), tuple(edges))


def type_at(lf: LF, token: int) -> str | None:
    for _, start, end, onto_type in lf.nodes:
        if start <= token < end:
            return onto_type
    return None


def check_cover(lf: LF, n_tokens: int, sentence: str, variant: str) -> None:
    covered = [0] * n_tokens
    for node_id, start, end, _ in lf.nodes:
        if not 0 <= start < end <= n_tokens:
            raise CheckFailed("cover", sentence, variant, f"node {node_id} span {start}-{end} outside 0-{n_tokens}")
        for i in range(start, end):
            covered[i] += 1
    for i, count in enumerate(covered):
        if count != 1:
            raise CheckFailed("cover", sentence, variant, f"token {i} covered {count} times")


def check_edges(lf: LF, facts: OntologyFacts, sentence: str, variant: str) -> None:
    types = {node_id: onto_type for node_id, _, _, onto_type in lf.nodes}
    for parent, role, child in lf.edges:
        if parent not in types or child not in types:
            raise CheckFailed("role-edge", sentence, variant, f"edge {parent} {role} {child} names a missing node")
        head, filler = types[parent], types[child]
        restriction = facts.restriction(head, role)
        if restriction is None:
            raise CheckFailed("role-edge", sentence, variant, f"role {role} not declared on {head} or its ancestors")
        if restriction not in facts.chain(filler):
            raise CheckFailed("role-edge", sentence, variant, f"{role} on {head} wants {restriction}, got {filler}")


@dataclass(frozen=True)
class Score:
    scored: int
    attempted: int
    correct: int

    @property
    def f_score(self) -> float:
        precision = self.correct / self.attempted if self.attempted else 0.0
        recall = self.correct / self.scored if self.scored else 0.0
        if precision + recall == 0:
            return 0.0
        return 2 * precision * recall / (precision + recall)


def score(
    lfs: dict[str, LF],
    gold: dict[str, tuple[int, dict[int, str]]],
    gold_types: dict[str, str | None],
    fallback: str,
    variant: str,
    exact: bool = False,
) -> Score:
    """Exact-type agreement over the gold instances whose synset resolves to
    a type.  With ``exact``, every attempted instance must be correct."""
    scored = attempted = correct = 0
    for sid, (_, tokens) in gold.items():
        for index, synset in sorted(tokens.items()):
            gold_type = gold_types.get(synset)
            if gold_type is None:
                continue
            predicted = type_at(lfs[sid], index)
            if predicted is None:
                raise CheckFailed("cover", sid, variant, f"no node covers gold token {index}")
            scored += 1
            if predicted == fallback:
                continue
            attempted += 1
            if predicted == gold_type:
                correct += 1
            elif exact:
                raise CheckFailed(
                    "fixed-exact", sid, variant,
                    f"token {index} predicted {predicted}, gold {gold_type}")
    return Score(scored, attempted, correct)


def check_f(reported: float, recomputed: Score, variant: str) -> None:
    if abs(reported - recomputed.f_score) > 1e-9:
        raise CheckFailed(
            "f-score", "*", variant,
            f"report says {reported!r}, logical forms give {recomputed.f_score!r} ({recomputed})")


def check_lf(lf: LF, n_tokens: int, facts: OntologyFacts, sentence: str, variant: str) -> None:
    check_cover(lf, n_tokens, sentence, variant)
    check_edges(lf, facts, sentence, variant)
