"""Lexical entries pairing syntactic templates with semantic types.

An entry is the (features, template, type) triple the parser seeds its
chart with.  Core entries come from the lexicon file; additional entries
are generated on demand for words reachable through the synset graph, so
coverage extends well beyond the hand-written core.  Entries are scored
with simple deterministic heuristics and pruned before parsing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from . import records
from .diagnostics import Diagnostics
from .errors import FormatError, StructuralError
from .ontology import Ontology
from .sensemap import SynsetGraph

__all__ = [
    "SyntacticTemplate",
    "LexicalEntry",
    "Lexicon",
    "load_lexicon",
    "parse_lexicon",
    "prune_entries",
    "PROVENANCE_RANK",
]

# Scoring configuration.  Priors by provenance, the penalty applied when a
# template's category disagrees with the requested part of speech, and how
# strongly a file-declared frequency pulls the score toward itself.
PROVENANCE_PRIOR = {"core": 0.8, "generated": 0.5}
INCOMPATIBLE_POS_PENALTY = 0.5
FREQ_WEIGHT = 0.25

# Tie-break order when pruning: core entries outrank prehints, which
# outrank generated entries.
PROVENANCE_RANK = {"core": 0, "prehint": 1, "generated": 2}


@dataclass(frozen=True)
class SyntacticTemplate:
    """A named syntactic frame: the category it builds and its role slots."""

    name: str
    category: str
    arg_slots: tuple[tuple[str, str], ...] = ()

    def role_names(self) -> list[str]:
        return [role for _, role in self.arg_slots]


@dataclass(frozen=True)
class LexicalEntry:
    word: str
    features: Mapping[str, str]
    template: str
    onto_type: str
    score: float = 0.0
    provenance: str = "core"
    freq: float | None = None

    def key(self) -> tuple[str, str, str]:
        return (self.word, self.template, self.onto_type)


def compatible(category: str, pos: str | None) -> bool:
    """A template category is compatible with a pos tag when they agree;
    a missing pos places no constraint."""
    return pos is None or category == pos


class Lexicon:
    """Templates, per-category defaults, and scored core entries."""

    def __init__(
        self,
        templates: Iterable[SyntacticTemplate],
        entries: Iterable[LexicalEntry],
        defaults: Mapping[str, str],
        ontology: Ontology,
    ) -> None:
        self._ontology = ontology
        self.templates: dict[str, SyntacticTemplate] = {}
        for tpl in templates:
            if tpl.name in self.templates:
                raise StructuralError(f"duplicate template {tpl.name}")
            self.templates[tpl.name] = tpl

        self.defaults: dict[str, str] = {}
        for category, tpl_name in defaults.items():
            tpl = self.templates.get(tpl_name)
            if tpl is None:
                raise StructuralError(f"default template {tpl_name} not declared")
            if tpl.category != category:
                raise StructuralError(
                    f"default template {tpl_name} has category {tpl.category}, "
                    f"not {category}"
                )
            self.defaults[category] = tpl_name

        self._entries: dict[str, list[LexicalEntry]] = {}
        donors: dict[str, set[str]] = {}
        seen: set[tuple[str, str, str]] = set()
        for entry in entries:
            self._validate_entry(entry)
            if entry.key() in seen:
                raise StructuralError(
                    f"duplicate entry {entry.word}/{entry.template}/{entry.onto_type}"
                )
            seen.add(entry.key())
            scored = replace(entry, score=self.score_entry(entry))
            self._entries.setdefault(entry.word, []).append(scored)
            donors.setdefault(entry.onto_type, set()).add(entry.template)

        # Donor template names per core entry type, in name order, and the
        # memoised choice per (type, pos): templates, entries and ontology
        # never change after construction, so neither does a choice.
        self._donors = {t: sorted(names) for t, names in donors.items()}
        self._template_choice: dict[
            tuple[str, str | None], SyntacticTemplate | None
        ] = {}

    def _validate_entry(self, entry: LexicalEntry) -> None:
        tpl = self.templates.get(entry.template)
        if tpl is None:
            raise StructuralError(
                f"entry {entry.word} references missing template {entry.template}"
            )
        if entry.onto_type not in self._ontology:
            raise StructuralError(
                f"entry {entry.word} references missing type {entry.onto_type}"
            )
        if not self.template_fits(tpl, entry.onto_type):
            raise StructuralError(
                f"template {tpl.name} names roles absent from {entry.onto_type}"
            )
        if entry.freq is not None and not 0.0 <= entry.freq <= 1.0:
            raise StructuralError(f"entry {entry.word} freq out of range")

    def template_fits(self, template: SyntacticTemplate, onto_type: str) -> bool:
        """True when every role the template names exists on the type."""
        effective = self._ontology.effective_roles(onto_type)
        return all(role in effective for role in template.role_names())

    # -- lookup and generation ---------------------------------------------

    def lookup(self, word: str, pos: str | None = None) -> list[LexicalEntry]:
        """Core entries for ``word`` whose template category fits ``pos``."""
        out = []
        for entry in self._entries.get(word, []):
            if compatible(self.templates[entry.template].category, pos):
                out.append(entry)
        return out

    def words(self) -> list[str]:
        return sorted(self._entries)

    def score_entry(self, entry: LexicalEntry) -> float:
        """Deterministic heuristic score in [0, 1].

        Prehint entries are pinned to 1.  Otherwise the provenance prior is
        penalized for a pos-incompatible template and blended with the
        file-declared frequency when one exists.
        """
        if entry.provenance == "prehint":
            return 1.0
        score = PROVENANCE_PRIOR[entry.provenance]
        pos = entry.features.get("pos")
        if not compatible(self.templates[entry.template].category, pos):
            score *= INCOMPATIBLE_POS_PENALTY
        if entry.freq is not None:
            score = (1.0 - FREQ_WEIGHT) * score + FREQ_WEIGHT * entry.freq
        return score

    def template_for_type(
        self, onto_type: str, pos: str | None
    ) -> SyntacticTemplate | None:
        """Pick a template for a type that has no entry of its own.

        Prefers a donor: any core entry whose type is an ancestor-or-self
        of ``onto_type`` and whose template matches ``pos`` and fits the
        type; the deepest donor type wins, ties by template name.  Falls
        back to the per-category default template.
        """
        key = (onto_type, pos)
        if key not in self._template_choice:
            self._template_choice[key] = self._choose_template(onto_type, pos)
        return self._template_choice[key]

    def _choose_template(
        self, onto_type: str, pos: str | None
    ) -> SyntacticTemplate | None:
        # ancestors run deepest first, so the first fitting donor is the
        # deepest one, and names within one type are sorted
        for donor_type in self._ontology.ancestors(onto_type):
            for name in self._donors.get(donor_type, ()):
                tpl = self.templates[name]
                if compatible(tpl.category, pos) and self.template_fits(tpl, onto_type):
                    return tpl

        categories = [pos] if pos is not None else sorted(self.defaults)
        for category in categories:
            name = self.defaults.get(category)
            if name is None:
                continue
            tpl = self.templates[name]
            if self.template_fits(tpl, onto_type):
                return tpl
        return None

    def generate_entries(
        self,
        word: str,
        pos: str | None,
        graph: SynsetGraph,
        diagnostics: Diagnostics | None = None,
    ) -> list[LexicalEntry]:
        """Candidate entries for ``word`` reached through the synset graph.

        Each synset containing the word that subsumes to a type yields one
        entry, unless a core entry already pairs the same template with the
        same type.  Pure in all inputs.
        """
        mapping = self._ontology.synset_mapping
        out: list[LexicalEntry] = []
        emitted: set[tuple[str, str]] = set()
        core_keys = {(e.template, e.onto_type) for e in self._entries.get(word, [])}
        for synset in graph.synsets_for_lemma(word):
            onto_type = graph.assign_type(synset.id, mapping, diagnostics)
            if onto_type is None:
                continue
            tpl = self.template_for_type(onto_type, pos)
            if tpl is None:
                if diagnostics is not None:
                    diagnostics.note(
                        "no-template", f"{word} {onto_type} (pos {pos or '-'})"
                    )
                continue
            if (tpl.name, onto_type) in core_keys or (tpl.name, onto_type) in emitted:
                continue
            emitted.add((tpl.name, onto_type))
            entry = LexicalEntry(
                word=word,
                features={"pos": pos if pos is not None else tpl.category},
                template=tpl.name,
                onto_type=onto_type,
                provenance="generated",
            )
            out.append(replace(entry, score=self.score_entry(entry)))
        return out

    def candidate_entries(
        self,
        word: str,
        pos: str | None,
        graph: SynsetGraph,
        keep: int,
        diagnostics: Diagnostics | None = None,
    ) -> list[LexicalEntry]:
        """Looked-up plus generated entries, pruned to the ``keep`` best."""
        merged = self.lookup(word, pos) + self.generate_entries(
            word, pos, graph, diagnostics
        )
        return prune_entries(merged, keep)


def prune_entries(entries: Sequence[LexicalEntry], keep: int) -> list[LexicalEntry]:
    """Top-``keep`` entries by score.

    Ties break by provenance rank (core, prehint, generated) and then
    lexicographic type.  Prehint entries ride in reserved slots beyond
    ``keep`` and are never dropped.
    """
    if keep < 1:
        raise ValueError("keep must be >= 1")

    def sort_key(item: tuple[int, LexicalEntry]):
        index, e = item
        return (-e.score, PROVENANCE_RANK[e.provenance], e.onto_type, e.template, index)

    indexed = list(enumerate(entries))
    prehints = [it for it in indexed if it[1].provenance == "prehint"]
    others = sorted(
        (it for it in indexed if it[1].provenance != "prehint"), key=sort_key
    )
    kept = sorted(prehints + others[:keep], key=sort_key)
    return [e for _, e in kept]


# -- file format --------------------------------------------------------------


def parse_lexicon(text: str, ontology: Ontology, source: str = "<string>") -> Lexicon:
    """Parse the lexicon file format.  Line types::

        template <name> cat <category> slots pos1:role1,pos2:role2|-
        default-template <category> <template-name>
        entry <word> cat <category> template <name> type <onto-type> [freq <0..1>]
    """
    templates: list[SyntacticTemplate] = []
    defaults: dict[str, str] = {}
    entry_lines: list[tuple[int, list[str]]] = []

    for lineno, tokens in records.lines(text):
        kind = tokens[0]
        if kind == "template":
            templates.append(_parse_template(tokens, source, lineno))
        elif kind == "default-template":
            if len(tokens) != 3:
                raise FormatError("expected 'default-template <cat> <name>'", source, lineno)
            if tokens[1] in defaults:
                raise FormatError(f"repeated default for category {tokens[1]}", source, lineno)
            defaults[tokens[1]] = tokens[2]
        elif kind == "entry":
            entry_lines.append((lineno, tokens))
        else:
            raise FormatError(f"unknown record '{kind}'", source, lineno)

    entries = [_parse_entry(tokens, source, lineno) for lineno, tokens in entry_lines]
    try:
        lex = Lexicon(templates, [e for e, _ in entries], defaults, ontology)
    except StructuralError as exc:
        raise StructuralError(f"{source}: {exc}") from exc
    # the entry line also declares a category; it must agree with the template
    for (entry, category), (lineno, _) in zip(entries, entry_lines):
        if lex.templates[entry.template].category != category:
            raise FormatError(
                f"entry {entry.word} declares cat {category} but template "
                f"{entry.template} builds {lex.templates[entry.template].category}",
                source,
                lineno,
            )
    return lex


def load_lexicon(path: str | Path, ontology: Ontology) -> Lexicon:
    return records.load(parse_lexicon, path, ontology)


def _parse_template(tokens: list[str], source: str, lineno: int) -> SyntacticTemplate:
    if len(tokens) < 2:
        raise FormatError("template missing name", source, lineno)
    name = tokens[1]
    fields = records.fields(tokens, 2, ("cat", "slots"), source, lineno)
    if "cat" not in fields:
        raise FormatError(f"template {name} missing cat", source, lineno)
    slots: list[tuple[str, str]] = []
    for item in records.split_list(fields.get("slots", "-")):
        if ":" not in item:
            raise FormatError(f"bad slot '{item}' in template {name}", source, lineno)
        position, role = item.split(":", 1)
        slots.append((position, role))
    return SyntacticTemplate(name, fields["cat"], tuple(slots))


def _parse_entry(tokens: list[str], source: str, lineno: int) -> tuple[LexicalEntry, str]:
    if len(tokens) < 2:
        raise FormatError("entry missing word", source, lineno)
    word = tokens[1]
    fields = records.fields(tokens, 2, ("cat", "template", "type", "freq"), source, lineno)
    for required in ("cat", "template", "type"):
        if required not in fields:
            raise FormatError(f"entry {word} missing {required}", source, lineno)
    freq: float | None = None
    if "freq" in fields:
        freq = records.finite(fields["freq"], "freq", source, lineno)
    entry = LexicalEntry(
        word=word,
        features={"pos": fields["cat"]},
        template=fields["template"],
        onto_type=fields["type"],
        provenance="core",
        freq=freq,
    )
    return entry, fields["cat"]
