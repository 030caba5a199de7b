"""Lexical entries pairing syntactic templates with semantic types.

An entry is the (word, template, type) triple the parser seeds its chart
with, and a score; its category is its template's.  Each score is set once,
where its entry is made:

- a core entry, read from the lexicon file, scores ``CORE_SCORE``; a
  ``freq`` on its line pulls that toward itself by ``FREQ_WEIGHT``, to
  between 0.6 and 0.85;
- an entry generated on demand for a word reachable through the synset
  graph, which extends coverage beyond the hand-written core, scores
  ``GENERATED_SCORE``;
- an advised sense that hinting injects (:mod:`senseparse.hinting`)
  scores 1.

A token keeps its ``ENTRY_KEEP`` best candidates, by score, then type, then
template.  A core entry always outscores a generated one, so where an entry
came from needs no tie-break of its own, and no two candidates of one word
share a (type, template) pair, so the order is total.
"""

from __future__ import annotations

import os
from typing import Iterable, Mapping, NamedTuple

from . import records
from .diagnostics import DISCARD, Diagnostics
from .errors import FormatError, StructuralError
from .ontology import Ontology
from .sensemap import SynsetGraph

# Entry scores, as the module docstring sets out.
CORE_SCORE = 0.8
FREQ_WEIGHT = 0.25
GENERATED_SCORE = 0.5

# How many candidate entries each token keeps for parsing.
ENTRY_KEEP = 4


class SyntacticTemplate(NamedTuple):
    """A named syntactic frame: the category it builds and the roles its
    slots name."""

    name: str
    category: str
    roles: tuple[str, ...] = ()


class LexicalEntry(NamedTuple):
    word: str
    template: str
    onto_type: str
    score: float

    def key(self) -> tuple[str, str, str]:
        return (self.word, self.template, self.onto_type)


def compatible(category: str, pos: str | None) -> bool:
    """A template category is compatible with a pos tag when they agree;
    a missing pos places no constraint."""
    return pos is None or category == pos


class Lexicon:
    """Templates, per-category defaults, and scored core entries.

    A check that finds one record at fault names it by its position among
    the templates, then the defaults, then the entries, in the order handed.
    """

    def __init__(
        self,
        templates: Iterable[SyntacticTemplate],
        entries: Iterable[LexicalEntry],
        defaults: Mapping[str, str],
        ontology: Ontology,
    ) -> None:
        self._ontology = ontology
        self.templates: dict[str, SyntacticTemplate] = {}
        for index, tpl in enumerate(templates):
            if tpl.name in self.templates:
                raise StructuralError(f"duplicate template {tpl.name}", index)
            self.templates[tpl.name] = tpl

        self.defaults: dict[str, str] = {}
        for index, (category, tpl_name) in enumerate(defaults.items(), len(self.templates)):
            tpl = self.templates.get(tpl_name)
            if tpl is None:
                raise StructuralError(f"default template {tpl_name} not declared", index)
            if tpl.category != category:
                raise StructuralError(
                    f"default template {tpl_name} has category {tpl.category}, "
                    f"not {category}",
                    index,
                )
            self.defaults[category] = tpl_name

        self._entries: dict[str, list[LexicalEntry]] = {}
        donors: dict[str, set[str]] = {}
        seen: set[tuple[str, str, str]] = set()
        for index, entry in enumerate(entries, len(self.templates) + len(self.defaults)):
            tpl = self.templates.get(entry.template)
            if tpl is None:
                problem = f"entry {entry.word} references missing template {entry.template}"
            elif entry.onto_type not in self._ontology:
                problem = f"entry {entry.word} references missing type {entry.onto_type}"
            elif not self.template_fits(tpl, entry.onto_type):
                problem = f"template {tpl.name} names roles absent from {entry.onto_type}"
            elif entry.key() in seen:
                problem = f"duplicate entry {entry.word}/{entry.template}/{entry.onto_type}"
            else:
                problem = ""
            if problem:
                raise StructuralError(problem, index)
            seen.add(entry.key())
            self._entries.setdefault(entry.word, []).append(entry)
            donors.setdefault(entry.onto_type, set()).add(entry.template)

        # Donor template names per core entry type, in name order, and the
        # memoised choice per (type, pos): templates, entries and ontology
        # never change after construction, so neither does a choice.
        self._donors = {t: sorted(names) for t, names in donors.items()}
        self._template_choice: dict[
            tuple[str, str | None], SyntacticTemplate | None
        ] = {}

    def template_fits(self, template: SyntacticTemplate, onto_type: str) -> bool:
        """True when every role the template names exists on the type."""
        effective = self._ontology.effective_roles[onto_type]
        return all(role in effective for role in template.roles)

    # -- lookup and generation ---------------------------------------------

    def lookup(self, word: str, pos: str | None = None) -> list[LexicalEntry]:
        """Core entries for ``word`` whose template category fits ``pos``."""
        out = []
        for entry in self._entries.get(word, []):
            if compatible(self.templates[entry.template].category, pos):
                out.append(entry)
        return out

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
        for donor_type in self._ontology.ancestors[onto_type]:
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
        diagnostics: Diagnostics = DISCARD,
    ) -> list[LexicalEntry]:
        """Candidate entries for ``word`` reached through the synset graph.

        Each synset containing the word that subsumes to a type yields one
        entry, scored ``GENERATED_SCORE``, unless a core entry already pairs
        the same template with the same type.  A synset that reaches no
        type, and a type no template fits, yield none and are noted.  Pure
        in all inputs.
        """
        mapping = self._ontology.synset_mapping
        out: list[LexicalEntry] = []
        emitted: set[tuple[str, str]] = set()
        core_keys = {(e.template, e.onto_type) for e in self._entries.get(word, [])}
        for synset in graph.synsets_for_lemma(word):
            onto_type = graph.assign_type(synset.id, mapping, diagnostics)
            if onto_type is None:
                diagnostics.note("unmapped-entry", f"{word} {synset.id}")
                continue
            tpl = self.template_for_type(onto_type, pos)
            if tpl is None:
                diagnostics.note("no-template", f"{word} {onto_type} (pos {pos or '-'})")
                continue
            if (tpl.name, onto_type) in core_keys or (tpl.name, onto_type) in emitted:
                continue
            emitted.add((tpl.name, onto_type))
            out.append(LexicalEntry(word, tpl.name, onto_type, GENERATED_SCORE))
        return out

    def candidate_entries(
        self,
        word: str,
        pos: str | None,
        graph: SynsetGraph,
        diagnostics: Diagnostics = DISCARD,
    ) -> list[LexicalEntry]:
        """Looked-up plus generated entries: the ``ENTRY_KEEP`` best by
        score, then type, then template."""
        merged = self.lookup(word, pos) + self.generate_entries(
            word, pos, graph, diagnostics
        )
        merged.sort(key=lambda e: (-e.score, e.onto_type, e.template))
        return merged[:ENTRY_KEEP]


# -- file format --------------------------------------------------------------


def parse_lexicon(text: str, ontology: Ontology, source: str = "<string>") -> Lexicon:
    """Parse the lexicon file format.  Line types::

        template <name> cat <category> slots pos1:role1,pos2:role2|-
        default-template <category> <template-name>
        entry <word> cat <category> template <name> type <onto-type> [freq <0..1>]
    """
    templates: list[SyntacticTemplate] = []
    defaults: dict[str, str] = {}
    template_lines: list[int] = []
    default_lines: list[int] = []
    entry_lines: list[tuple[int, list[str]]] = []

    for lineno, tokens in records.lines(text):
        kind = tokens[0]
        if kind == "template":
            templates.append(_parse_template(tokens, source, lineno))
            template_lines.append(lineno)
        elif kind == "default-template":
            if len(tokens) != 3:
                raise FormatError("expected 'default-template <cat> <name>'", source, lineno)
            if tokens[1] in defaults:
                raise FormatError(f"repeated default for category {tokens[1]}", source, lineno)
            defaults[tokens[1]] = tokens[2]
            default_lines.append(lineno)
        elif kind == "entry":
            entry_lines.append((lineno, tokens))
        else:
            raise FormatError(f"unknown record '{kind}'", source, lineno)

    entries = [_parse_entry(tokens, source, lineno) for lineno, tokens in entry_lines]
    # a record's line by its position, counting templates, defaults, entries
    lex = records.build(
        Lexicon, source, templates, [e for e, _ in entries], defaults, ontology,
        lines=[*template_lines, *default_lines, *(lineno for lineno, _ in entry_lines)],
    )
    # the entry line also declares a category; it must agree with the template
    for (entry, category), (lineno, _) in zip(entries, entry_lines):
        if lex.templates[entry.template].category != category:
            raise FormatError(
                f"entry {entry.word} declares cat {category} but template "
                f"{entry.template} builds {lex.templates[entry.template].category}",
                source, lineno,
            )
    return lex


def load_lexicon(path: str | os.PathLike[str], ontology: Ontology) -> Lexicon:
    return records.load(parse_lexicon, path, ontology)


def _parse_template(tokens: list[str], source: str, lineno: int) -> SyntacticTemplate:
    if len(tokens) < 2:
        raise FormatError("template missing name", source, lineno)
    name = tokens[1]
    fields = records.fields(tokens, 2, ("cat", "slots"), source, lineno)
    if "cat" not in fields:
        raise FormatError(f"template {name} missing cat", source, lineno)
    roles: list[str] = []
    for item in records.split_list(fields.get("slots", "-"), source, lineno):
        parts = item.split(":")
        if len(parts) != 2 or "" in parts:
            raise FormatError(f"bad slot '{item}' in template {name}", source, lineno)
        roles.append(parts[1])
    return SyntacticTemplate(name, fields["cat"], tuple(roles))


def _parse_entry(tokens: list[str], source: str, lineno: int) -> tuple[LexicalEntry, str]:
    if len(tokens) < 2:
        raise FormatError("entry missing word", source, lineno)
    word = tokens[1]
    fields = records.fields(tokens, 2, ("cat", "template", "type", "freq"), source, lineno)
    for required in ("cat", "template", "type"):
        if required not in fields:
            raise FormatError(f"entry {word} missing {required}", source, lineno)
    score = CORE_SCORE
    if "freq" in fields:
        freq = records.finite(fields["freq"], "freq", source, lineno)
        if not 0.0 <= freq <= 1.0:
            raise FormatError(
                f"freq '{fields['freq']}' of entry {word} not in [0, 1]", source, lineno
            )
        score = (1.0 - FREQ_WEIGHT) * score + FREQ_WEIGHT * freq
    entry = LexicalEntry(word, fields["template"], fields["type"], score)
    return entry, fields["cat"]
