"""Semantic type hierarchy with inherited role templates.

The hierarchy is single-inheritance: exactly one root has no parent and
every other type reaches the root through its parent chain.  A type's
*effective* roles are its parent's effective roles overridden or extended
by its own declarations, so a role template declared high in the tree is
visible on every descendant.

On top of the tree this module provides:

- reflexive ancestry (``t`` is its own first ancestor),
- Wu-Palmer similarity, ``2*depth(lcs(a, b)) / (depth(a) + depth(b))``
  with ``depth(root) = 1``,
- semantic factorization: a partition of the hierarchy into maximal
  connected regions whose members share an identical effective role set;
  the factor quotient tree is itself an :class:`Ontology`, so the
  semantic-factor similarity is Wu-Palmer over that tree, which measures
  whether two types are interchangeable structurally.
"""

from __future__ import annotations

import os
from typing import Iterable, Iterator, NamedTuple

from . import records
from .errors import FormatError, Names, StructuralError


class RoleSpec(NamedTuple):
    """A labelled argument slot with a selectional restriction.

    A filler for the role must be a descendant-or-self of ``restriction``.
    """

    name: str
    restriction: str
    required: bool = False


class OntologyType(NamedTuple):
    """One node of the hierarchy as declared (roles not yet inherited)."""

    name: str
    parent: str | None
    roles: tuple[RoleSpec, ...] = ()
    synsets: frozenset[str] = frozenset()


class Ontology:
    """A validated single-inheritance hierarchy of :class:`OntologyType`.

    Construction rejects duplicate names, forests (zero or multiple
    roots), parent cycles, dangling parents, role restrictions naming
    missing types, and synsets mapped to more than one type; each error but
    the two about roots carries the position of the type at fault.

    ``types``, ``ancestors`` (the type, then its chain up to the root) and
    ``effective_roles`` (inherited and declared) are
    :class:`~senseparse.errors.Names` tables; ``ancestor_sets`` and
    ``synset_mapping`` are plain dicts.  None may be mutated, so an
    instance is safe to share across threads.
    """

    def __init__(self, types: Iterable[OntologyType]) -> None:
        self.types: Names[OntologyType] = Names("ontology type")
        for index, t in enumerate(types):
            if t.name in self.types:
                raise StructuralError(f"duplicate type {t.name}", index)
            self.types[t.name] = t

        roots = sorted(n for n, t in self.types.items() if t.parent is None)
        if not roots:
            raise StructuralError("no root type (every type names a parent)")
        if len(roots) > 1:
            raise StructuralError("multiple roots: " + ", ".join(roots))

        def fault(message: str, name: str) -> StructuralError:
            # the position of the type at fault, looked up on the way out
            return StructuralError(message, list(self.types).index(name))

        self.ancestors: Names[tuple[str, ...]] = Names("ontology type")
        self.ancestor_sets: dict[str, frozenset[str]] = {}
        for name, cur in self.types.items():
            chain = [name]
            seen = {name}
            while cur.parent is not None:
                if cur.parent not in self.types:
                    raise fault(f"type {cur.name} names missing parent {cur.parent}", cur.name)
                if cur.parent in seen:
                    raise fault(f"cycle involving type {cur.parent}", cur.parent)
                chain.append(cur.parent)
                seen.add(cur.parent)
                cur = self.types[cur.parent]
            # the chain ends at a type with no parent: the one root
            self.ancestors[name] = tuple(chain)
            self.ancestor_sets[name] = frozenset(chain)

        # Effective roles, resolved root-first so parents are done before
        # children.  A redeclared role name replaces the inherited slot in
        # place; new names append in declaration order.
        self.effective_roles: Names[dict[str, RoleSpec]] = Names("ontology type")
        for name in sorted(self.types, key=lambda n: len(self.ancestors[n])):
            t = self.types[name]
            roles: dict[str, RoleSpec] = {}
            if t.parent is not None:
                roles.update(self.effective_roles[t.parent])
            for spec in t.roles:
                if spec.restriction not in self.types:
                    raise fault(
                        f"type {name} role {spec.name} restricts to missing type {spec.restriction}",
                        name,
                    )
                roles[spec.name] = spec
            self.effective_roles[name] = roles

        self.synset_mapping: dict[str, str] = {}
        for index, t in enumerate(self.types.values()):
            for sid in sorted(t.synsets):
                if sid in self.synset_mapping:
                    other = self.synset_mapping[sid]
                    raise StructuralError(f"synset {sid} mapped to both {other} and {t.name}", index)
                self.synset_mapping[sid] = t.name

    def __contains__(self, name: str) -> bool:
        return name in self.types

    def __iter__(self) -> Iterator[str]:
        return iter(self.types)

    # -- hierarchy queries -------------------------------------------------

    def depth(self, name: str) -> int:
        """Depth in the tree; the root has depth 1."""
        return len(self.ancestors[name])

    def wu_palmer(self, a: str, b: str) -> float:
        """Wu-Palmer similarity over the type tree, in (0, 1].  The deepest
        common ancestor is unique under single inheritance, and the root is
        common to every pair, so the first of ``a``'s chain in ``b``'s is it."""
        chain_a, chain_b = self.ancestors[a], self.ancestors[b]
        b_set = self.ancestor_sets[b]
        lcs = next(t for t in chain_a if t in b_set)
        return 2.0 * self.depth(lcs) / (len(chain_a) + len(chain_b))


# -- semantic factorization --------------------------------------------------


class FactorizedOntology(NamedTuple):
    """The quotient of a hierarchy by identical effective role structure.

    ``factor_of``, a :class:`~senseparse.errors.Names` table, sends each
    type to its factor, named after the shallowest type that opened it.
    ``factors`` is the quotient tree, an :class:`Ontology` of factor types
    whose root factor is the hierarchy's root, at depth 1.  A named tuple
    by the rule in :mod:`senseparse.records`.
    """

    factor_of: Names[str]
    factors: Ontology

    def similarity(self, a: str, b: str) -> float:
        """Wu-Palmer similarity computed over the factor tree."""
        return self.factors.wu_palmer(self.factor_of[a], self.factor_of[b])


def factorize(ontology: Ontology) -> FactorizedOntology:
    """Partition the hierarchy at nodes whose role structure changes.

    Types are visited parents first.  A type joins its parent's factor iff
    its effective role set (name, restriction, required triples) equals
    the parent's; otherwise it opens a new factor whose factor-parent is
    the parent's factor.
    """
    factor_of: Names[str] = Names("ontology type")
    factors: list[OntologyType] = []
    roles = ontology.effective_roles
    for name in sorted(ontology, key=ontology.depth):
        parent = ontology.types[name].parent
        if parent is not None and set(roles[name].values()) == set(roles[parent].values()):
            factor_of[name] = factor_of[parent]
        else:
            factor_of[name] = name
            factors.append(OntologyType(name, None if parent is None else factor_of[parent]))
    return FactorizedOntology(factor_of, Ontology(factors))


# -- file format --------------------------------------------------------------


def parse_ontology(text: str, source: str = "<string>") -> Ontology:
    """Parse the ontology file format, one record per line::

        type <name> parent <name|-> [features k=v,...] [roles <role>,...] [synsets id,...]

    A ``<role>`` is ``name:restriction``, optionally followed by
    ``:required`` or ``:optional``, and no part of it is empty.
    ``features`` must be well-formed but are not kept: nothing reads them.
    An error that one type is at fault for names its line; zero or
    multiple roots name the file alone.
    """
    types: list[OntologyType] = []
    rows = records.lines(text)
    for lineno, tokens in rows:
        if tokens[0] != "type" or len(tokens) < 2:
            raise FormatError(f"expected 'type <name>', got '{' '.join(tokens[:2])}'", source, lineno)
        name = tokens[1]
        sections = records.fields(tokens, 2, _TYPE_KEYS, source, lineno)
        if "parent" not in sections:
            raise FormatError(f"type {name} missing parent", source, lineno)
        parent = None if sections["parent"] == "-" else sections["parent"]
        _check_features(sections.get("features", "-"), name, source, lineno)
        roles = _parse_roles(sections.get("roles", "-"), name, source, lineno)
        synsets = records.split_list(sections.get("synsets", "-"), source, lineno)
        types.append(OntologyType(name, parent, roles, frozenset(synsets)))
    return records.build(Ontology, source, types, lines=[lineno for lineno, _ in rows])


def load_ontology(path: str | os.PathLike[str]) -> Ontology:
    return records.load(parse_ontology, path)


_TYPE_KEYS = ("parent", "features", "roles", "synsets")


def _check_features(value: str, name: str, source: str, lineno: int) -> None:
    for item in records.split_list(value, source, lineno):
        if "=" not in item:
            raise FormatError(f"bad feature '{item}' for type {name}", source, lineno)


def _parse_roles(value: str, name: str, source: str, lineno: int) -> tuple[RoleSpec, ...]:
    roles: list[RoleSpec] = []
    for item in records.split_list(value, source, lineno):
        parts = item.split(":")
        if (len(parts) not in (2, 3) or "" in parts
                or parts[2:] not in ([], ["required"], ["optional"])):
            raise FormatError(f"bad role '{item}' for type {name}", source, lineno)
        roles.append(RoleSpec(parts[0], parts[1], parts[2:] == ["required"]))
    return tuple(roles)
