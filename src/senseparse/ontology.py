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
  connected regions whose members share an identical effective role set,
- the same Wu-Palmer formula evaluated over the factor quotient tree,
  which measures whether two types are interchangeable structurally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from . import records
from .errors import FormatError, StructuralError, UnknownName

__all__ = [
    "RoleSpec",
    "OntologyType",
    "Ontology",
    "FactorizedOntology",
    "load_ontology",
    "parse_ontology",
    "factorize",
]


@dataclass(frozen=True)
class RoleSpec:
    """A labelled argument slot with a selectional restriction.

    A filler for the role must be a descendant-or-self of ``restriction``.
    """

    name: str
    restriction: str
    required: bool = False

    def signature(self) -> tuple[str, str, bool]:
        return (self.name, self.restriction, self.required)


@dataclass(frozen=True)
class OntologyType:
    """One node of the hierarchy as declared (roles not yet inherited)."""

    name: str
    parent: str | None
    features: Mapping[str, str] = field(default_factory=dict)
    roles: tuple[RoleSpec, ...] = ()
    synsets: frozenset[str] = frozenset()


class Ontology:
    """A validated single-inheritance hierarchy of :class:`OntologyType`.

    Construction rejects duplicate names, forests (zero or multiple
    roots), parent cycles, dangling parents, role restrictions naming
    missing types, and synsets mapped to more than one type.  Instances
    are immutable after construction and safe to share across threads.
    """

    def __init__(self, types: Iterable[OntologyType]) -> None:
        self._types: dict[str, OntologyType] = {}
        for t in types:
            if t.name in self._types:
                raise StructuralError(f"duplicate type {t.name}")
            self._types[t.name] = t

        roots = sorted(n for n, t in self._types.items() if t.parent is None)
        if not roots:
            raise StructuralError("no root type (every type names a parent)")
        if len(roots) > 1:
            raise StructuralError("multiple roots: " + ", ".join(roots))
        self.root: str = roots[0]

        self._ancestors: dict[str, tuple[str, ...]] = {}
        self._ancestor_sets: dict[str, frozenset[str]] = {}
        for name in self._types:
            chain = [name]
            seen = {name}
            cur = self._types[name]
            while cur.parent is not None:
                if cur.parent not in self._types:
                    raise StructuralError(
                        f"type {cur.name} names missing parent {cur.parent}"
                    )
                if cur.parent in seen:
                    raise StructuralError(f"cycle involving type {cur.parent}")
                chain.append(cur.parent)
                seen.add(cur.parent)
                cur = self._types[cur.parent]
            if chain[-1] != self.root:
                # a cycle not reaching the root is caught above; this is a
                # second root's subtree, already rejected by the root count
                raise StructuralError(f"type {name} does not reach the root")
            self._ancestors[name] = tuple(chain)
            self._ancestor_sets[name] = frozenset(chain)

        # Effective roles, resolved root-first so parents are done before
        # children.  A redeclared role name replaces the inherited slot in
        # place; new names append in declaration order.
        self._effective: dict[str, dict[str, RoleSpec]] = {}
        for name in sorted(self._types, key=lambda n: len(self._ancestors[n])):
            t = self._types[name]
            roles: dict[str, RoleSpec] = {}
            if t.parent is not None:
                roles.update(self._effective[t.parent])
            for spec in t.roles:
                if spec.restriction not in self._types:
                    raise StructuralError(
                        f"type {name} role {spec.name} restricts to missing "
                        f"type {spec.restriction}"
                    )
                roles[spec.name] = spec
            self._effective[name] = roles

        self._synset_to_type: dict[str, str] = {}
        for name in self._types:
            for sid in sorted(self._types[name].synsets):
                other = self._synset_to_type.get(sid)
                if other is not None and other != name:
                    raise StructuralError(
                        f"synset {sid} mapped to both {other} and {name}"
                    )
                self._synset_to_type[sid] = name

    # -- basic access ----------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._types

    def __iter__(self) -> Iterator[str]:
        return iter(self._types)

    def __len__(self) -> int:
        return len(self._types)

    def get(self, name: str) -> OntologyType:
        self._check(name)
        return self._types[name]

    def _check(self, name: str) -> None:
        if name not in self._types:
            raise UnknownName(f"unknown ontology type {name}")

    @property
    def synset_mapping(self) -> Mapping[str, str]:
        """Read-only map of synset id to the type it is hand-mapped to."""
        return self._synset_to_type

    @property
    def ancestor_sets(self) -> Mapping[str, frozenset[str]]:
        """Read-only map of each type to its reflexive ancestor set; the
        unchecked form of :meth:`is_a` for callers that validated types."""
        return self._ancestor_sets

    # -- hierarchy queries -------------------------------------------------

    def ancestors(self, name: str) -> list[str]:
        """Return ``name`` followed by its parent chain up to the root."""
        self._check(name)
        return list(self._ancestors[name])

    def depth(self, name: str) -> int:
        """Depth in the tree; the root has depth 1."""
        self._check(name)
        return len(self._ancestors[name])

    def is_a(self, name: str, ancestor: str) -> bool:
        """True iff ``name`` is a descendant-or-self of ``ancestor``."""
        self._check(name)
        self._check(ancestor)
        return ancestor in self._ancestor_sets[name]

    def lcs(self, a: str, b: str) -> str:
        """Deepest common ancestor; unique under single inheritance."""
        self._check(a)
        self._check(b)
        b_set = self._ancestor_sets[b]
        for t in self._ancestors[a]:
            if t in b_set:
                return t
        raise StructuralError(f"no common ancestor for {a} and {b}")  # unreachable

    def wu_palmer(self, a: str, b: str) -> float:
        """Wu-Palmer similarity over the type tree, in (0, 1]."""
        lcs = self.lcs(a, b)
        return 2.0 * self.depth(lcs) / (self.depth(a) + self.depth(b))

    def effective_roles(self, name: str) -> Mapping[str, RoleSpec]:
        """Inherited-plus-declared roles for ``name``; do not mutate."""
        self._check(name)
        return self._effective[name]

    def role_signature(self, name: str) -> frozenset[tuple[str, str, bool]]:
        self._check(name)
        return frozenset(r.signature() for r in self._effective[name].values())


# -- semantic factorization --------------------------------------------------


@dataclass(frozen=True)
class FactorizedOntology:
    """The quotient of a hierarchy by identical effective role structure.

    ``factor_of`` sends each type to its factor; a factor is named after
    the shallowest type that opened it.  Factors form a tree (a quotient
    of the type tree) with the root factor at depth 1.
    """

    factor_of: Mapping[str, str]
    factor_parent: Mapping[str, str | None]
    factor_depth: Mapping[str, int]

    def factor_ancestors(self, factor: str) -> list[str]:
        chain = [factor]
        while (parent := self.factor_parent[chain[-1]]) is not None:
            chain.append(parent)
        return chain

    def similarity(self, a: str, b: str) -> float:
        """Wu-Palmer similarity computed over the factor tree."""
        for name in (a, b):
            if name not in self.factor_of:
                raise UnknownName(f"unknown ontology type {name}")
        fa = self.factor_of[a]
        fb = self.factor_of[b]
        fb_chain = set(self.factor_ancestors(fb))
        lcs = next(f for f in self.factor_ancestors(fa) if f in fb_chain)
        return (
            2.0
            * self.factor_depth[lcs]
            / (self.factor_depth[fa] + self.factor_depth[fb])
        )


def factorize(ontology: Ontology) -> FactorizedOntology:
    """Partition the hierarchy at nodes whose role structure changes.

    A type joins its parent's factor iff its effective role set (name,
    restriction, required triples) equals the parent's; otherwise it opens
    a new factor whose factor-parent is the parent's factor.
    """
    children: dict[str, list[str]] = {name: [] for name in ontology}
    for name in ontology:
        parent = ontology.get(name).parent
        if parent is not None:
            children[parent].append(name)

    root = ontology.root
    factor_of: dict[str, str] = {root: root}
    factor_parent: dict[str, str | None] = {root: None}
    factor_depth: dict[str, int] = {root: 1}

    queue = sorted(children[root])
    while queue:
        name = queue.pop(0)
        parent = ontology.get(name).parent
        assert parent is not None
        if ontology.role_signature(name) == ontology.role_signature(parent):
            factor_of[name] = factor_of[parent]
        else:
            factor_of[name] = name
            factor_parent[name] = factor_of[parent]
            factor_depth[name] = factor_depth[factor_of[parent]] + 1
        queue.extend(sorted(children[name]))

    return FactorizedOntology(factor_of, factor_parent, factor_depth)


# -- file format --------------------------------------------------------------


def parse_ontology(text: str, source: str = "<string>") -> Ontology:
    """Parse the ontology file format.

    One record per block, blank lines separate blocks, ``#`` starts a
    comment line.  Record syntax::

        type <name> parent <name|-> [features k=v,...]
            [roles name:restriction[:required],...] [synsets id,...]
    """
    types: list[OntologyType] = []
    seen: set[str] = set()
    for lineno, tokens in records.blocks(text):
        types.append(_parse_type_block(tokens, source, lineno))
        name = types[-1].name
        if name in seen:
            raise FormatError(f"duplicate type {name}", source, lineno)
        seen.add(name)
    try:
        return Ontology(types)
    except StructuralError as exc:
        raise StructuralError(f"{source}: {exc}") from exc


def load_ontology(path: str | Path) -> Ontology:
    return records.load(parse_ontology, path)


def _parse_type_block(tokens: list[str], source: str, lineno: int) -> OntologyType:
    if tokens[0] != "type" or len(tokens) < 2:
        raise FormatError(f"expected 'type <name>', got '{' '.join(tokens[:2])}'", source, lineno)
    name = tokens[1]
    sections = records.fields(
        tokens, 2, ("parent", "features", "roles", "synsets"), source, lineno
    )
    if "parent" not in sections:
        raise FormatError(f"type {name} missing parent", source, lineno)

    parent = None if sections["parent"] == "-" else sections["parent"]
    features = _parse_features(sections.get("features", "-"), name, source, lineno)
    roles = _parse_roles(sections.get("roles", "-"), name, source, lineno)
    synsets = records.split_list(sections.get("synsets", "-"))
    return OntologyType(name, parent, features, roles, frozenset(synsets))


def _parse_features(value: str, name: str, source: str, lineno: int) -> dict[str, str]:
    features: dict[str, str] = {}
    for item in records.split_list(value):
        if "=" not in item:
            raise FormatError(f"bad feature '{item}' for type {name}", source, lineno)
        k, v = item.split("=", 1)
        features[k] = v
    return features


def _parse_roles(value: str, name: str, source: str, lineno: int) -> tuple[RoleSpec, ...]:
    roles: list[RoleSpec] = []
    for item in records.split_list(value):
        parts = item.split(":")
        if len(parts) == 2:
            roles.append(RoleSpec(parts[0], parts[1]))
        elif len(parts) == 3 and parts[2] in ("required", "optional"):
            roles.append(RoleSpec(parts[0], parts[1], parts[2] == "required"))
        else:
            raise FormatError(f"bad role '{item}' for type {name}", source, lineno)
    return tuple(roles)
