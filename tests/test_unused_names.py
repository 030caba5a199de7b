"""Every function, class, method, field and attribute of the package is
used by the package.

No linter runs on this repository, so this walks the syntax trees of
``src/senseparse``: each module-level function or class, and each method,
must be referenced somewhere in the package, as a name or as an attribute.
Each field of a ``NamedTuple`` and each ``self.<attr>`` an ``__init__`` sets
is state, and must be read as an attribute somewhere in the package, so no
state is only written.  Names are matched without their owner, so a method
or field counts as used when any attribute of that name is read.  Dunder
methods are called by Python itself and are not checked.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "senseparse"

# definitions and state that only a caller outside the package uses, and why
EXEMPT = {
    "cli._CliParser.error": "argparse calls it on a usage error",
    "ontology.RoleSpec.required": "factorize compares role sets through RoleSpec equality",
    "parser.ParseResult.fragments": "perfbench/layers.py, tests/tools/equivalence.py and the "
                                    "tests read each parse's derivation",
    "parser.ParseResult.agenda_pops": "perfbench/layers.py, tests/tools/equivalence.py and "
                                      "the tests count the search's pops",
}


def unused_definitions(sources: dict[str, str]) -> list[str]:
    """Qualified names (``module.Class.method``) defined in ``sources``, a
    map of module name to source text, that no module references, then the
    fields and ``__init__`` attributes (``module.Class.field``) that no
    module reads."""
    defined: list[tuple[str, str]] = []
    state: list[tuple[str, str]] = []
    referenced: set[str] = set()
    read: set[str] = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((f"{module}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                owner = f"{module}.{node.name}"
                defined.extend(
                    (f"{owner}.{item.name}", item.name)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not (item.name.startswith("__") and item.name.endswith("__"))
                )
                state.extend((f"{owner}.{name}", name) for name in _state(node))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
                if isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
    return [qualified for qualified, name in defined if name not in referenced] + [
        qualified for qualified, name in state if name not in read
    ]


def _state(cls: ast.ClassDef) -> list[str]:
    """The fields of a ``NamedTuple`` class, or the ``self.<attr>`` names
    its ``__init__`` sets."""
    if any(isinstance(base, ast.Name) and base.id == "NamedTuple" for base in cls.bases):
        return [
            item.target.id for item in cls.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
        ]
    names = [
        node.attr
        for item in cls.body
        if isinstance(item, ast.FunctionDef) and item.name == "__init__"
        for node in ast.walk(item)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name) and node.value.id == "self"
    ]
    return list(dict.fromkeys(names))


def test_package_uses_every_name_it_defines():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert sorted(unused_definitions(sources)) == sorted(EXEMPT)


def test_guard_reports_unused_definitions():
    sources = {
        "a": "def used():\n    pass\n\nclass Box:\n    def __len__(self):\n        return 0\n"
             "    def open(self):\n        pass\n    def shut(self):\n        pass\n",
        "b": "from a import used\n\nused()\nBox().open()\n",
    }
    assert unused_definitions(sources) == ["a.Box.shut"]


def test_guard_reports_state_that_is_only_written():
    sources = {
        "a": "from typing import NamedTuple\n\n"
             "class Pair(NamedTuple):\n    left: int\n    right: int\n\n"
             "class Box:\n    def __init__(self):\n        self.lid = 0\n"
             "        self.size: int = 1\n        self.size += 1\n",
        "b": "from a import Box, Pair\n\nPair(1, 2).left\nBox().lid\nright = 3\n",
    }
    # a field read by position or bound as a name, or an attribute only
    # written to, is not read
    assert unused_definitions(sources) == ["a.Pair.right", "a.Box.size"]
