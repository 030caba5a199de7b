"""Every function, class and method of the package is used by the package.

No linter runs on this repository, so this walks the syntax trees of
``src/senseparse``: each module-level function or class, and each method,
must be referenced somewhere in the package, as a name or as an attribute.
Names are matched without their owner, so a method counts as used when any
attribute of that name is read.  Dunder methods are called by Python itself
and are not checked.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "senseparse"

# definitions that only a caller outside the package uses, and why
EXEMPT = {
    "cli._CliParser.error": "argparse calls it on a usage error",
}


def unused_definitions(sources: dict[str, str]) -> list[str]:
    """Qualified names (``module.Class.method``) defined in ``sources``, a
    map of module name to source text, that no module references."""
    defined: list[tuple[str, str]] = []
    referenced: set[str] = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((f"{module}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                defined.extend(
                    (f"{module}.{node.name}.{item.name}", item.name)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not (item.name.startswith("__") and item.name.endswith("__"))
                )
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return [qualified for qualified, name in defined if name not in referenced]


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
