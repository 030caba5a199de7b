"""Mutation sweep: which small changes to ``src/`` do the tier-1 tests miss?

Stdlib only.  Run from the repository root:

    python tests/tools/mutants.py [--jobs 1|2] [--list] [module ...]

The modules (names under ``src/senseparse/``) default to ``parser``,
``hinting``, ``evaluation``, ``advice``, ``lexicon``, ``sensemap``, the
readers' shared ``records`` and ``ontology``, and ``errors``.
Each mutant changes one expression, in one of these ways:

- a comparison swapped: ``<``/``<=``, ``>``/``>=``, ``==``/``!=``,
  ``in``/``not in``, ``is``/``is not``;
- an arithmetic operator swapped, also in augmented assignments:
  ``+``/``-``, ``*``/``/``, ``//`` and ``**`` to ``*``, ``%`` to ``//``;
- ``and``/``or`` swapped, or a ``not`` dropped;
- ``min``/``max`` swapped;
- an integer literal ``n`` made ``n + 1``.

The checkout (without ``.git`` and caches) is copied into a temporary
directory once per worker, and each mutant is written into that copy, never
into this checkout.  The unmutated copy must pass tier-1 first.  The whole
tier-1 suite then runs under ``pytest -x`` in a child process, with a
60-second limit, a 1 GB address-space limit and no bytecode cache; a
failing, erroring or timed-out run kills the mutant.  ``--jobs`` runs at most two mutants at once.
``--list`` prints the mutants without running anything.

Each surviving mutant is printed as ``path:line: original -> mutant``.  A
survivor listed in ``EQUIVALENT`` below, with its reason, changes no
behaviour a test could see and does not count.  The exit code is 1 if an
unlisted mutant survives, 2 if the unmutated copy fails, else 0.  The file
has no ``test_`` prefix, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import ast
import copy
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from queue import Queue
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "senseparse"
NOT_COPIED = (".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench-work")
DEFAULT_MODULES = (
    "parser", "hinting", "evaluation", "advice", "lexicon", "sensemap", "records", "ontology",
    "errors",
)
TIMEOUT_S = 60  # tier-1 takes under 10 s
MEMORY_BYTES = 1024**3

COMPARE_SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is,
}
ARITHMETIC_SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
    ast.FloorDiv: ast.Mult, ast.Pow: ast.Mult, ast.Mod: ast.FloorDiv,
}
BOOL_SWAPS = {ast.And: ast.Or, ast.Or: ast.And}
MIN_MAX = {"min": "max", "max": "min"}

# Survivors no test can kill, keyed by (file, enclosing definition, original
# code, mutant code as printed), with the reason the two behave the same.
EQUIVALENT: dict[tuple[str, str, str, str], str] = {
    ("records.py", "fields", "len(tokens) - start", "(len(tokens) + start)"): (
        "only the parity is read, and a + b and a - b always have the same parity"
    ),
    ("sensemap.py", "SynsetGraph._check_acyclic", "2", "(3)"): (
        "BLACK need only differ from WHITE and GREY"
    ),
}


class Mutant(NamedTuple):
    path: Path
    scope: str  # the enclosing class and function names, dotted
    line: int
    start: int  # character offsets of the replaced code in the source
    end: int
    original: str
    mutant: str

    def key(self) -> tuple[str, str, str, str]:
        return (self.path.name, self.scope, self.original, self.mutant)

    def label(self) -> str:
        return f"{self.path.relative_to(ROOT)}:{self.line}: {self.original} -> {self.mutant}"

    def apply(self, source: str) -> str:
        return source[: self.start] + self.mutant + source[self.end :]


def _offset_finder(source: str):
    """Maps an AST (line, UTF-8 byte column) to a character offset."""
    lines = source.splitlines(keepends=True)
    starts = [0, 0]
    for line in lines:
        starts.append(starts[-1] + len(line))

    def offset(line: int, column: int) -> int:
        return starts[line] + len(lines[line - 1].encode("utf-8")[:column].decode("utf-8"))

    return offset


def _unparse_with(node: ast.AST, **fields) -> str:
    """``node`` unparsed with ``fields`` replaced, leaving ``node`` as it is."""
    changed = copy.copy(node)
    for name, value in fields.items():
        setattr(changed, name, value)
    return ast.unparse(changed)


def _variants(node: ast.AST) -> list[tuple[ast.AST, str]]:
    """(replaced node, replacement code) per mutant of ``node``."""
    if isinstance(node, ast.Compare):
        found = []
        for i, op in enumerate(node.ops):
            if type(op) in COMPARE_SWAPS:
                ops = [*node.ops]
                ops[i] = COMPARE_SWAPS[type(op)]()
                found.append((node, f"({_unparse_with(node, ops=ops)})"))
        return found
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in ARITHMETIC_SWAPS:
        text = _unparse_with(node, op=ARITHMETIC_SWAPS[type(node.op)]())
        return [(node, text if isinstance(node, ast.AugAssign) else f"({text})")]
    if isinstance(node, ast.BoolOp):
        return [(node, f"({_unparse_with(node, op=BOOL_SWAPS[type(node.op)]())})")]
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        return [(node, f"({ast.unparse(node.operand)})")]
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in MIN_MAX:
        return [(node.func, MIN_MAX[node.func.id])]
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return [(node, f"({node.value + 1})")]
    return []


def mutants_of(path: Path) -> list[Mutant]:
    source = path.read_text(encoding="utf-8")
    offset = _offset_finder(source)
    found: list[Mutant] = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        if isinstance(node, ast.JoinedStr):
            return  # an f-string's parts cannot take unparsed code safely
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = (*scope, node.name)
        for target, text in _variants(node):
            start = offset(target.lineno, target.col_offset)
            end = offset(target.end_lineno, target.end_col_offset)
            found.append(
                Mutant(path, ".".join(scope), target.lineno, start, end, source[start:end], text)
            )
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return sorted(found, key=lambda m: (m.start, m.end))


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))


def tier1_fails(tree: Path) -> bool:
    """Whether tier-1, run in ``tree``, fails, errs or times out."""
    try:
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
            cwd=tree, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIMEOUT_S, preexec_fn=_limit_memory,
            # two mutants of one size written within a second would share
            # a stale bytecode file
            env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        )
        return run.returncode != 0
    except subprocess.TimeoutExpired:
        return True


def killed(mutant: Mutant, tree: Path) -> bool:
    """Whether tier-1 fails in ``tree`` with the mutant written in."""
    target = tree / mutant.path.relative_to(ROOT)
    original = target.read_text(encoding="utf-8")
    target.write_text(mutant.apply(original), encoding="utf-8")
    try:
        return tier1_fails(tree)
    finally:
        target.write_text(original, encoding="utf-8")


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("modules", nargs="*", default=list(DEFAULT_MODULES))
    ap.add_argument("--jobs", type=int, choices=(1, 2), default=1)
    ap.add_argument("--list", action="store_true", help="print the mutants and stop")
    args = ap.parse_args(argv)

    mutants = [m for name in args.modules for m in mutants_of(PACKAGE / f"{name}.py")]
    if args.list:
        for m in mutants:
            print(m.label())
        print(f"{len(mutants)} mutants")
        return 0

    t0 = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        trees: Queue[Path] = Queue()
        for k in range(args.jobs):
            tree = Path(scratch) / str(k)
            shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(*NOT_COPIED))
            trees.put(tree)
        if tier1_fails(tree):
            print("tier-1 fails without any mutant; nothing to sweep")
            return 2

        def run(mutant: Mutant) -> bool:
            tree = trees.get()
            try:
                return killed(mutant, tree)
            finally:
                trees.put(tree)

        survivors = equivalent = 0
        with ThreadPoolExecutor(args.jobs) as pool:
            # results arrive in mutant order, each printed as soon as known
            for mutant, dead in zip(mutants, pool.map(run, mutants)):
                reason = EQUIVALENT.get(mutant.key())
                if dead:
                    if reason is not None:
                        print(f"killed, but listed as equivalent: {mutant.label()}", flush=True)
                elif reason is None:
                    survivors += 1
                    print(f"SURVIVED {mutant.label()}  [{mutant.scope}]", flush=True)
                else:
                    equivalent += 1
                    print(f"equivalent {mutant.label()}: {reason}", flush=True)
    print(
        f"{len(mutants)} mutants: {len(mutants) - survivors - equivalent} killed, "
        f"{equivalent} equivalent, {survivors} unexplained survivors "
        f"({time.monotonic() - t0:.0f} s, {args.jobs} job(s))"
    )
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
