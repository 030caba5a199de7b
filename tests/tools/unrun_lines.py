"""List the ``src/`` lines that the tier-1 tests never run.

Stdlib line tracing (``sys.settrace``), because no coverage package is
assumed.  Run from the repository root:

    python tests/tools/unrun_lines.py [pytest args...]

With no pytest arguments it runs the whole tier-1 suite in this process
(about five times slower than untraced), then prints one
``path:line: source`` row per executable line that no test reached and a
closing count.  Executable lines are the line numbers of the compiled code
objects, so docstrings, comments and blank lines never count.  Only this
process is traced: code run in a subprocess or another thread is not seen.
The file has no ``test_`` prefix, so pytest does not collect it.
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"


def executable_lines(path: Path) -> set[int]:
    """Every line number some code object compiled from ``path`` runs."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def trace_run(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """The pytest exit code and, per ``src/`` file, the lines it ran."""
    import pytest

    prefix = str(SRC) + "/"
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        # a call event carries the first line, which no line event repeats
        ran.setdefault(filename, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, str(SRC))
    sys.settrace(global_)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args])
    finally:
        sys.settrace(None)
    return int(code), ran


def main(argv: list[str]) -> int:
    code, ran = trace_run(argv)
    total = unrun = 0
    for path in sorted(SRC.rglob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        lines = executable_lines(path)
        missed = sorted(lines - ran.get(str(path), set()))
        total += len(lines)
        unrun += len(missed)
        for line in missed:
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"{unrun} of {total} executable src/ lines never ran (pytest exit {code})")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
