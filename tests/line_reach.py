"""Print each statement of src/asmice that the tier-1 tests never run.

Run from the repository root:

    python tests/line_reach.py [pytest arguments]

It runs the tests in this process under sys.settrace and
threading.settrace, so code that only a subprocess or a pool worker runs
counts as unreached.  A statement is the first line of an ast statement;
docstrings, def and class lines, imports and global declarations do not
count, since they run at import or carry no code of their own.  The
trace roughly triples the tests' time, so this script is not a test
itself.  The exit status is pytest's.
"""

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "asmice"
SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import,
           ast.ImportFrom, ast.Global, ast.Nonlocal)


def statement_lines(source):
    """The first line of each statement in source that counts."""
    tree = ast.parse(source)
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                docstrings.add(body[0])
    return {node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.stmt) and node not in docstrings
            and not isinstance(node, SKIPPED)}


def main(argv):
    files = {str(path): path for path in sorted(PACKAGE.glob("*.py"))}
    reached = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    sys.path.insert(0, str(PACKAGE.parent))
    import pytest

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    unreached = 0
    for name, path in files.items():
        lines = sorted(statement_lines(path.read_text()) - reached[name])
        unreached += len(lines)
        for line in lines:
            print(f"{path.relative_to(ROOT)}:{line}")
    print(f"{unreached} statements of {PACKAGE.relative_to(ROOT)} "
          "never ran")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
