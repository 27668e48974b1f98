"""Print each statement of src/asmice that the tier-1 tests never run,
and the package's code-line count.

Run from the repository root:

    python tests/line_reach.py [pytest arguments]

It runs the tests in this process under sys.settrace and
threading.settrace, so code that only a subprocess or a pool worker runs
counts as unreached.  A statement is the first line of an ast statement;
docstrings, def and class lines, imports and global declarations do not
count, since they run at import or carry no code of their own.  The
trace roughly triples the tests' time, so this script is not a test
itself.  The exit status is pytest's.

A code line is a line that holds a token of code: blank lines, comment
lines and the lines of docstrings do not count.
"""

import ast
import io
import sys
import threading
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "asmice"
SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import,
           ast.ImportFrom, ast.Global, ast.Nonlocal)
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def docstrings(tree):
    """The docstring statements of the module, classes and functions."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                found.add(body[0])
    return found


def statement_lines(source):
    """The first line of each statement in source that counts."""
    tree = ast.parse(source)
    skipped = docstrings(tree)
    return {node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.stmt) and node not in skipped
            and not isinstance(node, SKIPPED)}


def code_lines(source):
    """The number of lines of source that hold a token of code."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in docstrings(ast.parse(source)):
        lines.difference_update(range(node.lineno, node.end_lineno + 1))
    return len(lines)


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

    unreached = code = 0
    for name, path in files.items():
        source = path.read_text()
        lines = sorted(statement_lines(source) - reached[name])
        unreached += len(lines)
        code += code_lines(source)
        for line in lines:
            print(f"{path.relative_to(ROOT)}:{line}")
    print(f"{unreached} statements of {PACKAGE.relative_to(ROOT)} "
          "never ran")
    print(f"{code} code lines in {PACKAGE.relative_to(ROOT)}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
