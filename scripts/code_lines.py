#!/usr/bin/env python3
"""Count the lines of code of each module of src/quadpic, and in total.

A line counts when it holds a token other than a comment and is not part of
a module, class or function docstring; blank lines, comment lines and
docstring lines do not count.  A token that spans lines, such as a
multi-line string that is not a docstring, counts on every line it spans.
Beside each count stands the module's physical line count, every line that
an import compiles, as `wc -l` gives it.

Usage: python scripts/code_lines.py
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "quadpic"

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The number of lines of code in the Python source text."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main() -> int:
    total = physical = 0
    print(f"{'module':<16} {'code':>5} {'lines':>5}")
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        count, lines = code_lines(source), source.count("\n")
        total += count
        physical += lines
        print(f"{path.name:<16} {count:>5} {lines:>5}")
    print(f"{'total':<16} {total:>5} {physical:>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
