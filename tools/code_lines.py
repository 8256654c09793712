"""Print the code lines of the qbcsim package: python3 tools/code_lines.py [FILE ...]

A code line holds a token other than a comment, a line break, an indent,
a dedent or the end of the file; the lines of module, class and function
docstrings do not count.  With no arguments it counts ``src/qbcsim/*.py``.
It prints each file's count, then the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The code lines of one module's ``source``."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                docstring = node.body[0]
                lines.difference_update(range(docstring.lineno, docstring.end_lineno + 1))
    return len(lines)


def main(argv: list[str]) -> None:
    root = Path(__file__).resolve().parent.parent
    paths = [Path(arg) for arg in argv] or sorted((root / "src" / "qbcsim").glob("*.py"))
    total = 0
    for path in paths:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6,d}  {path.name}")
    print(f"{total:6,d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
