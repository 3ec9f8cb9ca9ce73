"""Count the code lines of each module of ``src/punchex``, and in total.

    python3 tools/code_lines.py [PATH ...]

A code line is a line that holds a code token.  Blank lines, comments and
docstrings (the string that opens a module, class or function body) are
left out; a line that holds any other token counts once, and each line
that a multi-line token spans counts.  With no PATH it reads every module
of ``src/punchex``; a PATH may be a file or a directory of modules.
Standard library only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# tokens that hold no code
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_rows(tree: ast.AST) -> set:
    """The rows of every docstring in ``tree``."""
    rows = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                rows.update(range(first.lineno, first.end_lineno + 1))
    return rows


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold a code token."""
    docstrings = _docstring_rows(ast.parse(source))
    rows = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            rows.update(range(token.start[0], token.end[0] + 1))
    return len(rows - docstrings)


def main(argv) -> int:
    paths = [Path(p) for p in argv] or [ROOT / "src" / "punchex"]
    files = sorted(f for p in paths for f in ([p] if p.is_file() else p.glob("*.py")))
    counts = {f: code_lines(f.read_text(encoding="utf-8")) for f in files}
    width = max(len(f.name) for f in files)
    for f, n in counts.items():
        print(f"{f.name:<{width}} {n:>6,}")
    print(f"{'total':<{width}} {sum(counts.values()):>6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
