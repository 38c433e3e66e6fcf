#!/usr/bin/env python3
"""Print the code lines of Python files and their total.

A code line is a physical line that holds part of a token other than a
comment, with docstrings left out: the string statement that opens a
module, class or function body (`ast.get_docstring`'s string) counts for
none of its lines, while other multi-line strings count for every line
they span.  Blank lines and comment-only lines count for none.

    python3 scripts/code_lines.py                 # every file under src/belfilt
    python3 scripts/code_lines.py src/belfilt/filters.py src/belfilt/trajectories.py

Directories are searched for *.py files, recursively.  Each file prints as
"<lines>  <path>", then "<total>  total".
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def _files(paths) -> list[Path]:
    files = []
    for path in map(Path, paths):
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return files


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=[str(Path(__file__).resolve().parent.parent / "src" / "belfilt")],
                        help="files or directories (default: src/belfilt)")
    args = parser.parse_args(argv)
    total = 0
    for path in _files(args.paths):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
