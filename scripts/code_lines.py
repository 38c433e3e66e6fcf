#!/usr/bin/env python3
"""Print the code lines of Python files and their total.

A code line is a physical line that holds part of a token other than a
comment, with docstrings left out: the string statement that opens a
module, class or function body (`ast.get_docstring`'s string) counts for
none of its lines, while other multi-line strings count for every line
they span.  Blank lines and comment-only lines count for none.

    python3 scripts/code_lines.py                 # every file under src/belfilt
    python3 scripts/code_lines.py src/belfilt/filters.py src/belfilt/trajectories.py
    python3 scripts/code_lines.py --against HEAD~1   # before and after a commit

Directories are searched for *.py files, recursively.  Each file prints as
"<lines>  <path>", then "<total>  total".  With --against REF, each file
prints as "<lines at REF>  <lines now>  <difference>  <path>", its source at
REF read by `git show REF:path`, and a directory's files at REF count too:
a file missing on one side counts 0 lines there.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
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


def _git(*args) -> str:
    """The output of a git command run in the repository, which must succeed."""
    done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"git {' '.join(args)}: {done.stderr.strip()}")
    return done.stdout


def _files_at(ref: str, paths) -> list[Path]:
    """The *.py files that `paths` name at the git ref (a directory's,
    recursively), as paths under the repository's root."""
    names = _git("ls-tree", "-r", "--name-only", ref, "--",
                 *(str(Path(path).resolve().relative_to(ROOT)) for path in paths)).split()
    return [ROOT / name for name in names if name.endswith(".py")]


def _against(ref: str, paths) -> None:
    """Print each file's code lines at the git ref, now and the difference."""
    at_ref = {path: code_lines(_git("show", f"{ref}:{path.relative_to(ROOT)}")) for path in _files_at(ref, paths)}
    now = {path.resolve(): code_lines(path.read_text(encoding="utf-8")) for path in _files(paths)}
    for path in sorted(at_ref.keys() | now.keys()):
        before, after = at_ref.get(path, 0), now.get(path, 0)
        print(f"{before:6d}  {after:6d}  {after - before:+6d}  {path.relative_to(ROOT)}")
    before, after = sum(at_ref.values()), sum(now.values())
    print(f"{before:6d}  {after:6d}  {after - before:+6d}  total")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=[str(ROOT / "src" / "belfilt")],
                        help="files or directories (default: src/belfilt)")
    parser.add_argument("--against", metavar="REF",
                        help="print each file's count at the git ref REF, the count now and the difference")
    args = parser.parse_args(argv)
    if args.against:
        _against(args.against, args.paths)
        return 0
    total = 0
    for path in _files(args.paths):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
