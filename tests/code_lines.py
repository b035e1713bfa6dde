"""Count the code lines of each ``src/apwords/*.py`` module and their total.

    python3 tests/code_lines.py                 # the working tree
    python3 tests/code_lines.py --rev HEAD~1      # a revision, read through git show
    python3 tests/code_lines.py --against HEAD~1  # HEAD~1, the working tree, the change

With ``--against REV`` each row gives a module's count at REV, its count in
the working tree (or at ``--rev``) and the difference; a module missing on
one side counts 0 there.

A code line is a line that holds a token other than a comment or a
docstring: blank lines, comment-only lines and the lines of module, class
and function docstrings are left out.  Every line of any other string
counts, blank ones inside it too.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/apwords"

# Tokens that are not code: layout, and comments.
_SKIP = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """The (line, column) where each docstring of ``tree`` starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                starts.add((body[0].lineno, body[0].col_offset))
    return starts


def code_lines(source: str) -> int:
    """The number of code lines of the Python module ``source``."""
    docstrings = _docstring_starts(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _SKIP or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout


def modules(rev: str | None) -> dict[str, str]:
    """The source of each module of the package, by path, in the working
    tree or at revision ``rev``."""
    if rev is None:
        paths = sorted(p.relative_to(ROOT).as_posix() for p in (ROOT / PACKAGE).glob("*.py"))
        return {p: (ROOT / p).read_text(encoding="utf-8") for p in paths}
    names = _git("ls-tree", "--name-only", f"{rev}:{PACKAGE}").split()
    paths = sorted(f"{PACKAGE}/{n}" for n in names if n.endswith(".py"))
    return {p: _git("show", f"{rev}:{p}") for p in paths}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", help="count a git revision in place of the working tree")
    parser.add_argument("--against", metavar="REV", help="also count REV, and give the change")
    args = parser.parse_args(argv)
    counts = {path: code_lines(text) for path, text in modules(args.rev).items()}
    if args.against is None:
        for path, count in counts.items():
            print(f"{count:6d}  {path}")
        print(f"{sum(counts.values()):6d}  total")
        return 0
    before = {path: code_lines(text) for path, text in modules(args.against).items()}
    rows = [(path, before.get(path, 0), counts.get(path, 0)) for path in sorted({*before, *counts})]
    rows.append(("total", sum(before.values()), sum(counts.values())))
    for path, old, new in rows:
        print(f"{old:6d}  {new:6d}  {new - old:+6d}  {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
