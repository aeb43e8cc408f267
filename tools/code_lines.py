"""Code lines per module of the package: the size yardstick.

A code line is a non-blank line that is not a comment and not inside a
module, class or function docstring (docstrings are found with ``ast``).
Prints one module per line and then the total.

Run from the repository root:

    python3 tools/code_lines.py [DIRECTORY]

``DIRECTORY`` defaults to ``src/retroops``.  A reader that stops early,
as ``| head`` does, ends the run quietly with exit status 1.
"""

import ast
import os
import sys
from pathlib import Path


def code_lines(text: str) -> int:
    doc = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                doc.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = [s.strip() for k, s in enumerate(text.splitlines(), 1) if k not in doc]
    return sum(1 for s in lines if s and not s.startswith("#"))


def main(directory: str = "src/retroops") -> None:
    total = 0
    for path in sorted(Path(directory).glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{n:6d} {path}")
    print(f"{total:6d} total")


if __name__ == "__main__":
    try:
        main(*sys.argv[1:2])
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at devnull so the interpreter's flush at exit does
        # not meet the closed pipe again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
