"""Count the code lines of each module of src/ve2d and their total.

A code line is a line that some AST node spans, less the blank lines,
the comment-only lines and the lines of docstrings (of the module, of
each class and of each function).  So a statement split over several
lines counts each of them, and a comment or a docstring counts nothing.

    python3 tools/code_lines.py [package_dir]

prints one line per module, "<count> <name>", and then "<total> total".
The standard library alone is used.
"""

import ast
import sys
from pathlib import Path


def code_lines(source: str) -> int:
    """The code lines of one module's source."""
    tree = ast.parse(source)
    spanned = set()
    for node in ast.walk(tree):
        if hasattr(node, "end_lineno"):
            spanned.update(range(node.lineno, node.end_lineno + 1))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(
                                 node, clean=False) is not None:
            doc = node.body[0]
            spanned.difference_update(range(doc.lineno, doc.end_lineno + 1))
    lines = source.splitlines()
    return sum(1 for i in spanned
               if lines[i - 1].strip()
               and not lines[i - 1].lstrip().startswith("#"))


def main(argv: list[str]) -> None:
    root = Path(argv[0]) if argv else (
        Path(__file__).resolve().parent.parent / "src" / "ve2d")
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:5d} {path.stem}")
    print(f"{total:5d} total")


if __name__ == "__main__":
    main(sys.argv[1:])
