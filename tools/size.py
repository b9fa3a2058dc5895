"""Print the size of the woexplain package: AST statements and physical lines per module.

    python tools/size.py [SRC_DIR]

SRC_DIR defaults to src/woexplain beside this script's directory. Every
ast.stmt node counts, nested ones and docstrings included; a physical
line is a line of the file, blank and comment lines included. The last
row holds the totals.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def size(path: Path) -> tuple[int, int]:
    """(AST statements, physical lines) of one Python file."""
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text, filename=str(path))
    return sum(isinstance(node, ast.stmt) for node in ast.walk(tree)), len(text.splitlines())


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "woexplain"
    rows = [(path.name, *size(path)) for path in sorted(src.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print(f"{'module':<16}{'statements':>12}{'lines':>8}")
    for name, statements, lines in rows:
        print(f"{name:<16}{statements:>12,}{lines:>8,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
