#!/usr/bin/env python3
"""Print the size of the package: non-blank, non-comment lines per module
under src/jordan_osc/, then their total.

A line counts unless it is empty, all whitespace, or a comment (its first
non-blank character is '#'); docstrings count. Output is one
`<module path> <count>` line per module, in path order, and a last
`total <count>` line.

Run from anywhere:  python tools/count_lines.py
"""

from __future__ import annotations

import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "jordan_osc"


def count(path: pathlib.Path) -> int:
    lines = (line.strip() for line in path.read_text(encoding="utf-8").splitlines())
    return sum(1 for line in lines if line and not line.startswith("#"))


def main() -> None:
    counts = {path.relative_to(PACKAGE).as_posix(): count(path) for path in sorted(PACKAGE.rglob("*.py"))}
    for module, n in counts.items():
        print(f"{module} {n}")
    print(f"total {sum(counts.values())}")


if __name__ == "__main__":
    main()
