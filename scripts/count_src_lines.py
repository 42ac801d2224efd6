#!/usr/bin/env python3
"""Count the non-blank, non-comment lines of each module under `src/`, and
their total: the code-size figure that ROADMAP aim 2 tracks.

    python3 scripts/count_src_lines.py [--root src]

A line counts unless it is blank or its first non-space character is `#`.
Docstrings and other string lines count.
"""

from __future__ import annotations

import argparse
from pathlib import Path


def count_lines(path: Path) -> int:
    lines = (line.strip() for line in path.read_text(encoding="utf-8").splitlines())
    return sum(1 for line in lines if line and not line.startswith("#"))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent / "src")
    args = parser.parse_args()
    total = 0
    for path in sorted(args.root.rglob("*.py")):
        n = count_lines(path)
        total += n
        print(f"{n:6,d}  {path.relative_to(args.root)}")
    print(f"{total:6,d}  total")


if __name__ == "__main__":
    main()
