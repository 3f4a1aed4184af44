#!/usr/bin/env python3
"""Report how two output trees of ``ptdimer run`` differ.

Usage: compare-outputs.py OLD NEW

Lists every file that is in one tree only or whose bytes differ. For each
moved CSV it gives the largest |new - old| / max(1, |old|) over its cells and
over the numbers in its ``#`` header lines, or says why the two cannot be
compared cell by cell (a different shape or different text). Report only:
the exit status is 0 whatever differs. Standard library only.
"""

import math
import re
import sys
from pathlib import Path

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
                    r"|[-+]?\b(?:nan|inf)\b")


def move(old: str, new: str) -> float:
    """|new - old| / max(1, |old|) of two numbers written as text."""
    a, b = float(old), float(new)
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(b - a) / max(1.0, abs(a))


def split(line: str):
    """A line as its text with the numbers cut out, and those numbers."""
    return NUMBER.sub("#", line), NUMBER.findall(line)


def csv_moves(old: Path, new: Path):
    """Largest move over the cells and over the header numbers of two CSVs,
    or a reason why they do not line up."""
    old_lines = old.read_text().splitlines()
    new_lines = new.read_text().splitlines()
    if len(old_lines) != len(new_lines):
        return f"{len(old_lines)} -> {len(new_lines)} lines"
    worst = {"cells": 0.0, "header": 0.0}
    for a, b in zip(old_lines, new_lines):
        if a == b:
            continue
        kind = "header" if a.startswith("#") else "cells"
        (text_a, nums_a), (text_b, nums_b) = split(a), split(b)
        if text_a != text_b or len(nums_a) != len(nums_b):
            return f"text differs: {a!r} -> {b!r}"
        worst[kind] = max([worst[kind]] + [move(x, y)
                                           for x, y in zip(nums_a, nums_b)])
    return worst


def main(old_root: Path, new_root: Path) -> None:
    old = {p.relative_to(old_root) for p in old_root.rglob("*") if p.is_file()}
    new = {p.relative_to(new_root) for p in new_root.rglob("*") if p.is_file()}
    for path in sorted(old ^ new):
        print(f"only in {'OLD' if path in old else 'NEW'}: {path}")
    moved, largest = 0, (0.0, "")
    for path in sorted(old & new):
        if (old_root / path).read_bytes() == (new_root / path).read_bytes():
            continue
        moved += 1
        if path.suffix != ".csv":
            print(f"{path}: bytes differ")
            continue
        worst = csv_moves(old_root / path, new_root / path)
        if isinstance(worst, str):
            print(f"{path}: {worst}")
            continue
        print(f"{path}: cells {worst['cells']:.2e}, header "
              f"{worst['header']:.2e}")
        largest = max(largest, (max(worst.values()), str(path)))
    print(f"{len(old & new)} files in both trees, {moved} differ, "
          f"{len(old ^ new)} in one only; largest relative move "
          f"{largest[0]:.2e}" + (f" ({largest[1]})" if largest[1] else ""))


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__.strip().splitlines()[2])
    main(Path(sys.argv[1]), Path(sys.argv[2]))
