#!/usr/bin/env python3
"""Summarise how the figure CSVs moved against a git ref.

For each CSV that differs from the ref, prints the largest relative move
of a numeric cell and every changed cell that is not a plain number
(a level pick, a "resident" flag, a "1.62 (yes)" verdict) or that sits in
a group-size column (a header naming a group, such as m_group or
m'_group), since a moved pick matters more than its size. Rows and
columns are matched by position. Numbers may carry thousands separators
and a trailing "x" (a ratio).

Usage:
    csv_moves.py [--ref REF] [PATHSPEC...]

REF defaults to HEAD and PATHSPEC to bench_results; pathspecs are passed
to git as they are, so ':!bench_results/baselines.csv' excludes a file.
Always exits 0 when git runs: the summary is for the log, and a caller
that must fail on a diff runs `git diff --exit-code` itself.
"""

import csv
import io
import math
import os
import subprocess
import sys


def _git(*args):
    return subprocess.run(["git", *args], check=True, capture_output=True,
                          text=True).stdout


def _number(cell):
    text = cell.strip().replace(",", "")
    if text.endswith("x"):
        text = text[:-1]
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _rows(text):
    return list(csv.reader(io.StringIO(text)))


def _row_label(old_row, new_row):
    """The row's leading key cells: its first two, while they are unmoved."""
    key = []
    for old, new in zip(old_row[:2], new_row[:2]):
        if old != new:
            break
        key.append(new)
    return ", ".join(key)


def _relative(old, new):
    if old == new:
        return 0.0
    if old == 0:
        return math.inf
    return (new - old) / abs(old)


def summarise(old_text, new_text):
    """Lines describing how a CSV moved from old_text to new_text."""
    old_rows, new_rows = _rows(old_text), _rows(new_text)
    lines = []
    if len(old_rows) != len(new_rows):
        lines.append(f"  rows {len(old_rows)} -> {len(new_rows)}")
    header = new_rows[0] if new_rows else []
    largest = None  # (|move|, move, row number, label, column, old, new)
    for r in range(1, min(len(old_rows), len(new_rows))):
        old_row, new_row = old_rows[r], new_rows[r]
        for c in range(min(len(old_row), len(new_row))):
            old, new = old_row[c], new_row[c]
            if old == new:
                continue
            column = header[c] if c < len(header) else f"column {c + 1}"
            x, y = _number(old), _number(new)
            if x is None or y is None or "group" in column:
                lines.append(f"  row {r} ({_row_label(old_row, new_row)}) "
                             f"{column}: {old} -> {new}")
                continue
            move = _relative(x, y)
            if largest is None or abs(move) > largest[0]:
                largest = (abs(move), move, r,
                           _row_label(old_row, new_row), column, old, new)
    if largest is not None:
        _, move, r, label, column, old, new = largest
        size = "from 0" if math.isinf(move) else f"{move * 100:+.1f}%"
        lines.insert(0, f"  largest numeric move {size}: row {r} ({label}) "
                        f"{column}: {old} -> {new}")
    return lines


def main(argv):
    ref = "HEAD"
    if len(argv) >= 2 and argv[0] == "--ref":
        ref, argv = argv[1], argv[2:]
    pathspecs = argv or ["bench_results"]
    top = _git("rev-parse", "--show-toplevel").strip()
    changed = _git("diff", "--name-only", ref, "--", *pathspecs).splitlines()
    changed = [path for path in changed if path.endswith(".csv")]
    if not changed:
        print(f"csv_moves: no CSV differs from {ref}")
        return 0
    for path in changed:
        try:
            old_text = _git("show", f"{ref}:{path}")
        except subprocess.CalledProcessError:
            old_text = ""
        try:
            with open(os.path.join(top, path), encoding="utf-8") as f:
                new_text = f.read()
        except FileNotFoundError:
            print(f"{path}: deleted")
            continue
        print(f"{path}:")
        for line in summarise(old_text, new_text) or ["  (whitespace)"]:
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
