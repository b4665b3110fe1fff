#!/usr/bin/env python3
"""Name each key that differs between two JSON reports, with its largest change.

Usage: python3 tools/report_diff.py PARENT_REPORT CHANGE_REPORT

Prints one line per differing key, dotted from the document root; a list of
numbers counts as one key:

    spectrum.eigenvalues: 510 of 512 differ, max abs 2.4e-09, max rel 9.1e-04, max abs/max|parent| 4.8e-15

Relative changes are taken against the parent's value, and the last column
against the parent's largest magnitude under that key. A key on one side
only, or a value that is not a number on both sides, prints as changed with
both values. Exits 0 whatever it finds; the caller decides what a
difference means.
"""

import json
import math
import sys

MISSING = "<missing>"


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _flatten(doc, path="", out=None) -> dict:
    """{dotted key: leaf value}; a list of numbers is one leaf."""
    out = {} if out is None else out
    if isinstance(doc, dict):
        for key, value in doc.items():
            _flatten(value, f"{path}.{key}" if path else str(key), out)
    elif isinstance(doc, list) and not all(_is_number(x) for x in doc):
        for i, value in enumerate(doc):
            _flatten(value, f"{path}[{i}]", out)
    else:
        out[path] = doc
    return out


def _same(a, b) -> bool:
    return a == b or (_is_number(a) and _is_number(b) and math.isnan(a) and math.isnan(b))


def describe(key: str, old, new) -> str | None:
    """One line for a differing key, None when the values are equal."""
    olds = old if isinstance(old, list) else [old]
    news = new if isinstance(new, list) else [new]
    numeric = (isinstance(old, list) == isinstance(new, list) and len(olds) == len(news)
               and all(_is_number(x) for x in olds + news))
    if not numeric:
        return None if old == new else f"{key}: changed, {json.dumps(old)} -> {json.dumps(new)}"
    pairs = [(a, b) for a, b in zip(olds, news) if not _same(a, b)]
    if not pairs:
        return None
    abs_change = max(abs(b - a) for a, b in pairs)
    rel_change = max(abs(b - a) / abs(a) if a else math.inf for a, b in pairs)
    changes = f"max abs {abs_change:.2g}, max rel {rel_change:.2g}"
    if not isinstance(old, list):
        return f"{key}: {changes}"
    scale = max(abs(a) for a in olds)
    scaled = abs_change / scale if scale else math.inf
    return (f"{key}: {len(pairs)} of {len(olds)} differ, {changes}, "
            f"max abs/max|parent| {scaled:.2g}")


def report_diff(parent: dict, change: dict) -> list[str]:
    old, new = _flatten(parent), _flatten(change)
    lines = []
    for key in sorted(old.keys() | new.keys()):
        line = describe(key, old.get(key, MISSING), new.get(key, MISSING))
        if line is not None:
            lines.append(line)
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    docs = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    for line in report_diff(*docs):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
