"""Compare two marketclear output trees file by file.

    python tools/outdiff.py [--max-rel TOL] DIR_A DIR_B

Walks both directories, skipping every ``manifest.json`` (it holds paths
and wall times).  Files that are byte-identical are listed as such.  For a
differing CSV, each column reports the largest relative difference
``|b - a| / |a|`` over the cells where ``|a| > 1e-14`` and the largest
absolute difference over all cells; for a differing JSON file, each numeric
leaf does the same, keyed by its path.  Cells or leaves that differ in text
but not by a number are counted as text cells and listed: non-numeric ones,
and equal numbers written apart, such as ``0.0`` and ``-0.0``.  Files or
keys present on one side only are listed too.  Exit code 0 means every
compared file is identical, 1 that something differs.

With ``--max-rel TOL`` the trees may differ by round-off: the exit code is 0
when every differing numeric cell or leaf has ``|b - a| <= TOL * |a|``, where
``|a| > 1e-14``, or stays at most 1e-14 in magnitude on both sides, where it
is not.  Equal numbers written apart pass; non-numeric cells, files,
headers, rows or keys on one side only do not.  The cells beyond TOL are
counted per column or key.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

SKIP = {"manifest.json"}
FLOOR = 1e-14


def _files(root: Path) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("*")
            if p.is_file() and p.name not in SKIP}


def _number(value):
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _same(a, b) -> bool:
    """Whether two cells or leaves read alike; ``repr`` tells ``-0.0`` from ``0.0``."""
    return repr(a) == repr(b)


def _compare(pairs, tol=None) -> dict:
    """Largest relative and absolute difference over (a, b) pairs of cells.

    Pairs that differ but not by a number, such as ``0.0`` and ``-0.0``, or
    non-numeric cells, or NaN against a number, count as ``text_cells``;
    all but the equal numbers, and the numeric differences beyond ``tol``
    (see the module docstring), count as ``beyond``.
    """
    rel = absd = 0.0
    text = beyond = 0
    for a, b in pairs:
        if _same(a, b):
            continue
        x, y = _number(a), _number(b)
        if x is None or y is None or x == y or (math.isnan(x) and math.isnan(y)):
            text += 1
            beyond += x is None or y is None
            continue
        diff = abs(y - x)
        if math.isnan(diff):  # a number on one side, NaN on the other
            text += 1
            beyond += 1
            continue
        absd = max(absd, diff)
        if abs(x) > FLOOR:
            rel = max(rel, diff / abs(x))
            beyond += tol is not None and not diff <= tol * abs(x)
        else:
            beyond += not abs(y) <= FLOOR
    return {"max_rel": rel, "max_abs": absd, "text_cells": text, "beyond": beyond}


def _csv_report(a: Path, b: Path, tol=None) -> tuple[list[str], bool]:
    """The report lines of two CSV files, and whether they agree within ``tol``."""
    ra = list(csv.reader(a.read_text().splitlines()))
    rb = list(csv.reader(b.read_text().splitlines()))
    if not ra or not rb or ra[0] != rb[0]:
        return ["  headers differ"], False
    lines = []
    within = len(ra) == len(rb)
    if not within:
        lines.append(f"  row counts differ: {len(ra) - 1} vs {len(rb) - 1}")
    for j, name in enumerate(ra[0]):
        stats = _compare(((x[j], y[j]) for x, y in zip(ra[1:], rb[1:])
                          if j < len(x) and j < len(y)), tol)
        if stats["max_abs"] or stats["text_cells"]:
            lines.append(f"  column {name}: " + _format(stats, tol))
        within = within and not stats["beyond"]
    return lines, within


def _leaves(obj, prefix=""):
    if isinstance(obj, dict):
        for key, val in obj.items():
            yield from _leaves(val, f"{prefix}.{key}" if prefix else str(key))
    elif isinstance(obj, list):
        for i, val in enumerate(obj):
            yield from _leaves(val, f"{prefix}[{i}]")
    else:
        yield prefix, obj


def _json_report(a: Path, b: Path, tol=None) -> tuple[list[str], bool]:
    """The report lines of two JSON files, and whether they agree within ``tol``."""
    la = dict(_leaves(json.loads(a.read_text())))
    lb = dict(_leaves(json.loads(b.read_text())))
    lines = [f"  key only in A: {k}" for k in la if k not in lb]
    lines += [f"  key only in B: {k}" for k in lb if k not in la]
    within = not lines
    for key in la:
        if key in lb and not _same(la[key], lb[key]):
            stats = _compare([(la[key], lb[key])], tol)
            lines.append(f"  key {key}: " + _format(stats, tol))
            within = within and not stats["beyond"]
    return lines, within


def _format(stats: dict, tol=None) -> str:
    out = f"max rel {stats['max_rel']:.3g}, max abs {stats['max_abs']:.3g}"
    if stats["text_cells"]:
        out += (f", {stats['text_cells']} text cells differ "
                "(non-numeric, or equal numbers such as 0.0 and -0.0)")
    if tol is not None and stats["beyond"]:
        out += f", {stats['beyond']} beyond max rel {tol:g}"
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="outdiff.py", description=__doc__.splitlines()[0])
    parser.add_argument("--max-rel", type=float, default=None, metavar="TOL",
                        help="exit 0 when every numeric difference is within TOL relative")
    parser.add_argument("dir_a")
    parser.add_argument("dir_b")
    args = parser.parse_args(sys.argv[1:] if argv is None else argv)
    tol = args.max_rel
    root_a, root_b = Path(args.dir_a), Path(args.dir_b)
    fa, fb = _files(root_a), _files(root_b)
    same = within = not (fa ^ fb)
    for name in sorted(fa - fb):
        print(f"only in A: {name}")
    for name in sorted(fb - fa):
        print(f"only in B: {name}")
    identical = 0
    for name in sorted(fa & fb):
        a, b = root_a / name, root_b / name
        if a.read_bytes() == b.read_bytes():
            identical += 1
            print(f"identical: {name}")
            continue
        same = False
        print(f"differs: {name}")
        if name.endswith(".csv"):
            report, ok = _csv_report(a, b, tol)
        elif name.endswith(".json"):
            report, ok = _json_report(a, b, tol)
        else:
            report, ok = [], False
        within = within and ok
        for line in report:
            print(line)
    print(f"{identical} of {len(fa & fb)} common files byte-identical")
    if tol is None:
        return 0 if same else 1
    print(f"every difference within max rel {tol:g}: {'yes' if within else 'no'}")
    return 0 if within else 1


if __name__ == "__main__":
    sys.exit(main())
