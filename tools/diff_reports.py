#!/usr/bin/env python3
"""Compare two JSON reports of `jordan-osc verify --format json`.

Prints one line per check id whose anchor, status or residual differs, or
whose `how` differs where both reports carry one (a report from before that
field still compares), and one per id that only one report has; the timing
field `ms` is ignored.
Exits 1 if any id or status differs (a check appeared, vanished or changed
its verdict), 0 otherwise, so a run whose anchors or residuals moved but
whose verdicts did not still exits 0. With --strict it exits 1 on any
printed line, so exit 0 means the reports are identical apart from `ms`.
Exits 2 on a usage error, or with one `error:` line on a report it cannot
read (missing, empty, not JSON, or not a report).

Run from anywhere:  python tools/diff_reports.py [--strict] OLD.json NEW.json
"""

from __future__ import annotations

import json
import sys

FIELDS = ("anchor", "status", "residual", "how")


def load(path: str) -> dict[str, dict]:
    """id -> report entry, in report order."""
    with open(path, encoding="utf-8") as fh:
        return {entry["id"]: entry for entry in json.load(fh)["suites"]}


def diff(old: dict[str, dict], new: dict[str, dict]) -> tuple[list[str], bool]:
    """(lines to print, in report order; whether an id or a status differs)."""
    lines, statuses_differ = [], False
    for rid, entry in old.items():
        if rid not in new:
            lines.append(f"{rid}: only in old")
            continue
        for name in FIELDS:
            if (name != "how" or name in entry and name in new[rid]) and entry[name] != new[rid][name]:
                lines.append(f"{rid}: {name} {entry[name]!r} -> {new[rid][name]!r}")
                statuses_differ |= name == "status"
    lines += [f"{rid}: only in new" for rid in new if rid not in old]
    ids_differ = old.keys() != new.keys()
    if not ids_differ and list(old) != list(new):  # a reorder changes no verdict: printed, so only --strict fails
        lines.append("the same ids in a different order")
    return lines, ids_differ or statuses_differ


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    strict = args[:1] == ["--strict"]
    args = args[strict:]
    if len(args) != 2:
        print("usage: diff_reports.py [--strict] OLD.json NEW.json", file=sys.stderr)
        return 2
    reports = []
    for path in args:
        try:
            reports.append(load(path))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"error: cannot read report {path}: {exc!r}", file=sys.stderr)
            return 2
    lines, verdicts_differ = diff(*reports)
    for line in lines:
        print(line)
    return 1 if verdicts_differ or (strict and lines) else 0


if __name__ == "__main__":
    sys.exit(main())
