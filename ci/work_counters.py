#!/usr/bin/env python3
"""Exact gate on the integer outcomes of the CI smoke runs.

Every integer leaf of a results JSON (a JSON integer: not a bool, not a
float) is a work counter or an exact outcome of the simulated event
sequence: requests submitted, cold starts, retries, resizes. Such a value
moves only when the event sequence changes, so it is compared exactly.
Floats are left out: their last bit can differ between libm builds.

Each value is keyed by the output's file name and its JSON path, for
example `fleet_chaos.json` -> `retry[1].report.counters.retries_scheduled`.

Usage:
    work_counters.py check <expected.json> <outputs...>
    work_counters.py write <expected.json> <outputs...>

`check` prints every path whose value differs from the expected file or
is missing on either side, and exits 1 if there is any. `write` records
the outputs' integer leaves as the new expected file. A usage error or an
unreadable file exits 2.
"""

import json
import os
import sys


def integer_leaves(value, path, out):
    """Appends (path, value) for every integer leaf under `value`."""
    if isinstance(value, bool):
        return
    if isinstance(value, int):
        out[path] = value
    elif isinstance(value, dict):
        for key, child in value.items():
            integer_leaves(child, f"{path}.{key}" if path else key, out)
    elif isinstance(value, list):
        for i, child in enumerate(value):
            integer_leaves(child, f"{path}[{i}]", out)


def collect(outputs):
    """Maps each output's file name to its integer leaves, in document order."""
    counters = {}
    for output in outputs:
        name = os.path.basename(output)
        if name in counters:
            raise ValueError(f"two outputs are named {name}")
        with open(output) as f:
            leaves = {}
            integer_leaves(json.load(f), "", leaves)
        counters[name] = leaves
    return dict(sorted(counters.items()))


def check(expected, actual):
    """Returns one line per path that differs or is missing on either side."""
    problems = []
    for name in sorted(expected.keys() | actual.keys()):
        want = expected.get(name, {})
        got = actual.get(name, {})
        for path in [*want, *(p for p in got if p not in want)]:
            if path not in got:
                problems.append(f"{name}: {path}: expected {want[path]}, missing from the output")
            elif path not in want:
                problems.append(f"{name}: {path}: {got[path]} is not in the expected file")
            elif want[path] != got[path]:
                problems.append(f"{name}: {path}: expected {want[path]}, got {got[path]}")
    return problems


def main(argv):
    if len(argv) < 3 or argv[0] not in ("check", "write"):
        print(__doc__, file=sys.stderr)
        return 2
    mode, expected_path, outputs = argv[0], argv[1], argv[2:]
    try:
        actual = collect(outputs)
        if mode == "check":
            with open(expected_path) as f:
                expected = json.load(f)
    except (OSError, ValueError) as e:
        print(f"work_counters: {e}", file=sys.stderr)
        return 2
    total = sum(len(leaves) for leaves in actual.values())
    if mode == "write":
        with open(expected_path, "w") as f:
            json.dump(actual, f, indent=1)
            f.write("\n")
        print(f"work_counters: wrote {total} values from {len(actual)} files to {expected_path}")
        return 0
    problems = check(expected, actual)
    for line in problems:
        print(line)
    if problems:
        print(f"work_counters: FAILED, {len(problems)} values differ or are missing; if the "
              f"change is intended, rerun with `write` and say why in CHANGES.md")
        return 1
    print(f"work_counters: OK, {total} values in {len(actual)} files match {expected_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
