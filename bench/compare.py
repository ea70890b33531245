"""Compare benchmark runs of a parent commit and a change, one table per workload.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds one file per run, named ``<workload>-<seed>.json``, with
the standard output of ``bench/run.py`` (only its last line is read).  Runs
are paired by file name.  For every metric the table gives each side's
median and quartiles, how many pairs the change won, and a verdict:

- ``gain``: the change won at least 9 in 10 pairs and the medians differ by
  more than the parent's own spread (the distance between its quartiles);
- ``regression``: an end-to-end metric whose median is worse than the
  parent's by more than the bound in BENCHMARK.json;
- ``unresolved``: the parent's spread is wider than the bound and not every
  change run beats every parent run;
- ``same`` otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def load(directory: Path) -> dict[str, dict]:
    runs = {}
    for path in sorted(directory.glob("*.json")):
        result = json.loads(path.read_text(encoding="utf-8").strip().splitlines()[-1])
        runs[path.stem] = result
    return runs


def verdict(metric: dict, parent: list[float], change: list[float]) -> tuple[int, str]:
    sign = 1.0 if metric["better"] == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else (p_med, p_med, p_med)
    bound = metric.get("bound")
    if wins >= 0.9 * len(parent) and abs(c_med - p_med) > q3 - q1:
        return wins, "gain"
    if bound is not None and sign * (c_med - p_med) < -bound * abs(p_med):
        return wins, "regression"
    every_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if bound is not None and q3 - q1 > bound * abs(p_med) and not every_better:
        return wins, "unresolved"
    return wins, "same"


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = load(Path(argv[0])), load(Path(argv[1]))
    names = sorted(parent.keys() & change.keys())
    if not names:
        print("no runs with the same file name on both sides", file=sys.stderr)
        return 2
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    for workload in sorted({name.rsplit("-", 1)[0] for name in names}):
        pairs = [name for name in names if name.rsplit("-", 1)[0] == workload]
        failed = sum(parent[n]["failed"] + change[n]["failed"] for n in pairs)
        print(f"\n## {workload}: {len(pairs)} pairs, {failed} failed ops")
        print("| metric | parent median [q1, q3] | change median [q1, q3] | change won | verdict |")
        print("| --- | --- | --- | --- | --- |")
        for metric in metrics:
            name = metric["name"]
            if any(name not in runs[n]["metrics"] for runs in (parent, change) for n in pairs):
                continue
            p = [parent[n]["metrics"][name]["value"] for n in pairs]
            c = [change[n]["metrics"][name]["value"] for n in pairs]
            wins, what = verdict(metric, p, c)
            cells = []
            for values in (p, c):
                q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
                cells.append(f"{statistics.median(values):.6g} [{q1:.6g}, {q3:.6g}]")
            print(f"| {name} ({metric['unit']}) | {cells[0]} | {cells[1]} | {wins}/{len(pairs)} | {what} |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
