"""Compare two sets of benchmark runs: ``python bench/compare.py A/ B/``.

A holds the parent's run records and B the change's, as written by
``bench/run.py --out DIR``.  For every workload and end-to-end metric the
script prints each side's median and quartiles and a verdict:

- ``regression``: B's median is worse than A's by more than the metric's
  bound in ``BENCHMARK.json``;
- ``win``: B beats A in at least 9 of every 10 pairs (ties count for
  neither) and the medians differ by more than A's interquartile range;
- ``unresolved``: A's or B's spread (IQR over median) exceeds the bound and
  not every run of B beats every run of A;
- ``unchanged``: none of the above.

``failed_share`` (failed, rejected and wrong ops over attempted) is 0 at
the commit that defined the benchmark, so it has no ratio bound: it is a
``regression`` when any change run fails a larger share than its paired
parent run.

Runs pair up by (seed, run index) when both sides have them, else by order.
For seed-matched pairs it also reports whether the program's counts (failed
op ids, corrections, recoveries, DAG tasks) repeat exactly.  Exits 1 when
any pairing regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


def load_runs(directory: Path) -> dict[str, list[dict]]:
    """Untraced run records by workload, ordered by (seed, run index)."""
    runs: dict[str, list[dict]] = {}
    for path in sorted(directory.glob("*.json")):
        if path.name.count(".") != 1:
            continue  # span dumps
        record = json.loads(path.read_text())
        if record.get("trace"):
            continue
        record["_key"] = (record["stamp"]["seed"], path.stem.rsplit("-", 1)[-1])
        runs.setdefault(record["workload"], []).append(record)
    for records in runs.values():
        records.sort(key=lambda r: (r["_key"][0], int(r["_key"][1])))
    return runs


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _summary(values: list[float]) -> str:
    q1, q3 = quartiles(values)
    return f"{statistics.median(values):.5g} [{q1:.5g}, {q3:.5g}]"


#: printed and judged beside the declared metrics: may not rise at all
FAILED_SHARE = {"name": "failed_share", "better": "lower", "bound": 0.0}


def verdict(a: list[float], b: list[float], pairs: list[tuple[float, float]], lower: bool, bound: float) -> str:
    ma, mb = statistics.median(a), statistics.median(b)
    q1a, q3a = quartiles(a)
    q1b, q3b = quartiles(b)
    gain = (ma - mb) if lower else (mb - ma)
    if bound == 0.0:
        return "regression" if any((y > x if lower else y < x) for x, y in pairs) else "unchanged"
    if -gain > bound * abs(ma):
        return "regression"
    wins = sum(1 for x, y in pairs if (y < x if lower else y > x))
    if gain > 0 and wins >= 0.9 * len(pairs) and gain > q3a - q1a:
        return "win"
    all_better = max(b) < min(a) if lower else min(b) > max(a)
    spread = max((q3a - q1a) / ma if ma else 0.0, (q3b - q1b) / mb if mb else 0.0)
    if spread > bound and not all_better:
        return "unresolved"
    return "unchanged"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    side_a, side_b = load_runs(args.parent), load_runs(args.change)
    regressed = False
    print(f"{'workload':<16} {'metric':<18} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34} {'change':>8} {'wins':>6}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        ra, rb = side_a.get(workload, []), side_b.get(workload, [])
        if not ra or not rb:
            print(f"{workload:<16} missing runs (parent {len(ra)}, change {len(rb)})")
            continue
        keyed_b = {r["_key"]: r for r in rb}
        matched = [(r, keyed_b[r["_key"]]) for r in ra if r["_key"] in keyed_b]
        paired = matched or list(zip(ra, rb))
        for metric in [*spec["end_to_end"], FAILED_SHARE]:
            name, lower = metric["name"], metric["better"] == "lower"
            a = [r["e2e"][name] for r in ra]
            b = [r["e2e"][name] for r in rb]
            pairs = [(x["e2e"][name], y["e2e"][name]) for x, y in paired]
            result = verdict(a, b, pairs, lower, metric["bound"])
            regressed |= result == "regression"
            ma, mb = statistics.median(a), statistics.median(b)
            wins = sum(1 for x, y in pairs if (y < x if lower else y > x))
            change = f"{(mb - ma) / ma:>+8.1%}" if ma else f"{mb - ma:>+8.3g}"
            print(
                f"{workload:<16} {name:<18} {_summary(a):>34} {_summary(b):>34} "
                f"{change} {wins:>2}/{len(pairs):<3}  {result}"
            )
        if matched:
            differing = sorted(
                {k for x, y in matched for k in set(x["counts"]) | set(y["counts"]) if x["counts"].get(k) != y["counts"].get(k)}
            )
            state = "identical" if not differing else "differ in " + ", ".join(differing)
            print(f"{workload:<16} counts {state} over {len(matched)} seed-matched pairs")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
