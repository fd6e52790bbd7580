"""Compare two result sets of the benchmark: a parent commit and a change.

    python3 perfbench/compare.py parent.jsonl change.jsonl

Each file holds the records ``run.py --out FILE`` appends.  Make them with
identical settings and alternate which side runs first; the i-th run of a
workload in one file is paired with the i-th run of that workload in the
other.  One row per (workload, metric) gives each side's median and
quartiles, the share of pairs the change won and a verdict (see
``metrics.verdict``).  The exit code is 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

from metrics import FAILED_FRAC, failures_verdict, quartiles, verdict, win_share


def load(path: Path) -> dict[tuple[str, int], dict[str, tuple[dict, list[float]]]]:
    """``(workload, trace) -> metric -> (description, values in file order)``."""
    runs: dict = defaultdict(dict)
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                group = runs[(rec["workload"], rec["trace"])]
                for name, m in rec["metrics"].items():
                    group.setdefault(name, (m, []))[1].append(m["value"])
    return runs


def rows(parent: dict, change: dict) -> list[dict[str, object]]:
    out = []
    for key in sorted(set(parent) & set(change)):
        for name, (meta, p_all) in parent[key].items():
            if name not in change[key]:
                continue
            c_all = change[key][name][1]
            n = min(len(p_all), len(c_all))
            p, c = p_all[:n], c_all[:n]
            if name == FAILED_FRAC.name:
                judged = failures_verdict(p, c)
            else:
                judged = verdict(p, c, meta["better"], meta["bound"])
            out.append({
                "workload": key[0],
                "metric": name,
                "unit": meta["unit"],
                "parent": quartiles(p),
                "change": quartiles(c),
                "pairs": n,
                "won": win_share(p, c, meta["better"]),
                "verdict": judged,
            })
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    table = rows(load(args.parent), load(args.change))
    print(
        f"{'workload':14s} {'metric':26s} {'unit':6s} "
        f"{'parent median [q1, q3]':>32s} {'change median [q1, q3]':>32s} "
        f"{'pairs':>5s} {'won':>5s}  verdict"
    )
    for r in table:
        sides = [f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]" for q in (r["parent"], r["change"])]
        print(
            f"{r['workload']:14s} {r['metric']:26s} {r['unit']:6s} "
            f"{sides[0]:>32s} {sides[1]:>32s} "
            f"{r['pairs']:5d} {r['won']:5.0%}  {r['verdict']}"
        )
    return 1 if any(r["verdict"] == "worse" for r in table) else 0


if __name__ == "__main__":
    sys.exit(main())
