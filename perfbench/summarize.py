"""Summarize benchmark results across seeds: the baseline table.

    python3 perfbench/summarize.py                    # print the table
    python3 perfbench/summarize.py --write FILE.json  # also save it

Reads the per-run records that perfbench/run.py leaves in
``.bench_work/results/``.  For every workload and metric it reports the
median over seeds, the quartiles as ``statistics.quantiles(values, n=4)``
gives them, and the spread (q3 - q1) / median, next to the metric's bound
in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", type=Path, help="save the table as JSON")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    records = [json.loads(p.read_text())
               for p in sorted((ROOT / ".bench_work" / "results").glob("*.json"))]
    table = {}
    for w in bench["workloads"]:
        runs = [r for r in records if r["workload"] == w["name"]]
        rows = {}
        for trace, metrics in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            for m in metrics:
                values = [r["stats"][m["name"]]["median"] if m["name"] in r["stats"]
                          else r["per_layer"].get(m["name"])
                          for r in runs if r["trace"] == trace]
                values = [v for v in values if v is not None]
                if not values:
                    continue
                q1, med, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                               else (values[0],) * 3)
                med = statistics.median(values)
                rows[m["name"]] = {"median": med, "q1": q1, "q3": q3, "n": len(values),
                                   "spread": (q3 - q1) / med if med else 0.0,
                                   "bound": m.get("bound"), "unit": m["unit"]}
        table[w["name"]] = {"seeds": sorted({r["seed"] for r in runs}), "metrics": rows}
        for name, row in rows.items():
            bound = "" if row["bound"] is None else f"  bound {row['bound']:g}"
            print(f"{w['name']:14s} {name:38s} median {row['median']:<12.6g} "
                  f"q1 {row['q1']:<12.6g} q3 {row['q3']:<12.6g} n {row['n']:<3d} "
                  f"spread {row['spread']:.4f}{bound}")
    if args.write:
        env = records[-1]["env"] if records else {}
        args.write.write_text(json.dumps({"env": env, "workloads": table}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
