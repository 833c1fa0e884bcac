"""Run every workload untraced and traced, and print all metrics in one place.

    python3 perfbench/report.py --seed 1

Prints the six end-to-end metrics (name, value, unit) per workload, every
failed operation, the per-layer metrics of the traced runs, and whether the
traced runs confirm that each workload isolates the layers it is meant to.
Each run lasts ``run_seconds`` from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from run import WORKLOADS, BenchError, run


def isolation(results: dict) -> list[tuple[str, bool]]:
    """The layer separation the workloads are designed for, read off the traces."""
    def layer(w, name):
        return results[w][1]["metrics"][name]["value"]

    share = (layer("sampled-verify", "exactlinalg.busy_s")
             / layer("sampled-verify", "bench.traced_wall_s"))
    return [
        ("exact-tables: geometry.berger_inner.calls == 0",
         layer("exact-tables", "geometry.berger_inner.calls") == 0),
        ("exact-tables: exactlinalg.calls == 0", layer("exact-tables", "exactlinalg.calls") == 0),
        ("exact-oracles: cli.calls == 0", layer("exact-oracles", "cli.calls") == 0),
        ("exact-oracles: geometry.berger_inner.calls == 0",
         layer("exact-oracles", "geometry.berger_inner.calls") == 0),
        (f"sampled-verify: exactlinalg.busy_s is {100 * share:.2f} % "
         "of traced wall time (< 2 %)", share < 0.02),
    ]


def print_failures(res: dict) -> None:
    for f in res["failures"]:
        print(f"  FAILED op {f['op']} [{f['kind']}] {f['call']}\n      -> {f['reason']}")
    for f in res["probe_failures"]:
        print(f"  FAILED bad-input probe [{f['kind']}] {f['call']}\n      -> {f['reason']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    root = Path.cwd()
    seconds = json.loads((root / "BENCHMARK.json").read_text())["run_seconds"]
    results = {}
    try:
        for w in WORKLOADS:
            results[w] = tuple(run(w, args.seed, seconds, trace, root) for trace in (0, 1))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    print(f"seed {args.seed}, {seconds} s per run; env {results[WORKLOADS[0]][0]['env']}")
    for w, (plain, traced) in results.items():
        print(f"\n== {w}: {plain['attempted']} ops, {plain['failed']} failed, "
              f"correct={plain['correct']}")
        for name, m in plain["metrics"].items():
            print(f"  {name:<14} {m['value']:>14.6g} {m['unit']}")
        print_failures(plain)
        print(f"  -- traced replay of {traced['attempted']} ops, {traced['failed']} failed, "
              f"correct={traced['correct']}")
        for name, m in traced["metrics"].items():
            print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}")
        print_failures(traced)
    print("\n== layer isolation")
    checks = isolation(results)
    for text, ok in checks:
        print(f"  {'ok  ' if ok else 'FAIL'} {text}")
    return 0 if all(ok for _, ok in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
