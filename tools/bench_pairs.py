"""Run the benchmark on two checkouts in alternated pairs; write a BENCH record.

    python3 tools/bench_pairs.py --parent DIR --change DIR \\
        --run WORKLOAD:SEED:PAIRS [--run ...] --claim WORKLOAD:METRIC \\
        --what TEXT --out BENCH_name.json

Each pair runs `perfbench/run.py --workload W --seed S --seconds N --trace 0`
once in each checkout, one run at a time, with N the `run_seconds` of the
change's BENCHMARK.json; the parent runs first in the even-numbered pairs
(0, 2, ...), the change first in the odd ones, so a drift of the host's
speed does not favour either side.  The record keeps, per workload and
seed and per end-to-end metric of BENCHMARK.json, every run of each side,
its median and quartiles (`statistics.quantiles`, inclusive method) and the
number of pairs that side won, and the number of failed checks summed over
each side's runs.  Standard library only; the benchmark itself is run as
it is, from each checkout's own files.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

COMMAND = "python3 perfbench/run.py --workload W --seed S --seconds %g --trace 0"
METHOD = ("pairs alternate which tree runs first (even pair index: parent "
          "first); every run made is listed; each side's quartiles over its "
          "runs (statistics.quantiles, inclusive); a side wins a pair when its "
          "value is better by the metric's direction in BENCHMARK.json; "
          "end-to-end values as run.py prints them")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `perfbench/run.py` run in `tree`: the JSON object of its last
    stdout line ({"correct", "attempted", "failed", "metrics"})."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError("run.py failed in %s (exit %d): %s"
                           % (tree, proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _spread(runs: list[float]) -> dict:
    """Median and inclusive quartiles of one side's runs, and the runs."""
    if len(runs) > 1:
        q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    else:
        q1 = median = q3 = runs[0]
    return {"median": median, "q1": q1, "q3": q3, "runs": list(runs)}


def summarize(workload: str, seed: int, pairs: list[tuple[dict, dict]],
              end_to_end: list[dict]) -> dict:
    """The `results` entry of one workload and seed from its (parent, change)
    run pairs, each run as `run_once` returns it.  `end_to_end` is the
    BENCHMARK.json list of {"name", "unit", "better"}."""
    metrics = {}
    for spec in end_to_end:
        name = spec["name"]
        sign = 1 if spec["better"] == "lower" else -1
        values = [(a["metrics"][name]["value"], b["metrics"][name]["value"])
                  for a, b in pairs]
        parent = _spread([a for a, _ in values])
        change = _spread([b for _, b in values])
        parent["won"] = sum(1 for a, b in values if sign * (a - b) < 0)
        change["won"] = sum(1 for a, b in values if sign * (b - a) < 0)
        metrics[name] = {"unit": spec["unit"], "parent": parent,
                         "change": change}
    return {"workload": workload, "seed": seed, "pairs": len(pairs),
            "failed": {"parent": sum(a["failed"] for a, _ in pairs),
                       "change": sum(b["failed"] for _, b in pairs)},
            "metrics": metrics}


def _head(tree: Path) -> str:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tree,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else str(tree)


def _triple(text: str) -> tuple[str, int, int]:
    workload, seed, pairs = text.split(":")
    return workload, int(seed), int(pairs)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--run", type=_triple, action="append", required=True,
                    metavar="WORKLOAD:SEED:PAIRS")
    ap.add_argument("--claim", required=True, metavar="WORKLOAD:METRIC")
    ap.add_argument("--what", required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    results = []
    for workload, seed, n_pairs in args.run:
        pairs = []
        for i in range(n_pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            runs = {side: run_once(trees[side], workload, seed, seconds)
                    for side in order}
            pairs.append((runs["parent"], runs["change"]))
            print("%s seed %d pair %d/%d done" % (workload, seed, i + 1, n_pairs),
                  file=sys.stderr)
        results.append(summarize(workload, seed, pairs, bench["end_to_end"]))
    workload, metric = args.claim.split(":")
    claim = {"workload": workload, "metric": metric,
             "seeds": [r["seed"] for r in results if r["workload"] == workload]}
    record = {
        "what": args.what,
        "parent": _head(trees["parent"]),
        "command": COMMAND % seconds,
        "host": "%d CPUs, %s, Python %s" % (
            os.cpu_count() or 0, platform.machine(), platform.python_version()),
        "method": METHOD,
        "claim": claim,
        "results": results,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
