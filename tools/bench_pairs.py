"""Run the benchmark on two checkouts in alternated pairs; write a BENCH record.

    python3 tools/bench_pairs.py --parent DIR --change DIR \\
        --run WORKLOAD:SEED:PAIRS [--run ...] [--claim WORKLOAD:METRIC] \\
        --what TEXT --out BENCH_name.json

Each pair runs `perfbench/run.py --workload W --seed S --seconds N --trace 0`
once in each checkout, one run at a time, with N the `run_seconds` of the
change's BENCHMARK.json; the parent runs first in the even-numbered pairs
(0, 2, ...), the change first in the odd ones, so a drift of the host's
speed does not favour either side.  The record keeps, per workload and
seed and per end-to-end metric of BENCHMARK.json, every run of each side,
its median and quartiles (`statistics.quantiles`, inclusive method) and the
number of pairs that side won, and the number of failed checks summed over
each side's runs.  Its `verdict` reads those numbers: with `--claim`,
whether the change won at least 9 in 10 pairs of the claimed metric, on
each seed of the claimed workload, with a median better than the parent's
by more than the parent's interquartile range and no more failed checks
than the parent (without `--claim` the record has no `claim` and the
verdict no `claim` or `claim_holds`); and whether, for every end-to-end
metric on every workload and seed, the change's median is within the metric's BENCHMARK.json `bound` of the
parent's, and whether the parent's own spread resolves that bound.
Standard library only; the benchmark itself is run as it is, from each
checkout's own files.

Each tree must be the top of its own git checkout, such as one made by
`git worktree add`, since the record names the parent by its HEAD; the
script exits 2 before any run otherwise.
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


def verdict(results: list[dict], claim: dict | None,
            end_to_end: list[dict]) -> dict:
    """The record's `verdict` on `results` (a list of `summarize` entries).
    Unless `claim` is None, per seed of the claimed workload, the claimed
    metric's pairs won and its median gain (parent minus change, by the
    metric's direction) against the parent's interquartile range: it holds
    on at least 9 wins in 10 pairs, a gain beyond the range and no more
    failed checks than the parent's.  Per workload, seed and end-to-end metric, the change's median
    relative to the parent's, within the bound when it is worse by at most
    `bound` of the parent's median, and resolved when the parent's
    interquartile range is within that bound too, or when every change run
    beats every parent run.  `end_to_end` is the BENCHMARK.json list of
    {"name", "better", "bound"}."""
    specs = {spec["name"]: spec for spec in end_to_end}
    claimed, bounds = [], []
    for r in results:
        for name, m in r["metrics"].items():
            sign = 1 if specs[name]["better"] == "lower" else -1
            parent, change = m["parent"], m["change"]
            gain = sign * (parent["median"] - change["median"])
            iqr = parent["q3"] - parent["q1"]
            allowed = specs[name]["bound"] * abs(parent["median"])
            bounds.append({
                "workload": r["workload"], "seed": r["seed"], "metric": name,
                "relative": change["median"] / parent["median"] - 1
                if parent["median"] else None,
                "bound": specs[name]["bound"],
                "within": -gain <= allowed,
                "resolved": iqr <= allowed
                or max(sign * v for v in change["runs"])
                < min(sign * v for v in parent["runs"])})
            if (claim is not None and r["workload"] == claim["workload"]
                    and name == claim["metric"]):
                claimed.append({
                    "seed": r["seed"], "won": change["won"], "pairs": r["pairs"],
                    "median_gain": gain, "parent_iqr": iqr, "failed": r["failed"],
                    "holds": 10 * change["won"] >= 9 * r["pairs"] and gain > iqr
                    and r["failed"]["change"] <= r["failed"]["parent"]})
    out = {"bounds": bounds,
           "all_within_bound": all(b["within"] for b in bounds),
           "all_resolved": all(b["resolved"] for b in bounds)}
    if claim is None:
        return out
    return {"claim": claimed,
            "claim_holds": bool(claimed) and all(c["holds"] for c in claimed),
            **out}


def _git(tree: Path, *args: str) -> str | None:
    """The stdout of `git ARGS` run in `tree`, or None when it fails."""
    proc = subprocess.run(["git", *args], cwd=tree, capture_output=True,
                          text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _not_a_checkout(tree: Path) -> str | None:
    """Why `tree` cannot stand for a commit in the record, or None.  The
    record names the parent by its HEAD, so each tree must be the top of its
    own git checkout: a copy inside another checkout reads that checkout's
    HEAD, and a plain directory has none."""
    top = _git(tree, "rev-parse", "--show-toplevel") if tree.is_dir() else None
    if top is not None and Path(top).resolve() == tree:
        return None
    return ("%s is not the top of a git checkout; make one with "
            "`git worktree add DIR COMMIT`" % tree)


def _triple(text: str) -> tuple[str, int, int]:
    workload, seed, pairs = text.split(":")
    return workload, int(seed), int(pairs)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--run", type=_triple, action="append", required=True,
                    metavar="WORKLOAD:SEED:PAIRS")
    ap.add_argument("--claim", metavar="WORKLOAD:METRIC")
    ap.add_argument("--what", required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, tree in trees.items():
        problem = _not_a_checkout(tree)
        if problem:
            print("--%s: %s" % (side, problem), file=sys.stderr)
            return 2
    bench = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
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
    claim = None
    if args.claim:
        workload, metric = args.claim.split(":")
        claim = {"workload": workload, "metric": metric,
                 "seeds": [r["seed"] for r in results if r["workload"] == workload]}
    record = {
        "what": args.what,
        "parent": _git(trees["parent"], "rev-parse", "HEAD"),
        "command": COMMAND % seconds,
        "host": "%d CPUs, %s, Python %s" % (
            os.cpu_count() or 0, platform.machine(), platform.python_version()),
        "method": METHOD,
        **({"claim": claim} if claim is not None else {}),
        "results": results,
        "verdict": verdict(results, claim, bench["end_to_end"]),
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
