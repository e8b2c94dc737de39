"""gl1zeta benchmark: time to verify each workload's identities within tolerance.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

The load is a closed loop with one client: one process on one thread starts
each check only after the previous one returns.  A run repeats timed passes
of one workload for about `--seconds` seconds; every pass is a fresh
interpreter (`one_pass.py`), so every pass pays interpreter start, import and
cold in-process caches, as a CLI invocation does.  Every check's discrepancy
is gated by the tolerance of its acceptance test.

With `--trace 0` the run prints the end-to-end metrics (medians over passes;
per-check latencies pooled over passes).  With `--trace 1` it alternates
untraced and traced passes and prints the per-layer metrics of the traced
ones, the tracing overhead, and writes the spans of the last traced pass
under `.perfbench-out/`.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the lines before it give the
metrics by name and unit, the run's environment and its details.

`--workload all` (the default) runs the four workloads one after another at
their default seeds, or all at `--seed`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

from catalog import END_TO_END, LAYER_METRICS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ONE_PASS = HERE / "one_pass.py"
OUT_DIR = ROOT / ".perfbench-out"
RUN_LIMIT_S = 170       # a run must end within 180 s, whatever --seconds says
# A shared host's speed can drift by a fifth or more within minutes (on a
# 2-vCPU virtual machine a fixed loop's 30-second means spread by 19 % over
# five minutes), more than any bound a regression check can use.  So a pass
# times a fixed reference loop (one_pass.reference_s) around its checks, and
# the times of its checks are reported at the nominal speed, at which that
# loop takes NOMINAL_REF_S: measured time x NOMINAL_REF_S / the pass's
# median reference time.  Raw times are kept in the details line.  setup_s
# stays raw: it is over before the first sample, and scaling it made it
# spread more, not less.
NOMINAL_REF_S = 0.009


class PassError(RuntimeError):
    """A pass could not run: no package to import, or a crash."""


def environment() -> dict:
    def pkg(name):
        try:
            return version(name)
        except PackageNotFoundError:
            return None

    return {"python": platform.python_version(), "numpy": pkg("numpy"),
            "scipy": pkg("scipy"), "nproc": len(os.sched_getaffinity(0)),
            "git_sha": git_sha(), "loadavg": list(os.getloadavg())}


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_pass(workload: str, seed: int, trace: bool, tiny: bool,
             timeout: float) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "GL1ZETA_CACHE_DIR"}
    extra = ["--tiny"] if tiny else []
    if trace:
        extra += ["--trace", "--spans-out",
                  str(OUT_DIR / ("spans-%s-seed%d.json" % (workload, seed)))]
    cmd = [sys.executable, str(ONE_PASS), "--workload", workload,
           "--seed", str(seed), *extra, "--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise PassError("pass exceeded %.0f s" % timeout) from exc
    if proc.returncode != 0:
        raise PassError(proc.stderr.strip() or "exit code %d" % proc.returncode)
    return json.loads(proc.stdout.splitlines()[-1])


def nominal(record: dict) -> dict:
    """A pass's check latencies and wall time at the nominal host speed."""
    factor = NOMINAL_REF_S / record["ref_s"]
    return {"latencies_ms": [ms * factor for ms in record["latencies_ms"]],
            "wall_s": record["wall_s"] * factor}


def tail(latencies: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(1, math.ceil(pct / 100 * len(latencies)))
    return sorted(latencies)[rank - 1], len(latencies) - rank


def measure(workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool) -> tuple[list[dict], list[dict]]:
    """Untraced and traced passes until `seconds` are spent.

    Untraced runs keep going at least until ten pooled checks lie beyond the
    tail percentile; traced runs alternate and need one pass of each kind.
    """
    pct = WORKLOADS[workload].tail_pct
    start = time.monotonic()
    plain: list[dict] = []
    traced: list[dict] = []
    longest = 0.0
    while True:
        traced_now = trace and len(traced) < len(plain)
        began = time.monotonic()
        timeout = RUN_LIMIT_S - (began - start)
        record = run_pass(workload, seed, traced_now, tiny, timeout)
        longest = max(longest, time.monotonic() - began)
        (traced if traced_now else plain).append(record)
        if trace:
            enough = bool(traced)
        else:
            pooled = [x for r in plain for x in r["latencies_ms"]]
            enough = tiny or tail(pooled, pct)[1] >= 10
        if enough and time.monotonic() - start + longest > seconds:
            return plain, traced


def summarize(workload: str, seed: int, env: dict, plain: list[dict],
              traced: list[dict], trace: bool) -> tuple[dict, dict]:
    """(result line, details) of one run; `env` is taken at its start."""
    pct = WORKLOADS[workload].tail_pct
    attempted = sum(len(r["latencies_ms"]) for r in plain + traced)
    failures = [f for r in plain + traced for f in r["failures"]]
    worst = max((r["worst"] for r in plain + traced if r["worst"]),
                key=lambda w: w[1] / w[2], default=None)
    scaled = [nominal(r) for r in plain]
    pooled = [x for n in scaled for x in n["latencies_ms"]]
    tail_ms, beyond = tail(pooled, pct)
    details = {
        "workload": workload, "seed": seed, "env": env,
        "passes": len(plain), "traced_passes": len(traced),
        "fail_ratio": len(failures) / attempted,
        "exceptions": dict(Counter(kind for _, kind in failures
                                   if kind != "tolerance")),
        "failures": failures[:20],
        "worst": dict(zip(("check", "discrepancy", "tol"), worst)) if worst else None,
        "check_tail": {"percentile": pct, "samples": len(pooled), "beyond": beyond},
        "per_pass": {key: [r[key] for r in plain]
                     for key in ("setup_s", "wall_s", "ref_s", "peak_rss_mb")},
        "raw": {"wall_s": statistics.median(r["wall_s"] for r in plain),
                "check_p50_ms": statistics.median(
                    x for r in plain for x in r["latencies_ms"])},
    }
    if trace:
        layers = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in LAYER_METRICS
                  if name != "trace.overhead_s"}
        layers["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in traced)
            - statistics.median(r["wall_s"] for r in plain))
        metrics = {name: (layers[name], unit)
                   for name, (unit, _) in LAYER_METRICS.items()}
        details["hits"] = traced[-1]["hits"]
        details["spans"] = str(OUT_DIR.relative_to(ROOT)
                               / ("spans-%s-seed%d.json" % (workload, seed)))
    else:
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "wall_s": statistics.median(n["wall_s"] for n in scaled),
            "check_p50_ms": statistics.median(pooled),
            "check_tail_ms": tail_ms,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        metrics = {name: (values[name], unit)
                   for name, (unit, _) in END_TO_END.items()}
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures),
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    return result, details


def report(result: dict, details: dict) -> None:
    print("# %s  seed %d  passes %d+%d traced  checks %d  failed %d"
          % (details["workload"], details["seed"], details["passes"],
             details["traced_passes"], result["attempted"], result["failed"]))
    for name, m in result["metrics"].items():
        note = ""
        if name == "check_tail_ms":
            t = details["check_tail"]
            note = "  (p%g of %d checks, %d beyond)" % (
                t["percentile"], t["samples"], t["beyond"])
        if name in details.get("raw", {}):
            note = "  (raw %.6g)%s" % (details["raw"][name], note)
        print("  %-40s %14.6g %s%s" % (name, m["value"], m["unit"], note))
    print("  %-40s %14.6g %s  (%d/%d)" % ("fail_ratio", details["fail_ratio"],
                                         "ratio", result["failed"],
                                         result["attempted"]))
    print(json.dumps(details))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed (default: the workload's acceptance seed)")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs and no tail-sample minimum (smoke test)")
    args = ap.parse_args()

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    hits: Counter = Counter()
    for name in names:
        seed = WORKLOADS[name].seed if args.seed is None else args.seed
        env = environment()
        try:
            plain, traced = measure(name, seed, args.seconds, bool(args.trace),
                                    args.tiny)
        except PassError as exc:
            print("%s: pass failed: %s" % (name, exc), file=sys.stderr)
            return 1
        result, details = summarize(name, seed, env, plain, traced,
                                    bool(args.trace))
        report(result, details)
        results[name] = result
        hits.update(details.get("hits", {}))
    if args.trace and args.workload == "all":
        missed = sorted(name for name, n in hits.items() if n == 0)
        if missed:
            print("wrapped names never called on any workload (renamed in "
                  "src/?): %s" % ", ".join(missed), file=sys.stderr)
            return 1
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s.%s" % (w, m): v for w, r in results.items()
                        for m, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
