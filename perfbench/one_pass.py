"""One timed pass of a benchmark workload, in a fresh interpreter.

    python3 perfbench/one_pass.py --workload NAME --seed N --spawned-at T
        [--trace] [--tiny] [--spans-out FILE]

`run.py` starts this script once per pass, so every pass starts with cold
in-process caches, as every CLI invocation does.  `--spawned-at` is the
parent's `time.monotonic()` just before the start; set-up time runs from
there until the inputs are ready, so it covers interpreter start,
`import gl1zeta` and input generation.  The pass also times a fixed
reference loop around its checks, so that `run.py` can scale its times to
the nominal host speed.  The pass prints one JSON record on stdout.  A
check that raises or misses its tolerance is recorded as failed; any other
error ends the pass with a non-zero exit code.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _import_package():
    """Import gl1zeta from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import gl1zeta
    if Path(gl1zeta.__file__).resolve().parent.parent != SRC:
        raise ImportError("gl1zeta imported from %s, not from %s"
                          % (gl1zeta.__file__, SRC))


def reference_s() -> float:
    """Seconds for a fixed loop of the exact-phase arithmetic the package
    spends its time on (Fraction sums mod 1, as in MultChar.unit_phase).
    Of the loops tried, its time tracks the drift of the FE checks' times
    best.  The collector is off meanwhile, so the package's heap cannot
    change its time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 3000):
            acc = (acc + Fraction(i % 7, 11)) % 1
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def reference_sample() -> float:
    return statistics.median(reference_s() for _ in range(3))


def run_checks(checks) -> dict:
    """Run the checks in order, sampling the reference loop at the start,
    after any check that ends a second or more after the last sample, and
    at the end."""
    latencies, refs, failures, worst = [], [reference_sample()], [], None
    clock = time.perf_counter
    last_sample = clock()
    for check in checks:
        start = clock()
        try:
            disc = check.run()
        except Exception as exc:  # a failed check is a result, not a crash
            disc = None
            failures.append([check.label, type(exc).__name__])
        latencies.append(clock() - start)
        if disc is not None:
            if not disc <= check.tol:    # NaN fails too
                failures.append([check.label, "tolerance"])
            if worst is None or disc / check.tol > worst[1] / worst[2]:
                worst = [check.label, disc, check.tol]
        if clock() - last_sample >= 1.0:
            refs.append(reference_sample())
            last_sample = clock()
    refs.append(reference_sample())
    return {"wall_s": sum(latencies),
            "latencies_ms": [1e3 * t for t in latencies],
            "ref_s": statistics.median(refs),
            "failures": failures,
            "worst": worst}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args()

    _import_package()
    import workloads
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install(also=[workloads])
    checks = workloads.build(args.workload, args.seed, args.tiny)
    setup_s = time.monotonic() - args.spawned_at
    if tracer is not None:
        tracer.start_checks()
    record = run_checks(checks)
    record["setup_s"] = setup_s
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        record["layers"] = tracer.metrics(record["wall_s"])
        record["hits"] = tracer.hits()
        if args.spans_out:
            out = Path(args.spans_out)
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(json.dumps({"setup": tracer.setup_spans,
                                       "checks": tracer.spans}))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
