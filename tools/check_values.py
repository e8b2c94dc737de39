"""Print the value of every benchmark check, one line per check.

    python3 tools/check_values.py --workload NAME|all [--seed N] [--tiny]

Each line is the check's label, then the `repr` of the discrepancy it
returns, or the type name of the exception it raised.  The checks are those
of `perfbench/workloads.py`, which is imported and not changed; without
`--seed` each workload runs at its default seed.  Two trees compute the same
bits exactly when the outputs of this script on both are identical, so a
bit-identity gate is a `diff` of two runs.  The exit code is 1 when a check
raised or returned a value that is not within its tolerance (NaN included),
else 0; stdout is the same either way.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

from catalog import WORKLOADS  # noqa: E402
import workloads  # noqa: E402


def check_lines(name: str, seed: int, tiny: bool = False):
    """One (line, passed) pair per check of workload `name` at `seed`, in
    workload order."""
    for check in workloads.build(name, seed, tiny):
        try:
            value = check.run()
        except Exception as exc:  # a failing check is a value to compare too
            yield "%s %s" % (check.label, type(exc).__name__), False
        else:
            yield "%s %r" % (check.label, value), value <= check.tol  # NaN fails


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=None,
                    help="seed of every workload (default: each one's own)")
    ap.add_argument("--tiny", action="store_true",
                    help="the small variant of each workload")
    args = ap.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    failed = 0
    for name in names:
        seed = WORKLOADS[name].seed if args.seed is None else args.seed
        for line, passed in check_lines(name, seed, args.tiny):
            print("%s %s" % (name, line))
            failed += not passed
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
