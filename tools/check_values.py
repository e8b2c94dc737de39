"""Print the value of every benchmark check, one line per check.

    python3 tools/check_values.py --workload NAME|all [--seed N] [--tiny]

Each line is the check's label, then the `repr` of the discrepancy it
returns, or the type name of the exception it raised.  The checks are those
of `perfbench/workloads.py`, which is imported and not changed; without
`--seed` each workload runs at its default seed.  Two trees compute the same
bits exactly when the outputs of this script on both are identical, so a
bit-identity gate is a `diff` of two runs.
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
    """One line per check of workload `name` at `seed`, in workload order."""
    for check in workloads.build(name, seed, tiny):
        try:
            value = repr(check.run())
        except Exception as exc:  # a failing check is a value to compare too
            value = type(exc).__name__
        yield "%s %s" % (check.label, value)


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
    for name in names:
        seed = WORKLOADS[name].seed if args.seed is None else args.seed
        for line in check_lines(name, seed, args.tiny):
            print("%s %s" % (name, line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
