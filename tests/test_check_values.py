"""tools/check_values.py prints one line per benchmark check.

The script and the workloads it imports run in fresh interpreters, as in
tests/test_bench_names.py, so the benchmark's modules stay off this
process's import path.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])
    proc = subprocess.run([sys.executable] + args, env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def _check_labels(workload):
    """Labels of the `--tiny` checks of `workload`, after checking that the
    tool prints one line per check and that every line holds a value, not
    the name of an exception."""
    lines = _run([str(ROOT / "tools" / "check_values.py"),
                  "--workload", workload, "--tiny"])
    (count,) = _run(["-c", "import catalog, workloads\n"
                     "seed = catalog.WORKLOADS[%r].seed\n"
                     "print(len(workloads.build(%r, seed, tiny=True)))"
                     % (workload, workload)])
    assert len(lines) == int(count) > 0
    labels = []
    for line in lines:
        name, label, value = line.split(" ")
        assert name == workload
        labels.append(label)
        assert float(value) >= 0.0
    return labels


def test_check_values_prints_one_line_per_check():
    labels = _check_labels("aux-checks")
    assert labels[-1].startswith("basic/") and "trace/control" in labels


def test_check_values_runs_the_fe_corpus():
    # the verify_fe path, on both branches, through the benchmark's checks
    _check_labels("fe-corpus")
