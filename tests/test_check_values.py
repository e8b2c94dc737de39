"""tools/check_values.py prints one line per benchmark check and exits 1
when a check fails.

The script and the workloads it imports run in fresh interpreters, as in
tests/test_bench_names.py, so the benchmark's modules stay off this
process's import path.
"""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _proc(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])
    return subprocess.run([sys.executable] + args, env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)


def _run(args):
    proc = _proc(args)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def _check_labels(workload):
    """Labels of the `--tiny` checks of `workload`, after checking that the
    tool exits 0 (every check passes), prints one line per check and that
    every line holds a value, not the name of an exception."""
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


# The catalog's workloads, read by running its file: it imports nothing from
# the package, and nothing of perfbench/ lands in sys.modules or sys.path.
WORKLOADS = runpy.run_path(str(ROOT / "perfbench" / "catalog.py"))["WORKLOADS"]


@pytest.mark.parametrize("workload",
                         sorted(set(WORKLOADS) - {"aux-checks", "fe-corpus"}))
def test_check_values_runs_the_other_workloads(workload):
    # the rest of the catalog: every check passes, so the script exits 0
    _check_labels(workload)


# The script run on a stand-in workload: a passing check, then `second`.
INJECTED = """
import runpy, sys
import workloads
from workloads import Check

def boom():
    raise ZeroDivisionError

second = {"raises": Check("b", boom, 1.0),
          "nan": Check("b", lambda: float("nan"), 1.0),
          "over": Check("b", lambda: 2.0, 1.0),
          "at_tol": Check("b", lambda: 1.0, 1.0)}[%r]
workloads.build = lambda name, seed, tiny=False: [Check("a", lambda: 0.0, 1.0),
                                                  second]
sys.argv = ["check_values.py", "--workload", "fe-corpus"]
runpy.run_path(%r, run_name="__main__")
"""


@pytest.mark.parametrize("kind, line, code", [
    ("raises", "fe-corpus b ZeroDivisionError", 1),
    ("nan", "fe-corpus b nan", 1),
    ("over", "fe-corpus b 2.0", 1),
    ("at_tol", "fe-corpus b 1.0", 0)])
def test_check_values_exits_1_on_a_failing_check(kind, line, code):
    proc = _proc(["-c", INJECTED % (kind, str(ROOT / "tools" / "check_values.py"))])
    assert proc.returncode == code, proc.stderr
    # stdout is the same whatever the exit code, so the output stays a diff
    assert proc.stdout.splitlines() == ["fe-corpus a 0.0", line]
