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


def test_check_values_prints_one_line_per_check():
    lines = _run([str(ROOT / "tools" / "check_values.py"),
                  "--workload", "aux-checks", "--tiny"])
    (count,) = _run(["-c", "import catalog, workloads\n"
                     "seed = catalog.WORKLOADS['aux-checks'].seed\n"
                     "print(len(workloads.build('aux-checks', seed, tiny=True)))"])
    assert len(lines) == int(count) > 0
    labels = []
    for line in lines:
        name, label, value = line.split(" ")
        assert name == "aux-checks"
        labels.append(label)
        assert float(value) >= 0.0
    assert labels[-1].startswith("basic/") and "trace/control" in labels
