"""The benchmark in perfbench/ wraps library functions by name.

`Tracer.install` raises when a name it wraps is gone, and the workloads
import the library functions they call; both run here in a fresh
interpreter, so a deletion or rename in src/ that breaks the benchmark fails
this test.  A traced run of every workload also exits 1 when a wrapped name
exists but no workload calls it any more, so one tiny traced run is made as
well.  Nothing under perfbench/ is changed.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_tracer_installs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])
    code = ("import tracing, workloads\n"
            "tracing.Tracer().install(also=(workloads,))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_tiny_traced_run_calls_every_wrapped_name():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                           "--workload", "all", "--trace", "1", "--tiny",
                           "--seconds", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
