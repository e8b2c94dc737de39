"""What the benchmark measures: workloads, end-to-end and per-layer metrics.

This module imports nothing from the package, so the parent process of a
run (`run.py`) stays small and starts quickly.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    seed: int           # default seed: the acceptance test's, where one exists
    # Percentile reported as check_tail_ms.  Each is fixed so that the
    # minimum number of passes leaves at least ten checks beyond it, and so
    # that its rank falls inside a class of equally expensive checks rather
    # than on the edge between two classes, where it would jump between
    # their latencies from run to run.
    tail_pct: float
    why: str


WORKLOADS = {
    "fe-corpus": Workload(
        42, 90.0,
        "verify_fe on the 50-entry FE corpus mix; pv gamma-symbol shell sums "
        "dominate, with heavy reuse of characters"),
    "gamma-sweep": Workload(
        101, 85.0,
        "two-route gamma_pv over p in {3,5,7,11} x conductor {1,2,3}: brute "
        "guard-shell sums alone, no symbol, nothing reused"),
    "hankel-corpus": Workload(
        43, 95.0,
        "Hankel two routes on the Hankel corpus mix: many tiny Gauss sums and "
        "rational-function arithmetic, no pv guard shells"),
    "aux-checks": Workload(
        107, 90.0,
        "trace-average grid, Archimedean FE and basic-function checks: the "
        "control that shares no shell-sum or symbol code"),
}

# End-to-end metrics of an untraced run: name -> (unit, better).
# fail_ratio is printed beside them; it is 0 on a correct run, so it is
# carried by the result's "attempted" and "failed" fields instead of as a
# bounded metric.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "check_p50_ms": ("ms", "lower"),
    "check_tail_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# Per-layer metrics of a traced pass: name -> (unit, better).
LAYER_METRICS = {
    "zetagamma.shell_sum.calls": ("count", "lower"),
    "zetagamma.shell_sum.brute_calls": ("count", "lower"),
    "zetagamma.shell_sum.units": ("count", "lower"),
    "zetagamma.shell_sum.self_s": ("s", "lower"),
    "zetagamma.coset_sum.calls": ("count", "lower"),
    "zetagamma.coset_sum.self_s": ("s", "lower"),
    "zetagamma.gamma_pv.calls": ("count", "lower"),
    "zetagamma.gamma_pv.self_s": ("s", "lower"),
    "zetagamma.gamma_pv.incl_s": ("s", "lower"),
    "zetagamma.gamma_closed.self_s": ("s", "lower"),
    "zetagamma.zeta.self_s": ("s", "lower"),
    "zetagamma.verify_fe.self_s": ("s", "lower"),
    "characters.unit_value.calls": ("count", "lower"),
    "characters.multchar.built": ("count", "lower"),
    "characters.char_product.self_s": ("s", "lower"),
    "characters.unitary_components.self_s": ("s", "lower"),
    "padic.elt.built": ("count", "lower"),
    "padic.psi_value.calls": ("count", "lower"),
    "padic.unit_group.tables": ("count", "lower"),
    "kernel.gamma_symbol.calls": ("count", "lower"),
    "kernel.gamma_symbol.components_built": ("count", "lower"),
    "kernel.gamma_symbol.components_read": ("count", "lower"),
    "kernel.gamma_symbol.read_ratio": ("ratio", "higher"),
    "kernel.gamma_symbol.self_s": ("s", "lower"),
    "kernel.hankel_mellin.self_s": ("s", "lower"),
    "kernel.hankel_convolve.self_s": ("s", "lower"),
    "kernel.coset_integral.calls": ("count", "lower"),
    "kernel.trace_average.calls": ("count", "lower"),
    "kernel.trace_average.cosets": ("count", "lower"),
    "kernel.trace_average.self_s": ("s", "lower"),
    "stepfn.mellin.self_s": ("s", "lower"),
    "stepfn.mellin_invert.self_s": ("s", "lower"),
    "stepfn.fourier.self_s": ("s", "lower"),
    "ratfunc.rf.built": ("count", "lower"),
    "ratfunc.mul.calls": ("count", "lower"),
    "ratfunc.add.calls": ("count", "lower"),
    "ratfunc.rf.self_s": ("s", "lower"),
    "ratfunc.discrepancy.self_s": ("s", "lower"),
    "ratfunc.series.self_s": ("s", "lower"),
    "basicfn.checks.self_s": ("s", "lower"),
    "arch.fe_check.self_s": ("s", "lower"),
    "arch.zeta.calls": ("count", "lower"),
    "corpus.generate_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.unaccounted_s": ("s", "lower"),
}
