"""Call tracing for the benchmark's traced passes.

Wrappers are installed from the benchmark's own code on the library's module
attributes and class methods, including the copies other modules imported
(`kernel` imports `shell_psi_chi_integral` from `zetagamma`).  The package
itself is unchanged.  There are two kinds of wrapper:

* a span wrapper records (name, start, end, parent) for every call of a
  layer-boundary function;
* a count wrapper only counts calls.  It sits on the constructors and
  inner-loop functions that run about a million times per pass, whose spans
  would cost more than the work they time; their time is part of the self
  time of the span that calls them.

A span's self time is its duration minus the time its child spans cover.
A rename in `src/` makes `install` raise, so it cannot read as zero work.
"""

from __future__ import annotations

import time
from collections import Counter

import gl1zeta
from gl1zeta import (arch, basicfn, characters, corpus, kernel, padic, ratfunc,
                     stepfn, zetagamma)

from catalog import LAYER_METRICS


def _shell_units(tracer: "Tracer", args, kwargs, result) -> None:
    """Units summed by `shell_psi_chi_integral`, computed from its arguments
    with the same branches: phi(p^k) when the coset loop runs, else 0."""
    p, m, chi = args[:3]
    opts = dict(zip(("b", "inverse_psi", "brute"), args[3:]))
    opts.update(kwargs)
    b, brute = opts.get("b"), opts.get("brute", False)
    w = b.val + m if b is not None else 0
    if brute:
        tracer.counts["zetagamma.shell_sum.brute_calls"] += 1
    elif b is None or w >= 0 or -w > max(chi.cond, 1):
        return
    k = max(1, chi.cond, -w if (b is not None and w < 0) else 0)
    tracer.counts["zetagamma.shell_sum.units"] += p ** k - p ** (k - 1)


def _symbol_built(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.counts["kernel.gamma_symbol.components_built"] += len(result.components)
    tracer.symbols.append(result)      # keeps ids unique for the read set


def _trace_cosets(tracer: "Tracer", args, kwargs, result) -> None:
    p, _, l0, L = args[:4]
    tracer.counts["kernel.trace_average.cosets"] += p ** (3 * (L - l0))


def _table_requested(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.tables.add((result.p, result.a))


def _component_read(tracer: "Tracer", args, kwargs, result) -> None:
    sym, omega = args[:2]
    tracer.reads.add((id(sym), omega.cond, omega.unit_char))


# name -> (owner, attribute, hook run after each call)
SPANNED = {
    "zetagamma.shell_sum": (zetagamma, "shell_psi_chi_integral", _shell_units),
    "zetagamma.coset_sum": (zetagamma, "psi_chi_coset_integral", None),
    "zetagamma.gamma_pv": (zetagamma, "gamma_pv", None),
    "zetagamma.gamma_closed": (zetagamma, "gamma_closed", None),
    "zetagamma.zeta": (zetagamma, "zeta", None),
    "zetagamma.verify_fe": (zetagamma, "verify_fe", None),
    "characters.char_product": (characters, "char_product", None),
    "characters.unitary_components": (characters, "unitary_components", None),
    "kernel.gamma_symbol": (kernel, "gamma_symbol", _symbol_built),
    "kernel.hankel_mellin": (kernel, "hankel_mellin", None),
    "kernel.hankel_convolve": (kernel, "hankel_convolve", None),
    "kernel.coset_integral": (kernel, "kernel_coset_integral", None),
    "kernel.trace_average": (kernel, "trace_average_check", _trace_cosets),
    "stepfn.mellin": (stepfn, "mellin", None),
    "stepfn.mellin_invert": (stepfn, "mellin_invert", None),
    "stepfn.fourier": (stepfn, "fourier_transform", None),
    "ratfunc.rf": (ratfunc.RationalFunc, "__post_init__", None),
    "ratfunc.discrepancy": (ratfunc, "rf_discrepancy", None),
    "ratfunc.series": (ratfunc, "rf_series_coeffs", None),
    "basicfn.zeta_check": (basicfn, "basic_zeta_check", None),
    "basicfn.fourier_check": (basicfn, "basic_fourier_check", None),
    "arch.fe_check": (arch, "arch_fe_check", None),
    "arch.zeta": (arch, "arch_zeta", None),
    "corpus.corpus_generate": (corpus, "corpus_generate", None),
    "corpus.random_char": (corpus, "random_char", None),
    "corpus.random_satake": (corpus, "random_satake", None),
}

COUNTED = {
    "characters.unit_value": (characters.MultChar, "unit_value", None),
    "characters.multchar": (characters.MultChar, "__post_init__", None),
    "padic.elt": (padic.PAdicElt, "__post_init__", None),
    "padic.psi_value": (padic, "psi_value", None),
    "padic.unit_group": (padic, "unit_group", _table_requested),
    "ratfunc.mul": (ratfunc.RationalFunc, "__mul__", None),
    "ratfunc.add": (ratfunc.RationalFunc, "__add__", None),
    "kernel.symbol_component": (kernel.GammaSymbol, "component", _component_read),
}

MODULES = (gl1zeta, arch, basicfn, characters, corpus, kernel, padic, ratfunc,
           stepfn, zetagamma)


class Tracer:
    """Spans and counts of one traced pass, split into set-up and checks."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.setup_spans: list[list] = []
        self.setup_counts: Counter = Counter()
        self.tables: set = set()         # (p, a) unit-group tables requested
        self.reads: set = set()          # gamma-symbol components read
        self.symbols: list = []
        self._stack: list[int] = []

    def install(self, also=()) -> None:
        """Wrap every name in SPANNED and COUNTED, in the package and in the
        modules `also`, for the rest of the process."""
        modules = MODULES + tuple(also)
        for name, (owner, attr, hook) in SPANNED.items():
            self._patch(modules, owner, attr, lambda fn, n=name, h=hook:
                        self._span_wrapper(n, fn, h))
        for name, (owner, attr, hook) in COUNTED.items():
            self._patch(modules, owner, attr, lambda fn, n=name, h=hook:
                        self._count_wrapper(n, fn, h))

    @staticmethod
    def _patch(modules, owner, attr, make) -> None:
        if isinstance(owner, type):
            setattr(owner, attr, make(owner.__dict__[attr]))
            return
        original = getattr(owner, attr)
        wrapper = make(original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)

    def _span_wrapper(self, name, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn, hook):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def start_checks(self) -> None:
        """End the set-up phase: later spans and counts belong to the checks."""
        self.setup_spans = list(self.spans)
        self.setup_counts = Counter(self.counts)
        self.spans.clear()
        self.counts.clear()

    def calls(self) -> Counter:
        """Calls per wrapped name during the checks, spans and counts alike."""
        out = Counter(self.counts)
        out.update(record[0] for record in self.spans)
        return out

    def hits(self) -> dict:
        """Calls per wrapped name over the whole pass, zeros included."""
        total = (self.calls() + self.setup_counts
                 + Counter(record[0] for record in self.setup_spans))
        return {name: total[name] for name in (*SPANNED, *COUNTED)}

    def metrics(self, wall_s: float) -> dict:
        """Per-layer metrics of the checks phase; `wall_s` is its traced
        wall time.  trace.overhead_s is left to the caller, which also has
        the untraced passes."""
        self_s, incl_s = span_times(self.spans)
        calls = self.calls()
        built = self.counts["kernel.gamma_symbol.components_built"]
        roots = sum(end - start for _, start, end, parent in self.spans
                    if parent < 0)
        setup_roots = sum(end - start for name, start, end, parent
                          in self.setup_spans
                          if parent < 0 and name.startswith("corpus."))
        out = {
            "zetagamma.shell_sum.calls": calls["zetagamma.shell_sum"],
            "zetagamma.shell_sum.brute_calls":
                self.counts["zetagamma.shell_sum.brute_calls"],
            "zetagamma.shell_sum.units": self.counts["zetagamma.shell_sum.units"],
            "zetagamma.coset_sum.calls": calls["zetagamma.coset_sum"],
            "zetagamma.gamma_pv.calls": calls["zetagamma.gamma_pv"],
            "zetagamma.gamma_pv.incl_s": incl_s["zetagamma.gamma_pv"],
            "characters.unit_value.calls": calls["characters.unit_value"],
            "characters.multchar.built": calls["characters.multchar"],
            "padic.elt.built": calls["padic.elt"],
            "padic.psi_value.calls": calls["padic.psi_value"],
            "padic.unit_group.tables": len(self.tables),
            "kernel.gamma_symbol.calls": calls["kernel.gamma_symbol"],
            "kernel.gamma_symbol.components_built": built,
            "kernel.gamma_symbol.components_read": len(self.reads),
            "kernel.gamma_symbol.read_ratio": len(self.reads) / built if built else 0.0,
            "kernel.coset_integral.calls": calls["kernel.coset_integral"],
            "kernel.trace_average.calls": calls["kernel.trace_average"],
            "kernel.trace_average.cosets": self.counts["kernel.trace_average.cosets"],
            "ratfunc.rf.built": calls["ratfunc.rf"],
            "ratfunc.mul.calls": calls["ratfunc.mul"],
            "ratfunc.add.calls": calls["ratfunc.add"],
            "basicfn.checks.self_s": (self_s["basicfn.zeta_check"]
                                      + self_s["basicfn.fourier_check"]),
            "arch.zeta.calls": calls["arch.zeta"],
            "corpus.generate_s": setup_roots,
            "trace.wall_s": wall_s,
            "trace.unaccounted_s": wall_s - roots,
        }
        for metric in LAYER_METRICS:
            if metric.endswith(".self_s") and metric not in out:
                out[metric] = self_s[metric[:-len(".self_s")]]
        return out


def span_times(spans: list[list]) -> tuple[Counter, Counter]:
    """Self and inclusive seconds per span name."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s: Counter = Counter()
    incl_s: Counter = Counter()
    for (name, start, end, _), covered in zip(spans, child):
        self_s[name] += end - start - covered
        incl_s[name] += end - start
    return self_s, incl_s
