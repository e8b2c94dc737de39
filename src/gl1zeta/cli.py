"""Command-line front end.

Subcommands: gamma, zeta, fe-check, hankel, basic, lemma31, arch-fe, corpus.
Every referenced input is parsed and schema-validated before any computation
starts; outputs are deterministic (canonical JSON) for identical inputs and
settings.

Exit codes: 0 success, 1 verification failure (a checked identity exceeded
its tolerance, or an internal invariant broke: `run/shellguarderror`, or an
Archimedean zeta integral did not converge: `run/archquadratureerror`, or
both sides of an Archimedean sample were within the quadrature error of 0:
`run/archunresolvederror`), 2 input error.  Failures carry machine-readable
reason codes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from . import serialize
from .arch import ArchQuadratureError, ArchUnresolvedError, arch_fe_check
from .basicfn import BasicFunction, basic_fourier_check, basic_zeta_check
from .characters import MultChar, char_to_json
from .corpus import corpus_generate
from .defaults import ARCH_FE_TOL, COEFF_TOL
from .kernel import (Gl1Kernel, gamma_symbol, hankel_convolve, hankel_mellin,
                     lemma31_grid, trace_average_check)
from .ratfunc import rf_to_json
from .serialize import InputFormatError, dumps
from .stepfn import MultStepFunction, mellin_invert
from .zetagamma import (ShellGuardError, gamma_pv, gamma_report_json, verify_fe,
                        zeta)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2


@dataclass
class JobSpec:
    """A parsed, validated CLI job: inputs are loaded before running."""

    command: str
    inputs: dict = field(default_factory=dict)
    output: str | None = None
    emit: str = "json"
    tol: float = COEFF_TOL


def _read_json_arg(arg: str, schema: str | None = None):
    """Accept an inline JSON literal or a path to a JSON file."""
    text = arg
    if not arg.lstrip().startswith(("{", "[")):
        with open(arg) as fh:
            text = fh.read()
    obj = json.loads(text)
    if schema is not None:
        serialize.validate(obj, schema)
    return obj


def _emit(spec: JobSpec, payload: dict) -> None:
    text = dumps(payload)
    if spec.output in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(spec.output, "w") as fh:
            fh.write(text)


def _fail(code: str, message: str, status: int = EXIT_INPUT) -> int:
    sys.stdout.write(dumps({"error": {"code": code, "message": message}}))
    return status


# -- subcommand bodies -------------------------------------------------------

def _cmd_gamma(spec: JobSpec) -> int:
    chi: MultChar = spec.inputs["chi"]
    twist = spec.inputs.get("twist")
    report = gamma_pv(chi, twist)
    _emit(spec, gamma_report_json(report))
    return EXIT_OK if report.ok(spec.tol) else EXIT_VERIFY


def _cmd_zeta(spec: JobSpec) -> int:
    rf = zeta(spec.inputs["phi"], spec.inputs["chi"])
    _emit(spec, rf_to_json(rf))
    return EXIT_OK


def _cmd_fe_check(spec: JobSpec) -> int:
    if "phi" in spec.inputs:
        entries = [{"phi": spec.inputs["phi"], "chi": spec.inputs["chi"],
                    "pi": spec.inputs["pi"], "kind": "single", "p": spec.inputs["chi"].p}]
    else:
        corpus = corpus_generate(spec.inputs["seed"],
                                 {"fe": spec.inputs["size"]})
        entries = corpus["fe"]
    reports = [verify_fe(e["phi"], e["chi"], e["pi"]) for e in entries]
    rows = [{"index": i, "kind": e["kind"], "p": e["p"],
             "max_coeff_diff": r.max_coeff_diff, "ok": bool(r.ok(spec.tol))}
            for i, (e, r) in enumerate(zip(entries, reports))]
    n_fail = sum(1 for row in rows if not row["ok"])
    _emit(spec, {"entries": rows, "failures": n_fail, "tol": spec.tol})
    return EXIT_OK if n_fail == 0 else EXIT_VERIFY


def _cmd_hankel(spec: JobSpec) -> int:
    phi: MultStepFunction = spec.inputs["phi"]
    constituents = spec.inputs["pi"]
    m_lo, m_hi = spec.inputs["shells"]
    route = spec.inputs["route"]
    p = phi.p
    c_max = max(phi.max_level(),
                max((c.cond for c in constituents if isinstance(c, MultChar)),
                    default=0))
    payload: dict = {"p": p, "shells": [m_lo, m_hi], "route": route}
    table = None
    if route in ("convolve", "both"):
        if len(constituents) != 1 or not isinstance(constituents[0], MultChar):
            return _fail("hankel/rank", "convolution route needs a rank-1 pi")
        kern = Gl1Kernel(constituents[0])
        table = hankel_convolve(phi, kern, m_lo, m_hi, level=c_max)
        from .kernel import pointwise_threshold
        payload["truncation_threshold"] = max(
            pointwise_threshold(kern, m) for m in range(m_lo, m_hi + 1))
    if route in ("mellin", "both"):
        sym = gamma_symbol(constituents, c_max, p=p)
        out = hankel_mellin(phi, sym)
        payload["mellin"] = {
            str(i): rf_to_json(rf)
            for i, (_, rf) in enumerate(sorted(
                out.nonzero_components(),
                key=lambda wr: (wr[0].cond, wr[0].unit_char)))}
        if route == "both":
            inv = mellin_invert(out, m_lo, m_hi, c_max)
            payload["max_pointwise_diff"] = max(
                (abs(v - inv.eval(rep)) for _, rep, v in table.rows),
                default=0.0)
    if table is not None:
        payload["values"] = [[m, str(rep.lift()), v.real, v.imag]
                             for m, rep, v in table.rows]
    if spec.emit == "csv":
        if table is None:
            return _fail("hankel/emit", "csv emission needs the convolve route")
        serialize.write_shell_csv(spec.output or "hankel.csv", table.rows,
                                  table.level)
        return EXIT_OK
    _emit(spec, payload)
    if route == "both" and payload.get("max_pointwise_diff", 0.0) > spec.tol:
        return EXIT_VERIFY
    return EXIT_OK


def _cmd_basic(spec: JobSpec) -> int:
    alpha = spec.inputs["alpha"]
    window = spec.inputs["window"]
    p = spec.inputs["p"]
    fn = BasicFunction(p, tuple(alpha))
    z_rep = basic_zeta_check(alpha, p=p, window=window)
    f_rep = basic_fourier_check(alpha, p)
    if spec.emit == "csv":
        from .padic import PAdicElt
        rows = [(m, PAdicElt(p, m, 1, 1), v) for m, v in fn.table(window)]
        serialize.write_shell_csv(spec.output or "basic.csv", rows, 0)
        return EXIT_OK
    _emit(spec, {
        "p": p,
        "alpha": [[a.real, a.imag] for a in fn.alpha],
        "shell_values": [[m, v.real, v.imag] for m, v in fn.table(window)],
        "zeta_check": {"max_coeff_diff": z_rep.max_coeff_diff,
                       "route": z_rep.meta["route"]},
        "fourier_check": {"max_coeff_diff": f_rep.max_coeff_diff},
    })
    ok = z_rep.ok(spec.tol) and f_rep.ok(spec.tol)
    return EXIT_OK if ok else EXIT_VERIFY


def _cmd_lemma31(spec: JobSpec) -> int:
    p = spec.inputs["p"]
    l0 = spec.inputs["l0"]
    L = spec.inputs["L"]
    if spec.inputs.get("grid"):
        mats = lemma31_grid(p, l0)
    else:
        mats = [[[Fraction(x) for x in row] for row in spec.inputs["g"]]]
    rows = []
    worst = 0.0
    for i, g in enumerate(mats):
        avg = trace_average_check(p, g, l0, L)
        worst = max(worst, abs(avg))
        rows.append({"index": i,
                     "g": [[str(Fraction(x)) for x in row] for row in g],
                     "average": [avg.real, avg.imag],
                     "abs": abs(avg)})
    _emit(spec, {"p": p, "l0": l0, "L": L, "entries": rows, "max_abs": worst})
    return EXIT_OK if worst <= spec.tol else EXIT_VERIFY


def _cmd_arch_fe(spec: JobSpec) -> int:
    chi = spec.inputs["chi"]
    seed = spec.inputs["seed"]
    samples = spec.inputs["samples"]
    rep = arch_fe_check(seed, chi, samples)
    _emit(spec, {
        "place": chi.place,
        "rows": [{"s": [r.s.real, r.s.imag], "lhs": [r.lhs.real, r.lhs.imag],
                  "rhs": [r.rhs.real, r.rhs.imag], "abs_err": r.abs_err}
                 for r in rep.rows],
        "max_err": rep.max_err(),
    })
    return EXIT_OK if rep.ok(spec.tol) else EXIT_VERIFY


def _cmd_corpus(spec: JobSpec) -> int:
    seed = spec.inputs["seed"]
    sizes = spec.inputs["sizes"]
    out_dir = spec.inputs["dir"]
    corpus = corpus_generate(seed, sizes)
    os.makedirs(out_dir, exist_ok=True)
    fe_json = []
    for e in corpus["fe"]:
        phi = (serialize.step_to_json(e["phi"]) if e["kind"] == "step"
               else serialize.mult_to_json(e["phi"]))
        fe_json.append({"kind": e["kind"], "p": e["p"], "phi": phi,
                        "chi": char_to_json(e["chi"]),
                        "pi": serialize.pi_to_json(e["pi"])})
    files = {
        "fe.json": fe_json,
        "hankel.json": [{"p": e["p"], "phi": serialize.mult_to_json(e["phi"]),
                         "pi": serialize.pi_to_json([e["chi_pi"]])}
                        for e in corpus["hankel"]],
        "satake.json": [[[a.real, a.imag] for a in alpha]
                        for alpha in corpus["satake"]],
        "gamma.json": [char_to_json(c) for c in corpus["gamma"]],
    }
    for name, obj in files.items():
        with open(os.path.join(out_dir, name), "w") as fh:
            fh.write(dumps(obj))
    _emit(spec, {"seed": seed, "dir": out_dir, "files": sorted(files)})
    return EXIT_OK


# -- argument parsing --------------------------------------------------------

def _parse_shells(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    return int(lo), int(hi)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gl1zeta",
        description="Exact p-adic zeta/gamma/Hankel identities on GL(1), "
                    "with a numeric Archimedean companion.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p_, tol=True, emit=False):
        """--out everywhere; --tol and --emit only where the command reads them."""
        p_.add_argument("--out", default=None, help="output path ('-' = stdout)")
        if tol:
            p_.add_argument("--tol", type=float, default=None)
        if emit:
            p_.add_argument("--emit", choices=["json", "csv"], default="json")

    g = sub.add_parser("gamma", help="two-route gamma report for a character")
    g.add_argument("--p", type=int, required=False)
    g.add_argument("--chi", required=True, help="character JSON (inline or path)")
    g.add_argument("--twist", default=None)
    common(g)

    z = sub.add_parser("zeta", help="exact zeta integral of a step function")
    z.add_argument("--phi", required=True)
    z.add_argument("--chi", required=True)
    common(z, tol=False)

    fe = sub.add_parser("fe-check", help="functional-equation verification")
    fe.add_argument("--corpus", default=None, help="'default' for the seeded corpus")
    fe.add_argument("--seed", type=int, default=42)
    fe.add_argument("--size", type=int, default=50)
    fe.add_argument("--phi", default=None)
    fe.add_argument("--chi", default=None)
    fe.add_argument("--pi", default=None)
    common(fe)

    h = sub.add_parser("hankel", help="Hankel transform, one or both routes")
    h.add_argument("--phi", required=True)
    h.add_argument("--pi", required=True)
    h.add_argument("--shells", type=_parse_shells, default=(-5, 5),
                   help="window lo:hi")
    h.add_argument("--route", choices=["mellin", "convolve", "both"],
                   default="both")
    common(h, emit=True)

    b = sub.add_parser("basic", help="basic-function table and identities")
    b.add_argument("--alpha", required=True, help="JSON [[re,im],...] (inline or path)")
    b.add_argument("--p", type=int, required=True)
    b.add_argument("--window", type=int, default=12)
    common(b, emit=True)

    l31 = sub.add_parser("lemma31", help="finite trace-average verifier")
    l31.add_argument("--p", type=int, required=True)
    l31.add_argument("--g", default=None, help="2x2 matrix JSON (inline or path)")
    l31.add_argument("--grid", default=None, help="'default' for the built-in grid")
    l31.add_argument("--l0", type=int, default=1)
    l31.add_argument("--L", type=int, default=4)
    common(l31)

    af = sub.add_parser("arch-fe", help="Archimedean functional-equation check")
    af.add_argument("--place", choices=["real", "complex"], default="real")
    af.add_argument("--chi", required=True)
    af.add_argument("--samples", required=True,
                    help="JSON [[re,im],...] of s samples (inline or path)")
    af.add_argument("--seed-spec", default=None,
                    help="seed JSON; default Gaussian at the place")
    common(af)

    c = sub.add_parser("corpus", help="generate reproducible corpora")
    c.add_argument("--seed", type=int, default=42)
    c.add_argument("--dir", required=True)
    c.add_argument("--size-fe", type=int, default=50)
    c.add_argument("--size-hankel", type=int, default=20)
    c.add_argument("--size-satake", type=int, default=20)
    common(c, tol=False)
    return ap


def _load_job(args) -> JobSpec:
    """Parse and validate every referenced input before computation."""
    cmd = args.command
    tol = getattr(args, "tol", None)
    spec = JobSpec(cmd, output=getattr(args, "out", None),
                   emit=getattr(args, "emit", "json"))
    if tol is not None:
        spec.tol = tol
    if cmd == "arch-fe" and tol is None:
        spec.tol = ARCH_FE_TOL
    if cmd == "gamma":
        spec.inputs["chi"] = serialize.multchar_from_json(
            _read_json_arg(args.chi, "character"))
        if args.twist:
            spec.inputs["twist"] = serialize.multchar_from_json(
                _read_json_arg(args.twist, "character"))
        if args.p and args.p != spec.inputs["chi"].p:
            raise InputFormatError("gamma/p-mismatch",
                                   "--p disagrees with the character's prime")
    elif cmd == "zeta":
        spec.inputs["phi"] = serialize.function_from_json(_read_json_arg(args.phi))
        spec.inputs["chi"] = serialize.multchar_from_json(
            _read_json_arg(args.chi, "character"))
    elif cmd == "fe-check":
        if args.phi:
            spec.inputs["phi"] = serialize.function_from_json(_read_json_arg(args.phi))
            spec.inputs["chi"] = serialize.multchar_from_json(
                _read_json_arg(args.chi, "character"))
            spec.inputs["pi"] = serialize.pi_from_json(
                _read_json_arg(args.pi, "pi_params"))
        elif args.corpus:
            spec.inputs["seed"] = args.seed
            spec.inputs["size"] = args.size
        else:
            raise InputFormatError("fe/inputs", "pass --corpus or --phi/--chi/--pi")
    elif cmd == "hankel":
        spec.inputs["phi"] = serialize.mult_from_json(_read_json_arg(args.phi))
        spec.inputs["pi"] = serialize.pi_from_json(
            _read_json_arg(args.pi, "pi_params"))
        spec.inputs["shells"] = args.shells
        spec.inputs["route"] = args.route
    elif cmd == "basic":
        alpha = _read_json_arg(args.alpha)
        spec.inputs["alpha"] = [complex(a[0], a[1]) for a in alpha]
        spec.inputs["window"] = args.window
        spec.inputs["p"] = args.p
    elif cmd == "lemma31":
        spec.inputs["p"] = args.p
        spec.inputs["l0"] = args.l0
        spec.inputs["L"] = args.L
        if args.grid:
            spec.inputs["grid"] = True
        elif args.g:
            mat = _read_json_arg(args.g, "matrix2")
            spec.inputs["g"] = mat
        else:
            raise InputFormatError("lemma31/inputs", "pass --g or --grid default")
    elif cmd == "arch-fe":
        chi_obj = _read_json_arg(args.chi, "arch_char")
        chi_obj.setdefault("place", args.place)
        spec.inputs["chi"] = serialize.arch_char_from_json(chi_obj)
        samples = _read_json_arg(args.samples)
        spec.inputs["samples"] = [complex(s[0], s[1]) for s in samples]
        if args.seed_spec:
            spec.inputs["seed"] = serialize.arch_seed_from_json(
                _read_json_arg(args.seed_spec))
        else:
            from .arch import ArchSeed
            spec.inputs["seed"] = ArchSeed(spec.inputs["chi"].place)
    elif cmd == "corpus":
        spec.inputs["seed"] = args.seed
        spec.inputs["dir"] = args.dir
        spec.inputs["sizes"] = {"fe": args.size_fe, "hankel": args.size_hankel,
                                "satake": args.size_satake}
    return spec


_RUNNERS = {
    "gamma": _cmd_gamma,
    "zeta": _cmd_zeta,
    "fe-check": _cmd_fe_check,
    "hankel": _cmd_hankel,
    "basic": _cmd_basic,
    "lemma31": _cmd_lemma31,
    "arch-fe": _cmd_arch_fe,
    "corpus": _cmd_corpus,
}


def run(spec: JobSpec) -> int:
    return _RUNNERS[spec.command](spec)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    for i, a in enumerate(argv[:-1]):
        # let '--shells -5:5' through argparse's leading-dash detection
        if a == "--shells":
            argv[i:i + 2] = ["--shells=" + argv[i + 1]]
            break
    args = build_parser().parse_args(argv)
    try:
        spec = _load_job(args)
    except InputFormatError as exc:
        return _fail(exc.code, str(exc))
    except (OSError, json.JSONDecodeError, ValueError, KeyError) as exc:
        return _fail("input/%s" % type(exc).__name__.lower(), str(exc))
    try:
        return run(spec)
    except (ValueError, ArithmeticError, KeyError) as exc:
        # a guard shell that failed to vanish, or a quadrature that did not
        # converge or resolve its values, is a verification failure, not bad
        # input
        status = (EXIT_VERIFY
                  if isinstance(exc, (ShellGuardError, ArchQuadratureError,
                                      ArchUnresolvedError))
                  else EXIT_INPUT)
        return _fail("run/%s" % type(exc).__name__.lower(), str(exc), status)


if __name__ == "__main__":
    sys.exit(main())
