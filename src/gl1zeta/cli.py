"""Command-line front end.

Subcommands: gamma, zeta, fe-check, hankel, basic, lemma31, arch-fe, corpus.
Each is one function that parses and schema-validates every input it
references, then returns a closure that computes; outputs are deterministic
(canonical JSON) for identical inputs and settings.

`main` alone picks the exit code, by exception type.  0: success.  1: a
checked identity exceeded its tolerance (`--emit csv` keeps this verdict), or
the computation raised a `ratfunc.VerificationError`: `ShellGuardError`,
`ArchQuadratureError` or `ArchUnresolvedError`.  2: an input failed to parse
or validate (`input/...` or the `InputFormatError` code), the computation
rejected it with any other `ValueError`, `ArithmeticError` or `KeyError`
(`run/<exception type>`), or an output file could not be written
(`output/<exception type>`).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import serialize
from .arch import ArchSeed, arch_fe_check
from .basicfn import BasicFunction, basic_fourier_check, basic_zeta_check
from .characters import trivial_char
from .corpus import corpus_generate
from .defaults import ARCH_FE_TOL, COEFF_TOL
from .kernel import (Gl1Kernel, gamma_symbol, hankel_convolve, hankel_mellin,
                     lemma31_grid, trace_average_check)
from .padic import PAdicElt
from .ratfunc import VerificationError
from .serialize import InputFormatError, dumps
from .stepfn import mellin_invert
from .zetagamma import gamma_pv, normalize_pi, verify_fe, zeta


def _read_json_arg(arg: str):
    """Accept an inline JSON literal or a path to a JSON file."""
    text = arg
    if not arg.lstrip().startswith(("{", "[")):
        with open(arg) as fh:
            text = fh.read()
    return json.loads(text)


def _fail(code: str, message: str, status: int = 2) -> int:
    sys.stdout.write(dumps({"error": {"code": code, "message": message}}))
    return status


# -- subcommands: parse, then return compute() -> (payload | None if CSV, ok)

def _gamma(args):
    chi = serialize.multchar_from_json(_read_json_arg(args.chi))
    twist = (serialize.multchar_from_json(_read_json_arg(args.twist))
             if args.twist else None)
    if args.p is not None and args.p != chi.p:
        raise InputFormatError("gamma/p-mismatch",
                               "--p disagrees with the character's prime")

    def compute():
        report = gamma_pv(chi, twist)
        return serialize.gamma_report_json(report), report.ok(args.tol)
    return compute


def _zeta(args):
    phi = serialize.function_from_json(_read_json_arg(args.phi))
    chi = serialize.multchar_from_json(_read_json_arg(args.chi))
    return lambda: (serialize.rf_to_json(zeta(phi, chi)), True)


def _fe_check(args):
    if args.corpus is None and args.phi and args.chi and args.pi:
        phi = serialize.function_from_json(_read_json_arg(args.phi))
        chi = serialize.multchar_from_json(_read_json_arg(args.chi))
        pi = serialize.pi_from_json(_read_json_arg(args.pi))
        single = [{"phi": phi, "chi": chi, "pi": pi, "kind": "single", "p": chi.p}]
    elif args.corpus and not (args.phi or args.chi or args.pi):
        single = None
        if args.size < 1:
            raise InputFormatError("fe/size", "--size %d checks nothing; pass "
                                   "at least 1" % args.size)
    else:
        raise InputFormatError("fe/inputs",
                               "pass one of --corpus and --phi/--chi/--pi")

    def compute():
        entries = single or corpus_generate(args.seed, {"fe": args.size})["fe"]
        reports = [verify_fe(e["phi"], e["chi"], e["pi"]) for e in entries]
        rows = [{"index": i, "kind": e["kind"], "p": e["p"],
                 "max_coeff_diff": r.max_coeff_diff, "ok": bool(r.ok(args.tol))}
                for i, (e, r) in enumerate(zip(entries, reports))]
        n_fail = sum(1 for row in rows if not row["ok"])
        return {"entries": rows, "failures": n_fail, "tol": args.tol}, n_fail == 0
    return compute


def _hankel(args):
    phi = serialize.mult_from_json(_read_json_arg(args.phi))
    constituents = serialize.pi_from_json(_read_json_arg(args.pi))
    convolve = args.route in ("convolve", "both")
    if convolve and len(constituents) != 1:
        raise InputFormatError("hankel/rank", "convolution route needs a rank-1 pi")
    if args.emit == "csv" and not convolve:
        raise InputFormatError("hankel/emit", "csv emission needs the convolve route")
    m_lo, m_hi = args.shells
    if m_lo > m_hi:
        raise InputFormatError("hankel/shells", "empty window [%d, %d]" % args.shells)

    def compute():
        chis = normalize_pi(constituents, phi.p)
        c_max = max([phi.max_level()] + [c.cond for c in chis])
        payload: dict = {"p": phi.p, "shells": [m_lo, m_hi], "route": args.route}
        ok = True
        if convolve:
            kern = Gl1Kernel(chis[0])
            table = hankel_convolve(phi, kern, m_lo, m_hi, level=c_max)
            # the kernel never vanishes, so truncation at ell leaves it
            # whole on S_m exactly when ell >= -m
            payload["truncation_threshold"] = max(1, -m_lo)
            payload["values"] = [[m, str(rep.lift()), *serialize.complex_to_json(v)]
                                 for m, rep, v in table.rows]
        if args.route != "convolve":
            sym = gamma_symbol(chis, c_max, p=phi.p)
            out = hankel_mellin(phi, sym)
            payload["mellin"] = {
                str(i): serialize.rf_to_json(rf)
                for i, (_, rf) in enumerate(sorted(
                    out.nonzero_components(),
                    key=lambda wr: (wr[0].cond, wr[0].unit_char)))}
        if args.route == "both":
            inv = mellin_invert(out, m_lo, m_hi, c_max)
            diff = max((abs(v - inv.eval(rep)) for _, rep, v in table.rows),
                       default=0.0)
            payload["max_pointwise_diff"] = diff
            ok = diff <= args.tol
        if args.emit == "csv":
            serialize.write_shell_csv(args.out or "hankel.csv", table.rows)
            return None, ok
        return payload, ok
    return compute


def _basic(args):
    alpha = serialize.complex_list_from_json(_read_json_arg(args.alpha))
    p, window = args.p, args.window

    def compute():
        fn = BasicFunction(p, tuple(alpha))
        z_rep = basic_zeta_check(alpha, trivial_char(p), window=window)
        f_rep = basic_fourier_check(alpha, p)
        ok = z_rep.ok(args.tol) and f_rep.ok(args.tol)
        if args.emit == "csv":
            rows = [(m, PAdicElt(p, m, 1, 1), v) for m, v in fn.table(window)]
            serialize.write_shell_csv(args.out or "basic.csv", rows)
            return None, ok
        return {
            "p": p,
            "alpha": [serialize.complex_to_json(a) for a in fn.alpha],
            "shell_values": [[m, *serialize.complex_to_json(v)]
                             for m, v in fn.table(window)],
            "zeta_check": {"max_coeff_diff": z_rep.max_coeff_diff},
            "fourier_check": {"max_coeff_diff": f_rep.max_coeff_diff},
        }, ok
    return compute


def _lemma31(args):
    if bool(args.grid) == bool(args.g):
        raise InputFormatError("lemma31/inputs",
                               "pass one of --g and --grid default")
    g = None if args.grid else serialize.matrix2_from_json(_read_json_arg(args.g))

    def compute():
        mats = (lemma31_grid(args.p, args.l0) if g is None
                else [[[Fraction(x) for x in row] for row in g]])
        avgs = [trace_average_check(args.p, mat, args.l0, args.L) for mat in mats]
        rows = [{"index": i, "g": [[str(Fraction(x)) for x in row] for row in mat],
                 "average": serialize.complex_to_json(avg), "abs": abs(avg)}
                for i, (mat, avg) in enumerate(zip(mats, avgs))]
        worst = max([0.0] + [abs(avg) for avg in avgs])
        return {"p": args.p, "l0": args.l0, "L": args.L, "entries": rows,
                "max_abs": worst}, worst <= args.tol
    return compute


def _arch_fe(args):
    chi_obj = _read_json_arg(args.chi)
    if isinstance(chi_obj, dict):  # anything else fails the schema below
        # one input source per call: --place fills in a missing place and
        # must agree with a given one
        place = chi_obj.setdefault("place", args.place or "real")
        if args.place and place != args.place:
            raise InputFormatError("arch/inputs", "--place %s contradicts the "
                                   "character's place %r" % (args.place, place))
    chi = serialize.arch_char_from_json(chi_obj)
    samples = serialize.complex_list_from_json(_read_json_arg(args.samples))
    # without --seed-spec, a seed of the character's parity: against the even
    # Gaussian alone both sides vanish identically for eps = 1 on R, n != 0 on C
    if args.seed_spec:
        seed = serialize.arch_seed_from_json(_read_json_arg(args.seed_spec))
    elif chi.place == "real":
        seed = ArchSeed("real", (0,) * chi.eps + (1,))  # x^eps exp(-pi x^2)
    else:
        seed = ArchSeed("complex", hol=max(-chi.eps, 0), antihol=max(chi.eps, 0))

    def compute():
        rep = arch_fe_check(seed, chi, samples)
        return {
            "place": chi.place,
            "rows": [{"s": serialize.complex_to_json(r.s),
                      "lhs": serialize.complex_to_json(r.lhs),
                      "rhs": serialize.complex_to_json(r.rhs), "abs_err": r.abs_err}
                     for r in rep.rows],
            "max_err": rep.max_err(),
        }, rep.ok(args.tol)
    return compute


def _corpus(args):
    for flag, size in (("--size-fe", args.size_fe),
                       ("--size-hankel", args.size_hankel),
                       ("--size-satake", args.size_satake)):
        if size < 0:
            raise InputFormatError("corpus/size",
                                   "%s must be >= 0, got %d" % (flag, size))

    def compute():
        corpus = corpus_generate(args.seed, {"fe": args.size_fe,
                                             "hankel": args.size_hankel,
                                             "satake": args.size_satake})
        os.makedirs(args.dir, exist_ok=True)
        fe_json = []
        for e in corpus["fe"]:
            phi = (serialize.step_to_json(e["phi"]) if e["kind"] == "step"
                   else serialize.mult_to_json(e["phi"]))
            fe_json.append({"kind": e["kind"], "p": e["p"], "phi": phi,
                            "chi": serialize.char_to_json(e["chi"]),
                            "pi": serialize.pi_to_json(e["pi"])})
        files = {
            "fe.json": fe_json,
            "hankel.json": [{"p": e["p"], "phi": serialize.mult_to_json(e["phi"]),
                             "pi": serialize.pi_to_json([e["chi_pi"]])}
                            for e in corpus["hankel"]],
            "satake.json": [[serialize.complex_to_json(a) for a in alpha]
                            for alpha in corpus["satake"]],
            "gamma.json": [serialize.char_to_json(c) for c in corpus["gamma"]],
        }
        for name, obj in files.items():
            with open(os.path.join(args.dir, name), "w") as fh:
                fh.write(dumps(obj))
        return {"seed": args.seed, "dir": args.dir, "files": sorted(files)}, True
    return compute


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

    def common(p_, job, tol=COEFF_TOL, emit=False):
        """--out everywhere; --tol and --emit only where the command reads them."""
        p_.set_defaults(job=job)
        p_.add_argument("--out", default=None, help="output path ('-' = stdout)")
        if tol is not None:
            p_.add_argument("--tol", type=float, default=tol)
        if emit:
            p_.add_argument("--emit", choices=["json", "csv"], default="json")

    g = sub.add_parser("gamma", help="two-route gamma report for a character")
    g.add_argument("--p", type=int, required=False)
    g.add_argument("--chi", required=True, help="character JSON (inline or path)")
    g.add_argument("--twist", default=None)
    common(g, _gamma)

    z = sub.add_parser("zeta", help="exact zeta integral of a step function")
    z.add_argument("--phi", required=True)
    z.add_argument("--chi", required=True)
    common(z, _zeta, tol=None)

    fe = sub.add_parser("fe-check", help="functional-equation verification")
    fe.add_argument("--corpus", choices=["default"], help="the seeded corpus")
    fe.add_argument("--seed", type=int, default=42)
    fe.add_argument("--size", type=int, default=50)
    fe.add_argument("--phi", default=None)
    fe.add_argument("--chi", default=None)
    fe.add_argument("--pi", default=None)
    common(fe, _fe_check)

    h = sub.add_parser("hankel", help="Hankel transform, one or both routes")
    h.add_argument("--phi", required=True)
    h.add_argument("--pi", required=True)
    h.add_argument("--shells", type=_parse_shells, default=(-5, 5),
                   help="window lo:hi")
    h.add_argument("--route", choices=["mellin", "convolve", "both"],
                   default="both")
    common(h, _hankel, emit=True)

    b = sub.add_parser("basic", help="basic-function table and identities")
    b.add_argument("--alpha", required=True, help="JSON [[re,im],...] (inline or path)")
    b.add_argument("--p", type=int, required=True)
    b.add_argument("--window", type=int, default=12)
    common(b, _basic, emit=True)

    l31 = sub.add_parser("lemma31", help="finite trace-average verifier")
    l31.add_argument("--p", type=int, required=True)
    l31.add_argument("--g", default=None, help="2x2 matrix JSON (inline or path)")
    l31.add_argument("--grid", choices=["default"], help="the built-in grid")
    l31.add_argument("--l0", type=int, default=1)
    l31.add_argument("--L", type=int, default=4)
    common(l31, _lemma31)

    af = sub.add_parser("arch-fe", help="Archimedean functional-equation check")
    af.add_argument("--place", choices=["real", "complex"], default=None,
                    help="the character's place when its JSON names none "
                         "(default real); it must agree with one it names")
    af.add_argument("--chi", required=True)
    af.add_argument("--samples", required=True,
                    help="JSON [[re,im],...] of s samples (inline or path)")
    af.add_argument("--seed-spec", default=None,
                    help="seed JSON; default x^eps exp(-pi x^2) on R, and on C "
                         "conj(z)^n (n > 0) or z^-n (n < 0) times "
                         "exp(-2 pi |z|^2)")
    common(af, _arch_fe, tol=ARCH_FE_TOL)

    c = sub.add_parser("corpus", help="generate reproducible corpora")
    c.add_argument("--seed", type=int, default=42)
    c.add_argument("--dir", required=True)
    c.add_argument("--size-fe", type=int, default=50)
    c.add_argument("--size-hankel", type=int, default=20)
    c.add_argument("--size-satake", type=int, default=20)
    common(c, _corpus, tol=None)
    return ap


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    for i, a in enumerate(argv[:-1]):
        # let '--shells -5:5' through argparse's leading-dash detection
        if a == "--shells":
            argv[i:i + 2] = ["--shells=" + argv[i + 1]]
            break
    args = build_parser().parse_args(argv)
    try:
        compute = args.job(args)
    except InputFormatError as exc:
        return _fail(exc.code, str(exc))
    except (OSError, json.JSONDecodeError, ValueError, KeyError) as exc:
        return _fail("input/%s" % type(exc).__name__.lower(), str(exc))
    try:
        payload, ok = compute()
        if payload is not None:
            text = dumps(payload)
            if args.out in (None, "-"):
                sys.stdout.write(text)
            else:
                with open(args.out, "w") as fh:
                    fh.write(text)
    except OSError as exc:
        return _fail("output/%s" % type(exc).__name__.lower(), str(exc))
    except (ValueError, ArithmeticError, KeyError) as exc:
        status = 1 if isinstance(exc, VerificationError) else 2
        return _fail("run/%s" % type(exc).__name__.lower(), str(exc), status)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
