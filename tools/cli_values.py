"""Print the exit code and stdout of a fixed list of CLI calls.

    python3 tools/cli_values.py

The calls are every `gl1zeta` example of README.md, `gamma` on each entry
of the seed-42 corpus's gamma list, `hankel --route both` on each entry of
the seed-43 corpus's Hankel list, and the `gamma` calls of REPROS.  Each
call runs `gl1zeta.cli.main` in this process, in a new empty directory that
holds only the README's example inputs (INPUTS).  Per call the script prints
the command line, its exit code and its stdout, and the size and SHA-256 of
each file the call wrote.  Two trees give the same CLI output exactly when
the outputs of this script on both are identical, so a CLI bit-identity gate
is a `diff` of two runs, as with `check_values.py`.  Standard library only,
besides the package itself, imported from this checkout's src/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from gl1zeta import serialize  # noqa: E402
from gl1zeta.cli import main as cli_main  # noqa: E402
from gl1zeta.corpus import corpus_generate  # noqa: E402

CHI = {"p": 5, "cond": 1, "unit_char": [2], "t": [1, 0]}
# the files the README examples name
INPUTS = {
    "chi.json": CHI,
    "phi.json": {"model": "mult", "p": 5, "terms": [
        {"coeff": [1, 0], "rep": {"p": 5, "val": 0, "unit": 1, "prec": 4}, "k": 1},
        {"coeff": [0.5, -0.25], "rep": {"p": 5, "val": -1, "unit": 3, "prec": 4}, "k": 0}]},
    "pi.json": {"kind": "gl1", "chi": CHI},
    "g.json": [["1/27", "0"], ["0", "18"]],
}
# the rank-1 L-factor at |t| = 1e13 loses its constant term to pruning;
# 1e12 keeps it
REPROS = [["gamma", "--chi", '{"p":5,"cond":0,"unit_char":[],"t":[%s,0]}' % t]
          for t in ("1e13", "1e12", "1e-13")]


def _compact(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def readme_calls() -> list[list[str]]:
    """The argument lists of the `gl1zeta` lines of README.md, in order."""
    text = (ROOT / "README.md").read_text().replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in text.splitlines()
            if line.startswith("gl1zeta ")]


def corpus_calls() -> list[list[str]]:
    """`gamma` per seed-42 gamma entry, `hankel --route both` per seed-43
    Hankel entry."""
    calls = [["gamma", "--chi", _compact(serialize.char_to_json(chi))]
             for chi in corpus_generate(42)["gamma"]]
    for e in corpus_generate(43)["hankel"]:
        calls.append(["hankel", "--phi", _compact(serialize.mult_to_json(e["phi"])),
                      "--pi", _compact(serialize.pi_to_json([e["chi_pi"]])),
                      "--route", "both"])
    return calls


def call_lines(argv: list[str]):
    """The lines printed for one call: its command line, exit code, stdout
    and the files it wrote."""
    out = io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, obj in INPUTS.items():
            Path(tmp, name).write_text(json.dumps(obj))
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out):
                try:
                    code = cli_main(list(argv))
                except SystemExit as exc:   # argparse rejected the call
                    code = exc.code
        finally:
            os.chdir(cwd)
        yield "$ gl1zeta " + shlex.join(argv)
        yield "exit %s" % code
        yield from out.getvalue().splitlines()
        for path in sorted(Path(tmp).rglob("*")):
            rel = path.relative_to(tmp).as_posix()
            if path.is_file() and rel not in INPUTS:
                data = path.read_bytes()
                yield "file %s %d bytes sha256 %s" % (
                    rel, len(data), hashlib.sha256(data).hexdigest())


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    for call in readme_calls() + corpus_calls() + REPROS:
        for line in call_lines(call):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
