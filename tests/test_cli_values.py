"""tools/cli_values.py prints the exit code and stdout of a fixed list of CLI
calls; here on a short list of them, in this process."""

import importlib.util
import json
import os
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "cli_values", ROOT / "tools" / "cli_values.py")
cli_values = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_values)


def test_readme_calls_are_every_readme_example():
    calls = cli_values.readme_calls()
    text = (ROOT / "README.md").read_text()
    assert len(calls) == text.count("\ngl1zeta ") >= 12
    assert ["gamma", "--p", "5", "--chi", "chi.json"] in calls
    # the continued line is one call
    assert calls[-2][-2:] == ["--seed-spec",
                              '{"place":"real","poly":[[0,0],[1,0],[0,0],[1,0]]}']


def test_call_lines_print_exit_code_stdout_and_written_files():
    cwd = os.getcwd()
    lines = list(cli_values.call_lines(["gamma", "--p", "5", "--chi", "chi.json"]))
    assert lines[:2] == ["$ gl1zeta gamma --p 5 --chi chi.json", "exit 0"]
    assert len(lines) == 3 and json.loads(lines[2])["max_coeff_diff"] <= 1e-10
    argv = ["basic", "--alpha", "[[0.6,0.8]]", "--p", "3", "--window", "2",
            "--emit", "csv", "--out", "basic.csv"]
    lines = list(cli_values.call_lines(argv))
    assert lines[1] == "exit 0" and len(lines) == 3
    word, name, size, unit, algo, digest = lines[2].split()
    assert (word, name, unit, algo) == ("file", "basic.csv", "bytes", "sha256")
    assert int(size) > 0 and len(digest) == 64
    assert lines == list(cli_values.call_lines(argv))   # deterministic
    assert os.getcwd() == cwd


def test_call_lines_keep_failures():
    (repro,) = [c for c in cli_values.REPROS if "1e13" in c[-1]]
    lines = list(cli_values.call_lines(repro))
    assert lines[1] == "exit 2"
    assert json.loads(lines[2])["error"]["code"] == "run/valueerror"
    # an argument argparse rejects: exit 2, nothing on stdout
    assert list(cli_values.call_lines(["gamma"]))[1:] == ["exit 2"]
