import json
import os
import subprocess
import sys

import pytest

import gl1zeta
from gl1zeta import serialize
from gl1zeta.cli import main
from gl1zeta.serialize import dumps


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


CHI_QUAD5 = '{"p":5,"cond":1,"unit_char":[2],"t":[1,0]}'
CHI_TRIV5 = '{"p":5,"cond":0,"unit_char":[],"t":[1,0]}'
PHI_UNIT5 = ('{"model":"mult","p":5,"terms":[{"coeff":[1,0],'
             '"rep":{"p":5,"val":0,"unit":1,"prec":4},"k":0}]}')
PHI_NULL_REP5 = ('{"model":"mult","p":5,"terms":[{"coeff":[1,0],'
                 '"rep":null,"k":0}]}')
PI_TRIV5 = '{"kind":"gl1","chi":%s}' % CHI_TRIV5
CHI_QUAD3 = '{"p":3,"cond":1,"unit_char":[1],"t":[1,0]}'
PI_QUAD3 = '{"kind":"gl1","chi":%s}' % CHI_QUAD3
PI_SATAKE = '{"kind":"satake","alpha":[[0.6,0.8],[0.6,-0.8]]}'
ALPHA = "[[0.6,0.8],[0.6,-0.8]]"


def test_gamma_report(capsys):
    code, out = run_cli(capsys, "gamma", "--chi", CHI_QUAD5)
    assert code == 0
    obj = json.loads(out)
    serialize.validate(obj, "gamma_report")
    assert set(obj) == {"gamma_closed", "gamma_pv", "max_coeff_diff", "shells"}
    assert obj["max_coeff_diff"] <= 1e-10


def test_gamma_large_t_passes(capsys):
    # guard-shell roundoff once made this exit 1 with max_coeff_diff 2.1e-7
    code, out = run_cli(capsys, "gamma", "--chi",
                        '{"p":7,"cond":2,"unit_char":[1],"t":[100,0]}')
    assert code == 0
    assert json.loads(out)["max_coeff_diff"] <= 1e-10


@pytest.mark.parametrize("chi", [
    '{"p":7,"cond":2,"unit_char":[1],"t":[1000,0]}',
    '{"p":7,"cond":2,"unit_char":[1],"t":[10000,0]}',
    '{"p":7,"cond":2,"unit_char":[1],"t":[0.001,0]}',
    '{"p":11,"cond":3,"unit_char":[7],"t":[1000,0]}'])
def test_gamma_extreme_t_guard_shells_pass(capsys, chi):
    # at t = 1000 guard shell -4 sums to 8.8e-7, about 1e-18 of its summand
    # mass |t|^4 (1 - 1/7): roundoff, inside the shell's own bound
    code, out = run_cli(capsys, "gamma", "--chi", chi)
    assert code == 0
    assert json.loads(out)["max_coeff_diff"] <= 1e-10


def test_gamma_guard_shell_failure_exit_one(capsys, monkeypatch):
    # a guard shell 1e-10 off zero at t = 1 is far beyond its roundoff bound
    # (about 2e-13): a broken internal invariant, reported as a verification
    # failure, not as bad input
    from gl1zeta import zetagamma
    shell = zetagamma.shell_psi_chi_integral

    def perturbed(p, m, *args, **kwargs):
        return shell(p, m, *args, **kwargs) + (1e-10 if m == -4 else 0.0)

    monkeypatch.setattr(zetagamma, "shell_psi_chi_integral", perturbed)
    code, out = run_cli(capsys, "gamma", "--chi",
                        '{"p":7,"cond":2,"unit_char":[1],"t":[1,0]}')
    assert code == 1
    assert json.loads(out)["error"]["code"] == "run/shellguarderror"


def test_basic_spot_check_failure_exit_one(capsys, monkeypatch):
    # one shell value 1e-6 off no longer matches the partial-fraction series
    # built from the same Satake list: a broken internal invariant, reported
    # as a verification failure, not as bad input
    from gl1zeta.basicfn import BasicFunction, basic_zeta_check
    from gl1zeta.characters import trivial_char
    from gl1zeta.ratfunc import VerificationError
    shell_values = BasicFunction.shell_values

    def perturbed(self, window):
        values = shell_values(self, window)
        values[2] += 1e-6
        return values

    monkeypatch.setattr(BasicFunction, "shell_values", perturbed)
    with pytest.raises(VerificationError, match="shell value mismatch at m=2"):
        basic_zeta_check([0.6 + 0.8j, 0.6 - 0.8j], trivial_char(3))
    code, out = run_cli(capsys, "basic", "--alpha", ALPHA, "--p", "3")
    assert code == 1
    assert json.loads(out)["error"]["code"] == "run/verificationerror"


def test_gamma_byte_identical(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["gamma", "--chi", CHI_QUAD5, "--out", str(p1)]) == 0
    assert main(["gamma", "--chi", CHI_QUAD5, "--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_zeta_command(capsys):
    code, out = run_cli(capsys, "zeta", "--phi", PHI_UNIT5, "--chi", CHI_TRIV5)
    assert code == 0
    obj = json.loads(out)
    assert obj["q"] == 5
    assert abs(obj["num"][0][1] - 0.8) < 1e-12


def test_fe_check_corpus(capsys):
    code, out = run_cli(capsys, "fe-check", "--corpus", "default",
                        "--size", "8", "--seed", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["failures"] == 0 and len(obj["entries"]) == 8


def test_fe_check_exit_one_on_absurd_tolerance(capsys):
    code, out = run_cli(capsys, "fe-check", "--corpus", "default",
                        "--size", "4", "--seed", "3", "--tol", "1e-30")
    obj = json.loads(out)
    assert code == 1 and obj["failures"] >= 1


def test_hankel_both_routes(capsys):
    code, out = run_cli(capsys, "hankel", "--phi", PHI_UNIT5,
                        "--pi", PI_TRIV5, "--shells", "-3:3", "--route", "both")
    assert code == 0
    obj = json.loads(out)
    assert obj["max_pointwise_diff"] <= 1e-10
    assert obj["truncation_threshold"] == 3
    assert "values" in obj and "mellin" in obj


def test_hankel_deep_window_truncation_threshold(capsys):
    # the kernel is whole on S_-14 only from ell = 14; a measured threshold
    # capped at ell = 12 once printed 12 here
    phi = ('{"model":"mult","p":3,"terms":[{"coeff":[1,0],'
           '"rep":{"p":3,"val":0,"unit":1},"k":0}]}')
    pi = '{"kind":"gl1","chi":{"p":3,"cond":0,"unit_char":[],"t":[1,0]}}'
    code, out = run_cli(capsys, "hankel", "--phi", phi, "--pi", pi,
                        "--shells", "-14:-13", "--route", "convolve")
    assert code == 0
    assert json.loads(out)["truncation_threshold"] == 14


def test_hankel_csv(tmp_path, capsys):
    out_csv = tmp_path / "h.csv"
    code, _ = run_cli(capsys, "hankel", "--phi", PHI_UNIT5, "--pi", PI_TRIV5,
                      "--shells", "-2:2", "--route", "convolve",
                      "--emit", "csv", "--out", str(out_csv))
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "m,rep,re,im"
    assert len(lines) == 1 + 5  # level 0: one row per shell


def test_basic_command(capsys):
    code, out = run_cli(capsys, "basic", "--alpha", "[[0.6,0.8],[0.6,-0.8]]",
                        "--p", "3", "--window", "5")
    assert code == 0
    obj = json.loads(out)
    assert obj["zeta_check"]["max_coeff_diff"] <= 1e-10
    assert obj["fourier_check"]["max_coeff_diff"] <= 1e-10
    assert len(obj["shell_values"]) == 6


@pytest.mark.parametrize("alpha, expect", [
    ("[[1e12,0]]",
     '{"alpha":[[1000000000000.0,0.0]],'
     '"fourier_check":{"max_coeff_diff":2.220446049250313e-16},"p":3,'
     '"shell_values":[[0,1.4999999999999998,0.0],[1,866025403784.4385,0.0],'
     '[2,4.999999999999999e+23,0.0]],'
     '"zeta_check":{"max_coeff_diff":0.0,"route":"partial-fractions"}}'),
    ("[[1e6,0],[2e6,0]]",
     '{"alpha":[[1000000.0,0.0],[2000000.0,0.0]],'
     '"fourier_check":{"max_coeff_diff":1.666666666666661e-13},"p":3,'
     '"shell_values":[[0,1.4999999999999998,0.0],[1,2598076.2113533155,0.0],'
     '[2,3499999999999.999,0.0]],'
     '"zeta_check":{"max_coeff_diff":0.0,"route":"partial-fractions"}}'),
], ids=["rank1", "rank2"])
def test_basic_large_satake_parameters_kept(capsys, alpha, expect):
    # large, but the constant term of prod (1 - alpha_i X) survives pruning
    code, out = run_cli(capsys, "basic", "--alpha", alpha, "--p", "3",
                        "--window", "2")
    assert (code, out) == (0, expect + "\n")


@pytest.mark.parametrize("t, status, expect", [
    ("1e12", 1,
     '{"gamma_closed":{"den":[[0,1.0,0.0],[1,-5000000000000.0,0.0]],'
     '"num":[[1,-5000000000000.0,0.0],[2,5e+24,0.0]],"q":5},'
     '"gamma_pv":{"den":[[0,1.0,0.0],[1,-5000000000000.0,0.0]],'
     '"num":[[1,-5000000000000.0,0.00011102230246251565],'
     '[2,5e+24,-555111512.3125783]],"q":5},'
     '"max_coeff_diff":2.775557561562892e+21,"shells":[-3,-1]}'),
    ("1e-12", 0,
     '{"gamma_closed":{"den":[[0,1.0,0.0],[1,-5e-12,0.0]],'
     '"num":[[1,-5e-12,0.0],[2,5e-24,0.0]],"q":5},'
     '"gamma_pv":{"den":[[0,1.0,0.0],[1,-5e-12,0.0]],'
     '"num":[[1,-5.0000000000000005e-12,1.1102230246251565e-28],'
     '[2,5.0000000000000005e-24,-5.5511151231257825e-40]],"q":5},'
     '"max_coeff_diff":8.153872689979472e-28,"shells":[-3,-1]}'),
], ids=["t1e12", "t1e-12"])
def test_gamma_large_kept_constant_term(capsys, t, status, expect):
    # the constant term of 1 - tX survives pruning, so the guard leaves the
    # output as it was, byte for byte; at t = 1e12 the check still fails on
    # the absolute tolerance (a discrepancy of 2.8e21 on coefficients of 5e24)
    code, out = run_cli(capsys, "gamma", "--chi",
                        '{"p":5,"cond":0,"unit_char":[],"t":[%s,0]}' % t)
    assert (code, out) == (status, expect + "\n")


def test_lemma31_grid(capsys):
    code, out = run_cli(capsys, "lemma31", "--p", "3", "--grid", "default",
                        "--l0", "1", "--L", "4")
    assert code == 0
    obj = json.loads(out)
    assert obj["max_abs"] <= 1e-10 and len(obj["entries"]) >= 6


def test_lemma31_single_matrix(capsys):
    code, out = run_cli(capsys, "lemma31", "--p", "3",
                        "--g", '[["1/27","0"],["0","18"]]',
                        "--l0", "1", "--L", "4")
    assert code == 0
    assert json.loads(out)["max_abs"] <= 1e-10


@pytest.mark.parametrize("l0", ["3", "0"])
def test_lemma31_grid_outside_its_levels_exit_two(capsys, l0):
    # the default grid meets the lemma's hypotheses at l0 in {1, 2} only; at
    # l0 = 3 psi(tr(g h)) is constant on every coset, and the command once
    # exited 1 with max_abs 1.0, a failed identity for an input error
    code, out = run_cli(capsys, "lemma31", "--p", "2", "--grid", "default",
                        "--l0", l0, "--L", "6")
    assert code == 2
    assert json.loads(out)["error"]["code"] == "run/valueerror"


def test_arch_fe_command(capsys):
    code, out = run_cli(capsys, "arch-fe", "--place", "real",
                        "--chi", '{"eps":1,"t":0}',
                        "--samples", "[[0.4,0],[0.6,0]]",
                        "--seed-spec", '{"place":"real","poly":[[0,0],[1,0]]}')
    assert code == 0
    assert json.loads(out)["max_err"] <= 1e-5


def test_arch_fe_quadrature_failure_exit_one(capsys):
    # at Re(1 - s) = -0.5 the left-hand zeta integral diverges: the rule
    # cannot converge, which is a verification failure, not bad input
    code, out = run_cli(capsys, "arch-fe", "--place", "real",
                        "--chi", '{"eps":0,"t":0}', "--samples", "[[1.5,0]]")
    assert code == 1
    assert json.loads(out)["error"]["code"] == "run/archquadratureerror"


def test_arch_fe_far_up_the_critical_line_exit_one(capsys):
    # gamma stays finite at |Im s| = 1000 (L(1-s) / L(s) once divided two
    # underflowed zeros); the zeta integrals oscillate past the quadrature's
    # convergence limit of about |Im s| = 1000 Re s
    code, out = run_cli(capsys, "arch-fe", "--place", "real",
                        "--chi", '{"eps":0,"t":0}', "--samples", "[[0.5,1000]]")
    assert code == 1
    assert json.loads(out)["error"]["code"] == "run/archquadratureerror"


def test_arch_fe_unresolved_exit_one(capsys):
    # both sides come out near 2e-15 while the true values are about 1e-103:
    # the quadrature resolves neither, so the check verified nothing
    code, out = run_cli(capsys, "arch-fe", "--place", "real",
                        "--chi", '{"eps":0,"t":0}', "--samples", "[[0.5,300]]")
    assert code == 1
    assert json.loads(out)["error"]["code"] == "run/archunresolvederror"


def test_arch_fe_pole_exit_two(capsys):
    # s = 1 puts L(1 - s) on the pole of Gamma_R at 0: bad input
    code, out = run_cli(capsys, "arch-fe", "--place", "real",
                        "--chi", '{"eps":0,"t":0}', "--samples", "[[1,0]]")
    assert code == 2
    assert json.loads(out)["error"]["code"] == "run/archpoleerror"


def test_import_loads_no_scipy_or_numpy():
    src = os.path.dirname(os.path.dirname(gl1zeta.__file__))
    probe = ("import sys, gl1zeta, gl1zeta.cli; print(sorted("
             "m for m in ('scipy', 'numpy', 'jsonschema') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=60, check=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert done.stdout.strip() == "[]"


def test_corpus_deterministic(tmp_path, capsys):
    d1, d2 = str(tmp_path / "c1"), str(tmp_path / "c2")
    assert main(["corpus", "--seed", "42", "--dir", d1,
                 "--size-fe", "6"]) == 0
    capsys.readouterr()
    assert main(["corpus", "--seed", "42", "--dir", d2,
                 "--size-fe", "6"]) == 0
    capsys.readouterr()
    for name in sorted(os.listdir(d1)):
        with open(os.path.join(d1, name), "rb") as f1, \
                open(os.path.join(d2, name), "rb") as f2:
            assert f1.read() == f2.read(), name


def test_schema_violation_exit_two(capsys):
    code, out = run_cli(capsys, "gamma", "--chi", '{"p":5,"cond":1}')
    assert code == 2
    assert json.loads(out)["error"]["code"].startswith("schema/")


def test_invalid_character_exit_two(capsys):
    code, out = run_cli(capsys, "gamma", "--chi",
                        '{"p":5,"cond":1,"unit_char":[0],"t":[1,0]}')
    assert code == 2
    assert json.loads(out)["error"]["code"] == "character/invalid"


def test_missing_file_exit_two(capsys):
    code, out = run_cli(capsys, "gamma", "--chi", "no_such_file.json")
    assert code == 2
    assert "error" in json.loads(out)


@pytest.mark.parametrize("argv, code", [
    (["gamma", "--p", "7", "--chi", CHI_QUAD5], "gamma/p-mismatch"),
    (["fe-check"], "fe/inputs"),
    (["lemma31", "--p", "3"], "lemma31/inputs"),
    (["hankel", "--phi", PHI_UNIT5, "--pi", PI_SATAKE, "--route", "convolve"],
     "hankel/rank"),
    (["hankel", "--phi", PHI_UNIT5, "--pi", PI_TRIV5, "--route", "mellin",
      "--emit", "csv"], "hankel/emit"),
    # the math layer rejects these while computing; they are still bad input
    (["gamma", "--chi", CHI_QUAD5, "--twist", CHI_QUAD3], "run/valueerror"),
    (["lemma31", "--p", "5", "--grid", "default"], "run/valueerror"),
    (["lemma31", "--p", "3", "--grid", "default", "--L", "9"], "run/valueerror"),
    (["hankel", "--phi", PHI_UNIT5, "--pi", PI_QUAD3], "run/valueerror"),
    (["basic", "--alpha", "[[0,0]]", "--p", "3"], "run/valueerror"),
    (["basic", "--alpha", ALPHA, "--p", "4"], "run/valueerror"),
    # an empty shell window, on each route
    (["hankel", "--phi", PHI_UNIT5, "--pi", PI_TRIV5, "--shells", "3:-3",
      "--route", "mellin"], "hankel/shells"),
    (["hankel", "--phi", PHI_UNIT5, "--pi", PI_TRIV5, "--shells", "3:-3",
      "--route", "convolve"], "hankel/shells"),
    (["hankel", "--phi", PHI_UNIT5, "--pi", PI_TRIV5, "--shells", "3:-3"],
     "hankel/shells"),
    # a rep at p = 3 in a function at p = 5
    (["hankel", "--phi", PHI_UNIT5.replace('"p":5,"val"', '"p":3,"val"'),
      "--pi", PI_TRIV5], "input/valueerror"),
    # a character at p = 3 against a function at p = 5
    (["zeta", "--phi", PHI_UNIT5, "--chi", CHI_QUAD3], "run/valueerror"),
    # Satake parameters whose L-factor loses the 1 of prod (1 - alpha_i X)
    # to relative pruning (unguarded: a wrong table and exit 0)
    (["basic", "--alpha", "[[1e7,0],[2e7,0]]", "--p", "3", "--window", "2"],
     "run/valueerror"),
    (["basic", "--alpha", "[[1e13,0]]", "--p", "3", "--window", "2"],
     "run/valueerror"),
    # the same for the rank-1 L-factor behind gamma_closed (unguarded: a
    # pole-less gamma on both routes and exit 1 on a 0.0022 discrepancy)
    (["gamma", "--chi", '{"p":5,"cond":0,"unit_char":[],"t":[1e13,0]}'],
     "run/valueerror"),
    (["gamma", "--chi", '{"p":5,"cond":0,"unit_char":[],"t":[1e-13,0]}'],
     "run/valueerror"),
])
def test_input_error_exit_two(capsys, argv, code):
    status, out = run_cli(capsys, *argv)
    assert status == 2
    assert json.loads(out)["error"]["code"] == code


def _step5(twist, center):
    return json.dumps({"model": "step", "p": 5, "terms": [
        {"coeff": [1, 0], "twist": twist, "center": center, "rad": 0},
        {"coeff": [0.5, -0.25], "twist": twist, "center": center, "rad": -1}]})


@pytest.mark.parametrize("twist, center", [(None, "0"), ("0", None),
                                           ("0", "0/7")])
def test_step_zero_literal_reads_as_null(capsys, twist, center):
    # the schema admits the literal 0 for a twist or a center, where it means
    # what null means; it once exited 2 with "0 is not in Q_p^x"
    want = run_cli(capsys, "zeta", "--phi", _step5(None, None), "--chi", CHI_TRIV5)
    assert want[0] == 0
    assert run_cli(capsys, "zeta", "--phi", _step5(twist, center),
                   "--chi", CHI_TRIV5) == want


def test_mult_zero_rep_exit_two(capsys):
    # 0 is not in Q_p^x, so a rep of 0 names no coset
    phi = PHI_UNIT5.replace('{"p":5,"val":0,"unit":1,"prec":4}', '"0"')
    status, out = run_cli(capsys, "zeta", "--phi", phi, "--chi", CHI_TRIV5)
    assert status == 2
    assert json.loads(out)["error"]["code"] == "input/valueerror"


@pytest.mark.parametrize("argv, code", [
    (["basic", "--alpha", "[1]", "--p", "3"], "schema/complex_list"),
    (["arch-fe", "--chi", '{"eps":0,"t":0}', "--samples", "[1]"],
     "schema/complex_list"),
    (["arch-fe", "--chi", '{"eps":0,"t":0}', "--samples", "[[0.5,0]]",
      "--seed-spec", "[1]"], "schema/arch_seed"),
    (["fe-check", "--phi", PHI_UNIT5], "fe/inputs"),
    (["zeta", "--phi", "[1]", "--chi", CHI_TRIV5], "function/model"),
    (["arch-fe", "--chi", "[1]", "--samples", "[[0.5,0]]"], "schema/arch_char"),
    # a rational literal with a zero denominator fails its schema
    (["zeta", "--phi", '{"model":"step","p":5,"terms":[{"coeff":[1,0],'
      '"center":"1/0","rad":0}]}', "--chi", CHI_TRIV5], "schema/step_function"),
    (["hankel", "--phi", PHI_UNIT5.replace('{"p":5,"val":0,"unit":1,"prec":4}',
                                           '"5/0"'),
      "--pi", PI_TRIV5], "schema/mult_step_function"),
    (["lemma31", "--p", "3", "--g", '[["1/0",0],[0,1]]'], "schema/matrix2"),
    # 0 is not in Q_p^x: a null rep names no coset
    (["zeta", "--phi", PHI_NULL_REP5, "--chi", CHI_TRIV5],
     "schema/mult_step_function"),
    (["hankel", "--phi", PHI_NULL_REP5, "--pi", PI_TRIV5],
     "schema/mult_step_function"),
])
def test_malformed_input_exit_two(capsys, argv, code):
    # each of these once escaped as a Python traceback with exit 1
    status, out = run_cli(capsys, *argv)
    assert status == 2
    assert json.loads(out)["error"]["code"] == code


@pytest.mark.parametrize("argv, code", [
    (["fe-check", "--corpus", "default", "--size", "0"], "fe/size"),
    (["fe-check", "--corpus", "default", "--size", "-3"], "fe/size"),
    (["corpus", "--size-fe", "-2"], "corpus/size"),
    (["corpus", "--size-hankel", "-1"], "corpus/size"),
    (["corpus", "--size-satake", "-5"], "corpus/size"),
])
def test_size_that_checks_nothing_exit_two(tmp_path, capsys, argv, code):
    # these once exited 0 having checked nothing, or wrote empty files
    out_dir = tmp_path / "corpus"
    if argv[0] == "corpus":
        argv = argv + ["--dir", str(out_dir)]
    status, out = run_cli(capsys, *argv)
    assert status == 2
    assert json.loads(out)["error"]["code"] == code
    assert not out_dir.exists()


def test_corpus_size_zero_is_valid(tmp_path, capsys):
    status, out = run_cli(capsys, "corpus", "--dir", str(tmp_path), "--size-fe", "0",
                          "--size-hankel", "0", "--size-satake", "0")
    assert status == 0
    assert json.loads((tmp_path / "fe.json").read_text()) == []


@pytest.mark.parametrize("argv", [
    ["fe-check", "--corpus", "bogus"],
    ["lemma31", "--p", "3", "--grid", "bogus"],
])
def test_unknown_named_input_exit_two(capsys, argv):
    # 'default' is the only corpus and the only grid
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["basic", "--alpha", ALPHA, "--p", "3"],
    ["hankel", "--phi", PHI_UNIT5, "--pi", PI_TRIV5, "--shells", "-2:2"],
])
def test_csv_keeps_the_verdict(tmp_path, capsys, argv):
    out_csv = tmp_path / "t.csv"
    code, out = run_cli(capsys, *argv, "--tol", "-1", "--emit", "csv",
                        "--out", str(out_csv))
    assert code == 1 and out == ""
    assert out_csv.read_text().startswith("m,rep,re,im\n")


@pytest.mark.parametrize("argv", [
    ["gamma", "--chi", CHI_QUAD5, "--twist", CHI_TRIV5],
    ["zeta", "--phi", PHI_UNIT5, "--chi", CHI_TRIV5],
    ["fe-check", "--phi", PHI_UNIT5, "--chi", CHI_QUAD5, "--pi", PI_TRIV5],
    ["hankel", "--phi", PHI_UNIT5, "--pi", PI_TRIV5, "--shells", "-1:1"],
    ["basic", "--alpha", ALPHA, "--p", "3"],
    ["lemma31", "--p", "3", "--g", '[["1/27",0],[0,9]]'],
    ["arch-fe", "--chi", '{"eps":0,"t":0}', "--samples", "[[0.5,0]]",
     "--seed-spec", '{"place":"real","poly":[[1,0]]}'],
])
def test_each_input_validated_once(capsys, monkeypatch, argv):
    seen = []
    validate = serialize.validate

    def recording_validate(obj, schema_name):
        seen.append((schema_name, id(obj)))
        validate(obj, schema_name)

    monkeypatch.setattr(serialize, "validate", recording_validate)
    status, _ = run_cli(capsys, *argv)
    assert status == 0
    assert seen and len(set(seen)) == len(seen)


def _under_a_file(tmp_path) -> str:
    """A path whose parent is a regular file, so nothing can be written there."""
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    return str(blocker / "out")


@pytest.mark.parametrize("argv", [
    ["gamma", "--chi", CHI_QUAD5, "--out"],
    ["basic", "--alpha", ALPHA, "--p", "3", "--emit", "csv", "--out"],
    ["hankel", "--phi", PHI_UNIT5, "--pi", PI_TRIV5, "--shells", "-1:1",
     "--emit", "csv", "--out"],
    ["corpus", "--size-fe", "2", "--size-hankel", "1", "--size-satake", "1",
     "--dir"],
])
def test_output_error_exit_two(tmp_path, capsys, argv):
    status, out = run_cli(capsys, *argv, _under_a_file(tmp_path))
    assert status == 2
    assert json.loads(out)["error"]["code"] == "output/notadirectoryerror"


@pytest.mark.parametrize("place, chi", [
    ("real", '{"eps":1,"t":0}'),
    ("complex", '{"eps":2,"t":0}'),
    ("complex", '{"eps":-2,"t":0}'),
])
def test_arch_fe_default_seed_follows_parity(capsys, place, chi):
    # the even Gaussian makes both sides vanish identically for these
    code, out = run_cli(capsys, "arch-fe", "--place", place, "--chi", chi,
                        "--samples", "[[0.4,0],[0.6,0]]")
    assert code == 0
    obj = json.loads(out)
    assert obj["max_err"] <= 1e-10
    assert all(abs(complex(*row["lhs"])) > 1e-3 for row in obj["rows"])


def test_dumps_is_canonical():
    assert dumps({"b": 1, "a": 2}) == '{"a":2,"b":1}\n'
