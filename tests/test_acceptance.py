"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines;
tolerances and runtime budgets are asserted, not just reported.
"""

import cmath
import random
import time
from concurrent.futures import ThreadPoolExecutor

from gl1zeta.arch import (ArchChar, ArchSeed, arch_fe_check, arch_gamma,
                          arch_zeta, gamma_r)
from gl1zeta.basicfn import basic_fourier_check, basic_zeta_check
from gl1zeta.characters import (MultChar, char_product, trivial_char,
                                unitary_components)
from gl1zeta.corpus import corpus_generate, random_satake, random_step
from gl1zeta.kernel import (Gl1Kernel, gamma_symbol, hankel_convolve,
                            hankel_mellin, homogeneous_identity_check,
                            lemma31_grid, trace_average_check)
from gl1zeta.padic import PAdicElt
from gl1zeta.stepfn import (StepFunction, StepTerm, fourier_transform,
                            mellin_invert, step_distance_sq, step_l2)
from gl1zeta.zetagamma import (_guard_roundoff, gamma_closed, gamma_pv,
                               shell_psi_chi_integral, verify_fe)

_T0 = time.time()


def _report(n, ok, detail):
    status = "PASS" if ok else "FAIL"
    print("[criterion %2d] %s  %s" % (n, status, detail))
    assert ok, detail


def test_criterion_01_gamma_two_routes():
    t0 = time.time()
    rng = random.Random(101)
    worst, cases = 0.0, 0
    for p in (2, 3, 5, 7):
        comps = unitary_components(p, 2)
        chars = [c for c in comps if c.cond <= 1]
        chars += [c for c in comps if c.cond == 2][:4]
        for base in chars:
            for _ in range(5):
                t = cmath.exp(2j * cmath.pi * rng.random())
                rep = gamma_pv(MultChar(p, base.cond, base.unit_char, t))
                worst = max(worst, rep.max_coeff_diff)
                cases += 1
    dt = time.time() - t0
    _report(1, cases >= 60 and worst <= 1e-9 and dt <= 30,
            "pv-Mellin == closed-form gamma: %d cases, worst %.3g (tol 1e-9), %.1fs (<=30s)"
            % (cases, worst, dt))


def test_criterion_02_functional_equation_corpus():
    t0 = time.time()
    corpus = corpus_generate(42, {"fe": 50})
    entries = corpus["fe"]
    assert len(entries) == 50
    kinds = {e["kind"] for e in entries}
    assert kinds == {"step", "mult"}

    def run(e):
        return verify_fe(e["phi"], e["chi"], e["pi"]).max_coeff_diff

    with ThreadPoolExecutor(max_workers=4) as pool:
        diffs = list(pool.map(run, entries))
    worst = max(diffs)
    dt = time.time() - t0
    _report(2, worst <= 1e-9 and dt <= 60,
            "GL1-FE 50-entry corpus: worst %.3g (tol 1e-9), %.1fs (<=60s)"
            % (worst, dt))


def test_criterion_03_hankel_two_routes():
    t0 = time.time()
    corpus = corpus_generate(43, {"hankel": 20})
    entries = corpus["hankel"]
    assert len(entries) == 40  # 20 per p in {3, 5}

    def run(e):
        phi, chi_pi = e["phi"], e["chi_pi"]
        p = e["p"]
        c_max = max(phi.max_level(), chi_pi.cond, 1)
        sym = gamma_symbol([chi_pi], c_max, p=p)
        back = mellin_invert(hankel_mellin(phi, sym), -5, 5, c_max)
        table = hankel_convolve(phi, Gl1Kernel(chi_pi), -5, 5, level=c_max)
        return max(abs(v - back.eval(rep)) for _, rep, v in table.rows)

    with ThreadPoolExecutor(max_workers=4) as pool:
        diffs = list(pool.map(run, entries))
    worst = max(diffs)
    dt = time.time() - t0
    _report(3, worst <= 1e-9 and dt <= 60,
            "Hankel two-route (convolve == mellin) on shells [-5,5], %d functions: "
            "worst %.3g (tol 1e-9), %.1fs (<=60s)" % (len(entries), worst, dt))


def test_criterion_04_homogeneous_distribution_identity():
    rng = random.Random(104)
    worst, cases = 0.0, 0
    from gl1zeta.corpus import random_char, random_mult_step
    for _ in range(20):
        p = rng.choice([3, 5])
        chi = random_char(rng, p, 2)
        pi = ([random_char(rng, p, 1)] if rng.random() < 0.5
              else random_satake(rng, rng.randrange(1, 3)))
        rep = homogeneous_identity_check(chi, pi, random_mult_step(rng, p))
        worst = max(worst, rep.max_coeff_diff)
        cases += 1
    _report(4, cases == 20 and worst <= 1e-9,
            "homogeneous-distribution identity, 20 pairs: worst %.3g (tol 1e-9)"
            % worst)


def test_criterion_05_trace_average_vanishing():
    t0 = time.time()
    worst, cases = 0.0, 0
    for p in (2, 3):
        for l0 in (1, 2):
            for g in lemma31_grid(p, l0):
                v = trace_average_check(p, g, l0, l0 + 3)
                worst = max(worst, abs(v))
                cases += 1
    control = trace_average_check(3, [[1, 0], [0, 1]], 1, 3)
    dt = time.time() - t0
    _report(5, cases >= 12 and worst <= 1e-10 and abs(control - 1) <= 1e-12
            and dt <= 120,
            "trace-average vanishing grid (%d matrices): worst |avg| %.3g (tol 1e-10), "
            "control %.12f, %.1fs (<=120s)" % (cases, worst, control.real, dt))


def test_criterion_06_truncation_stability_thresholds():
    # Truncating the kernel at ell (the indicator of v(x) >= -ell) leaves it
    # whole on S_m exactly when ell >= -m, because it never vanishes: (a).
    # Its Mellin coefficient at a conductor-matched twist activates at shell
    # -c, c = max(1, -m), (b), and the shells below -c sum to zero, (c).
    p = 5
    q = float(p)
    kern = Gl1Kernel(MultChar(p, 1, (1,), 1.0))
    one = PAdicElt.one(p)
    units = [u for u in range(1, p ** 2) if u % p]
    ok = True
    for m in range(-4, 5):
        for u in units:
            ok &= abs(abs(kern.eval(PAdicElt(p, m, u, 24))) - q ** (-m / 2)
                      ) <= 1e-12 * q ** (-m / 2)
        if m <= -2:
            twist = next(c for c in unitary_components(p, -m)
                         if char_product(kern.chi, c).cond == -m)
        else:
            twist = kern.chi.inverse()
        prod = char_product(kern.chi, twist)
        inv = prod.inverse()
        c = max(1, -m)
        shell = {n: abs(shell_psi_chi_integral(p, n, inv, b=one, brute=True))
                 for n in (m, -c, -c - 1, -c - 2)}
        want = q ** (-c / 2) if prod.cond else 1 / q
        ok &= abs(shell[-c] - want) <= 1e-12 * want
        if m >= 0:
            ok &= abs(shell[m] - (1 - 1 / q)) <= 1e-12 * (1 - 1 / q)
        for n in (-c - 1, -c - 2):
            ok &= shell[n] <= _guard_roundoff(p, n, prod.t)
    _report(6, ok, "truncation-stability thresholds equal max(1,-m) on m in [-4,4] "
                   "(pointwise, and Mellin under conductor-matched twists)")


def test_criterion_07_basic_function_identities():
    rng = random.Random(107)
    worst_z = worst_f = 0.0
    for _ in range(20):
        p = rng.choice([2, 3, 5, 7])
        n = rng.randrange(1, 5)
        alpha = random_satake(rng, n)
        worst_z = max(worst_z, basic_zeta_check(alpha, trivial_char(p)).max_coeff_diff)
        worst_f = max(worst_f, basic_fourier_check(alpha, p).max_coeff_diff)
    _report(7, worst_z <= 1e-10 and worst_f <= 1e-10,
            "basic-function zeta/Fourier identities, 20 Satake lists (n<=4): "
            "zeta worst %.3g, fourier worst %.3g (tol 1e-10)" % (worst_z, worst_f))


def _reflect(f):
    """x -> f(-x): each term's twist and center negated."""
    def neg(x):
        return x.neg() if x is not None else None
    return StepFunction(f.p, [StepTerm(t.coeff, neg(t.twist), neg(t.center), t.rad)
                              for t in f.terms])


def test_criterion_08_fourier_involution_plancherel():
    # F_psi F_psi f = f(-x), the involution F_{psi^(-1)} F_psi = id reflected
    rng = random.Random(108)
    worst_inv = worst_pl = 0.0
    for _ in range(100):
        p = rng.choice([2, 3, 5, 7])
        f = random_step(rng, p)
        ff = _reflect(fourier_transform(fourier_transform(f)))
        scale = max(1.0, step_l2(f))
        worst_inv = max(worst_inv, step_distance_sq(f, ff) / scale)
        worst_pl = max(worst_pl,
                       abs(step_l2(f) - step_l2(fourier_transform(f))) / scale)
    _report(8, worst_inv <= 1e-12 and worst_pl <= 1e-12,
            "Fourier involution + Plancherel, 100 functions: "
            "worst %.3g / %.3g (tol 1e-12)" % (worst_inv, worst_pl))


def test_criterion_09_gamma_unitarity():
    rng = random.Random(109)
    worst_p = 0.0
    for _ in range(20):
        p = rng.choice([2, 3, 5, 7])
        comps = unitary_components(p, 2)
        base = comps[rng.randrange(len(comps))]
        chi = MultChar(p, base.cond, base.unit_char,
                       cmath.exp(2j * cmath.pi * rng.random()))
        t = rng.uniform(-5, 5)
        val = gamma_closed(chi).eval_at_s(0.5 + 1j * t)
        worst_p = max(worst_p, abs(abs(val) - 1))
    worst_a = 0.0
    arch_chars = [ArchChar("real", 0), ArchChar("real", 1, 0.7),
                  ArchChar("complex", 0), ArchChar("complex", 2, -0.4)]
    for _ in range(20):
        chi = arch_chars[rng.randrange(len(arch_chars))]
        t = rng.uniform(-5, 5)
        worst_a = max(worst_a, abs(abs(arch_gamma(chi, 0.5 + 1j * t)) - 1))
    _report(9, worst_p <= 1e-9 and worst_a <= 1e-9,
            "|gamma(1/2+it)| = 1, 20 p-adic + 20 Archimedean samples: "
            "worst %.3g / %.3g (tol 1e-9)" % (worst_p, worst_a))


def test_criterion_10_archimedean_zeta_and_fe():
    worst_g = 0.0
    for s in (0.5, 1.0, 1.5 + 0.7j):
        z = arch_zeta(ArchSeed("real"), ArchChar("real", 0), s)
        worst_g = max(worst_g, abs(z - gamma_r(s)))
    combos = [
        (ArchSeed("real"), ArchChar("real", 0), (0.3, 0.5, 0.8)),
        (ArchSeed("real", (0.0, 1.0)), ArchChar("real", 1), (0.4, 0.6, 0.75)),
        (ArchSeed("complex"), ArchChar("complex", 0), (0.3, 0.5, 0.8)),
    ]
    worst_fe, n_samples = 0.0, 0
    for seed, chi, samples in combos:
        rep = arch_fe_check(seed, chi, samples)
        worst_fe = max(worst_fe, rep.max_err())
        n_samples += len(samples)
    _report(10, worst_g <= 1e-6 and worst_fe <= 1e-5 and n_samples == 9,
            "Archimedean: |Z(Gaussian) - Gamma_R| worst %.3g (tol 1e-6); "
            "FE at %d (seed,chi,s) combos worst %.3g (tol 1e-5)"
            % (worst_g, n_samples, worst_fe))


def test_criterion_11_wall_clock():
    dt = time.time() - _T0
    _report(11, dt <= 300,
            "acceptance suite wall clock %.1fs (<= 300s, single process)" % dt)
