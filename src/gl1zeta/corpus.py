"""Reproducible pseudo-random corpora of characters, step functions, and
Satake lists, keyed by an integer seed.

Generation is deterministic given (seed, sizes); every emitted character is
re-validated against the exact-conductor invariant by construction (the
MultChar constructor enforces it).
"""

from __future__ import annotations

import cmath
import random

from .characters import MultChar, unitary_components
from .defaults import DEFAULT_PREC
from .padic import PAdicElt, unit_residues
from .stepfn import (MultStepFunction, MultTerm, StepFunction, StepTerm)

DEFAULT_PRIMES = (2, 3, 5, 7)


def _unit(rng: random.Random) -> complex:
    return cmath.exp(2j * cmath.pi * rng.random())


def random_char(rng: random.Random, p: int, max_cond: int = 2,
                unitary_t: bool = True) -> MultChar:
    comps = unitary_components(p, max_cond)
    base = comps[rng.randrange(len(comps))]
    t = _unit(rng) if unitary_t else _unit(rng) * rng.uniform(0.5, 1.8)
    return MultChar(p, base.cond, base.unit_char, t)


def random_mult_step(rng: random.Random, p: int,
                     max_level: int = 2) -> MultStepFunction:
    """1 to 3 cosets on shells -2..2, each of level 0..max_level."""
    terms = []
    for _ in range(rng.randrange(1, 4)):
        m = rng.randrange(-2, 3)
        k = rng.randrange(0, max_level + 1)
        if k:
            units = unit_residues(p, k)
            u = units[rng.randrange(len(units))]
        else:
            u = 1
        coeff = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        terms.append(MultTerm(coeff, PAdicElt.at(p, m, u), k))
    return MultStepFunction(p, terms)


def random_step(rng: random.Random, p: int) -> StepFunction:
    """1 to 3 terms, each maybe twisted and maybe off center."""
    terms = []
    for _ in range(rng.randrange(1, 4)):
        coeff = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        units = unit_residues(p, 2)
        twist = None if rng.random() < 0.4 else PAdicElt(
            p, rng.randrange(-3, 1), units[rng.randrange(len(units))], DEFAULT_PREC)
        center = None if rng.random() < 0.4 else PAdicElt(
            p, rng.randrange(-1, 2), units[rng.randrange(len(units))], DEFAULT_PREC)
        terms.append(StepTerm(coeff, twist, center, rng.randrange(-1, 3)))
    return StepFunction(p, terms)


def random_satake(rng: random.Random, n: int) -> list[complex]:
    """n unitary Satake parameters."""
    return [_unit(rng) for _ in range(n)]


def corpus_generate(seed: int, sizes: dict | None = None) -> dict:
    """Deterministic corpus: characters, function/character FE entries,
    Hankel entries, Satake lists.  `sizes` scales the entry counts."""
    sizes = dict(sizes or {})
    n_fe = int(sizes.get("fe", 50))
    n_hankel = int(sizes.get("hankel", 20))
    n_satake = int(sizes.get("satake", 20))
    rng = random.Random(seed)

    fe_entries = []
    for i in range(n_fe):
        p = DEFAULT_PRIMES[rng.randrange(len(DEFAULT_PRIMES))]
        chi = random_char(rng, p, 2)
        if i % 2 == 0:
            phi = random_step(rng, p)
            pi = [random_char(rng, p, 1)]
            kind = "step"
        else:
            phi = random_mult_step(rng, p)
            n = rng.randrange(1, 3)
            pi = (random_satake(rng, n) if rng.random() < 0.5
                  else [random_char(rng, p, 1) for _ in range(n)])
            kind = "mult"
        fe_entries.append({"kind": kind, "p": p, "phi": phi, "chi": chi, "pi": pi})

    hankel_entries = []
    for p in (3, 5):
        for _ in range(n_hankel):
            hankel_entries.append({
                "p": p,
                "phi": random_mult_step(rng, p),
                "chi_pi": random_char(rng, p, 1),
            })

    satake_entries = [random_satake(rng, rng.randrange(1, 5))
                      for _ in range(n_satake)]

    gamma_entries = []
    for p in DEFAULT_PRIMES:
        for base in unitary_components(p, 2):
            for _ in range(int(sizes.get("gamma_t", 5))):
                gamma_entries.append(MultChar(p, base.cond, base.unit_char,
                                              _unit(rng)))

    return {"seed": seed, "fe": fe_entries, "hankel": hankel_entries,
            "satake": satake_entries, "gamma": gamma_entries}
