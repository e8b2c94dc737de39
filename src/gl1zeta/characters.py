"""Quasi-characters of Q_p^x with exact conductor bookkeeping.

A quasi-character chi is stored as (conductor exponent, character of
(Z/p^cond)^x given by an exponent vector against the cached unit-group
generators, and the unramified value t = chi(p)).  The |x|^s part is never
evaluated here; downstream code carries it as powers of X = q^(-s).

Unit-part values are roots of unity handled through exact rational phases,
so that products, inverses and exact-conductor reduction involve no floating
point at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .padic import PAdicElt, PrecisionError, check_prime, unit_group
from .ratfunc import root_of_unity


@dataclass(frozen=True)
class MultChar:
    """chi = (unit-group character of exact conductor `cond`) * t^{v(x)}."""

    p: int
    cond: int
    unit_char: tuple[int, ...]
    t: complex

    def __post_init__(self):
        check_prime(self.p)
        if self.cond < 0:
            raise ValueError("conductor exponent must be >= 0")
        if self.t == 0:
            raise ValueError("chi(p) must be nonzero")
        object.__setattr__(self, "t", complex(self.t))
        if self.cond == 0:
            if self.unit_char != ():
                raise ValueError("conductor 0 requires an empty exponent vector")
            return
        if self.p == 2 and self.cond == 1:
            raise ValueError("(Z/2)^x is trivial: conductor 1 is impossible at p=2")
        table = unit_group(self.p, self.cond)
        if len(self.unit_char) != len(table.generators):
            raise ValueError("exponent vector length %d does not match the %d "
                             "generators of (Z/%d^%d)^x"
                             % (len(self.unit_char), len(table.generators),
                                self.p, self.cond))
        vec = tuple(k % o for k, (_, o) in zip(self.unit_char, table.generators))
        object.__setattr__(self, "unit_char", vec)
        if not self._nontrivial_on_level(self.cond):
            raise ValueError("conductor %d is not exact" % (self.cond,))

    def _nontrivial_on_level(self, a: int) -> bool:
        """True if the unit character is nontrivial on 1 + p^(a-1) Z_p
        (for a = 1: nontrivial on Z_p^x at all)."""
        if a == 1:
            return any(k != 0 for k in self.unit_char)
        # 1 + p^(a-1) generates the layer (1+p^(a-1))/(1+p^a) in every case
        # that reaches here (p odd, or p = 2 with a != 1).
        return self.unit_phase(1 + self.p ** (a - 1)) != 0

    # -- evaluation ----------------------------------------------------------

    def unit_phase(self, u: int) -> Fraction:
        """Exact phase r in Q/Z with chi(u) = exp(2*pi*i*r), for gcd(u,p)=1."""
        if self.cond == 0:
            return Fraction(0)
        table = unit_group(self.p, self.cond)
        vec = table.dlog[u % (self.p ** self.cond)]
        r = Fraction(0)
        for k, x, (_, o) in zip(self.unit_char, vec, table.generators):
            r += Fraction(k * x, o)
        return r % 1

    def unit_value(self, u: int) -> complex:
        r = self.unit_phase(u)
        return root_of_unity(r.numerator, r.denominator)

    def eval(self, x: PAdicElt) -> complex:
        """chi(x) = t^{v(x)} * unit_char(unit part of x mod p^cond)."""
        if x.p != self.p:
            raise ValueError("element lives at p=%d, character at p=%d" % (x.p, self.p))
        if x.prec < self.cond:
            raise PrecisionError("character of conductor %d needs %d unit digits, "
                                 "element carries %d" % (self.cond, self.cond, x.prec))
        value = self.t ** x.val if x.val >= 0 else (1.0 / self.t) ** (-x.val)
        if self.cond:
            value *= self.unit_value(x.unit_mod(self.cond))
        return value

    # -- structure -----------------------------------------------------------

    def is_unitary(self) -> bool:
        return abs(abs(self.t) - 1.0) < 1e-12

    def unitary_part(self) -> "MultChar":
        """The same unit-group character with t = 1."""
        return MultChar(self.p, self.cond, self.unit_char, 1.0 + 0.0j)

    def inverse(self) -> "MultChar":
        if self.cond == 0:
            return MultChar(self.p, 0, (), 1.0 / self.t)
        table = unit_group(self.p, self.cond)
        vec = tuple((-k) % o for k, (_, o) in zip(self.unit_char, table.generators))
        return MultChar(self.p, self.cond, vec, 1.0 / self.t)


def trivial_char(p: int) -> MultChar:
    return MultChar(p, 0, (), 1.0 + 0.0j)


def unramified_char(p: int, t: complex) -> MultChar:
    return MultChar(p, 0, (), t)


def _phase_func_conductor(p: int, level: int, phase) -> int:
    """Exact conductor of a character of (Z/p^level)^x given by its phase
    function: the smallest a with the character trivial on 1 + p^a Z_p."""
    for a in range(level + 1):
        if a == 0:
            table = unit_group(p, level)
            if all(phase(g) == 0 for g, _ in table.generators):
                return 0
            continue
        if p == 2 and a == 1:
            continue  # conductor 1 impossible at p = 2
        # 1 + p^a generates the cyclic group (1+p^a)/(1+p^level); at p=2, a=1
        # is skipped and a>=2 is again cyclic with generator 1+2^a.
        trivial = True
        for b in range(a, level):
            if phase(1 + p ** b) != 0:
                trivial = False
                break
        if trivial:
            return a
    return level


def _from_phase(p: int, level: int, phase, t: complex) -> MultChar:
    """Build the canonical MultChar (at its exact conductor) out of an exact
    phase function defined on units modulo p^level."""
    if level == 0:
        return MultChar(p, 0, (), t)
    cond = _phase_func_conductor(p, level, phase)
    if cond == 0:
        return MultChar(p, 0, (), t)
    table = unit_group(p, cond)
    vec = []
    for g, o in table.generators:
        r = phase(g) * o
        if r.denominator != 1:
            raise RuntimeError("phase %r at generator %d is not order-%d rational"
                               % (phase(g), g, o))
        vec.append(int(r) % o)
    return MultChar(p, cond, tuple(vec), t)


def char_product(a: MultChar, b: MultChar) -> MultChar:
    """chi_a * chi_b with the exact conductor recomputed after cancellation."""
    if a.p != b.p:
        raise ValueError("characters at different primes")
    level = max(a.cond, b.cond)
    t = a.t * b.t
    if level == 0:
        return MultChar(a.p, 0, (), t)
    return _from_phase(a.p, level,
                       lambda u: (a.unit_phase(u) + b.unit_phase(u)) % 1, t)


def unitary_components(p: int, c_max: int) -> list[MultChar]:
    """All characters of (Z/p^c_max)^x with t = 1, tagged by exact conductor.

    This is the component set Omega^ used for Mellin inversion, truncated at
    conductor c_max.
    """
    check_prime(p)
    if c_max < 0:
        raise ValueError("c_max must be >= 0")
    if c_max == 0:
        return [trivial_char(p)]
    table = unit_group(p, c_max)
    out = []
    vecs = [()]
    for _, o in table.generators:
        vecs = [v + (k,) for v in vecs for k in range(o)]
    for vec in vecs:
        def phase(u, vec=vec):
            dvec = table.dlog[u % (p ** c_max)]
            r = Fraction(0)
            for k, x, (_, o) in zip(vec, dvec, table.generators):
                r += Fraction(k * x, o)
            return r % 1
        out.append(_from_phase(p, c_max, phase, 1.0 + 0.0j))
    out.sort(key=lambda ch: (ch.cond, ch.unit_char))
    return out


def char_to_json(chi: MultChar) -> dict:
    return {"p": chi.p, "cond": chi.cond, "unit_char": list(chi.unit_char),
            "t": [chi.t.real, chi.t.imag]}


def char_from_json(obj: dict) -> MultChar:
    return MultChar(int(obj["p"]), int(obj["cond"]),
                    tuple(int(k) for k in obj["unit_char"]),
                    complex(obj["t"][0], obj["t"][1]))
