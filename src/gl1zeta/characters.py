"""Quasi-characters of Q_p^x with exact conductor bookkeeping.

A quasi-character chi is stored as (conductor exponent, character of
(Z/p^cond)^x given by an exponent vector against the cached unit-group
generators, and the unramified value t = chi(p)).  The |x|^s part is never
evaluated here; downstream code carries it as powers of X = q^(-s).

Unit-part values are roots of unity whose order divides the exponent n of
(Z/p^cond)^x, so a unit's phase is an integer mod n: products, inverses and
exact-conductor reduction involve no floating point at all.  `unit_values`,
one memoized table per unit character, is the only place where phases become
complex numbers.  Validating a new character (unit-group lookup, reduction,
exact-conductor test) is one cached function of (p, cond, unit_char), so
building a character again, at any t, looks nothing up.  The same holds for
the other integer data: the exact-conductor reduction of a product of two
ramified characters is cached on (p, both conductors, both exponent
vectors), with t multiplied outside it, and the inverse of a character with
t = 1 is one shared object per (p, cond, unit_char).  `product_data` gives
a product's fields with no MultChar built, for callers that need no more.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .padic import PAdicElt, PrecisionError, UnitGroupTable, check_prime, unit_group
from .ratfunc import root_of_unity


def _exponent(table: UnitGroupTable) -> int:
    """The exponent of (Z/p^a)^x: its largest generator order."""
    return max((o for _, o in table.generators), default=1)


def _phase(table: UnitGroupTable, unit_char: tuple[int, ...], u: int, n: int) -> int:
    """r mod n with chi(u) = exp(2*pi*i*r/n), for the character of (Z/p^a)^x
    with exponent vector `unit_char`, a unit u and a multiple n of the
    exponent of (Z/p^a)^x."""
    vec = table.dlog[u % (table.p ** table.a)]
    return sum(k * x * (n // o)
               for k, x, (_, o) in zip(unit_char, vec, table.generators)) % n


def _exact(table: UnitGroupTable, unit_char: tuple[int, ...]) -> bool:
    """True if the character of (Z/p^a)^x has conductor exactly a: it is
    nontrivial on 1 + p^(a-1) Z_p (for a = 1: nontrivial at all)."""
    if table.a == 1:
        return any(unit_char)
    # 1 + p^(a-1) generates the layer (1+p^(a-1))/(1+p^a) in every case
    # that reaches here (p odd, or p = 2 with a != 1).
    return _phase(table, unit_char, 1 + table.p ** (table.a - 1),
                  _exponent(table)) != 0


@functools.cache
def unit_values(p: int, cond: int, unit_char: tuple[int, ...]) -> tuple[complex, ...]:
    """chi(u) for every residue u mod p^cond (0 at non-units), where chi has
    conductor `cond` and unit character `unit_char`."""
    if cond == 0:
        return (1.0 + 0.0j,)
    table = unit_group(p, cond)
    n = _exponent(table)
    values = []
    for u in range(p ** cond):
        if u % p == 0:
            values.append(0j)
            continue
        r = _phase(table, unit_char, u, n)
        g = math.gcd(r, n)
        values.append(root_of_unity(r // g, n // g))
    return tuple(values)


@functools.cache
def _reduced_exact(p: int, cond: int, unit_char: tuple[int, ...]) -> tuple[int, ...]:
    """`unit_char` reduced mod the generator orders of (Z/p^cond)^x (cond >= 1),
    after checking that it has one entry per generator and conductor exactly
    `cond`.  Cached: a corpus rebuilds the same few characters at many t.  An
    invalid vector raises on every call (exceptions are not cached)."""
    if p == 2 and cond == 1:
        raise ValueError("(Z/2)^x is trivial: conductor 1 is impossible at p=2")
    table = unit_group(p, cond)
    if len(unit_char) != len(table.generators):
        raise ValueError("exponent vector length %d does not match the %d "
                         "generators of (Z/%d^%d)^x"
                         % (len(unit_char), len(table.generators), p, cond))
    vec = tuple(k % o for k, (_, o) in zip(unit_char, table.generators))
    if not _exact(table, vec):
        raise ValueError("conductor %d is not exact" % (cond,))
    return vec


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
        vec = tuple(self.unit_char)
        if self.cond:
            vec = _reduced_exact(self.p, self.cond, vec)
        elif vec:
            raise ValueError("conductor 0 requires an empty exponent vector")
        object.__setattr__(self, "unit_char", vec)

    # -- evaluation ----------------------------------------------------------

    def unit_value(self, u: int) -> complex:
        """chi(u) for an integer u prime to p."""
        return unit_values(self.p, self.cond, self.unit_char)[u % self.p ** self.cond]

    def eval(self, x: PAdicElt) -> complex:
        """chi(x) = t^{v(x)} * unit_char(unit part of x mod p^cond)."""
        if x.p != self.p:
            raise ValueError("element lives at p=%d, character at p=%d" % (x.p, self.p))
        return self.value_at(x.val, x.unit, x.prec)

    def value_at(self, val: int, unit: int, prec: int) -> complex:
        """chi(p^val * unit) for an integer unit known to `prec` digits."""
        if prec < self.cond:
            raise PrecisionError("character of conductor %d needs %d unit digits, "
                                 "element carries %d" % (self.cond, self.cond, prec))
        value = self.t ** val if val >= 0 else (1.0 / self.t) ** (-val)
        if self.cond:
            value *= self.unit_value(unit)
        return value

    # -- structure -----------------------------------------------------------

    def is_unitary(self) -> bool:
        return abs(abs(self.t) - 1.0) < 1e-12

    def unitary_part(self) -> "MultChar":
        """The same unit-group character with t = 1."""
        if self.t == 1:
            return self
        return MultChar(self.p, self.cond, self.unit_char, 1.0 + 0.0j)

    def inverse(self) -> "MultChar":
        """chi^(-1); at t = 1 the one shared `_unitary_inverse`."""
        if self.t == 1:
            return _unitary_inverse(self.p, self.cond, self.unit_char)
        # __post_init__ reduces the negated exponents mod the generator orders
        return MultChar(self.p, self.cond, tuple(-k for k in self.unit_char),
                        1.0 / self.t)


@functools.cache
def _unitary_inverse(p: int, cond: int, unit_char: tuple[int, ...]) -> MultChar:
    """The inverse of the character with t = 1, built once per process and
    shared (MultChar is immutable); 1.0 / 1 is 1 exactly."""
    return MultChar(p, cond, tuple(-k for k in unit_char), 1.0 + 0.0j)


def trivial_char(p: int) -> MultChar:
    return MultChar(p, 0, (), 1.0 + 0.0j)


def unramified_char(p: int, t: complex) -> MultChar:
    return MultChar(p, 0, (), t)


def char_product(a: MultChar, b: MultChar) -> MultChar:
    """chi_a * chi_b with the exact conductor recomputed after cancellation."""
    return MultChar(a.p, *product_data(a, b))


def product_data(a: MultChar, b: MultChar) -> tuple[int, tuple[int, ...], complex]:
    """(exact conductor, reduced exponent vector, t) of chi_a * chi_b, the
    fields of `char_product(a, b)`, with no MultChar built."""
    if a.p != b.p:
        raise ValueError("characters at different primes")
    t = a.t * b.t
    if not a.cond or not b.cond:     # an unramified factor changes t alone
        c = b if not a.cond else a
        return c.cond, c.unit_char, t
    return (*_product_reduction(a.p, a.cond, a.unit_char, b.cond, b.unit_char), t)


@functools.cache
def _product_reduction(p: int, cond_a: int, vec_a: tuple[int, ...],
                       cond_b: int, vec_b: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """(exact conductor, exponent vector) of the product of two ramified
    unit characters; integers alone, so cached: a corpus multiplies the same
    few pairs at many t."""
    level = max(cond_a, cond_b)
    table = unit_group(p, level)
    n = _exponent(table)
    factors = [(unit_group(p, cond_a), vec_a), (unit_group(p, cond_b), vec_b)]

    def phase(u: int) -> int:
        return sum(_phase(tab, vec, u, n) for tab, vec in factors) % n

    if all(phase(g) == 0 for g, _ in table.generators):
        return 0, ()
    # the conductor is the least c with the product trivial on 1 + p^c Z_p;
    # 1 + p^c generates (1+p^c)/(1+p^level) (at p = 2 for c >= 2 only, and
    # c = 1 there would mean triviality on every unit, ruled out above)
    cond = next(c for c in range(1, level + 1)
                if not (p == 2 and c == 1) and phase(1 + p ** c) == 0)
    # chi(g)^o = 1 for a generator g of order o, so phase(g) * o / n is exact
    return cond, tuple(phase(g) * o // n for g, o in unit_group(p, cond).generators)


def unitary_components(p: int, c_max: int) -> list[MultChar]:
    """All characters of (Z/p^c_max)^x with t = 1, tagged by exact conductor,
    in order of (conductor, exponent vector).

    This is the component set Omega^ used for Mellin inversion, truncated at
    conductor c_max.  Each set is built once; every call returns a new list
    of the same (frozen) characters.
    """
    return list(_unitary_components(p, c_max))


@functools.cache
def _unitary_components(p: int, c_max: int) -> tuple[MultChar, ...]:
    check_prime(p)
    if c_max < 0:
        raise ValueError("c_max must be >= 0")
    out = [trivial_char(p)]
    for cond in range(1, c_max + 1):
        table = unit_group(p, cond)
        for vec in itertools.product(*(range(o) for _, o in table.generators)):
            if _exact(table, vec):
                out.append(MultChar(p, cond, vec, 1.0 + 0.0j))
    return tuple(out)
