"""Finite-precision elements of Q_p^x, shell volumes, the level-0 additive character,
and the structure of the unit groups (Z/p^a)^x.

Conventions fixed once for the whole package:

* base field is Q_p, uniformizer p, residue size q = p;
* |x| = q^(-v(x)); additive Haar measure d+x gives Z_p volume 1 (self-dual
  for the level-0 character psi);
* multiplicative measure dx* = d+x / |x|, so every shell
  S_m = {|x| = q^(-m)} has volume 1 - 1/q and the coset 1 + p^k Z_p has
  volume q^(-k) for k >= 1;
* psi(x) = exp(2*pi*i*frac(x)) where frac reads the principal part of the
  p-adic expansion: trivial on Z_p, nontrivial on p^(-1) Z_p.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .defaults import DEFAULT_PREC
from .ratfunc import root_of_unity


class PrecisionError(ValueError):
    """An element does not carry enough p-adic digits for the request."""


@functools.cache
def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def check_prime(p: int) -> int:
    if not _is_prime(p):
        raise ValueError("p = %r is not prime" % (p,))
    return p


@dataclass(frozen=True)
class PAdicElt:
    """x = p^val * u in Q_p^x with u known modulo p^prec, gcd(u, p) = 1."""

    p: int
    val: int
    unit: int
    prec: int

    def __post_init__(self):
        check_prime(self.p)
        if self.prec < 1:
            raise ValueError("prec must be >= 1")
        u = self.unit % (self.p ** self.prec)
        if u % self.p == 0:
            raise ValueError("unit %r is divisible by p = %d" % (self.unit, self.p))
        object.__setattr__(self, "unit", u)

    # -- constructors ------------------------------------------------------

    @classmethod
    @functools.cache
    def at(cls, p: int, val: int, unit: int) -> "PAdicElt":
        """p^val * unit at DEFAULT_PREC digits, built once per process for
        each (p, val, unit) and shared (the class is immutable): the one
        representative that `MultStepFunction.terms`, the rows of
        `hankel_convolve` and the corpus functions use."""
        return cls(p, val, unit, DEFAULT_PREC)

    @classmethod
    def one(cls, p: int) -> "PAdicElt":
        """1 at DEFAULT_PREC digits, the shared `at(p, 0, 1)`."""
        return cls.at(p, 0, 1)

    @classmethod
    def from_int(cls, p: int, n: int, prec: int = DEFAULT_PREC) -> "PAdicElt":
        return cls.from_rational(p, Fraction(n), prec)

    @classmethod
    def from_rational(cls, p: int, x: Fraction, prec: int = DEFAULT_PREC) -> "PAdicElt":
        check_prime(p)
        x = Fraction(x)
        if x == 0:
            raise ValueError("0 is not in Q_p^x")
        num, den = x.numerator, x.denominator
        val = 0
        while num % p == 0:
            num //= p
            val += 1
        while den % p == 0:
            den //= p
            val -= 1
        mod = p ** prec
        unit = (num * pow(den, -1, mod)) % mod
        return cls(p, val, unit, prec)

    # -- views -------------------------------------------------------------

    def unit_mod(self, k: int) -> int:
        """The unit residue modulo p^k (k <= prec)."""
        if k > self.prec:
            raise PrecisionError(
                "need %d digits of the unit, element carries %d" % (k, self.prec))
        if k <= 0:
            return 1
        return self.unit % (self.p ** k)

    def lift(self) -> Fraction:
        """The canonical rational lift p^val * unit of this residue class."""
        return Fraction(self.unit) * Fraction(self.p) ** self.val

    def __repr__(self) -> str:
        return "PAdicElt(%d^%d * %d mod %d^%d)" % (
            self.p, self.val, self.unit, self.p, self.prec)

    # -- arithmetic (exact on residues; precision follows the operands) -----

    def _same_p(self, other: "PAdicElt") -> None:
        if self.p != other.p:
            raise ValueError("mixed primes %d, %d" % (self.p, other.p))

    def mul(self, other: "PAdicElt") -> "PAdicElt":
        self._same_p(other)
        prec = min(self.prec, other.prec)
        mod = self.p ** prec
        return PAdicElt(self.p, self.val + other.val,
                        (self.unit * other.unit) % mod, prec)

    def inv(self) -> "PAdicElt":
        mod = self.p ** self.prec
        return PAdicElt(self.p, -self.val, pow(self.unit, -1, mod), self.prec)

    def neg(self) -> "PAdicElt":
        mod = self.p ** self.prec
        return PAdicElt(self.p, self.val, (-self.unit) % mod, self.prec)

    def add(self, other: "PAdicElt") -> "PAdicElt | None":
        """x + y, or None when the sum vanishes to the joint precision.

        Absolute precision of the sum is min over the operands.  None says
        only that x + y lies in p^(that precision) Z_p; each caller checks
        that this decides its question (see `stepfn`).
        """
        self._same_p(other)
        a, b = (self, other) if self.val <= other.val else (other, self)
        abs_prec = min(a.val + a.prec, b.val + b.prec)
        rel = abs_prec - a.val
        if rel <= 0:
            raise PrecisionError("operands carry no overlapping digits")
        mod = self.p ** rel
        s = (a.unit + b.unit * pow(self.p, b.val - a.val, mod)) % mod
        if s == 0:
            return None
        shift = 0
        while s % self.p == 0:
            s //= self.p
            shift += 1
        if rel - shift < 1:
            return None
        return PAdicElt(self.p, a.val + shift, s, rel - shift)

    def sub(self, other: "PAdicElt") -> "PAdicElt | None":
        return self.add(other.neg())


def psi_value(x: "PAdicElt | None") -> complex:
    """psi(x) = exp(2*pi*i * frac_p(x)); the level-0 additive character, the
    package's only one (psi^(-1)(x) is psi(-x), `PAdicElt.neg`).

    Trivial on Z_p (val >= 0); otherwise a root of unity of order p^(-val).
    """
    if x is None or x.val >= 0:
        return 1.0 + 0.0j
    d = -x.val
    if x.prec < d:
        raise PrecisionError(
            "psi needs %d digits below the point, element carries %d" % (d, x.prec))
    return root_of_unity(x.unit_mod(d), x.p ** d)


def psi_frac(p: int, x: Fraction) -> complex:
    """psi at an exact rational argument."""
    x = Fraction(x)
    if x == 0:
        return 1.0 + 0.0j
    elt = PAdicElt.from_rational(p, x, DEFAULT_PREC)
    if elt.val >= 0:
        return 1.0 + 0.0j
    return psi_value(PAdicElt.from_rational(p, x, max(-elt.val, 1)))


def shell_volume(p: int) -> float:
    """Volume of every shell S_m = {|x| = q^(-m)} under dx* = d+x/|x|: 1 - 1/p."""
    check_prime(p)
    return 1.0 - 1.0 / p


# ---------------------------------------------------------------------------
# unit groups (Z/p^a)^x


def unit_residues(p: int, level: int) -> list[int]:
    """The units mod p^level in ascending order; [1] at level 0."""
    if level == 0:
        return [1]
    return [u for u in range(1, p ** level) if u % p]


@dataclass(frozen=True)
class UnitGroupTable:
    """Generators and discrete logs of (Z/p^a)^x.

    For odd p a single primitive root; for p = 2, a >= 3 the standard pair
    {-1, 5}.  `dlog` maps each residue to its exponent vector in the box
    prod_i Z/order_i.
    """

    p: int
    a: int
    generators: tuple[tuple[int, int], ...]  # (residue, order)
    dlog: dict[int, tuple[int, ...]]

    def order(self) -> int:
        n = 1
        for _, o in self.generators:
            n *= o
        return n

    def exp(self, vec: tuple[int, ...]) -> int:
        mod = self.p ** self.a
        r = 1
        for (g, o), k in zip(self.generators, vec):
            r = (r * pow(g, k % o, mod)) % mod
        return r


def _primitive_root(p: int, a: int) -> int:
    mod = p ** a
    order = (p - 1) * p ** (a - 1)
    factors = set()
    n, d = order, 2
    while d * d <= n:
        while n % d == 0:
            factors.add(d)
            n //= d
        d += 1
    if n > 1:
        factors.add(n)
    for g in range(2, mod):
        if g % p == 0:
            continue
        if all(pow(g, order // f, mod) != 1 for f in factors):
            return g
    raise RuntimeError("no primitive root found mod %d^%d" % (p, a))


@functools.cache
def unit_group(p: int, a: int) -> UnitGroupTable:
    """The structure table of (Z/p^a)^x (a >= 1), built once per process."""
    check_prime(p)
    if a < 1:
        raise ValueError("conductor exponent must be >= 1")
    mod = p ** a
    if p == 2:
        if a == 1:
            gens: tuple[tuple[int, int], ...] = ()
        elif a == 2:
            gens = ((3, 2),)
        else:
            gens = ((mod - 1, 2), (5, 2 ** (a - 2)))
    else:
        g = _primitive_root(p, a)
        gens = ((g, (p - 1) * p ** (a - 1)),)
    dlog: dict[int, tuple[int, ...]] = {}
    ranges = [range(o) for _, o in gens]
    vecs = [()]
    for r in ranges:
        vecs = [v + (k,) for v in vecs for k in r]
    for vec in vecs:
        r = 1
        for (g, o), k in zip(gens, vec):
            r = (r * pow(g, k, mod)) % mod
        dlog[r] = vec
    expected = 1 if (p == 2 and a == 1) else (p - 1) * p ** (a - 1) if p != 2 \
        else 2 ** (a - 1)
    if len(dlog) != expected:
        raise RuntimeError("unit group enumeration mismatch at (%d, %d)" % (p, a))
    return UnitGroupTable(p, a, gens, dlog)
