"""Step functions on Q_p and Q_p^x with exact transforms.

Two function models:

* StepFunction -- finite sums coeff * psi(twist*x) * 1_{center + p^rad Z_p},
  the Schwartz-Bruhat functions on Q_p.  The class is closed under the
  standard Fourier transform, which is computed term by term in closed form:

      F_psi(psi(a.)1_{b+p^n Z_p})(y) = p^(-n) psi(ab) psi(by) 1_{-a+p^(-n)Z_p}(y).

* MultStepFunction -- finite sums coeff * 1_{rep*(1+p^k Z_p)} (k = 0 meaning
  rep*Z_p^x), the compactly supported locally constant functions on Q_p^x.
  Its one form, fixed on construction so threads may share it, is the shell
  table shell -> (level, unit mod p^level -> coeff) of disjoint cosets, read
  and written in integers; the `MultTerm` view `terms` is built when read.

M(f)(omega)(X) = integral of f(x) omega(x) |x|^s dx*, for a unitary
unit-group character omega (t = 1), is computed one omega at a time by
`mellin_component`, the only integral of a MultStepFunction against a
character; `mellin` collects the components in a MellinData.  Each is a
Laurent polynomial, and the finite character sum `mellin_invert` inverts it
exactly, on integer unit residues, reading each value table once per call.

`PAdicElt` is the boundary type: `MultTerm.rep` and the argument of `eval`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .characters import MultChar, unit_values, unitary_components
from .defaults import DEFAULT_PREC, PRUNE_REL_EPS
from .padic import (PAdicElt, PrecisionError, check_prime, psi_value, shell_volume,
                    unit_residues)
from .ratfunc import LaurentPoly, RationalFunc, rf_series_coeffs


# ---------------------------------------------------------------------------
# additive model


@dataclass(frozen=True)
class StepTerm:
    coeff: complex
    twist: PAdicElt | None   # None encodes twist 0 (no oscillation)
    center: PAdicElt | None  # None encodes the ball p^rad Z_p around 0
    rad: int

    def ball_contains(self, x: PAdicElt | None) -> bool:
        if x is None:
            return self.center is None
        if self.center is None:
            return x.val >= self.rad
        d = x.sub(self.center)
        if d is None:
            # x - center vanishes to the joint absolute precision, which
            # decides membership only if it reaches the radius
            known = _abs_prec(x, self.center)
            if known < self.rad:
                raise PrecisionError(
                    "ball of radius p^%d needs %d absolute digits, the point "
                    "and the center share %d" % (self.rad, self.rad, known))
            return True
        return d.val >= self.rad


def _abs_prec(x: PAdicElt, y: PAdicElt) -> int:
    """The absolute precision of x - y: both are known modulo p^this."""
    return min(x.val + x.prec, y.val + y.prec)


class StepFunction:
    """A Schwartz-Bruhat function on Q_p in reduced term form."""

    def __init__(self, p: int, terms):
        check_prime(p)
        self.p = p
        self.terms = tuple(self._reduce(t) for t in terms
                           if t.coeff != 0)

    def _reduce(self, t: StepTerm) -> StepTerm:
        coeff, twist, center, rad = t.coeff, t.twist, t.center, t.rad
        for x in (twist, center):
            if x is not None and x.p != self.p:
                raise ValueError("mixed primes %d, %d" % (self.p, x.p))
        if center is not None and center.val >= rad:
            center = None
        if center is not None and center.val < rad:
            # canonical ball label: center taken mod p^rad
            k = rad - center.val
            center = PAdicElt(self.p, center.val, center.unit_mod(k),
                              max(center.prec, DEFAULT_PREC))
        if twist is not None and twist.val + rad >= 0:
            # psi(twist*x) is constant on the ball; fold it into the coeff
            if center is not None:
                coeff *= psi_value(twist.mul(center))
            twist = None
        return StepTerm(complex(coeff), twist, center, rad)

    def __mul__(self, c: complex) -> "StepFunction":
        return StepFunction(self.p, [StepTerm(t.coeff * c, t.twist, t.center, t.rad)
                                     for t in self.terms])

    __rmul__ = __mul__

    def __add__(self, other: "StepFunction") -> "StepFunction":
        if self.p != other.p:
            raise ValueError("mixed primes")
        return StepFunction(self.p, self.terms + other.terms)

    def eval(self, x: PAdicElt | None) -> complex:
        total = 0.0 + 0.0j
        for t in self.terms:
            if t.ball_contains(x):
                v = t.coeff
                if t.twist is not None and x is not None:
                    v *= psi_value(t.twist.mul(x))
                total += v
        return total

    def __repr__(self) -> str:
        return "StepFunction(p=%d, %d terms)" % (self.p, len(self.terms))


def indicator_ball(p: int, center: PAdicElt | None, rad: int,
                   twist: PAdicElt | None = None) -> StepFunction:
    return StepFunction(p, [StepTerm(1.0 + 0.0j, twist, center, rad)])


def fourier_transform(f: StepFunction) -> StepFunction:
    """The standard Fourier transform F_psi of f.

    Exact closed form per term; F_psi applied twice is f -> f(-x), so
    F_{psi^(-1)} = (x -> -x) o F_psi.
    """
    out = []
    for t in f.terms:
        coeff = t.coeff * float(f.p) ** (-t.rad)
        if t.twist is not None and t.center is not None:
            coeff *= psi_value(t.twist.mul(t.center))
        center = t.twist.neg() if t.twist is not None else None
        out.append(StepTerm(coeff, t.center, center, -t.rad))
    return StepFunction(f.p, out)


def _ball_intersection(t1: StepTerm, t2: StepTerm):
    """Intersection of the two balls: (center, rad) or None if disjoint.

    Balls are nested or disjoint; in reduced form a non-None center has
    valuation < rad, so the center difference decides containment.
    """
    a, b = (t1, t2) if t1.rad <= t2.rad else (t2, t1)
    if b.center is None and a.center is None:
        return (b.center, b.rad)
    if b.center is None:
        return None  # 0 lies in a's ball only if a.center reduced to None
    if a.center is None:
        return (b.center, b.rad) if b.center.val >= a.rad else None
    d = b.center.sub(a.center)
    # d = None is exact containment: `StepFunction._reduce` leaves every
    # center known to at least its radius in absolute digits, so the
    # difference is known to min(a.rad, b.rad) = a.rad digits.
    if d is not None and d.val < a.rad:
        return None
    return (b.center, b.rad)


def step_inner(f: StepFunction, g: StepFunction) -> complex:
    """Exact L2 pairing integral of f * conj(g) against d+x."""
    if f.p != g.p:
        raise ValueError("mixed primes")
    p = f.p
    total = 0.0 + 0.0j
    for t1 in f.terms:
        for t2 in g.terms:
            inter = _ball_intersection(t1, t2)
            if inter is None:
                continue
            center, rad = inter
            # effective oscillation psi((a1 - a2) x) on the intersection
            if t1.twist is None and t2.twist is None:
                b = None
            elif t2.twist is None:
                b = t1.twist
            elif t1.twist is None:
                b = t2.twist.neg()
            else:
                b = t1.twist.sub(t2.twist)
                if b is None:
                    # the twists agree to their joint absolute precision;
                    # psi(b x) = 1 on the ball needs that precision to reach
                    # -rad and -v(center)
                    need = -min(rad, center.val if center is not None else rad)
                    known = _abs_prec(t1.twist, t2.twist)
                    if known < need:
                        raise PrecisionError(
                            "twist difference needs %d absolute digits, the "
                            "twists share %d" % (need, known))
            if b is not None and b.val + rad < 0:
                continue  # full additive character sum over the ball: 0
            val = float(p) ** (-rad)
            if b is not None and center is not None:
                val *= psi_value(b.mul(center))
            total += t1.coeff * t2.coeff.conjugate() * val
    return total


def step_l2(f: StepFunction) -> float:
    return step_inner(f, f).real


def step_distance_sq(f: StepFunction, g: StepFunction) -> float:
    """Exact integral of |f - g|^2 against d+x."""
    return max(step_l2(f) + step_l2(g) - 2.0 * step_inner(f, g).real, 0.0)


# ---------------------------------------------------------------------------
# multiplicative model


@dataclass(frozen=True)
class MultTerm:
    coeff: complex
    rep: PAdicElt
    k: int  # coset 1 + p^k Z_p; k = 0 means rep * Z_p^x


class MultStepFunction:
    """A compactly supported locally constant function on Q_p^x.

    Its one form is the shell table `_shells`: shell m -> (level, unit
    residue mod p^level -> coeff), shells and residues ascending, the cosets
    of a shell pairwise disjoint at its common level.  `terms` is its view as
    `MultTerm`s, built on first read (racing reads build equal views); each
    rep is the shared `PAdicElt.at(p, m, residue)`, so a function whose input
    reps came from `PAdicElt.at` gets its own reps back, and a second function
    on the same cosets builds no `PAdicElt`.
    """

    def __init__(self, p: int, terms):
        check_prime(p)
        self.p = p
        given = [t for t in terms if t.coeff != 0]
        self._terms: tuple[MultTerm, ...] | None = None
        levels: dict[int, int] = {}   # shell -> the finest level on it
        for t in given:
            if t.k < 0:
                raise ValueError("coset level must be >= 0")
            if t.rep.p != p:
                raise ValueError("mixed primes %d, %d" % (p, t.rep.p))
            levels[t.rep.val] = max(levels.get(t.rep.val, 0), t.k)
        table = {m: (level, {}) for m, level in levels.items()}
        for t in given:
            level, merged = table[t.rep.val]
            for u in _refined_units(p, t, level):
                merged[u] = merged.get(u, 0.0) + t.coeff
        self._shells = _pruned(table, [t.coeff for t in given])

    @classmethod
    def from_shells(cls, p: int, table) -> "MultStepFunction":
        """The function of a shell table, pruned as the constructor prunes."""
        f = cls(p, ())
        f._shells = _pruned(table, [c for _, cs in table.values()
                                    for c in cs.values()])
        return f

    @property
    def terms(self) -> tuple[MultTerm, ...]:
        if self._terms is None:
            self._terms = tuple(
                MultTerm(c, PAdicElt.at(self.p, m, u), level)
                for m, (level, coeffs) in self._shells.items()
                for u, c in coeffs.items())
        return self._terms

    def max_level(self) -> int:
        return max((level for level, _ in self._shells.values()), default=0)

    def shells(self) -> list[int]:
        return list(self._shells)

    def eval(self, x: PAdicElt) -> complex:
        shell = self._shells.get(x.val)
        if shell is None:
            return 0.0 + 0.0j
        level, coeffs = shell
        return coeffs.get(x.unit_mod(level), 0.0 + 0.0j)

    def scaled_arg(self, a: PAdicElt) -> "MultStepFunction":
        """The translate x -> f(a^(-1) x), supported on a * supp(f)."""
        return MultStepFunction(self.p,
                                [MultTerm(t.coeff, a.mul(t.rep), t.k)
                                 for t in self.terms])

    def __mul__(self, c: complex) -> "MultStepFunction":
        return MultStepFunction(self.p, [MultTerm(t.coeff * c, t.rep, t.k)
                                         for t in self.terms])

    __rmul__ = __mul__

    def __add__(self, other: "MultStepFunction") -> "MultStepFunction":
        if self.p != other.p:
            raise ValueError("mixed primes")
        return MultStepFunction(self.p, self.terms + other.terms)

    def __repr__(self) -> str:
        return "MultStepFunction(p=%d, %d terms)" % (self.p, len(self.terms))


def _pruned(table, coeffs) -> dict[int, tuple[int, dict[int, complex]]]:
    """The table in ascending order without the values of modulus at most
    max|coeffs| * PRUNE_REL_EPS, or exactly 0, and the shells left empty."""
    cut = max(map(abs, coeffs), default=0.0) * PRUNE_REL_EPS
    out = {}
    for m in sorted(table):
        level, merged = table[m]
        kept = {u: complex(c) for u, c in sorted(merged.items())
                if not (abs(c) <= cut or c == 0)}
        if kept:
            out[m] = (level, kept)
    return out


def _refined_units(p: int, t: MultTerm, level: int):
    """Unit residues mod p^level of the 1+p^level cosets tiling t's coset."""
    if t.k == 0:  # also every level-0 term, since t.k <= level
        yield from unit_residues(p, level)
        return
    mod = p ** level
    u_rep = t.rep.unit_mod(level)
    step = p ** t.k
    for j in range(p ** (level - t.k)):
        yield (u_rep * (1 + step * j)) % mod


def coset_indicator(p: int, rep: PAdicElt, k: int, coeff: complex = 1.0) -> MultStepFunction:
    return MultStepFunction(p, [MultTerm(complex(coeff), rep, k)])


def unit_indicator(p: int) -> MultStepFunction:
    """The indicator of the unit group Z_p^x."""
    return coset_indicator(p, PAdicElt.one(p), 0)


def delta_approximant(p: int, k: int) -> MultStepFunction:
    """1_{1+p^k Z_p} / vol, the convolution unit at scale k (k >= 1)."""
    if k < 1:
        raise ValueError("delta approximant needs k >= 1")
    vol = float(p) ** (-k)
    return coset_indicator(p, PAdicElt.one(p), k, 1.0 / vol)


def mult_convolve(f: MultStepFunction, g: MultStepFunction) -> MultStepFunction:
    """(f*g)(x) = integral of f(y) g(y^(-1) x) dy*, exact on coset pairs."""
    if f.p != g.p:
        raise ValueError("mixed primes")
    p = f.p
    out: list[MultTerm] = []
    for t1 in f.terms:
        for t2 in g.terms:
            level = max(t1.k, t2.k)
            if level == 0:
                # full shells: S_a * S_b spreads over S_{a+b} with volume 1-1/p
                rep = PAdicElt(p, t1.rep.val + t2.rep.val, 1, DEFAULT_PREC)
                out.append(MultTerm(t1.coeff * t2.coeff * shell_volume(p), rep, 0))
                continue
            vol = float(p) ** (-level)
            for u1 in _refined_units(p, t1, level):
                r1 = PAdicElt(p, t1.rep.val, u1, DEFAULT_PREC)
                for u2 in _refined_units(p, t2, level):
                    r2 = PAdicElt(p, t2.rep.val, u2, DEFAULT_PREC)
                    out.append(MultTerm(t1.coeff * t2.coeff * vol,
                                        r1.mul(r2), level))
    return MultStepFunction(p, out)


# ---------------------------------------------------------------------------
# Mellin data


@dataclass
class MellinData:
    """Components omega -> M(f)(omega)(X), for unitary omega with t = 1."""

    p: int
    c_max: int
    comps: dict[MultChar, RationalFunc] = field(default_factory=dict)

    def component(self, omega: MultChar) -> RationalFunc:
        if omega.cond > self.c_max:
            raise KeyError("component of conductor %d beyond c_max %d"
                           % (omega.cond, self.c_max))
        zero = RationalFunc.zero(self.p)
        return self.comps.get(omega.unitary_part(), zero)

    def nonzero_components(self):
        return [(w, rf) for w, rf in self.comps.items() if not rf.is_zero()]


def mellin_component(f: MultStepFunction, omega: MultChar) -> RationalFunc:
    """M(f)(omega)(X) = sum_m X^m * (coset sums of f * omega on S_m), for a
    unitary omega (t = 1).  The only integral of a MultStepFunction against
    a character: `zetagamma.zeta` rescales it.  omega's value table is read
    once per call, and not at all when no shell is fine enough to see it."""
    p = f.p
    if omega.p != p:
        raise ValueError("mixed primes %d, %d" % (p, omega.p))
    if omega.cond > f.max_level():
        return RationalFunc.zero(p)
    values = unit_values(p, omega.cond, omega.unit_char)
    n = len(values)
    acc: dict[int, complex] = {}
    for m, (level, coeffs) in f._shells.items():
        if omega.cond > level:
            continue  # omega nontrivial on the coset subgroup: integral 0
        vol = shell_volume(p) if level == 0 else float(p) ** (-level)
        acc[m] = sum((c * values[u % n] * vol for u, c in coeffs.items()), 0.0)
    poly = LaurentPoly(p, acc)
    if poly.is_zero():
        return RationalFunc.zero(p)
    return RationalFunc.from_poly(poly)


def mellin(f: MultStepFunction, c_max: int | None = None) -> MellinData:
    """Every nonzero `mellin_component` of f up to conductor c_max."""
    if c_max is None:
        c_max = f.max_level()
    if c_max < f.max_level():
        raise ValueError("c_max %d below the function's coset level %d"
                         % (c_max, f.max_level()))
    data = MellinData(f.p, c_max)
    for omega in unitary_components(f.p, c_max):
        comp = mellin_component(f, omega)
        if not comp.is_zero():
            data.comps[omega] = comp
    return data


def mellin_invert(d: MellinData, m_lo: int, m_hi: int, c_max: int) -> MultStepFunction:
    """Reconstruct shell values on m in [m_lo, m_hi], refined to 1+p^c_max
    cosets, by finite character sums against the series coefficients.

    Exact left-inverse of `mellin` on the window.  The values are written
    into a shell table, with no `MultTerm` and no `PAdicElt`.  An empty
    window (m_lo > m_hi) is a ValueError.
    """
    if m_lo > m_hi:
        raise ValueError("empty window [%d, %d]" % (m_lo, m_hi))
    for omega, rf in d.comps.items():
        if omega.cond > c_max and not rf.is_zero():
            raise ValueError("nonzero component of conductor %d exceeds c_max %d"
                             % (omega.cond, c_max))
    p = d.p
    vol_units = shell_volume(p)
    unit_reps = unit_residues(p, c_max)
    # per component: its series coefficients on the window and the conjugate
    # of its value at each unit rep, each read once
    columns = []
    for w in unitary_components(p, c_max):
        rf = d.comps.get(w)
        if rf is None:
            continue
        values = unit_values(p, w.cond, w.unit_char)
        columns.append((rf_series_coeffs(rf, m_lo, m_hi),
                        [values[u % len(values)].conjugate() for u in unit_reps]))
    table: dict[int, tuple[int, dict[int, complex]]] = {}
    for i, m in enumerate(range(m_lo, m_hi + 1)):
        live = [(series[i], conj) for series, conj in columns if series[i] != 0]
        for j, u in enumerate(unit_reps):
            v = 0.0 + 0.0j
            for c, conj in live:
                v += c * conj[j]
            v /= vol_units
            if v != 0:
                table.setdefault(m, (c_max, {}))[1][u] = v
    return MultStepFunction.from_shells(p, table)


def mult_distance(f: MultStepFunction, g: MultStepFunction) -> float:
    """Max pointwise |f - g| over coset representatives of the joint
    support."""
    p = f.p
    level = max(f.max_level(), g.max_level(), 1)
    worst = 0.0
    for m in sorted(set(f.shells()) | set(g.shells())):
        for u in unit_residues(p, level):
            x = PAdicElt(p, m, u, DEFAULT_PREC)
            worst = max(worst, abs(f.eval(x) - g.eval(x)))
    return worst
