"""Fixed-point analysis on the invariant line: translation-invariant root
counting with thresholds, the level-parity (2-periodic) quadratic, and
parameter sweeps.

Everything here lives on the invariant line u_1 = 1 of the ratio recursion
(the 1<->3 spin symmetry preserves it), with branching order fixed at 2 so
the one-dimensional map is

    f(u) = ((xw*u + 2*yw) / (yw*u + xw + zw))^2.

Translation-invariant measures correspond to u = f(u); reducing by
x = u*xw/(2*yw) turns that into the cubic a*x*(b+x)^2 = (1+x)^2 in the
canonical parameters a = 2*yw^3/xw^3, b = xw*(xw+zw)/(2*yw^2). For b <= 9
it has one positive root. For b > 9 the tangency points x1 < x2 and their
thresholds eps_1 < eps_2 decide the count, and they also split (0, inf)
into the brackets (0, x1), (x1, x2), (x2, inf), each holding at most one
root; every root is found by sign bisection inside its bracket and then
polished by Newton steps on f(u) - u.

Proper 2-periodic measures solve u = f(f(u)) but not u = f(u). The exact
quotient num(f∘f - id) / num(f - id) is a quadratic A*u^2 + B*u + C with
the closed form

    A = (x^2 + xy + yz)^2,   C = (x^2 + 2xy + 2xz + z^2)^2,
    B = x^4 + 6x^3y + 2x^3z + 8x^2y^2 + 6x^2yz + x^2z^2 + 8xy^2z
        + 6xyz^2 - 4y^4 + 2yz^3

in (x, y, z) = (xw, yw, zw), evaluated exactly; the sign of its
discriminant decides existence. The composed-map division that derives
this closed form is a test oracle and is not run here.
"""

import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import DomainError, InternalConsistencyError
from .model import LambdaParams

K_CHILDREN = 2  # branching order baked into the squared map

_THRESHOLD_EQ_TOL = 1e-10    # |a_can - eps| below this times eps is on-boundary
_FIXED_POINT_RESIDUAL = 1e-9  # relative to max(1, u)
_PROPERNESS_GAP = 1e-6

INVARIANT_LINE_NOTE = ("invariant-line analysis only: first ratio component "
                       "pinned to 1; solutions off the line are out of scope")

@dataclass(frozen=True)
class BoltzmannWeights:
    """Edge weights (xw, yw, zw) = exp(beta*(c, b, a)) — note the pairing."""

    xw: float
    yw: float
    zw: float

    def __post_init__(self):
        for name in ("xw", "yw", "zw"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and v > 0 and math.isfinite(v)):
                raise DomainError(f"{name} must be a positive finite number, got {v!r}")

    @classmethod
    def from_mapping(cls, obj) -> "BoltzmannWeights":
        try:
            return cls(float(obj["xw"]), float(obj["yw"]), float(obj["zw"]))
        except KeyError as e:
            raise ValueError(f"missing weight {e.args[0]!r}") from None


@dataclass(frozen=True)
class CanonicalParams:
    a_can: float
    b_can: float


@dataclass(frozen=True)
class FixedPointReport:
    ti_roots: tuple[float, ...]        # u values on the invariant line
    regime: str                        # "unique" | "two" | "three"
    thresholds: tuple[float, float] | None  # (eps1, eps2) when b_can > 9
    phase_transition: bool
    canonical: CanonicalParams         # the (a_can, b_can) the roots came from


@dataclass(frozen=True)
class PeriodicReport:
    # (A, B, C) and D as floats; None where one is past the float range
    quad: tuple[float | None, float | None, float | None]
    discriminant: float | None
    proper_roots: tuple[float, ...]
    two_periodic_exists: bool


def weights_from(p: LambdaParams) -> BoltzmannWeights:
    try:
        return BoltzmannWeights(math.exp(p.beta * p.c), math.exp(p.beta * p.b),
                                math.exp(p.beta * p.a))
    except OverflowError:
        raise DomainError(
            f"an edge weight exp(beta*coupling) overflows a float at {p}") from None


def f_map(u: float, w: BoltzmannWeights) -> float:
    """The invariant-line map f(u) = ((xw*u + 2*yw)/(yw*u + xw + zw))^2."""
    return ((w.xw * u + 2.0 * w.yw) / (w.yw * u + (w.xw + w.zw))) ** K_CHILDREN


def canonical_params(w: BoltzmannWeights) -> CanonicalParams:
    try:
        a_can = 2.0 * w.yw ** 3 / w.xw ** 3
        b_can = w.xw * (w.xw + w.zw) / (2.0 * w.yw ** 2)
    except (OverflowError, ZeroDivisionError):
        a_can = b_can = math.nan  # rejected below
    if not (0.0 < a_can < math.inf and 0.0 < b_can < math.inf):
        raise DomainError(
            f"canonical parameters of {w} are not positive finite floats")
    return CanonicalParams(a_can, b_can)


def ti_thresholds(b_can: float) -> tuple[float, float, float, float]:
    """(x1, x2, eps1, eps2) for b_can > 9: x_i are the roots of
    x^2 + (3-b)x + b = 0 and eps_i = (1/x_i)*((1+x_i)/(b+x_i))^2."""
    b = b_can
    if b <= 9:
        raise DomainError(f"thresholds exist only for b_can > 9, got {b}")
    disc = (b - 1.0) * (b - 9.0)
    if disc == math.inf:  # b_can above about 1e154, where eps1 ~ 4/b^2 underflows
        raise DomainError(f"thresholds at b_can={b} are out of float range")
    s = math.sqrt(disc)
    x2 = ((b - 3.0) + s) / 2.0
    x1 = b / x2  # product of the quadratic's roots is b; this form is stable

    def eps(x: float) -> float:
        return (1.0 / x) * ((1.0 + x) / (b + x)) ** 2

    return x1, x2, eps(x1), eps(x2)


def _bisect_cubic_root(a: float, b: float, lo: float, hi: float) -> float:
    """The root of a*x*(b+x)^2 - (1+x)^2 in (lo, hi), where its sign changes.

    The sign is read as a*x*((b+x)/(1+x))^2 against 1, which stays in
    range wherever the comparison is close. Midpoints are geometric while
    the bracket spans more than a factor of two, so roots anywhere in the
    float range take a few dozen steps, and arithmetic after that; the
    bracket shrinks to adjacent floats. Once hi <= 2*lo holds, halving
    keeps it, so the second loop never hands back to the first.
    """
    r = (b + lo) / (1.0 + lo)
    lo_above = a * lo * r * r > 1.0
    while hi > 2.0 * lo:
        mid = math.sqrt(lo) * math.sqrt(hi)
        if not lo < mid < hi:
            return mid
        r = (b + mid) / (1.0 + mid)
        if (a * mid * r * r > 1.0) == lo_above:
            lo = mid
        else:
            hi = mid
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        r = (b + mid) / (1.0 + mid)
        if (a * mid * r * r > 1.0) == lo_above:
            lo = mid
        else:
            hi = mid


def canonical_root_count(a_can: float, b_can: float):
    """Positive roots of the reduced cubic plus the regime verdict.

    Returns (roots_x, regime, thresholds): regime follows the threshold
    case analysis — unique for b <= 9, three strictly inside (eps1, eps2),
    two within 1e-10 relative of eps1 or eps2 (the tangency point there is
    reported as the double root), unique otherwise. The same comparisons
    choose the brackets searched, so the root count matches the regime.
    """
    a, b = a_can, b_can
    if a <= 0 or b <= 0:
        raise DomainError("canonical parameters must be positive")
    # a*x*(b+x)^2 < (1+x)^2 below lo and > above hi (bounds on (1+x)^2 and
    # (b+x)^2 for x <= 1 and x >= 1)
    lo = 0.5 * min(1.0, 1.0 / a / (b + 1.0) / (b + 1.0))
    hi = 2.0 * max(1.0, 4.0 / a)
    if b <= 9:
        return (_bisect_cubic_root(a, b, lo, hi),), "unique", None
    x1, x2, eps1, eps2 = ti_thresholds(b)
    if abs(a - eps1) <= _THRESHOLD_EQ_TOL * eps1:
        roots, regime = (x1, _bisect_cubic_root(a, b, x2, hi)), "two"
    elif abs(a - eps2) <= _THRESHOLD_EQ_TOL * eps2:
        roots, regime = (_bisect_cubic_root(a, b, lo, x1), x2), "two"
    elif eps1 < a < eps2:
        roots = tuple(_bisect_cubic_root(a, b, *bracket)
                      for bracket in ((lo, x1), (x1, x2), (x2, hi)))
        regime = "three"
    else:
        # one root, past x2 below eps1 and short of x1 above eps2
        bracket = (x2, hi) if a < eps1 else (lo, x1)
        roots, regime = (_bisect_cubic_root(a, b, *bracket),), "unique"
    return roots, regime, (eps1, eps2)


def count_ti_roots(w: BoltzmannWeights) -> FixedPointReport:
    """Translation-invariant fixed points on the invariant line."""
    can = canonical_params(w)
    roots_x, regime, thresholds = canonical_root_count(can.a_can, can.b_can)
    scale = 2.0 * w.yw / w.xw
    u_roots = []
    for x in roots_x:
        u = _polish_fixed_point(x * scale, w)
        if not abs(u - f_map(u, w)) <= _FIXED_POINT_RESIDUAL * max(1.0, u):
            raise InternalConsistencyError(
                f"fixed-point residual {abs(u - f_map(u, w)):.3e} at u={u}")
        u_roots.append(u)
    return FixedPointReport(tuple(sorted(u_roots)), regime, thresholds,
                            regime != "unique", can)


def _polish_fixed_point(u: float, w: BoltzmannWeights) -> float:
    """A few Newton steps on g(u) = f(u) - u."""
    xw, yw = w.xw, w.yw
    den0 = xw + w.zw
    for _ in range(4):
        num = xw * u + 2.0 * yw  # f(u) = (num/den)^2, as in f_map
        den = yw * u + den0
        ratio = num / den
        g = ratio * ratio - u
        dg = 2.0 * ratio * (xw * den - num * yw) / (den * den) - 1.0
        if dg == 0.0:
            break
        step = g / dg
        if not math.isfinite(step) or abs(step) > 0.5 * max(1.0, abs(u)):
            break
        u -= step
        if abs(step) <= 1e-16 * max(1.0, abs(u)):
            break
    return u


def _quadratic_numerators(w: BoltzmannWeights) -> tuple[int, int, int, int]:
    """Integers (a, b, c, scale) with (A, B, C) = (a, b, c) / scale.

    A, B and C (closed form in the module docstring) are homogeneous of
    degree 4 in the weights, and floats are integers over powers of two,
    so they are evaluated on integers over the largest of the three
    denominators, whose fourth power is the scale.
    """
    ratios = [v.as_integer_ratio() for v in (w.xw, w.yw, w.zw)]
    d = max(den for _, den in ratios)  # powers of two: a common multiple
    x, y, z = (num * (d // den) for num, den in ratios)
    xx, yy, zz = x * x, y * y, z * z
    a = (xx + x * y + y * z) ** 2
    c = (xx + 2 * x * (y + z) + zz) ** 2
    b = (xx * (xx + 6 * x * y + 2 * x * z + 8 * yy + 6 * y * z + zz)
         + 2 * x * y * z * (4 * y + 3 * z) - 4 * yy * yy + 2 * y * z * zz)
    return a, b, c, d ** 4


def periodic_quadratic(w: BoltzmannWeights) -> tuple[Fraction, Fraction, Fraction]:
    """(A, B, C) of the exact quotient numerator(f∘f - id)/numerator(f - id)."""
    a, b, c, scale = _quadratic_numerators(w)
    return Fraction(a, scale), Fraction(b, scale), Fraction(c, scale)


def two_periodic_report(w: BoltzmannWeights) -> PeriodicReport:
    """Proper 2-periodic solutions on the invariant line.

    Existence is decided exactly: B < 0 and D > 0 in integer arithmetic
    (A and C are positive for all positive weights, so this is equivalent
    to the quadratic having two positive roots). A, B, C or D past the
    float range is reported as None. Near D = 0 the root pair
    degenerates toward a translation-invariant point and the properness
    gap |r - f(r)| > 1e-6 empties the list.
    """
    a, b, c, scale = _quadratic_numerators(w)
    disc = b * b - 4 * a * c  # D times scale^2
    exists = b < 0 and disc > 0

    def as_float(num: int, den: int) -> float | None:
        try:  # int / int rounds correctly, as float(Fraction) does
            return num / den
        except OverflowError:
            return None

    quad = (as_float(a, scale), as_float(b, scale), as_float(c, scale))
    disc_f = as_float(disc, scale * scale)

    roots: list[float] = []
    if disc > 0:
        # the roots are the same for any common factor of a, b and c; a
        # power of two near their size keeps the floats in range and,
        # where quad is in range, gives the same roots bit for bit
        norm = 2 ** max(a, abs(b), c).bit_length()
        af, bf, cf = a / norm, b / norm, c / norm
        s = math.sqrt(disc / (norm * norm))
        q = -(bf + math.copysign(s, bf)) / 2.0
        roots = [q / af, cf / q]
    elif disc == 0:
        roots = [-b / (2 * a)]

    proper = []
    for r in roots:
        if r <= 0:
            continue
        fr = f_map(r, w)
        if not abs(r - f_map(fr, w)) < _FIXED_POINT_RESIDUAL * max(1.0, r):
            raise InternalConsistencyError(
                f"2-periodic residual too large at root {r}")
        if abs(r - fr) > _PROPERNESS_GAP:
            proper.append(r)
    return PeriodicReport(quad, disc_f, tuple(sorted(proper)), exists)


class SweepRow(NamedTuple):
    a: float | None
    b: float | None
    c: float | None
    beta: float | None
    xw: float
    yw: float
    zw: float
    a_can: float
    b_can: float
    ti_count: int
    eps1: float | None
    eps2: float | None
    B: float | None
    D: float | None
    two_periodic: bool
    phase_transition: bool


SWEEP_COLUMNS = SweepRow._fields


def _sweep_point(point) -> SweepRow:
    if isinstance(point, LambdaParams):
        w = weights_from(point)
        abc = (point.a, point.b, point.c, point.beta)
    else:
        w = point
        abc = (None, None, None, None)
    fp = count_ti_roots(w)
    pr = two_periodic_report(w)
    eps1, eps2 = fp.thresholds if fp.thresholds else (None, None)
    return SweepRow(*abc, w.xw, w.yw, w.zw,
                    fp.canonical.a_can, fp.canonical.b_can, len(fp.ti_roots),
                    eps1, eps2, pr.quad[1], pr.discriminant,
                    pr.two_periodic_exists,
                    fp.phase_transition or pr.two_periodic_exists)


def sweep(points) -> list[SweepRow]:
    """One row per grid point, in the given order."""
    return [_sweep_point(pt) for pt in points]


_BOOL_CELLS = ("false", "true")


@functools.cache
def _csv_row_format(kinds: tuple[type, ...]) -> tuple[str, tuple[int, ...]]:
    """The str.format template of a CSV row whose cells have these types,
    and the positions of its boolean cells.

    Floats print as format(v, ".15g"), None as an empty cell, booleans as
    true/false (their text is passed after the row's own cells) and
    anything else as str(v). Rows from `sweep` take a few type patterns,
    so the cache stays small.
    """
    fields, flags = [], []
    for i, kind in enumerate(kinds):
        if kind is type(None):
            fields.append("")
        elif issubclass(kind, bool):
            fields.append("{%d}" % (len(kinds) + len(flags)))
            flags.append(i)
        elif issubclass(kind, float):
            fields.append("{%d:.15g}" % i)
        else:
            fields.append("{%d!s}" % i)
    return ",".join(fields), tuple(flags)


def sweep_to_csv(rows: list[SweepRow]) -> str:
    lines = [",".join(SWEEP_COLUMNS)]
    for row in rows:
        # a tuple display: tuple(map(...)) builds its result by resizing,
        # and the freed 16-slot keys pile up on the interpreter's tuple
        # free list (336 KB after 2000 rows)
        template, flags = _csv_row_format((*map(type, row),))
        lines.append(template.format(*row, *[_BOOL_CELLS[row[i]] for i in flags]))
    return "\n".join(lines) + "\n"


def sweep_to_jsonl(rows: list[SweepRow]) -> str:
    lines = [json.dumps({col: float(format(v, ".15g")) if isinstance(v, float)
                         else v for col, v in zip(SWEEP_COLUMNS, row)})
             for row in rows]
    return "\n".join(lines) + "\n"
