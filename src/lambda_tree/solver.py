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
it has one positive root. For b > 9 it has one, two or three, counted
exactly from the sign of one integer: the quartic T of _ti_count, on the
weights as the integers of _integers, the same integers D is read from.
No tolerance enters the count; the floats a_can and b_can only locate
the roots. The tangency points x1 < x2 (with thresholds eps_1 < eps_2,
where a root is double) split (0, inf) into the brackets (0, x1),
(x1, x2), (x2, inf), each holding at most one root; every root is found
by sign bisection inside its bracket and then polished by Newton steps
on f(u) - u.

Proper 2-periodic measures solve u = f(f(u)) but not u = f(u). The exact
quotient num(f∘f - id) / num(f - id) is a quadratic A*u^2 + B*u + C with
the closed form

    A = α^2,   B = 2αγ - s^2,   C = γ^2,   D = B^2 - 4AC = s^2 (s^2 - 4αγ),
    α = x^2 + xy + yz,   γ = x^2 + 2x(y + z) + z^2,   s = x(x + z) - 2y^2

in (x, y, z) = (xw, yw, zw), evaluated exactly on _integers; the sign of
D decides existence. The composed-map division that derives this closed
form is a test oracle and is not run here.

count_ti_roots and two_periodic_report find and check the roots, and
are the only builders of CanonicalParams, FixedPointReport and
PeriodicReport. A sweep row prints no root, so it is built from the two
exact counts alone: the canonical parameters and, past b = 9, the
thresholds and the sign of T, then the integers behind A, B, C and D.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DomainError, InternalConsistencyError, _echo_number
from .model import LambdaParams, edge_weight, finite_number

_FIXED_POINT_RESIDUAL = 1e-9  # relative to max(1, u)
_MODERATE_WEIGHTS = (2.0 ** -256, 2.0 ** 256)  # weights used as given, not rescaled

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
            if not (finite_number(v) and v > 0):
                raise DomainError(
                    f"{name} must be a positive finite number, got {_echo_number(v)}")


@dataclass(frozen=True)
class CanonicalParams:
    a_can: float
    b_can: float


@dataclass(frozen=True)
class FixedPointReport:
    """The translation-invariant fixed points on the invariant line.

    phase_transition is regime != "unique" alone. It does not read the
    2-periodic verdict, so it can be false where two_periodic_report finds
    a proper cycle; SweepRow's phase_transition counts both.
    """

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


def _edge_weights(p: LambdaParams) -> tuple[float, float, float]:
    """(xw, yw, zw) of p: edge_weight's DomainError where one overflows,
    and BoltzmannWeights' where one underflows to 0."""
    xw, yw, zw = edge_weight(p.c, p), edge_weight(p.b, p), edge_weight(p.a, p)
    if not (xw and yw and zw):
        BoltzmannWeights(xw, yw, zw)  # raises, naming the weight
    return xw, yw, zw


def weights_from(p: LambdaParams) -> BoltzmannWeights:
    return BoltzmannWeights(*_edge_weights(p))


def _line_map(u: float, xw: float, yw: float, zw: float) -> float:
    """The invariant-line map f(u) = ((xw*u + 2*yw)/(yw*u + xw + zw))^2."""
    return ((xw * u + 2.0 * yw) / (yw * u + (xw + zw))) ** 2


def _moderate(xw: float, yw: float, zw: float) -> tuple[float, float, float]:
    """The weights themselves while each lies in [2^-256, 2^256]; otherwise
    the three times the power of two that puts yw in [1, 2). The canonical
    parameters, the map's fixed points and the 2-periodic roots depend on
    the weights only through their ratios, and a power of two scales a
    float exactly, so a common factor of e^300 or more changes no verdict.
    The weights come back as given if the rescale would leave the positive
    floats."""
    lo, hi = _MODERATE_WEIGHTS
    if lo <= xw <= hi and lo <= yw <= hi and lo <= zw <= hi:
        return xw, yw, zw
    shift = 1 - math.frexp(yw)[1]
    try:
        v = (math.ldexp(xw, shift), math.ldexp(yw, shift), math.ldexp(zw, shift))
    except OverflowError:
        return xw, yw, zw
    return v if v[0] and v[1] and v[2] else (xw, yw, zw)  # none underflows to 0


def _canonical(xw: float, yw: float, zw: float):
    """(a_can, b_can, v): the canonical parameters, computed on the
    moderated weights v = _moderate(xw, yw, zw); a DomainError names
    BoltzmannWeights(xw, yw, zw)."""
    v = _moderate(xw, yw, zw)
    mx, my, mz = v
    try:
        a_can = 2.0 * my ** 3 / mx ** 3
        b_can = mx * (mx + mz) / (2.0 * my ** 2)
    except (OverflowError, ZeroDivisionError):
        a_can = b_can = math.nan  # rejected below
    if not (0.0 < a_can < math.inf and 0.0 < b_can < math.inf):
        raise DomainError(f"canonical parameters of {BoltzmannWeights(xw, yw, zw)} "
                          f"are not positive finite floats")
    return a_can, b_can, v


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
    keeps it, so the second loop never hands back to the first. One loop
    with a conditional midpoint gives the same roots bit for bit but costs
    about 0.6 µs more a root, some 3% of a sweep.
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


def _integers(xw: float, yw: float, zw: float) -> tuple[int, int, int, int]:
    """(x, y, z, d): the weights as the integers x/d, y/d, z/d over the
    largest of their denominators. Floats are integers over powers of two,
    so that denominator is a multiple of the other two."""
    ratios = [v.as_integer_ratio() for v in (xw, yw, zw)]
    d = max(den for _, den in ratios)
    x, y, z = (num * (d // den) for num, den in ratios)
    return x, y, z, d


def _ti_count(x: int, y: int, z: int) -> int:
    """Distinct translation-invariant fixed points of the integer weights
    (x, y, z), past b = 9: 3, 2 or 1 as T is positive, zero or negative.

    T = -2x^3y*Q(a, b) at the weights' exact canonical values, with Q the
    factor 4a^2b^3 - ab^2 - 18ab + 27a + 4 = 4b^3(a - eps1)(a - eps2) of
    the reduced cubic's discriminant -a(b-1)^2*Q. For b != 1 the cubic is
    negative on all of x <= 0, so every real root is positive: three where
    Q < 0, one where Q > 0, and a double and a simple one where Q = 0, as
    the only triple root is at (b, a) = (9, 1/27), which no rational
    weights reach. T is homogeneous, so the common denominator leaves its
    sign alone. For every b <= 9 but that cusp, T < 0: callers count 1
    where the float b_can <= 9, which assumes no float b_can rounds down
    to 9 or below from a true b within the few ulps above 9 where T can
    be positive.
    """
    s = x + z
    t = s * (s * (x * x - 4 * y * s) + 36 * x * y * y) - 4 * y * (2 * x ** 3 + 27 * y ** 3)
    return 3 if t > 0 else 2 if t == 0 else 1


def _canonical_roots(a_can: float, b_can: float, count: int):
    """Positive roots of the reduced cubic plus the regime verdict.

    Returns (roots_x, regime, thresholds) for count distinct positive
    roots, the weights' exact count: unique for b <= 9, and for b > 9
    three, one, or two at an exact tangency. Three roots are bisected in
    the brackets (0, x1), (x1, x2), (x2, inf) when the bisection's sign
    test tells them apart at x1 and x2. Otherwise one root is bisected,
    past x2 when a_can is nearer eps1 (in ratio) and short of x1 when
    nearer eps2, and the tangency point on the other side stands for the
    count's remaining roots, which floats cannot separate: the double root
    of regime two, or two of the three.
    """
    a, b = a_can, b_can
    # a*x*(b+x)^2 < (1+x)^2 below lo and > above hi (bounds on (1+x)^2 and
    # (b+x)^2 for x <= 1 and x >= 1)
    lo = 0.5 * min(1.0, 1.0 / a / (b + 1.0) / (b + 1.0))
    hi = 2.0 * max(1.0, 4.0 / a)
    if b <= 9:
        return (_bisect_cubic_root(a, b, lo, hi),), "unique", None
    x1, x2, eps1, eps2 = ti_thresholds(b)
    r1, r2 = (b + x1) / (1.0 + x1), (b + x2) / (1.0 + x2)
    if count == 3 and a * x1 * r1 * r1 > 1.0 > a * x2 * r2 * r2:
        roots = tuple(_bisect_cubic_root(a, b, *bracket)
                      for bracket in ((lo, x1), (x1, x2), (x2, hi)))
    elif a / eps1 < eps2 / a:
        roots = (x1,) * (count - 1) + (_bisect_cubic_root(a, b, x2, hi),)
    else:
        roots = (_bisect_cubic_root(a, b, lo, x1),) + (x2,) * (count - 1)
    return roots, ("unique", "two", "three")[count - 1], (eps1, eps2)


def count_ti_roots(w: BoltzmannWeights) -> FixedPointReport:
    """Translation-invariant fixed points on the invariant line, in
    increasing order, found and polished on the moderated weights, each
    checked against u = f(u)."""
    a_can, b_can, (mx, my, mz) = _canonical(w.xw, w.yw, w.zw)
    count = _ti_count(*_integers(w.xw, w.yw, w.zw)[:3]) if b_can > 9 else 1
    roots_x, regime, thresholds = _canonical_roots(a_can, b_can, count)
    scale = 2.0 * my / mx
    u_roots = []
    for x in roots_x:
        start = x * scale
        u = _polish_fixed_point(start, mx, my, mz)
        residual = abs(u - _line_map(u, mx, my, mz))
        if not residual <= _FIXED_POINT_RESIDUAL * max(1.0, u):
            # Newton can step off a near-double root that the bisection
            # point already meets
            if not (abs(start - _line_map(start, mx, my, mz))
                    <= _FIXED_POINT_RESIDUAL * max(1.0, start)):
                raise InternalConsistencyError(
                    f"fixed-point residual {residual:.3e} at u={u}")
            u = start
        u_roots.append(u)
    return FixedPointReport(tuple(sorted(u_roots)), regime, thresholds,
                            regime != "unique", CanonicalParams(a_can, b_can))


def _polish_fixed_point(u: float, xw: float, yw: float, zw: float) -> float:
    """A few Newton steps on g(u) = f(u) - u."""
    den0 = xw + zw
    for _ in range(4):
        num = xw * u + 2.0 * yw  # f(u) = (num/den)^2, as in _line_map
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


def _quadratic_numerators(x: int, y: int, z: int) -> tuple[int, int, int, int]:
    """Integers (a, b, c, disc) with (A, B, C) = (a, b, c) / d^4 and
    D = disc / d^8 at the weights (x, y, z) / d of _integers.

    α, γ and s (closed form in the module docstring) are homogeneous of
    degree 2 in the weights, so they are evaluated on the integers alone.
    """
    alpha = x * (x + y) + y * z
    gamma = (x + z) ** 2 + 2 * x * y
    s2 = (x * (x + z) - 2 * y * y) ** 2
    ag = alpha * gamma
    return alpha * alpha, 2 * ag - s2, gamma * gamma, s2 * (s2 - 4 * ag)


def _as_float(num: int, den: int) -> float | None:
    """num / den, or None past the float range."""
    try:  # int / int rounds correctly, as float(Fraction) does
        return num / den
    except OverflowError:
        return None


def two_periodic_report(w: BoltzmannWeights) -> PeriodicReport:
    """Proper 2-periodic solutions on the invariant line.

    Existence is decided exactly by D > 0 in integer arithmetic. A and C
    are positive for all positive weights, and D = s^2 (s^2 - 4αγ) > 0
    forces B = 2αγ - s^2 < -2αγ < 0, so this is equivalent to the
    quadratic having two distinct positive roots. Neither is a
    fixed point of f: a fixed point that solves the quadratic has
    f' = -1 there, where u = f(f(u)) has a triple root and D = 0. So
    where the pair exists both roots are reported, each checked against
    u = f(f(u)) on the moderated weights, as f is. A, B, C or D past the
    float range is reported as None.
    """
    x, y, z, d = _integers(w.xw, w.yw, w.zw)
    a, b, c, disc = _quadratic_numerators(x, y, z)
    quad = (_as_float(a, d ** 4), _as_float(b, d ** 4), _as_float(c, d ** 4))
    disc_f = _as_float(disc, d ** 8)
    if not disc > 0:
        return PeriodicReport(quad, disc_f, (), False)
    # the roots are the same for any common factor of a, b and c; a power
    # of two near their size keeps the floats in range and, where quad is
    # in range, gives the same roots bit for bit
    norm = 2 ** max(a, abs(b), c).bit_length()
    af, bf, cf = a / norm, b / norm, c / norm
    q = (math.sqrt(disc / (norm * norm)) - bf) / 2.0  # B < 0: no cancellation
    roots = tuple(sorted((q / af, cf / q)))
    if not (0.0 < roots[0] and roots[1] < math.inf):
        raise DomainError(f"2-periodic roots of {w} are out of float range")
    mx, my, mz = _moderate(w.xw, w.yw, w.zw)
    for r in roots:
        if not (abs(r - _line_map(_line_map(r, mx, my, mz), mx, my, mz))
                < _FIXED_POINT_RESIDUAL * max(1.0, r)):
            raise InternalConsistencyError(
                f"2-periodic residual too large at root {r}")
    return PeriodicReport(quad, disc_f, roots, True)


class SweepRow(NamedTuple):
    """One sweep point's cells, in SWEEP_COLUMNS order.

    phase_transition is ti_count > 1 or two_periodic, so it can be true
    where FixedPointReport.phase_transition, which reads the TI regime
    alone, is false.
    """

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
    """The row of one point, from the exact counts alone: no root is
    found and no report is built."""
    if isinstance(point, LambdaParams):
        xw, yw, zw = _edge_weights(point)
        abc = (point.a, point.b, point.c, point.beta)
    else:
        xw, yw, zw = point.xw, point.yw, point.zw
        abc = (None, None, None, None)
    a_can, b_can, _ = _canonical(xw, yw, zw)
    x, y, z, d = _integers(xw, yw, zw)
    count, eps1, eps2 = 1, None, None
    if b_can > 9:
        eps1, eps2 = ti_thresholds(b_can)[2:]
        count = _ti_count(x, y, z)
    _, b, _, disc = _quadratic_numerators(x, y, z)
    exists = disc > 0
    return SweepRow(*abc, xw, yw, zw, a_can, b_can, count, eps1, eps2,
                    _as_float(b, d ** 4), _as_float(disc, d ** 8),
                    exists, count > 1 or exists)


def sweep(points) -> list[SweepRow]:
    """One row per grid point, in the given order."""
    return [_sweep_point(pt) for pt in points]


def sweep_to_csv(rows: list[SweepRow]) -> str:
    """The header, then one line per row: floats to 15 significant digits,
    None as an empty cell, booleans as true/false and anything else as
    str(v)."""
    lines = [",".join(SWEEP_COLUMNS)]
    for row in rows:
        lines.append(",".join([format(v, ".15g") if isinstance(v, float)
                               else "" if v is None
                               else ("true" if v else "false") if isinstance(v, bool)
                               else str(v) for v in row]))
    return "\n".join(lines) + "\n"
