"""Fixed-point analysis on the invariant line: translation-invariant root
counting with thresholds, the level-parity (2-periodic) quadratic, and
parameter sweeps.

Everything here lives on the invariant line u_1 = 1 of the ratio recursion
(the 1<->3 spin symmetry preserves it), with branching order fixed at 2 so
the one-dimensional map is

    f(u) = ((xw*u + 2*yw) / (yw*u + xw + zw))^2.

Translation-invariant measures correspond to u = f(u); reducing by
x = u*xw/(2*yw) turns that into the cubic a*x*(b+x)^2 = (1+x)^2 in the
canonical parameters a = 2*yw^3/xw^3, b = xw*(xw+zw)/(2*yw^2). Everything
is read off the weights as the integers of _integers, the same integers D
is read from. The floats a_can and b_can are int / int on them, so each
is correctly rounded. For b <= 9, an integer comparison, the cubic has one
positive root. For b > 9 it has one, two or three, counted exactly from
the sign of one integer: the quartic T of _ti_count. No tolerance enters
the count, and none enters the roots: each is the float nearest an exact
root, ties to even, found by _nearest_float from exact signs of the
integer polynomials on the same integers (the cubic itself, and its
derivative where the count is two or three). Where the float b_can is
above 9 it gives the thresholds eps_1 < eps_2, where a root is double;
it locates no root.

Proper 2-periodic measures solve u = f(f(u)) but not u = f(u). The exact
quotient num(f∘f - id) / num(f - id) is a quadratic A*u^2 + B*u + C with
the closed form

    A = α^2,   B = 2αγ - s^2,   C = γ^2,   D = B^2 - 4AC = s^2 (s^2 - 4αγ),
    α = x^2 + xy + yz,   γ = x^2 + 2x(y + z) + z^2,   s = x(x + z) - 2y^2

in (x, y, z) = (xw, yw, zw), evaluated exactly on _integers; the sign of
D decides existence. The composed-map division that derives this closed
form is a test oracle and is not run here.

count_ti_roots and two_periodic_report find the roots, and alone
construct CanonicalParams, FixedPointReport and PeriodicReport. A sweep
row prints no root, so it is built from the two exact counts alone: the
canonical parameters, the thresholds past b_can = 9, the count of
_ti_count, then the integers behind A, B, C and D.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DomainError, _echo_number
from .model import LambdaParams, edge_weight, finite_number

_INF_BITS = 0x7FF << 52  # the bit pattern of inf, which _float_bits reads as 2^1024

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
    canonical: CanonicalParams         # the weights' (a_can, b_can)


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


def _integers(xw: float, yw: float, zw: float) -> tuple[int, int, int, int]:
    """(x, y, z, d): the weights as the integers x/d, y/d, z/d over the
    largest of their denominators. Floats are integers over powers of two,
    so that denominator is a multiple of the other two."""
    ratios = [v.as_integer_ratio() for v in (xw, yw, zw)]
    d = max(den for _, den in ratios)
    x, y, z = (num * (d // den) for num, den in ratios)
    return x, y, z, d


def _canonical(x: int, y: int, z: int, weights: tuple) -> tuple[float, float]:
    """(a_can, b_can) = (2y^3/x^3, x(x+z)/(2y^2)) on the integers of
    _integers, each correctly rounded by int / int, which raises only where
    the true value overflows. A DomainError, naming the float weights
    (xw, yw, zw), where either overflows or a_can rounds to 0.0; b_can
    rounds to 0.0 only past y/x = 2^537, where a_can overflows."""
    try:
        a_can = 2 * y ** 3 / x ** 3
        b_can = x * (x + z) / (2 * y * y)
    except OverflowError:
        a_can = 0.0  # refused below
    if not a_can:
        raise DomainError(f"canonical parameters of {BoltzmannWeights(*weights)} "
                          f"are not positive finite floats")
    return a_can, b_can


def _ti_count(x: int, y: int, z: int) -> int:
    """Distinct translation-invariant fixed points of the integer weights
    (x, y, z): 1 where b = x(x+z)/(2y^2) <= 9, and past it 3, 2 or 1 as T
    is positive, zero or negative.

    T = -2x^3y*Q(a, b) at the weights' exact canonical values, with Q the
    factor 4a^2b^3 - ab^2 - 18ab + 27a + 4 = 4b^3(a - eps1)(a - eps2) of
    the reduced cubic's discriminant -a(b-1)^2*Q. For b != 1 the cubic is
    negative on all of x <= 0, so every real root is positive: three where
    Q < 0, one where Q > 0, and a double and a simple one where Q = 0, as
    the only triple root is at (b, a) = (9, 1/27), which no rational
    weights reach. T is homogeneous, so the common denominator leaves its
    sign alone.
    """
    s = x + z
    if x * s <= 18 * y * y:
        return 1
    t = s * (s * (x * x - 4 * y * s) + 36 * x * y * y) - 4 * y * (2 * x ** 3 + 27 * y ** 3)
    return 3 if t > 0 else 2 if t == 0 else 1


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


def _float_bits(i: int) -> tuple[int, int]:
    """(m, e) with m * 2^e the value of the float with bit pattern i, for
    0 <= i <= _INF_BITS."""
    e, m = divmod(i, 1 << 52)
    return (m + (1 << 52), e - 1075) if e else (m, -1074)


def _nearest_float(side) -> float:
    """The float nearest a positive root, ties to even, as float(Fraction)
    rounds it, but inf past the largest float; side(n, d) is the sign of
    n/d minus the root, for integers n and d > 0.

    Bisects the half-steps of the nonnegative floats, in increasing order:
    2i is the float with bit pattern i, 2i + 1 the midpoint above it. The
    first half-step at or past the root is the nearest float itself, or a
    midpoint, which rounds down unless the root is on it.
    """
    lo, hi, at_hi = 0, 2 * _INF_BITS, 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        m, e = _float_bits(mid // 2)
        m, e = 2 * m + mid % 2, e - 1
        at = side(m << e, 1) if e >= 0 else side(m, 1 << -e)
        if at >= 0:
            hi, at_hi = mid, at
        else:
            lo = mid
    bits = hi // 2
    if hi % 2 and at_hi == 0 and bits % 2:  # on the midpoint: to even
        bits += 1
    return math.ldexp(*_float_bits(bits)) if bits < _INF_BITS else math.inf


def _quadratic_side(a: int, b: int, c: int, k: int):
    """side(n, d) of _nearest_float for the k-th (1 or 2) real root of
    a*u^2 + b*u + c with a > 0, which falls up to its vertex -b/(2a) and
    rises after: the sign of the value and the side of the vertex."""
    def side(n: int, d: int) -> int:
        value = _sign((a * n + b * d) * n + c * d * d)
        vertex = 2 * a * n + b * d
        return (-value if vertex <= 0 else 1) if k == 1 else (value if vertex >= 0 else -1)
    return side


def _ti_sides(x: int, y: int, z: int, count: int) -> list:
    """The sides of _nearest_float for the count fixed points, in order.

    They are the positive roots of P(u) = u*(y*u + x + z)^2 - (x*u + 2*y)^2
    = p0*u^3 + p1*u^2 + p2*u + p3, which is negative up to its first root
    and positive past its last. One root is where P turns positive. Where
    there are more, P rises up to rho1 < rho2, the roots of P', falls
    between them and rises after: three roots lie one in each run, and
    of two, the double one is rho1 or rho2 as P is negative or positive
    at the inflection point -p1/(3*p0) between them.
    """
    p0, p1, p2, p3 = y * y, 2 * y * (x + z) - x * x, (x + z) ** 2 - 4 * x * y, -4 * y * y

    def p(n: int, d: int) -> int:
        return _sign(((p0 * n + p1 * d) * n + p2 * d * d) * n + p3 * d ** 3)

    if count == 1:
        return [p]
    rho1, rho2 = (_quadratic_side(3 * p0, 2 * p1, p2, k) for k in (1, 2))
    sides = [lambda n, d: p(n, d) if rho1(n, d) <= 0 else 1,
             lambda n, d: -1 if rho1(n, d) < 0 else -p(n, d) if rho2(n, d) <= 0 else 1,
             lambda n, d: p(n, d) if rho2(n, d) >= 0 else -1]
    if count == 2:
        del sides[1 if p(-p1, 3 * p0) < 0 else 2]
    return sides


def count_ti_roots(w: BoltzmannWeights) -> FixedPointReport:
    """Translation-invariant fixed points on the invariant line, in
    increasing order, each the float nearest an exact root."""
    x, y, z, _ = _integers(w.xw, w.yw, w.zw)
    a_can, b_can = _canonical(x, y, z, (w.xw, w.yw, w.zw))
    thresholds = ti_thresholds(b_can)[2:] if b_can > 9 else None
    count = _ti_count(x, y, z)
    # each root is below (xw/yw + 2)^2, and a_can = 2*(yw/xw)^3 is a positive
    # float, so none rounds to inf; a tiny one rounds to 0.0
    roots = tuple(_nearest_float(side) for side in _ti_sides(x, y, z, count))
    return FixedPointReport(roots, ("unique", "two", "three")[count - 1], thresholds,
                            count > 1, CanonicalParams(a_can, b_can))


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
    where the pair exists both roots are reported, each the float
    nearest its exact root, located by the signs of a*u^2 + b*u + c and
    of its vertex side. A, B, C or D past the float range is reported as
    None.
    """
    x, y, z, d = _integers(w.xw, w.yw, w.zw)
    a, b, c, disc = _quadratic_numerators(x, y, z)
    quad = (_as_float(a, d ** 4), _as_float(b, d ** 4), _as_float(c, d ** 4))
    disc_f = _as_float(disc, d ** 8)
    if not disc > 0:
        return PeriodicReport(quad, disc_f, (), False)
    roots = tuple(_nearest_float(_quadratic_side(a, b, c, k)) for k in (1, 2))
    if not (0.0 < roots[0] and roots[1] < math.inf):
        raise DomainError(f"2-periodic roots of {w} are out of float range")
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
    x, y, z, d = _integers(xw, yw, zw)
    a_can, b_can = _canonical(x, y, z, (xw, yw, zw))
    eps1, eps2 = ti_thresholds(b_can)[2:] if b_can > 9 else (None, None)
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
