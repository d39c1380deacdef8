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
discriminant decides existence. The division itself is kept for the audit
of the printed discriminant factorizations.
"""

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, InternalConsistencyError
from .model import LambdaParams
from .poly import Poly, RationalFn, X, compose, divide_exact

K_CHILDREN = 2  # branching order baked into the squared map

_THRESHOLD_EQ_TOL = 1e-10    # |a_can - eps| below this times eps is on-boundary
_FIXED_POINT_RESIDUAL = 1e-9  # relative to max(1, u)
_PROPERNESS_GAP = 1e-6

INVARIANT_LINE_NOTE = ("invariant-line analysis only: first ratio component "
                       "pinned to 1; solutions off the line are out of scope")

SWEEP_COLUMNS = ("a", "b", "c", "beta", "xw", "yw", "zw", "a_can", "b_can",
                 "ti_count", "eps1", "eps2", "B", "D", "two_periodic",
                 "phase_transition")


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


@dataclass(frozen=True)
class PeriodicReport:
    # (A, B, C) and D as floats; None where one is past the float range
    quad: tuple[float | None, float | None, float | None]
    discriminant: float | None
    proper_roots: tuple[float, ...]
    two_periodic_exists: bool


@dataclass(frozen=True)
class CaseSample:
    weights: tuple[float, ...]         # the free parameters of the case
    computed_d: float
    printed_d: float
    rel_deviation: float
    agrees: bool


@dataclass(frozen=True)
class CaseIdentityReport:
    case: str
    samples: tuple[CaseSample, ...]
    max_rel_deviation: float

    def to_json(self) -> dict:
        return {
            "case": self.case,
            "max_rel_deviation": self.max_rel_deviation,
            "samples": [{"weights": list(s.weights), "computed_d": s.computed_d,
                         "printed_d": s.printed_d,
                         "rel_deviation": s.rel_deviation, "agrees": s.agrees}
                        for s in self.samples],
        }


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
    float range take a few dozen steps; the bracket shrinks to adjacent
    floats.
    """
    def above(x: float) -> bool:
        r = (b + x) / (1.0 + x)
        return a * x * r * r > 1.0

    lo_above = above(lo)
    while True:
        mid = math.sqrt(lo) * math.sqrt(hi) if hi > 2.0 * lo else 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if above(mid) == lo_above:
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
                            regime != "unique")


def _polish_fixed_point(u: float, w: BoltzmannWeights) -> float:
    """A few Newton steps on g(u) = f(u) - u."""
    for _ in range(4):
        num = w.xw * u + 2.0 * w.yw
        den = w.yw * u + (w.xw + w.zw)
        ratio = num / den
        g = ratio * ratio - u
        dg = 2.0 * ratio * (w.xw * den - num * w.yw) / (den * den) - 1.0
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
        if not abs(r - f_map(f_map(r, w), w)) < _FIXED_POINT_RESIDUAL * max(1.0, r):
            raise InternalConsistencyError(
                f"2-periodic residual too large at root {r}")
        if abs(r - f_map(r, w)) > _PROPERNESS_GAP:
            proper.append(r)
    return PeriodicReport(quad, disc_f, tuple(sorted(proper)), exists)


def _exact_line_map(w: BoltzmannWeights) -> RationalFn:
    """f as a rational function with exact Fraction coefficients."""
    xf, yf, zf = Fraction(w.xw), Fraction(w.yw), Fraction(w.zw)
    num = Poly((2 * yf, xf))
    den = Poly((xf + zf, yf))
    return RationalFn(num * num, den * den)


def _quadratic_by_division(w: BoltzmannWeights) -> tuple[Fraction, Fraction, Fraction]:
    """(A, B, C) derived by composing f with itself and dividing the
    fixed-point numerators exactly: the derivation the closed form in
    periodic_quadratic is audited and tested against."""
    f = _exact_line_map(w)
    ff = compose(f, f)
    p_fix = f.num - X * f.den
    q_fix = ff.num - X * ff.den
    quad = divide_exact(q_fix, p_fix)
    if quad.degree() != 2:
        raise InternalConsistencyError(
            f"expected a quadratic quotient, got degree {quad.degree()}")
    c0, c1, c2 = quad.coeffs
    return Fraction(c2), Fraction(c1), Fraction(c0)


# printed factorized discriminants, evaluated exactly per case
def _printed_case_d(case: str, sample) -> tuple[Fraction, BoltzmannWeights]:
    if case == "i":
        x = Fraction(float(sample))
        printed = -x * (4 + 3 * x) * (2 * x + 3) ** 2 * (2 * x ** 2 + x - 2) ** 2
        weights = BoltzmannWeights(float(sample), 1.0, float(sample) + 1.0)
    elif case == "ii":
        x = Fraction(float(sample))
        printed = (-16 * (3 * x ** 4 + 10 * x ** 3 + 6 * x ** 2 - 1)
                   * (x - 1) ** 2 * (x + 1) ** 2)
        weights = BoltzmannWeights(float(sample), 1.0, float(sample))
    elif case == "iii":
        xs, zs = sample
        x, z = Fraction(float(xs)), Fraction(float(zs))
        printed = (-x ** 3 * (23 * x ** 3 + 30 * x ** 2 * z
                              + 15 * x * z ** 2 + 4 * z ** 3) * (x - z) ** 2)
        weights = BoltzmannWeights(float(xs), float(xs), float(zs))
    else:
        raise ValueError(f"unknown case {case!r}; expected i, ii or iii")
    return printed, weights


def case_identity_check(case: str, samples) -> CaseIdentityReport:
    """Audit the printed factorized discriminant of one special case
    against the division-derived one, sample by sample, exactly.

    Case "i" fixes zw = xw + 1, yw = 1 (samples are xw values); case "ii"
    fixes zw = xw, yw = 1 (samples are xw values); case "iii" fixes
    yw = xw (samples are (xw, zw) pairs).
    """
    rows = []
    worst = 0.0
    for sample in samples:
        printed, w = _printed_case_d(case, sample)
        a_f, b_f, c_f = _quadratic_by_division(w)
        computed = b_f * b_f - 4 * a_f * c_f
        denom = max(abs(computed), abs(printed))
        rel = 0.0 if denom == 0 else float(abs(computed - printed) / denom)
        worst = max(worst, rel)
        key = (float(sample),) if case in ("i", "ii") else tuple(float(v) for v in sample)
        rows.append(CaseSample(key, float(computed), float(printed), rel,
                               rel <= 1e-8))
    return CaseIdentityReport(case, tuple(rows), worst)


@dataclass(frozen=True)
class SweepRow:
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


def _sweep_point(point) -> SweepRow:
    if isinstance(point, LambdaParams):
        w = weights_from(point)
        abc = (point.a, point.b, point.c, point.beta)
    else:
        w = point
        abc = (None, None, None, None)
    can = canonical_params(w)
    fp = count_ti_roots(w)
    pr = two_periodic_report(w)
    eps1, eps2 = fp.thresholds if fp.thresholds else (None, None)
    return SweepRow(abc[0], abc[1], abc[2], abc[3], w.xw, w.yw, w.zw,
                    can.a_can, can.b_can, len(fp.ti_roots), eps1, eps2,
                    pr.quad[1], pr.discriminant, pr.two_periodic_exists,
                    fp.phase_transition or pr.two_periodic_exists)


def sweep(points) -> list[SweepRow]:
    """One row per grid point, in the given order."""
    return [_sweep_point(pt) for pt in points]


def _fmt_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".15g")
    return str(v)


def sweep_to_csv(rows: list[SweepRow]) -> str:
    lines = [",".join(SWEEP_COLUMNS)]
    for row in rows:
        lines.append(",".join(_fmt_cell(getattr(row, col)) for col in SWEEP_COLUMNS))
    return "\n".join(lines) + "\n"


def sweep_to_jsonl(rows: list[SweepRow]) -> str:
    lines = []
    for row in rows:
        obj = {}
        for col in SWEEP_COLUMNS:
            v = getattr(row, col)
            if isinstance(v, float):
                v = float(format(v, ".15g"))
            obj[col] = v
        lines.append(json.dumps(obj))
    return "\n".join(lines) + "\n"
