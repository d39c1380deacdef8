"""Exact derivations that the tests check the package against.

Nothing in the package calls these; each re-derives a closed form or a
recurrence the long way. Test files import them as `from oracles import ...`.

- `periodic_quadratic` reads the closed form (A, B, C) that
  `solver.two_periodic_report` decides existence on as exact fractions,
  from the weights' integers of `solver._integers`.
- `quadratic_by_division` composes the invariant-line map with itself and
  divides the fixed-point numerators exactly, the derivation behind
  that closed form.
- `case_identity_check` audits the paper's printed factorized
  discriminants of three special cases against that division.
- `vertex_normalizer` is the per-vertex factor of the partition-function
  recurrence Z_{m+1} = A_m * Z_m.
- `positive_root_count` counts the distinct positive roots of an exact
  polynomial by Sturm's theorem in Fractions; `canonical_cubic_root_count`
  applies it to the reduced cubic a*x*(b+x)^2 - (1+x)^2 at two floats,
  and `ti_polynomial_root_count` to the weights' fixed-point cubic.
  `ti_quartic_root_count` reads the same count off the sign of
  `ti_quartic`, the canonical discriminant factor Q times -2*x^3*y as a
  quartic in the weights, the rule `solver._ti_count` runs on integers.
- `bisect_cubic_root` is the reduced cubic's sign bisection with one loop
  and a sign closure, which `solver._bisect_cubic_root` must match bit
  for bit.
- `sweep_to_csv_by_cell` and `sweep_to_jsonl_by_cell` write sweep rows one
  named cell at a time, the layout `solver.sweep_to_csv` and
  `cli.sweep_to_jsonl` must reproduce byte for byte.
- `minimal_balls_by_scan` calls `ball_energy` on all 27 spin triples, the
  scan `ground._minimal_balls` reads off its table of catalogue entries.
- `realize_uncached` builds a level-constant tree afresh on every call,
  the configuration `ground.realize` keeps and hands out again.
- `identity_corpus_text` is the text of `sweep` and `solve` on a seeded
  corpus of points, which a test pins by its sha256; it needs no pytest,
  so any interpreter can hash it.
- `clear_caches` clears every functools cache of the package, found by
  walking the globals of its modules, so no test keeps a list of them.
"""

import argparse
import importlib
import json
import math
import pkgutil
import random
from fractions import Fraction
from itertools import product

import lambda_tree
from lambda_tree.cli import cmd_solve, sweep_to_jsonl
from lambda_tree.errors import InternalConsistencyError, LambdaTreeError
from lambda_tree.gibbs import boltzmann_matrix
from lambda_tree.ground import LevelSequence, _check_spins
from lambda_tree.model import (SPINS, Configuration, LambdaParams, ball_energy,
                               check_tolerance, min_ball_energy)
from lambda_tree.poly import Poly, RationalFn, X, compose, divide_exact
from lambda_tree.solver import (SWEEP_COLUMNS, BoltzmannWeights, _integers,
                                _quadratic_numerators, sweep, sweep_to_csv,
                                weights_from)
from lambda_tree.tree import TreeShape


def exact_line_map(w: BoltzmannWeights) -> RationalFn:
    """f as a rational function with exact Fraction coefficients."""
    xf, yf, zf = Fraction(w.xw), Fraction(w.yw), Fraction(w.zw)
    num = Poly((2 * yf, xf))
    den = Poly((xf + zf, yf))
    return RationalFn(num * num, den * den)


def periodic_quadratic(w: BoltzmannWeights) -> tuple[Fraction, Fraction, Fraction]:
    """(A, B, C) of the exact quotient numerator(f∘f - id)/numerator(f - id),
    from the integers the solver evaluates its closed form on."""
    x, y, z, d = _integers(w.xw, w.yw, w.zw)
    a, b, c, _ = _quadratic_numerators(x, y, z)
    return Fraction(a, d ** 4), Fraction(b, d ** 4), Fraction(c, d ** 4)


def quadratic_by_division(w: BoltzmannWeights) -> tuple[Fraction, Fraction, Fraction]:
    """(A, B, C) derived by composing f with itself and dividing the
    fixed-point numerators exactly."""
    f = exact_line_map(w)
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
def printed_case_d(case: str, sample) -> tuple[Fraction, BoltzmannWeights]:
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


def case_identity_check(case: str, samples) -> dict:
    """Audit the printed factorized discriminant of one special case
    against the division-derived one, sample by sample, exactly.

    Case "i" fixes zw = xw + 1, yw = 1 (samples are xw values); case "ii"
    fixes zw = xw, yw = 1 (samples are xw values); case "iii" fixes
    yw = xw (samples are (xw, zw) pairs). The report is the JSON object
    {"case", "max_rel_deviation", "samples"}, one sample row per input.
    """
    rows = []
    worst = 0.0
    for sample in samples:
        printed, w = printed_case_d(case, sample)
        a_f, b_f, c_f = quadratic_by_division(w)
        computed = b_f * b_f - 4 * a_f * c_f
        denom = max(abs(computed), abs(printed))
        rel = 0.0 if denom == 0 else float(abs(computed - printed) / denom)
        worst = max(worst, rel)
        key = [float(sample)] if case in ("i", "ii") else [float(v) for v in sample]
        rows.append({"weights": key, "computed_d": float(computed),
                     "printed_d": float(printed), "rel_deviation": rel,
                     "agrees": rel <= 1e-8})
    return {"case": case, "max_rel_deviation": worst, "samples": rows}


def vertex_normalizer(own_field: tuple[float, ...],
                      child_fields: list[tuple[float, ...]],
                      p: LambdaParams) -> float:
    """Per-vertex normalizer a(x) of the partition recurrence.

    With compatible fields, prod over children y of
    sum_j exp(beta*lam(k,j) + h_{j,y}) equals a(x)*exp(h_{k,x}) for every
    k; computed here with k = 3. The products A_m = prod over W_m of a(x)
    satisfy Z_{m+1} = A_m * Z_m.
    """
    last_row = boltzmann_matrix(p)[2]
    acc = 1.0
    for hv in child_fields:
        acc *= math.fsum(w * math.exp(h) for w, h in zip(last_row, hv))
    return acc / math.exp(own_field[2])


def positive_root_count(coeffs: list) -> int:
    """Distinct roots in (0, inf) of the polynomial with these ascending
    exact coefficients and a nonzero constant term: Sturm's chain p, p',
    -rem, ... read at 0 and at inf, repeated roots counted once."""
    if coeffs[0] == 0:
        raise ValueError("p(0) must be nonzero")
    chain = [list(coeffs), [i * c for i, c in enumerate(coeffs)][1:]]
    while len(chain[-1]) > 1:
        rem, den = list(chain[-2]), chain[-1]
        while len(rem) >= len(den):
            t = rem[-1] / den[-1]
            for i, c in enumerate(den):
                rem[len(rem) - len(den) + i] -= t * c
            rem.pop()
        while rem and rem[-1] == 0:
            rem.pop()
        if not rem:
            break
        chain.append([-c for c in rem])

    def variations(values) -> int:
        signs = [v > 0 for v in values if v != 0]
        return sum(1 for s, t in zip(signs, signs[1:]) if s != t)

    return variations(q[0] for q in chain) - variations(q[-1] for q in chain)


def canonical_cubic_root_count(a: float, b: float) -> int:
    """Distinct positive roots of a*x*(b+x)^2 - (1+x)^2 at the floats a
    and b, read as exact fractions."""
    af, bf = Fraction(a), Fraction(b)
    return positive_root_count([Fraction(-1), af * bf * bf - 2, 2 * af * bf - 1, af])


def ti_polynomial_root_count(w: BoltzmannWeights) -> int:
    """Distinct translation-invariant fixed points of the weights: positive
    roots of u*(yw*u + xw + zw)^2 - (xw*u + 2*yw)^2, exactly."""
    x, y, z = Fraction(w.xw), Fraction(w.yw), Fraction(w.zw)
    s = x + z
    return positive_root_count([-4 * y * y, s * s - 4 * x * y, 2 * y * s - x * x, y * y])


def ti_quartic(w: BoltzmannWeights) -> Fraction:
    """T = -2*x^3*y*Q(a_can, b_can) at (x, y, z) = (xw, yw, zw), exactly,
    with Q = 4a^2b^3 - ab^2 - 18ab + 27a + 4 the factor of the reduced
    cubic's discriminant -a(b-1)^2*Q."""
    x, y, z = Fraction(w.xw), Fraction(w.yw), Fraction(w.zw)
    return (x ** 4 - 12 * x ** 3 * y + 2 * x ** 3 * z + 36 * x ** 2 * y ** 2
            - 12 * x ** 2 * y * z + x ** 2 * z ** 2 + 36 * x * y ** 2 * z
            - 12 * x * y * z ** 2 - 108 * y ** 4 - 4 * y * z ** 3)


def ti_quartic_root_count(w: BoltzmannWeights) -> int:
    """Distinct translation-invariant fixed points of the weights from the
    sign of T: 3 where T > 0, 2 where T = 0 and 1 where T < 0. T = 0 only
    where s = x(x+z) - 2y^2 is not 0: s = 0 is b_can = 1, where
    Q = 4(a_can+1)^2 and T < 0."""
    t = ti_quartic(w)
    return 3 if t > 0 else 2 if t == 0 else 1


def bisect_cubic_root(a: float, b: float, lo: float, hi: float) -> float:
    """The root of a*x*(b+x)^2 - (1+x)^2 in (lo, hi), where its sign
    changes: geometric midpoints while hi > 2*lo, arithmetic ones after,
    down to adjacent floats."""
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


def fmt_cell(v) -> str:
    """One sweep CSV cell: empty for None, true/false, floats to 15
    significant digits, str() for anything else."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".15g")
    return str(v)


def sweep_to_csv_by_cell(rows) -> str:
    lines = [",".join(SWEEP_COLUMNS)]
    for row in rows:
        lines.append(",".join(fmt_cell(getattr(row, col)) for col in SWEEP_COLUMNS))
    return "\n".join(lines) + "\n"


def sweep_to_jsonl_by_cell(rows) -> str:
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


def identity_corpus_text() -> str:
    """The sweep CSV and JSON row and the solve JSON of 4,000 seeded points,
    LambdaParams and BoltzmannWeights with weights exp(U[-s, s]) for s up
    to 400, and `ExceptionClass: message` for each point that raises."""
    rng = random.Random(27)
    points = []
    for s in (3, 12, 24, 400):
        for _ in range(500):
            points.append(LambdaParams(*(rng.uniform(-s, s) for _ in range(3)),
                                       beta=rng.uniform(0.5, 2.0)))
            points.append(BoltzmannWeights(*(math.exp(rng.uniform(-s, s))
                                             for _ in range(3))))
    parts = [",".join(SWEEP_COLUMNS) + "\n"]
    for pt in points:
        try:
            row = sweep([pt])[0]
            parts += [sweep_to_csv([row]).split("\n", 1)[1], sweep_to_jsonl([row])]
            w = weights_from(pt) if isinstance(pt, LambdaParams) else pt
            parts.append(cmd_solve(argparse.Namespace(
                xw=w.xw, yw=w.yw, zw=w.zw, a=None, b=None, c=None, beta=None)))
        except (LambdaTreeError, ValueError) as e:
            parts.append(f"{type(e).__name__}: {e}\n")
    return "".join(parts)


def minimal_balls_by_scan(p: LambdaParams, tol: float) -> frozenset[tuple[int, int, int]]:
    """The balls (s, t, u) whose ball_energy is within tol of the minimum
    at p, one ball_energy call per spin triple."""
    check_tolerance(tol)
    limit = min_ball_energy(p) + tol
    return frozenset((s, t, u) for s in SPINS for t, u in product(SPINS, repeat=2)
                     if not ball_energy(s, (t, u), p) > limit)


def realize_uncached(seq: LevelSequence, depth: int) -> Configuration:
    """Level-constant configuration on the binary truncation with seq's
    value on each level, built on every call."""
    _check_spins(depth)
    shape = TreeShape(2, depth)
    spins = []
    for m in range(depth + 1):
        spins += [seq.value_at(m)] * shape.level_size(m)
    return Configuration(shape, tuple(spins))


def clear_caches() -> list:
    """Clear every functools cache (lru_cache or cache) that a module of
    the package defines, each once, and return them."""
    caches = []
    for info in pkgutil.iter_modules(lambda_tree.__path__):
        module = importlib.import_module(f"lambda_tree.{info.name}")
        for value in vars(module).values():
            if (hasattr(value, "cache_clear") and hasattr(value, "cache_info")
                    and value.__module__.startswith("lambda_tree.")
                    and value not in caches):
                value.cache_clear()
                caches.append(value)
    return caches
