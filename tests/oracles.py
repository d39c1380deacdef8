"""Exact derivations that the tests check the package against.

Nothing in the package calls these; each re-derives a closed form or a
recurrence the long way. Test files import them as `from oracles import ...`.

- `quadratic_by_division` composes the invariant-line map with itself and
  divides the fixed-point numerators exactly, the derivation behind
  `solver.periodic_quadratic`'s closed form.
- `case_identity_check` audits the paper's printed factorized
  discriminants of three special cases against that division.
- `vertex_normalizer` is the per-vertex factor of the partition-function
  recurrence Z_{m+1} = A_m * Z_m.
- `bisect_cubic_root` is the reduced cubic's sign bisection with one loop
  and a sign closure, which `solver._bisect_cubic_root` must match bit
  for bit.
- `sweep_to_csv_by_cell` and `sweep_to_jsonl_by_cell` write sweep rows one
  named cell at a time, the layout `solver.sweep_to_csv` and
  `solver.sweep_to_jsonl` must reproduce byte for byte.
"""

import json
import math
from fractions import Fraction

from lambda_tree.errors import InternalConsistencyError
from lambda_tree.gibbs import boltzmann_matrix
from lambda_tree.model import LambdaParams
from lambda_tree.poly import Poly, RationalFn, X, compose, divide_exact
from lambda_tree.solver import SWEEP_COLUMNS, BoltzmannWeights


def exact_line_map(w: BoltzmannWeights) -> RationalFn:
    """f as a rational function with exact Fraction coefficients."""
    xf, yf, zf = Fraction(w.xw), Fraction(w.yw), Fraction(w.zw)
    num = Poly((2 * yf, xf))
    den = Poly((xf + zf, yf))
    return RationalFn(num * num, den * den)


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
                      p: LambdaParams, q: int = 3) -> float:
    """Per-vertex normalizer a(x) of the partition recurrence.

    With compatible fields, prod over children y of
    sum_j exp(beta*lam(k,j) + h_{j,y}) equals a(x)*exp(h_{k,x}) for every
    k; computed here with k = q. The products A_m = prod over W_m of a(x)
    satisfy Z_{m+1} = A_m * Z_m.
    """
    mat = boltzmann_matrix(p, q)
    acc = 1.0
    for hv in child_fields:
        acc *= math.fsum(mat[q - 1][j] * math.exp(hv[j]) for j in range(q))
    return acc / math.exp(own_field[q - 1])


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
