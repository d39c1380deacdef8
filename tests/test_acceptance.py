"""End-to-end acceptance gates.

Each test prints one "[criterion N] PASS/FAIL <title>" line (visible under
pytest -s), and the discriminant audit additionally writes its full report
to artifacts/case_identity_audit.json at the repository root.
"""

import functools
import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

from lambda_tree.gibbs import (BoundaryFields, FieldRatios, fields_from_ratios,
                               is_consistent, propagate_ratios, push_forward)
from lambda_tree.ground import (REPRESENTATIVE_PARAMS, brute_force_minima,
                                generators_for, realize, sample_family)
from lambda_tree.model import LambdaParams
from lambda_tree.solver import (BoltzmannWeights, _canonical_roots, _line_map,
                                count_ti_roots, ti_thresholds,
                                two_periodic_report)
from lambda_tree.tree import TreeShape
from oracles import (canonical_cubic_root_count, case_identity_check,
                     periodic_quadratic)

_ARTIFACT_DIR = Path(__file__).resolve().parent.parent / "artifacts"


def criterion(num: int, title: str):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"[criterion {num}] FAIL {title}")
                raise
            print(f"[criterion {num}] PASS {title}")
        return run
    return wrap


@criterion(1, "threshold formulas at b = 10")
def test_criterion_1():
    start = time.perf_counter()
    x1, x2, eps1, eps2 = ti_thresholds(10.0)
    once = time.perf_counter() - start
    assert x1 == 2.0
    assert x2 == 5.0
    assert eps1 == 0.03125
    assert abs(eps2 - 4.0 / 125.0) <= 1e-12 * (4.0 / 125.0)
    best = once
    for _ in range(10):
        t0 = time.perf_counter()
        ti_thresholds(10.0)
        best = min(best, time.perf_counter() - t0)
    assert best < 1e-3


@criterion(2, "root-count regimes across the (a, b) grid")
def test_criterion_2():
    start = time.perf_counter()
    checked = 0
    for j in range(50):
        b = 2.0 + j * (18.0 / 49.0)
        thresholds = ti_thresholds(b) if b > 9.0 else None
        for i in range(50):
            a = 1e-3 + i * (0.999 / 49.0)
            if thresholds is None:
                expected = 1
            else:
                _, _, e1, e2 = thresholds
                if min(abs(a - e1), abs(a - e2)) <= 1e-8:
                    continue  # don't score points on a regime boundary
                expected = 3 if e1 < a < e2 else 1
            roots, _, _ = _canonical_roots(a, b, canonical_cubic_root_count(a, b))
            assert len(roots) == expected, (a, b, roots)
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked > 2400
    assert elapsed < 5.0, f"grid took {elapsed:.2f}s"


def _exact_discriminant(w: BoltzmannWeights) -> Fraction:
    a, b, c = periodic_quadratic(w)
    return b * b - 4 * a * c


@criterion(3, "discriminant sign change located to 1e-9")
def test_criterion_3():
    # equal-edge-weight slice xw = zw = x, yw = 1, sampled at x = i/200
    xs = [i * 0.005 for i in range(1, 201)]
    signs = []
    for x in xs:
        d = _exact_discriminant(BoltzmannWeights(x, 1.0, x))
        signs.append(0 if d == 0 else (1 if d > 0 else -1))
        if d == 0:
            assert x == 1.0  # the only zero the grid may hit
    nonzero = [s for s in signs if s != 0]
    flips = [(s1, s2) for s1, s2 in zip(nonzero, nonzero[1:]) if s1 != s2]
    assert flips == [(1, -1)]  # one crossing, positive to negative

    lo, hi = 0.320, 0.325
    assert _exact_discriminant(BoltzmannWeights(lo, 1.0, lo)) > 0
    assert _exact_discriminant(BoltzmannWeights(hi, 1.0, hi)) < 0
    while hi - lo > 2e-16:
        mid = 0.5 * (lo + hi)
        if _exact_discriminant(BoltzmannWeights(mid, 1.0, mid)) > 0:
            lo = mid
        else:
            hi = mid
    crossing = 0.5 * (lo + hi)
    assert abs(crossing - 0.32359155348807621) <= 1e-9

    # below the crossing: a genuine positive 2-cycle, bounded away from
    # the invariant point
    for x, s in zip(xs, signs):
        if x >= crossing:
            break
        assert s == 1
        w = BoltzmannWeights(x, 1.0, x)
        _, b, _ = periodic_quadratic(w)
        assert b < 0
        report = two_periodic_report(w)
        assert report.two_periodic_exists
        assert len(report.proper_roots) == 2
        for r in report.proper_roots:
            assert r > 0
            fr = _line_map(r, w.xw, w.yw, w.zw)
            assert abs(r - _line_map(fr, w.xw, w.yw, w.zw)) < 1e-9
            assert abs(r - fr) > 1e-6


@criterion(4, "no 2-cycles for the shifted and equal-pair weight families")
def test_criterion_4():
    for i in range(100):
        x = 0.05 * (100.0 ** (i / 99.0))  # log-spaced over [0.05, 5]
        d = _exact_discriminant(BoltzmannWeights(x, 1.0, x + 1.0))
        assert d < 0, f"zw = xw + 1 slice at x={x}"

    xs = [0.1 * (30.0 ** (i / 9.0)) for i in range(10)]
    zs = [0.11 * ((2.9 / 0.11) ** (j / 9.0)) for j in range(10)]
    for x in xs:
        for z in zs:
            assert x != z
            d = _exact_discriminant(BoltzmannWeights(x, x, z))
            assert d < 0, f"yw = xw slice at x={x}, z={z}"


@criterion(5, "a 2-cycle coexists with a unique invariant point")
def test_criterion_5():
    hits = 0
    for i in range(1, 64):  # x = i/200 stays below the sign change
        x = i * 0.005
        w = BoltzmannWeights(x, 1.0, x)
        report = two_periodic_report(w)
        fixed = count_ti_roots(w)
        assert report.two_periodic_exists
        assert fixed.regime == "unique"
        assert len(fixed.ti_roots) == 1
        hits += 1
    assert hits >= 1


@criterion(6, "recursion-built fields pass marginal consistency")
def test_criterion_6():
    rng = random.Random(404)
    shape = TreeShape(2, 2)
    start = time.perf_counter()
    for _ in range(20):
        p = LambdaParams(rng.uniform(-1, 1), rng.uniform(-1, 1),
                         rng.uniform(-1, 1), beta=rng.uniform(0.5, 1.5))
        leaf = FieldRatios(3, {v: (math.exp(rng.uniform(-1, 1)),
                                   math.exp(rng.uniform(-1, 1)))
                               for v in shape.level_vertices(2)})
        h = fields_from_ratios(propagate_ratios(leaf, shape, p))
        report = is_consistent(p, 3, shape, h)
        assert report.passed and report.max_deviation < 1e-10

        bent = {v: list(f) for v, f in h.fields.items()}
        bent[shape.level_vertices(1)[0]][0] += 0.1
        bad = is_consistent(p, 3, shape,
                            BoundaryFields(3, {v: tuple(f)
                                               for v, f in bent.items()}))
        assert not bad.passed and bad.max_deviation > 1e-4
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"consistency trials took {elapsed:.2f}s"


@criterion(7, "catalog truncations are brute-force minimal")
def test_criterion_7():
    for region, params in REPRESENTATIVE_PARAMS.items():
        start = time.perf_counter()
        minima = brute_force_minima(params, 2)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"{region} enumeration took {elapsed:.2f}s"
        for g in generators_for(region).generators:
            assert realize(g, 2) in minima, (region, g.entries)
        if region in ("A2", "A5"):
            for cfg in sample_family(region, 5, seed=1, depth=2):
                assert cfg in minima, (region, cfg.level_spins())


@criterion(8, "first ratio component pinned on the invariant line")
def test_criterion_8():
    rng = random.Random(2024)
    for _ in range(1000):
        p = LambdaParams(*(rng.uniform(-2, 2) for _ in range(3)))
        u2 = math.exp(rng.uniform(-3, 3))
        out = push_forward([(1.0, u2)] * 2, p)
        assert out[0] == 1.0


@criterion(9, "printed discriminant factorizations audited")
def test_criterion_9():
    case_i = case_identity_check(
        "i", [0.05 * (100.0 ** (i / 99.0)) for i in range(100)])
    xs = [0.1 * (30.0 ** (i / 9.0)) for i in range(10)]
    zs = [0.11 * ((2.9 / 0.11) ** (j / 9.0)) for j in range(10)]
    case_iii = case_identity_check("iii", [(x, z) for x in xs for z in zs])
    case_ii = case_identity_check("ii", [0.2, 0.5, 2.0])

    _ARTIFACT_DIR.mkdir(exist_ok=True)
    path = _ARTIFACT_DIR / "case_identity_audit.json"
    payload = {report["case"]: report for report in (case_i, case_ii, case_iii)}
    path.write_text(json.dumps(payload, indent=2) + "\n")

    parsed = json.loads(path.read_text())
    assert set(parsed) == {"i", "ii", "iii"}
    for report in (case_i, case_ii, case_iii):
        assert report["max_rel_deviation"] <= 1e-8, report["case"]
        assert all(s["agrees"] for s in report["samples"])
