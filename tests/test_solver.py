import json
import math
import random
from fractions import Fraction

import pytest

from lambda_tree import solver
from lambda_tree.errors import DomainError
from lambda_tree.gibbs import push_forward
from lambda_tree.model import LambdaParams
from lambda_tree.solver import (SWEEP_COLUMNS, BoltzmannWeights,
                                canonical_params, canonical_root_count,
                                count_ti_roots, f_map, periodic_quadratic,
                                sweep, sweep_to_csv, sweep_to_jsonl,
                                ti_thresholds, two_periodic_report,
                                weights_from)
from oracles import (bisect_cubic_root, case_identity_check,
                     quadratic_by_division, sweep_to_csv_by_cell,
                     sweep_to_jsonl_by_cell)


def _random_weights(rng: random.Random) -> BoltzmannWeights:
    return BoltzmannWeights(*(math.exp(rng.uniform(-1.5, 1.5))
                              for _ in range(3)))


def test_weights_from_params():
    assert weights_from(LambdaParams(0.0, 0.0, 0.0)) == \
        BoltzmannWeights(1.0, 1.0, 1.0)
    w = weights_from(LambdaParams(0.0, 0.0, math.log(2.0)))
    assert w.xw == pytest.approx(2.0, rel=1e-15)
    assert w.yw == 1.0 and w.zw == 1.0
    # doubling beta squares every weight
    base = weights_from(LambdaParams(0.3, -0.7, 1.1, beta=0.8))
    twice = weights_from(LambdaParams(0.3, -0.7, 1.1, beta=1.6))
    for name in ("xw", "yw", "zw"):
        assert getattr(twice, name) == pytest.approx(
            getattr(base, name) ** 2, rel=1e-12)


def test_weight_validation():
    with pytest.raises(DomainError):
        BoltzmannWeights(0.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        BoltzmannWeights(1.0, -2.0, 1.0)
    with pytest.raises(DomainError):
        BoltzmannWeights(1.0, 1.0, math.inf)
    with pytest.raises(ValueError):
        BoltzmannWeights.from_mapping({"xw": 1.0, "yw": 1.0})


def test_two_component_map():
    # the ratio recursion with two equal children is the two-component map
    flat = LambdaParams(0.0, 0.0, 0.0)
    assert push_forward([(1.0, 1.0)] * 2, flat) == (1.0, 1.0)
    with pytest.raises(DomainError):
        push_forward([(-1.0, 1.0)] * 2, flat)
    # second component agrees with the scalar map when u1 is pinned
    p = LambdaParams(math.log(2.1), math.log(1.3), math.log(0.7))
    w2 = weights_from(p)
    u2 = 1.9
    assert push_forward([(1.0, u2)] * 2, p)[1] == pytest.approx(f_map(u2, w2), rel=1e-14)


def test_canonical_params_and_scaling():
    assert canonical_params(BoltzmannWeights(1.0, 1.0, 1.0)) \
        .a_can == pytest.approx(2.0)
    assert canonical_params(BoltzmannWeights(1.0, 1.0, 1.0)) \
        .b_can == pytest.approx(1.0)
    # a_can is cubic in yw at fixed xw
    c1 = canonical_params(BoltzmannWeights(1.5, 1.0, 0.5))
    c2 = canonical_params(BoltzmannWeights(1.5, 2.0, 0.5))
    assert c2.a_can == pytest.approx(8.0 * c1.a_can, rel=1e-12)


def test_cubic_roots_are_map_fixed_points():
    rng = random.Random(101)
    for _ in range(40):
        w = _random_weights(rng)
        can = canonical_params(w)
        roots_x, _, _ = canonical_root_count(can.a_can, can.b_can)
        assert len(roots_x) >= 1
        scale = 2.0 * w.yw / w.xw
        for x in roots_x:
            u = x * scale
            assert f_map(u, w) == pytest.approx(u, rel=1e-6)
        # and back: reported fixed points satisfy the cubic
        a, b = can.a_can, can.b_can
        report = count_ti_roots(w)
        assert report.canonical == can
        for u in report.ti_roots:
            x = u / scale
            assert a * x * (b + x) ** 2 == pytest.approx((1 + x) ** 2, rel=1e-9)


def test_thresholds_at_b_ten():
    x1, x2, eps1, eps2 = ti_thresholds(10.0)
    assert x1 == 2.0
    assert x2 == 5.0
    assert eps1 == 0.03125  # (1/2)((1+2)/(10+2))^2 is exact in binary
    assert eps2 == pytest.approx(4.0 / 125.0, rel=1e-12)
    with pytest.raises(DomainError):
        ti_thresholds(9.0)
    with pytest.raises(DomainError):
        ti_thresholds(2.0)


def test_threshold_ordering():
    rng = random.Random(7)
    for _ in range(50):
        b = 9.0 + math.exp(rng.uniform(-3, 3))
        x1, x2, eps1, eps2 = ti_thresholds(b)
        assert 0 < x1 < 3 < x2
        assert x1 * x2 == pytest.approx(b, rel=1e-12)
        assert 0 < eps1 < eps2


def test_root_count_regimes():
    roots, regime, thr = canonical_root_count(0.025, 10.0)
    assert regime == "unique" and len(roots) == 1
    assert thr == (pytest.approx(0.03125), pytest.approx(0.032))

    roots, regime, _ = canonical_root_count(0.031625, 10.0)
    assert regime == "three" and len(roots) == 3

    roots, regime, _ = canonical_root_count(0.032, 10.0)
    assert regime == "two" and len(roots) == 2
    assert roots[1] == 5.0  # the tangency point x2 is the double root

    roots, regime, thr = canonical_root_count(0.5, 4.0)
    assert regime == "unique" and thr is None and len(roots) == 1

    with pytest.raises(DomainError):
        canonical_root_count(-1.0, 10.0)


def test_bisection_matches_the_closure_oracle(monkeypatch):
    # the two-loop bisection visits the oracle's midpoints in the same
    # order, so over the same brackets it returns the same floats
    _, _, eps1, eps2 = ti_thresholds(9.1)
    cases = [(0.025, 10.0), (0.031625, 10.0), (0.03125, 10.0), (0.032, 10.0),
             (0.5, 4.0), (0.037, 8.9), (0.5 * (eps1 + eps2), 9.1)]
    rng = random.Random(0)
    for _ in range(5000):
        w = BoltzmannWeights(*(math.exp(rng.uniform(-12, 12)) for _ in range(3)))
        can = canonical_params(w)
        cases.append((can.a_can, can.b_can))
    shipped = [canonical_root_count(a, b) for a, b in cases]
    monkeypatch.setattr(solver, "_bisect_cubic_root", bisect_cubic_root)
    assert [canonical_root_count(a, b) for a, b in cases] == shipped
    # both tangency cases of regime "two", at eps1 and at eps2
    assert [len(roots) for roots, _, _ in shipped[:4]] == [1, 3, 2, 2]
    assert {regime for _, regime, _ in shipped[7:]} == {"unique", "three"}


def test_root_count_straddles_the_b_boundary():
    # crossing b = 9 with a_can mid-window flips unique -> three
    below = canonical_root_count(0.037, 8.9)
    assert below[1] == "unique" and len(below[0]) == 1
    x1, x2, eps1, eps2 = ti_thresholds(9.1)
    mid = 0.5 * (eps1 + eps2)
    above = canonical_root_count(mid, 9.1)
    assert above[1] == "three" and len(above[0]) == 3


def test_count_ti_roots_symmetric_point():
    report = count_ti_roots(BoltzmannWeights(1.0, 1.0, 1.0))
    assert report.ti_roots == (pytest.approx(1.0, abs=1e-12),)
    assert report.regime == "unique"
    assert report.thresholds is None
    assert not report.phase_transition


def test_ti_roots_are_period_two_points_as_well():
    rng = random.Random(59)
    for _ in range(30):
        w = _random_weights(rng)
        for u in count_ti_roots(w).ti_roots:
            assert abs(u - f_map(u, w)) < 2e-9
            assert abs(u - f_map(f_map(u, w), w)) < 1e-8


def test_phase_flag_tracks_regime():
    rng = random.Random(61)
    for _ in range(30):
        w = _random_weights(rng)
        report = count_ti_roots(w)
        assert report.phase_transition == (report.regime != "unique")


def test_periodic_quadratic_symmetric_point():
    a, b, c = periodic_quadratic(BoltzmannWeights(1.0, 1.0, 1.0))
    assert (a, b, c) == (Fraction(9), Fraction(36), Fraction(36))
    report = two_periodic_report(BoltzmannWeights(1.0, 1.0, 1.0))
    assert report.discriminant == 0.0
    assert not report.two_periodic_exists
    assert report.proper_roots == ()


def test_periodic_quadratic_positive_outer_coeffs():
    rng = random.Random(67)
    for _ in range(25):
        a, _, c = periodic_quadratic(_random_weights(rng))
        assert a > 0 and c > 0


def test_equal_edge_weights_two_cycle():
    # xw = zw = 0.2, yw = 1: the quadratic has two positive roots forming
    # a proper 2-cycle of the scalar map
    w = BoltzmannWeights(0.2, 1.0, 0.2)
    a, b, c = periodic_quadratic(w)
    assert b < 0
    disc = b * b - 4 * a * c
    assert disc > 0
    report = two_periodic_report(w)
    assert report.two_periodic_exists
    assert report.discriminant == pytest.approx(9.95622912, rel=1e-9)
    r1, r2 = report.proper_roots
    assert 0 < r1 < r2
    assert f_map(r1, w) == pytest.approx(r2, rel=1e-9)
    assert f_map(r2, w) == pytest.approx(r1, rel=1e-9)
    # coexists with a unique translation-invariant point
    fp = count_ti_roots(w)
    assert fp.regime == "unique"
    assert len(fp.ti_roots) == 1


def test_periodic_quadratic_closed_form_is_the_quotient():
    # the runtime closed form against the exact division it replaces
    rng = random.Random(0)
    for _ in range(200):
        w = BoltzmannWeights(*(math.exp(rng.uniform(-12, 12)) for _ in range(3)))
        assert periodic_quadratic(w) == quadratic_by_division(w)


def test_equal_edge_weights_degenerate_at_one():
    # xw = zw = 1 collapses the discriminant to exactly zero
    a, b, c = periodic_quadratic(BoltzmannWeights(1.0, 1.0, 1.0))
    assert b * b - 4 * a * c == 0


def test_shifted_edge_weights_never_cycle():
    # zw = xw + 1, yw = 1 keeps the discriminant strictly negative
    w = BoltzmannWeights(1.0, 1.0, 2.0)
    a, b, c = periodic_quadratic(w)
    assert b * b - 4 * a * c == Fraction(-175)
    assert not two_periodic_report(w).two_periodic_exists


def _exact_ti_count(w: BoltzmannWeights) -> int:
    """Distinct positive roots of u*(yw*u + xw + zw)^2 - (xw*u + 2*yw)^2,
    counted by Sturm's theorem in exact rationals."""
    x, y, z = Fraction(w.xw), Fraction(w.yw), Fraction(w.zw)
    s = x + z
    p = [-4 * y * y, s * s - 4 * x * y, 2 * y * s - x * x, y * y]  # ascending
    chain = [p, [i * c for i, c in enumerate(p)][1:]]
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
        return sum(1 for s1, s2 in zip(signs, signs[1:]) if s1 != s2)

    return variations(q[0] for q in chain) - variations(q[-1] for q in chain)


def test_log_uniform_weights_fuzz():
    # regime and root count against an exact count, over twelve e-folds of
    # each weight; the three fixed points were misjudged by absolute
    # tolerances and the float Sturm chain (regime "two" with three roots,
    # no root found, a false 2-periodic residual failure)
    rng = random.Random(0)
    points = [(7.522, 0.002513, 0.9258), (0.00255, 48.08, 1.405),
              (1e-3, 1e3, 1e-3)]
    points += [tuple(math.exp(rng.uniform(-12, 12)) for _ in range(3))
               for _ in range(1000)]
    regimes = {1: "unique", 2: "two", 3: "three"}
    for point in points:
        w = BoltzmannWeights(*point)
        report = count_ti_roots(w)
        two_periodic_report(w)
        count = _exact_ti_count(w)
        assert len(report.ti_roots) == count, point
        assert report.regime == regimes[count], point


def test_out_of_float_range_is_a_domain_error():
    with pytest.raises(DomainError):
        weights_from(LambdaParams(0.0, 0.0, 1000.0))
    for w in ((1e-300, 1.0, 1.0), (1e300, 1.0, 1.0)):
        with pytest.raises(DomainError):
            canonical_params(BoltzmannWeights(*w))
    with pytest.raises(DomainError):
        ti_thresholds(1e200)
    # A is about 9e400: out-of-range coefficients are None, D is exactly 0
    report = two_periodic_report(BoltzmannWeights(1e100, 1e100, 1e100))
    assert report.quad == (None, None, None) and report.discriminant == 0.0
    assert not report.two_periodic_exists and report.proper_roots == ()
    # xw ~ 2.7e43: A, B and C fit a float, D ~ 1e349 does not
    report = two_periodic_report(weights_from(LambdaParams(0.0, 0.0, 100.0)))
    assert None not in report.quad and report.discriminant is None
    row = sweep([LambdaParams(0.0, 0.0, 100.0)])[0]
    assert row.B == report.quad[1] and row.D is None
    assert sweep_to_csv([row]).splitlines()[1].split(",")[SWEEP_COLUMNS.index("D")] == ""
    assert json.loads(sweep_to_jsonl([row]))["D"] is None
    # A, B, C and D underflow a float here, yet the roots come out
    report = two_periodic_report(
        BoltzmannWeights(4.5093636089681495e-91, 5.811444690637966e-88,
                         1.130011808956121e-123))
    assert report.quad[0] == 0.0


def test_case_identity_audit():
    rows = case_identity_check("ii", [0.2, 0.5, 2.0])
    assert rows["max_rel_deviation"] <= 1e-12
    assert all(s["agrees"] for s in rows["samples"])

    one = case_identity_check("i", [1.0])
    assert one["samples"][0]["computed_d"] == -175.0
    assert one["max_rel_deviation"] == 0.0

    diag = case_identity_check("iii", [(0.5, 0.5)])
    assert diag["samples"][0]["computed_d"] == 0.0
    assert diag["samples"][0]["printed_d"] == 0.0
    assert diag["max_rel_deviation"] == 0.0

    with pytest.raises(ValueError):
        case_identity_check("iv", [1.0])

    # the artifact's key order
    assert list(one) == ["case", "max_rel_deviation", "samples"]
    assert one["case"] == "i"
    assert list(one["samples"][0]) == ["weights", "computed_d", "printed_d",
                                       "rel_deviation", "agrees"]
    assert one["samples"][0]["weights"] == [1.0]
    assert one["samples"][0]["agrees"] is True


def _weights_for_canonical(a_can: float, b_can: float) -> BoltzmannWeights:
    """Weights with yw = 1 realizing (a_can, b_can); DomainError where the
    implied zw = 2*b_can/xw - xw is not positive."""
    xw = (2.0 / a_can) ** (1.0 / 3.0)
    return BoltzmannWeights(xw, 1.0, 2.0 * b_can / xw - xw)


def test_canonical_inverse_round_trip():
    rng = random.Random(71)
    hits = 0
    while hits < 20:
        a_can = math.exp(rng.uniform(-3, 3))
        b_can = math.exp(rng.uniform(-1, 3))
        try:
            w = _weights_for_canonical(a_can, b_can)
        except DomainError:
            continue
        hits += 1
        can = canonical_params(w)
        assert can.a_can == pytest.approx(a_can, rel=1e-12)
        assert can.b_can == pytest.approx(b_can, rel=1e-12)


def test_sweep_single_point_matches_reports():
    params = LambdaParams(0.0, 0.0, 0.0)
    rows = sweep([params])
    assert len(rows) == 1
    row = rows[0]
    assert (row.a, row.b, row.c, row.beta) == (0.0, 0.0, 0.0, 1.0)
    assert (row.xw, row.yw, row.zw) == (1.0, 1.0, 1.0)
    assert row.a_can == pytest.approx(2.0)
    assert row.b_can == pytest.approx(1.0)
    assert row.ti_count == 1
    assert row.eps1 is None and row.eps2 is None
    assert row.B == 36.0 and row.D == 0.0
    assert not row.two_periodic and not row.phase_transition


def test_sweep_accepts_raw_weights():
    row = sweep([BoltzmannWeights(0.2, 1.0, 0.2)])[0]
    assert row.a is None and row.beta is None
    assert row.two_periodic and row.phase_transition


def test_sweep_csv_and_jsonl_layout():
    rows = sweep([LambdaParams(0.0, 0.0, 0.0),
                  BoltzmannWeights(0.2, 1.0, 0.2)])
    text = sweep_to_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "0" and first[-1] == "false"
    second = lines[2].split(",")
    assert second[0] == "" and second[-1] == "true"

    for line, row in zip(sweep_to_jsonl(rows).strip().splitlines(), rows):
        obj = json.loads(line)
        assert set(obj) == set(SWEEP_COLUMNS)
        assert obj["ti_count"] == row.ti_count
        assert obj["two_periodic"] is row.two_periodic
    assert json.loads(sweep_to_jsonl(rows).splitlines()[1])["a"] is None


def test_sweep_writers_match_the_per_cell_oracles():
    # one format per CSV row, and one zip per JSON object, against the
    # writers that read and format each named cell on its own
    rng = random.Random(5)
    points = [LambdaParams(0, 0, 100),           # int couplings, D out of range
              BoltzmannWeights(0.2, 1.0, 0.2),   # None couplings, a 2-cycle
              BoltzmannWeights(1, 2, 3)]         # int weights
    for _ in range(150):
        points.append(LambdaParams(*(rng.uniform(-3, 3) for _ in range(3)),
                                   rng.uniform(0.1, 2.0)))
        points.append(BoltzmannWeights(*(math.exp(rng.uniform(-3, 3))
                                         for _ in range(3))))
    rows = sweep(points)
    assert rows[0].D is None and rows[1].a is None and type(rows[2].xw) is int
    assert all(type(row.ti_count) is int for row in rows)
    assert {row.ti_count for row in rows} == {1, 3}
    for flag in ("two_periodic", "phase_transition"):
        assert {getattr(row, flag) for row in rows} == {True, False}
    for chunk in ([], rows[:1], rows, rows[::-1]):
        assert sweep_to_csv(chunk) == sweep_to_csv_by_cell(chunk)
        assert sweep_to_jsonl(chunk) == sweep_to_jsonl_by_cell(chunk)


def test_sweep_potts_slice_threshold_crossing():
    # a = b = 0: only the equal-spin coupling varies. The threshold pair
    # appears once xw(xw+1)/2 > 9, i.e. past c = ln((sqrt(73)-1)/2).
    c_star = math.log((math.sqrt(73.0) - 1.0) / 2.0)
    rows = sweep([LambdaParams(0.0, 0.0, c) for c in
                  (1.0, 1.2, 1.32, 1.33, 1.5, 2.0)])
    for row in rows:
        has_thresholds = row.eps1 is not None
        assert has_thresholds == (row.b_can > 9.0)
        assert has_thresholds == (row.c > c_star)


def test_sweep_remark_point_unique_yet_cycling():
    # small equal edge weights: exactly one translation-invariant solution
    # but a proper 2-cycle, so the phase flag comes from the cycle alone
    row = sweep([BoltzmannWeights(0.2, 1.0, 0.2)])[0]
    assert row.ti_count == 1
    assert row.a_can == pytest.approx(250.0, rel=1e-12)
    assert row.b_can == pytest.approx(0.04, rel=1e-12)
    assert row.two_periodic and row.phase_transition
