import hashlib
import json
import math
import random
import re
from fractions import Fraction

import pytest

from lambda_tree import solver
from lambda_tree.cli import sweep_to_jsonl
from lambda_tree.errors import DomainError
from lambda_tree.gibbs import push_forward
from lambda_tree.model import LambdaParams
from lambda_tree.solver import (SWEEP_COLUMNS, BoltzmannWeights,
                                CanonicalParams, count_ti_roots, sweep,
                                sweep_to_csv, ti_thresholds,
                                two_periodic_report, weights_from)
from oracles import (bisect_cubic_root, canonical_cubic_root_count,
                     case_identity_check, identity_corpus_text,
                     periodic_quadratic, printed_case_d, quadratic_by_division,
                     sweep_to_csv_by_cell, sweep_to_jsonl_by_cell,
                     ti_polynomial_root_count, ti_quartic,
                     ti_quartic_root_count)


def _roots_at(a: float, b: float):
    """solver._canonical_roots at the floats (a, b), given their exact
    count as the Sturm oracle reads it."""
    return solver._canonical_roots(a, b, canonical_cubic_root_count(a, b))


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
    # bool is an int subclass; a sweep row would print True as "true"
    for args in ((True, 1.0, 1.0), (1.0, True, 1.0), (1.0, 1.0, True)):
        with pytest.raises(DomainError) as caught:
            BoltzmannWeights(*args)
        assert str(caught.value).endswith("must be a positive finite number, got True")
    assert BoltzmannWeights(1, 2, 3).xw == 1
    # an int too large for a float names its size, not its digits
    for big in (10 ** 400, 10 ** 5000):
        with pytest.raises(DomainError) as caught:
            BoltzmannWeights(big, 1, 1)
        assert str(caught.value) == \
            f"xw must be a positive finite number, got an integer of {big.bit_length()} bits"
    with pytest.raises(DomainError) as caught:
        BoltzmannWeights(1, 1, -10 ** 400)
    assert str(caught.value).startswith("zw must be a positive finite number, got an integer")


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
    assert push_forward([(1.0, u2)] * 2, p)[1] == pytest.approx(
        solver._line_map(u2, w2.xw, w2.yw, w2.zw), rel=1e-14)


def test_canonical_params_and_scaling():
    can = count_ti_roots(BoltzmannWeights(1.0, 1.0, 1.0)).canonical
    assert can.a_can == pytest.approx(2.0)
    assert can.b_can == pytest.approx(1.0)
    # a_can is cubic in yw at fixed xw
    c1 = count_ti_roots(BoltzmannWeights(1.5, 1.0, 0.5)).canonical
    c2 = count_ti_roots(BoltzmannWeights(1.5, 2.0, 0.5)).canonical
    assert c2.a_can == pytest.approx(8.0 * c1.a_can, rel=1e-12)


def test_cubic_roots_are_map_fixed_points():
    rng = random.Random(101)
    for _ in range(40):
        w = _random_weights(rng)
        a, b, _ = solver._canonical(w.xw, w.yw, w.zw)
        roots_x, _, _ = _roots_at(a, b)
        assert len(roots_x) >= 1
        scale = 2.0 * w.yw / w.xw
        for x in roots_x:
            u = x * scale
            assert solver._line_map(u, w.xw, w.yw, w.zw) == pytest.approx(u, rel=1e-6)
        # and back: reported fixed points satisfy the cubic
        report = count_ti_roots(w)
        assert report.canonical == CanonicalParams(a, b)
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
    roots, regime, thr = _roots_at(0.025, 10.0)
    assert regime == "unique" and len(roots) == 1
    assert thr == (pytest.approx(0.03125), pytest.approx(0.032))

    roots, regime, _ = _roots_at(0.031625, 10.0)
    assert regime == "three" and len(roots) == 3

    # at b = 10 the tangency points are x1 = 2 and x2 = 5, and eps1 = 1/32
    # is a float, so a_can = 0.03125 is exactly tangent; eps2 = 4/125 is
    # not, and the float 0.032 lies just above it
    roots, regime, _ = _roots_at(0.03125, 10.0)
    assert regime == "two" and len(roots) == 2
    assert roots[0] == 2.0  # the tangency point x1 is the double root
    roots, regime, _ = _roots_at(0.032, 10.0)
    assert regime == "unique" and len(roots) == 1 and roots[0] < 2.0

    roots, regime, thr = _roots_at(0.5, 4.0)
    assert regime == "unique" and thr is None and len(roots) == 1

    # the canonical parameters are positive: _canonical refuses any other
    with pytest.raises(DomainError):
        solver._canonical(1e300, 1e-300, 1.0)


def test_bisection_matches_the_closure_oracle(monkeypatch):
    # the bisection visits the oracle's midpoints in the same order, so
    # over the same brackets it returns the same floats
    _, _, eps1, eps2 = ti_thresholds(9.1)
    cases = [(0.025, 10.0), (0.031625, 10.0), (0.03125, 10.0), (0.032, 10.0),
             (0.5, 4.0), (0.037, 8.9), (0.5 * (eps1 + eps2), 9.1)]
    rng = random.Random(0)
    for _ in range(5000):
        w = BoltzmannWeights(*(math.exp(rng.uniform(-12, 12)) for _ in range(3)))
        cases.append(solver._canonical(w.xw, w.yw, w.zw)[:2])
    cases = [(a, b, canonical_cubic_root_count(a, b)) for a, b in cases]
    shipped = [solver._canonical_roots(*case) for case in cases]
    monkeypatch.setattr(solver, "_bisect_cubic_root", bisect_cubic_root)
    assert [solver._canonical_roots(*case) for case in cases] == shipped
    # regime "two" at the exact tangency eps1 = 0.03125; the float 0.032
    # lies just above eps2 = 4/125
    assert [len(roots) for roots, _, _ in shipped[:4]] == [1, 3, 2, 1]
    assert {regime for _, regime, _ in shipped[7:]} == {"unique", "three"}


def test_root_count_straddles_the_b_boundary():
    # crossing b = 9 with a_can mid-window flips unique -> three
    below = _roots_at(0.037, 8.9)
    assert below[1] == "unique" and len(below[0]) == 1
    x1, x2, eps1, eps2 = ti_thresholds(9.1)
    mid = 0.5 * (eps1 + eps2)
    above = _roots_at(mid, 9.1)
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
            fu = solver._line_map(u, w.xw, w.yw, w.zw)
            assert abs(u - fu) < 2e-9
            assert abs(u - solver._line_map(fu, w.xw, w.yw, w.zw)) < 1e-8


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
    assert solver._line_map(r1, w.xw, w.yw, w.zw) == pytest.approx(r2, rel=1e-9)
    assert solver._line_map(r2, w.xw, w.yw, w.zw) == pytest.approx(r1, rel=1e-9)
    # coexists with a unique translation-invariant point
    fp = count_ti_roots(w)
    assert fp.regime == "unique"
    assert len(fp.ti_roots) == 1


def test_periodic_quadratic_closed_form_is_the_quotient():
    # the runtime closed form against the exact division it replaces: A, B
    # and C, and D = s^2 (s^2 - 4*alpha*gamma) against B^2 - 4AC of the
    # division, at three scales of the weights
    rng = random.Random(0)
    for s in (3, 12, 400):
        for _ in range(200):
            w = BoltzmannWeights(*(math.exp(rng.uniform(-s, s)) for _ in range(3)))
            a, b, c = quadratic_by_division(w)
            assert periodic_quadratic(w) == (a, b, c)
            x, y, z, d = solver._integers(w.xw, w.yw, w.zw)
            disc = solver._quadratic_numerators(x, y, z)[3]
            assert Fraction(disc, d ** 8) == b * b - 4 * a * c


def _factored_d(w: BoltzmannWeights) -> Fraction:
    """s^2 (s^2 - 4*alpha*gamma) at the weights, in Fractions."""
    x, y, z = Fraction(w.xw), Fraction(w.yw), Fraction(w.zw)
    alpha = x * x + x * y + y * z
    gamma = x * x + 2 * x * (y + z) + z * z
    s = x * (x + z) - 2 * y * y
    return s * s * (s * s - 4 * alpha * gamma)


def test_printed_case_discriminants_are_the_factored_form():
    # the paper's three printed factorizations are D = s^2 (s^2 - 4*alpha*gamma)
    # on their slices of the weights; the draws are binary fractions of at
    # most 31 bits, so case i's zw = xw + 1 is exact
    rng = random.Random(29)

    def draw() -> float:
        return rng.randint(1, 2 ** 20) / 2 ** rng.randint(0, 30)

    samples = {"i": [1.0], "ii": [1.0, 0.5], "iii": [(0.5, 0.5), (1.0, 2.0)]}
    for _ in range(100):
        samples["i"].append(draw())
        samples["ii"].append(draw())
        samples["iii"].append((draw(), draw()))
    for case, drawn in samples.items():
        for sample in drawn:
            printed, w = printed_case_d(case, sample)
            assert printed == _factored_d(w), (case, sample)


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


def test_log_uniform_weights_fuzz():
    # regime and root count against an exact count, over twelve e-folds of
    # each weight; the three fixed points were misjudged by absolute
    # tolerances and the float Sturm chain (regime "two" with three roots,
    # no root found, a false 2-periodic residual failure). Both cycle
    # points are reported exactly when the cycle exists.
    rng = random.Random(0)
    points = [(7.522, 0.002513, 0.9258), (0.00255, 48.08, 1.405),
              (1e-3, 1e3, 1e-3)]
    points += [tuple(math.exp(rng.uniform(-12, 12)) for _ in range(3))
               for _ in range(1000)]
    regimes = {1: "unique", 2: "two", 3: "three"}
    for point in points:
        w = BoltzmannWeights(*point)
        report = count_ti_roots(w)
        per = two_periodic_report(w)
        count = ti_polynomial_root_count(w)
        assert len(report.ti_roots) == count, point
        assert report.regime == regimes[count], point
        assert len(per.proper_roots) == (2 if per.two_periodic_exists else 0), point


def test_threshold_draws_count_exactly():
    # a_can within 1e-9 relative of eps1 or eps2, exact ones included, at
    # xw = 1: the regime is the weights' exact count, with no tolerance
    # band around the thresholds, also where the draw is within the
    # rounding of a_can itself; every root is a fixed point, and nothing
    # exits 4
    rng = random.Random(21)
    regimes = {1: "unique", 2: "two", 3: "three"}
    seen = {"far": set(), "near": set()}
    drawn = 0
    while drawn < 800:
        b = math.exp(rng.uniform(math.log(9.5), math.log(1e4)))
        eps = ti_thresholds(b)[2 + rng.randrange(2)]
        delta = 0.0 if rng.random() < 0.1 else \
            rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-17, -9)
        yw = (eps * (1.0 + delta) / 2.0) ** (1.0 / 3.0)  # a_can = 2*yw^3
        zw = 2.0 * b * yw * yw - 1.0  # b_can = (1 + zw) / (2*yw^2)
        if not zw > 0:
            continue
        drawn += 1
        w = BoltzmannWeights(1.0, yw, zw)
        report = count_ti_roots(w)
        two_periodic_report(w)
        count = ti_polynomial_root_count(w)
        assert len(report.ti_roots) == count, (w, delta)
        assert report.regime == regimes[count], (w, delta)
        seen["far" if abs(delta) >= 1e-14 else "near"].add(count)
        for u in report.ti_roots:
            fu = solver._line_map(u, w.xw, w.yw, w.zw)
            assert abs(u - fu) <= 1e-9 * max(1.0, u), (w, u)
    assert seen["far"] == {1, 3} and seen["near"] >= {1, 3}


def _canonical_q(a, b) -> Fraction:
    """Q = 4a^2b^3 - ab^2 - 18ab + 27a + 4, exactly."""
    a, b = Fraction(a), Fraction(b)
    return 4 * a * a * b ** 3 - a * b * b - 18 * a * b + 27 * a + 4


def test_ti_quartic_count_is_the_weights_count():
    # T = -2x^3y Q(a_can, b_can) on the weights' exact canonical values,
    # and its sign is the weights' Sturm count, in Fractions and as
    # solver._ti_count reads it on the weights' integers, at s = 0 points,
    # at the exact tangency (1, 1/4, 1/4), on log-uniform weights, on
    # threshold draws and next to the cusp (b, a) = (9, 1/27)
    rng = random.Random(10)
    points = [(1.0, 1.0, 1.0), (0.5, 0.5, 0.5), (1.0, 3.0, 17.0), (4.0, 6.0, 14.0),
              (1.0, 0.25, 0.25)]
    for s in (3, 12):
        points += [tuple(math.exp(rng.uniform(-s, s)) for _ in range(3))
                   for _ in range(400)]
    while len(points) < 1205:
        b = math.exp(rng.uniform(math.log(9.5), math.log(1e4)))
        eps = ti_thresholds(b)[2 + rng.randrange(2)]
        yw = (eps * (1.0 + rng.uniform(-1e-9, 1e-9)) / 2.0) ** (1.0 / 3.0)
        if 2.0 * b * yw * yw > 1.0:
            points.append((1.0, yw, 2.0 * b * yw * yw - 1.0))
    for _ in range(100):
        yw = (1 / 54 * (1.0 + rng.uniform(-1e-12, 1e-12))) ** (1.0 / 3.0)
        points.append((1.0, yw, 18.0 * (1.0 + rng.uniform(-1e-12, 1e-12)) * yw * yw - 1.0))
    counts = set()
    for point in points:
        w = BoltzmannWeights(*point)
        x, y, z = map(Fraction, point)
        q = _canonical_q(2 * y ** 3 / x ** 3, x * (x + z) / (2 * y * y))
        assert ti_quartic(w) == -2 * x ** 3 * y * q, point
        count = ti_quartic_root_count(w)
        assert count == ti_polynomial_root_count(w), point
        assert solver._ti_count(*solver._integers(*point)[:3]) == count, point
        counts.add(count)
    assert counts == {1, 2, 3}


def _float_or_none(value: Fraction) -> float | None:
    try:
        return float(value)
    except OverflowError:
        return None


def test_a_common_factor_of_the_weights_changes_no_verdict():
    # weights shifted by e^300 or more are rescaled by a power of two before
    # the canonical parameters, the roots and the properness check; every
    # verdict matches the unshifted weights', and A, B, C, D stay the
    # caller's
    rng = random.Random(20)
    compared = 0
    for span in (3, 12):
        for _ in range(60):
            logs = [rng.uniform(-span, span) for _ in range(3)]
            base = BoltzmannWeights(*map(math.exp, logs))
            ti, per = count_ti_roots(base), two_periodic_report(base)
            for shift in (300, -300, 600, -600, 700, -700, rng.uniform(-700, 700)):
                if not all(-745 < v + shift < 709 for v in logs):
                    continue
                w = BoltzmannWeights(*(math.exp(v + shift) for v in logs))
                shifted_ti, shifted_per = count_ti_roots(w), two_periodic_report(w)
                assert shifted_ti.regime == ti.regime, (logs, shift)
                assert shifted_ti.ti_roots == pytest.approx(ti.ti_roots, rel=1e-9)
                assert (shifted_ti.canonical.a_can, shifted_ti.canonical.b_can) == \
                    pytest.approx((ti.canonical.a_can, ti.canonical.b_can), rel=1e-9)
                assert shifted_per.two_periodic_exists == per.two_periodic_exists
                assert len(shifted_per.proper_roots) == len(per.proper_roots)
                assert shifted_per.proper_roots == pytest.approx(per.proper_roots, rel=1e-6)
                assert shifted_per.quad[1] == _float_or_none(periodic_quadratic(w)[1])
                compared += 1
    assert compared > 500
    # inside [2^-256, 2^256] the weights are used as given
    w = BoltzmannWeights(2.0 ** 256, 3.0, 2.0 ** -256)
    assert solver._moderate(w.xw, w.yw, w.zw) == (w.xw, w.yw, w.zw)


def test_out_of_float_range_is_a_domain_error():
    with pytest.raises(DomainError):
        weights_from(LambdaParams(0.0, 0.0, 1000.0))
    for w in ((1e-300, 1.0, 1.0), (1e300, 1.0, 1.0)):
        with pytest.raises(DomainError):
            count_ti_roots(BoltzmannWeights(*w))
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
        can = count_ti_roots(w).canonical
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
    # a row is built from the exact counts alone, the reports from the
    # roots: on log-uniform weights at three scales and on threshold draws
    # a_can = eps_i*(1 + delta), exact ones included, every cell both
    # print agrees, the count is the weights' own, and a point the row
    # refuses, the reports refuse with the same error
    rng = random.Random(31)
    points = [BoltzmannWeights(*(math.exp(rng.uniform(-s, s)) for _ in range(3)))
              for s in (3, 24, 400) for _ in range(300)]
    points.append(BoltzmannWeights(1.0, 0.25, 0.25))  # a_can = eps1 = 1/32 exactly
    while len(points) < 1200:
        b = math.exp(rng.uniform(math.log(9.5), math.log(1e4)))
        eps = ti_thresholds(b)[2 + rng.randrange(2)]
        delta = 0.0 if rng.random() < 0.1 else \
            rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-17, -3)
        yw = (eps * (1.0 + delta) / 2.0) ** (1.0 / 3.0)  # a_can = 2*yw^3
        zw = 2.0 * b * yw * yw - 1.0  # b_can = (1 + zw) / (2*yw^2)
        if zw > 0:
            points.append(BoltzmannWeights(1.0, yw, zw))
    counts, refused = set(), 0
    for w in points:
        try:
            row = sweep([w])[0]
        except DomainError as e:
            with pytest.raises(DomainError, match=re.escape(str(e))):
                count_ti_roots(w)
                two_periodic_report(w)
            refused += 1
            continue
        report, per = count_ti_roots(w), two_periodic_report(w)
        assert row.ti_count == len(report.ti_roots) == ti_polynomial_root_count(w), w
        assert report.regime == ("unique", "two", "three")[row.ti_count - 1], w
        assert (row.a_can, row.b_can) == (report.canonical.a_can,
                                          report.canonical.b_can), w
        assert (row.eps1, row.eps2) == (report.thresholds or (None, None)), w
        assert (row.B, row.D, row.two_periodic) == \
            (per.quad[1], per.discriminant, per.two_periodic_exists), w
        assert row.phase_transition == (row.ti_count > 1 or row.two_periodic), w
        counts.add(row.ti_count)
    assert counts == {1, 2, 3} and 0 < refused < 300


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
    # solver's CSV writer, one conditional per cell, and cli's JSON Lines
    # writer, one rounded dict per row, against the writers that read and
    # format each named cell on its own
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


def test_cycle_points_past_the_float_range_are_a_domain_error():
    # the cycle exists exactly, but its points round to 0.0 and 2.7e185,
    # then to inf and 0.0; count_ti_roots rejects these weights too, as
    # their canonical parameters leave the float range
    for w in (BoltzmannWeights(8.92071352562227e-90, 1.9035259606087756e+126,
                               7.350533831364753e+33),
              BoltzmannWeights(4.142210446430142e-140, 5.599564072834964e+49,
                               9.748178529516666e-106)):
        a, b, c = periodic_quadratic(w)
        assert b < 0 < b * b - 4 * a * c
        with pytest.raises(DomainError, match="2-periodic roots .* out of float range"):
            two_periodic_report(w)
        with pytest.raises(DomainError):
            count_ti_roots(w)


def test_sweep_and_solve_output_is_pinned_byte_for_byte():
    # the text of the seeded corpus as the reports printed it before the
    # sweep computed its rows on plain floats
    text = identity_corpus_text()
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "05a39df59ddb3ba1a9e999cb815e660a232cc9613981fe427a8f812528beb6ac"
