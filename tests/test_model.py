import math
import random
from itertools import product

import pytest

from lambda_tree import ground
from lambda_tree.errors import DomainError
from lambda_tree.gibbs import push_forward
from lambda_tree.ground import brute_force_minima
from lambda_tree.model import (REGION_NAMES, SPINS, Configuration, LambdaParams,
                               _catalogue, ball_entry, classify_region, coupling_rows,
                               edge_weight, min_ball_energy, minimal_entries)
from lambda_tree.tree import TreeCoord, TreeShape
from oracles import ball_energy, clear_caches, position


def test_params_validation():
    with pytest.raises(ValueError):
        LambdaParams(float("nan"), 0.0, 0.0)
    with pytest.raises(ValueError):
        LambdaParams(0.0, float("inf"), 0.0)
    with pytest.raises(ValueError):
        LambdaParams(0.0, 0.0, 0.0, beta=0.0)
    # bool is an int subclass, yet True is no coupling
    for args in ((True, 0, 0), (0, False, 0), (0, 0, True), (0, 0, 0, True)):
        with pytest.raises(ValueError, match="must be a finite number, got (True|False)$"):
            LambdaParams(*args)
    assert LambdaParams(1, 0, -2, 3).a == 1
    assert LambdaParams(10 ** 308, 0, 0).a == 10 ** 308
    p = LambdaParams(**{"a": 1.0, "b": 2.0, "c": 3.0})
    assert (p.a, p.b, p.c, p.beta) == (1.0, 2.0, 3.0, 1.0)


def test_params_past_the_float_range_are_refused():
    # an int too large for a float is no finite number; the message names
    # its size, never its digits (repr fails past 4300 of them)
    for big, bits in ((10 ** 400, 1329), (-10 ** 400, 1329), (10 ** 5000, 16610),
                      (2 ** 1024, 1025), (2 ** 1024 - 1, 1024)):
        for args, name in (((big, 0, 0), "a"), ((0, big, 0), "b"),
                           ((0, 0, big), "c"), ((0, 0, 0, big), "beta")):
            with pytest.raises(ValueError) as caught:
                LambdaParams(*args)
            message = str(caught.value)
            assert message == f"{name} must be a finite number, got an integer of {bits} bits"
            assert len(message.encode()) < 300
    # the largest int a float still holds is a coupling
    assert LambdaParams(0, 0, 2 ** 1024 - 2 ** 971).c == 2 ** 1024 - 2 ** 971


def test_coupling_by_distance():
    # a at spin distance 2, b at 1, c at 0, one row per spin of SPINS
    p = LambdaParams(-1.0, 2.0, 5.0)
    rows = coupling_rows(p)
    assert rows == ((5.0, 2.0, -1.0), (2.0, 5.0, 2.0), (-1.0, 2.0, 5.0))
    for i in SPINS:
        for j in SPINS:
            assert rows[i - 1][j - 1] == rows[j - 1][i - 1] == (p.c, p.b, p.a)[abs(i - j)]


def test_potts_reduction():
    """With a = b = 0 and c = -J the coupling is -J on the diagonal, 0 off it."""
    j = 1.7
    p = LambdaParams(0.0, 0.0, -j)
    for i in SPINS:
        for k in SPINS:
            expected = -j if i == k else 0.0
            assert coupling_rows(p)[i - 1][k - 1] == expected


def test_configuration_storage():
    shape = TreeShape(2, 1)
    sigma = Configuration(shape, (1, 3, 2))
    assert sigma.spins[position(TreeCoord(()))] == 1
    assert sigma.spins[position(TreeCoord((2,)))] == 2
    assert str(sigma) == "132"
    assert sigma.level_spins() is None          # level 1 is not constant
    assert Configuration(shape, (2, 3, 3)).level_spins() == (2, 3)
    with pytest.raises(ValueError):
        Configuration(shape, (1, 2))
    with pytest.raises(ValueError):
        Configuration(shape, (1, 2, 3, 1))


def test_configuration_restrict_is_prefix():
    # the first |V_1| spins of a depth-2 configuration are its restriction
    # to V_1: every inner vertex reads the same spin in both
    shape = TreeShape(2, 2)
    spins = tuple(random.Random(3).choice(SPINS) for _ in range(7))
    sigma = Configuration(shape, spins)
    inner = Configuration(TreeShape(2, 1), spins[:3])
    for i in range(inner.shape.vertex_count()):
        assert inner.shape.vertex_at(i) == shape.vertex_at(i)
        assert inner.spins[i] == sigma.spins[i]


def test_ball_energy_catalogue_membership():
    # all 27 center/children combinations land exactly on one of the six values
    p = LambdaParams(0.25, -0.5, 1.75)
    catalogue = _catalogue(p.a, p.b, p.c)
    assert catalogue == (p.a, (p.a + p.b) / 2, (p.a + p.c) / 2,
                         p.b, (p.b + p.c) / 2, p.c)
    seen = set()
    for center, c1, c2 in product(SPINS, repeat=3):
        u = ball_energy(center, c1, c2, p)
        assert u == catalogue[ball_entry(center, (c1, c2))]
        seen.add(u)
    assert seen == set(catalogue)
    assert min_ball_energy(p) == min(catalogue)


def test_ball_energy_named_values():
    p = LambdaParams(-3.0, 2.0, 7.0)
    catalogue = _catalogue(p.a, p.b, p.c)
    assert catalogue[ball_entry(1, (3, 3))] == p.a
    assert catalogue[ball_entry(1, (2, 3))] == (p.a + p.b) / 2
    assert catalogue[ball_entry(2, (2, 2))] == p.c


def test_averages_stay_exact_at_the_ends_of_the_float_range():
    # (x + y) / 2 unless the sum overflows; halving first would lose subnormals
    tiny = LambdaParams(5e-324, 5e-324, 0.0)
    assert _catalogue(5e-324, 5e-324, 0.0)[1] == ball_energy(1, 2, 3, tiny) == 5e-324
    # halved first, (a + b) / 2 would be 0, the one minimal entry
    assert classify_region(LambdaParams(5e-324, 5e-324, 1.0)).minimal_energy == 5e-324
    assert minimal_entries(5e-324, 5e-324, 1.0, 0.0) == (True, True, False, True, False, False)
    huge = LambdaParams(-1.7e308, -1e308, 0.0)
    assert _catalogue(-1.7e308, -1e308, 0.0) == (-1.7e308, -1.35e308, -8.5e307,
                                                 -1e308, -5e307, 0.0)
    assert minimal_entries(-1.7e308, -1e308, 0.0, 0.0) == (True,) + (False,) * 5
    assert classify_region(huge).active_regions == ("A1",)
    assert classify_region(huge).minimal_energy == -1.7e308


def test_ball_energy_is_its_catalogue_entry():
    # value and type, for int couplings that no float equals as well: an
    # entry that is a coupling itself stays that int, and so does the
    # minimal energy read off it
    values = (0, 1, -1, 10 ** 308, -10 ** 308)
    for t in product(values, repeat=3):
        catalogue = _catalogue(*t)
        for entry, coupling in ((0, t[0]), (3, t[1]), (5, t[2])):
            assert catalogue[entry] == coupling and type(catalogue[entry]) is int, t
        energy = classify_region(LambdaParams(*t)).minimal_energy
        assert energy == min(catalogue) and type(energy) is type(min(catalogue)), t
    # floats are the average of the ball's two couplings, bit for bit
    rng = random.Random(3)
    floats = (0.0, -0.0, 5e-324, -5e-324, 1.7e308, -1.7e308, 1.0, -2.5)
    for _ in range(200):
        p = LambdaParams(*(rng.choice(floats) * rng.choice((1.0, rng.random()))
                           for _ in range(3)))
        catalogue = _catalogue(p.a, p.b, p.c)
        for center, c1, c2 in product(SPINS, repeat=3):
            entry, mean = catalogue[ball_entry(center, (c1, c2))], ball_energy(center, c1, c2, p)
            assert math.copysign(1.0, entry) == math.copysign(1.0, mean)
            assert entry == mean, (p, center, c1, c2)


def test_int_couplings_decide_as_their_float_values():
    # an exact int sum past the float range is averaged as x/2 + y/2, and
    # the mask is decided on floats, so 10**308, which no float equals,
    # does not fall outside its own rounded min + tol
    p = LambdaParams(10 ** 308, 10 ** 308, 0)
    assert classify_region(p).active_regions == ("A6",)
    assert _catalogue(p.a, p.b, p.c)[1] == 1e308  # (a + b) / 2
    assert _catalogue(p.a, p.b, p.c)[0] == 10 ** 308  # a itself, the catalogue's U1
    assert len(brute_force_minima(p, 1)) == 3
    assert minimal_entries(10 ** 308, 10 ** 308, 0, 0.0) == (False,) * 5 + (True,)
    values = (0, 1, -1, 10 ** 308, -10 ** 308, 2 ** 1023, -2 ** 1023)
    for t in product(values, repeat=3):
        exact, rounded = LambdaParams(*t), LambdaParams(*map(float, t))
        for tol in (0.0, 0.5, math.inf):
            assert classify_region(exact, tol).active_regions == \
                classify_region(rounded, tol).active_regions, (t, tol)
            assert ground._minimal_balls(exact, tol) is ground._minimal_balls(rounded, tol)
        # the entries themselves may round apart from the float triple's
        assert all(map(math.isfinite, _catalogue(*t))), t


def test_classify_strict_interiors():
    assert classify_region(LambdaParams(0, 1, 2)).active_regions == ("A1",)
    assert classify_region(LambdaParams(2, 2, 0)).active_regions == ("A6",)
    assert classify_region(LambdaParams(1, 0, 2)).active_regions == ("A4",)
    assert not classify_region(LambdaParams(0, 1, 2)).boundary


def test_classify_equality_boundary():
    report = classify_region(LambdaParams(1, 1, 2))
    assert report.active_regions == ("A1", "A2", "A4")
    assert report.boundary
    assert report.minimal_energy == 1.0


def test_classify_equality_slices_need_ties():
    # with three distinct couplings only A1/A4/A6 can win: the averaged
    # entries A2/A3/A5 additionally require their two couplings to agree
    rng = random.Random(7)
    for _ in range(200):
        vals = rng.sample(range(-50, 50), 3)
        p = LambdaParams(*[v / 7.0 for v in vals])
        report = classify_region(p)
        assert len(report.active_regions) == 1
        assert report.active_regions[0] in {"A1", "A4", "A6"}


def test_classify_min_matches_ball_scan():
    rng = random.Random(11)
    for _ in range(50):
        p = LambdaParams(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2))
        best = min(ball_energy(s, c1, c2, p)
                   for s, c1, c2 in product(SPINS, repeat=3))
        assert classify_region(p).minimal_energy == best


def test_classify_tolerance_widens():
    p = LambdaParams(0.0, 1e-6, 2.0)
    assert classify_region(p, tol=0.0).active_regions == ("A1",)
    wide = classify_region(p, tol=1e-5)
    assert "A2" in wide.active_regions
    # NaN compares false both ways, so it must fail the check, not pass it
    for tol in (-1.0, math.nan, -math.inf):
        with pytest.raises(ValueError) as caught:
            classify_region(p, tol)
        assert str(caught.value) == f"tol must be >= 0, got {tol}"
    assert classify_region(p, math.inf).active_regions == REGION_NAMES


def test_signed_zero_minimum_does_not_depend_on_call_order():
    # the cached mask is shared by 0.0 and -0.0, yet each triple's minimal
    # energy is read off its own catalogue, sign included
    zero, negative = LambdaParams(0.0, 0.0, 0.0), LambdaParams(-0.0, -0.0, -0.0)
    for order in ((zero, negative), (negative, zero), (negative, negative, zero)):
        clear_caches()
        for p in order:
            energy = classify_region(p).minimal_energy
            assert energy == 0.0 and math.copysign(1.0, energy) == math.copysign(1.0, p.a)
        assert minimal_entries.cache_info().misses == 1
    assert classify_region(zero).active_regions == classify_region(negative).active_regions


def test_edge_weight_raises_where_the_product_overflows():
    # beta * coupling itself overflows to +inf, where math.exp returns inf
    # rather than raising; both overflows name the same error
    for p, coupling in ((LambdaParams(1e308, 0, 0, 10), 1e308),
                        (LambdaParams(0, 0, 0, 1e300), 1e300),
                        (LambdaParams(800, 0, 0), 800.0)):
        with pytest.raises(DomainError) as caught:
            edge_weight(coupling, p)
        assert str(caught.value) == \
            f"an edge weight exp(beta*coupling) overflows a float at {p}"
    p = LambdaParams(1e308, 0, 0, 10)
    with pytest.raises(DomainError, match="overflows a float"):
        push_forward([(1.0, 1.0), (1.0, 1.0)], p)
    # the largest finite weights, and those that underflow, are returned
    assert edge_weight(709.0, LambdaParams(0, 0, 0)) == math.exp(709.0)
    assert edge_weight(-1e308, p) == 0.0
    assert edge_weight(0.0, p) == 1.0
