import random
from itertools import product

import pytest

from lambda_tree.model import (SPINS, Configuration, LambdaParams,
                               ball_energy, ball_energy_catalogue,
                               classify_region, coupling_value, hamiltonian,
                               lambda_value, min_ball_energy)
from lambda_tree.tree import ROOT, TreeShape, balls


def test_params_validation():
    with pytest.raises(ValueError):
        LambdaParams(float("nan"), 0.0, 0.0)
    with pytest.raises(ValueError):
        LambdaParams(0.0, float("inf"), 0.0)
    with pytest.raises(ValueError):
        LambdaParams(0.0, 0.0, 0.0, beta=0.0)
    p = LambdaParams.from_mapping({"a": 1, "b": 2, "c": 3})
    assert (p.a, p.b, p.c, p.beta) == (1.0, 2.0, 3.0, 1.0)
    with pytest.raises(ValueError):
        LambdaParams.from_mapping({"a": 1, "b": 2})


def test_coupling_by_distance():
    p = LambdaParams(-1.0, 2.0, 5.0)
    assert lambda_value(1, 3, p) == -1.0
    assert lambda_value(2, 3, p) == 2.0
    assert lambda_value(2, 2, p) == 5.0
    for i in SPINS:
        for j in SPINS:
            assert lambda_value(i, j, p) == lambda_value(j, i, p)
    with pytest.raises(ValueError):
        lambda_value(0, 1, p)
    # the distance rule extends past spin 3 without special cases
    assert coupling_value(1, 4, p) == -1.0
    assert coupling_value(4, 5, p) == 2.0


def test_potts_reduction():
    """With a = b = 0 and c = -J the coupling is -J on the diagonal, 0 off it."""
    j = 1.7
    p = LambdaParams(0.0, 0.0, -j)
    for i in SPINS:
        for k in SPINS:
            expected = -j if i == k else 0.0
            assert lambda_value(i, k, p) == expected


def test_configuration_storage():
    shape = TreeShape(2, 1)
    sigma = Configuration(shape, (1, 3, 2))
    assert sigma.spins[shape.index_of(ROOT)] == 1
    assert sigma.spins[shape.index_of(ROOT.child(2))] == 2
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
    for x in inner.shape.vertices():
        assert inner.spins[inner.shape.index_of(x)] == spins[shape.index_of(x)]


def test_hamiltonian_small_cases():
    a, b, c = -1.0, 2.0, 5.0
    p = LambdaParams(a, b, c)
    v1 = TreeShape(2, 1)
    assert hamiltonian(Configuration(v1, (1, 3, 3)), p) == 2 * a
    assert hamiltonian(Configuration(v1, (2, 1, 3)), p) == 2 * b
    v2 = TreeShape(2, 2)
    assert hamiltonian(Configuration(v2, (2,) * 7), p) == 6 * c


def test_energy_difference_is_twice_the_ball_sum():
    """Edge sums versus ball sums: each edge lies in exactly one ball and the
    ball energy halves it, so H(sigma) - H(phi) = 2 * sum of ball differences."""
    p = LambdaParams(0.3, -1.2, 0.9)
    shape = TreeShape(2, 2)
    ball_list = balls(shape)
    rng = random.Random(99)
    for _ in range(200):
        sigma = Configuration(shape, tuple(rng.choice(SPINS) for _ in range(7)))
        phi = Configuration(shape, tuple(rng.choice(SPINS) for _ in range(7)))
        ball_sum = 0.0
        for center, (c1, c2) in ball_list:
            ball_sum += ball_energy(sigma.spins[center],
                                    (sigma.spins[c1], sigma.spins[c2]), p)
            ball_sum -= ball_energy(phi.spins[center],
                                    (phi.spins[c1], phi.spins[c2]), p)
        difference = hamiltonian(sigma, p) - hamiltonian(phi, p)
        assert abs(difference - 2.0 * ball_sum) < 1e-12


def test_ball_energy_catalogue_membership():
    # all 27 center/children combinations land exactly on one of the six values
    p = LambdaParams(0.25, -0.5, 1.75)
    catalogue = ball_energy_catalogue(p)
    assert catalogue == (p.a, (p.a + p.b) / 2, (p.a + p.c) / 2,
                         p.b, (p.b + p.c) / 2, p.c)
    seen = set()
    for center, c1, c2 in product(SPINS, repeat=3):
        u = ball_energy(center, (c1, c2), p)
        assert u in catalogue
        seen.add(u)
    assert seen == set(catalogue)
    assert min_ball_energy(p) == min(catalogue)
    with pytest.raises(ValueError):
        ball_energy(1, (1, 2, 3), p)


def test_ball_energy_named_values():
    p = LambdaParams(-3.0, 2.0, 7.0)
    assert ball_energy(1, (3, 3), p) == p.a
    assert ball_energy(1, (2, 3), p) == (p.a + p.b) / 2
    assert ball_energy(2, (2, 2), p) == p.c


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
        best = min(ball_energy(s, (c1, c2), p)
                   for s, c1, c2 in product(SPINS, repeat=3))
        assert classify_region(p).minimal_energy == best


def test_classify_tolerance_widens():
    p = LambdaParams(0.0, 1e-6, 2.0)
    assert classify_region(p, tol=0.0).active_regions == ("A1",)
    wide = classify_region(p, tol=1e-5)
    assert "A2" in wide.active_regions
    with pytest.raises(ValueError):
        classify_region(p, tol=-1.0)
