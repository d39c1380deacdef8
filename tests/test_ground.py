import random
import time
from collections import Counter
from itertools import product

import pytest

from lambda_tree import ground
from lambda_tree.errors import CapacityError
from lambda_tree.ground import (REPRESENTATIVE_PARAMS, LevelSequence,
                                brute_force_minima, generators_for,
                                is_ground_state, realize, sample_family,
                                verify_generators)
from lambda_tree.model import (SPINS, Configuration, LambdaParams,
                               ball_energy, classify_region, lambda_value,
                               min_ball_energy)
from lambda_tree.tree import ROOT, TreeCoord, TreeShape, balls


def test_level_sequence_validation():
    with pytest.raises(ValueError):
        LevelSequence(())
    with pytest.raises(ValueError):
        LevelSequence((1, 4), period=2)
    with pytest.raises(ValueError):
        LevelSequence((1, 2, 3), period=2)
    seq = LevelSequence((1, 3), period=2)
    assert [seq.value_at(m) for m in range(5)] == [1, 3, 1, 3, 1]
    open_seq = LevelSequence((1, 2))
    assert open_seq.value_at(1) == 2
    with pytest.raises(ValueError):
        open_seq.value_at(2)


def test_realize_level_patterns():
    assert realize(LevelSequence((1, 3), period=2), 2).level_spins() == (1, 3, 1)
    assert realize(LevelSequence((2,), period=1), 3).level_spins() == (2, 2, 2, 2)
    assert realize(LevelSequence((1, 2, 3, 2), period=4), 4).level_spins() == \
        (1, 2, 3, 2, 1)
    with pytest.raises(ValueError):
        realize(LevelSequence((1, 2)), 3)


def test_is_ground_state_basics():
    p = LambdaParams(-1.0, 0.0, 0.0)  # spin-distance-2 couplings win
    ok, witness = is_ground_state(realize(LevelSequence((1, 3), period=2), 3), p)
    assert ok and witness is None
    bad, witness = is_ground_state(realize(LevelSequence((1,), period=1), 3), p)
    assert not bad
    assert witness == ROOT  # the root ball already pays c = 0 > -1


def test_is_ground_state_monotone_under_restriction():
    p = REPRESENTATIVE_PARAMS["A2"]
    cfg = sample_family("A2", 3, seed=2, depth=4)[0]
    assert is_ground_state(cfg, p)[0]
    for depth in (1, 2, 3):
        inner = TreeShape(2, depth)
        restricted = Configuration(inner, cfg.spins[:inner.vertex_count()])
        assert is_ground_state(restricted, p)[0]


def _per_ball(cfg: Configuration, p: LambdaParams, tol: float = 0.0):
    """is_ground_state's verdict by one ball_energy call per ball, scanning
    the centers by path in canonical order."""
    floor = min_ball_energy(p)
    shape = cfg.shape
    for x in shape.vertices():
        if x.level == shape.depth:
            break
        s = [cfg.spins[shape.index_of(y)] for y in (x, x.child(1), x.child(2))]
        if ball_energy(s[0], (s[1], s[2]), p) > floor + tol:
            return False, x
    return True, None


def test_witness_is_the_first_failing_ball():
    p = REPRESENTATIVE_PARAMS["A4"]
    base = realize(LevelSequence((1, 2, 3, 2), period=4), 4)
    rng = random.Random(8)
    witnesses = set()
    for _ in range(300):
        spins = [rng.choice(SPINS) if rng.random() < 0.05 else s for s in base.spins]
        cfg = Configuration(base.shape, tuple(spins))
        expected = _per_ball(cfg, p)
        assert is_ground_state(cfg, p) == expected
        witnesses.add(expected[1])
    assert len(witnesses) > 10 and None in witnesses


def test_deep_witness_matches_a_per_ball_scan():
    # a depth-19 tree (2^20 - 1 spins) with one bad leaf pair under a
    # level-18 vertex: the witness is that vertex, the first failing ball
    # of a position-by-position scan
    p = REPRESENTATIVE_PARAMS["A2"]
    base = realize(LevelSequence((1, 3), period=2), 19)
    shape = base.shape
    floor = min_ball_energy(p)
    x = TreeCoord(tuple(random.Random(19).choice((1, 2)) for _ in range(18)))
    center, leaf = shape.index_of(x), shape.index_of(x.child(2))
    spins = list(base.spins)
    s, t = spins[center], spins[leaf - 1]
    spins[leaf] = next(u for u in SPINS if ball_energy(s, (t, u), p) > floor)
    cfg = Configuration(shape, tuple(spins))
    first = next(c for c, kids in balls(shape)
                 if ball_energy(spins[c], tuple(spins[kids.start:kids.stop]), p) > floor)
    assert first == center
    assert is_ground_state(cfg, p) == (False, x)


def test_realized_spins_are_capped():
    # one realization and a family draw realize at most 2^20 spins; a
    # certification checks at most 2^20 level pairs (generators x depth);
    # both are refused before anything is built
    assert len(generators_for("A2", max_period=15).generators) == 14
    assert generators_for("A2", max_period=1024).verified_depth == 1025
    with pytest.raises(CapacityError):
        generators_for("A2", max_period=1025)  # 1024 generators to depth 1026
    with pytest.raises(CapacityError):
        generators_for("A3", max_period=1023)  # 3 + 1022 generators to depth 1024
    with pytest.raises(CapacityError):
        generators_for("A2", max_period=10 ** 12)
    assert generators_for("A1", max_period=10 ** 12).verified_depth == 3
    assert generators_for("A4", max_period=15).verified_depth == 11
    with pytest.raises(CapacityError):
        realize(LevelSequence((1,), period=1), 20)
    with pytest.raises(CapacityError):
        realize(LevelSequence((1,), period=1), 10 ** 12)
    with pytest.raises(CapacityError):
        sample_family("A5", 600, seed=0, depth=10)  # 600 * 2047 spins
    with pytest.raises(CapacityError):
        sample_family("A5", 1, seed=0, depth=10 ** 12)
    assert len(sample_family("A5", 500, seed=0, depth=10)) == 500
    generators = generators_for("A2").generators  # 6 of them
    p = REPRESENTATIVE_PARAMS["A2"]
    assert verify_generators(generators, p, 19) == [(True, None)] * 6
    with pytest.raises(CapacityError):
        verify_generators(generators[:4], p, 2 ** 18 + 1)
    with pytest.raises(CapacityError):
        verify_generators(generators, p, 10 ** 12)


def test_constants_in_the_diagonal_region():
    p = LambdaParams(0.0, 0.0, -1.0)
    for s in SPINS:
        assert is_ground_state(realize(LevelSequence((s,), period=1), 3), p)[0]


def test_representative_params_lie_in_their_regions():
    for region, p in REPRESENTATIVE_PARAMS.items():
        assert region in classify_region(p).active_regions
    # the three strict-inequality regions are interior points
    for region in ("A1", "A4", "A6"):
        assert classify_region(REPRESENTATIVE_PARAMS[region]).active_regions == \
            (region,)


def test_catalog_shapes():
    a1 = generators_for("A1")
    assert len(a1.generators) == 2
    assert all(g.period == 2 for g in a1.generators)
    assert a1.families == ()

    a6 = generators_for("A6")
    assert [g.entries for g in a6.generators] == [(1,), (2,), (3,)]
    assert all(g.period == 1 for g in a6.generators)

    a3 = generators_for("A3", max_period=5)
    assert LevelSequence((1,), period=1) in a3.generators
    assert LevelSequence((1, 3, 3, 3), period=4) in a3.generators

    a5 = generators_for("A5", max_period=5)
    assert LevelSequence((1, 2, 2), period=3) in a5.generators
    assert len(a5.families) == 1
    assert a5.families[0].alphabet == (2, 3)

    a2 = generators_for("A2", max_period=5)
    assert LevelSequence((1, 2), period=2) in a2.generators
    assert LevelSequence((1, 2, 3), period=3) in a2.generators
    assert a2.families[0].anchor == 1

    with pytest.raises(ValueError):
        generators_for("A7")
    with pytest.raises(ValueError):
        generators_for("A2", max_period=0)


def test_catalogs_are_built_once():
    _clear_ground_caches()
    for region in REPRESENTATIVE_PARAMS:
        assert generators_for(region) is generators_for(region, 7)
    cached = generators_for("A2", 9)
    ground._catalog.cache_clear()
    assert generators_for("A2", 9) == cached
    assert ground._catalog.cache_info().currsize <= 8


def test_catalog_json_round():
    entry = generators_for("A5", max_period=3).to_json()
    assert entry["region"] == "A5"
    assert {"period": 1, "entries": [2]} in entry["generators"]
    assert entry["families"][0]["alphabet"] == [2, 3]
    assert entry["verified_depth"] >= 3


def test_every_generator_verifies_deep():
    for region in REPRESENTATIVE_PARAMS:
        catalog = generators_for(region, max_period=6)
        p = REPRESENTATIVE_PARAMS[region]
        for g in catalog.generators:
            ok, witness = is_ground_state(realize(g, 7), p)
            assert ok, (region, g.entries, witness)


def test_distance_one_region_admits_only_even_periods():
    """Inside A4 the minimal ball needs both child couplings at spin
    distance exactly one, so the level value must change parity every
    level; an odd-period level sequence cannot close that walk."""
    p = REPRESENTATIVE_PARAMS["A4"]

    cat = generators_for("A4", max_period=10)
    assert [g.entries for g in cat.generators] == \
        [(1, 2, 3, 2), (1, 2, 3, 2, 3, 2, 3, 2, 3, 2)]
    assert all(g.period % 2 == 0 for g in cat.generators)

    # gluing two period-4 blocks back to back puts spin 2 on consecutive
    # levels at the seam; that ball pays c instead of b and fails
    seam = LevelSequence((1, 2, 3, 2, 2, 3, 2), period=7)
    ok, witness = is_ground_state(realize(seam, 6), p)
    assert not ok
    assert witness is not None and witness.level == 3

    # exhaustively: no 7-periodic level sequence is a ground state here
    b = p.b
    for trial in range(3 ** 7):
        entries = []
        t = trial
        for _ in range(7):
            entries.append(SPINS[t % 3])
            t //= 3
        good = all(
            lambda_value(entries[m % 7], entries[(m + 1) % 7], p) == b
            for m in range(7))
        assert not good


def _transfer_count(p: LambdaParams) -> int:
    """Independent count of depth-2 per-ball-minimal configurations.

    A ball is minimal iff both its edges carry a minimal coupling, so the
    minima are exactly the spin assignments whose every parent-child pair
    lies in the allowed relation. Count them by summing over the root spin:
    each child subtree contributes (number of allowed grandchild pairs) =
    |allowed(child)|^2, and the two children are independent.
    """
    floor = min_ball_energy(p)
    allowed = {s: [t for t in SPINS
                   if lambda_value(s, t, p) == floor] for s in SPINS}
    # ball minimality decouples into per-edge minimality only when the
    # minimal catalogue entry is attainable by a single coupling value;
    # that holds at every representative triple used below
    total = 0
    for root in SPINS:
        inner = sum(len(allowed[child]) ** 2 for child in allowed[root])
        total += inner ** 2 if allowed[root] else 0
    return total


def test_brute_force_matches_transfer_count():
    expected = {"A1": 2, "A2": 192, "A3": 129, "A4": 36, "A5": 627, "A6": 3}
    for region, p in REPRESENTATIVE_PARAMS.items():
        minima = brute_force_minima(p, 2)
        assert len(minima) == _transfer_count(p) == expected[region]
        for cfg in minima:
            assert is_ground_state(cfg, p)[0]


def test_brute_force_exact_catalogs():
    p1 = LambdaParams(-1.0, 0.0, 0.0)
    assert brute_force_minima(p1, 2) == {
        realize(LevelSequence((1, 3), period=2), 2),
        realize(LevelSequence((3, 1), period=2), 2),
    }
    p6 = LambdaParams(0.0, 0.0, -1.0)
    assert brute_force_minima(p6, 2) == {
        realize(LevelSequence((s,), period=1), 2) for s in SPINS
    }


def test_brute_force_bounds():
    # the cap is on the output, at most 2^20 spins in all, and the minima
    # are counted before any is built
    p = REPRESENTATIVE_PARAMS["A1"]
    assert brute_force_minima(p, 3) == {
        realize(LevelSequence((1, 3), period=2), 3),
        realize(LevelSequence((3, 1), period=2), 3),
    }
    tied = LambdaParams(0.0, 0.0, 0.0)  # 3^|V| minima
    for depth in (3, 20):
        start = time.perf_counter()
        with pytest.raises(CapacityError):
            brute_force_minima(tied, depth)
        assert time.perf_counter() - start < 1.0
    with pytest.raises(ValueError):
        brute_force_minima(p, 0)


def _minimal_count(p: LambdaParams, depth: int) -> int:
    """Exact number of configurations whose every ball is minimal, by
    subtree counts summed from the leaves up."""
    floor = min_ball_energy(p)
    below = {s: 1 for s in SPINS}
    for _ in range(depth):
        below = {s: sum(below[t] * below[u] for t, u in product(SPINS, repeat=2)
                        if ball_energy(s, (t, u), p) <= floor) for s in SPINS}
    return sum(below.values())


def test_brute_force_depth_three_follows_the_count():
    # is_ground_state depends on p only through which balls are minimal, so
    # every member is scored at the first triple of each such relation, and
    # the other triples sharing it must return the same set
    scored = {}
    for t in product(range(-2, 3), repeat=3):
        p = LambdaParams(*t)
        count = _minimal_count(p, 3)
        if count * 15 > 2 ** 20:
            with pytest.raises(CapacityError):
                brute_force_minima(p, 3)
            continue
        minima = brute_force_minima(p, 3)
        assert len(minima) == count, t
        floor = min_ball_energy(p)
        relation = frozenset((s, tu) for s in SPINS for tu in product(SPINS, repeat=2)
                             if ball_energy(s, tu, p) <= floor)
        if relation in scored:
            assert minima == scored[relation], t
        else:
            assert all(is_ground_state(cfg, p)[0] for cfg in minima), t
            scored[relation] = minima
    assert sorted(len(m) for m in scored.values()) == [2, 3, 1056, 32769, 49152]


def test_generators_subset_of_minima():
    for region, p in REPRESENTATIVE_PARAMS.items():
        minima = brute_force_minima(p, 2)
        for g in generators_for(region).generators:
            assert realize(g, 2) in minima


def test_sample_family_a5():
    # entries over {2,3} anchored at 2 stay minimal whenever b = c <= a
    p = LambdaParams(1.0, 0.0, 0.0)
    drawn = sample_family("A5", 4, seed=13, depth=3)
    assert len(drawn) == 4
    assert len(set(drawn)) == 4
    for cfg in drawn:
        levels = cfg.level_spins()
        assert levels[0] == 2
        assert all(s in (2, 3) for s in levels)
        assert is_ground_state(cfg, p)[0]


def test_sample_family_a2_adjacent_differ():
    drawn = sample_family("A2", 6, seed=4, depth=5)
    p = REPRESENTATIVE_PARAMS["A2"]
    for cfg in drawn:
        levels = cfg.level_spins()
        assert levels[0] == 1
        assert all(levels[i] != levels[i + 1] for i in range(len(levels) - 1))
        assert is_ground_state(cfg, p)[0]


def test_sample_family_exhausts_small_depth():
    # only 2^2 = 4 distinct prefixes exist at depth 2; asking for more
    # returns all of them
    drawn = sample_family("A5", 50, seed=0, depth=2)
    assert len(drawn) == 4


def test_sample_family_deterministic():
    a = sample_family("A2", 5, seed=77, depth=4)
    b = sample_family("A2", 5, seed=77, depth=4)
    assert a == b


def test_sample_family_rejects_other_regions():
    with pytest.raises(ValueError):
        sample_family("A1", 2, seed=0, depth=2)
    with pytest.raises(ValueError):
        sample_family("A2", -1, seed=0, depth=2)


# --- oracles for the level-pair certification, the minima and the table ------

def _oracle_triples() -> list[LambdaParams]:
    """All 125 integer triples in [-2, 2]^3 (the region-boundary ties) and
    500 seeded float triples."""
    rng = random.Random(2016)
    floats = [tuple(rng.uniform(-2.0, 2.0) for _ in range(3)) for _ in range(500)]
    return [LambdaParams(*t) for t in list(product(range(-2, 3), repeat=3)) + floats]


def _error(call) -> str:
    with pytest.raises(ValueError) as caught:
        call()
    return str(caught.value)


def test_certification_matches_realized_trees():
    rng = random.Random(5)
    outcomes = set()
    for p in _oracle_triples():
        # random periodic sequences, mostly stepping to a level value whose
        # ball is minimal so that some fail late, plus the catalogs active
        # at p, which pass
        floor = min_ball_energy(p)
        steps = {s: [t for t in SPINS if ball_energy(s, (t, t), p) <= floor]
                 for s in SPINS}
        generators = []
        for _ in range(4):
            entries = [rng.choice(SPINS)]
            for _ in range(rng.randint(0, 5)):
                good = steps[entries[-1]]
                entries.append(rng.choice(good if good and rng.random() < 0.9 else SPINS))
            generators.append(LevelSequence(tuple(entries), period=len(entries)))
        for region in classify_region(p).active_regions:
            generators += generators_for(region, max_period=6).generators
        for tol in (0.0, 0.3):
            depth = rng.randint(1, 8)
            expected = [is_ground_state(realize(g, depth), p, tol) for g in generators]
            assert verify_generators(generators, p, depth, tol) == expected
            outcomes.update(witness.level if witness else None
                            for _, witness in expected)
    # passes, and failures at every level a period <= 6 can first fail at
    assert outcomes == {None, *range(6)}


def test_certification_errors_match_realized_trees():
    p = REPRESENTATIVE_PARAMS["A1"]
    periodic = LevelSequence((1, 3), period=2)
    for depth, message in ((0, "depth must be >= 1 to form balls"),
                           (-1, "depth must be >= 0, got -1")):
        assert _error(lambda: verify_generators([periodic], p, depth)) == message
        assert _error(lambda: is_ground_state(realize(periodic, depth), p)) == message
    # level 0 already fails (c = 0 > a), yet the missing level 3 is reported
    short = LevelSequence((1, 1, 1))
    message = "aperiodic sequence of length 3 has no value at level 3"
    assert _error(lambda: verify_generators([periodic, short], p, 5)) == message
    assert _error(lambda: is_ground_state(realize(short, 5), p)) == message
    assert verify_generators([short], p, 2) == [(False, ROOT)]


def _clear_ground_caches():
    ground._ball_table.cache_clear()
    ground._cached_minima.cache_clear()
    ground._catalog.cache_clear()


def test_minima_match_enumeration():
    # each result is built with every cache cleared, then read warm
    for p in _oracle_triples():
        floor = min_ball_energy(p)
        for depth in (1, 2):
            shape = TreeShape(2, depth)
            vertices = shape.vertices()
            inner = [(shape.index_of(x), shape.index_of(x.child(1)),
                      shape.index_of(x.child(2))) for x in vertices if x.level < depth]
            expected = {Configuration(shape, spins)
                        for spins in product(SPINS, repeat=len(vertices))
                        if all(ball_energy(spins[c], (spins[l], spins[r]), p) <= floor
                               for c, l, r in inner)}
            _clear_ground_caches()
            assert brute_force_minima(p, depth) == expected, (p, depth)
            assert brute_force_minima(p, depth) == expected, (p, depth)


def test_cached_minima_at_depth_three():
    # 3^15 states are too many to enumerate; a set of distinct ground
    # states as large as the exact count of them is all of them
    for p in _oracle_triples():
        count = _minimal_count(p, 3)
        if count * 15 > ground._MEMO_SPINS:
            continue
        _clear_ground_caches()
        cold = brute_force_minima(p, 3)
        assert len(cold) == count, p
        assert all(is_ground_state(cfg, p)[0] for cfg in cold), p
        assert brute_force_minima(p, 3) == cold, p


def test_minima_cache_hands_out_copies():
    p = LambdaParams(0.0, 0.0, 0.0)
    first = brute_force_minima(p, 2)
    assert len(first) == 3 ** 7
    first.clear()
    first.add(realize(LevelSequence((1,), period=1), 2))
    second = brute_force_minima(p, 2)
    assert len(second) == 3 ** 7
    second.discard(realize(LevelSequence((2,), period=1), 2))
    assert len(brute_force_minima(p, 2)) == 3 ** 7


def test_minima_cache_keeps_errors_out():
    # the count is checked before the cache is read, so the all-tied
    # triple raises at depth 3 on every call, and the cache never sees it
    tied = LambdaParams(0.0, 0.0, 0.0)
    _clear_ground_caches()
    brute_force_minima(tied, 2)
    for _ in range(3):
        with pytest.raises(CapacityError):
            brute_force_minima(tied, 3)
    info = ground._cached_minima.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 1, 1)
    # a float depth or period never reads an int's entry
    generators_for("A2", 7)
    for call in (lambda: brute_force_minima(tied, 2.0),
                 lambda: generators_for("A2", 7.0)):
        with pytest.raises(TypeError):
            call()


def test_integer_triples_share_seven_patterns():
    # which of the six catalogue entries a, b, c and their averages are
    # minimal: a, b or c alone, two of them tied, or all three
    _clear_ground_caches()
    for t in product(range(-2, 3), repeat=3):
        brute_force_minima(LambdaParams(*t), 2)
    info = ground._cached_minima.cache_info()
    assert (info.misses, info.currsize) == (7, 7)


def test_minima_cache_holds_at_most_its_spin_bound():
    # every stored result holds at most _MEMO_SPINS spins, and at most 16
    # are stored, so the cache never holds more than 2^18 spins
    assert 16 * ground._MEMO_SPINS == 2 ** 18
    _clear_ground_caches()
    stored = 0
    for depth in (1, 2, 3):
        for p in _oracle_triples():
            before = ground._cached_minima.cache_info()
            try:
                minima = brute_force_minima(p, depth)
            except CapacityError:
                assert ground._cached_minima.cache_info() == before
                continue
            after = ground._cached_minima.cache_info()
            spins = len(minima) * (2 ** (depth + 1) - 1)
            if spins > ground._MEMO_SPINS:
                assert after == before, (p, depth)
            else:
                assert after.hits + after.misses == before.hits + before.misses + 1
                stored += after.misses - before.misses
            assert after.currsize <= 16
    assert stored > 16  # entries were evicted along the way


def test_is_ground_state_matches_per_ball_energies():
    rng = random.Random(11)
    witnesses = set()
    for p in _oracle_triples():
        depth = rng.randint(1, 5)
        shape = TreeShape(2, depth)
        floor = min_ball_energy(p)
        # grow top-down from minimal balls, with a few random child pairs
        # so that balls fail at every depth
        minimal = {s: [tu for tu in product(SPINS, repeat=2)
                       if ball_energy(s, tu, p) <= floor] for s in SPINS}
        spins = [rng.choice(SPINS)]
        for _ in range(shape.vertex_count() // 2):
            center = spins[len(spins) // 2]
            options = minimal[center] if rng.random() < 0.97 else []
            spins.extend(rng.choice(options) if options
                         else (rng.choice(SPINS), rng.choice(SPINS)))
        cfg = Configuration(shape, tuple(spins))
        for tol in (0.0, 0.3):
            expected = _per_ball(cfg, p, tol)
            assert is_ground_state(cfg, p, tol) == expected
            witnesses.add(expected[1])
    assert None in witnesses
    assert {x.level for x in witnesses if x} == {0, 1, 2, 3, 4}


def test_is_ground_state_rejects_spins_outside_the_alphabet():
    p = REPRESENTATIVE_PARAMS["A1"]
    assert _error(lambda: is_ground_state(
        Configuration(TreeShape(2, 1), (1, 4, 1)), p)) == \
        "spins must be in (1, 2, 3), got (1, 4)"
    # balls are met in canonical order: a failing ball before a spin-4 ball
    # is the witness, and a spin-4 ball before a failing one raises
    shape = TreeShape(2, 2)
    assert is_ground_state(Configuration(shape, (1, 3, 3, 1, 2, 4, 1)), p) == \
        (False, TreeCoord((1,)))
    assert _error(lambda: is_ground_state(
        Configuration(shape, (1, 3, 3, 1, 4, 1, 2)), p)) == \
        "spins must be in (1, 2, 3), got (3, 4)"
    assert _error(lambda: is_ground_state(
        Configuration(TreeShape(3, 1), (1, 3, 3, 3)), p)) == \
        "expected 2 child spins, got 3"


def test_ground_layer_reads_one_ball_table(monkeypatch):
    # on valid spins the cached table holds the only ball_energy calls: 27
    # per coupling triple, however many configurations are scored there
    calls = []

    def counted(center, children, p):
        calls.append(p)
        return ball_energy(center, children, p)

    monkeypatch.setattr(ground, "ball_energy", counted)
    ground._ball_table.cache_clear()
    p = LambdaParams(0.0, 0.0, 0.0)
    cfg = realize(LevelSequence((2,), period=1), 10)
    generators = generators_for("A2", 14).generators
    for run in (lambda: brute_force_minima(p, 2),
                lambda: is_ground_state(cfg, p),
                lambda: verify_generators(generators, p, 20)):
        calls.clear()
        run()
        assert len(calls) <= 27
    # a whole ground_states item: each active region's catalog certified,
    # its generators realized and scored, then the minima
    for t in product(range(-2, 3), repeat=3):
        p = LambdaParams(*t)
        ground._ball_table.cache_clear()
        calls.clear()
        for region in classify_region(p).active_regions:
            catalog = generators_for(region)
            for g in catalog.generators:
                assert is_ground_state(realize(g, catalog.verified_depth), p)[0]
        brute_force_minima(p, 2)
        assert max(Counter(calls).values()) <= 27, t


def test_signed_zero_triples_share_one_table():
    zero, negative = LambdaParams(0.0, 0.0, 0.0), LambdaParams(-0.0, -0.0, -0.0)
    ground._ball_table.cache_clear()
    assert ground._ball_table(zero) is ground._ball_table(negative)
    assert ground._ball_table.cache_info().misses == 1
    rng = random.Random(3)
    configs = [realize(g, 4) for g in generators_for("A2", 5).generators]
    configs += [Configuration(TreeShape(2, 3), tuple(rng.choice(SPINS) for _ in range(15)))
                for _ in range(50)]
    for cfg in configs:
        assert is_ground_state(cfg, zero) == is_ground_state(cfg, negative) == \
            _per_ball(cfg, negative)
    generators = generators_for("A6").generators + generators_for("A1").generators
    assert verify_generators(generators, zero, 6) == \
        verify_generators(generators, negative, 6)
    assert brute_force_minima(zero, 2) == brute_force_minima(negative, 2)


def test_unchecked_configurations_equal_checked_ones():
    # brute_force_minima and realize skip re-checking spins they built
    built = brute_force_minima(LambdaParams(1.0, 0.0, 0.0), 2)
    built |= {realize(g, 5) for g in generators_for("A3", 6).generators}
    for cfg in built:
        checked = Configuration(cfg.shape, cfg.spins)
        assert type(cfg) is Configuration and type(cfg.spins) is tuple
        assert cfg == checked and hash(cfg) == hash(checked) == hash(cfg.spins)
        assert checked in built
    # the hash reads the spins alone; equality still compares the shape
    path = Configuration(TreeShape(1, 2), (1, 2, 3))
    ball = Configuration(TreeShape(2, 1), (1, 2, 3))
    assert hash(path) == hash(ball) and path != ball and len({path, ball}) == 2


def test_realize_checks_level_values():
    # a level value equal to a spin without being an int is refused when
    # the sequence is built, so realize and verify_generators never see it
    for entries, period in (((1.0,), 1), ((2, 3.0), None), ((2, 3.0), 2)):
        assert _error(lambda: LevelSequence(entries, period)) == \
            "spins must be integers >= 1"
    # the two agree on what can be built, True (== 1) among it
    p = REPRESENTATIVE_PARAMS["A6"]
    generators = [LevelSequence((True,), period=1), LevelSequence((1, 2), period=2)]
    assert verify_generators(generators, p, 3) == \
        [is_ground_state(realize(g, 3), p) for g in generators] == \
        [(True, None), (False, ROOT)]
    assert realize(LevelSequence((True,), period=1), 2) == \
        Configuration(TreeShape(2, 2), (True,) * 7)
