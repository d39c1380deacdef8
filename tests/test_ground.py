import hashlib
import math
import random
import time
from collections import Counter
from itertools import product

import pytest

from lambda_tree import ground, model
from lambda_tree.errors import CapacityError
from lambda_tree.ground import (REPRESENTATIVE_PARAMS, LevelSequence,
                                brute_force_minima, generators_for,
                                is_ground_state, realize, sample_family,
                                verify_generators)
from lambda_tree.model import (SPINS, Configuration, LambdaParams, classify_region,
                               coupling_rows, min_ball_energy, minimal_entries)
from lambda_tree.tree import TreeCoord, TreeShape
from oracles import (ball_energy, clear_caches, minimal_balls_by_scan, position,
                     realize_uncached, vertices)

ROOT = TreeCoord(())


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
    for x in vertices(shape):
        if x.level == shape.depth:
            break
        s = [cfg.spins[position(y)] for y in (x, x.child(1), x.child(2))]
        if ball_energy(*s, p) > floor + tol:
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
    center, leaf = position(x), position(x.child(2))
    spins = list(base.spins)
    s, t = spins[center], spins[leaf - 1]
    spins[leaf] = next(u for u in SPINS if ball_energy(s, t, u, p) > floor)
    cfg = Configuration(shape, tuple(spins))
    first = next(c for c in range(len(spins) // 2)
                 if ball_energy(spins[c], spins[2 * c + 1], spins[2 * c + 2], p) > floor)
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
    clear_caches()
    for region in REPRESENTATIVE_PARAMS:
        assert generators_for(region) is generators_for(region, 7)
    cached = generators_for("A2", 9)
    ground._catalog.cache_clear()
    assert generators_for("A2", 9) == cached
    assert ground._catalog.cache_info().currsize <= 8


def test_catalog_json_round():
    # the CLI writes these fields; tests/test_cli.py checks its JSON
    catalog = generators_for("A5", max_period=3)
    assert catalog.region == "A5"
    assert LevelSequence((2,), period=1) in catalog.generators
    assert catalog.families[0].alphabet == (2, 3)
    assert catalog.verified_depth >= 3


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
            coupling_rows(p)[entries[m % 7] - 1][entries[(m + 1) % 7] - 1] == b
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
                   if coupling_rows(p)[s - 1][t - 1] == floor] for s in SPINS}
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
                        if ball_energy(s, t, u, p) <= floor) for s in SPINS}
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
                             if ball_energy(s, *tu, p) <= floor)
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


def test_sample_family_lists_every_sequence():
    # count >= 2^depth gives every admissible sequence, sorted, whatever
    # the seed
    families = {"A2": ((1, 2, 3), 1, True), "A5": ((2, 3), 2, False)}
    for region, (alphabet, anchor, must_differ) in families.items():
        for depth in range(10):
            every = ((anchor, *rest) for rest in product(alphabet, repeat=depth))
            expected = [seq for seq in every
                        if not (must_differ and any(s == t for s, t in zip(seq, seq[1:])))]
            assert len(expected) == 2 ** depth
            for count in (2 ** depth, 2 ** depth + 5, 10 ** 6):
                drawn = sample_family(region, count, seed=count + depth, depth=depth)
                assert [cfg.level_spins() for cfg in drawn] == expected, (region, depth, count)


def test_sample_family_draws_stay_as_they_were():
    # below 2^depth the seeded draws are unchanged; the digest is of the
    # level values of every configuration drawn, in order
    digest = hashlib.sha256()
    for region in ("A2", "A5"):
        for depth in range(1, 8):
            for count in (1, 4, 2 ** depth - 1):
                for seed in (0, 1, 13):
                    for cfg in sample_family(region, count, seed, depth):
                        digest.update(repr(cfg.level_spins()).encode())
    assert digest.hexdigest() == \
        "4fa4dec3ef41e3cfab920110e01f98b73588df94e497c693e756f5be2b91213e"


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
        steps = {s: [t for t in SPINS if ball_energy(s, t, t, p) <= floor]
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


def test_minima_match_enumeration():
    # each result is built with every cache cleared, then read warm
    for p in _oracle_triples():
        floor = min_ball_energy(p)
        for depth in (1, 2):
            shape = TreeShape(2, depth)
            verts = vertices(shape)
            inner = [(position(x), position(x.child(1)), position(x.child(2)))
                     for x in verts if x.level < depth]
            expected = {Configuration(shape, spins)
                        for spins in product(SPINS, repeat=len(verts))
                        if all(ball_energy(spins[c], spins[l], spins[r], p) <= floor
                               for c, l, r in inner)}
            clear_caches()
            assert brute_force_minima(p, depth) == expected, (p, depth)
            assert brute_force_minima(p, depth) == expected, (p, depth)


def test_cached_minima_at_depth_three():
    # 3^15 states are too many to enumerate; a set of distinct ground
    # states as large as the exact count of them is all of them
    for p in _oracle_triples():
        count = _minimal_count(p, 3)
        if count * 15 > ground._MEMO_SPINS:
            continue
        clear_caches()
        cold = brute_force_minima(p, 3)
        assert len(cold) == count, p
        assert all(is_ground_state(cfg, p)[0] for cfg in cold), p
        assert brute_force_minima(p, 3) == cold, p


def test_built_minima_over_all_patterns():
    # every one of the 63 sets of minimal balls, not only those the seeded
    # triples meet: at depths 1 and 2 against a filter over all 3^|V| spin
    # tuples, and at depth 3, within the 2^20-spin cap and mostly past the
    # minima cache, by count, distinctness and every ball lying in the set
    for pattern in ground._MINIMAL_BALLS.values():
        allowed = ground._child_pairs(pattern)
        for depth in (1, 2):
            centers = range(2 ** depth - 1)  # ball (c, 2c + 1, 2c + 2), canonical order
            expected = {spins for spins in product(SPINS, repeat=2 ** (depth + 1) - 1)
                        if all((spins[c], spins[2 * c + 1], spins[2 * c + 2]) in pattern
                               for c in centers)}
            built = {cfg.spins for cfg in ground._built_minima(allowed, depth)}
            assert built == expected, (sorted(pattern), depth)
        count, _ = ground._minima(pattern, 3)
        if count * 15 > ground._MAX_SPINS:
            continue
        built = [cfg.spins for cfg in ground._built_minima(allowed, 3)]
        assert len(set(built)) == len(built) == count, sorted(pattern)
        assert all((spins[c], spins[2 * c + 1], spins[2 * c + 2]) in pattern
                   for spins in built for c in range(7)), sorted(pattern)


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
    # the count that refuses the all-tied triple at depth 3 is worked out
    # once and kept without the minima, then read: it raises on every call
    tied = LambdaParams(0.0, 0.0, 0.0)
    clear_caches()
    brute_force_minima(tied, 2)
    for _ in range(3):
        with pytest.raises(CapacityError):
            brute_force_minima(tied, 3)
    info = ground._minima.cache_info()
    assert (info.hits, info.misses, info.currsize) == (2, 2, 2)
    pattern = ground._minimal_balls(tied, 0.0)
    assert ground._minima(pattern, 3) == (ground._MAX_SPINS + 1, None)
    # a float depth or period never reads an int's entry
    generators_for("A2", 7)
    for call in (lambda: brute_force_minima(tied, 2.0),
                 lambda: generators_for("A2", 7.0)):
        with pytest.raises(TypeError):
            call()


def test_integer_triples_share_seven_patterns():
    # which of the six catalogue entries a, b, c and their averages are
    # minimal: a, b or c alone, two of them tied, or all three
    clear_caches()
    for t in product(range(-2, 3), repeat=3):
        brute_force_minima(LambdaParams(*t), 2)
    info = ground._minima.cache_info()
    assert (info.misses, info.currsize) == (7, 7)


def test_minima_cache_holds_at_most_its_spin_bound():
    # every entry keeps a count, and the minima only where they hold at
    # most _MEMO_SPINS spins; at most 16 entries are kept, so the cache
    # never holds more than 2^18 spins
    assert 16 * ground._MEMO_SPINS == 2 ** 18
    clear_caches()
    for depth in (1, 2, 3):
        for p in _oracle_triples():
            before = ground._minima.cache_info()
            try:
                minima = brute_force_minima(p, depth)
            except CapacityError:
                minima = None
            after = ground._minima.cache_info()
            # one entry read per call, refused or not
            assert after.hits + after.misses == before.hits + before.misses + 1
            assert after.currsize <= 16
            count, kept = ground._minima(ground._minimal_balls(p, 0.0), depth)
            spins = count * (2 ** (depth + 1) - 1)
            assert (kept is None) == (spins > ground._MEMO_SPINS), (p, depth)
            assert minima is None or (len(minima) == count and kept in (None, minima))
    # more entries were stored than are kept: some were evicted
    assert ground._minima.cache_info().misses > 16


def _grown_configuration(rng: random.Random, p: LambdaParams, depth: int,
                         keep: float) -> Configuration:
    """A configuration grown top-down from minimal balls, each center
    taking a random child pair instead with probability 1 - keep, so that
    balls fail at every depth."""
    shape = TreeShape(2, depth)
    floor = min_ball_energy(p)
    minimal = {s: [tu for tu in product(SPINS, repeat=2)
                   if ball_energy(s, *tu, p) <= floor] for s in SPINS}
    spins = [rng.choice(SPINS)]
    for _ in range(shape.vertex_count() // 2):
        center = spins[len(spins) // 2]
        options = minimal[center] if rng.random() < keep else []
        spins.extend(rng.choice(options) if options
                     else (rng.choice(SPINS), rng.choice(SPINS)))
    return Configuration(shape, tuple(spins))


def test_is_ground_state_matches_per_ball_energies():
    rng = random.Random(11)
    witnesses = set()
    for p in _oracle_triples():
        cfg = _grown_configuration(rng, p, rng.randint(1, 5), keep=0.97)
        for tol in (0.0, 0.3, math.inf):
            expected = _per_ball(cfg, p, tol)
            assert is_ground_state(cfg, p, tol) == expected
            witnesses.add(expected[1])
    assert None in witnesses
    assert {x.level for x in witnesses if x} == {0, 1, 2, 3, 4}


def test_ground_layer_rejects_a_nan_or_negative_tolerance():
    # NaN would otherwise pass every ball, and a negative tol fail them all
    p = REPRESENTATIVE_PARAMS["A1"]
    cfg = realize(LevelSequence((1, 3), period=2), 3)
    generators = generators_for("A1").generators
    for tol in (math.nan, -1.0, -1e-300):
        message = f"tol must be >= 0, got {tol}"
        assert _error(lambda: is_ground_state(cfg, p, tol)) == message
        assert _error(lambda: verify_generators(generators, p, 3, tol)) == message
        assert _error(lambda: verify_generators([], p, 3, tol)) == message
    for tol in (0, 0.0, -0.0, math.inf):
        assert is_ground_state(cfg, p, tol) == (True, None)
        assert verify_generators(generators, p, 3, tol) == [(True, None)] * 2


def test_is_ground_state_rejects_spins_outside_the_alphabet():
    # a spin outside (1, 2, 3) never reaches is_ground_state: Configuration
    # refuses it wherever it sits
    p = REPRESENTATIVE_PARAMS["A1"]
    shape = TreeShape(2, 2)
    for spins in ((1, 4, 1), (1, 3, 3, 1, 2, 4, 1), (1, 3, 3, 1, 4, 1, 2), (0,) * 7):
        assert _error(lambda: Configuration(TreeShape(2, len(spins) // 3), spins)) == \
            "spins must be integers in (1, 2, 3)"
    assert is_ground_state(Configuration(shape, (1, 3, 3, 1, 2, 3, 1)), p) == \
        (False, TreeCoord((1,)))


def test_ground_layer_reads_one_ball_table(monkeypatch):
    # no verdict looks up a ball's catalogue entry: the minimal balls are
    # read from the table built once at import, however many
    # configurations are scored
    calls = []

    def counted(center, children):
        calls.append(center)
        return model.ball_entry(center, children)

    monkeypatch.setattr(ground, "ball_entry", counted)
    clear_caches()
    p = LambdaParams(0.0, 0.0, 0.0)
    cfg = realize(LevelSequence((2,), period=1), 10)
    generators = generators_for("A2", 14).generators
    assert brute_force_minima(p, 2) and is_ground_state(cfg, p)[0]
    assert verify_generators(generators, p, 20) == [(True, None)] * len(generators)
    # a whole ground_states item: each active region's catalog certified,
    # its generators realized and scored, then the minima
    for t in product(range(-2, 3), repeat=3):
        p = LambdaParams(*t)
        for region in classify_region(p).active_regions:
            catalog = generators_for(region)
            for g in catalog.generators:
                assert is_ground_state(realize(g, catalog.verified_depth), p)[0]
        brute_force_minima(p, 2)
    assert calls == []
    # nor does a failing ball: its spins are those of a Configuration
    assert is_ground_state(realize(LevelSequence((1, 2), period=2), 3),
                           REPRESENTATIVE_PARAMS["A6"]) == (False, ROOT)
    assert calls == []


def test_signed_zero_triples_share_one_table():
    zero, negative = LambdaParams(0.0, 0.0, 0.0), LambdaParams(-0.0, -0.0, -0.0)
    assert ground._minimal_balls(zero, 0.0) is ground._minimal_balls(negative, 0.0)
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


def test_ball_table_matches_the_ball_energy_scan():
    # the table gives the very set a ball_energy call per spin triple
    # gives, and one object per set of minimal balls
    rng = random.Random(16)
    triples = [(p.a, p.b, p.c) for p in _oracle_triples()]
    triples += [tuple(rng.choice((0.0, -0.0)) for _ in range(3)) for _ in range(20)]
    # near the float range, where the averages take their overflow path
    units = list(product((-1.0, 0.0, 1.0), repeat=3))
    units += [tuple(rng.uniform(-1.0, 1.0) for _ in range(3)) for _ in range(100)]
    triples += [tuple(s * v for v in t) for s in (1e308, 1.7e308) for t in units]
    by_set = {}
    for t in triples:
        p = LambdaParams(*t)
        for tol in (0.0, 1e-12, 0.3, math.inf):
            table = ground._minimal_balls(p, tol)
            assert table == minimal_balls_by_scan(p, tol), (t, tol)
            assert by_set.setdefault(table, table) is table, (t, tol)
    assert len(by_set) > 7
    assert len(ground._MINIMAL_BALLS) == 63


def test_verdicts_keep_their_pattern_at_the_float_range_edge():
    # averages of two couplings near the float range used to overflow to
    # +-inf, which dropped regions and called non-minimal balls minimal
    for t in product((-1.0, 0.0, 1.0), repeat=3):
        unit = LambdaParams(*t)
        for s in (1e308, 1.7e308):
            scaled = LambdaParams(*(s * v for v in t))
            assert classify_region(scaled).active_regions == \
                classify_region(unit).active_regions, (t, s)
            assert ground._minimal_balls(scaled, 0.0) == \
                ground._minimal_balls(unit, 0.0), (t, s)
    assert len(brute_force_minima(LambdaParams(-1.7e308, -1e308, 0.0), 2)) == 2


def test_unchecked_configurations_equal_checked_ones():
    # brute_force_minima and realize skip re-checking spins they built
    built = brute_force_minima(LambdaParams(1.0, 0.0, 0.0), 2)
    built |= {realize(g, 5) for g in generators_for("A3", 6).generators}
    for cfg in built:
        checked = Configuration(cfg.shape, cfg.spins)
        assert type(cfg) is Configuration and type(cfg.spins) is tuple
        assert cfg == checked and hash(cfg) == hash(checked) == hash(cfg.spins)
        assert checked in built


def test_realize_checks_level_values():
    # a level value equal to a spin without being an int is refused when
    # the sequence is built, so realize and verify_generators never see it;
    # True (== 1) is refused too, as LambdaParams refuses it
    for entries, period in (((1.0,), 1), ((2, 3.0), None), ((2, 3.0), 2),
                            ((True,), 1), ((True, 3), 2), ((4,), 1), ((1, 0), 2)):
        assert _error(lambda: LevelSequence(entries, period)) == \
            "spins must be integers in (1, 2, 3)"
    assert _error(lambda: Configuration(TreeShape(2, 1), (True, 3, 3))) == \
        "spins must be integers in (1, 2, 3)"
    # the two agree on what can be built
    p = REPRESENTATIVE_PARAMS["A6"]
    generators = [LevelSequence((1,), period=1), LevelSequence((1, 2), period=2)]
    assert verify_generators(generators, p, 3) == \
        [is_ground_state(realize(g, 3), p) for g in generators] == \
        [(True, None), (False, ROOT)]
    assert realize(LevelSequence((1,), period=1), 2) == \
        Configuration(TreeShape(2, 2), (1,) * 7)


# --- the realize cache and the per-configuration ball sets -------------------

def test_realize_cache_changes_no_configuration():
    # every catalog generator, and every family sequence up to depth 6, is
    # realized as the uncached oracle realizes it; a repeat call hands out
    # the very object. So are 300 drawn and 512 listed sequences at depth
    # 9, more trees than realize keeps
    clear_caches()
    cases = [(g, generators_for(region, n).verified_depth)
             for region in REPRESENTATIVE_PARAMS for n in range(1, 8)
             for g in generators_for(region, n).generators]
    for region in ("A2", "A5"):
        for depth in range(1, 7):
            drawn = sample_family(region, 2 ** depth, seed=0, depth=depth)
            assert len(drawn) == 2 ** depth
            cases += [(LevelSequence(cfg.level_spins()), depth) for cfg in drawn]
            for cfg in drawn:
                assert realize(LevelSequence(cfg.level_spins()), depth) is cfg
    assert len(cases) > 300
    for seq, depth in cases:
        cfg = realize(seq, depth)
        oracle = realize_uncached(seq, depth)
        assert cfg == oracle and type(cfg.spins) is tuple, (seq, depth)
        assert realize(seq, depth) is cfg
    for count in (300, 512):
        large = sample_family("A2", count, seed=0, depth=9)
        assert len(large) == count
        assert large == [realize_uncached(LevelSequence(cfg.level_spins()), 9)
                         for cfg in large]
    assert ground._realize.cache_info().currsize <= 256


def test_realize_cache_keeps_errors_and_deep_trees_out():
    clear_caches()
    seq = LevelSequence((1, 3), period=2)
    kept = realize(seq, 9)  # 1023 spins
    assert realize(seq, 9) is kept and kept == realize_uncached(seq, 9)
    # 2047 spins: built afresh on each call, equal every time
    deep = realize(seq, 10)
    assert deep == realize_uncached(seq, 10) == realize(seq, 10)
    assert realize(seq, 10) is not deep
    assert ground._realize.cache_info().currsize == 1
    for bad_seq, depth in ((seq, -1), (seq, 20), (seq, 10 ** 12),
                           (LevelSequence((1, 2)), 3), (seq, 2.0), (seq, None)):
        before = ground._realize.cache_info()
        with pytest.raises((ValueError, CapacityError, TypeError)) as caught:
            realize(bad_seq, depth)
        with pytest.raises(caught.type) as again:
            realize_uncached(bad_seq, depth)
        assert str(again.value) == str(caught.value)
        assert ground._realize.cache_info().currsize == before.currsize == 1
    assert realize(seq, 9) is kept


def test_realize_checks_the_spin_bound_only_past_its_cache(monkeypatch):
    checked, check = [], ground._check_spins

    def counted(depth, configurations=1):
        checked.append(depth)
        return check(depth, configurations)

    monkeypatch.setattr(ground, "_check_spins", counted)
    seq = LevelSequence((1, 3), period=2)
    for depth in range(12):
        assert realize(seq, depth) == realize_uncached(seq, depth)
    assert checked == [10, 11]
    with pytest.raises(CapacityError):
        realize(seq, 20)
    assert checked == [10, 11, 20]


def test_realize_cache_holds_at_most_its_spin_bound():
    # every stored configuration has depth at most _REALIZED_DEPTH, so
    # fewer than 2^10 spins, and at most 256 are stored, so the cache never
    # holds more than 2^18 spins
    assert 256 * 2 ** (ground._REALIZED_DEPTH + 1) == 2 ** 18
    clear_caches()
    stored = 0
    sequences = [LevelSequence(entries, period=n) for n in range(1, 6)
                 for entries in product(SPINS, repeat=n)]
    for i, seq in enumerate(sequences):
        depth = i % 12
        before = ground._realize.cache_info()
        cfg = realize(seq, depth)
        after = ground._realize.cache_info()
        if depth > ground._REALIZED_DEPTH:
            assert after == before, (seq, depth)
        else:
            assert after.misses == before.misses + 1 and after.hits == before.hits
            assert len(cfg.spins) < 2 ** 10
            stored += 1
        assert after.currsize <= 256
    assert stored > 256  # entries were evicted along the way


def test_ball_sets_keep_verdicts_and_witnesses():
    # each configuration, never level-constant, is scored twice: the
    # second call reads the ball set the first one kept, and both agree
    # with a per-ball scan
    rng = random.Random(27)
    witnesses = set()
    for p in _oracle_triples():
        depth = rng.randint(1, 6)
        cfg = _grown_configuration(rng, p, depth, keep=0.95)
        while cfg.level_spins() is not None:
            cfg = _grown_configuration(rng, p, depth, keep=0.95)
        for tol in (0.0, 0.3):
            expected = _per_ball(cfg, p, tol)
            assert is_ground_state(cfg, p, tol) == expected
            assert is_ground_state(cfg, p, tol) == expected
            witnesses.add(expected[1])
        assert cfg.binary_balls is cfg.binary_balls
        assert cfg.binary_balls == {
            tuple(cfg.spins[i] for i in (c, 2 * c + 1, 2 * c + 2))
            for c in range(cfg.shape.vertex_count() // 2)}
    assert None in witnesses
    assert {x.level for x in witnesses if x} == {0, 1, 2, 3, 4, 5}


def test_ball_sets_keep_raising_for_spins_outside_the_alphabet():
    # a spin 4 anywhere in an otherwise minimal tree is refused before a
    # configuration, and so a ball set, exists
    p = REPRESENTATIVE_PARAMS["A1"]
    base = realize(LevelSequence((1, 3), period=2), 5)
    for position in range(len(base.spins)):
        spins = list(base.spins)
        spins[position] = 4
        with pytest.raises(ValueError, match=r"spins must be integers in \(1, 2, 3\)"):
            Configuration(base.shape, tuple(spins))
    assert is_ground_state(base, p) == is_ground_state(base, p) == (True, None)


def test_ball_sets_leave_equality_and_hashing_alone():
    cfg = realize(LevelSequence((2, 3), period=2), 4)
    fresh = Configuration(cfg.shape, cfg.spins)
    assert cfg.binary_balls == fresh.binary_balls == {(2, 3, 3), (3, 2, 2)}
    other = Configuration(cfg.shape, cfg.spins)
    assert fresh == other and hash(fresh) == hash(other) == hash(cfg.spins)
    assert "binary_balls" in vars(fresh) and "binary_balls" not in vars(other)


# --- the cache of minimal-entry masks ------------------------------------------

def test_clearing_the_ground_caches_clears_the_mask_cache():
    classify_region(LambdaParams(1.0, 2.0, 3.0))
    assert minimal_entries.cache_info().currsize >= 1
    clear_caches()
    info = minimal_entries.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 0, 0)


def test_clear_caches_empties_every_cache_one_item_fills():
    # one ground_states item fills the ground caches and the mask cache;
    # the helper finds each of them by walking the package's modules
    p = LambdaParams(-1.0, -1.0, 0.0)
    for region in classify_region(p).active_regions:
        catalog = generators_for(region)
        for g in catalog.generators:
            is_ground_state(realize(g, catalog.verified_depth), p)
        if region in ("A2", "A5"):
            sample_family(region, 4, 1, 6)
    brute_force_minima(p, 2)
    filled = [ground._catalog, ground._realize, ground._minima, minimal_entries]
    assert all(cache.cache_info().currsize > 0 for cache in filled)
    found = clear_caches()
    assert all(any(cache is f for f in found) for cache in filled)
    assert all(cache.cache_info().currsize == 0 for cache in found)


def test_mask_cache_holds_at_most_eight_entries():
    assert minimal_entries.cache_info().maxsize == 8
    clear_caches()
    for i, p in enumerate(_oracle_triples()[:40]):
        is_ground_state(realize(LevelSequence((1, 3), period=2), 3), p, i % 3 / 10)
        assert minimal_entries.cache_info().currsize == min(i + 1, 8)
    assert minimal_entries.cache_info().misses == 40


def test_mask_cache_keeps_bad_tolerances_out():
    p = LambdaParams(0.5, -1.0, 2.0)
    cfg = realize(LevelSequence((2,), period=1), 2)
    clear_caches()
    for tol in (math.nan, -1.0, -1e-300, -math.inf):
        message = f"tol must be >= 0, got {tol}"
        assert _error(lambda: classify_region(p, tol)) == message
        assert _error(lambda: is_ground_state(cfg, p, tol)) == message
        assert _error(lambda: minimal_entries(p.a, p.b, p.c, tol)) == message
    info = minimal_entries.cache_info()
    assert (info.hits, info.currsize) == (0, 0)


def test_betas_share_one_mask():
    # beta never enters the mask, so it is no part of the key
    clear_caches()
    reports = [classify_region(LambdaParams(1.0, 1.0, 2.0, beta))
               for beta in (0.25, 1.0, 7.5)]
    assert reports[0] == reports[1] == reports[2]
    info = minimal_entries.cache_info()
    assert (info.hits, info.misses, info.currsize) == (2, 1, 1)


def test_cold_and_warm_masks_give_the_scanned_balls():
    for p in _oracle_triples():
        for tol in (0.0, 1e-12, 0.3, math.inf):
            clear_caches()
            cold = ground._minimal_balls(p, tol)
            warm = ground._minimal_balls(p, tol)
            assert minimal_entries.cache_info().hits == 1
            assert cold is warm and cold == minimal_balls_by_scan(p, tol), (p, tol)


def test_one_ground_states_item_decides_its_mask_once():
    # classify, then realize and score every generator of each active
    # region's catalog, sample the families and count the minima, as one
    # item of the ground_states benchmark does: one miss per triple, and
    # every later verdict at it a hit
    clear_caches()
    for region in REPRESENTATIVE_PARAMS:
        generators_for(region)  # certified at the representative triples
    rng = random.Random(19)
    triples = [LambdaParams(*t) for t in product(range(-2, 3), repeat=3)]
    triples += [LambdaParams(*(rng.randint(-8, 8) / 4 for _ in range(3)))
                for _ in range(60)]
    for p in triples:
        minimal_entries.cache_clear()
        regions = classify_region(p).active_regions
        scored = 0
        for region in regions:
            catalog = generators_for(region)
            for g in catalog.generators:
                assert is_ground_state(realize(g, catalog.verified_depth), p)[0]
                scored += 1
            if region in ("A2", "A5"):
                sample_family(region, 4, 1, 6)
        brute_force_minima(p, 2)
        info = minimal_entries.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, scored + 1, 1), p
