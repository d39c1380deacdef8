"""Ground-state catalogs per coupling region, with a brute-force oracle.

A configuration is a ground state when every ball (vertex + two successors)
attains the minimal catalogue energy for the coupling triple. Each region
A1..A6 has a catalog of level-periodic generators; A2 and A5 additionally
carry uncountable families of level sequences, described by their
constraints and sampled pseudo-randomly.

Every catalog and family member is constant on each level, so the ball
centred at any vertex of level m has energy ball_energy(s_m, (s_{m+1},
s_{m+1})). Catalogs are therefore certified on their level sequences, one
level pair at a time, without realizing a tree: every generator is checked
at the region's representative coupling before being returned. All ball
energies come from one 27-entry table per coupling triple, cached across
calls. The certified catalogs, and the minima of small truncations, are
cached too: a set of minima depends on the coupling triple only through
which balls are minimal.
"""

import random
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, count, product, repeat

from .errors import CapacityError, InternalConsistencyError
from .model import (BALLS_PER_VERTEX, SPINS, Configuration, LambdaParams,
                    ball_energy, min_ball_energy)
from .tree import TreeCoord, TreeShape, balls

_MAX_SPINS = 2 ** 20  # spins realized by one family draw, one realize or one set of minima
_MAX_LEVEL_PAIRS = 2 ** 20  # level pairs (generators x depth) one certification checks
_MEMO_SPINS = 2 ** 14  # largest set of minima (count x |V| spins) brute_force_minima caches

# one coupling triple per region making its catalogue entry minimal
REPRESENTATIVE_PARAMS: dict[str, LambdaParams] = {
    "A1": LambdaParams(-1.0, 0.0, 0.0),
    "A2": LambdaParams(-1.0, -1.0, 0.0),
    "A3": LambdaParams(-1.0, 0.0, -1.0),
    "A4": LambdaParams(0.0, -1.0, 0.0),
    "A5": LambdaParams(0.0, -1.0, -1.0),
    "A6": LambdaParams(0.0, 0.0, -1.0),
}


@dataclass(frozen=True)
class LevelSequence:
    """Spin value per level; wraps around when period is set."""

    entries: tuple[int, ...]
    period: int | None = None

    def __post_init__(self):
        if not self.entries:
            raise ValueError("entries must be nonempty")
        if any(s not in SPINS for s in self.entries):
            raise ValueError(f"entries must lie in {SPINS}")
        Configuration._check_spin_values(self.entries)  # 1.0 lies in SPINS too
        if self.period is not None and self.period != len(self.entries):
            raise ValueError(
                f"period {self.period} != {len(self.entries)} entries")

    def value_at(self, level: int) -> int:
        if self.period is not None:
            return self.entries[level % self.period]
        if level >= len(self.entries):
            raise ValueError(
                f"aperiodic sequence of length {len(self.entries)} "
                f"has no value at level {level}")
        return self.entries[level]


@dataclass(frozen=True)
class FamilyDescriptor:
    """An uncountable family of level sequences, given by its constraints."""

    alphabet: tuple[int, ...]
    anchor: int                  # forced value at level 0
    adjacent_must_differ: bool
    label: str


@dataclass(frozen=True)
class GroundStateCatalog:
    region: str
    generators: tuple[LevelSequence, ...]
    families: tuple[FamilyDescriptor, ...]
    verified_depth: int

    def to_json(self) -> dict:
        return {
            "region": self.region,
            "generators": [{"period": g.period, "entries": list(g.entries)}
                           for g in self.generators],
            "families": [{"alphabet": list(f.alphabet), "anchor": f.anchor,
                          "adjacent_must_differ": f.adjacent_must_differ,
                          "label": f.label}
                         for f in self.families],
            "verified_depth": self.verified_depth,
        }


def _check_spins(depth: int, configurations: int = 1) -> None:
    """CapacityError unless realizing that many configurations of the
    given depth (k = 2) stays within _MAX_SPINS spins; the depth is
    compared first, so 2^depth is never expanded past the bound."""
    if depth >= _MAX_SPINS.bit_length() or \
            configurations * (2 ** (depth + 1) - 1) > _MAX_SPINS:
        raise CapacityError(
            f"{configurations} configuration(s) of depth {depth} would realize "
            f"more than {_MAX_SPINS} spins")


def _check_level_pairs(generators: int, depth: int) -> None:
    """CapacityError unless certifying that many generators to the given
    depth checks at most _MAX_LEVEL_PAIRS level pairs."""
    if generators * depth > _MAX_LEVEL_PAIRS:
        raise CapacityError(
            f"{generators} generator(s) to depth {depth} would check more than "
            f"{_MAX_LEVEL_PAIRS} level pairs")


@lru_cache(maxsize=16)
def _ball_table(p: LambdaParams) -> dict[tuple[int, int, int], float]:
    """ball_energy(s, (t, u), p) for all 27 spin triples, keyed flat as
    (s, t, u): the center's spin, then its two children's.

    Built by calling ball_energy, so it holds no second energy definition.
    It is cached per coupling triple; equal triples (0.0 and -0.0 among
    them) share one entry and get the same verdicts. Callers only read it.
    """
    return {(s, t, u): ball_energy(s, (t, u), p)
            for s in SPINS for t, u in product(SPINS, repeat=2)}


def realize(seq: LevelSequence, depth: int) -> Configuration:
    """Level-constant configuration on the binary truncation with seq's
    value on each level. LevelSequence checks its entries as Configuration
    checks spins, so the tree's spins are not checked again."""
    _check_spins(depth)
    shape = TreeShape(2, depth)
    spins = []
    for m in range(depth + 1):
        spins += [seq.value_at(m)] * shape.level_size(m)
    [cfg] = Configuration._unchecked(shape, [tuple(spins)])
    return cfg


def is_ground_state(sigma: Configuration, p: LambdaParams,
                    tol: float = 0.0) -> tuple[bool, TreeCoord | None]:
    """Check every ball attains the minimal energy; on failure return the
    first offending ball center as witness.

    At k = 2 the ball centred at position c holds positions c, 2c + 1 and
    2c + 2, so one ordered pass over zip(spins, spins[1::2], spins[2::2])
    meets every ball in canonical order, and each ball's verdict is read
    from the cached ball table. A ball the table lacks (a spin outside
    SPINS) goes to ball_energy, which raises for it; so does k != 2. Depth
    0 raises as balls does.
    """
    shape, spins = sigma.shape, sigma.spins
    if shape.depth < 1 or shape.k != BALLS_PER_VERTEX:
        balls(shape)  # raises at depth 0
        ball_energy(spins[0], spins[1:shape.k + 1], p)  # raises for k != 2 children
    table = _ball_table(p)
    limit = min_ball_energy(p) + tol
    failing = {ball: u > limit for ball, u in table.items()}
    # centers whose ball fails, or is not in the table, in canonical order
    suspects = compress(count(), map(failing.get, zip(spins, spins[1::2], spins[2::2]),
                                     repeat(True)))
    for center in suspects:
        s, t, u = spins[center], spins[2 * center + 1], spins[2 * center + 2]
        if (s, t, u) in failing or ball_energy(s, (t, u), p) > limit:
            return False, shape.vertex_at(center)
    return True, None


_FAMILY_123 = FamilyDescriptor(
    alphabet=(1, 2, 3), anchor=1, adjacent_must_differ=True,
    label="level sequences over {1,2,3} with consecutive levels distinct, level 0 = 1")
_FAMILY_23 = FamilyDescriptor(
    alphabet=(2, 3), anchor=2, adjacent_must_differ=False,
    label="level sequences over {2,3} with level 0 = 2")
_FAMILIES = {"A2": _FAMILY_123, "A5": _FAMILY_23}


def _one_then_alternating(period: int) -> LevelSequence:
    """[1, 2, 3, 2, 3, ...] truncated to the period (the region-A2 patterns)."""
    entries = [1] + [2 if i % 2 == 1 else 3 for i in range(1, period)]
    return LevelSequence(tuple(entries), period=period)


def _one_then_constant(period: int, filler: int) -> LevelSequence:
    """[1, filler, filler, ...] of the given period."""
    return LevelSequence((1,) + (filler,) * (period - 1), period=period)


def generators_for(region: str, max_period: int = 7) -> GroundStateCatalog:
    """Catalog of level-periodic ground-state generators for a region.

    max_period bounds the periods generated; regions with a fixed finite
    catalog (A1, A6) ignore it. A4's generators have periods 3n+1
    ([1, 2, 3, 2] and its longer 2,3-alternations); only even periods
    appear there, since inside A4 every parent/child pair must sit at
    spin distance one, which flips the spin's parity level by level and
    so cannot close an odd cycle. Every generator is certified level pair
    by level pair at the region's representative coupling, one level past
    the longest period; a catalog whose generators times that depth
    exceed _MAX_LEVEL_PAIRS raises CapacityError before any periodic
    generator is built. The catalog is immutable, and the last few built
    are cached (see _catalog).
    """
    if max_period < 1:
        raise ValueError(f"max_period must be >= 1, got {max_period}")
    if region not in REPRESENTATIVE_PARAMS:
        raise ValueError(f"unknown region {region!r}")
    return _catalog(region, max_period)


@lru_cache(maxsize=8, typed=True)
def _catalog(region: str, max_period: int) -> GroundStateCatalog:
    """generators_for's catalog, built and certified once per argument
    pair. Each catalog stays within _MAX_LEVEL_PAIRS level pairs, and no
    generator has more entries than the certified depth, so the 8 cached
    catalogs hold at most 8 x 2^20 level values in all. typed=True keeps
    a float max_period from reading an int's entry: it raises TypeError,
    as range does."""
    periods = {"A2": range(2, max_period + 1), "A3": range(2, max_period + 1),
               "A4": range(4, max_period + 1, 6),  # the even 3n+1
               "A5": range(2, max_period + 1)}.get(region, range(0))
    depth = max(3, periods[-1] + 1) if periods else 3

    constants = [LevelSequence((s,), period=1) for s in SPINS]
    generators = {"A1": [LevelSequence((1, 3), period=2),
                         LevelSequence((3, 1), period=2)],
                  "A3": constants, "A5": constants, "A6": constants}.get(region, [])
    _check_level_pairs(len(generators) + len(periods), depth)
    if region in ("A2", "A4"):
        generators += [_one_then_alternating(n) for n in periods]
    elif region in ("A3", "A5"):
        filler = 3 if region == "A3" else 2
        generators += [_one_then_constant(n, filler) for n in periods]
    families = (_FAMILIES[region],) if region in _FAMILIES else ()

    verdicts = verify_generators(generators, REPRESENTATIVE_PARAMS[region], depth)
    for g, (ok, witness) in zip(generators, verdicts):
        if not ok:
            raise InternalConsistencyError(
                f"catalog generator {g.entries} fails at ball {witness} in {region}")
    return GroundStateCatalog(region, tuple(generators), families, depth)


def verify_generators(generators, p: LambdaParams, depth: int,
                      tol: float = 0.0) -> list[tuple[bool, TreeCoord | None]]:
    """is_ground_state(realize(g, depth), p, tol) of each generator, decided
    on its level sequence without realizing a tree.

    Every ball centred on level m has energy ball_energy(s_m, (s_{m+1},
    s_{m+1})), so the realized tree is a ground state exactly when that
    holds for each level m < depth; the first failing ball in canonical
    order is the leftmost vertex of the first failing level. All the
    generators together may check at most _MAX_LEVEL_PAIRS level pairs.
    """
    _check_level_pairs(len(generators), depth)
    if depth < 1:  # the errors realize (depth < 0) and balls (depth 0) give
        balls(TreeShape(2, depth))
    table = _ball_table(p)
    limit = min_ball_energy(p) + tol
    out = []
    for g in generators:
        levels = [g.value_at(m) for m in range(depth + 1)]  # realize's ValueError
        failing = next((m for m in range(depth)
                        if table[levels[m], levels[m + 1], levels[m + 1]] > limit), None)
        out.append((True, None) if failing is None
                   else (False, TreeCoord((1,) * failing)))
    return out


def _family_sequences(region: str):
    """The family's level sequences as (anchor, choices-per-level), read
    from its descriptor; both families happen to have exactly 2 admissible
    values at every level."""
    family = _FAMILIES.get(region)
    if family is None:
        raise ValueError(
            f"region {region} has no uncountable family to sample")

    def options(prev: int) -> tuple[int, ...]:
        return tuple(s for s in family.alphabet
                     if not (family.adjacent_must_differ and s == prev))
    return family.anchor, options


def sample_family(region: str, count: int, seed: int,
                  depth: int) -> list[Configuration]:
    """Draw distinct members of a region's uncountable family, realized to
    the given depth. Only A2 and A5 qualify. If fewer than count distinct
    sequences exist up to this depth (there are 2^depth), all are returned.
    The draw may realize at most _MAX_SPINS spins in all."""
    if count < 0:
        raise ValueError("count must be >= 0")
    anchor, options = _family_sequences(region)
    _check_spins(depth)  # bounds the depth before 2^depth is formed
    space = 2 ** depth
    _check_spins(depth, min(count, space))
    seen: set[tuple[int, ...]] = set()
    if count >= space:
        for tail in product((0, 1), repeat=depth):
            entries = [anchor]
            for pick in tail:
                entries.append(options(entries[-1])[pick])
            seen.add(tuple(entries))
    else:
        rng = random.Random(seed)
        while len(seen) < count:
            entries = [anchor]
            for _ in range(depth):
                entries.append(rng.choice(options(entries[-1])))
            seen.add(tuple(entries))
    return [realize(LevelSequence(s), depth) for s in sorted(seen)]


def _count_minima(allowed: dict[int, list[tuple[int, int]]], depth: int) -> int:
    """Number of configurations of the depth-`depth` binary truncation that
    take an allowed child pair at every ball center, or _MAX_SPINS + 1 if
    there are more. Subtree counts are summed level by level from the
    leaves and saturate there, so no huge integer is formed."""
    most = _MAX_SPINS + 1
    below = dict.fromkeys(SPINS, 1)  # configurations of a depth-0 subtree
    for _ in range(depth):
        below = {s: min(sum(below[t] * below[u] for t, u in pairs), most)
                 for s, pairs in allowed.items()}
    return min(sum(below.values()), most)


def _child_levels(level: tuple[int, ...], allowed: dict[int, list[tuple[int, int]]],
                  memo: dict) -> list[tuple[int, ...]]:
    """Every level that can follow `level`: one allowed child pair per vertex,
    in canonical order. The two halves of the level are expanded apart and
    memoized, so long levels cost time linear in what they produce."""
    out = memo.get(level)
    if out is None:
        if len(level) == 1:
            out = allowed[level[0]]
        else:
            half = len(level) // 2
            out = [left + right for left in _child_levels(level[:half], allowed, memo)
                   for right in _child_levels(level[half:], allowed, memo)]
        memo[level] = out
    return out


def _minimal_spins(shape: TreeShape,
                   allowed: dict[int, list[tuple[int, int]]]) -> list[tuple[int, ...]]:
    """The spins of every configuration of the shape that takes an allowed
    child pair at each ball center, built from the root one level at a
    time: each prefix ends with a whole level and grows by every level
    that can follow it."""
    memo: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    partial = [(s,) for s in SPINS]
    for m in range(shape.depth):
        start = shape.level_positions(m).start
        partial = [spins + below for spins in partial
                   for below in _child_levels(spins[start:], allowed, memo)]
    return partial


def _child_pairs(
        pattern: tuple[tuple[int, int, int], ...]) -> dict[int, list[tuple[int, int]]]:
    """The child pairs (t, u) each center spin s takes in the balls
    (s, t, u) of pattern."""
    allowed: dict[int, list[tuple[int, int]]] = {s: [] for s in SPINS}
    for s, t, u in pattern:
        allowed[s].append((t, u))
    return allowed


def _minima(pattern: tuple[tuple[int, int, int], ...],
            depth: int) -> Iterator[Configuration]:
    """Every configuration of the depth-`depth` binary truncation whose
    every ball lies in pattern. Spins come only from SPINS, so they are
    not checked again."""
    shape = TreeShape(2, depth)
    return Configuration._unchecked(shape, _minimal_spins(shape, _child_pairs(pattern)))


@lru_cache(maxsize=16, typed=True)
def _cached_minima(pattern: tuple[tuple[int, int, int], ...],
                   depth: int) -> frozenset[Configuration]:
    """_minima, kept for the last 16 (pattern, depth) pairs. Callers pass
    only results of at most _MEMO_SPINS spins, so the cache holds at most
    16 x 2^14 = 2^18 spins."""
    return frozenset(_minima(pattern, depth))


def brute_force_minima(p: LambdaParams, depth: int) -> set[Configuration]:
    """All configurations on the depth-`depth` binary truncation whose every
    ball is minimal, built top-down from the root one level at a time:
    each vertex of a level takes every child pair that keeps its ball
    minimal. The minima are counted before any is built, and a result that
    would realize more than _MAX_SPINS spins raises CapacityError (its
    reported count saturates just past the bound); work then follows the
    output size.

    The result depends on p only through its pattern, the balls of minimal
    energy, of which there are at most 63. A result of at most _MEMO_SPINS
    spins is kept per (pattern, depth) and copied into a fresh set on each
    call, so callers may change what they get."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    _check_spins(depth)  # bounds the depth before the count
    floor = min_ball_energy(p)
    pattern = tuple(ball for ball, energy in _ball_table(p).items() if energy <= floor)
    size = _count_minima(_child_pairs(pattern), depth)
    _check_spins(depth, size)
    if size * (2 ** (depth + 1) - 1) <= _MEMO_SPINS:
        return set(_cached_minima(pattern, depth))
    return set(_minima(pattern, depth))
