"""Ground-state catalogs per coupling region, with a brute-force oracle.

A configuration is a ground state when every ball (vertex + two successors)
attains the minimal catalogue energy for the coupling triple. Each region
A1..A6 has a catalog of level-periodic generators; A2 and A5 additionally
carry uncountable families of level sequences, described by their
constraints and sampled pseudo-randomly. Catalogs are certified on finite
truncations only: every generator is re-verified per-ball at the region's
representative coupling before being returned.
"""

import random
from itertools import product
from dataclasses import dataclass

from .errors import CapacityError, InternalConsistencyError
from .model import (SPINS, Configuration, LambdaParams, ball_energy,
                    min_ball_energy)
from .tree import TreeCoord, TreeShape, balls

_BRUTE_FORCE_MAX_DEPTH = 2  # 3^7 = 2187 at depth 2; depth 3 would be 3^15
_MAX_SPINS = 2 ** 20  # spins realized by one catalog, one family draw or one realize

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


def realize(seq: LevelSequence, depth: int) -> Configuration:
    """Level-constant configuration on the binary truncation with seq's
    value on each level."""
    _check_spins(depth)
    shape = TreeShape(2, depth)
    spins = []
    for m in range(depth + 1):
        spins.extend([seq.value_at(m)] * shape.level_size(m))
    return Configuration(shape, tuple(spins))


def is_ground_state(sigma: Configuration, p: LambdaParams,
                    tol: float = 0.0) -> tuple[bool, TreeCoord | None]:
    """Check every ball attains the minimal energy; on failure return the
    first offending ball center as witness."""
    floor = min_ball_energy(p)
    spins = sigma.spins
    for center, children in balls(sigma.shape):
        u = ball_energy(spins[center], [spins[c] for c in children], p)
        if u > floor + tol:
            return False, sigma.shape.vertices()[center]
    return True, None


_FAMILY_123 = FamilyDescriptor(
    alphabet=(1, 2, 3), anchor=1, adjacent_must_differ=True,
    label="level sequences over {1,2,3} with consecutive levels distinct, level 0 = 1")
_FAMILY_23 = FamilyDescriptor(
    alphabet=(2, 3), anchor=2, adjacent_must_differ=False,
    label="level sequences over {2,3} with level 0 = 2")


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
    so cannot close an odd cycle. Every generator is re-verified
    per-ball at the region's representative coupling, one level past the
    longest period; a catalog that would realize more than _MAX_SPINS
    spins for that raises CapacityError before any generator is built.
    """
    if max_period < 1:
        raise ValueError(f"max_period must be >= 1, got {max_period}")
    if region not in REPRESENTATIVE_PARAMS:
        raise ValueError(f"unknown region {region!r}")
    periods = {"A2": range(2, max_period + 1), "A3": range(2, max_period + 1),
               "A4": range(4, max_period + 1, 6),  # the even 3n+1
               "A5": range(2, max_period + 1)}.get(region, range(0))
    depth = max(3, periods[-1] + 1) if periods else 3
    _check_spins(depth)

    families: list[FamilyDescriptor] = []
    constants = [LevelSequence((s,), period=1) for s in SPINS]
    if region == "A1":
        generators = [LevelSequence((1, 3), period=2),
                      LevelSequence((3, 1), period=2)]
    elif region == "A2":
        generators = [_one_then_alternating(n) for n in periods]
        families = [_FAMILY_123]
    elif region == "A3":
        generators = constants + [_one_then_constant(n, 3) for n in periods]
    elif region == "A4":
        generators = [_one_then_alternating(n) for n in periods]
    elif region == "A5":
        generators = constants + [_one_then_constant(n, 2) for n in periods]
        families = [_FAMILY_23]
    else:
        generators = constants

    verdicts = verify_generators(generators, REPRESENTATIVE_PARAMS[region], depth)
    for g, (ok, witness) in zip(generators, verdicts):
        if not ok:
            raise InternalConsistencyError(
                f"catalog generator {g.entries} fails at ball {witness} in {region}")
    return GroundStateCatalog(region, tuple(generators), tuple(families), depth)


def verify_generators(generators, p: LambdaParams, depth: int,
                      tol: float = 0.0) -> list[tuple[bool, TreeCoord | None]]:
    """is_ground_state of each generator realized to the given depth; all
    of them together may realize at most _MAX_SPINS spins."""
    _check_spins(depth, len(generators))
    return [is_ground_state(realize(g, depth), p, tol) for g in generators]


def _family_sequences(region: str, depth: int):
    """The family's level sequences as (anchor, choices-per-level); both
    families happen to have exactly 2 admissible values at every level."""
    if region == "A2":
        def options(prev: int) -> tuple[int, ...]:
            return tuple(s for s in SPINS if s != prev)
        return 1, options
    if region == "A5":
        def options(prev: int) -> tuple[int, ...]:
            return (2, 3)
        return 2, options
    raise ValueError(
        f"region {region} has no uncountable family to sample")


def sample_family(region: str, count: int, seed: int,
                  depth: int) -> list[Configuration]:
    """Draw distinct members of a region's uncountable family, realized to
    the given depth. Only A2 and A5 qualify. If fewer than count distinct
    sequences exist up to this depth (there are 2^depth), all are returned.
    The draw may realize at most _MAX_SPINS spins in all."""
    if count < 0:
        raise ValueError("count must be >= 0")
    anchor, options = _family_sequences(region, depth)
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


def brute_force_minima(p: LambdaParams, depth: int) -> set[Configuration]:
    """All configurations on the depth-`depth` binary truncation whose every
    ball is minimal. Exact enumeration; depth is capped at 2 (3^7 states)."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if depth > _BRUTE_FORCE_MAX_DEPTH:
        raise CapacityError(
            f"brute force capped at depth {_BRUTE_FORCE_MAX_DEPTH}, got {depth}")
    shape = TreeShape(2, depth)
    ball_ix = [(center, a, b) for center, (a, b) in balls(shape)]
    floor = min_ball_energy(p)
    out: set[Configuration] = set()
    for spins in product(SPINS, repeat=shape.vertex_count()):
        if all(ball_energy(spins[ci], (spins[ai], spins[bi]), p) <= floor
               for ci, ai, bi in ball_ix):
            out.add(Configuration(shape, spins))
    return out
