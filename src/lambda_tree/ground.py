"""Ground-state catalogs per coupling region, with a brute-force oracle.

A configuration is a ground state when every ball (vertex + two successors)
attains the minimal catalogue energy for the coupling triple. Each region
A1..A6 has a catalog of level-periodic generators; A2 and A5 additionally
carry uncountable families of level sequences, described by their
constraints and sampled pseudo-randomly.

Every catalog and family member is constant on each level, so the ball
centred at any vertex of level m is the ball (s_m, s_{m+1}, s_{m+1}).
Catalogs are therefore certified on their level sequences, one level pair
at a time, without realizing a tree: every generator is checked at the
region's representative coupling before being returned.

A ball's energy is always one of the six catalogue entries, fixed by the
two spin distances between its center and its children. So which balls
are minimal depends on the coupling triple and tolerance only through
which entries are minimal: every verdict reads one of 63 sets of minimal
balls, built once, from that mask.

Each cache, with its key and its bound:

- model.minimal_entries: the mask, per (a, b, c, tol); the last 8 keys.
- _catalog: the certified catalog, per (region, max_period); the last 8,
  each of at most 2^20 level values.
- _realize: the configuration, per (level sequence, depth) of depth at
  most 9; the last 256, so at most 256 x 2^10 spins. Deeper trees are
  built afresh.
- _minima: the number of ball-minimal configurations, per (pattern of
  minimal balls, depth), with the configurations themselves when they
  hold at most 2^14 spins; the last 16, so at most 16 x 2^14 spins.

Each configuration also keeps its own set of distinct balls
(Configuration.binary_balls, at most 27), so scoring a kept tree again is
one subset test of that set.
"""

import random
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, product

from .errors import CapacityError, InternalConsistencyError
from .model import SPINS, Configuration, LambdaParams, ball_entry, minimal_entries
from .tree import TreeCoord, TreeShape, binary_ball_values

_MAX_SPINS = 2 ** 20  # spins realized by one family draw, one realize or one set of minima
_MAX_LEVEL_PAIRS = 2 ** 20  # level pairs (generators x depth) one certification checks
_MEMO_SPINS = 2 ** 14  # largest set of minima (count x |V| spins) brute_force_minima caches
_REALIZED_DEPTH = 9  # deepest tree (2^10 - 1 spins) realize caches
_REALIZED_TREES = 256  # trees realize keeps

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
        Configuration._check_spin_values(self.entries)
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


def _check_spins(depth: int, configurations: int = 1) -> None:
    """CapacityError unless realizing that many configurations of the
    given depth stays within _MAX_SPINS spins; the depth is
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


_BALL_ENTRIES = [(ball, ball_entry(ball[0], ball[1:])) for ball in product(SPINS, repeat=3)]

# the minimal balls per mask of minimal catalogue entries, for the 63 masks
# with an entry set; each set is built in the order a scan of all 27 balls
# would build it
_MINIMAL_BALLS: dict[tuple[bool, ...], frozenset[tuple[int, int, int]]] = {
    mask: frozenset(ball for ball, entry in _BALL_ENTRIES if mask[entry])
    for mask in product((False, True), repeat=6) if any(mask)}


def _minimal_balls(p: LambdaParams, tol: float) -> frozenset[tuple[int, int, int]]:
    """The balls (s, t, u), the center's spin then its two children's,
    whose ball energy is within tol of the minimum at p, read from one
    table by which catalogue entries (model.ball_entry) are minimal; the
    same mask always gives the same frozenset object. The mask comes from
    model.minimal_entries, cached for the last 8 keys (a, b, c, tol), so
    p's beta is never read. A negative or NaN tol raises ValueError."""
    return _MINIMAL_BALLS[minimal_entries(p.a, p.b, p.c, tol)]


def realize(seq: LevelSequence, depth: int) -> Configuration:
    """Level-constant configuration on the binary truncation with seq's
    value on each level. LevelSequence checks its entries as Configuration
    checks spins, so the tree's spins are not checked again.

    A tree of depth at most _REALIZED_DEPTH is built once per (seq, depth)
    and the same object handed out again (see _realize); a deeper tree is
    bounded by _check_spins, then built on every call. A call that raises
    stores nothing."""
    # compared as _check_spins compares first, so a depth that is no
    # number raises the same TypeError
    if depth >= _REALIZED_DEPTH + 1:
        _check_spins(depth)
        return _realize.__wrapped__(seq, depth)
    return _realize(seq, depth)


@lru_cache(maxsize=_REALIZED_TREES, typed=True)
def _realize(seq: LevelSequence, depth: int) -> Configuration:
    """realize's tree, kept for the last 256 (seq, depth) pairs; realize
    passes only depths of at most _REALIZED_DEPTH, so the cache holds at
    most 256 x 2^10 = 2^18 spins. typed=True keeps a float depth from
    reading an int's entry: it raises TypeError, as range does."""
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

    One subset test of the configuration's distinct balls
    (Configuration.binary_balls, kept on the instance) against the set of
    minimal balls decides the common case; that set is looked up by the mask of
    minimal catalogue entries, which model.minimal_entries keeps for the
    last 8 keys (a, b, c, tol), so scoring many configurations at one
    triple decides the mask once. Only when it fails are the
    balls listed in canonical order (tree.binary_ball_values), up to the
    first one not in the set. Configuration holds only spins in SPINS, so
    every ball has an energy; depth 0, with no ball, raises ValueError.
    """
    shape, spins = sigma.shape, sigma.spins
    if shape.depth < 1:
        raise ValueError("depth must be >= 1 to form balls")
    minimal = _minimal_balls(p, tol)
    if minimal.issuperset(sigma.binary_balls):
        return True, None
    center = next(c for c, ball in enumerate(binary_ball_values(spins))
                  if ball not in minimal)
    return False, shape.vertex_at(center)


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

    Every ball centred on level m is (s_m, s_{m+1}, s_{m+1}), so the
    realized tree is a ground state exactly when that ball is minimal for
    each level m < depth; the first failing ball in canonical
    order is the leftmost vertex of the first failing level. All the
    generators together may check at most _MAX_LEVEL_PAIRS level pairs.
    """
    _check_level_pairs(len(generators), depth)
    shape = TreeShape(2, depth)  # realize's ValueError for depth < 0
    if depth < 1:
        raise ValueError("depth must be >= 1 to form balls")
    minimal = _minimal_balls(p, tol)
    out = []
    for g in generators:
        levels = [g.value_at(m) for m in range(depth + 1)]  # realize's ValueError
        failing = next((m for m in range(depth)
                        if (levels[m], levels[m + 1], levels[m + 1]) not in minimal), None)
        out.append((True, None) if failing is None
                   else (False, shape.vertex_at(shape.level_positions(failing).start)))
    return out


def sample_family(region: str, count: int, seed: int,
                  depth: int) -> list[Configuration]:
    """Draw distinct members of a region's uncountable family, realized to
    the given depth. Only A2 and A5 qualify. If fewer than count distinct
    sequences exist up to this depth (there are 2^depth), all are returned.
    The draw may realize at most _MAX_SPINS spins in all.

    Sequences are drawn level by level from the seeded generator until
    min(count, 2^depth) distinct ones are found, then sorted and built by
    realize. Both families happen to have exactly 2 admissible values at
    every level, read from the descriptor."""
    if count < 0:
        raise ValueError("count must be >= 0")
    family = _FAMILIES.get(region)
    if family is None:
        raise ValueError(
            f"region {region} has no uncountable family to sample")
    options = {prev: tuple(s for s in family.alphabet
                           if not (family.adjacent_must_differ and s == prev))
               for prev in SPINS}
    _check_spins(depth)  # bounds the depth before 2^depth is formed
    wanted = min(count, 2 ** depth)
    _check_spins(depth, wanted)
    sequences: set[tuple[int, ...]] = set()
    rng = random.Random(seed)
    while len(sequences) < wanted:
        entries = [family.anchor]
        for _ in range(depth):
            entries.append(rng.choice(options[entries[-1]]))
        sequences.add(tuple(entries))
    return [realize(LevelSequence(s), depth) for s in sorted(sequences)]


def _child_pairs(
        pattern: frozenset[tuple[int, int, int]]) -> dict[int, list[tuple[int, int]]]:
    """The child pairs (t, u) each center spin s takes in the balls
    (s, t, u) of pattern."""
    allowed: dict[int, list[tuple[int, int]]] = {s: [] for s in SPINS}
    for s, t, u in pattern:
        allowed[s].append((t, u))
    return allowed


def _built_minima(allowed: dict[int, list[tuple[int, int]]],
                  depth: int) -> Iterator[Configuration]:
    """Every configuration of the depth-`depth` binary truncation that takes
    an allowed child pair at each ball center, built from the root one
    level at a time: each prefix ends with a whole level and grows by
    every level that can follow it, one allowed child pair per vertex with
    the leftmost vertex's varying slowest. Spins come only from SPINS, so
    they are not checked again."""
    shape = TreeShape(2, depth)
    partial = [(s,) for s in SPINS]
    for m in range(depth):
        start = shape.level_positions(m).start
        partial = [spins + tuple(chain.from_iterable(pairs)) for spins in partial
                   for pairs in product(*[allowed[s] for s in spins[start:]])]
    return Configuration._unchecked(shape, partial)


@lru_cache(maxsize=16, typed=True)
def _minima(pattern: frozenset[tuple[int, int, int]],
            depth: int) -> tuple[int, frozenset[Configuration] | None]:
    """The number of configurations of the depth-`depth` binary truncation
    whose every ball lies in pattern, or _MAX_SPINS + 1 if there are more,
    and those configurations when they hold at most _MEMO_SPINS spins in
    all (None otherwise). Subtree counts are summed level by level from
    the leaves and saturate there, so no huge integer is formed.

    Kept for the last 16 (pattern, depth) pairs, so the cache holds at
    most 16 x 2^14 = 2^18 spins. brute_force_minima bounds the depth by 19
    first. typed=True keeps a float depth from reading an int's entry: it
    raises TypeError, as range does."""
    allowed = _child_pairs(pattern)
    most = _MAX_SPINS + 1
    below = dict.fromkeys(SPINS, 1)  # configurations of a depth-0 subtree
    for _ in range(depth):
        below = {s: min(sum(below[t] * below[u] for t, u in pairs), most)
                 for s, pairs in allowed.items()}
    count = min(sum(below.values()), most)
    if count * (2 ** (depth + 1) - 1) > _MEMO_SPINS:
        return count, None
    return count, frozenset(_built_minima(allowed, depth))


def brute_force_minima(p: LambdaParams, depth: int) -> set[Configuration]:
    """All configurations on the depth-`depth` binary truncation whose every
    ball is minimal, built top-down from the root one level at a time:
    each vertex of a level takes every child pair that keeps its ball
    minimal. The minima are counted before any is built, and a result that
    would realize more than _MAX_SPINS spins raises CapacityError (its
    reported count saturates just past the bound); work then follows the
    output size.

    The result depends on p only through its pattern, the balls of minimal
    energy, of which there are at most 63. One entry of the _minima cache
    per (pattern, depth) gives the count and, for a result of at most
    _MEMO_SPINS spins, the result, copied into a fresh set on each call,
    so callers may change what they get."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    _check_spins(depth)  # bounds the depth before the count
    pattern = _minimal_balls(p, 0.0)
    size, kept = _minima(pattern, depth)
    _check_spins(depth, size)
    if kept is None:
        kept = _built_minima(_child_pairs(pattern), depth)
    return set(kept)
