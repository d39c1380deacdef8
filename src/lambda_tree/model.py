"""Three-spin coupling, ball energies, and the region classifier.

The coupling on spins {1, 2, 3} depends only on |i - j|:

    value(i, j) = a if |i - j| = 2,   b if |i - j| = 1,   c if i = j.

A ball (a vertex plus its two successors) carries energy
(value(center, child1) + value(center, child2)) / 2, which always lands in
the six-entry catalogue

    U1 = a, U2 = (a+b)/2, U3 = (a+c)/2, U4 = b, U5 = (b+c)/2, U6 = c.

Coupling space splits into regions A1..A6 by which catalogue entry is
minimal; A2, A3, A5 are the equality slices a = b <= c, a = c <= b, and
b = c <= a. On boundaries several regions are active at once.

SPINS is the one place that fixes the spin alphabet: coupling_rows is its
3 x 3 table, and Configuration holds only int spins from it. The other
modules also read from here the edge weight exp(beta*coupling) with its
overflow error (edge_weight), a ball's catalogue entry (ball_entry), and
which catalogue entries are minimal (minimal_entries). That last one is a
mask of six bools, decided once per (a, b, c, tol) and kept for the last
8 such keys in an lru_cache; beta never enters it, and the region
classifier and every ground-state verdict read it.
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import DomainError, _echo_number
from .tree import TreeShape, binary_ball_values

SPINS = (1, 2, 3)

REGION_NAMES = ("A1", "A2", "A3", "A4", "A5", "A6")

# regions whose catalogue entry is an average of two distinct couplings;
# they are active only on the corresponding equality slice
_EQUALITY_SLICES = {"A2": ("a", "b"), "A3": ("a", "c"), "A5": ("b", "c")}


def finite_number(v) -> bool:
    """Whether v is an int or float, not a bool, that is finite as a
    float; an int past the float range is not."""
    if type(v) is bool or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an int too large to convert to float
        return False


@dataclass(frozen=True)
class LambdaParams:
    """Coupling triple (a, b, c) plus inverse temperature beta."""

    a: float
    b: float
    c: float
    beta: float = 1.0

    def __post_init__(self):
        for name in ("a", "b", "c", "beta"):
            v = getattr(self, name)
            if not finite_number(v):
                raise ValueError(f"{name} must be a finite number, got {_echo_number(v)}")
        if self.beta <= 0:
            raise ValueError(f"beta must be > 0, got {self.beta}")


@dataclass(frozen=True)
class Configuration:
    """Total spin assignment on a truncation.

    Spins are stored in the canonical vertex order (level-major,
    lexicographic), so the first |V_{n-1}| entries are exactly the
    restriction to the inner truncation — marginalization is a prefix.
    """

    shape: TreeShape
    spins: tuple[int, ...]

    def __post_init__(self):
        n = self.shape.vertex_count()
        if len(self.spins) < n:
            raise ValueError(
                f"{n} vertices but only {len(self.spins)} spins assigned")
        if len(self.spins) > n:
            raise ValueError(f"{len(self.spins)} spins for {n} vertices")
        self._check_spin_values(self.spins)

    @staticmethod
    def _check_spin_values(spins) -> None:
        if any(type(s) is bool or not isinstance(s, int) or s not in SPINS for s in spins):
            raise ValueError(f"spins must be integers in {SPINS}")

    @classmethod
    def _unchecked(cls, shape: TreeShape, spin_tuples):
        """Yield one configuration per spin tuple, none of them checked:
        each tuple must already hold shape.vertex_count() spins that pass
        _check_spin_values. The results equal, and hash like, the checked
        Configuration(shape, spins)."""
        new, assign = object.__new__, object.__setattr__
        for spins in spin_tuples:
            cfg = new(cls)
            assign(cfg, "shape", shape)
            assign(cfg, "spins", spins)
            yield cfg

    def __hash__(self) -> int:
        # equal configurations have equal spins, so this agrees with the
        # dataclass __eq__ without hashing the shape as well
        return hash(self.spins)

    @cached_property
    def binary_balls(self) -> frozenset[tuple[int, ...]]:
        """The distinct balls (center, child 1, child 2) of the
        truncation, as spin triples: at most 27 over SPINS. Built on first
        use and kept on the instance; equality and hashing read only the
        shape and spins."""
        return frozenset(binary_ball_values(self.spins))

    def level_spins(self) -> tuple[int, ...] | None:
        """Per-level values if the configuration is constant on each level."""
        out = []
        for m in range(self.shape.depth + 1):
            level = self.shape.level_positions(m)
            chunk = self.spins[level.start:level.stop]
            if any(s != chunk[0] for s in chunk):
                return None
            out.append(chunk[0])
        return tuple(out)

    def __str__(self) -> str:
        return "".join(str(s) for s in self.spins)


@dataclass(frozen=True)
class RegionReport:
    """Active regions at a coupling triple, with the minimal ball energy."""

    active_regions: tuple[str, ...]
    minimal_energy: float
    boundary: bool


def coupling_rows(p: LambdaParams) -> tuple[tuple[float, ...], ...]:
    """The coupling of spins i and j in SPINS, one row per i: a at distance
    2, b at distance 1, c on the diagonal."""
    return ((p.c, p.b, p.a), (p.b, p.c, p.b), (p.a, p.b, p.c))


def edge_weight(coupling: float, p: LambdaParams) -> float:
    """exp(p.beta * coupling); DomainError where it overflows a float,
    also where the product p.beta * coupling already does."""
    try:
        weight = math.exp(p.beta * coupling)
    except OverflowError:
        weight = math.inf
    if weight == math.inf:
        raise DomainError(
            f"an edge weight exp(beta*coupling) overflows a float at {p}")
    return weight


# which catalogue entry a ball's energy is, by the spin distances from its
# center to its two children: a at distance 2, b at 1, c at 0
_ENTRY_BY_DISTANCES = {(2, 2): 0, (2, 1): 1, (1, 2): 1, (2, 0): 2, (0, 2): 2,
                       (1, 1): 3, (1, 0): 4, (0, 1): 4, (0, 0): 5}


def ball_entry(center: int, children: tuple[int, int]) -> int:
    """The index in _catalogue of the ball's energy, for spins in SPINS.
    The entry is the _average of the ball's two couplings, which is
    symmetric and gives v back for v twice, so the index depends only on
    the two spin distances."""
    return _ENTRY_BY_DISTANCES[abs(center - children[0]), abs(center - children[1])]


def _average(x: float, y: float) -> float:
    """(x + y) / 2, or x/2 + y/2 where the sum leaves the float range (a
    float sum overflows; an exact int sum of int couplings cannot be
    converted); the catalogue's three averaged entries come from here."""
    s = x + y  # halving first would round subnormals: 5e-324 twice gives 0
    if -math.inf < s < math.inf:
        try:
            return s / 2.0
        except OverflowError:  # an int sum too large to convert to float
            pass
    return x / 2.0 + y / 2.0


def _catalogue(a: float, b: float, c: float) -> tuple[float, ...]:
    """(U1..U6) = (a, (a+b)/2, (a+c)/2, b, (b+c)/2, c); an entry that is a
    coupling itself keeps its value and type."""
    return (a, _average(a, b), _average(a, c), b, _average(b, c), c)


def min_ball_energy(p: LambdaParams) -> float:
    return min(_catalogue(p.a, p.b, p.c))


def check_tolerance(tol: float) -> None:
    """ValueError unless tol >= 0; NaN fails, as it compares false."""
    if not tol >= 0:
        raise ValueError(f"tol must be >= 0, got {tol}")


@lru_cache(maxsize=8, typed=True)
def minimal_entries(a: float, b: float, c: float, tol: float) -> tuple[bool, ...]:
    """Per entry of the catalogue at couplings (a, b, c), whether it lies
    within tol of the minimum; the one comparison both the region
    classifier and the ground-state layer decide on.

    The mask is kept for the last 8 keys (a, b, c, tol): beta never enters
    it, and the couplings are the key rather than LambdaParams, as floats
    hash in C. It comes from comparisons only, so the signed zeros, which
    share a key, share their mask too. A NaN or negative tol raises
    ValueError and stores nothing. typed=True keeps int and float keys
    apart, as the package's other caches do; both give the same mask, as
    it is decided on the couplings as floats (an int such as 10**308 that
    no float equals would otherwise fall outside min + tol, which rounds).
    """
    check_tolerance(tol)
    catalogue = _catalogue(float(a), float(b), float(c))
    limit = min(catalogue) + tol
    return tuple([not u > limit for u in catalogue])


def classify_region(p: LambdaParams, tol: float = 0.0) -> RegionReport:
    """Which of A1..A6 the coupling triple lies in (several on boundaries).

    A region is active when its catalogue entry is within tol of the
    minimum (the cached minimal_entries mask) AND, for the equality slices
    A2/A3/A5, the two couplings being averaged agree within tol. The
    minimal energy is that of p's own catalogue, signed zero included.
    """
    mask = minimal_entries(p.a, p.b, p.c, tol)
    by_name = {"a": p.a, "b": p.b, "c": p.c}
    active = []
    for name, minimal in zip(REGION_NAMES, mask):
        if not minimal:
            continue
        slice_pair = _EQUALITY_SLICES.get(name)
        if slice_pair is not None:
            v, w = by_name[slice_pair[0]], by_name[slice_pair[1]]
            if abs(v - w) > tol:
                continue
        active.append(name)
    return RegionReport(tuple(active), min_ball_energy(p), len(active) > 1)
