"""Three-spin coupling, Hamiltonians, ball energies, and the region classifier.

The coupling on spins {1, 2, 3} depends only on |i - j|:

    value(i, j) = a if |i - j| = 2,   b if |i - j| = 1,   c if i = j.

A ball (a vertex plus its two successors) carries energy
(value(center, child1) + value(center, child2)) / 2, which always lands in
the six-entry catalogue

    U1 = a, U2 = (a+b)/2, U3 = (a+c)/2, U4 = b, U5 = (b+c)/2, U6 = c.

Coupling space splits into regions A1..A6 by which catalogue entry is
minimal; A2, A3, A5 are the equality slices a = b <= c, a = c <= b, and
b = c <= a. On boundaries several regions are active at once.
"""

import math
from dataclasses import dataclass

from .tree import TreeShape

SPINS = (1, 2, 3)

BALLS_PER_VERTEX = 2  # ball = center + its two successors

REGION_NAMES = ("A1", "A2", "A3", "A4", "A5", "A6")

# regions whose catalogue entry is an average of two distinct couplings;
# they are active only on the corresponding equality slice
_EQUALITY_SLICES = {"A2": ("a", "b"), "A3": ("a", "c"), "A5": ("b", "c")}


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
            if not isinstance(v, (int, float)) or not math.isfinite(v):
                raise ValueError(f"{name} must be a finite number, got {v!r}")
        if self.beta <= 0:
            raise ValueError(f"beta must be > 0, got {self.beta}")

    @classmethod
    def from_mapping(cls, obj) -> "LambdaParams":
        """Build from {"a": .., "b": .., "c": .., "beta": ..} (beta optional)."""
        try:
            return cls(float(obj["a"]), float(obj["b"]), float(obj["c"]),
                       float(obj.get("beta", 1.0)))
        except KeyError as e:
            raise ValueError(f"missing coupling parameter {e.args[0]!r}") from None


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
        if any(not isinstance(s, int) or s < 1 for s in spins):
            raise ValueError("spins must be integers >= 1")

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


def coupling_value(i: int, j: int, p: LambdaParams) -> float:
    """Distance-based coupling for spins from any finite alphabet:
    c on the diagonal, b at distance 1, a at distance 2 or more."""
    d = abs(i - j)
    if d == 0:
        return p.c
    if d == 1:
        return p.b
    return p.a


def lambda_value(i: int, j: int, p: LambdaParams) -> float:
    """The three-spin coupling; arguments must lie in {1, 2, 3}."""
    if i not in SPINS or j not in SPINS:
        raise ValueError(f"spins must be in {SPINS}, got ({i}, {j})")
    return coupling_value(i, j, p)


def hamiltonian(sigma: Configuration, p: LambdaParams) -> float:
    """Sum of coupling values over all nearest-neighbor pairs."""
    spins = sigma.spins
    return sum(coupling_value(spins[i], spins[j], p) for i, j in sigma.shape.edges())


def ball_energy(center: int, children: tuple[int, int], p: LambdaParams) -> float:
    """Energy of one ball: half the sum of the two center-child couplings."""
    if len(children) != BALLS_PER_VERTEX:
        raise ValueError(f"expected {BALLS_PER_VERTEX} child spins, got {len(children)}")
    return (lambda_value(center, children[0], p)
            + lambda_value(center, children[1], p)) / 2.0


def ball_energy_catalogue(p: LambdaParams) -> tuple[float, ...]:
    """(U1..U6) = (a, (a+b)/2, (a+c)/2, b, (b+c)/2, c)."""
    a, b, c = p.a, p.b, p.c
    return (a, (a + b) / 2.0, (a + c) / 2.0, b, (b + c) / 2.0, c)


def min_ball_energy(p: LambdaParams) -> float:
    return min(ball_energy_catalogue(p))


def classify_region(p: LambdaParams, tol: float = 0.0) -> RegionReport:
    """Which of A1..A6 the coupling triple lies in (several on boundaries).

    A region is active when its catalogue entry is within tol of the
    minimum AND, for the equality slices A2/A3/A5, the two couplings being
    averaged agree within tol.
    """
    if tol < 0:
        raise ValueError(f"tol must be >= 0, got {tol}")
    catalogue = ball_energy_catalogue(p)
    lo = min(catalogue)
    by_name = {"a": p.a, "b": p.b, "c": p.c}
    active = []
    for name, u in zip(REGION_NAMES, catalogue):
        if u > lo + tol:
            continue
        slice_pair = _EQUALITY_SLICES.get(name)
        if slice_pair is not None:
            v, w = by_name[slice_pair[0]], by_name[slice_pair[1]]
            if abs(v - w) > tol:
                continue
        active.append(name)
    return RegionReport(tuple(active), lo, len(active) > 1)
