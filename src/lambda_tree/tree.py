"""Coordinate structure on the rooted tree of branching order k.

Vertices of the semi-infinite tree are addressed by their branch path from
the root: the root is the empty path (written "0"), and a vertex at level n
is a tuple (i1, ..., in) with each entry in {1..k}. A TreeShape is the
finite truncation V_n = W_0 + ... + W_n used everywhere downstream.

Inside a truncation, vertices are also numbered by their position in the
canonical order: level-major, lexicographic within a level. That is
breadth-first order, so the parent of position i is (i - 1) // k and its
children are k*i + 1 .. k*i + k. Edges and balls are given in positions;
this module is the only one that knows the numbering.
"""

from dataclasses import dataclass
from itertools import product


@dataclass(frozen=True, order=True)
class TreeCoord:
    """Address of a vertex: branch indices walked from the root; root = ()."""

    path: tuple[int, ...] = ()

    @property
    def level(self) -> int:
        return len(self.path)

    def parent(self) -> "TreeCoord":
        if not self.path:
            raise ValueError("root has no parent")
        return TreeCoord(self.path[:-1])

    def child(self, i: int) -> "TreeCoord":
        if i < 1:
            raise ValueError(f"branch index must be >= 1, got {i}")
        return TreeCoord(self.path + (i,))

    def __str__(self) -> str:
        if not self.path:
            return "0"
        return ".".join(str(i) for i in self.path)

    @classmethod
    def parse(cls, text: str) -> "TreeCoord":
        text = text.strip()
        if text in ("", "0"):
            return cls(())
        parts = tuple(int(p) for p in text.split("."))
        if any(p < 1 for p in parts):
            raise ValueError(f"branch indices must be >= 1: {text!r}")
        return cls(parts)


ROOT = TreeCoord(())


@dataclass(frozen=True)
class TreeShape:
    """Finite truncation of the order-k tree: levels 0..depth materialized."""

    k: int
    depth: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"branching order must be >= 1, got {self.k}")
        if self.depth < 0:
            raise ValueError(f"depth must be >= 0, got {self.depth}")

    def level_size(self, m: int) -> int:
        """|W_m|: 1 at the root, k^m below it."""
        if m < 0 or m > self.depth:
            raise ValueError(f"level {m} outside 0..{self.depth}")
        return self.k ** m

    def vertex_count(self) -> int:
        """|V_depth| = (k^(depth+1) - 1)/(k - 1), or depth+1 when k = 1."""
        if self.k == 1:
            return self.depth + 1
        return (self.k ** (self.depth + 1) - 1) // (self.k - 1)

    def contains(self, x: TreeCoord) -> bool:
        return x.level <= self.depth and all(1 <= i <= self.k for i in x.path)

    def level_vertices(self, m: int) -> list[TreeCoord]:
        """W_m in lexicographic order."""
        if m < 0 or m > self.depth:
            raise ValueError(f"level {m} outside 0..{self.depth}")
        return [TreeCoord(p) for p in product(range(1, self.k + 1), repeat=m)]

    def vertices(self) -> list[TreeCoord]:
        """V_depth in canonical order: level-major, lexicographic within a level."""
        out: list[TreeCoord] = []
        for m in range(self.depth + 1):
            out.extend(self.level_vertices(m))
        return out

    def level_positions(self, m: int) -> range:
        """Positions of W_m in the canonical order: after the |V_{m-1}|
        positions of the levels above it."""
        start = TreeShape(self.k, m - 1).vertex_count() if m else 0
        return range(start, start + self.level_size(m))

    def edges(self) -> list[tuple[int, int]]:
        """Nearest-neighbor (parent, child) position pairs, by child position."""
        return [((child - 1) // self.k, child) for child in range(1, self.vertex_count())]

    def index_of(self, x: TreeCoord) -> int:
        """Position of x in the canonical vertex order: within its level,
        the path digits (1-based) read as a base-k numeral."""
        if not self.contains(x):
            raise ValueError(f"vertex {x} outside truncation {self}")
        rank = 0
        for i in x.path:
            rank = rank * self.k + (i - 1)
        return self.level_positions(x.level)[rank]


def successors(x: TreeCoord, shape: TreeShape) -> list[TreeCoord]:
    """Direct successors S(x) inside the truncation, lexicographic."""
    if x.level >= shape.depth:
        raise ValueError(
            f"vertex {x} at level {x.level} has no successors inside depth {shape.depth}")
    return [x.child(i) for i in range(1, shape.k + 1)]


def balls(shape: TreeShape) -> list[tuple[int, range]]:
    """One ball per non-leaf vertex, as positions: (center, S(center)).

    Every edge of the truncation lies in exactly one ball; every non-root,
    non-leaf vertex lies in exactly two.
    """
    if shape.depth < 1:
        raise ValueError("depth must be >= 1 to form balls")
    k = shape.k
    return [(i, range(k * i + 1, k * i + k + 1))
            for i in range(shape.level_positions(shape.depth).start)]
