"""Coordinate structure on the rooted binary tree, the Cayley tree of order two.

Vertices of the semi-infinite tree are addressed by their branch path from
the root: the root is the empty path (written "0"), and a vertex at level n
is a tuple (i1, ..., in) with each entry 1 or 2. A TreeShape is the finite
truncation V_n = W_0 + ... + W_n used everywhere downstream.

Inside a truncation, vertices are also numbered by their position in the
canonical order: level-major, lexicographic within a level. That is
breadth-first order, so level m holds positions 2^m - 1 .. 2^(m+1) - 2,
the parent of position i is (i - 1) // 2 and its children are 2i + 1 and
2i + 2. Edges are given in positions, and balls as values
(binary_ball_values); this module is the only one that knows the numbering.
"""

from dataclasses import dataclass
from itertools import product

from .errors import _cut, _echo_number


@dataclass(frozen=True, order=True)
class TreeCoord:
    """Address of a vertex: branch indices walked from the root; root = ()."""

    path: tuple[int, ...] = ()

    @property
    def level(self) -> int:
        return len(self.path)

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
            raise ValueError(f"branch indices must be >= 1: {_cut(repr(text))}")
        return cls(parts)


@dataclass(frozen=True)
class TreeShape:
    """Finite truncation of the binary tree: levels 0..depth materialized.
    k, the branching order, must be the int 2."""

    k: int
    depth: int

    def __post_init__(self):
        if type(self.k) is not int or self.k != 2:
            raise ValueError(f"branching order must be 2, the Cayley tree of order two, "
                             f"got {_echo_number(self.k)}")
        if self.depth < 0:
            raise ValueError(f"depth must be >= 0, got {self.depth}")

    def level_size(self, m: int) -> int:
        """|W_m| = 2^m."""
        if m < 0 or m > self.depth:
            raise ValueError(f"level {m} outside 0..{self.depth}")
        return 2 ** m

    def vertex_count(self) -> int:
        """|V_depth| = 2^(depth+1) - 1."""
        return 2 ** (self.depth + 1) - 1

    def contains(self, x: TreeCoord) -> bool:
        return x.level <= self.depth and all(1 <= i <= 2 for i in x.path)

    def level_vertices(self, m: int) -> list[TreeCoord]:
        """W_m in lexicographic order."""
        if m < 0 or m > self.depth:
            raise ValueError(f"level {m} outside 0..{self.depth}")
        return [TreeCoord(p) for p in product((1, 2), repeat=m)]

    def level_positions(self, m: int) -> range:
        """Positions of W_m in the canonical order: 2^m - 1 .. 2^(m+1) - 2."""
        size = self.level_size(m)
        return range(size - 1, 2 * size - 1)

    def edges(self) -> list[tuple[int, int]]:
        """Nearest-neighbor (parent, child) position pairs, by child position."""
        return [((child - 1) // 2, child) for child in range(1, self.vertex_count())]

    def vertex_at(self, i: int) -> TreeCoord:
        """The vertex at position i of the canonical order, whose path
        digits (1-based) read as a binary numeral give its rank within its
        level. Walks up through parents (i - 1) // 2, so it costs one step
        per level."""
        if not 0 <= i < self.vertex_count():
            raise ValueError(f"position {i} outside truncation {self}")
        path = []
        while i:
            i, branch = divmod(i - 1, 2)
            path.append(branch + 1)
        return TreeCoord(tuple(reversed(path)))


def successors(x: TreeCoord, shape: TreeShape) -> list[TreeCoord]:
    """Direct successors S(x) inside the truncation, lexicographic."""
    if x.level >= shape.depth:
        raise ValueError(
            f"vertex {x} at level {x.level} has no successors inside depth {shape.depth}")
    return [x.child(1), x.child(2)]


def binary_ball_values(values):
    """(center, child 1, child 2) of every ball, in center order, from
    per-vertex values in canonical order: the ball centred at position c
    holds positions c, 2c + 1 and 2c + 2."""
    return zip(values, values[1::2], values[2::2])
