import random

import pytest

from lambda_tree.tree import TreeCoord, TreeShape, binary_ball_values, successors
from oracles import position, vertices


def test_root_identity():
    root = TreeCoord(())
    assert root.level == 0
    assert str(root) == "0"
    assert TreeCoord.parse("0") == root


def test_parse_str_roundtrip():
    rng = random.Random(41)
    for _ in range(50):
        path = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 6)))
        x = TreeCoord(path)
        assert TreeCoord.parse(str(x)) == x


def test_parse_rejects_nonpositive_branch():
    with pytest.raises(ValueError):
        TreeCoord.parse("1.0")
    with pytest.raises(ValueError, match=r"^branch indices must be >= 1: '0\.1'$"):
        TreeCoord.parse("0.1")


def test_parse_cuts_a_long_input_in_its_message():
    # the message echoes at most 80 characters of the input, then its length
    with pytest.raises(ValueError) as caught:
        TreeCoord.parse("1.0" * 50000)
    message = str(caught.value)
    assert len(message) < 300
    assert message.endswith("... (150002 characters)")


def test_parent_child_inverse():
    # a child appends its branch index, so dropping it gives the parent
    x = TreeCoord((2, 1, 2))
    assert x.child(1).path == (2, 1, 2, 1)
    assert TreeCoord(x.child(2).path[:-1]) == x
    with pytest.raises(ValueError):
        x.child(0)


def test_level_and_vertex_counts_order_two():
    shape = TreeShape(2, 4)
    for m in range(5):
        assert shape.level_size(m) == 2 ** m
        assert len(shape.level_vertices(m)) == 2 ** m
    assert shape.vertex_count() == 2 ** 5 - 1


def test_canonical_order_and_index_of():
    # vertex_at inverts the canonical order: level_vertices level by level
    for depth in range(5):
        shape = TreeShape(2, depth)
        verts = vertices(shape)
        assert len(verts) == shape.vertex_count()
        # level-major: levels never decrease along the canonical order
        assert [v.level for v in verts] == sorted(v.level for v in verts)
        for i, v in enumerate(verts):
            assert position(v) == i
            assert shape.vertex_at(i) == v
        for i in (-1, len(verts)):
            with pytest.raises(ValueError):
                shape.vertex_at(i)


def test_contains():
    shape = TreeShape(2, 2)
    assert shape.contains(TreeCoord(()))
    assert shape.contains(TreeCoord((2, 1)))
    assert not shape.contains(TreeCoord((3,)))      # branch index beyond k
    assert not shape.contains(TreeCoord((1, 1, 1)))  # too deep


def test_successors():
    shape = TreeShape(2, 2)
    kids = successors(TreeCoord((1,)), shape)
    assert kids == [TreeCoord((1, 1)), TreeCoord((1, 2))]
    with pytest.raises(ValueError):
        successors(TreeCoord((1, 1)), shape)


def test_balls_cover_edges_exactly_once():
    # the balls of the positions themselves are (center, child 1, child 2)
    shape = TreeShape(2, 3)
    verts = vertices(shape)
    all_balls = list(binary_ball_values(range(shape.vertex_count())))
    # one ball per non-leaf vertex, centers in canonical order
    assert [center for center, _, _ in all_balls] == \
        list(range(TreeShape(2, 2).vertex_count()))
    covered = []
    for center, *children in all_balls:
        assert [verts[c] for c in children] == successors(verts[center], shape)
        covered.extend((center, child) for child in children)
    assert sorted(covered) == sorted(shape.edges())


def test_edges_count():
    shape = TreeShape(2, 3)
    verts = vertices(shape)
    assert len(shape.edges()) == shape.vertex_count() - 1
    for parent, child in shape.edges():
        assert verts[child].path[:-1] == verts[parent].path


def test_positions_follow_the_paths():
    # the integer numbering is breadth-first: the children of position i
    # are 2i + 1 and 2i + 2, so its parent is (i - 1) // 2, and level m
    # holds positions 2^m - 1 .. 2^(m+1) - 2
    for depth in range(5):
        shape = TreeShape(2, depth)
        verts = vertices(shape)
        for i, x in enumerate(verts):
            assert position(x) == i
            if x.level:
                assert position(TreeCoord(x.path[:-1])) == (i - 1) // 2
            if x.level < depth:
                for c in (1, 2):
                    assert position(x.child(c)) == 2 * i + c
        for m in range(depth + 1):
            assert [position(x) for x in shape.level_vertices(m)] == \
                list(shape.level_positions(m)) == list(range(2 ** m - 1, 2 ** (m + 1) - 1))
        assert shape.edges() == [(position(TreeCoord(x.path[:-1])), i)
                                 for i, x in enumerate(verts) if x.level]
        assert list(binary_ball_values(range(shape.vertex_count()))) == [
            (position(x), *(position(y) for y in successors(x, shape)))
            for x in verts if x.level < depth]


def test_shape_validation():
    # the branching order is the int 2 only, refused with one message
    for k, echo in ((0, "0"), (1, "1"), (3, "3"), (True, "True"), (2.0, "2.0"),
                    (10 ** 400, "an integer of 1329 bits")):
        with pytest.raises(ValueError) as caught:
            TreeShape(k, 2)
        assert str(caught.value) == \
            f"branching order must be 2, the Cayley tree of order two, got {echo}"
    with pytest.raises(ValueError):
        TreeShape(2, -1)
    with pytest.raises(ValueError):
        TreeShape(2, 2).level_size(3)
    with pytest.raises(ValueError, match=r"level 3 outside 0\.\.2"):
        TreeShape(2, 2).level_vertices(3)
