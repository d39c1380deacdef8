import random

import pytest

from lambda_tree.tree import ROOT, TreeCoord, TreeShape, balls, successors


def test_root_identity():
    assert ROOT.level == 0
    assert ROOT.path == ()
    assert str(ROOT) == "0"


def test_parse_str_roundtrip():
    rng = random.Random(41)
    for _ in range(50):
        path = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 6)))
        x = TreeCoord(path)
        assert TreeCoord.parse(str(x)) == x


def test_parse_rejects_nonpositive_branch():
    with pytest.raises(ValueError):
        TreeCoord.parse("1.0")
    with pytest.raises(ValueError):
        TreeCoord.parse("0.1")


def test_parent_child_inverse():
    x = TreeCoord((2, 1, 2))
    assert x.child(1).parent() == x
    assert x.parent().path == (2, 1)
    with pytest.raises(ValueError):
        ROOT.parent()
    with pytest.raises(ValueError):
        x.child(0)


def test_level_and_vertex_counts_order_two():
    shape = TreeShape(2, 4)
    for m in range(5):
        assert shape.level_size(m) == 2 ** m
        assert len(shape.level_vertices(m)) == 2 ** m
    assert shape.vertex_count() == 2 ** 5 - 1
    assert len(shape.vertices()) == shape.vertex_count()


def test_vertex_count_general_order():
    # (k^(n+1) - 1)/(k - 1) for k >= 2, and a path for k = 1
    assert TreeShape(3, 2).vertex_count() == (3 ** 3 - 1) // 2
    assert TreeShape(4, 3).vertex_count() == (4 ** 4 - 1) // 3
    assert TreeShape(1, 5).vertex_count() == 6


def test_canonical_order_and_index_of():
    shape = TreeShape(2, 3)
    verts = shape.vertices()
    # level-major: levels never decrease along the canonical order
    assert [v.level for v in verts] == sorted(v.level for v in verts)
    for i, v in enumerate(verts):
        assert shape.index_of(v) == i
    outside = TreeCoord((1, 1, 1, 1))
    with pytest.raises(ValueError):
        shape.index_of(outside)


def test_contains():
    shape = TreeShape(2, 2)
    assert shape.contains(ROOT)
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
    shape = TreeShape(2, 3)
    verts = shape.vertices()
    all_balls = balls(shape)
    # one ball per non-leaf vertex, centers in canonical order
    assert [center for center, _ in all_balls] == \
        list(range(TreeShape(2, 2).vertex_count()))
    covered = []
    for center, children in all_balls:
        assert [verts[c] for c in children] == successors(verts[center], shape)
        covered.extend((center, child) for child in children)
    assert sorted(covered) == sorted(shape.edges())


def test_edges_count():
    shape = TreeShape(2, 3)
    verts = shape.vertices()
    assert len(shape.edges()) == shape.vertex_count() - 1
    for parent, child in shape.edges():
        assert verts[child].parent() == verts[parent]


def test_positions_follow_the_paths():
    # the integer numbering is breadth-first: the children of position i
    # are k*i + 1 .. k*i + k, so its parent is (i - 1) // k
    for k in (1, 2, 3):
        for depth in range(5):
            shape = TreeShape(k, depth)
            verts = shape.vertices()
            for i, x in enumerate(verts):
                assert shape.index_of(x) == i
                if x.level:
                    assert shape.index_of(x.parent()) == (i - 1) // k
                if x.level < depth:
                    for c in range(1, k + 1):
                        assert shape.index_of(x.child(c)) == k * i + c
            for m in range(depth + 1):
                assert [shape.index_of(x) for x in shape.level_vertices(m)] == \
                    list(shape.level_positions(m))
            assert shape.edges() == [(shape.index_of(x.parent()), i)
                                     for i, x in enumerate(verts) if x.level]
            if depth:
                assert [(c, list(kids)) for c, kids in balls(shape)] == [
                    (shape.index_of(x), [shape.index_of(y) for y in successors(x, shape)])
                    for x in verts if x.level < depth]


def test_shape_validation():
    with pytest.raises(ValueError):
        TreeShape(0, 2)
    with pytest.raises(ValueError):
        TreeShape(2, -1)
    with pytest.raises(ValueError):
        TreeShape(2, 2).level_size(3)
    with pytest.raises(ValueError):
        balls(TreeShape(2, 0))
