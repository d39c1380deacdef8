import math
import random
from itertools import product

import pytest

from lambda_tree.errors import CapacityError, DomainError
from lambda_tree.gibbs import (BoundaryFields, FieldRatios, boltzmann_matrix,
                               fields_from_ratios, finite_volume_measure,
                               is_consistent, measure_to_csv, propagate_ratios,
                               push_forward, vertex_normalizer)
from lambda_tree.model import LambdaParams, coupling_value
from lambda_tree.solver import f_map, weights_from
from lambda_tree.tree import TreeShape, successors

# shapes (k, depth) and spin counts q whose full q^|V_depth| enumeration
# stays within 2^15 states, small enough for the per-state oracle below
_ORACLE_CASES = [(k, depth, q) for k, depth, q in product((2, 3), (1, 2, 3), (2, 3, 4))
                 if q ** TreeShape(k, depth).vertex_count() <= 2 ** 15]


def _per_state_measure(p, q, shape, h):
    """Oracle: one pass per state, edge terms by child index, then beta, then
    the last level's fields; probabilities keyed by spin tuples."""
    lam = [[coupling_value(i, j, p) for j in range(1, q + 1)]
           for i in range(1, q + 1)]
    edge_ix = [(shape.index_of(x.parent()), shape.index_of(x))
               for x in shape.vertices() if x.level]
    boundary = [(shape.index_of(x), h.at(x)) for x in shape.level_vertices(shape.depth)]
    configurations = list(product(range(1, q + 1), repeat=shape.vertex_count()))
    log_weights = []
    for spins in configurations:
        energy = 0.0
        for i, j in edge_ix:
            energy += lam[spins[i] - 1][spins[j] - 1]
        lw = p.beta * energy
        for i, hv in boundary:
            lw += hv[spins[i] - 1]
        log_weights.append(lw)
    peak = max(log_weights)
    shift = peak if abs(peak) > 700.0 else 0.0
    weights = [math.exp(lw - shift) for lw in log_weights]
    total = math.fsum(weights)
    probabilities = {s: w / total for s, w in zip(configurations, weights)}
    return probabilities, total * math.exp(shift)


def _marginalized_deviation(p, q, shape, h):
    """Oracle: sum the depth-n measure over its last level and take the
    largest gap to the depth-(n-1) measure."""
    outer, _ = _per_state_measure(p, q, shape, h)
    inner_shape = TreeShape(shape.k, shape.depth - 1)
    inner, _ = _per_state_measure(p, q, inner_shape, h)
    marginal = {}
    for spins, prob in outer.items():
        key = spins[:inner_shape.vertex_count()]
        marginal[key] = marginal.get(key, 0.0) + prob
    return max(abs(marginal[spins] - prob) for spins, prob in inner.items())


def _oracle_inputs(seed: int):
    """Per oracle case: params and recursion-built fields from log-uniform
    leaf ratios, plus a copy with one field on W_{n-1} moved."""
    rng = random.Random(seed)
    for k, depth, q in _ORACLE_CASES:
        shape = TreeShape(k, depth)
        for _ in range(2):
            p = LambdaParams(rng.uniform(-1, 1), rng.uniform(-1, 1),
                             rng.uniform(-1, 1), beta=rng.uniform(0.25, 2.0))
            leaf = FieldRatios(q, {v: tuple(math.exp(rng.uniform(-3, 3))
                                            for _ in range(q - 1))
                                   for v in shape.level_vertices(depth)})
            h = fields_from_ratios(propagate_ratios(leaf, shape, p, q),
                                   gauge=rng.uniform(-2, 2))
            fields = dict(h.fields)
            x = rng.choice(shape.level_vertices(depth - 1))
            vec = list(fields[x])
            vec[rng.randrange(q)] += math.exp(rng.uniform(-6, 1))
            fields[x] = tuple(vec)
            yield p, q, shape, h, BoundaryFields(q, fields)


def _zero_fields(shape: TreeShape, q: int = 3) -> BoundaryFields:
    return BoundaryFields(q, {v: (0.0,) * q for v in shape.vertices()})


def test_uniform_when_couplings_vanish():
    p = LambdaParams(0.0, 0.0, 0.0)
    shape = TreeShape(2, 1)
    mu = finite_volume_measure(p, 3, shape, _zero_fields(shape))
    assert len(mu.probabilities) == 27
    for prob in mu.probabilities.values():
        assert prob == pytest.approx(1 / 27, rel=1e-12)


def test_diagonal_coupling_favours_agreement():
    # c = 1, a = b = 0, depth 1: each edge contributes e when endpoint
    # spins agree, 1 otherwise, so
    #   P(all three equal) = 3 e^2 / (3 e^2 + 12 e + 12).
    p = LambdaParams(0.0, 0.0, 1.0)
    shape = TreeShape(2, 1)
    mu = finite_volume_measure(p, 3, shape, _zero_fields(shape))
    hit = sum(prob for spins, prob in mu.probabilities.items()
              if len(set(spins)) == 1)
    e = math.e
    assert hit == pytest.approx(3 * e ** 2 / (3 * e ** 2 + 12 * e + 12),
                                rel=1e-12)


def test_measure_is_a_probability_vector():
    rng = random.Random(5)
    p = LambdaParams(0.3, -0.4, 0.9, beta=0.7)
    shape = TreeShape(2, 2)
    h = BoundaryFields(3, {v: tuple(rng.uniform(-2.0, 2.0) for _ in range(3))
                           for v in shape.level_vertices(2)})
    mu = finite_volume_measure(p, 3, shape, h)
    assert all(prob >= 0.0 for prob in mu.probabilities.values())
    assert math.fsum(mu.probabilities.values()) == pytest.approx(1.0, abs=1e-12)
    assert mu.partition > 0.0


def test_measure_capacity():
    p = LambdaParams(0.0, 0.0, 0.0)
    shape = TreeShape(2, 3)  # 15 vertices, 3^15 states: over the 3^13 cap
    with pytest.raises(CapacityError):
        finite_volume_measure(p, 3, shape, _zero_fields(shape))


def test_push_forward_fixes_first_component():
    # any child vectors of the form (1, u2) map to first component exactly
    # 1.0: numerator and denominator become the same float sum, term by term
    p = LambdaParams(-0.6, 0.25, 1.1, beta=1.3)
    rng = random.Random(11)
    for _ in range(200):
        u2 = math.exp(rng.uniform(-3.0, 3.0))
        out = push_forward([(1.0, u2), (1.0, u2)], p)
        assert out[0] == 1.0
    # vanishing couplings keep every ratio at 1
    flat = LambdaParams(0.0, 0.0, 0.0)
    assert push_forward([(1.0, 1.0), (1.0, 1.0)], flat) == (1.0, 1.0)


def _ti_map(u, w):
    """The translation-invariant map, both children equal, written out in
    the weights (xw, yw, zw) = exp(beta*(c, b, a))."""
    u1, u2 = u
    den = w.zw * u1 + w.yw * u2 + w.xw
    return (((w.xw * u1 + w.yw * u2 + w.zw) / den) ** 2,
            ((w.yw * u1 + w.xw * u2 + w.yw) / den) ** 2)


def test_push_forward_on_equal_children_is_ti_map():
    # the general recursion with two equal children is the translation-
    # invariant map, and on the invariant line u1 = 1 its second component
    # is the solver's f; sums are grouped differently, so they agree to a
    # few ulps rather than bit for bit
    rng = random.Random(13)
    for _ in range(200):
        p = LambdaParams(rng.uniform(-2, 2), rng.uniform(-2, 2),
                         rng.uniform(-2, 2), beta=rng.uniform(0.1, 2.0))
        w = weights_from(p)
        u = (math.exp(rng.uniform(-3, 3)), math.exp(rng.uniform(-3, 3)))
        assert push_forward([u, u], p) == pytest.approx(_ti_map(u, w), rel=4e-15)
        assert push_forward([(1.0, u[1])] * 2, p)[1] == pytest.approx(
            f_map(u[1], w), rel=4e-15)


def test_push_forward_rejects_bad_input():
    p = LambdaParams(0.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        push_forward([(1.0, -2.0), (1.0, 1.0)], p)
    with pytest.raises(ValueError):
        push_forward([(1.0,), (1.0, 1.0)], p)


def test_ratio_field_round_trip():
    v = TreeShape(2, 1).level_vertices(1)[0]
    u = FieldRatios(3, {v: (0.8, 1.7)})
    h = fields_from_ratios(u, gauge=0.35)
    hv = h.at(v)
    assert hv[2] == 0.35
    for k, want in enumerate((0.8, 1.7)):
        assert math.exp(hv[k] - hv[2]) == pytest.approx(want, rel=1e-14)


def test_propagated_ratios_give_consistent_measures():
    p = LambdaParams(0.5, -0.3, 1.2, beta=0.9)
    shape = TreeShape(2, 2)
    rng = random.Random(3)
    leaf = FieldRatios(3, {v: (math.exp(rng.uniform(-1, 1)),
                               math.exp(rng.uniform(-1, 1)))
                           for v in shape.level_vertices(2)})
    h = fields_from_ratios(propagate_ratios(leaf, shape, p))
    report = is_consistent(p, 3, shape, h)
    assert report.passed
    assert report.max_deviation < 1e-12


def test_perturbed_fields_break_consistency():
    p = LambdaParams(0.5, -0.3, 1.2, beta=0.9)
    shape = TreeShape(2, 2)
    leaf = FieldRatios(3, {v: (1.0, 1.0) for v in shape.level_vertices(2)})
    h = fields_from_ratios(propagate_ratios(leaf, shape, p))
    fields = {v: list(f) for v, f in h.fields.items()}
    fields[shape.level_vertices(1)[0]][0] += 0.5
    bent = BoundaryFields(3, {v: tuple(f) for v, f in fields.items()})
    report = is_consistent(p, 3, shape, bent)
    assert not report.passed
    assert report.max_deviation > 1e-3


def test_partition_function_recursion():
    # dropping the outermost level divides the partition function by the
    # product of the level-1 vertices' normalizers
    p = LambdaParams(0.4, 1.1, -0.2, beta=1.0)
    inner = TreeShape(2, 1)
    outer = TreeShape(2, 2)
    leaf = FieldRatios(3, {v: (1.3, 0.6) for v in outer.level_vertices(2)})
    h = fields_from_ratios(propagate_ratios(leaf, outer, p))
    z2 = finite_volume_measure(p, 3, outer, h).partition
    z1 = finite_volume_measure(p, 3, inner, h).partition
    a1 = 1.0
    for v in inner.level_vertices(1):
        children = [h.at(c) for c in successors(v, outer)]
        a1 *= vertex_normalizer(h.at(v), children, p)
    assert z2 == pytest.approx(a1 * z1, rel=1e-10)


def test_gauge_choice_is_immaterial():
    p = LambdaParams(0.2, -0.1, 0.8)
    shape = TreeShape(2, 1)
    u = FieldRatios(3, {v: (1.5, 0.25) for v in shape.level_vertices(1)})
    mu0 = finite_volume_measure(p, 3, shape, fields_from_ratios(u, gauge=0.0))
    mu7 = finite_volume_measure(p, 3, shape, fields_from_ratios(u, gauge=0.7))
    for cfg, prob in mu0.probabilities.items():
        assert mu7.probabilities[cfg] == pytest.approx(prob, rel=1e-10)
    # partition functions differ by exp(gauge * |last level|)
    assert mu7.partition == pytest.approx(
        mu0.partition * math.exp(0.7 * 2), rel=1e-10)


def test_boltzmann_matrix_entries():
    p = LambdaParams(0.3, 0.7, -0.4, beta=2.0)
    mat = boltzmann_matrix(p, 3)
    assert mat[0][2] == math.exp(2.0 * 0.3)   # spins 1,3: two apart
    assert mat[0][1] == math.exp(2.0 * 0.7)   # neighbours
    assert mat[1][1] == math.exp(2.0 * -0.4)  # equal spins
    for i in range(3):
        for j in range(3):
            assert mat[i][j] == mat[j][i]


def test_boundary_container_validation():
    v = TreeShape(2, 1).level_vertices(1)[0]
    with pytest.raises(ValueError):
        BoundaryFields(3, {v: (0.0, 0.0)})
    with pytest.raises(DomainError):
        FieldRatios(3, {v: (1.0, 0.0)})
    with pytest.raises(DomainError):
        FieldRatios(3, {v: (-1.0, 1.0)})
    with pytest.raises(ValueError):
        FieldRatios(3, {v: (1.0,)})
    shape = TreeShape(2, 1)
    h = BoundaryFields(3, {w: (0.0, 0.0, 0.0) for w in shape.level_vertices(1)})
    with pytest.raises(ValueError):
        h.at(shape.level_vertices(0)[0])


def test_flat_model_is_consistent():
    p = LambdaParams(0.0, 0.0, 0.0)
    shape = TreeShape(2, 2)
    report = is_consistent(p, 3, shape, _zero_fields(shape))
    assert report.passed
    payload = report.to_json()
    assert set(payload) == {"max_deviation", "pass"}
    assert payload["pass"] is True


def test_measure_csv_layout():
    p = LambdaParams(0.1, 0.2, 0.3)
    shape = TreeShape(2, 1)
    mu = finite_volume_measure(p, 3, shape, _zero_fields(shape))
    text = measure_to_csv(mu)
    lines = text.strip().splitlines()
    assert lines[0] == "configuration,probability"
    assert len(lines) == 28
    keys = [row.split(",")[0] for row in lines[1:]]
    assert keys == sorted(keys)
    total = math.fsum(float(row.split(",")[1]) for row in lines[1:])
    assert total == pytest.approx(1.0, abs=1e-12)


def test_measure_matches_per_state_oracle():
    # the prefix enumeration adds in the per-state loop's order, so the
    # probabilities and the partition function agree bit for bit
    cases = [(p, q, shape, h) for p, q, shape, h, _ in _oracle_inputs(21)]
    # peak log weights of about +705 and -720 take the shifted branch
    shape = TreeShape(2, 1)
    for pair in ((352.5, 352.0), (-360.0, -361.0)):
        cases.append((LambdaParams(0.3, -0.2, 0.1), 2, shape,
                      BoundaryFields(2, {v: pair for v in shape.level_vertices(1)})))
    for p, q, shape, h in cases:
        mu = finite_volume_measure(p, q, shape, h)
        probabilities, partition = _per_state_measure(p, q, shape, h)
        assert mu.probabilities == probabilities
        assert list(mu.probabilities) == list(probabilities)
        assert mu.partition == partition


def test_consistency_matches_marginalization_oracle():
    for p, q, shape, h, bent in _oracle_inputs(22):
        for fields, passes in ((h, True), (bent, False)):
            report = is_consistent(p, q, shape, fields)
            expected = _marginalized_deviation(p, q, shape, fields)
            assert report.passed is passes
            assert (expected <= 1e-10) is passes
            assert abs(report.max_deviation - expected) <= 1e-12
