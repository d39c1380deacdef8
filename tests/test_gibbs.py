import hashlib
import math
import random
from itertools import product

import pytest

from lambda_tree.errors import CapacityError, DomainError
from lambda_tree.gibbs import (BoundaryFields, FieldRatios, boltzmann_matrix,
                               fields_from_ratios, finite_volume_measure,
                               is_consistent, measure_to_csv, propagate_ratios,
                               push_forward)
from lambda_tree.ground import brute_force_minima
from lambda_tree.model import SPINS, LambdaParams, _catalogue, coupling_rows
from lambda_tree.solver import weights_from
from lambda_tree.tree import TreeCoord, TreeShape, successors
from oracles import (finite_volume_corpus_text, line_map, oracle_inputs, position,
                     probabilities, vertex_normalizer, vertices)

# the depths whose full 3^|V_depth| enumeration stays within 2^15 states,
# small enough for the per-state oracle below, and the seeded draws per
# depth: 36 measures and 48 consistency verdicts in all
_ORACLE_DEPTHS = (0, 1, 2)
_ORACLE_DRAWS = 12


def _per_state_measure(p, shape, h):
    """Oracle: one pass per state, edge terms by child index, then beta, then
    the last level's fields; probabilities keyed by spin tuples."""
    lam = coupling_rows(p)
    edge_ix = [(position(TreeCoord(x.path[:-1])), position(x))
               for x in vertices(shape) if x.level]
    boundary = [(position(x), h.at(x)) for x in shape.level_vertices(shape.depth)]
    configurations = list(product(SPINS, repeat=shape.vertex_count()))
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
    by_spins = {s: w / total for s, w in zip(configurations, weights)}
    return by_spins, total * math.exp(shift)


def _marginalized_deviation(p, shape, h):
    """Oracle: sum the depth-n measure over its last level and take the
    largest gap to the depth-(n-1) measure."""
    outer, _ = _per_state_measure(p, shape, h)
    inner_shape = TreeShape(2, shape.depth - 1)
    inner, _ = _per_state_measure(p, inner_shape, h)
    marginal = {}
    for spins, prob in outer.items():
        key = spins[:inner_shape.vertex_count()]
        marginal[key] = marginal.get(key, 0.0) + prob
    return max(abs(marginal[spins] - prob) for spins, prob in inner.items())


def _zero_fields(shape: TreeShape) -> BoundaryFields:
    return BoundaryFields(3, {v: (0.0,) * 3 for v in vertices(shape)})


def test_uniform_when_couplings_vanish():
    p = LambdaParams(0.0, 0.0, 0.0)
    shape = TreeShape(2, 1)
    mu = finite_volume_measure(p, 3, shape, _zero_fields(shape))
    assert len(probabilities(mu)) == 27
    for prob in mu.values:
        assert prob == pytest.approx(1 / 27, rel=1e-12)


def test_diagonal_coupling_favours_agreement():
    # c = 1, a = b = 0, depth 1: each edge contributes e when endpoint
    # spins agree, 1 otherwise, so
    #   P(all three equal) = 3 e^2 / (3 e^2 + 12 e + 12).
    p = LambdaParams(0.0, 0.0, 1.0)
    shape = TreeShape(2, 1)
    mu = finite_volume_measure(p, 3, shape, _zero_fields(shape))
    hit = sum(prob for spins, prob in probabilities(mu).items()
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
    assert all(prob >= 0.0 for prob in mu.values)
    assert math.fsum(mu.values) == pytest.approx(1.0, abs=1e-12)
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
            line_map(u[1], w.xw, w.yw, w.zw), rel=4e-15)


def test_push_forward_rejects_bad_input():
    p = LambdaParams(0.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        push_forward([(1.0, -2.0), (1.0, 1.0)], p)
    # the recursion is written for the two ratio components of three spins
    for u in ((1.0,), (1.0, 1.0, 1.0)):
        with pytest.raises(ValueError, match=f"child ratio vector has {len(u)} "
                                             f"components, expected 2"):
            push_forward([(1.0, 1.0), u], p)
    # a product that leaves the float range, or a NaN from an inf ratio
    p = LambdaParams(0.5, -0.3, 1.2)
    for u_children, n in (([(0.5, 2.0)] * 20000, 20000), ([(math.inf, 1.0)] * 2, 2)):
        with pytest.raises(DomainError, match=f"a product of the level recursion "
                                              f"over {n} children leaves the float range"):
            push_forward(u_children, p)


def test_ratio_field_round_trip():
    v = TreeShape(2, 1).level_vertices(1)[0]
    u = FieldRatios(3, {v: (0.8, 1.7)})
    h = fields_from_ratios(u)
    hv = h.at(v)
    assert hv[2] == 0.0
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
    h = fields_from_ratios(u)
    shifted = BoundaryFields(3, {x: tuple(v + 0.7 for v in vec)
                                 for x, vec in h.fields.items()})
    mu0 = finite_volume_measure(p, 3, shape, h)
    mu7 = finite_volume_measure(p, 3, shape, shifted)
    for cfg, prob in probabilities(mu0).items():
        assert probabilities(mu7)[cfg] == pytest.approx(prob, rel=1e-10)
    # partition functions differ by exp(gauge * |last level|)
    assert mu7.partition == pytest.approx(
        mu0.partition * math.exp(0.7 * 2), rel=1e-10)


def test_boltzmann_matrix_entries():
    p = LambdaParams(0.3, 0.7, -0.4, beta=2.0)
    mat = boltzmann_matrix(p)
    assert mat[0][2] == math.exp(2.0 * 0.3)   # spins 1,3: two apart
    assert mat[0][1] == math.exp(2.0 * 0.7)   # neighbours
    assert mat[1][1] == math.exp(2.0 * -0.4)  # equal spins
    for i in range(3):
        for j in range(3):
            assert mat[i][j] == mat[j][i]


def test_solver_weights_are_the_first_boltzmann_row():
    # (xw, yw, zw) = exp(beta*(c, b, a)) is row 1 of the matrix, bit for
    # bit, and both name the same overflow
    rng = random.Random(17)
    for _ in range(500):
        p = LambdaParams(*(rng.uniform(-50.0, 50.0) for _ in range(3)),
                         beta=math.exp(rng.uniform(-3.0, 2.0)))
        w = weights_from(p)
        assert [v.hex() for v in (w.xw, w.yw, w.zw)] == \
            [v.hex() for v in boltzmann_matrix(p)[0]]
    for p in (LambdaParams(0.0, 0.0, 1000.0), LambdaParams(800.0, 0.0, 0.0),
              LambdaParams(0.0, 1.0, 0.0, beta=1e300)):
        messages = set()
        for call in (weights_from, boltzmann_matrix):
            with pytest.raises(DomainError) as caught:
                call(p)
            messages.add(str(caught.value))
        assert messages == {f"an edge weight exp(beta*coupling) overflows a float at {p}"}


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
    root = shape.level_vertices(0)[0]
    with pytest.raises(ValueError):
        h.at(root)
    with pytest.raises(ValueError, match=f"no field ratios assigned at vertex {root}"):
        FieldRatios(3, {v: (1.0, 1.0)}).at(root)


def test_flat_model_is_consistent():
    p = LambdaParams(0.0, 0.0, 0.0)
    shape = TreeShape(2, 2)
    report = is_consistent(p, 3, shape, _zero_fields(shape))
    assert report.passed
    assert report.max_deviation == 0.0


def test_consistency_rejects_a_nan_or_negative_tolerance():
    p = LambdaParams(0.0, 0.0, 0.0)
    shape = TreeShape(2, 1)
    for tol in (math.nan, -1e-10):
        with pytest.raises(ValueError) as caught:
            is_consistent(p, 3, shape, _zero_fields(shape), tol)
        assert str(caught.value) == f"tol must be >= 0, got {tol}"
    assert is_consistent(p, 3, shape, _zero_fields(shape), 0.0).passed
    flat = TreeShape(2, 0)
    with pytest.raises(ValueError, match="consistency needs depth >= 1"):
        is_consistent(p, 3, flat, _zero_fields(flat))


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


def _sorted_row_csv(by_spins: dict) -> str:
    """Oracle: the CSV written row by row from the sorted spin tuples."""
    rows = sorted(by_spins.items())
    row = "%d" * len(rows[0][0]) + ",%.15g\n"
    return "configuration,probability\n" + "".join(
        [row % (*spins, prob) for spins, prob in rows])


def _edge_cases():
    """At depths 0 to 2: couplings and fields of -0.0, one leaf field of
    -inf, and fields that differ only in their last bit."""
    odd = 1.7  # 0x1.b333333333333p+0, whose last bit is 1
    apart = (odd, math.nextafter(odd, 0.0), odd)
    for depth in _ORACLE_DEPTHS:
        shape = TreeShape(2, depth)
        leaves = shape.level_vertices(depth)
        p = LambdaParams(0.3, -0.2, 0.1, beta=0.7)
        yield (LambdaParams(-0.0, -0.0, -0.0), shape,
               BoundaryFields(3, {v: (-0.0,) * 3 for v in leaves}))
        fields = {v: (0.25, -0.5, 0.125) for v in leaves}
        fields[leaves[-1]] = (0.25, -math.inf, 0.125)
        yield p, shape, BoundaryFields(3, fields)
        yield p, shape, BoundaryFields(3, {v: apart[i % 3:] + apart[:i % 3]
                                           for i, v in enumerate(leaves)})


def test_measure_matches_per_state_oracle():
    # the prefix energies and the one pass per state add in the per-state
    # loop's order, so the probabilities and the partition function agree
    # bit for bit, and the product-order values give the sorted rows' CSV
    # byte for byte; also for zeros of either sign, a -inf field, and
    # fields one bit apart
    cases = [(p, shape, h) for p, shape, h, _ in oracle_inputs(21, _ORACLE_DEPTHS, _ORACLE_DRAWS)]
    # peak log weights of about +705 and -720 take the shifted branch
    shape = TreeShape(2, 1)
    for triple in ((352.5, 352.0, 351.0), (-360.0, -361.0, -362.0)):
        cases.append((LambdaParams(0.3, -0.2, 0.1), shape,
                      BoundaryFields(3, {v: triple for v in shape.level_vertices(1)})))
    cases += _edge_cases()
    for p, shape, h in cases:
        mu = finite_volume_measure(p, 3, shape, h)
        expected, partition = _per_state_measure(p, shape, h)
        assert list(probabilities(mu).items()) == list(expected.items())
        assert mu.values == tuple(expected.values())
        assert mu.vertex_count == shape.vertex_count()
        assert mu.partition == partition
        assert measure_to_csv(mu) == _sorted_row_csv(expected)


def test_consistency_matches_marginalization_oracle():
    for p, shape, h, bent in oracle_inputs(22, _ORACLE_DEPTHS, _ORACLE_DRAWS):
        if not shape.depth:
            continue
        for fields, passes in ((h, True), (bent, False)):
            report = is_consistent(p, 3, shape, fields)
            expected = _marginalized_deviation(p, shape, fields)
            assert report.passed is passes
            assert (expected <= 1e-10) is passes
            assert abs(report.max_deviation - expected) <= 1e-12


def test_consistency_depth_three_reports_the_moved_field_deviation():
    # recursion-built fields on V_3 are consistent, so the marginal of the
    # depth-3 measure is the depth-2 measure of the unmoved fields, whichever
    # field on W_2 is moved; both depth-2 measures come from the per-state
    # oracle, which shares no code with is_consistent
    inner = TreeShape(2, 2)
    for p, shape, h, bent in oracle_inputs(23, (3,), 3):
        report = is_consistent(p, 3, shape, bent)
        unmoved, _ = _per_state_measure(p, inner, h)
        moved, _ = _per_state_measure(p, inner, bent)
        expected = max(abs(unmoved[s] - moved[s]) for s in unmoved)
        assert not report.passed and expected > 1e-10
        assert abs(report.max_deviation - expected) <= 1e-12


def test_finite_volume_output_is_pinned_byte_for_byte():
    # measure CSVs at depths 0 to 2, two on the shifted branch, and
    # consistency reports at depths 1 to 3; a change in the order of a log
    # weight's additions moves some byte
    text = finite_volume_corpus_text()
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "3a0e747851e1f9b43493d16b896d126fd837060deed8b0862b5e1d9c305fd95c"


def test_only_three_spins_are_accepted():
    # the five names that take a spin count refuse any q but 3 with one
    # ValueError, before any other check
    p = LambdaParams(0.0, 0.0, 0.0)
    shape = TreeShape(2, 1)
    h = _zero_fields(shape)
    leaf = FieldRatios(3, {v: (1.0, 1.0) for v in shape.level_vertices(1)})
    calls = (lambda q: FieldRatios(q, leaf.ratios),
             lambda q: BoundaryFields(q, h.fields),
             lambda q: propagate_ratios(leaf, shape, p, q),
             lambda q: is_consistent(p, q, shape, h),
             lambda q: finite_volume_measure(p, q, shape, h))
    for q in (2, 4):
        for call in calls:
            with pytest.raises(ValueError) as caught:
                call(q)
            assert str(caught.value) == f"q must be 3, the number of spins (1, 2, 3), got {q}"
    for call in calls:
        call(3)


def test_ground_states_are_the_zero_temperature_gibbs_limit_of_negated_couplings():
    # ground minimizes ball energy, while gibbs weights by exp(+beta*H); so
    # at beta = 40 the depth-2 measure of (-a, -b, -c) with zero boundary
    # fields puts more than half its largest probability exactly on the
    # ball-minimal configurations at (a, b, c), for every integer triple;
    # and for seeded float triples k/2^20 in [-2, 2]^3 whose two smallest
    # catalogue entries differ by at least 0.1, so that a ball off the
    # minimum costs a factor of at most exp(-40 * 0.2) at beta = 40
    shape = TreeShape(2, 2)
    fields = BoundaryFields(3, {x: (0.0, 0.0, 0.0) for x in shape.level_vertices(2)})
    triples = list(product(range(-2, 3), repeat=3))
    rng = random.Random(11)
    while len(triples) < 125 + 300:
        triple = tuple(rng.randint(-2 ** 21, 2 ** 21) / 2 ** 20 for _ in range(3))
        lowest, second = sorted(_catalogue(*triple))[:2]
        if second - lowest >= 0.1:
            triples.append(triple)
    for a, b, c in triples:
        mu = finite_volume_measure(LambdaParams(-a, -b, -c, 40), 3, shape, fields)
        peak = max(mu.values)
        likely = {spins for spins, prob in probabilities(mu).items() if prob > peak / 2}
        assert likely == {cfg.spins for cfg in brute_force_minima(LambdaParams(a, b, c), 2)}
