"""Finite-volume distributions with boundary fields, and the recursion
linking fields on successive levels.

A boundary-field assignment h gives each vertex a real vector
(h_1, h_2, h_3), one entry per spin; the finite-volume weight of a
configuration on V_n is exp{beta*H_n + sum over W_n of h_{spin(x),x}}.
Consistency of the family over n is equivalent to the field ratios
u_{k,x} = exp(h_{k,x} - h_{3,x}), k = 1, 2, satisfying a product recursion
across levels, which push_forward computes in its multiplicative form.

The spins are model.SPINS. The five names that take a spin count q
(BoundaryFields, FieldRatios, propagate_ratios, is_consistent and
finite_volume_measure) accept only q = 3.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import cycle, product

from .errors import CapacityError, DomainError, _echo_number
from .model import SPINS, LambdaParams, check_tolerance, coupling_rows, edge_weight
from .tree import TreeCoord, TreeShape, successors

_MAX_VERTICES = 13
_MAX_STATES = 3 ** _MAX_VERTICES
# the 2^depth leaves of the deepest truncation within the cap, where
# |V_depth| = 2^(depth+1) - 1: each log weight adds that many field terms
_MAX_LEAVES = 2 ** ((_MAX_VERTICES + 1).bit_length() - 2)
_OVERFLOW_LOG = 700.0  # exp overflows just above this, and underflows below -745
_BAD_LOG_WEIGHT = ("a log weight is NaN or +inf: beta*H or a boundary field is NaN "
                   "or +inf, or their sum leaves the float range")


def _check_q(value) -> None:
    """The one ValueError of the five names that take q, unless it is 3,
    the number of spins."""
    if value != 3:
        raise ValueError(f"q must be 3, the number of spins {SPINS}, "
                         f"got {_echo_number(value)}")


@dataclass(frozen=True)
class BoundaryFields:
    """Field vector (h_1, h_2, h_3) per vertex; q must be 3."""

    q: int
    fields: dict[TreeCoord, tuple[float, ...]]

    def __post_init__(self):
        _check_q(self.q)
        for x, v in self.fields.items():
            if len(v) != 3:
                raise ValueError(
                    f"field vector at {x} has {len(v)} components, expected 3")

    def at(self, x: TreeCoord) -> tuple[float, ...]:
        v = self.fields.get(x)
        if v is None:
            raise ValueError(f"no boundary field assigned at vertex {x}")
        return v


@dataclass(frozen=True)
class FieldRatios:
    """Positive ratio vector (u_1, u_2) per vertex; q must be 3."""

    q: int
    ratios: dict[TreeCoord, tuple[float, ...]]

    def __post_init__(self):
        _check_q(self.q)
        for x, v in self.ratios.items():
            if len(v) != 2:
                raise ValueError(
                    f"ratio vector at {x} has {len(v)} components, expected 2")
            if any(not (c > 0) for c in v):
                raise DomainError(f"nonpositive ratio component at {x}: {v}")

    def at(self, x: TreeCoord) -> tuple[float, ...]:
        v = self.ratios.get(x)
        if v is None:
            raise ValueError(f"no field ratios assigned at vertex {x}")
        return v


@dataclass(frozen=True)
class FiniteVolumeMeasure:
    """Probabilities of the 3^vertex_count configurations of V_n, in product
    order over the canonical vertex order: the last vertex's spin varies
    fastest, which is also the sorted order of the spin tuples."""

    vertex_count: int
    values: tuple[float, ...]
    partition: float


@dataclass(frozen=True)
class ConsistencyReport:
    passed: bool
    max_deviation: float


def boltzmann_matrix(p: LambdaParams) -> tuple[tuple[float, ...], ...]:
    """edge_weight of coupling(i, j) for i, j in SPINS; DomainError on overflow."""
    return tuple(tuple(edge_weight(v, p) for v in row) for row in coupling_rows(p))


def check_enumerable(shape: TreeShape) -> None:
    """Raise unless the 3^|V_depth| configurations of the shape are within
    the enumeration bound 3^13, that is |V_depth| <= 13, so depth <= 2;
    the depth is compared first, so 2^depth is never formed for a huge
    depth."""
    if shape.depth >= _MAX_VERTICES or shape.vertex_count() > _MAX_VERTICES:
        raise CapacityError(f"3^|V_{shape.depth}| states at k = 2 "
                            f"exceed the enumeration bound 3^13 = {_MAX_STATES}")


def _log_weights(p: LambdaParams, shape: TreeShape, field_at) -> list[float]:
    """beta*H + sum over W_depth of field_at(x)[spin] for each configuration
    of V_depth, in product order over the canonical vertex order.

    Edge energies grow by prefixes, one vertex at a time (edges by child
    index); then one pass per state forms (((beta*e + f_0) + f_1) + ...)
    with the last level's fields in vertex order, whose spin tuples repeat
    in product order since those spins vary fastest. Each state sees a
    per-state loop's additions in its order, so the floats are that loop's.
    """
    check_enumerable(shape)
    lam = coupling_rows(p)
    energies = [0.0] * 3
    for parent, child in shape.edges():
        stride = 3 ** (child - 1 - parent)  # run of one parent spin in the prefixes
        rows = cycle([row for row in lam for _ in range(stride)])
        energies = [e + c for e, row in zip(energies, rows) for c in row]
    # padded to the _MAX_LEAVES = 4 terms the pass unpacks, so a larger cap
    # fails to unpack rather than drop a field; x + 0.0 is x for every float
    # but -0.0, which turns to 0.0, and exp cannot tell the two apart
    fields = [field_at(x) for x in shape.level_vertices(shape.depth)]
    fields += [(0.0,)] * (_MAX_LEAVES - len(fields))
    b = p.beta
    return [(((b * e + f0) + f1) + f2) + f3
            for e, (f0, f1, f2, f3) in zip(energies, cycle(list(product(*fields))))]


def finite_volume_measure(p: LambdaParams, q: int, shape: TreeShape,
                          h: BoundaryFields) -> FiniteVolumeMeasure:
    """Exact enumeration of the boundary-field distribution on V_depth.

    Weights are direct products exp{beta*H + field sum}; a common log
    shift is applied only if that would overflow or underflow. A partition
    function outside the float range, or a NaN or +inf log weight, raises
    DomainError. q must be 3.
    """
    _check_q(q)
    log_weights = _log_weights(p, shape, h.at)
    peak = max(log_weights)
    shift = peak if abs(peak) > _OVERFLOW_LOG else 0.0
    # lw - 0.0 is lw, so only a nonzero shift is subtracted
    shifted = [lw - shift for lw in log_weights] if shift else log_weights
    weights = list(map(math.exp, shifted))
    total = math.fsum(weights)
    if total != total:  # NaN, from a NaN or +inf log weight, or -inf ones only
        if all(lw == -math.inf for lw in log_weights):
            raise DomainError("the partition function is out of float range: "
                              "log Z = -inf")
        raise DomainError(_BAD_LOG_WEIGHT)
    try:
        partition = total * math.exp(shift)
    except OverflowError:
        partition = math.inf
    if not 0.0 < partition < math.inf:
        raise DomainError(f"the partition function is out of float range: "
                          f"log Z = {shift + math.log(total):.15g}")
    values = tuple([w / total for w in weights])
    return FiniteVolumeMeasure(shape.vertex_count(), values, partition)


def _normalized(log_weights: list[float]) -> list[float]:
    """Probabilities from log weights shifted by their peak, so that the
    partition function itself need not fit a float."""
    peak = max(log_weights)
    weights = [math.exp(lw - peak) for lw in log_weights]
    total = math.fsum(weights)
    if not 1.0 <= total < math.inf:
        raise DomainError(_BAD_LOG_WEIGHT)
    return [w / total for w in weights]


def is_consistent(p: LambdaParams, q: int, shape: TreeShape, h: BoundaryFields,
                  tol: float = 1e-10) -> ConsistencyReport:
    """Marginalize the depth-n measure over its last level and compare with
    the depth-(n-1) measure built from the same field assignment.

    The marginal is itself a depth-(n-1) measure, with fields on W_{n-1}
    g_x(s) = sum over y in S(x) of log sum_t exp(beta*lam(s,t) + h_{t,y}),
    so both sides enumerate only the 3^|V_{n-1}| states of V_{n-1}, each in
    _log_weights' one pass per state: beta*H, then h or g on W_{n-1} in
    vertex order (four of them at depth 3). q must be 3.
    """
    _check_q(q)
    if shape.depth < 1:
        raise ValueError("consistency needs depth >= 1")
    check_tolerance(tol)
    blam = [[p.beta * v for v in row] for row in coupling_rows(p)]

    def logsumexp(terms: list[float]) -> float:
        top = max(terms)
        return top + math.log(math.fsum([math.exp(t - top) for t in terms]))

    def folded(x: TreeCoord) -> tuple[float, ...]:
        children = [h.at(y) for y in successors(x, shape)]
        return tuple([sum([logsumexp([b + hv for b, hv in zip(row, hy)]) for hy in children])
                      for row in blam])

    inner = TreeShape(2, shape.depth - 1)
    own = _normalized(_log_weights(p, inner, h.at))
    marginal = _normalized(_log_weights(p, inner, folded))
    worst = max(abs(a - b) for a, b in zip(marginal, own))
    return ConsistencyReport(worst <= tol, worst)


def push_forward(u_children: list[tuple[float, ...]],
                 p: LambdaParams) -> tuple[float, float]:
    """One step of the level recursion, in multiplicative form.

    With w_ij = exp(beta*lam(i,j)), component m = 1, 2 of the result is
    the product over children y of
    (w_m3 + w_m1*u_{1,y} + w_m2*u_{2,y}) / (w_33 + w_31*u_{1,y} + w_32*u_{2,y}),
    each sum added left to right; the two components share each child's
    denominator. Since w_13 + w_11 = w_33 + w_31, the line u_1 = 1 maps
    onto itself exactly. A denominator that underflows to 0 raises
    DomainError, and so does a product that leaves the float range (0 or
    inf) or is NaN.
    """
    for u in u_children:
        if len(u) != 2:
            raise ValueError(f"child ratio vector has {len(u)} components, expected 2")
        if any(not (c > 0) for c in u):
            raise DomainError(f"nonpositive child ratio {u}")
    (w11, w12, w13), (w21, w22, w23), (w31, w32, w33) = boltzmann_matrix(p)
    acc1 = acc2 = 1.0
    try:
        for u1, u2 in u_children:
            den = w33 + w31 * u1 + w32 * u2
            acc1 *= (w13 + w11 * u1 + w12 * u2) / den
            acc2 *= (w23 + w21 * u1 + w22 * u2) / den
    except ZeroDivisionError:
        raise DomainError(f"a denominator of the level recursion underflows "
                          f"to 0 at {p}") from None
    if not (0.0 < acc1 < math.inf and 0.0 < acc2 < math.inf):
        raise DomainError(f"a product of the level recursion over {len(u_children)} "
                          f"children leaves the float range at {p}")
    return acc1, acc2


def fields_from_ratios(u: FieldRatios) -> BoundaryFields:
    """h_{k,x} = ln u_{k,x} for k = 1, 2, h_{3,x} = 0."""
    fields = {x: tuple(map(math.log, v)) + (0.0,)
              for x, v in u.ratios.items()}
    return BoundaryFields(3, fields)


def propagate_ratios(leaf: FieldRatios, shape: TreeShape, p: LambdaParams,
                     q: int = 3) -> FieldRatios:
    """Extend ratios given on the last level W_depth to all of V_depth by
    applying push_forward bottom-up; q must be 3."""
    _check_q(q)
    ratios = {x: leaf.at(x) for x in shape.level_vertices(shape.depth)}
    for m in range(shape.depth - 1, -1, -1):
        for x in shape.level_vertices(m):
            children = [ratios[y] for y in successors(x, shape)]
            ratios[x] = push_forward(children, p)
    return FieldRatios(3, ratios)


@lru_cache(maxsize=4)
def _csv_template(vertex_count: int) -> str:
    """The CSV of every 3^vertex_count measure with a %.15g slot for each
    probability: the header, then one row per configuration label (its
    spins written out digit by digit) in product order."""
    labels = map("".join, product([str(s) for s in SPINS], repeat=vertex_count))
    return "configuration,probability\n" + ",%.15g\n".join(labels) + ",%.15g\n"


def measure_to_csv(measure: FiniteVolumeMeasure) -> str:
    """CSV rows (configuration digit string, probability), canonical order."""
    return _csv_template(measure.vertex_count) % measure.values
