"""Finite-volume distributions with boundary fields, and the recursion
linking fields on successive levels.

A boundary-field assignment h gives each vertex a real vector
(h_1 .. h_q); the finite-volume weight of a configuration on V_n is
exp{beta*H_n + sum over W_n of h_{spin(x),x}}. Consistency of the family
over n is equivalent to the field ratios u_{k,x} = exp(h_{k,x} - h_{q,x})
satisfying a product recursion across levels, which push_forward computes
in its multiplicative form.
"""

import math
from dataclasses import dataclass
from itertools import cycle, product

from .errors import CapacityError, DomainError
from .model import LambdaParams, coupling_value
from .tree import TreeCoord, TreeShape, successors

_MAX_STATES = 3 ** 13
_OVERFLOW_LOG = 700.0  # exp overflows just above this, and underflows below -745


@dataclass(frozen=True)
class BoundaryFields:
    """Field vector (h_1 .. h_q) per vertex."""

    q: int
    fields: dict[TreeCoord, tuple[float, ...]]

    def __post_init__(self):
        for x, v in self.fields.items():
            if len(v) != self.q:
                raise ValueError(
                    f"field vector at {x} has {len(v)} components, expected {self.q}")

    def at(self, x: TreeCoord) -> tuple[float, ...]:
        v = self.fields.get(x)
        if v is None:
            raise ValueError(f"no boundary field assigned at vertex {x}")
        return v


@dataclass(frozen=True)
class FieldRatios:
    """Positive ratio vector (u_1 .. u_{q-1}) per vertex."""

    q: int
    ratios: dict[TreeCoord, tuple[float, ...]]

    def __post_init__(self):
        for x, v in self.ratios.items():
            if len(v) != self.q - 1:
                raise ValueError(
                    f"ratio vector at {x} has {len(v)} components, expected {self.q - 1}")
            if any(not (c > 0) for c in v):
                raise DomainError(f"nonpositive ratio component at {x}: {v}")

    def at(self, x: TreeCoord) -> tuple[float, ...]:
        v = self.ratios.get(x)
        if v is None:
            raise ValueError(f"no field ratios assigned at vertex {x}")
        return v


@dataclass(frozen=True)
class FiniteVolumeMeasure:
    """Probabilities keyed by spin tuples in the canonical vertex order."""

    n: int
    probabilities: dict[tuple[int, ...], float]
    partition: float


@dataclass(frozen=True)
class ConsistencyReport:
    passed: bool
    max_deviation: float

    def to_json(self) -> dict:
        return {"max_deviation": self.max_deviation, "pass": self.passed}


def boltzmann_matrix(p: LambdaParams, q: int) -> tuple[tuple[float, ...], ...]:
    """exp(beta * coupling(i, j)) for i, j in 1..q."""
    return tuple(tuple(math.exp(p.beta * coupling_value(i, j, p))
                       for j in range(1, q + 1))
                 for i in range(1, q + 1))


def check_enumerable(q: int, shape: TreeShape) -> None:
    """Raise unless q >= 2 and the q^|V_depth| configurations of the shape
    are within the enumeration bound; cheap at any depth and k."""
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    # q >= 2 and 2^21 > 3^13, so past 20 vertices the bound fails; depth
    # and k are compared first, so k^depth and q^|V| stay small
    most = _MAX_STATES.bit_length() - 1
    if (shape.depth > most or (shape.depth and shape.k > most)
            or shape.vertex_count() > most or q ** shape.vertex_count() > _MAX_STATES):
        raise CapacityError(f"{q}^|V_{shape.depth}| states at k = {shape.k} "
                            f"exceed the enumeration bound 3^13 = {_MAX_STATES}")


def _log_weights(p: LambdaParams, q: int, shape: TreeShape,
                 field_at) -> list[float]:
    """beta*H + sum over W_depth of field_at(x)[spin] for each configuration
    of V_depth, in product order over the canonical vertex order.

    Prefixes grow one vertex at a time, yet each state sees a per-state
    loop's additions in its order (edges by child index, times beta, then
    fields by vertex index), so the floats are the same as that loop's.
    """
    check_enumerable(q, shape)
    nverts = shape.vertex_count()

    def by_spin(values, v: int, length: int):
        # values[spin of vertex v] for each configuration of `length` vertices
        stride = q ** (length - 1 - v)
        return cycle([x for x in values for _ in range(stride)])

    lam = [[coupling_value(i, j, p) for j in range(1, q + 1)]
           for i in range(1, q + 1)]
    energies = [0.0] * q
    for parent, child in shape.edges():
        rows = by_spin(lam, parent, child)
        energies = [e + c for e, row in zip(energies, rows) for c in row]
    log_weights = [p.beta * e for e in energies]
    for v, x in zip(shape.level_positions(shape.depth),
                    shape.level_vertices(shape.depth)):
        hs = by_spin(field_at(x), v, nverts)
        log_weights = [lw + hv for lw, hv in zip(log_weights, hs)]
    return log_weights


def finite_volume_measure(p: LambdaParams, q: int, shape: TreeShape,
                          h: BoundaryFields) -> FiniteVolumeMeasure:
    """Exact enumeration of the boundary-field distribution on V_depth.

    Weights are direct products exp{beta*H + field sum}; a common log
    shift is applied only if that would overflow or underflow. A partition
    function outside the float range raises DomainError.
    """
    log_weights = _log_weights(p, q, shape, h.at)
    peak = max(log_weights)
    shift = peak if abs(peak) > _OVERFLOW_LOG else 0.0
    weights = [math.exp(lw - shift) for lw in log_weights]
    total = math.fsum(weights)
    try:
        partition = total * math.exp(shift)
    except OverflowError:
        partition = math.inf
    if not 0.0 < partition < math.inf:
        raise DomainError(f"the partition function is out of float range: "
                          f"log Z = {shift + math.log(total):.15g}")
    configurations = product(range(1, q + 1), repeat=shape.vertex_count())
    probabilities = {spins: w / total for spins, w in zip(configurations, weights)}
    return FiniteVolumeMeasure(shape.depth, probabilities, partition)


def _normalized(log_weights: list[float]) -> list[float]:
    """Probabilities from log weights shifted by their peak, so that the
    partition function itself need not fit a float."""
    peak = max(log_weights)
    weights = [math.exp(lw - peak) for lw in log_weights]
    total = math.fsum(weights)
    if not 1.0 <= total < math.inf:
        raise DomainError("a log weight is NaN or +inf: a boundary field is "
                          "NaN or +inf, or a sum of fields leaves the float range")
    return [w / total for w in weights]


def is_consistent(p: LambdaParams, q: int, shape: TreeShape, h: BoundaryFields,
                  tol: float = 1e-10) -> ConsistencyReport:
    """Marginalize the depth-n measure over its last level and compare with
    the depth-(n-1) measure built from the same field assignment.

    The marginal is itself a depth-(n-1) measure, with fields on W_{n-1}
    g_x(s) = sum over y in S(x) of log sum_t exp(beta*lam(s,t) + h_{t,y}),
    so both sides enumerate only the q^|V_{n-1}| states of V_{n-1}.
    """
    if shape.depth < 1:
        raise ValueError("consistency needs depth >= 1")
    blam = [[p.beta * coupling_value(s, t, p) for t in range(1, q + 1)]
            for s in range(1, q + 1)]

    def logsumexp(terms: list[float]) -> float:
        top = max(terms)
        return top + math.log(math.fsum(math.exp(t - top) for t in terms))

    def folded(x: TreeCoord) -> tuple[float, ...]:
        children = [h.at(y) for y in successors(x, shape)]
        return tuple(sum(logsumexp([b + hv for b, hv in zip(row, hy)]) for hy in children)
                     for row in blam)

    inner = TreeShape(shape.k, shape.depth - 1)
    own = _normalized(_log_weights(p, q, inner, h.at))
    marginal = _normalized(_log_weights(p, q, inner, folded))
    worst = max(abs(a - b) for a, b in zip(marginal, own))
    return ConsistencyReport(worst <= tol, worst)


def push_forward(u_children: list[tuple[float, ...]], p: LambdaParams,
                 q: int = 3) -> tuple[float, ...]:
    """One step of the level recursion, in multiplicative form.

    For each spin index m < q the result is the product over children y of
    [sum_j exp(beta*lam(m,j))*u_{j,y} + exp(beta*lam(m,q))] /
    [sum_j exp(beta*lam(q,j))*u_{j,y} + exp(beta*lam(q,q))].
    """
    for u in u_children:
        if len(u) != q - 1:
            raise ValueError(f"child ratio vector has {len(u)} components, expected {q - 1}")
        if any(not (c > 0) for c in u):
            raise DomainError(f"nonpositive child ratio {u}")
    mat = boltzmann_matrix(p, q)
    out = []
    for m in range(q - 1):
        acc = 1.0
        for u in u_children:
            num = mat[m][q - 1]
            den = mat[q - 1][q - 1]
            for j in range(q - 1):
                num += mat[m][j] * u[j]
                den += mat[q - 1][j] * u[j]
            acc *= num / den
        out.append(acc)
    return tuple(out)


def fields_from_ratios(u: FieldRatios, gauge: float = 0.0) -> BoundaryFields:
    """h_{k,x} = ln u_{k,x} + gauge for k < q, h_{q,x} = gauge."""
    fields = {x: tuple(math.log(c) + gauge for c in v) + (gauge,)
              for x, v in u.ratios.items()}
    return BoundaryFields(u.q, fields)


def propagate_ratios(leaf: FieldRatios, shape: TreeShape, p: LambdaParams,
                     q: int = 3) -> FieldRatios:
    """Extend ratios given on the last level W_depth to all of V_depth by
    applying push_forward bottom-up."""
    ratios = {x: leaf.at(x) for x in shape.level_vertices(shape.depth)}
    for m in range(shape.depth - 1, -1, -1):
        for x in shape.level_vertices(m):
            children = [ratios[y] for y in successors(x, shape)]
            ratios[x] = push_forward(children, p, q)
    return FieldRatios(q, ratios)


def vertex_normalizer(own_field: tuple[float, ...],
                      child_fields: list[tuple[float, ...]],
                      p: LambdaParams, q: int = 3) -> float:
    """Per-vertex normalizer a(x) of the partition recurrence.

    With compatible fields, prod over children y of
    sum_j exp(beta*lam(k,j) + h_{j,y}) equals a(x)*exp(h_{k,x}) for every
    k; computed here with k = q. The products A_m = prod over W_m of a(x)
    satisfy Z_{m+1} = A_m * Z_m.
    """
    mat = boltzmann_matrix(p, q)
    acc = 1.0
    for hv in child_fields:
        acc *= math.fsum(mat[q - 1][j] * math.exp(hv[j]) for j in range(q))
    return acc / math.exp(own_field[q - 1])


def measure_to_csv(measure: FiniteVolumeMeasure) -> str:
    """CSV rows (configuration digit string, probability), canonical order."""
    rows = sorted(measure.probabilities.items())
    row = "%d" * len(rows[0][0]) + ",%.15g\n"
    return "configuration,probability\n" + "".join(
        [row % (*spins, prob) for spins, prob in rows])
