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
from itertools import product

from .errors import CapacityError, DomainError
from .model import Configuration, LambdaParams, coupling_value
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
    n: int
    probabilities: dict[Configuration, float]
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


def finite_volume_measure(p: LambdaParams, q: int, shape: TreeShape,
                          h: BoundaryFields) -> FiniteVolumeMeasure:
    """Exact enumeration of the boundary-field distribution on V_depth.

    Weights are direct products exp{beta*H + field sum}; a common log
    shift is applied only if that would overflow or underflow. A partition
    function outside the float range raises DomainError.
    """
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    nverts = shape.vertex_count()
    states = q ** nverts
    if states > _MAX_STATES:
        raise CapacityError(
            f"{q}^{nverts} = {states} states exceeds the enumeration bound {_MAX_STATES}")

    lam = [[coupling_value(i, j, p) for j in range(1, q + 1)]
           for i in range(1, q + 1)]
    edge_ix = [(shape.index_of(x), shape.index_of(y)) for x, y in shape.edges()]
    boundary = [(shape.index_of(x), h.at(x)) for x in shape.level_vertices(shape.depth)]

    beta = p.beta
    log_weights = []
    for spins in product(range(1, q + 1), repeat=nverts):
        energy = 0.0
        for i, j in edge_ix:
            energy += lam[spins[i] - 1][spins[j] - 1]
        lw = beta * energy
        for i, hv in boundary:
            lw += hv[spins[i] - 1]
        log_weights.append(lw)

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
    probabilities = {}
    for spins, w in zip(product(range(1, q + 1), repeat=nverts), weights):
        probabilities[Configuration(shape, spins)] = w / total
    return FiniteVolumeMeasure(shape.depth, probabilities, partition)


def is_consistent(p: LambdaParams, q: int, shape: TreeShape, h: BoundaryFields,
                  tol: float = 1e-10) -> ConsistencyReport:
    """Marginalize the depth-n measure over its last level and compare with
    the depth-(n-1) measure built from the same field assignment."""
    if shape.depth < 1:
        raise ValueError("consistency needs depth >= 1")
    outer = finite_volume_measure(p, q, shape, h)
    inner_shape = TreeShape(shape.k, shape.depth - 1)
    inner = finite_volume_measure(p, q, inner_shape, h)

    inner_count = inner_shape.vertex_count()
    marginal: dict[tuple[int, ...], float] = {}
    for cfg, prob in outer.probabilities.items():
        key = cfg.spins[:inner_count]
        marginal[key] = marginal.get(key, 0.0) + prob

    worst = 0.0
    for cfg, prob in inner.probabilities.items():
        worst = max(worst, abs(marginal.get(cfg.spins, 0.0) - prob))
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


def ratios_from_fields(h: BoundaryFields) -> FieldRatios:
    """u_{k,x} = exp(h_{k,x} - h_{q,x})."""
    ratios = {x: tuple(math.exp(v[k] - v[-1]) for k in range(len(v) - 1))
              for x, v in h.fields.items()}
    return FieldRatios(h.q, ratios)


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
    lines = ["configuration,probability"]
    for cfg in sorted(measure.probabilities, key=lambda c: c.spins):
        lines.append(f"{cfg},{format(measure.probabilities[cfg], '.15g')}")
    return "\n".join(lines) + "\n"
