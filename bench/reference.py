"""Exact reference computations that the benchmark checks lambda_tree against.

Nothing here imports lambda_tree. Each verdict is derived again from the
model's definitions:

- translation-invariant fixed points: distinct positive roots of
  u*(yw*u + xw + zw)^2 - (xw*u + 2*yw)^2, counted by Sturm's theorem in
  exact rationals (a float is an exact binary rational);
- 2-periodic existence: the closed-form quotient A*u^2 + B*u + C of
  num(f∘f - id) / num(f - id), evaluated in exact integers;
- finite volume: log Z and the root marginal by an upward sum-product pass
  over the tree instead of enumerating configurations;
- ground states: active regions from the exact ball-energy catalogue, and
  the number of configurations whose every ball is minimal by a dynamic
  program over tree levels.
"""

import math
from fractions import Fraction
from itertools import product

SPINS = (1, 2, 3)
REGIONS = ("A1", "A2", "A3", "A4", "A5", "A6")


def coupling(i, j, a, b, c):
    """lambda(i, j): c at spin distance 0, b at distance 1, a at distance 2."""
    return (c, b, a)[abs(i - j)]


# --- translation-invariant fixed points -----------------------------------

def ti_polynomial(xw, yw, zw) -> list:
    """Ascending exact coefficients of u*(yw*u + xw + zw)^2 - (xw*u + 2*yw)^2.

    Its positive roots are the fixed points u = f(u) of the invariant-line
    map f(u) = ((xw*u + 2*yw) / (yw*u + xw + zw))^2.
    """
    x, y, z = Fraction(xw), Fraction(yw), Fraction(zw)
    s = x + z
    return [-4 * y * y, s * s - 4 * x * y, 2 * y * s - x * x, y * y]


def _remainder(num: list, den: list) -> list:
    num = list(num)
    while len(num) >= len(den):
        factor = num[-1] / den[-1]
        shift = len(num) - len(den)
        for i, c in enumerate(den):
            num[shift + i] -= factor * c
        num.pop()
        while num and num[-1] == 0:
            num.pop()
    return num


def _sign_variations(values) -> int:
    signs = [v > 0 for v in values if v != 0]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def count_positive_roots(coeffs: list) -> int:
    """Distinct roots in (0, inf) of an exact polynomial with p(0) != 0.

    Sturm's theorem: the Euclidean chain p, p', -rem, ... counts distinct
    real roots in (0, inf) as V(0) - V(inf), repeated roots included once.
    """
    if coeffs[0] == 0:
        raise ValueError("p(0) must be nonzero")
    chain = [list(coeffs), [i * c for i, c in enumerate(coeffs)][1:]]
    while len(chain[-1]) > 1:
        rem = _remainder(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])
    return (_sign_variations(p[0] for p in chain)
            - _sign_variations(p[-1] for p in chain))


def ti_fixed_point_count(xw, yw, zw) -> int:
    """Number of distinct translation-invariant fixed points on the line."""
    return count_positive_roots(ti_polynomial(xw, yw, zw))


def b_can(xw, yw, zw) -> Fraction:
    """Canonical parameter xw*(xw + zw) / (2*yw^2), exactly."""
    x, y, z = Fraction(xw), Fraction(yw), Fraction(zw)
    return x * (x + z) / (2 * y * y)


# --- 2-periodic quadratic ---------------------------------------------------

def _common_integers(*values):
    """Integers n_i and a common denominator d with values[i] == n_i / d."""
    ratios = [Fraction(v) for v in values]
    d = math.lcm(*(r.denominator for r in ratios))
    return [r.numerator * (d // r.denominator) for r in ratios], d


def periodic_quadratic(xw, yw, zw) -> tuple:
    """Exact (A, B, C) of the quotient num(f∘f - id) / num(f - id):

        A = (x^2 + xy + yz)^2,   C = (x^2 + 2xy + 2xz + z^2)^2,
        B = x^4 + 6x^3y + 2x^3z + 8x^2y^2 + 6x^2yz + x^2z^2 + 8xy^2z
            + 6xyz^2 - 4y^4 + 2yz^3,

    with (x, y, z) = (xw, yw, zw). All three are homogeneous of degree 4, so
    they are evaluated on integers over a common denominator d and divided
    by d^4 once.
    """
    (x, y, z), d = _common_integers(xw, yw, zw)
    a = (x * x + x * y + y * z) ** 2
    c = (x * x + 2 * x * y + 2 * x * z + z * z) ** 2
    b = (x ** 4 + 6 * x ** 3 * y + 2 * x ** 3 * z + 8 * x * x * y * y
         + 6 * x * x * y * z + x * x * z * z + 8 * x * y * y * z
         + 6 * x * y * z * z - 4 * y ** 4 + 2 * y * z ** 3)
    scale = d ** 4
    return Fraction(a, scale), Fraction(b, scale), Fraction(c, scale)


def two_periodic(xw, yw, zw) -> tuple:
    """(B, D, exists): D = B^2 - 4AC, and proper 2-periodic solutions on
    the invariant line exist iff B < 0 and D > 0 (A and C are positive)."""
    a, b, c = periodic_quadratic(xw, yw, zw)
    d = b * b - 4 * a * c
    return b, d, (b < 0 and d > 0)


# --- finite volume -----------------------------------------------------------

def _logsumexp(values) -> float:
    peak = max(values)
    return peak + math.log(math.fsum(math.exp(v - peak) for v in values))


def sum_product(a, b, c, beta, depth: int, leaf_fields: dict) -> tuple:
    """(log Z, root marginal) on the binary truncation of the given depth.

    The weight of a configuration is exp(beta * sum over edges of
    lambda + sum over leaves x of h_{spin(x), x}); leaf_fields maps each
    leaf path (a tuple of branch indices in {1, 2}) to (h_1, h_2, h_3).
    Messages are passed upward in log space:
    m_x(s) = sum over children y of logsumexp_t(beta*lambda(s, t) + m_y(t)).
    """
    weight = [[beta * coupling(s, t, a, b, c) for t in SPINS] for s in SPINS]
    messages = {path: list(h) for path, h in leaf_fields.items()}
    for level in range(depth - 1, -1, -1):
        messages = {
            path: [math.fsum(_logsumexp([weight[s][t] + messages[path + (i,)][t]
                                         for t in range(3)])
                             for i in (1, 2))
                   for s in range(3)]
            for path in product((1, 2), repeat=level)}
    root = messages[()]
    log_z = _logsumexp(root)
    return log_z, tuple(math.exp(v - log_z) for v in root)


def configuration_probabilities(a, b, c, beta, depth: int, leaf_fields: dict) -> dict:
    """Probability of every configuration on a small binary truncation,
    keyed by spins in level-major lexicographic order, normalized by the
    sum-product partition function."""
    log_z, _ = sum_product(a, b, c, beta, depth, leaf_fields)
    first_leaf = 2 ** depth - 1
    leaves = list(product((1, 2), repeat=depth))
    out = {}
    for spins in product(SPINS, repeat=2 * first_leaf + 1):
        energy = sum(coupling(spins[i], spins[2 * i + k], a, b, c)
                     for i in range(first_leaf) for k in (1, 2))
        fields = sum(leaf_fields[path][spins[first_leaf + j] - 1]
                     for j, path in enumerate(leaves))
        out[spins] = math.exp(beta * energy + fields - log_z)
    return out


# --- ground states -------------------------------------------------------------

def catalogue(a, b, c) -> tuple:
    """Exact ball energies (U1..U6) = (a, (a+b)/2, (a+c)/2, b, (b+c)/2, c)."""
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    return (a, (a + b) / 2, (a + c) / 2, b, (b + c) / 2, c)


def active_regions(a, b, c) -> tuple:
    """Regions whose catalogue entry equals the exact minimum.

    An averaged entry such as (a+b)/2 can only be minimal when both of its
    couplings equal the minimum, so no separate equality test is needed.
    """
    energies = catalogue(a, b, c)
    low = min(energies)
    return tuple(name for name, u in zip(REGIONS, energies) if u == low)


def minimal_balls(a, b, c) -> frozenset:
    """Spin triples (center, child1, child2) whose ball energy is minimal."""
    low = min(catalogue(a, b, c))
    lam = {(s, t): Fraction(coupling(s, t, a, b, c)) for s in SPINS for t in SPINS}
    return frozenset((s, t1, t2) for s in SPINS for t1 in SPINS for t2 in SPINS
                     if (lam[s, t1] + lam[s, t2]) / 2 == low)


def minimal_configuration_count(a, b, c, depth: int) -> int:
    """Configurations of the binary depth-`depth` truncation whose every
    ball is minimal, by a DP over levels: all subtrees rooted on one level
    are alike, so count[s] is the number of minimal fillings of such a
    subtree with spin s at its top."""
    allowed = minimal_balls(a, b, c)
    count = {s: 1 for s in SPINS}
    for _ in range(depth):
        count = {s: sum(count[t1] * count[t2] for t1 in SPINS for t2 in SPINS
                        if (s, t1, t2) in allowed)
                 for s in SPINS}
    return sum(count.values())


def is_ground_configuration(spins, allowed: frozenset) -> bool:
    """Every ball minimal, for spins in level-major lexicographic order on
    the binary tree (the children of position i sit at 2i+1 and 2i+2)."""
    inner = (len(spins) - 1) // 2
    return all((spins[i], spins[2 * i + 1], spins[2 * i + 2]) in allowed
               for i in range(inner))


def level_values(spins) -> list | None:
    """The spin of each level when spins are level-constant, else None."""
    out = []
    start, size = 0, 1
    while start < len(spins):
        level = spins[start:start + size]
        if any(s != level[0] for s in level):
            return None
        out.append(level[0])
        start, size = start + size, 2 * size
    return out
