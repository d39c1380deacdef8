"""Tests of the benchmark's reference computations, each against a second
derivation written here: enumeration, exact polynomial division, or the
paper's printed special cases. Run with

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

import math
import random
import unittest
from fractions import Fraction
from itertools import product

import reference as ref


def _poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _poly_sub(p, q):
    n = max(len(p), len(q))
    p, q = p + [0] * (n - len(p)), q + [0] * (n - len(q))
    out = [a - b for a, b in zip(p, q)]
    while out and out[-1] == 0:
        out.pop()
    return out


def _poly_divmod(num, den):
    num, quot = list(num), [Fraction(0)] * (len(num) - len(den) + 1)
    for i in range(len(quot) - 1, -1, -1):
        quot[i] = num[i + len(den) - 1] / den[-1]
        for j, c in enumerate(den):
            num[i + j] -= quot[i] * c
    while num and num[-1] == 0:
        num.pop()
    return quot, num


def _quotient_by_division(x, y, z):
    """(A, B, C) from num(f∘f - u) / num(f - u) with f = N^2/D^2,
    N = x*u + 2y, D = y*u + x + z, composed by homogeneous substitution."""
    n, d = [2 * y, x], [x + z, y]
    fn, fd = _poly_mul(n, n), _poly_mul(d, d)
    # f(f(u)) = (x*fn + 2y*fd)^2 / (y*fn + (x+z)*fd)^2
    outer_n = _poly_sub([x * c for c in fn], [-2 * y * c for c in fd])
    outer_d = _poly_sub([y * c for c in fn], [-(x + z) * c for c in fd])
    ffn, ffd = _poly_mul(outer_n, outer_n), _poly_mul(outer_d, outer_d)
    u = [Fraction(0), Fraction(1)]
    quot, rem = _poly_divmod(_poly_sub(ffn, _poly_mul(u, ffd)),
                             _poly_sub(fn, _poly_mul(u, fd)))
    assert not rem
    c0, c1, c2 = quot
    return c2, c1, c0


def _brute_log_z(a, b, c, beta, depth, leaf_fields):
    n = 2 ** (depth + 1) - 1
    first_leaf = 2 ** depth - 1
    leaves = list(product((1, 2), repeat=depth))   # heap order within the level
    terms, root = [], {1: [], 2: [], 3: []}
    for spins in product(ref.SPINS, repeat=n):
        energy = sum(ref.coupling(spins[i], spins[2 * i + k], a, b, c)
                     for i in range(first_leaf) for k in (1, 2))
        w = beta * energy + sum(leaf_fields[path][spins[first_leaf + j] - 1]
                                for j, path in enumerate(leaves))
        terms.append(w)
        root[spins[0]].append(w)
    peak = max(terms)
    z = math.fsum(math.exp(t - peak) for t in terms)
    return (peak + math.log(z),
            tuple(math.fsum(math.exp(t - peak) for t in root[s]) / z for s in ref.SPINS))


class TiFixedPoints(unittest.TestCase):
    def test_known_root_sets(self):
        def poly(*roots):
            p = [Fraction(1)]
            for r in roots:
                p = _poly_mul(p, [Fraction(-r), Fraction(1)])
            return p
        self.assertEqual(ref.count_positive_roots(poly(1, 2, 3)), 3)
        self.assertEqual(ref.count_positive_roots(poly(1, 1, -1)), 1)
        self.assertEqual(ref.count_positive_roots(poly(2, 2, 2)), 1)
        self.assertEqual(ref.count_positive_roots(poly(-1, -2, 5)), 1)
        self.assertEqual(ref.count_positive_roots(poly(-1, -2, -3)), 0)
        self.assertEqual(ref.count_positive_roots(
            _poly_mul([Fraction(1), Fraction(0), Fraction(1)], poly(2))), 1)

    def test_equal_weights_negative_double_root(self):
        # u^3 + 3u^2 - 4 = (u - 1)(u + 2)^2: zero discriminant, one positive root
        self.assertEqual(ref.ti_polynomial(1.0, 1.0, 1.0), [-4, 0, 3, 1])
        self.assertEqual(ref.ti_fixed_point_count(1.0, 1.0, 1.0), 1)
        self.assertEqual(ref.ti_fixed_point_count(3.5, 3.5, 3.5), 1)

    def test_three_fixed_points(self):
        x, y, z = 16.0, 0.125, 2.0
        self.assertGreater(ref.b_can(x, y, z), 9)
        self.assertEqual(ref.ti_fixed_point_count(x, y, z), 3)

    def test_count_matches_sign_changes_of_the_map(self):
        # u - f(u) changes sign once per simple fixed point; scan a log grid
        rng = random.Random(3)
        for _ in range(40):
            x, y, z = (math.exp(rng.uniform(-3, 3)) for _ in range(3))
            grid = [math.exp(t / 200.0) for t in range(-6000, 6001)]
            g = [u - ((x * u + 2 * y) / (y * u + x + z)) ** 2 for u in grid]
            changes = sum(1 for s, t in zip(g, g[1:]) if (s < 0) != (t < 0))
            self.assertEqual(ref.ti_fixed_point_count(x, y, z), changes, (x, y, z))


class PeriodicQuadratic(unittest.TestCase):
    def test_matches_exact_division(self):
        rng = random.Random(1)
        for _ in range(25):
            x, y, z = (Fraction(rng.randint(1, 400), rng.randint(1, 60)) for _ in range(3))
            self.assertEqual(ref.periodic_quadratic(x, y, z), _quotient_by_division(x, y, z))
        for w in [(0.3, 7.25, 1e-3), (math.e, 1 / math.e, math.pi)]:
            self.assertEqual(ref.periodic_quadratic(*w),
                             _quotient_by_division(*(Fraction(v) for v in w)))

    def test_printed_special_cases(self):
        for x in (Fraction(1, 3), Fraction(2), Fraction(7, 5), Fraction(1)):
            _, d, _ = ref.two_periodic(x, 1, x + 1)
            self.assertEqual(d, -x * (4 + 3 * x) * (2 * x + 3) ** 2 * (2 * x ** 2 + x - 2) ** 2)
            _, d, _ = ref.two_periodic(x, 1, x)
            self.assertEqual(d, -16 * (3 * x ** 4 + 10 * x ** 3 + 6 * x ** 2 - 1)
                             * (x - 1) ** 2 * (x + 1) ** 2)
            z = x / 3 + 1
            _, d, _ = ref.two_periodic(x, x, z)
            self.assertEqual(d, -x ** 3 * (23 * x ** 3 + 30 * x ** 2 * z + 15 * x * z ** 2
                                           + 4 * z ** 3) * (x - z) ** 2)

    def test_existence_needs_negative_b_and_positive_d(self):
        b, d, exists = ref.two_periodic(2.0, 16.0, 8.0)
        self.assertTrue(b < 0 and d > 0 and exists)
        b, d, exists = ref.two_periodic(1.0, 1.0, 1.0)
        self.assertFalse(exists)


class SumProduct(unittest.TestCase):
    def test_matches_enumeration(self):
        rng = random.Random(2)
        for depth in (1, 2):
            for _ in range(3):
                a, b, c = (rng.uniform(-1.5, 1.5) for _ in range(3))
                beta = rng.uniform(0.25, 2)
                fields = {path: tuple(rng.uniform(-1, 1) for _ in range(3))
                          for path in product((1, 2), repeat=depth)}
                log_z, marginal = ref.sum_product(a, b, c, beta, depth, fields)
                brute_log_z, brute_marginal = _brute_log_z(a, b, c, beta, depth, fields)
                self.assertAlmostEqual(log_z, brute_log_z, places=12)
                for got, want in zip(marginal, brute_marginal):
                    self.assertAlmostEqual(got, want, places=12)

    def test_configuration_probabilities(self):
        rng = random.Random(4)
        fields = {path: tuple(rng.uniform(-1, 1) for _ in range(3))
                  for path in product((1, 2), repeat=2)}
        probs = ref.configuration_probabilities(0.5, -0.75, 1.25, 0.8, 2, fields)
        self.assertEqual(len(probs), 3 ** 7)
        self.assertAlmostEqual(math.fsum(probs.values()), 1.0, places=13)
        _, marginal = ref.sum_product(0.5, -0.75, 1.25, 0.8, 2, fields)
        for s, want in zip(ref.SPINS, marginal):
            got = math.fsum(p for spins, p in probs.items() if spins[0] == s)
            self.assertAlmostEqual(got, want, places=13)

    def test_free_spins(self):
        fields = {path: (0.5, -0.25, 0.0) for path in product((1, 2), repeat=2)}
        log_z, marginal = ref.sum_product(0.0, 0.0, 0.0, 1.0, 2, fields)
        leaf = math.log(math.exp(0.5) + math.exp(-0.25) + 1.0)
        self.assertAlmostEqual(log_z, 3 * math.log(3) + 4 * leaf, places=12)
        for p in marginal:
            self.assertAlmostEqual(p, 1 / 3, places=14)


class GroundStates(unittest.TestCase):
    def _brute_count(self, a, b, c, depth):
        allowed = ref.minimal_balls(a, b, c)
        n = 2 ** (depth + 1) - 1
        return sum(1 for spins in product(ref.SPINS, repeat=n)
                   if ref.is_ground_configuration(spins, allowed))

    def _brute_minimal(self, a, b, c, depth):
        low = min(ref.catalogue(a, b, c))
        n = 2 ** (depth + 1) - 1
        return sum(1 for spins in product(ref.SPINS, repeat=n)
                   if all(Fraction(ref.coupling(spins[i], spins[2 * i + 1], a, b, c))
                          + Fraction(ref.coupling(spins[i], spins[2 * i + 2], a, b, c))
                          == 2 * low for i in range((n - 1) // 2)))

    def test_dp_matches_enumeration(self):
        for triple in product(range(-2, 3), repeat=3):
            self.assertEqual(ref.minimal_configuration_count(*triple, 1),
                             self._brute_minimal(*triple, 1), triple)
        for triple in [(0, 0, 0), (1, 0, 0), (-1, -1, 0), (2, -1, 0), (0.5, -0.25, 1.75)]:
            self.assertEqual(ref.minimal_configuration_count(*triple, 2),
                             self._brute_count(*triple, 2), triple)
        self.assertEqual(ref.minimal_configuration_count(0, 0, 0, 2), 3 ** 7)

    def test_regions(self):
        self.assertEqual(ref.active_regions(0, 1, 2), ("A1",))
        self.assertEqual(ref.active_regions(0, 0, -1), ("A6",))
        self.assertEqual(ref.active_regions(1, 1, 0), ("A6",))
        self.assertEqual(ref.active_regions(-1, -1, 0), ("A1", "A2", "A4"))
        self.assertEqual(ref.active_regions(0, -1, -1), ("A4", "A5", "A6"))
        self.assertEqual(ref.active_regions(0, 0, 0), ref.REGIONS)

    def test_level_values(self):
        self.assertEqual(ref.level_values((1, 2, 2, 3, 3, 3, 3)), [1, 2, 3])
        self.assertIsNone(ref.level_values((1, 2, 3)))


if __name__ == "__main__":
    unittest.main()
