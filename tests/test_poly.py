import random
from fractions import Fraction

import pytest

from lambda_tree.errors import DomainError, InternalConsistencyError
from lambda_tree.poly import Poly, RationalFn, X, compose, divide_exact


def _rand_poly(rng: random.Random, degree: int) -> Poly:
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
              for _ in range(degree)]
    coeffs.append(Fraction(rng.randint(1, 9)))  # nonzero lead
    return Poly(tuple(coeffs))


def _value(fn: RationalFn, t):
    def horner(p: Poly):
        acc = 0
        for c in reversed(p.coeffs):
            acc = acc * t + c
        return acc
    return horner(fn.num) / horner(fn.den)


def test_poly_basics():
    assert Poly((1, 2, 0, 0)).coeffs == (1, 2)
    assert Poly(()).is_zero()
    assert Poly((0, 0)).is_zero()
    assert Poly(()).degree() == -1
    assert X.coeffs == (0, 1)
    p = Poly((1, 2, 3))
    assert (-p).coeffs == (-1, -2, -3)
    assert (p - p).is_zero()
    assert (p * Poly(())).is_zero()
    assert (X * X + Poly((1,))).coeffs == (1, 0, 1)
    assert p.scale(2).coeffs == (2, 4, 6)


def test_divmod_reconstructs():
    rng = random.Random(19)
    for _ in range(25):
        n = _rand_poly(rng, rng.randint(0, 6))
        d = _rand_poly(rng, rng.randint(0, 3))
        q, r = divmod(n, d)
        assert (q * d + r - n).is_zero()
        assert r.degree() < d.degree() or r.is_zero()
    with pytest.raises(ZeroDivisionError):
        divmod(X, Poly(()))


def test_divide_exact_cases():
    assert divide_exact(Poly((-1, 0, 1)), Poly((-1, 1))).coeffs == (1, 1)
    p = Poly((2, -3, 0, 1))
    assert divide_exact(p, p).coeffs == (1,)
    with pytest.raises(InternalConsistencyError):
        divide_exact(Poly((1, 0, 1)), Poly((-1, 1)))


def test_divide_exact_random_products():
    rng = random.Random(23)
    for _ in range(25):
        a = _rand_poly(rng, rng.randint(1, 4))
        b = _rand_poly(rng, rng.randint(0, 4))
        assert divide_exact(a * b, a).coeffs == b.coeffs


def test_rational_fn_guards():
    with pytest.raises(DomainError):
        RationalFn(X, Poly(()))


def test_compose_with_identity():
    identity = RationalFn(X, Poly((1,)))
    g = RationalFn(Poly((1, 0, 2)), Poly((3, 1)))
    left = compose(identity, g)
    assert left.num.coeffs == g.num.coeffs
    assert left.den.coeffs == g.den.coeffs
    right = compose(g, identity)
    assert right.num.coeffs == g.num.coeffs
    assert right.den.coeffs == g.den.coeffs


def test_compose_square_of_shift():
    f = RationalFn(Poly((0, 0, 1)), Poly((1,)))
    g = RationalFn(Poly((1, 1)), Poly((1,)))
    fg = compose(f, g)
    assert fg.num.coeffs == (1, 2, 1)
    assert fg.den.coeffs == (1,)


def test_compose_evaluates_pointwise():
    rng = random.Random(31)
    f = RationalFn(Poly((1.0, -2.0, 0.5)), Poly((2.0, 1.0)))
    g = RationalFn(Poly((0.5, 0.0, 1.0)), Poly((1.0, 0.0, 1.0)))
    fg = compose(f, g)
    for _ in range(10):
        t = rng.uniform(0.1, 4.0)
        assert _value(fg, t) == pytest.approx(_value(f, _value(g, t)), rel=1e-10)
