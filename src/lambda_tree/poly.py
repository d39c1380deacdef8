"""Dense univariate polynomials and rational functions with exact
coefficients, composition and exact division.

Coefficients are stored in ascending-degree order; with int or Fraction
coefficients every operation is exact. This is the derivation behind the audit of the
printed discriminant factorizations: the 2-periodic quotient
numerator(f∘f - id) / numerator(f - id) obtained by composing the
invariant-line map with itself and dividing.
"""

from dataclasses import dataclass

from .errors import DomainError, InternalConsistencyError


@dataclass(frozen=True)
class Poly:
    """Polynomial with ascending coefficients; () is the zero polynomial."""

    coeffs: tuple = ()

    def __post_init__(self):
        c = self.coeffs
        n = len(c)
        while n and c[n - 1] == 0:
            n -= 1
        if n != len(c):
            object.__setattr__(self, "coeffs", c[:n])

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(tuple(out))

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(tuple(out))

    def scale(self, s) -> "Poly":
        return Poly(tuple(c * s for c in self.coeffs))

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        d = other.degree()
        if self.degree() < d:
            return Poly(()), self
        rem = list(self.coeffs)
        lead = other.coeffs[-1]
        q = [0] * (self.degree() - d + 1)
        for i in range(len(q) - 1, -1, -1):
            t = rem[i + d] / lead
            q[i] = t
            if t != 0:
                for j, oc in enumerate(other.coeffs):
                    rem[i + j] -= t * oc
        return Poly(tuple(q)), Poly(tuple(rem[:d]))


X = Poly((0, 1))


def divide_exact(num: Poly, den: Poly) -> Poly:
    """Quotient num/den; raises InternalConsistencyError unless the
    remainder is exactly zero (every division here is known to be exact)."""
    q, r = divmod(num, den)
    if not r.is_zero():
        raise InternalConsistencyError(
            f"remainder of degree {r.degree()} in exact division")
    return q


@dataclass(frozen=True)
class RationalFn:
    """Ratio of two polynomials; the denominator may not be identically zero."""

    num: Poly
    den: Poly

    def __post_init__(self):
        if self.den.is_zero():
            raise DomainError("zero denominator polynomial")


def compose(f: RationalFn, g: RationalFn) -> RationalFn:
    """f(g(u)) by homogeneous substitution, with no content reduction.

    Writing f = F/G of degree d, the result is
    (sum_i F_i N^i D^(d-i)) / (sum_i G_i N^i D^(d-i)) with g = N/D.
    Keeping the common powers of D (rather than cancelling content)
    preserves the normalization that downstream identity checks rely on.
    """
    d = max(f.num.degree(), f.den.degree(), 0)
    n_pows = [Poly((1,))]
    d_pows = [Poly((1,))]
    for _ in range(d):
        n_pows.append(n_pows[-1] * g.num)
        d_pows.append(d_pows[-1] * g.den)

    def substitute(p: Poly) -> Poly:
        acc = Poly(())
        for i, c in enumerate(p.coeffs):
            if c != 0:
                acc = acc + (n_pows[i] * d_pows[d - i]).scale(c)
        return acc

    den = substitute(f.den)
    if den.is_zero():
        raise DomainError("composition produced a zero denominator")
    return RationalFn(substitute(f.num), den)
