"""Fraction field of the Laurent polynomial ring in w.

w is the one variable of the package (see laurent.py); neither numerator
nor denominator carries a variable tag.

Canonical form: the denominator is an ordinary polynomial with nonzero
constant term and leading coefficient 1 (monomial order: descending
exponent), and shares no factor with the polynomial part of the numerator.
Unit factors w^k are pushed into the numerator, so is_constant() detects a
genuine scalar and not merely a monomial quotient.  A zero numerator has
denominator 1.

The class holds the reduced sum of the fixed-point terms of an index
series and does only what that needs: hold a canonical form, negate,
compare and evaluate (numerically, or exactly at w = 1).  The constructor
normalises by a Euclidean gcd over Q(i); it serves only + and * (a Laurent
polynomial or scalar operand acts on the numerator) and the tests' oracle.

The index path never runs it: p / 1 (from_laurent) is already canonical,
and the index denominators come from the tangent leads
D_p = prod_j (w^a_j - w^-a_j).  Since
w^a - w^-a = sign(a) w^-|a| (w^(2|a|) - 1) and w^n - 1 = prod_{d | n} Phi_d,
each lead is a unit times a product of cyclotomic polynomials Phi_d.
cyclotomic_lcm gives their lcm D = prod_d Phi_d^m_d in that factored form,
with the cofactors D / D_p as {w: int} maps, and over_cyclotomic reduces an
integer numerator over D by exact integer division by each Phi_d, at most
m_d times.  That is the canonical form: Phi_d is monic and irreducible over
Q, so what is left of D is monic with constant term +-1, and shares no
factor over Q with what is left of the numerator.  Over Q(i), Phi_d splits
into two conjugate factors when 4 | d; a real numerator is divisible by one
of them exactly when it is divisible by the other, so the Q(i) gcd is the
same product of Phi_d's.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .gaussian import GaussianRational
from .laurent import _SCALARS, LaurentPolynomial, laurent_exact_div, laurent_gcd

_PROMOTED = (LaurentPolynomial, *_SCALARS)


class RationalFunction:
    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPolynomial, den: LaurentPolynomial):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num = LaurentPolynomial()
            self.den = LaurentPolynomial({0: 1})
            return
        # strip denominator units into the numerator
        vd = den.valuation()
        den = den.shift(-vd)
        num = num.shift(-vd)
        vn = num.valuation()
        p = num.shift(-vn)
        g = laurent_gcd(p, den)
        if not g.is_constant():  # monic, so a constant gcd is exactly 1
            p = laurent_exact_div(p, g)
            den = laurent_exact_div(den, g)
        lc = den.leading_coefficient()
        if not (lc.re == 1 and lc.im == 0):
            inv = GaussianRational(1) / lc
            den = den.scale(inv)
            p = p.scale(inv)
        self.num = p.shift(vn)
        self.den = den

    @classmethod
    def _canonical(cls, num: LaurentPolynomial, den: LaurentPolynomial) -> "RationalFunction":
        """num / den, already in canonical form: no gcd is run."""
        r = cls.__new__(cls)
        r.num, r.den = num, den
        return r

    @classmethod
    def from_laurent(cls, p: LaurentPolynomial) -> "RationalFunction":
        return cls._canonical(p, LaurentPolynomial({0: 1}))

    @classmethod
    def zero(cls) -> "RationalFunction":
        return cls.from_laurent(LaurentPolynomial())

    @classmethod
    def one(cls, var: str) -> "RationalFunction":
        """The constant 1.  var must name w, the one variable; the argument
        stays because perfbench's oracles spell the variable out."""
        if var != "w":
            raise ValueError(f"the only variable is 'w', not {var!r}")
        return cls.from_laurent(LaurentPolynomial({0: 1}))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        """True iff the reduced form is a scalar (exponent-0 numerator over 1)."""
        return self.den.is_constant() and self.num.is_constant()

    def constant_value(self) -> GaussianRational:
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        return self.num.constant_value()

    def __add__(self, other):
        if isinstance(other, RationalFunction):
            return RationalFunction(
                self.num * other.den + other.num * self.den, self.den * other.den
            )
        if isinstance(other, _PROMOTED):
            return RationalFunction(self.num + other * self.den, self.den)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction._canonical(-self.num, self.den)

    def __mul__(self, other):
        if isinstance(other, RationalFunction):
            return RationalFunction(self.num * other.num, self.den * other.den)
        if isinstance(other, _PROMOTED):
            return RationalFunction(self.num * other, self.den)
        return NotImplemented

    __rmul__ = __mul__

    def evaluate(self, value: complex) -> complex:
        return self.num.evaluate(value) / self.den.evaluate(value)

    def has_pole_at_one(self) -> bool:
        return self.den.sum_of_coefficients().is_zero()

    def value_at_one(self) -> GaussianRational:
        d = self.den.sum_of_coefficients()
        if d.is_zero():
            raise ZeroDivisionError("pole at 1")
        return self.num.sum_of_coefficients() / d

    def __eq__(self, other):
        if isinstance(other, LaurentPolynomial):
            # a reduced denominator that is constant is exactly 1
            return self.den.is_constant() and self.num == other
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # equal to a Laurent polynomial exactly when den is 1: hash like it
        return hash(self.num) if self.den.is_constant() else hash((self.num, self.den))

    def __str__(self):
        if self.den.is_constant():
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"<RatFunc {self}>"


# cyclotomic denominators: polynomials over Z as ascending coefficient lists


def _divisors(n: int) -> list[int]:
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def _mobius(n: int) -> int:
    mu, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if n > 1 else mu


@lru_cache(maxsize=1024)
def cyclotomic(d: int) -> tuple[tuple[int, int], ...]:
    """Phi_d as the Moebius product prod_{e | d} (w^e - 1)^mu(d/e): the
    pairs (e, mu(d/e)) with mu(d/e) != 0."""
    return tuple((e, mu) for e in _divisors(d) if (mu := _mobius(d // e)))


def _times_binomials(poly: list[int], exps) -> list[int] | None:
    """poly * prod (w^e - 1)^n over the pairs (e, n) of exps, or None when
    that is not a polynomial.

    Each power of w^e - 1 costs one two-term pass.  Every multiplication
    runs before any division, so each division is exact exactly when the
    result is a polynomial."""
    for e, n in exps:
        for _ in range(n):
            poly = [0] * e + poly
            for i, c in enumerate(poly[e:]):
                poly[i] -= c
    for e, n in exps:
        for _ in range(-n):
            # poly = q (w^e - 1) gives q_i = q_(i-e) - poly_i, lowest first;
            # q stops e below poly's top, so what would lie above must be 0
            q = []
            for i, c in enumerate(poly):
                q.append((q[i - e] if i >= e else 0) - c)
            size = len(poly) - e
            if size <= 0 or any(q[size:]):
                return None
            poly = q[:size]
    return poly


def _cyclotomic_product(poly: list[int], powers: dict[int, int]) -> list[int]:
    """poly * prod_d Phi_d^powers[d], powers >= 0, with one exponent per
    w^e - 1 summed over the Moebius pairs of every Phi_d."""
    exps = {}
    for d, k in powers.items():
        for e, mu in cyclotomic(d):
            exps[e] = exps.get(e, 0) + k * mu
    return _times_binomials(poly, exps.items())


def _terms(coeffs: list[int], shift: int) -> dict[int, int]:
    return {i + shift: c for i, c in enumerate(coeffs) if c}


def cyclotomic_lcm(alphas) -> tuple[dict[int, int], list[dict[int, int]]]:
    """D = lcm_p D_p of the leads D_p = prod_j (w^a_j - w^-a_j), factored.

    Returns {d: m_d} with D = prod_d Phi_d^m_d, and each D / D_p as a
    {w: int} map.  With m_pd = #{j : d | 2|a_j|} and s_p = prod_j sign(a_j),
    D_p = s_p w^-(sum_j |a_j|) prod_d Phi_d^m_pd, so m_d = max_p m_pd and
    D / D_p = s_p w^(sum_j |a_j|) prod_d Phi_d^(m_d - m_pd).
    """
    counts, mult = [], {}
    for alpha in alphas:
        own = {}
        for a in alpha:
            for d in _divisors(2 * abs(a)):
                own[d] = own.get(d, 0) + 1
        for d, m in own.items():
            if m > mult.get(d, 0):
                mult[d] = m
        counts.append(own)
    cofactors = []
    for alpha, own in zip(alphas, counts):
        sign = math.prod(1 if a > 0 else -1 for a in alpha)
        left = {d: m - own.get(d, 0) for d, m in mult.items() if m > own.get(d, 0)}
        poly = _cyclotomic_product([sign], left)
        cofactors.append(_terms(poly, sum(map(abs, alpha))))
    return mult, cofactors


def over_cyclotomic(num: dict[int, int], mult: dict[int, int]) -> RationalFunction:
    """The integer Laurent polynomial num over prod_d Phi_d^m_d, reduced to
    canonical form by dividing num by each Phi_d while it divides, at most
    m_d times."""
    if not num:
        return RationalFunction.zero()
    low = min(num)
    a = [0] * (max(num) - low + 1)
    for e, c in num.items():
        a[e - low] = c
    left = {}
    for d, m in mult.items():
        inverse = [(e, -mu) for e, mu in cyclotomic(d)]
        while m and (q := _times_binomials(a, inverse)) is not None:
            a, m = q, m - 1
        left[d] = m
    den = LaurentPolynomial(_terms(_cyclotomic_product([1], left), 0))
    return RationalFunction._canonical(LaurentPolynomial(_terms(a, low)), den)
