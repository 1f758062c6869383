"""Fraction field of the Laurent polynomial ring in w.

w is the one variable of the package (see laurent.py); neither numerator
nor denominator carries a variable tag.

Canonical form: the denominator is an ordinary polynomial with nonzero
constant term and leading coefficient 1 (monomial order: descending
exponent), and shares no factor with the polynomial part of the numerator.
Unit factors w^k are pushed into the numerator, so is_constant() detects a
genuine scalar and not merely a monomial quotient.

The class holds the reduced sum of the fixed-point terms of an index
series and does only what that needs: normalise on construction, add and
multiply (a Laurent polynomial or scalar operand acts on the numerator
and normalises once), negate, compare and evaluate (numerically, or
exactly at w = 1).
"""

from __future__ import annotations

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
    def from_laurent(cls, p: LaurentPolynomial) -> "RationalFunction":
        return cls(p, LaurentPolynomial({0: 1}))

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
        r = RationalFunction.__new__(RationalFunction)
        r.num, r.den = -self.num, self.den
        return r

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
