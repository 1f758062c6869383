"""Laurent polynomials in one variable over the Gaussian rationals.

The variable is always w = e^(pi i t), the torus variable of the circle
action, so no value carries a variable tag.  The constructor is the one
way to build a value: it takes an {exponent: int or Gaussian rational}
map (none for zero, {0: 1} for one) and stores no zero coefficients, so
equality is a structural comparison.  Sums and products with a scalar
(int or Gaussian rational) promote the scalar to a constant polynomial.
"""

from __future__ import annotations

from .errors import NotInvertibleError
from .gaussian import ONE, ZERO, GaussianRational

_SCALARS = (GaussianRational, int)


class LaurentPolynomial:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, GaussianRational] | None = None):
        clean: dict[int, GaussianRational] = {}
        if coeffs:
            for e, c in coeffs.items():
                if not isinstance(c, GaussianRational):
                    c = GaussianRational(c)
                if not c.is_zero():
                    clean[int(e)] = c
        self.coeffs = clean

    # structure

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return set(self.coeffs) <= {0}

    def constant_value(self) -> GaussianRational:
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        return self.coeffs.get(0, ZERO)

    def degree(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no degree")
        return max(self.coeffs)

    def valuation(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no valuation")
        return min(self.coeffs)

    def coefficient(self, e: int) -> GaussianRational:
        return self.coeffs.get(e, ZERO)

    def leading_coefficient(self) -> GaussianRational:
        return self.coeffs[self.degree()]

    # arithmetic

    def __add__(self, other):
        if not isinstance(other, LaurentPolynomial):
            if not isinstance(other, _SCALARS):
                return NotImplemented
            other = LaurentPolynomial({0: other})
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e, ZERO) + c
            if s.is_zero():
                out.pop(e, None)
            else:
                out[e] = s
        r = LaurentPolynomial.__new__(LaurentPolynomial)
        r.coeffs = out
        return r

    __radd__ = __add__

    def __neg__(self):
        r = LaurentPolynomial.__new__(LaurentPolynomial)
        r.coeffs = {e: -c for e, c in self.coeffs.items()}
        return r

    def __mul__(self, other):
        if not isinstance(other, LaurentPolynomial):
            if not isinstance(other, _SCALARS):
                return NotImplemented
            return self.scale(other)
        out: dict[int, GaussianRational] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                s = out.get(e, ZERO) + c1 * c2
                if s.is_zero():
                    out.pop(e, None)
                else:
                    out[e] = s
        r = LaurentPolynomial.__new__(LaurentPolynomial)
        r.coeffs = out
        return r

    __rmul__ = __mul__

    def scale(self, c) -> "LaurentPolynomial":
        if not isinstance(c, GaussianRational):
            c = GaussianRational(c)
        if c.is_zero():
            return LaurentPolynomial()
        r = LaurentPolynomial.__new__(LaurentPolynomial)
        r.coeffs = {e: v * c for e, v in self.coeffs.items()}
        return r

    def invert(self) -> "LaurentPolynomial":
        """Invert a unit (a single monomial); anything else raises."""
        if len(self.coeffs) != 1:
            raise NotInvertibleError(
                "only monomials are invertible in the Laurent ring"
            )
        (e, c), = self.coeffs.items()
        return LaurentPolynomial({-e: ONE / c})

    def shift(self, k: int) -> "LaurentPolynomial":
        r = LaurentPolynomial.__new__(LaurentPolynomial)
        r.coeffs = {e + k: c for e, c in self.coeffs.items()}
        return r

    # evaluation

    def evaluate(self, value: complex) -> complex:
        return sum((complex(c) * value**e for e, c in self.coeffs.items()), 0j)

    def sum_of_coefficients(self) -> GaussianRational:
        """Exact value at variable = 1."""
        total = ZERO
        for c in self.coeffs.values():
            total = total + c
        return total

    def __eq__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(sorted((e, c.re, c.im) for e, c in self.coeffs.items())))

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            cs = str(c)
            if e == 0:
                parts.append(cs)
            else:
                ve = "w" if e == 1 else f"w^{e}"
                if cs == "1":
                    parts.append(ve)
                elif cs == "-1":
                    parts.append(f"-{ve}")
                elif c.im != 0 and c.re != 0:
                    parts.append(f"({cs})*{ve}")
                else:
                    parts.append(f"{cs}*{ve}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self):
        return f"<Laurent {self}>"


# dense polynomial helpers for gcd; the unit part w^valuation is stripped first


def _to_dense(p: LaurentPolynomial) -> list[GaussianRational]:
    v = p.valuation()
    d = p.degree()
    return [p.coefficient(e) for e in range(v, d + 1)]


def _dense_trim(a: list[GaussianRational]) -> list[GaussianRational]:
    while a and a[-1].is_zero():
        a.pop()
    return a


def _dense_divmod(
    a: list[GaussianRational], b: list[GaussianRational]
) -> tuple[dict[int, GaussianRational], list[GaussianRational]]:
    """Long division: the quotient as {degree: coefficient} and the remainder."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    quotient: dict[int, GaussianRational] = {}
    while a and len(a) - 1 >= db:
        f = a[-1] / lb
        shift = len(a) - 1 - db
        quotient[shift] = f
        for i, bc in enumerate(b):
            a[shift + i] = a[shift + i] - f * bc
        _dense_trim(a)
    return quotient, a


def laurent_gcd(p: LaurentPolynomial, q: LaurentPolynomial) -> LaurentPolynomial:
    """Monic gcd over the Gaussian rationals, with unit factors w^k stripped.

    The result is an ordinary polynomial (valuation 0) whose leading
    coefficient is 1; gcd(0, q) is the monic polynomial part of q.
    """
    if p.is_zero() and q.is_zero():
        return LaurentPolynomial()
    a = _to_dense(p) if not p.is_zero() else []
    b = _to_dense(q) if not q.is_zero() else []
    while b:
        a, b = b, _dense_divmod(a, b)[1]
    lc = a[-1]
    return LaurentPolynomial({i: c / lc for i, c in enumerate(a)})


def laurent_exact_div(p: LaurentPolynomial, d: LaurentPolynomial) -> LaurentPolynomial:
    """Exact division; raises if d does not divide p."""
    if d.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if p.is_zero():
        return LaurentPolynomial()
    quotient, remainder = _dense_divmod(_to_dense(p), _to_dense(d))
    if remainder:
        raise ValueError("not an exact division")
    return LaurentPolynomial(quotient).shift(p.valuation() - d.valuation())
