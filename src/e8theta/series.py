"""Exact truncated series on the u = q^(1/24) exponent lattice.

Every expansion in the package lives on a single global lattice:
q = u^24, q^(1/2) = u^12, q^(1/8) = u^3.  A series stores the sparse map
{u-exponent: coefficient} together with an inclusive validity order M:
coefficients at exponents <= M are exact, nothing is known beyond M.

This class is the public face of a result, not where it is computed.  The
package builds and multiplies its series as integer blocks over Z[w^+-1]
(intseries.py) and makes a TruncatedSeries only at the end: with
Laurent-polynomial coefficients (intseries.to_series) for theta and E8
series, with rational-function coefficients (index._over) for an index
series.  Here a series is read, compared, evaluated and printed; the
tests' Q(i) oracles also multiply and invert series and multiply them by
factors (1 + c u^e), and a product of series over different coefficient
types promotes through the coefficients' own operators.

Validity propagation is conservative and never overstates what was
computed: a product of a (valid to Ma, lowest exponent ma) with b (valid
to Mb, lowest mb) is valid to min(Ma + mb, Mb + ma).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .errors import BeyondTruncationError, ExponentLatticeError
from .gaussian import ZERO

U_PER_Q = 24


class TruncatedSeries:
    __slots__ = ("zero", "coeffs", "order")

    def __init__(self, coeffs: dict, order: int, zero=ZERO):
        self.zero = zero
        self.order = int(order)
        clean = {}
        for e, c in coeffs.items():
            e = int(e)
            if e > self.order:
                raise BeyondTruncationError(
                    f"coefficient at u^{e} beyond validity order {self.order}"
                )
            if not c.is_zero():
                clean[e] = c
        self.coeffs = clean

    # structure

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def base_exponent(self):
        """Lowest stored exponent, or None for a zero series."""
        return min(self.coeffs) if self.coeffs else None

    def _effective_base(self) -> int:
        # a zero series is known-zero through its whole validity range
        return min(self.coeffs) if self.coeffs else self.order

    def coefficient(self, exponent: int):
        if exponent > self.order:
            raise BeyondTruncationError(
                f"u^{exponent} requested, series only valid through u^{self.order}"
            )
        return self.coeffs.get(exponent, self.zero)

    def q_coefficient(self, n: int):
        return self.coefficient(U_PER_Q * n)

    def whole_q_powers(self) -> bool:
        return all(e % U_PER_Q == 0 for e in self.coeffs)

    # arithmetic

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        order = min(
            self.order + other._effective_base(),
            other.order + self._effective_base(),
        )
        out: dict = {}
        zero = self.zero * other.zero
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                if e > order:
                    continue
                s = out.get(e, zero) + c1 * c2
                if s.is_zero():
                    out.pop(e, None)
                else:
                    out[e] = s
        return TruncatedSeries(out, order, zero)

    def invert(self) -> "TruncatedSeries":
        """Multiplicative inverse up to truncation.

        The lowest coefficient must be invertible as a coefficient (a
        Laurent polynomial only if it is a monomial); the result has base
        exponent -m0 and validity M - 2*m0.
        """
        if self.is_zero():
            raise ZeroDivisionError("cannot invert the zero series")
        m0 = self.base_exponent
        rel_order = self.order - m0
        a = {e - m0: c for e, c in self.coeffs.items()}
        inv0 = a[0].invert()
        b = {0: inv0}
        zero = self.zero
        for r in range(1, rel_order + 1):
            acc = zero
            for i, ai in a.items():
                if 0 < i <= r:
                    bj = b.get(r - i)
                    if bj is not None:
                        acc = acc + ai * bj
            if not acc.is_zero():
                b[r] = -(inv0 * acc)
        out = {e - m0: c for e, c in b.items()}
        return TruncatedSeries(out, self.order - 2 * m0, zero)

    def times_one_plus(self, coeff, exponent: int) -> "TruncatedSeries":
        """Multiply by (1 + coeff * u^exponent) without changing validity.

        Intended for expanding infinite products, inverses among them as
        1/(1 - y) = (1 + y)(1 + y^2)(1 + y^4)...: factors whose exponent
        exceeds the validity order do not alter any stored coefficient.
        """
        if exponent <= 0:
            raise ValueError("factor exponent must be positive")
        out = dict(self.coeffs)
        zero = self.zero
        for e, c in self.coeffs.items():
            k = e + exponent
            if k > self.order:
                continue
            s = out.get(k, zero) + c * coeff
            if s.is_zero():
                out.pop(k, None)
            else:
                out[k] = s
        return TruncatedSeries(out, self.order, zero)

    def first_difference(self, other: "TruncatedSeries"):
        """Lowest exponent where the two series differ within both validity
        orders, or None."""
        bound = min(self.order, other.order)
        for e in sorted(set(self.coeffs) | set(other.coeffs)):
            if e > bound:
                continue
            a = self.coeffs.get(e, self.zero)
            b = other.coeffs.get(e, other.zero)
            if a != b:
                return e
        return None

    def evaluate(self, u_value: complex, coeff_value: Callable = complex) -> complex:
        return sum((coeff_value(c) * u_value**e for e, c in self.coeffs.items()), 0j)

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __str__(self):
        return format_series(self, fractional=True)

    def __repr__(self):
        return f"<series[{type(self.zero).__name__}] {format_series(self, fractional=True)}>"


def _format_exponent(e: int) -> str:
    f = Fraction(e, U_PER_Q)
    if f == 1:
        return "q"
    if f.denominator == 1:
        return f"q^{f.numerator}"
    return f"q^({f.numerator}/{f.denominator})"


def format_series(series: TruncatedSeries, fractional: bool = False) -> str:
    """Render a series ordered by ascending q-exponent with exact coefficients.

    Without `fractional`, any stored exponent off the whole-power lattice
    raises ExponentLatticeError rather than printing a wrong power.
    """
    if not fractional:
        bad = [e for e in series.coeffs if e % U_PER_Q != 0]
        if bad:
            raise ExponentLatticeError(
                f"exponent u^{min(bad)} is not a whole power of q; "
                "request fractional display"
            )
    parts = []
    for e in sorted(series.coeffs):
        c = series.coeffs[e]
        cs = str(c)
        needs_parens = any(ch in cs[1:] for ch in "+- ") or cs.startswith("(")
        if e == 0:
            parts.append(f"({cs})" if needs_parens and not cs.startswith("(") else cs)
            continue
        ve = _format_exponent(e)
        if cs == "1":
            parts.append(ve)
        elif cs == "-1":
            parts.append(f"-{ve}")
        elif needs_parens:
            parts.append(f"({cs})*{ve}" if not cs.startswith("(") else f"{cs}*{ve}")
        else:
            parts.append(f"{cs}*{ve}")
    if not parts:
        body = "0"
    else:
        body = parts[0]
        for p in parts[1:]:
            body += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    tail = _format_exponent(series.order + 1) if fractional else f"q^{(series.order // U_PER_Q) + 1}"
    return f"{body} + O({tail})"
