"""Exact Gaussian rationals: the scalar field for every symbolic coefficient.

Each part is an ``int`` when it is integral and a reduced ``Fraction`` (with
a positive denominator) otherwise, so values are canonical and equality is
structural.  Nearly every coefficient is a Gaussian integer, and on ``int``
parts ``+``, ``-`` and ``*`` stay in ``int`` arithmetic; ``/`` forms a
``Fraction`` and turns an integral result back into an ``int``.  Equality,
hashing, ``str`` and ``repr`` read as if both parts were ``Fraction``s.
"""

from __future__ import annotations

from fractions import Fraction


class GaussianRational:
    """A complex number re + im*i with exact rational parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _canonical(re)
        self.im = _canonical(im)

    @staticmethod
    def _coerce(x):
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussianRational(x)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _new(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _new(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _new(o.re - self.re, o.im - self.im)

    def __neg__(self):
        return _new(-self.re, -self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, d = self.re, self.im, o.re, o.im
        return _new(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, d = self.re, self.im, o.re, o.im
        n = c * c + d * d
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return _new(Fraction(a * c + b * d, n), Fraction(b * c - a * d, n))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def invert(self):
        return GaussianRational(1) / self

    def is_zero(self):
        return self.re == 0 and self.im == 0

    def is_integer(self):
        return self.im == 0 and type(self.re) is int

    def as_integer(self) -> int:
        if not self.is_integer():
            raise ValueError(f"not an integer: {self}")
        return self.re

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        # hash(n) == hash(Fraction(n)), so an int part hashes as before
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(self.re) + 1j * complex(self.im)

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return _imag_str(self.im)
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{_imag_str(abs(self.im))}"

    def __repr__(self):
        return f"GaussianRational({Fraction(self.re)!r}, {Fraction(self.im)!r})"


def _canonical(x):
    """Any rational as a part: an int when integral, else a reduced Fraction."""
    if type(x) is int:
        return x
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


_allocate = object.__new__


def _new(re, im):
    """Build from parts that are already ints or reduced Fractions."""
    g = _allocate(GaussianRational)
    g.re = re if type(re) is int or re.denominator != 1 else re.numerator
    g.im = im if type(im) is int or im.denominator != 1 else im.numerator
    return g


def _imag_str(im) -> str:
    if im == 1:
        return "i"
    if im == -1:
        return "-i"
    return f"{im}i"


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)
MINUS_I = GaussianRational(0, -1)
