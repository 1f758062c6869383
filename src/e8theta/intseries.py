"""Integer blocks of the index series: truncated series over Z[w^+-1].

A block is a pair ({u-exponent: {w-exponent: int}}, validity) with the
meaning and the validity rules of `series.TruncatedSeries`; no stored map
is empty and no stored int is zero, so equal blocks compare equal.  Every
block that theta products and the index path multiply has real integer
coefficients, so plain int arithmetic replaces the Gaussian-rational one
there.  Standard library only.
"""

from __future__ import annotations

Block = tuple[dict[int, dict[int, int]], int]


def from_series(series, unit=1, power=1) -> Block:
    """A Laurent- or scalar-valued TruncatedSeries times unit, with w -> w^power.

    Raises AssertionError on a coefficient that is not a real integer.
    """
    coeffs = {}
    for e, c in series.coeffs.items():
        if unit != 1:
            c = c * unit
        poly = {}
        for w, v in c.coeffs.items() if hasattr(c, "coeffs") else ((0, c),):
            if v.im != 0 or type(v.re) is not int:
                raise AssertionError(f"coefficient of u^{e} is not a real integer: {c}")
            poly[w * power] = poly.get(w * power, 0) + v.re
        poly = {w: v for w, v in poly.items() if v}  # only power 0 can cancel
        if poly:
            coeffs[e] = poly
    return coeffs, series.order


def _base(block: Block) -> int:
    # a zero block is known-zero through its whole validity range
    return min(block[0]) if block[0] else block[1]


def mul(a: Block, b: Block) -> Block:
    """The product, valid through min(Ma + mb, Mb + ma) as for series."""
    order = min(a[1] + _base(b), b[1] + _base(a))
    right = sorted(b[0].items())
    out = {}
    for e1, p1 in a[0].items():
        room = order - e1
        for e2, p2 in right:
            if e2 > room:
                break
            acc = out.setdefault(e1 + e2, {})
            for w1, c1 in p1.items():
                for w2, c2 in p2.items():
                    acc[w1 + w2] = acc.get(w1 + w2, 0) + c1 * c2
    clean = {}
    for e, acc in out.items():
        poly = {w: c for w, c in acc.items() if c}
        if poly:
            clean[e] = poly
    return clean, order


def add(a: Block, b: Block) -> Block:
    """The sum, valid through the smaller validity."""
    order = min(a[1], b[1])
    out = {e: dict(p) for e, p in a[0].items() if e <= order}
    for e, p in b[0].items():
        if e <= order:
            _add_into(out, e, p, 0)
    return out, order


def times_one_plus(
    coeffs: dict[int, dict[int, int]], c: int, x: int, e: int, validity: int
) -> None:
    """Multiply the block's map by (1 + c w^x u^e) in place, e > 0.

    Terms pushed beyond the validity are dropped; the validity stays.
    """
    for u in sorted(coeffs, reverse=True):  # each source is read before it is written
        if u + e <= validity:
            _add_into(coeffs, u + e, coeffs[u], x, c)


def _add_into(
    coeffs: dict[int, dict[int, int]], e: int, poly: dict[int, int], x: int, c: int = 1
) -> None:
    """coeffs[e] += c w^x * poly, dropping zeros."""
    acc = coeffs.setdefault(e, {})
    for w, v in poly.items():
        s = acc.get(w + x, 0) + c * v
        if s:
            acc[w + x] = s
        else:
            del acc[w + x]
    if not acc:
        del coeffs[e]
