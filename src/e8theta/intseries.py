"""Integer blocks: truncated series over Z[w^+-1], the one series that is built.

A block is a pair ({u-exponent: {w-exponent: int}}, validity) with the
meaning and the validity rules of `series.TruncatedSeries`; no stored map
is empty and no stored int is zero, so equal blocks compare equal.  Every
series the package computes (theta products, the E8 lattice sum, powers
of phi, the index blocks) has real integer coefficients, so it is built and
multiplied here with plain ints, and so are the index path's Lefschetz
numerators (bundles.lefschetz_sums, one atom table per point) and the
cofactors D / D_p, as u^0 blocks.  A TruncatedSeries is made only at the
public boundary, by to_series (or, over a denominator, by index._over);
nothing is converted back into a block.
Standard library only.
"""

from __future__ import annotations

from .laurent import LaurentPolynomial
from .series import TruncatedSeries, U_PER_Q

Block = tuple[dict[int, dict[int, int]], int]


def to_series(block: Block, unit=1) -> TruncatedSeries:
    """unit times the block, as a Laurent-valued TruncatedSeries."""
    coeffs, validity = block
    if unit == 1:  # the maps hold nonzero ints: no coefficient to canonicalise
        out = {e: LaurentPolynomial._from_ints(p) for e, p in coeffs.items()}
    else:
        out = {e: LaurentPolynomial({w: unit * c for w, c in p.items()}) for e, p in coeffs.items()}
    return TruncatedSeries(out, validity, LaurentPolynomial())


def substitute(block: Block, m: int) -> Block:
    """The block with w -> w^m; m = 0 evaluates each coefficient at w = 1."""
    if m:
        return {e: {w * m: c for w, c in p.items()} for e, p in block[0].items()}, block[1]
    values = {e: sum(p.values()) for e, p in block[0].items()}
    return {e: {0: c} for e, c in values.items() if c}, block[1]


def phi_block(n: int, order: int) -> Block:
    """phi(q)^n = prod_m (1 - q^m)^n through q^order, for any integer n.

    A negative n takes each factor's inverse as 1/(1 - q^m) (times_inverse).
    """
    validity = U_PER_Q * order + U_PER_Q - 1
    coeffs = {0: {0: 1}}
    for e in range(U_PER_Q, U_PER_Q * order + 1, U_PER_Q):
        for _ in range(abs(n)):
            if n > 0:
                times_one_plus(coeffs, -1, 0, e, validity)
            else:
                times_inverse(coeffs, 0, e, validity)
    return coeffs, validity


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


def times_inverse(coeffs: dict[int, dict[int, int]], x: int, e: int, validity: int) -> None:
    """Multiply the block's map by 1/(1 - w^x u^e) in place, e > 0.

    The inverse is expanded as (1 + y)(1 + y^2)(1 + y^4)... with y = w^x u^e;
    a factor that moves the lowest term past the validity changes nothing.
    """
    span = validity - min(coeffs, default=validity)
    for j in range((span // e).bit_length()):
        times_one_plus(coeffs, 1, x << j, e << j, validity)


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
