"""Integer blocks: truncated series over Z[w^+-1], the one series that is built.

A block is a pair ({u-exponent: {w-exponent: int}}, validity) with the
meaning and the validity rules of `series.TruncatedSeries`; no stored map
is empty and no stored int is zero, so equal blocks compare equal.  Every
series the package computes (theta products, the E8 lattice sum, powers
of phi, the index blocks) has real integer coefficients, so it is built and
multiplied here with plain ints, and so are the index path's Lefschetz
numerators (bundles.lefschetz_sums, one atom table per point) and the
cofactors D / D_p, as {w-exponent: int} maps (add_poly adds one into
another).  A TruncatedSeries is made only at the public boundary, by
to_series (or, over a denominator, by index._over); nothing is converted
back into a block.

Packed layout, owned here.  The hot dynamic programs (e8._lattice_block
and the theta products' chain) hold a w-polynomial as one int: the
coefficient of the exponent low + k * stride sits in the k-th
SLOT_BITS-bit slot, lowest first, so multiplying by c w^(j * stride) is
the shift-add c * (poly << j * SLOT_BITS).  The caller keeps low and
stride and bounds every coefficient below 2^(SLOT_BITS - 1) in absolute
value (check_slots), so that no slot carries into the next.  chain runs a
product of one or more factor_steps factors under the guard of their
bound; slots reads the slots back unsigned (the lattice counts), unpack
signed, and halve halves every signed slot of an int whose slots are all
even (identity 116's two sides).  SLOT_BITS is the one name of the layout
that callers read.
Standard library only.
"""

from __future__ import annotations

import sys

from .laurent import LaurentPolynomial
from .series import TruncatedSeries, U_PER_Q

Block = tuple[dict[int, dict[int, int]], int]

# width of one coefficient's slot in a packed int; the slots are read as C
# 64-bit ints
SLOT_BITS = 64
_SLOT_BIAS = 1 << (SLOT_BITS - 1)
_SLOT_BIAS_BYTES = _SLOT_BIAS.to_bytes(SLOT_BITS // 8, "little")
_SLOT_ONE_BYTES = (1).to_bytes(SLOT_BITS // 8, "little")


def to_series(block: Block, unit=1) -> TruncatedSeries:
    """unit times the block, as a Laurent-valued TruncatedSeries."""
    coeffs, validity = block
    if unit == 1:  # the maps hold nonzero ints: no coefficient to canonicalise
        out = {e: LaurentPolynomial._from_ints(p) for e, p in coeffs.items()}
    else:
        out = {e: LaurentPolynomial({w: unit * c for w, c in p.items()}) for e, p in coeffs.items()}
    return TruncatedSeries(out, validity, LaurentPolynomial())


def _divisor_sums(order: int) -> list[int]:
    """[0, sigma(1), ..., sigma(order)], sigma(j) the sum of j's divisors."""
    sigma = [0] * (order + 1)
    for d in range(1, order + 1):
        for j in range(d, order + 1, d):
            sigma[j] += d
    return sigma


def phi_block(n: int, order: int) -> Block:
    """phi(q)^n = prod_m (1 - q^m)^n through q^order, for any integer n.

    By Euler's recurrence, the logarithmic derivative of the product:
    q d/dq log phi = -sum_j sigma(j) q^j, so the q^k coefficient of phi^n
    is f_k = -n sum_{1 <= j <= k} sigma(j) f_(k-j) / k.  Each f_k is an
    integer, so each division is exact (asserted).
    """
    sigma = _divisor_sums(order)
    f = [1]
    for k in range(1, order + 1):
        total = -n * sum([sigma[j] * f[k - j] for j in range(1, k + 1)])
        if total % k:
            raise AssertionError(f"phi^{n}: the q^{k} coefficient is not an integer")
        f.append(total // k)
    return {U_PER_Q * k: {0: c} for k, c in enumerate(f) if c}, U_PER_Q * order + U_PER_Q - 1


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
    """Divide the block's map by (1 - w^x u^e) in place, e > 0.

    Row u + e gains w^x times row u, each class of rows mod e walked up
    from its lowest row, so every row is complete before it is read.
    Terms pushed beyond the validity are dropped; the validity stays.
    """
    for low in {u % e: u for u in sorted(coeffs, reverse=True)}.values():
        for u in range(low, validity - e + 1, e):
            if u in coeffs:
                _add_into(coeffs, u + e, coeffs[u], x)


def _add_into(
    coeffs: dict[int, dict[int, int]], e: int, poly: dict[int, int], x: int, c: int = 1
) -> None:
    """coeffs[e] += c w^x * poly, dropping zeros."""
    acc = coeffs.setdefault(e, {})
    add_poly(acc, poly, x, c)
    if not acc:
        del coeffs[e]


def add_poly(acc: dict[int, int], poly: dict[int, int], x: int = 0, c: int = 1) -> None:
    """acc += c w^x * poly in place, for {w-exponent: int} maps, dropping zeros."""
    for w, v in poly.items():
        s = acc.get(w + x, 0) + c * v
        if s:
            acc[w + x] = s
        else:
            del acc[w + x]


def check_slots(bound: int, what: str) -> None:
    """Raise AssertionError unless bound < 2^(SLOT_BITS - 1), the signed slots' bound."""
    if bound >> (SLOT_BITS - 1):
        raise AssertionError(f"{what} overflow the {SLOT_BITS}-bit coefficient slots")


def factor_steps(block: Block, m: int, stride: int) -> tuple:
    """One factor of a chain, the block at w -> w^m, as (validity, base,
    least, shifts, sum of |c|): shifts holds its terms c w^x u^e as
    (e, shift, c), sorted by e, where shift packs x less the least exponent
    at the chain's stride, which must divide each such difference.  At m = 0
    each row sums at w = 1: a zero sum leaves the factor empty, based at its
    validity, and it ends the chain."""
    if m:
        terms = sorted([(e, w * m, c) for e, p in block[0].items() for w, c in p.items()])
    else:
        terms = [(e, 0, c) for e, p in sorted(block[0].items()) if (c := sum(p.values()))]
    least = min([x for _, x, _ in terms], default=0)
    shifts = tuple([(e, SLOT_BITS * ((x - least) // stride), c) for e, x, c in terms])
    base = terms[0][0] if terms else block[1]
    return block[1], base, least, shifts, sum([abs(c) for _, _, c in terms])


def bound(steps: list[tuple]) -> int:
    """The product of the factors' sums of |c|, through the first zero factor,
    where the chain stops: it bounds every coefficient of the product."""
    total = 1
    for *_, size in steps:
        if not size:
            break
        total *= size
    return total


def chain(steps: list[tuple], what: str) -> tuple[dict[int, int], int, int]:
    """The product of factor_steps factors in the packed layout, as (rows,
    low, validity): row u's k-th slot is the coefficient of
    w^(low + k * stride) u^u, at the steps' stride.

    Each term c w^x u^e of the next factor adds c * (row << shift) into row
    u + e, and low moves by the factor's least exponent, so a partial
    product is only as wide as its own w-exponents.  Each step drops the
    terms past the validity that mul would give it, and the product stops
    at the first zero.  Steps whose bound reaches the slots raise
    AssertionError, naming `what`, before the product is expanded.
    """
    check_slots(bound(steps), what)
    rows = {0: 1}  # the partial product, one packed int per u-exponent
    low = 0  # the w-exponent of slot 0
    validity = None
    for v, base, least, shifts, _ in steps:
        validity = v if validity is None else min(validity + base, v + min(rows))
        low += least
        reached: dict[int, int] = {}
        for u, poly in rows.items():
            room = validity - u
            for e, shift, c in shifts:
                if e > room:
                    break
                term = poly << shift
                reached[u + e] = reached.get(u + e, 0) + (term if c == 1 else c * term)
        rows = {u: poly for u, poly in reached.items() if poly}
        if not rows:
            break
    return rows, low, validity


def slots(poly: int) -> memoryview:
    """The SLOT_BITS-bit slots of a packed int >= 0, as unsigned ints, lowest first."""
    size = -(-poly.bit_length() // SLOT_BITS) * (SLOT_BITS // 8)
    packed = memoryview(poly.to_bytes(size, sys.byteorder)).cast("Q")
    return packed if sys.byteorder == "little" else packed[::-1]


def halve(poly: int, what: str) -> int:
    """poly / 2 for a packed int whose slots are all even and below
    2^(SLOT_BITS - 1) in absolute value.  Biased as in unpack, by an even
    number, bit 0 of each slot is its parity: an odd one raises
    AssertionError naming `what`."""
    n = abs(poly).bit_length() // SLOT_BITS + 1
    biased = poly + int.from_bytes(_SLOT_BIAS_BYTES * n, "little")
    if biased & int.from_bytes(_SLOT_ONE_BYTES * n, "little"):
        raise AssertionError(f"{what} has an odd slot")
    return poly >> 1


def unpack(poly: int, low: int, stride: int) -> dict[int, int]:
    """{low + k * stride: the k-th slot} for the nonzero slots of a packed int
    whose coefficients are all below 2^(SLOT_BITS - 1) in absolute value.

    A negative coefficient borrows from the slot above it.  Adding
    2^(SLOT_BITS - 1) to every slot makes each one a positive int below
    2^SLOT_BITS with nothing borrowed, so the unsigned read, less that bias,
    is the coefficient.  The top coefficient's slot is the highest one that
    |poly| reaches, so exactly the slots through it are read.
    """
    if -_SLOT_BIAS < poly < _SLOT_BIAS:  # one slot
        return {low: poly} if poly else {}
    n = abs(poly).bit_length() // SLOT_BITS + 1
    read = slots(poly + int.from_bytes(_SLOT_BIAS_BYTES * n, "little"))
    return {low + k * stride: c - _SLOT_BIAS for k, c in enumerate(read) if c != _SLOT_BIAS}
