"""Formal integer combinations of the twisting bundles.

Atoms: the spin-c line bundle L, its conjugate, their squares, the
complexified tangent bundle, and the rank-248 bundle W attached to the
adjoint representation.  A monomial is a tensor product of atoms; an
expression is an integer combination of monomials.  Its character at a
fixed point, over Z[w^+-1], is read from the point's table of atom
characters (W's from the 240 E8 roots): a product per monomial, summed.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

from . import intseries
from .e8 import e8_roots

_ATOMS = ("L", "Lbar", "L2", "Lbar2", "TCX", "W")


class BundleExpr:
    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[str, ...], int] | None = None):
        clean: dict[tuple[str, ...], int] = {}
        if terms:
            for mono, n in terms.items():
                if n:
                    clean[tuple(sorted(mono))] = clean.get(tuple(sorted(mono)), 0) + n
        self.terms = {m: n for m, n in clean.items() if n}

    @classmethod
    def const(cls, n: int) -> "BundleExpr":
        return cls({(): n})

    @classmethod
    def atom(cls, name: str) -> "BundleExpr":
        if name not in _ATOMS:
            raise ValueError(f"unknown bundle atom {name!r}")
        return cls({(name,): 1})

    @classmethod
    def line_reduced(cls) -> "BundleExpr":
        """L + Lbar - 2: the rank-reduced complexified line bundle."""
        return cls({("L",): 1, ("Lbar",): 1, (): -2})

    def __add__(self, other):
        if isinstance(other, int):
            other = BundleExpr.const(other)
        if not isinstance(other, BundleExpr):
            return NotImplemented
        out = dict(self.terms)
        for m, n in other.terms.items():
            out[m] = out.get(m, 0) + n
        return BundleExpr(out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = BundleExpr.const(other)
        if not isinstance(other, BundleExpr):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return BundleExpr({m: -n for m, n in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return BundleExpr({m: n * other for m, n in self.terms.items()})
        if not isinstance(other, BundleExpr):
            return NotImplemented
        out: dict[tuple[str, ...], int] = {}
        for m1, n1 in self.terms.items():
            for m2, n2 in other.terms.items():
                m = tuple(sorted(m1 + m2))
                out[m] = out.get(m, 0) + n1 * n2
        return BundleExpr(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, BundleExpr):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "<BundleExpr 0>"
        parts = []
        for m in sorted(self.terms):
            n = self.terms[m]
            name = "*".join(m) if m else "1"
            parts.append(f"{n}*{name}")
        return f"<BundleExpr {' + '.join(parts)}>"

    def char_at(self, alpha: tuple[int, ...], c: int, beta: tuple[int, ...], table=None):
        """Equivariant character at a fixed point, as the block ({0: {w: int}}, 0),
        read from the point's _atom_table (built here when none is given)."""
        table = table or _atom_table(alpha, c, _w_character(beta))
        total = {}
        for mono, n in self.terms.items():
            term = {0: n}
            for name in mono:
                if name not in table:
                    raise ValueError(f"unknown bundle atom {name!r}")
                product = {}
                for x, v in term.items():
                    intseries._add_into(product, 0, table[name], x, v)
                term = product[0]
            intseries._add_into(total, 0, term, 0)
        return total, 0


def _w_character(beta: tuple[int, ...]) -> dict[int, int]:
    """W's torus character 8 + sum over the E8 roots of w^(2<root, beta>)."""
    roots = e8_roots()
    exps = [0] * len(roots)
    for l, b in enumerate(beta):
        if b:
            exps = [e + b * d[l] for e, d in zip(exps, roots)]
    return dict(Counter([0] * 8 + exps))


def _atom_table(alpha: tuple[int, ...], c: int, w_char: dict[int, int]) -> dict[str, dict]:
    """Each atom's character at a fixed point as a {w: int} map: L has weight
    w^(2c), TCX the weights w^(+-2 alpha_j), and W the character w_char."""
    table = {"L": {2 * c: 1}, "Lbar": {-2 * c: 1}, "L2": {4 * c: 1}, "Lbar2": {-4 * c: 1}}
    return {**table, "TCX": dict(Counter(s * a for a in alpha for s in (2, -2))), "W": w_char}


def lefschetz_sums(points, cofactors, exprs, even_tower: bool) -> list[dict[int, int]]:
    """Each expression's Lefschetz numbers summed over the fixed points: the
    numerator sum_p (w^c +/- w^-c) ch_p(expr) D / D_p over one D, + for the
    even tower.  One atom table per point (W's character once per beta) and
    one spinor times cofactor D / D_p serve all the expressions."""
    w_chars = {beta: _w_character(beta) for beta in {p.beta for p in points}}
    sums = [{} for _ in exprs]
    for p, cofactor in zip(points, cofactors):
        scale = {}
        for x, v in ((p.c, 1), (-p.c, 1 if even_tower else -1)):
            intseries._add_into(scale, 0, cofactor, x, v)
        if not scale:
            continue  # w^c - w^-c at c = 0
        table = _atom_table(p.alpha, p.c, w_chars[p.beta])
        for total, expr in zip(sums, exprs):
            char = expr.char_at(p.alpha, p.c, p.beta, table)[0].get(0, {})
            for x, v in scale[0].items():
                intseries._add_into(total, 0, char, x, v)
    return [total.get(0, {}) for total in sums]


def order_one_twist(flavor_is_even_tower: bool, k: int) -> BundleExpr:
    """The q^1 twisting bundle of the two towers.

    Even tower (paired with 1 + Lbar):  W + TCX - (L^2 + Lbar^2) + (L + Lbar) - 8 - 2k.
    Odd tower  (paired with 1 - Lbar):  W + TCX - (L + Lbar) - 2k - 6.
    """
    even = {("L2",): -1, ("Lbar2",): -1, ("L",): 1, ("Lbar",): 1, (): -8 - 2 * k}
    odd = {("L",): -1, ("Lbar",): -1, (): -2 * k - 6}
    return BundleExpr({("W",): 1, ("TCX",): 1, **(even if flavor_is_even_tower else odd)})


@lru_cache(maxsize=16)
def qexpansion_twists(flavor_is_even_tower: bool, k: int) -> tuple[BundleExpr, ...]:
    """The twists index.verify_qexpansion checks, built once per (tower, k)
    and shared, never mutated: the bare and order-one twists, and the square
    of the rank-reduced line bundle with its expansion in the atoms."""
    atom = BundleExpr.atom
    square = BundleExpr.line_reduced() * BundleExpr.line_reduced()
    expanded = atom("L2") + atom("Lbar2") - 4 * (atom("L") + atom("Lbar")) + BundleExpr.const(6)
    return BundleExpr.const(1), order_one_twist(flavor_is_even_tower, k), square, expanded
