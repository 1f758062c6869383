"""Formal integer combinations of the twisting bundles.

Atoms: the spin-c line bundle L, its conjugate, their squares, the
complexified tangent bundle, and the rank-248 bundle W attached to the
adjoint representation.  A monomial is a tensor product of atoms; an
expression is an integer combination of monomials.  Evaluating at a fixed
point yields the equivariant character over Z[w^+-1] as a u^0 `intseries`
block: a product of atom blocks per monomial, summed.
"""

from __future__ import annotations

import operator
from collections import Counter

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

    def char_at(self, alpha: tuple[int, ...], c: int, beta: tuple[int, ...]) -> intseries.Block:
        """Equivariant character at a fixed point, as the block ({0: {w: int}}, 0).

        L carries weight e^(2 pi i c t) = w^(2c); the tangent bundle splits
        into rotation planes with weights alpha_j; W restricts to the torus
        character 8 + sum over roots of w^(2<root, beta>).
        """
        exponents = {
            "L": [2 * c],
            "Lbar": [-2 * c],
            "L2": [4 * c],
            "Lbar2": [-4 * c],
            "TCX": [s * a for a in alpha for s in (2, -2)],
        }
        if any("W" in mono for mono in self.terms):  # 240 dot products: only when used
            exponents["W"] = [0] * 8 + [sum(map(operator.mul, d, beta)) for d in e8_roots()]
        chars = {name: ({0: dict(Counter(es))}, 0) for name, es in exponents.items()}

        total = ({}, 0)
        for mono, n in self.terms.items():
            term = ({0: {0: n}}, 0)
            for name in mono:
                if name not in chars:
                    raise ValueError(f"unknown bundle atom {name!r}")
                term = intseries.mul(term, chars[name])
            total = intseries.add(total, term)
        return total


def order_one_twist(flavor_is_even_tower: bool, k: int) -> BundleExpr:
    """The q^1 twisting bundle of the two towers.

    Even tower (paired with 1 + Lbar):  W + TCX - (L^2 + Lbar^2) + (L + Lbar) - 8 - 2k.
    Odd tower  (paired with 1 - Lbar):  W + TCX - (L + Lbar) - 2k - 6.
    """
    atom = BundleExpr.atom
    base = atom("W") + atom("TCX")
    if flavor_is_even_tower:
        return (
            base
            - atom("L2")
            - atom("Lbar2")
            + atom("L")
            + atom("Lbar")
            - BundleExpr.const(8 + 2 * k)
        )
    return base - atom("L") - atom("Lbar") - BundleExpr.const(2 * k + 6)
