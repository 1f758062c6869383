"""Equivariant characters of bundle expressions against a brute-force count.

The oracle lists each atom's torus weights (W's from the two root families
±e_i ± e_j and (±1/2)^8 with an even number of minus signs, built here and
not taken from e8.e8_roots), takes every choice of one weight per factor
of a monomial, and counts the exponent sums.
"""

import itertools
from collections import Counter

from hypothesis import example, given, settings, strategies as st

from e8theta.bundles import BundleExpr, _atom_table, _w_character


def _w_exponents(beta):
    """The 248 exponents of W: 8 zeros and 2<root, beta> over the 240 roots."""
    out = [0] * 8
    for i, j in itertools.combinations(range(8), 2):
        for si, sj in itertools.product((1, -1), repeat=2):
            out.append(2 * (si * beta[i] + sj * beta[j]))
    for signs in itertools.product((1, -1), repeat=8):
        if signs.count(-1) % 2 == 0:
            out.append(sum(s * b for s, b in zip(signs, beta)))
    assert len(out) == 248
    return out


def _weights(name, alpha, c, beta):
    return {
        "L": [2 * c],
        "Lbar": [-2 * c],
        "L2": [4 * c],
        "Lbar2": [-4 * c],
        "TCX": [s * a for a in alpha for s in (2, -2)],
        "W": _w_exponents(beta),
    }[name]


_monomial = st.lists(
    st.sampled_from(("L", "Lbar", "L2", "Lbar2", "TCX", "W")), max_size=3
).filter(lambda m: m.count("W") <= 2)  # W^3 has 248^3 choices
_expr = st.dictionaries(
    _monomial.map(tuple), st.integers(-3, 3).filter(bool), min_size=1, max_size=2
)
_alpha = st.lists(st.integers(-5, 5).filter(bool), min_size=1, max_size=3).map(tuple)
_beta = st.tuples(*[st.integers(-3, 3)] * 8)


@given(_expr, _alpha, st.integers(-4, 4), _beta)
@example({("TCX", "W"): 1}, (1, -2), 1, (1, 0, 0, 0, 0, 0, 0, 0))
@example({("L", "Lbar"): 2, (): -2}, (3,), 2, (0,) * 8)
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
def test_char_at_counts_exponent_sums(terms, alpha, c, beta):
    expected = Counter()
    for mono, n in terms.items():
        lists = [_weights(name, alpha, c, beta) for name in mono]
        for choice in itertools.product(*lists):
            expected[sum(choice)] += n
    poly = {w: n for w, n in expected.items() if n}
    got = BundleExpr(terms).char_at(_atom_table(alpha, c, _w_character(beta)))
    assert got == poly, (terms, alpha, c, beta)
