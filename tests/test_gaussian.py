import operator
import random
from fractions import Fraction

import pytest

from e8theta.gaussian import GaussianRational, I, MINUS_I, ONE, ZERO


def test_construction_normalizes():
    g = GaussianRational(Fraction(2, 4), Fraction(-3, -6))
    assert g.re == Fraction(1, 2) and g.im == Fraction(1, 2)
    assert g.re.denominator > 0
    g = GaussianRational(Fraction(6, 3), Fraction(0, 5))
    assert (g.re, g.im) == (2, 0)
    assert type(g.re) is int and type(g.im) is int


def _assert_canonical(g):
    """Each part is an int exactly when it is integral."""
    for part in (g.re, g.im):
        assert type(part) is (int if Fraction(part).denominator == 1 else Fraction)


def _random_part(rng):
    n = rng.randint(-9, 9)
    return rng.choice((n, Fraction(n), Fraction(n, rng.randint(1, 6))))


def _fraction_result(op, a, b):
    """op on (re, im) pairs of Fractions, spelled out part by part."""
    (ar, ai), (br, bi) = a, b
    if op is operator.add:
        return ar + br, ai + bi
    if op is operator.sub:
        return ar - br, ai - bi
    if op is operator.mul:
        return ar * br - ai * bi, ar * bi + ai * br
    n = br * br + bi * bi
    return (ar * br + ai * bi) / n, (ai * br - ar * bi) / n


def test_parts_match_fraction_arithmetic_randomized():
    rng = random.Random(12)
    ops = (operator.add, operator.sub, operator.mul, operator.truediv)
    for _ in range(400):
        a = (_random_part(rng), _random_part(rng))
        b = (_random_part(rng), _random_part(rng))
        scalar = _random_part(rng)
        x, y = GaussianRational(*a), GaussianRational(*b)
        fa = (Fraction(a[0]), Fraction(a[1]))
        fb = (Fraction(b[0]), Fraction(b[1]))
        fs = (Fraction(scalar), Fraction(0))
        _assert_canonical(x)
        _assert_canonical(-x)
        assert ((-x).re, (-x).im) == (-fa[0], -fa[1])
        for op in ops:
            cases = [(x, y, fa, fb), (x, scalar, fa, fs), (scalar, y, fs, fb)]
            for left, right, fl, fr in cases:
                if op is operator.truediv and fr == (0, 0):
                    continue
                got = op(left, right)
                assert isinstance(got, GaussianRational)
                assert (got.re, got.im) == _fraction_result(op, fl, fr)
                _assert_canonical(got)


def test_hash_eq_str_repr_agree_with_fraction_parts():
    rng = random.Random(13)
    for _ in range(200):
        re, im = _random_part(rng), _random_part(rng)
        g = GaussianRational(re, im)
        h = GaussianRational(Fraction(re), Fraction(im))
        assert g == h and hash(g) == hash(h)
        assert hash(g) == hash((Fraction(re), Fraction(im)))
        assert repr(g) == f"GaussianRational({Fraction(re)!r}, {Fraction(im)!r})"
    assert GaussianRational(3) == 3 == GaussianRational(Fraction(3))
    assert GaussianRational(3) == Fraction(3)
    assert hash(GaussianRational(3)) == hash((Fraction(3), Fraction(0)))
    assert repr(GaussianRational(3)) == "GaussianRational(Fraction(3, 1), Fraction(0, 1))"
    assert repr(GaussianRational(Fraction(1, 2), -2)) == (
        "GaussianRational(Fraction(1, 2), Fraction(-2, 1))"
    )
    assert str(GaussianRational(-3, 2)) == "-3+2i"
    assert str(GaussianRational(Fraction(-1, 2), Fraction(3, 4))) == "-1/2+3/4i"
    assert str(GaussianRational(0, -4)) == "-4i"


def test_basic_arithmetic():
    a = GaussianRational(1, 2)
    b = GaussianRational(Fraction(1, 3), -1)
    assert a + b == GaussianRational(Fraction(4, 3), 1)
    assert a - b == GaussianRational(Fraction(2, 3), 3)
    assert a * b == GaussianRational(Fraction(1, 3) + 2, Fraction(2, 3) - 1)
    assert I * I == GaussianRational(-1)
    assert I * MINUS_I == ONE


def test_division_exact():
    a = GaussianRational(3, 4)
    assert a / a == ONE
    b = GaussianRational(Fraction(1, 7), Fraction(-2, 3))
    assert (a / b) * b == a
    with pytest.raises(ZeroDivisionError):
        a / ZERO


def test_int_coercion():
    a = GaussianRational(5)
    assert a + 1 == GaussianRational(6)
    assert 1 + a == GaussianRational(6)
    assert 2 * a == GaussianRational(10)
    assert a - 7 == GaussianRational(-2)
    assert 10 / GaussianRational(4) == GaussianRational(Fraction(5, 2))


def test_predicates():
    assert ZERO.is_zero()
    assert not I.is_zero()
    assert GaussianRational(3).is_integer()
    assert not GaussianRational(Fraction(1, 2)).is_integer()
    assert not I.is_integer()
    assert GaussianRational(9).as_integer() == 9
    with pytest.raises(ValueError):
        I.as_integer()


def test_field_axioms_randomized():
    rng = random.Random(11)

    def rand():
        return GaussianRational(
            Fraction(rng.randint(-6, 6), rng.randint(1, 5)),
            Fraction(rng.randint(-6, 6), rng.randint(1, 5)),
        )

    for _ in range(200):
        a, b, c = rand(), rand(), rand()
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        if not a.is_zero():
            assert a * a.invert() == ONE


def test_str_forms():
    assert str(GaussianRational(Fraction(1, 2))) == "1/2"
    assert str(I) == "i"
    assert str(MINUS_I) == "-i"
    assert str(GaussianRational(1, 1)) == "1+i"
    assert str(GaussianRational(1, -2)) == "1-2i"
