import math
import random
from fractions import Fraction

import pytest

from qplane.scalar import (
    MAX_EXPONENT,
    MAX_NESTING,
    GaussRational,
    ONE,
    Q,
    S,
    Scalar,
    ScalarError,
    Specialization,
    ZERO,
    aux_symbol,
    from_int,
    parse_scalar,
    q_power,
    s_power,
)


def test_parse_q_minus_inverse():
    # q - 1/q == (s^4 - 1)/s^2
    val = parse_scalar("q - 1/q")
    assert val == (Q * Q - from_int(1)) / (S * S)
    assert val == parse_scalar("(s^4 - 1)/s^2")


def test_parse_i_squared():
    assert parse_scalar("i^2") == from_int(-1)
    assert parse_scalar("i*i") == from_int(-1)


def test_parse_reduction_cancels_common_factor():
    # (q - q^-1)/(q+1) reduces to (s^2-1)/s^2: the factor s^2+1 cancels.
    val = parse_scalar("(q - q^-1)/(q+1)")
    assert val == parse_scalar("(s^2-1)/s^2")
    assert val.den == (S * S).num


def test_field_ops_examples():
    d = parse_scalar("q - q^-1")
    assert (d - d).is_zero()
    rho = aux_symbol("rho")
    assert (ONE / rho) * rho == ONE
    with pytest.raises(ScalarError):
        ONE / ZERO


def test_mixed_aux_addition_rejected():
    rho = aux_symbol("rho")
    with pytest.raises(ScalarError):
        rho + ONE
    # adding zero is always fine
    assert rho + ZERO == rho
    assert ZERO + rho == rho


def test_specialize_examples():
    sp = Specialization(GaussRational(0, 1))  # s = i, q = -1
    assert parse_scalar("q - q^-1").specialize(sp).is_zero()
    assert parse_scalar("s").specialize(sp) == parse_scalar("i")
    with pytest.raises(ScalarError):
        parse_scalar("1/(q+1)").specialize(sp)


def test_specialize_preserves_aux():
    sp = Specialization(GaussRational(0, 1))
    x = parse_scalar("q*rho^-1")
    y = x.specialize(sp)
    assert y == parse_scalar("-1") * aux_symbol("rho", -1)


def test_specialization_from_q():
    sp = Specialization.from_q(GaussRational(-1))
    assert sp.value == GaussRational(0, 1)
    sp1 = Specialization.from_q(GaussRational(1))
    assert sp1.value == GaussRational(1)
    sp4 = Specialization.from_q(GaussRational(4))
    assert sp4.value == GaussRational(2)
    with pytest.raises(ScalarError):
        Specialization.from_q(GaussRational(0, 1))  # q = i: no root in Q(i)


def test_specialization_from_q_exact_for_huge_values():
    # a float square root misses these roots or overflows
    big = 10**30 + 1
    assert Specialization.from_q(GaussRational(big * big)).value == \
        GaussRational(big)
    with pytest.raises(ScalarError):
        Specialization.from_q(GaussRational(big * big + 1))
    assert Specialization.from_q(GaussRational(10**400)).value == \
        GaussRational(10**200)


def _random_scalar(rng, with_aux=False):
    num = [GaussRational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                         Fraction(rng.randint(-2, 2)))
           for _ in range(rng.randint(1, 4))]
    den = [GaussRational(rng.randint(-3, 3), rng.randint(-1, 1))
           for _ in range(rng.randint(1, 3))]
    if not any(c for c in den):
        den = [GaussRational(1)]
    aux = (("rho", rng.randint(-2, 2)),) if with_aux else ()
    return Scalar(tuple(num), tuple(den), aux)


def test_field_axioms_random():
    rng = random.Random(20240811)
    for _ in range(1000):
        a = _random_scalar(rng)
        b = _random_scalar(rng)
        c = _random_scalar(rng)
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        if not a.is_zero():
            assert a * a.inverse() == ONE


def test_aux_monomials_multiply():
    rng = random.Random(7)
    for _ in range(200):
        a = _random_scalar(rng, with_aux=True)
        b = _random_scalar(rng, with_aux=True)
        if a.is_zero() or b.is_zero():
            continue
        assert (a * b) / b == a


def test_print_parse_roundtrip():
    rng = random.Random(99)
    samples = [
        ZERO, ONE, S, Q, parse_scalar("-q"), parse_scalar("q^-1"),
        parse_scalar("1/(q+1)"), parse_scalar("(s^3-i)/(s^2+s+1)"),
        aux_symbol("rho"), aux_symbol("rho", -2),
        parse_scalar("(q - q^-1)*rho^-1"),
    ]
    samples += [_random_scalar(rng) for _ in range(100)]
    samples += [_random_scalar(rng, with_aux=True) for _ in range(50)]
    for x in samples:
        assert parse_scalar(str(x)) == x, str(x)


def test_specialize_is_ring_hom():
    rng = random.Random(5)
    sp = Specialization(GaussRational(Fraction(2), Fraction(1)))
    for _ in range(200):
        a = _random_scalar(rng)
        b = _random_scalar(rng)
        try:
            lhs = (a * b).specialize(sp)
            rhs = a.specialize(sp) * b.specialize(sp)
        except ScalarError:
            continue
        assert lhs == rhs
        assert (a + b).specialize(sp) == a.specialize(sp) + b.specialize(sp)


def test_powers():
    assert s_power(-2) == parse_scalar("s^-2")
    assert q_power(2) == parse_scalar("q^2")
    assert (S ** 0) == ONE


def test_canonical_zero_unique():
    z = parse_scalar("q - q") * aux_symbol("rho")
    assert z == ZERO
    assert not z.aux


def test_parse_errors_carry_position():
    for text in ["q +", "(q", "1/0", "foo", "q^", "rho rho"]:
        with pytest.raises(ScalarError):
            parse_scalar(text)


def test_nesting_cap():
    n = MAX_NESTING
    assert parse_scalar("(" * n + "q" + ")" * n) == Q
    assert parse_scalar("-" * n + "q") == Q
    assert parse_scalar("(-" * (n // 2) + "q" + ")" * (n // 2)) == Q
    for text in ["(" * (n + 1) + "q" + ")" * (n + 1), "-" * (n + 1) + "q",
                 "(-" * (n // 2) + "(q)" + ")" * (n // 2)]:
        with pytest.raises(ScalarError, match="nest deeper"):
            parse_scalar(text)


class _RefGauss:
    """Reference Gaussian rational: the pair of Fractions (re, im)."""

    def __init__(self, re, im):
        self.re, self.im = Fraction(re), Fraction(im)

    def __add__(self, other):
        return _RefGauss(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return _RefGauss(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        return _RefGauss(self.re * other.re - self.im * other.im,
                         self.re * other.im + self.im * other.re)

    def inverse(self):
        n = self.re * self.re + self.im * self.im
        return _RefGauss(self.re / n, -self.im / n)

    def __truediv__(self, other):
        return self * other.inverse()

    def __eq__(self, other):
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __str__(self):
        re, im = self.re, self.im
        if not im:
            return str(re)
        if not re:
            return {1: "i", -1: "-i"}.get(im, f"{im}*i")
        mag = abs(im)
        istr = "i" if mag == 1 else f"{mag}*i"
        return f"({re}{'+' if im > 0 else '-'}{istr})"


def _random_part(rng):
    kind = rng.randrange(6)
    if kind == 0:
        return Fraction(0)
    if kind == 1:
        return Fraction(rng.choice([1, -1]))
    if kind == 2:  # numerators above 10^40
        return Fraction(rng.randint(-10**45, 10**45), rng.randint(1, 10**6))
    if kind == 3:  # huge denominators
        return Fraction(rng.randint(-9, 9), rng.randint(1, 10**42))
    return Fraction(rng.randint(-50, 50), rng.randint(1, 12))


def _assert_matches(x, ref):
    assert x.d > 0
    assert math.gcd(x.a, x.b, x.d) == 1
    assert (x.re, x.im) == (ref.re, ref.im)
    assert isinstance(x.re, Fraction) and isinstance(x.im, Fraction)
    assert str(x) == str(ref)
    assert hash(x) == hash(ref)


def test_gauss_rational_against_fraction_pairs():
    rng = random.Random(4242)
    for _ in range(2500):
        # zero, pure real, pure imaginary, mixed; ints and Fractions
        re, im = _random_part(rng), _random_part(rng)
        if rng.random() < 0.2:
            re = 0
        elif rng.random() < 0.2:
            im = 0
        re2, im2 = _random_part(rng), _random_part(rng)
        x, y = GaussRational(re, im), GaussRational(re2, im2)
        rx, ry = _RefGauss(re, im), _RefGauss(re2, im2)
        _assert_matches(x, rx)
        _assert_matches(x + y, rx + ry)
        _assert_matches(x - y, rx - ry)
        _assert_matches(-x, _RefGauss(-rx.re, -rx.im))
        _assert_matches(x * y, rx * ry)
        assert (x == y) == (rx == ry)
        assert x - x == GaussRational(0) and not x - x
        # an equal value reached another way is structurally equal
        _assert_matches(x + y - y, rx)
        assert x + y - y == x and hash(x + y - y) == hash(x)
        if rx.re or rx.im:
            _assert_matches(x.inverse(), rx.inverse())
            _assert_matches(y / x, ry / rx)
            assert (y / x) * x == y
        else:
            with pytest.raises(ScalarError):
                x.inverse()
            with pytest.raises(ScalarError):
                y / x


def test_gauss_rational_int_and_fraction_inputs_agree():
    assert GaussRational(3, -2) == GaussRational(Fraction(6, 2), Fraction(-2))
    assert GaussRational(Fraction(1, 2), Fraction(1, 3)).d == 6
    assert hash(GaussRational(Fraction(4, 2))) == hash(GaussRational(2))
    assert GaussRational() == GaussRational(0, 0) and not GaussRational()


def test_power_by_squaring_matches_repeated_products():
    rng = random.Random(17)
    for _ in range(30):
        x = _random_scalar(rng, with_aux=True)
        if x.is_zero():
            continue
        for e in range(-5, 6):
            expected = ONE
            for _ in range(abs(e)):
                expected = expected * (x if e > 0 else x.inverse())
            assert x ** e == expected


def test_power_cap():
    # |e| times the base's weight (degree in s, bit length) is capped
    assert Q ** (MAX_EXPONENT // 2) == s_power(MAX_EXPONENT)
    assert S ** -MAX_EXPONENT == s_power(-MAX_EXPONENT)
    for base, e in [(S, MAX_EXPONENT + 1), (Q, MAX_EXPONENT // 2 + 1),
                    (from_int(2), -MAX_EXPONENT), (ONE, 10**30)]:
        with pytest.raises(ScalarError, match="exceeds the cap"):
            base ** e
    with pytest.raises(ScalarError, match="exceeds the cap"):
        parse_scalar("(q^100)^100")
    assert parse_scalar("q^4000") == s_power(8000)
