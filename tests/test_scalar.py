import random
from fractions import Fraction

import pytest

from qplane.scalar import (
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


def test_field_ops_named():
    from qplane.scalar import field_ops
    a, b = parse_scalar("q"), parse_scalar("s")
    assert field_ops(a, b, "add") == a + b
    assert field_ops(a, b, "sub") == a - b
    assert field_ops(a, b, "mul") == a * b
    assert field_ops(a, b, "div") == a / b
    with pytest.raises(ScalarError):
        field_ops(a, ZERO, "div")
    with pytest.raises(ScalarError):
        field_ops(a, b, "pow")


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
