import math
import random
from fractions import Fraction

import pytest

from qplane.scalar import (
    MAX_EXPONENT,
    MAX_NESTING,
    POLY_ONE,
    I,
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
    poly_add,
    poly_divmod,
    poly_eval,
    poly_gcd,
    poly_mul,
    q_power,
    s_power,
    _power_weight,
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
    # (q - q^-1)/(q+1) reduces to (s^2-1)/s^2: the factor s^2+1 cancels,
    # and s^-2 is carried as the power of s
    val = parse_scalar("(q - q^-1)/(q+1)")
    assert val == parse_scalar("(s^2-1)/s^2")
    assert val.num == (1, -1, 0, 0, 0, 1, 0)
    assert (val.den, val.val) == (POLY_ONE, -2)


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
    sp = Specialization(I)  # s = i, q = -1
    assert parse_scalar("q - q^-1").specialize(sp).is_zero()
    assert parse_scalar("s").specialize(sp) == parse_scalar("i")
    with pytest.raises(ScalarError):
        parse_scalar("1/(q+1)").specialize(sp)


def test_specialize_preserves_aux():
    sp = Specialization(I)
    x = parse_scalar("q*rho^-1")
    y = x.specialize(sp)
    assert y == parse_scalar("-1") * aux_symbol("rho", -1)


def test_specialization_from_q():
    sp = Specialization.from_q(from_int(-1))
    assert sp.value == I
    sp1 = Specialization.from_q(ONE)
    assert sp1.value == ONE
    sp4 = Specialization.from_q(from_int(4))
    assert sp4.value == from_int(2)
    with pytest.raises(ScalarError):
        Specialization.from_q(I)  # q = i: no root in Q(i)
    F = Fraction
    for q, root in [((F(9, 4), 0), (F(3, 2), 0)), ((0, 2), (1, 1)),
                    ((F(3, 25), F(4, 25)), (F(2, 5), F(1, 5))),
                    ((F(-1, 4), 0), (0, F(1, 2))), ((-3, -4), (1, -2))]:
        assert Specialization.from_q(_const(_RefGauss(*q))).value == \
            _const(_RefGauss(*root))
    for q in [(2, 0), (F(1, 2), 0), (1, 1), (F(1, 2), 1)]:  # no root
        with pytest.raises(ScalarError):
            Specialization.from_q(_const(_RefGauss(*q)))
    rng = random.Random(3)
    for _ in range(200):
        r = _RefGauss(Fraction(rng.randint(-50, 50), rng.randint(1, 30)),
                      Fraction(rng.randint(-50, 50), rng.randint(1, 30)))
        if not r:
            continue
        if r.re < 0 or (r.re == 0 and r.im < 0):
            r = -r
        assert Specialization.from_q(_const(r * r)).value == _const(r)
    # q must be a plain nonzero constant: no s, no auxiliary symbol
    for q in [S, Q, parse_scalar("1/(s+1)"), aux_symbol("rho"),
              parse_scalar("4*rho")]:
        with pytest.raises(ScalarError, match="not a constant"):
            Specialization.from_q(q)
    with pytest.raises(ScalarError, match="nonzero"):
        Specialization.from_q(ZERO)


def test_specialization_from_q_exact_for_huge_values():
    # a float square root misses these roots or overflows
    big = 10**30 + 1
    assert Specialization.from_q(from_int(big * big)).value == from_int(big)
    with pytest.raises(ScalarError):
        Specialization.from_q(from_int(big * big + 1))
    assert Specialization.from_q(from_int(10**400)).value == \
        from_int(10**200)


def _flat(coeffs):
    """The polynomial (d, a0, b0, ..., an, bn) of _RefGauss coefficients
    in ascending degree, built here independently of the kernels."""
    d = math.lcm(*(x.denominator for c in coeffs for x in (c.re, c.im)))
    out = [d]
    for c in coeffs:
        out += [int(c.re * d), int(c.im * d)]
    while len(out) > 1 and not out[-1] and not out[-2]:
        del out[-2:]
    g = math.gcd(*out)
    return tuple(x // g for x in out) if len(out) > 1 else ()


def _coeffs(p):
    """The _RefGauss coefficients of the polynomial p, ascending degree."""
    return [_RefGauss(Fraction(p[k], p[0]), Fraction(p[k + 1], p[0]))
            for k in range(1, len(p), 2)]


def _const(ref):
    """The constant Scalar of a _RefGauss value."""
    return Scalar(_flat([ref]))


def _random_scalar(rng, with_aux=False):
    num = [_RefGauss(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                     Fraction(rng.randint(-2, 2)))
           for _ in range(rng.randint(1, 4))]
    den = [_RefGauss(rng.randint(-3, 3), rng.randint(-1, 1))
           for _ in range(rng.randint(1, 3))]
    if not any(c for c in den):
        den = [_RefGauss(1, 0)]
    aux = (("rho", rng.randint(-2, 2)),) if with_aux else ()
    return Scalar(_flat(num), _flat(den), aux)


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
    sp = Specialization(_const(_RefGauss(2, 1)))
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

    def __bool__(self):
        return bool(self.re or self.im)

    def __neg__(self):
        return _RefGauss(-self.re, -self.im)

    def __repr__(self):
        return f"_RefGauss({self.re!r}, {self.im!r})"

    def parts(self):
        """(a, b, d) with (re + im*i) = (a + b*i)/d in lowest terms."""
        d = math.lcm(self.re.denominator, self.im.denominator)
        return int(self.re * d), int(self.im * d), d

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
    """x is the plain constant ref, in canonical form."""
    assert (x.den, x.aux, x.val) == (POLY_ONE, (), 0) and x.is_constant()
    _assert_layout(x.num)
    assert x.num == _flat([ref])
    assert _coeffs(x.num) == ([ref] if ref else [])
    assert str(x) == str(ref)
    # the same value through the printer and the parser
    again = parse_scalar(str(x))
    assert again == x and hash(again) == hash(x)


def test_constant_scalars_against_fraction_pairs():
    rng = random.Random(4242)
    for _ in range(2500):
        # zero, pure real, pure imaginary, mixed; ints and Fractions
        re, im = _random_part(rng), _random_part(rng)
        if rng.random() < 0.2:
            re = 0
        elif rng.random() < 0.2:
            im = 0
        re2, im2 = _random_part(rng), _random_part(rng)
        rx, ry = _RefGauss(re, im), _RefGauss(re2, im2)
        x, y = _const(rx), _const(ry)
        _assert_matches(x, rx)
        _assert_matches(x + y, rx + ry)
        _assert_matches(x - y, rx - ry)
        _assert_matches(-x, -rx)
        _assert_matches(x * y, rx * ry)
        assert (x == y) == (rx == ry)
        assert x - x == ZERO and not x - x
        # an equal value reached another way is structurally equal
        _assert_matches(x + y - y, rx)
        assert x + y - y == x and hash(x + y - y) == hash(x)
        if rx:
            _assert_matches(x.inverse(), rx.inverse())
            _assert_matches(y / x, ry / rx)
            assert (y / x) * x == y and hash((y / x) * x) == hash(y)
        else:
            with pytest.raises(ScalarError):
                x.inverse()
            with pytest.raises(ScalarError):
                y / x


def test_constant_int_and_fraction_inputs_agree():
    assert _const(_RefGauss(3, -2)) == \
        _const(_RefGauss(Fraction(6, 2), Fraction(-2)))
    assert _const(_RefGauss(3, -2)) == from_int(3) - from_int(2) * I
    assert parse_scalar("1/2 + i/3").num == (6, 3, 2)
    assert hash(parse_scalar("4/2")) == hash(from_int(2))
    assert from_int(0) == ZERO and not from_int(0)
    assert parse_scalar("0/5") == ZERO and not _const(_RefGauss(0, 0))


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
    # each coefficient counts in lowest terms, not over the polynomial's
    # common denominator: 1/p and 1/r weigh 61 bits, 1/(p*r) would weigh 92
    p, r = 2**61 - 1, 2**31 - 1
    base = parse_scalar(f"s/{p} + 1/{r}")
    assert base ** 163 == base ** 100 * base ** 63
    with pytest.raises(ScalarError, match="base weight 61 exceeds"):
        base ** 164
    with pytest.raises(ScalarError, match="base weight 3 exceeds"):
        parse_scalar("s/6 + 1") ** 3334


def test_power_weight_matches_unstripped_polynomials():
    # the weight read off s^val * num/den equals the weight of the reduced
    # fraction of polynomials, s^val on top or below
    def coeff_bits(p):
        return max(x.bit_length() for c in _coeffs(p) for x in c.parts())

    rng = random.Random(4242)
    for _ in range(300):
        x = _random_scalar(rng, with_aux=True) * s_power(rng.randint(-6, 6))
        if not x:
            continue
        num = (0, 0) * max(x.val, 0)
        den = (0, 0) * max(-x.val, 0)
        num, den = x.num[:1] + num + x.num[1:], x.den[:1] + den + x.den[1:]
        old = max(1, (len(num) - 3) // 2, (len(den) - 3) // 2,
                  coeff_bits(num), coeff_bits(den))
        assert _power_weight(x) == old
        e = MAX_EXPONENT // old
        with pytest.raises(ScalarError, match=f"base weight {old} exceeds"):
            x ** (e + 1)


# -- polynomial kernels against a coefficient-list reference -----------------

REF0 = _RefGauss(0, 0)


def _ref_trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _ref_add(a, b):
    n = max(len(a), len(b))
    a, b = a + [REF0] * (n - len(a)), b + [REF0] * (n - len(b))
    return _ref_trim(x + y for x, y in zip(a, b))


def _ref_mul(a, b):
    out = [REF0] * max(0, len(a) + len(b) - 1)
    for j, x in enumerate(a):
        for k, y in enumerate(b):
            out[j + k] = out[j + k] + x * y
    return _ref_trim(out)


def _ref_divmod(a, b):
    rem, quot = list(a), [REF0] * max(0, len(a) - len(b) + 1)
    inv_lead = b[-1].inverse()
    for shift in range(len(a) - len(b), -1, -1):
        c = quot[shift] = rem[shift + len(b) - 1] * inv_lead
        for k, y in enumerate(b):
            rem[shift + k] = rem[shift + k] - c * y
    return _ref_trim(quot), _ref_trim(rem)


def _ref_gcd(a, b):
    while b:
        a, b = b, _ref_divmod(a, b)[1]
    return [c * a[-1].inverse() for c in a] if a else []


def _random_coeffs(rng, max_degree=4):
    """Coefficient lists with zeros, integers above 2^64, huge denominators
    and nonzero imaginary parts (see _random_part)."""
    return _ref_trim(_RefGauss(_random_part(rng), _random_part(rng))
                     for _ in range(rng.randint(0, max_degree + 1)))


def _assert_layout(p):
    """(d, a0, b0, ..., an, bn) of ints: d > 0, gcd 1, no trailing zero
    pair; () is zero."""
    assert type(p) is tuple and all(type(x) is int for x in p)
    if p:
        assert len(p) % 2 == 1 and p[0] > 0
        assert math.gcd(*p) == 1
        assert p[-2] or p[-1]


def _checked(p, ref):
    _assert_layout(p)
    assert _coeffs(p) == ref
    assert p == _flat(ref)
    return p


def test_poly_kernels_match_coefficient_lists():
    rng = random.Random(2718)
    for _ in range(300):
        a, b = _random_coeffs(rng), _random_coeffs(rng)
        if rng.random() < 0.3:  # a common factor, so the gcd is not 1
            g = _random_coeffs(rng, 2) or [_RefGauss(1, 0)]
            a, b = _ref_mul(a, g), _ref_mul(b, g)
        p, q = _flat(a), _flat(b)
        _checked(poly_add(p, q), _ref_add(a, b))
        _checked(poly_mul(p, q), _ref_mul(a, b))
        if b:
            quot, rem = poly_divmod(p, q)
            ref_quot, ref_rem = _ref_divmod(a, b)
            _checked(quot, ref_quot)
            _checked(rem, ref_rem)
        if a or b:
            gcd = _checked(poly_gcd(p, q), _ref_gcd(a, b))
            assert _coeffs(gcd)[-1] == _RefGauss(1, 0)
        x = _RefGauss(_random_part(rng), _random_part(rng))
        want = REF0
        for c in reversed(a):
            want = want * x + c
        assert poly_eval(p, _flat([x])) == _flat([want])


def test_poly_divmod_by_non_real_leading_coefficient():
    # a Gaussian leading coefficient with both parts nonzero
    a = [_RefGauss(3, -1), _RefGauss(0, 2), _RefGauss(5, 0),
         _RefGauss(Fraction(1, 7), 2**70)]
    b = [_RefGauss(1, 1), _RefGauss(Fraction(2, 3), Fraction(-5, 2))]
    quot, rem = poly_divmod(_flat(a), _flat(b))
    assert (_coeffs(quot), _coeffs(rem)) == _ref_divmod(a, b)


def test_scalar_layout_invariants():
    rng = random.Random(31)
    for _ in range(300):
        x = _random_scalar(rng, with_aux=True)
        y = _random_scalar(rng)
        values = [x, y, x + y if not x.aux else x * y, x * y, -x, x ** 2,
                  x * s_power(rng.randint(-4, 4)) + x]
        if y:
            values.append(y.inverse())
        for v in values:
            _assert_layout(v.num)
            _assert_layout(v.den)
            assert type(v.val) is int
            assert v.den  # monic: the leading coefficient is 1
            assert _coeffs(v.den)[-1] == _RefGauss(1, 0)
            if v:
                assert poly_gcd(v.num, v.den) == (1, 1, 0)  # coprime
                # nonzero constant coefficients: the power of s is all in
                # val, so no s^k denominator is stored
                assert _coeffs(v.num)[0] and _coeffs(v.den)[0]
                assert v.den == POLY_ONE or len(v.den) > 3
            else:
                assert (v.den, v.aux, v.val) == ((1, 1, 0), (), 0)


def test_equal_values_hash_equal_across_routes():
    rng = random.Random(1618)
    rx = _RefGauss(Fraction(1, 2), 3)
    sp = Specialization(_const(rx))
    for _ in range(300):
        x = _random_scalar(rng, with_aux=rng.random() < 0.3)
        y = _random_scalar(rng)
        routes = [parse_scalar(str(x)), (x * y) / y if y else x,
                  (x + y) - y if not x.aux else x]
        for v in routes:
            assert v == x and hash(v) == hash(x)
        # s = 1/2 + 3i: the specialized value against a Horner sum of the
        # coefficients, parsed back from print
        try:
            got = x.specialize(sp)
        except ScalarError:  # a pole at s = 1/2 + 3i
            continue
        nv = dv = REF0
        for c in reversed(_coeffs(x.num)):
            nv = nv * rx + c
        for c in reversed(_coeffs(x.den)):
            dv = dv * rx + c
        for _ in range(abs(x.val)):  # times value^val
            if x.val > 0:
                nv = nv * rx
            else:
                dv = dv * rx
        want = _const(nv / dv)
        for sym, e in x.aux:
            want = want * aux_symbol(sym, e)
        for v in (want, parse_scalar(str(got))):
            assert v == got and hash(v) == hash(got)
