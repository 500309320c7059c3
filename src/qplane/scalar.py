"""Exact coefficient arithmetic for the quantum-plane engine.

All coefficients live in the field Q(i)(s) of rational functions in the
formal variable s over the Gaussian rationals, times an integer power of
``rho``, the one auxiliary central symbol (the sphere's squared radius).
The deformation parameter is always q = s^2, so that half-integer powers
of q are ordinary powers of s.

A polynomial in s is one flat tuple of ints ``(d, a0, b0, ..., an, bn)``:
coefficient k is (a_k + b_k*i)/d, with d > 0, gcd(d, all a, b) = 1 and no
trailing zero pair; ``()`` is zero.  The kernels (``poly_*``) run on plain
ints and end in one ``math.gcd``; no other module sees this layout.

:class:`Scalar` is the one number type: a Gaussian rational constant is
the degree-0 ``Scalar`` whose numerator is ``(d, a, b)``, so parsing,
specialization and ``Specialization.value`` use no other class.
The printer reduces each a/d and b/d with ``math.gcd``, so no module of
the engine imports ``fractions``.

A :class:`Scalar` is s^val * num/den * rho^rho, with the integers ``val``
and ``rho`` and polynomials num and den in canonical form:

* num and den are coprime, and each has a nonzero constant coefficient,
  so the power of s is all in ``val`` (q is the constant 1 with val 2,
  and q - q^-1 is s^4 - 1 with val -2),
* den is monic, so every Laurent polynomial has den == ``POLY_ONE``,
* zero is (0, 1) with val 0 and rho 0.

Structural equality of canonical forms is field equality, so zero-testing
is a dictionary lookup away everywhere else in the engine, and equality
and hashing compare tuples of ints.

Constants take a direct path.  A product, sum or inverse of constants
(num ``(d, a, b)``, den 1 and val 0, times any power of rho) is computed
on the three ints and canonicalized by one ``_canon``; no polynomial
kernel runs.  At q = -1, s = i, so every coefficient there is such a
constant.  Small constants are shared: each (a + b*i)/d * rho^k with |a|,
|b| and d at most ``SHARED_BOUND`` = 16 and k in -2..2 is one object,
however it was reached.  The objects live in a module table that fills on
first use; it holds at most 71,840 entries.  A memo keyed by a
coefficient then matches by identity, and kept results share their
coefficients.  Equality still compares values.
"""

from __future__ import annotations

import math
import re


class ScalarError(ValueError):
    """Arithmetic error in the coefficient field (pole, zero division, ...)."""


class ParseError(ScalarError):
    """Syntax error, carries the offending position."""

    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# ---------------------------------------------------------------------------
# Polynomials in s over the Gaussian rationals: (d, a0, b0, ..., an, bn)
# ---------------------------------------------------------------------------

POLY_ZERO = ()
POLY_ONE = (1, 1, 0)
POLY_S = (1, 0, 0, 1, 0)


def _canon(out):
    """Canonical tuple of a flat list [d, a0, b0, ...] with d != 0."""
    n = len(out)
    while n > 1 and not out[n - 1] and not out[n - 2]:
        n -= 2
    if n == 1:
        return POLY_ZERO
    del out[n:]
    if out[0] < 0:
        out = [-x for x in out]
    if out[0] != 1:
        g = math.gcd(*out)
        if g != 1:
            return tuple([x // g for x in out])
    return tuple(out)


def _join(d, re, im):
    """Canonical polynomial with coefficients (re[k] + im[k]*i)/d."""
    out = [d] * (2 * len(re) + 1)
    out[1::2] = re
    out[2::2] = im
    return _canon(out)


def poly_add(p, q):
    if not p or not q:
        return p or q
    if p[0] != q[0]:
        d = math.lcm(p[0], q[0])
        p, q = [x * (d // p[0]) for x in p], [x * (d // q[0]) for x in q]
    if len(p) < len(q):
        p, q = q, p
    return _canon([p[0], *[x + y for x, y in zip(p[1:], q[1:])],
                   *p[len(q):]])


def poly_neg(p):
    return (p[0], *[-x for x in p[1:]]) if p else p


def poly_mul(p, q):
    if not p or not q:
        return POLY_ZERO
    if len(p) == 3 or len(q) == 3:
        # a constant operand: one pass over the other one
        if len(p) != 3:
            p, q = q, p
        return q if p == POLY_ONE else _scale(q, p[1], p[2], p[0])
    pa, pb, qa, qb = p[1::2], p[2::2], q[1::2], q[2::2]
    n = len(pa) + len(qa) - 1
    ra, rb = [0] * n, [0] * n
    for j, (x, y) in enumerate(zip(pa, pb)):
        if x or y:  # monomials such as q = s^2 are mostly zero rows
            for k, (u, v) in enumerate(zip(qa, qb), j):
                ra[k] += x * u - y * v
                rb[k] += x * v + y * u
    return _join(p[0] * q[0], ra, rb)


def _strip(p):
    """(p / s^v, v) for the s-valuation v of the nonzero polynomial p."""
    if p[1] or p[2]:
        return p, 0
    k = 3
    while not (p[k] or p[k + 1]):
        k += 2
    return p[:1] + p[k:], (k - 1) // 2


def _shift(p, k):
    """p times s^k, k >= 0."""
    return p[:1] + (0, 0) * k + p[1:] if k else p


def _scale(p, a, b=0, d=1):
    """p times the nonzero constant (a + b*i)/d."""
    if b:
        xs, ys = p[1::2], p[2::2]
        return _join(p[0] * d, [x * a - y * b for x, y in zip(xs, ys)],
                     [x * b + y * a for x, y in zip(xs, ys)])
    out = [x * a for x in p]
    out[0] = p[0] * d
    return _canon(out)


def _unit(p):
    """(a, b, c) with p times (a + b*i)/c monic; p is nonzero."""
    d, la, lb = p[0], p[-2], p[-1]
    if lb:
        return d * la, -d * lb, la * la + lb * lb
    return d, 0, la


def _pseudo_divide(p, q):
    """(scale, ua, ub, ra, rb) with scale*P == U*Q + R on the integers P
    and Q of p and q; the leading integer m of q is real, scale a power
    of m, U = ua + ub*i and R = ra + rb*i of degree below that of Q."""
    m = q[-2]
    qa, qb = q[1::2], q[2::2]
    ra, rb = list(p[1::2]), list(p[2::2])
    n = len(qa) - 1
    ua, ub = [0] * (len(ra) - n), [0] * (len(ra) - n)
    scale = 1
    for k in range(len(ra) - n - 1, -1, -1):
        ca, cb = ra[k + n], rb[k + n]
        if not (ca or cb):
            continue
        if m != 1:
            scale *= m
            ra, rb = [x * m for x in ra], [x * m for x in rb]
            ua, ub = [x * m for x in ua], [x * m for x in ub]
        ua[k], ub[k] = ca, cb
        for j, (x, y) in enumerate(zip(qa, qb), k):
            ra[j] -= ca * x - cb * y
            rb[j] -= ca * y + cb * x
    return scale, ua, ub, ra[:n], rb[:n]


def poly_divmod(p, q):
    """(quotient, remainder) of p by q over Q(i)."""
    if not q:
        raise ScalarError("polynomial division by zero")
    if len(p) < len(q):
        return POLY_ZERO, p
    if q[-1]:
        # the quotient by q*conj(m), m the leading integer of q, is the
        # quotient by q over conj(m); the remainder is the same
        m, mb = q[-2], q[-1]
        quot, rem = poly_divmod(p, _scale(q, m, -mb))
        return _scale(quot, m, -mb), rem
    scale, ua, ub, ra, rb = _pseudo_divide(p, q)
    d, dq = p[0] * scale, q[0]
    return (_join(d, [x * dq for x in ua], [x * dq for x in ub]),
            _join(d, ra, rb))


def poly_gcd(p, q):
    """Monic gcd over Q(i) by pseudo-remainders.  They are kept up to
    nonzero constants: each divisor gets a real leading integer, then
    denominator 1 and coprime integers."""
    while q:
        if q[-1]:
            q = _scale(q, q[-2], -q[-1])
        g = math.gcd(*q[1:])
        q = (1, *[x // g for x in q[1:]])
        _, _, _, ra, rb = _pseudo_divide(p, q)
        p, q = q, _join(1, ra, rb)
    return _scale(p, *_unit(p)) if p else POLY_ZERO


def poly_eval(p, x):
    """The constant polynomial p(x) for a constant x = (d, a, b) or (),
    by Horner's rule on the integers over d^deg(p)."""
    xd, xa, xb = x or (1, 0, 0)
    ra = rb = 0
    w = 1
    for k in range(len(p) - 2, 0, -2):
        ra, rb = (ra * xa - rb * xb + p[k] * w,
                  ra * xb + rb * xa + p[k + 1] * w)
        w *= xd
    return _canon([p[0] * w // xd, ra, rb]) if p else POLY_ZERO


# ---------------------------------------------------------------------------
# Scalar: s^val * num/den * rho^rho
# ---------------------------------------------------------------------------

MAX_EXPONENT = 10_000
"""Cap on a power ``x ** e``: |e| times the weight of x may not exceed it.

The weight is the largest of 1, the degrees in s of the numerator and
denominator of x as a reduced fraction of polynomials (s^val * num over
den when val >= 0, num over s^-val * den otherwise), and the bit length
of the largest integer in their coefficients, each coefficient
(a + b*i)/d taken in lowest terms.  A power within the cap has degree at
most 10^4 in s and coefficients of at most a few times 10^4 bits, so a
short input cannot ask for an unbounded result.  The squarings are
schoolbook products, so a dense base of high degree can still take
seconds; a power of s alone is only a sum of exponents.
"""


def _coeff_bits(p):
    """Bit length of the largest integer of a coefficient of p in lowest
    terms (0 for the zero polynomial)."""
    out = 0
    for a, b in zip(p[1::2], p[2::2]):
        g = math.gcd(a, b, p[0])
        out = max(out, (a // g).bit_length(), (b // g).bit_length(),
                  (p[0] // g).bit_length())
    return out


def _power_weight(x) -> int:
    """The weight of x that ``MAX_EXPONENT`` caps (see there)."""
    return max(1, (len(x.num) - 3) // 2 + max(x.val, 0),
               (len(x.den) - 3) // 2 + max(-x.val, 0),
               _coeff_bits(x.num), _coeff_bits(x.den))


class Scalar:
    """Canonical s^val * num/den * rho^rho."""

    __slots__ = ("num", "den", "rho", "val", "_hash")

    def __new__(cls, num, den=POLY_ONE, rho=0, val=0):
        """s^val * num/den * rho^rho, for canonical polynomials num and
        den != (); a small constant is its shared object."""
        return _scalar(*_canonicalize(num, den, rho, val))

    def __reduce__(self):
        # copies and pickles are rebuilt as canonical, so shared if small
        return _scalar, (self.num, self.den, self.rho, self.val)

    # -- canonical-form queries ---------------------------------------------

    def is_zero(self):
        return not self.num

    def is_constant(self):
        """Free of s (a power of rho allowed)."""
        return len(self.num) <= 3 and not self.val and self.den == POLY_ONE

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.num, self.den, self.rho, self.val))
        return self._hash

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return (self.val == other.val and self.num == other.num
                and self.den == other.den and self.rho == other.rho)

    def __bool__(self):
        return bool(self.num)

    # -- field operations ----------------------------------------------------

    def __add__(self, other):
        p, q = self.num, other.num
        if not p:
            return other
        if not q:
            return self
        if self.rho != other.rho:
            raise ScalarError(
                "cannot add scalars with different auxiliary monomials: "
                f"{self} and {other}"
            )
        if (len(p) == 3 == len(q) and not (self.val or other.val)
                and self.den == POLY_ONE == other.den):
            d, a, b = p
            e, u, v = q
            num = _canon([d * e, a * e + u * d, b * e + v * d])
            return _scalar(num, POLY_ONE, self.rho, 0) if num else ZERO
        # both numerators over the smaller power of s
        val = self.val
        if val < other.val:
            q = _shift(q, other.val - val)
        elif val > other.val:
            p, val = _shift(p, val - other.val), other.val
        if self.den == other.den:
            num = poly_add(p, q)
            if not num:
                return ZERO
            if self.den == POLY_ONE:
                num, v = _strip(num)
                return _scalar(num, POLY_ONE, self.rho, val + v)
            return Scalar(num, self.den, self.rho, val)
        num = poly_add(poly_mul(p, other.den), poly_mul(q, self.den))
        return Scalar(num, poly_mul(self.den, other.den), self.rho, val)

    def __sub__(self, other):
        return self + (-other) if other.num else self

    def __neg__(self):
        if not self.num:
            return self
        return _scalar(poly_neg(self.num), self.den, self.rho, self.val)

    def __mul__(self, other):
        p, q = self.num, other.num
        if not p or not q:
            return ZERO
        if (len(p) == 3 == len(q) and not (self.val or other.val)
                and self.den == POLY_ONE == other.den):
            d, a, b = p
            e, u, v = q
            return _scalar(_canon([d * e, a * u - b * v, a * v + b * u]),
                           POLY_ONE, self.rho + other.rho, 0)
        # both numerators have a nonzero constant coefficient, so their
        # product has one too
        num = poly_mul(p, q)
        rho = self.rho + other.rho
        val = self.val + other.val
        if self.den == POLY_ONE and other.den == POLY_ONE:
            return _scalar(num, POLY_ONE, rho, val)
        return Scalar(num, poly_mul(self.den, other.den), rho, val)

    def inverse(self):
        p = self.num
        if not p:
            raise ScalarError("division by zero")
        if len(p) == 3 and not self.val and self.den == POLY_ONE:
            # d/(a + b*i) = d*(a - b*i)/(a^2 + b^2)
            d, a, b = p
            return _scalar(_canon([a * a + b * b, d * a, -d * b]),
                           POLY_ONE, -self.rho, 0)
        # num and den are coprime already: only the new den is made monic
        num, den = _monic(self.den, p)
        return _scalar(num, den, -self.rho, -self.val)

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, e: int):
        """Repeated squaring; refuses powers larger than ``MAX_EXPONENT``."""
        weight = _power_weight(self)
        if abs(e) * weight > MAX_EXPONENT:
            raise ScalarError(f"power with exponent {e} and base weight "
                              f"{weight} exceeds the cap {MAX_EXPONENT}")
        base = self if e >= 0 else self.inverse()
        e = abs(e)
        out = ONE
        while e:
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
        return out

    # -- specialization -------------------------------------------------------

    def specialize(self, sp: "Specialization") -> "Scalar":
        """Evaluate at s = sp.value; the power of rho is preserved, and a
        constant is its own value."""
        if self.is_constant():
            return self
        num, den, x = self.num, self.den, sp.value.num
        if self.val > 0:
            num = _shift(num, self.val)
        elif self.val < 0:
            den = _shift(den, -self.val)
        dv = poly_eval(den, x)
        if not dv:
            raise ScalarError(f"pole at s = {sp.value}: {self}")
        nv = poly_eval(num, x)
        if not nv:
            return ZERO
        return _scalar(_scale(nv, *_unit(dv)), POLY_ONE, self.rho, 0)

    # -- printing --------------------------------------------------------------

    def __str__(self):
        return scalar_str(self)

    def __repr__(self):
        return f"Scalar({scalar_str(self)!r})"


SHARED_BOUND = 16
"""The shared constants are (a + b*i)/d * rho^k with |a|, |b| and d at
most this bound and k in -2..2."""

_SHARED = {k: {} for k in range(-2, 3)}
"""The shared constants, by power of rho and then by numerator (d, a, b).

It fills on first use and holds at most 71,840 entries: 14,368 canonical
numerators in range for each of the five powers of rho.
"""


def _scalar(num, den, rho, val) -> Scalar:
    """The scalar of a canonical (num, den, rho, val); a constant in the
    shared range is its one shared object."""
    table = None
    if len(num) == 3 and not val and den == POLY_ONE:
        table = _SHARED.get(rho)
        if table is not None:
            out = table.get(num)
            if out is not None:
                return out
            if max(num[0], abs(num[1]), abs(num[2])) > SHARED_BOUND:
                table = None
    out = object.__new__(Scalar)
    out.num, out.den, out.rho, out.val, out._hash = num, den, rho, val, None
    if table is not None:
        table[num] = out
    return out


def _canonicalize(num, den, rho, val):
    if not den:
        raise ScalarError("zero denominator")
    if not num:
        return POLY_ZERO, POLY_ONE, 0, 0
    num, v = _strip(num)
    den, w = _strip(den)
    val += v - w
    if den == POLY_ONE:
        return num, den, rho, val
    if len(den) > 3:
        g = poly_gcd(num, den)
        if len(g) > 3:
            num, _ = poly_divmod(num, g)
            den, _ = poly_divmod(den, g)
    num, den = _monic(num, den)
    return num, den, rho, val


def _monic(num, den):
    """num and den times the constant that makes den monic."""
    if den[-1] or den[-2] != den[0]:
        unit = _unit(den)
        return _scale(num, *unit), _scale(den, *unit)
    return num, den


def clear_denominators(values):
    """([c*v for v in values], c) with c the monic lcm of their
    denominators: each c*v is a Laurent polynomial in s (den == ONE)
    times its power of rho."""
    c = POLY_ONE
    for den in {v.den for v in values} - {POLY_ONE}:
        cofactor, _ = poly_divmod(den, poly_gcd(c, den))
        c = poly_mul(c, cofactor)
    return ([_scalar(poly_mul(v.num, poly_divmod(c, v.den)[0]), POLY_ONE,
                     v.rho, v.val) for v in values],
            _scalar(c, POLY_ONE, 0, 0))


ZERO = Scalar(POLY_ZERO)
ONE = Scalar(POLY_ONE)
S = Scalar(POLY_S)
Q = S * S


def _constant(a, b=0, d=1) -> Scalar:
    """The constant (a + b*i)/d, d != 0."""
    return _scalar(_canon([d, a, b]), POLY_ONE, 0, 0)


I = _constant(0, 1)
MINUS_ONE = _constant(-1)


def from_int(n) -> Scalar:
    return _constant(n)


def rho_power(e: int) -> Scalar:
    """rho^e as a Scalar, e may be negative."""
    return _scalar(POLY_ONE, POLY_ONE, e, 0)


class Specialization:
    """Exact substitution s -> value, value a nonzero constant Scalar."""

    __slots__ = ("value",)

    def __init__(self, value: Scalar):
        if not value:
            raise ScalarError("specialization value must be nonzero")
        _check_constant(value)
        self.value = value

    @staticmethod
    def from_q(q_value: Scalar) -> "Specialization":
        """Resolve s = q^(1/2) inside Q(i); prefers i over -i and 1 over -1.

        For q = (a + b*i)/d the root is (x + y*i)/d with x + y*i the
        Gaussian integer root of (a + b*i)*d, which exists when there is a
        root at all; x >= 0, and y >= 0 when x == 0.
        """
        _check_constant(q_value)
        d, a, b = q_value.num or (1, 0, 0)
        a, b = a * d, b * d
        n = math.isqrt(a * a + b * b)  # at least |a|
        x, y = math.isqrt((n + a) // 2), math.isqrt((n - a) // 2)
        if b < 0:
            y = -y
        if x * x - y * y != a or 2 * x * y != b:
            raise ScalarError(f"q value {q_value} has no square root in Q(i)")
        return Specialization(_constant(x, y, d))

    def __eq__(self, other):
        return isinstance(other, Specialization) and self.value == other.value

    def __hash__(self):
        return hash(("Specialization", self.value))

    def __str__(self):
        return f"s={self.value}"


def _check_constant(value: Scalar):
    if not value.is_constant() or value.rho:
        raise ScalarError(f"not a constant: {value}")


# ---------------------------------------------------------------------------
# Canonical printing
# ---------------------------------------------------------------------------

def scalar_str(x: Scalar) -> str:
    if x.is_zero():
        return "0"
    if x.den == POLY_ONE:
        body = _laurent_str(x.num, x.val)
    else:
        # a fraction of polynomials: s^val goes on top or below
        num = _laurent_str(x.num, max(x.val, 0))
        den = _laurent_str(x.den, max(-x.val, 0))
        if len(x.num) > 3 or x.val > 0:
            num = f"({num})"
        body = f"{num}/({den})"
    if not x.rho:
        return body
    rho = "rho" if x.rho == 1 else f"rho^{x.rho}"
    if body == "1":
        return rho
    if body == "-1":
        return f"-{rho}"
    if " " in body or "/" in body:
        body = f"({body})"
    return f"{body}*{rho}"


def _laurent_str(num, shift):
    """The Laurent polynomial num * s^shift, highest degree first."""
    terms = []
    for k in range(len(num) - 2, 0, -2):
        if not (num[k] or num[k + 1]):
            continue
        term = _coeff_str(num[k], num[k + 1], num[0])
        deg = (k - 1) // 2 + shift
        if deg:
            svar = "s" if deg == 1 else f"s^{deg}"
            if term == "1":
                term = svar
            elif term == "-1":
                term = f"-{svar}"
            else:
                term = f"{term}*{svar}"
        terms.append(term)
    return join_signed(terms)


def _rational_str(n, d):
    """n/d for d > 0 in lowest terms, the sign on the numerator."""
    g = math.gcd(n, d)
    n, d = n // g, d // g
    return str(n) if d == 1 else f"{n}/{d}"


def _coeff_str(a, b, d):
    """(a + b*i)/d as a rational, a rational multiple of i, or a mixed
    value in parentheses, so that it can sit inside a product."""
    try:
        if not b:
            return _rational_str(a, d)
        istr = "i" if abs(b) == d else f"{_rational_str(abs(b), d)}*i"
        if not a:
            return istr if b > 0 else f"-{istr}"
        return f"({_rational_str(a, d)}{'+' if b > 0 else '-'}{istr})"
    except ValueError:  # Python caps int -> str (4300 digits by default)
        raise ScalarError("a coefficient is too long to print")


def join_signed(terms):
    """Join printed terms as a sum: a leading minus becomes the separator."""
    parts = []
    for term in terms:
        if not parts:
            parts.append(term)
        elif term.startswith("-"):
            parts.append("- " + term[1:])
        else:
            parts.append("+ " + term)
    return " ".join(parts)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------
# expr   := term (("+"|"-") term)*
# term   := factor (("*"|"/") factor)*
# factor := atom ("^" signed_int)?
# atom   := "(" expr ")" | "-" factor | name
# name   := rational | "i" | "s" | "q" | "rho"
# rational := int ("/" int)?
# over tokens read once per text (``tokenize``); the element grammar keeps
# a part with no word as a Scalar until it meets one.

NAMES = {"i": I, "s": S, "q": Q, "rho": rho_power(1)}
"""The named constants of the grammar, by name."""

MAX_NESTING = 100
"""Cap on nested parentheses and unary minus signs, in scalars and
elements alike.

The parser descends recursively, at most four frames per level, so the
cap keeps the deepest accepted input far inside Python's default recursion
limit: deeper input is a parse error, not a ``RecursionError``.
"""


MAX_TERMS = 1024
"""Cap on the words of a free product while parsing an element.

The element parser expands products in the free algebra before any
rewriting, so ``(x+y)^16`` would hold 65536 words and take a minute to
reduce; a product that could hold more words than the cap is a parse
error instead.  This bounds the words, not the rewriting of each one.
"""

_TOKEN = re.compile(r"\s*(?:(\d+)|(\w+)|(\S))")
_KINDS = (None, "int", "word", None)


def tokenize(text, names=None):
    """The tokens (kind, text, start) of ``text``: digit runs ("int"),
    word runs ("word"), other characters, each its own kind, and "end".
    ``names`` maps a first character to (name, kind) pairs, longest name
    first; the first one a token starts with is read whole, as one token
    of its kind, unless that kind is None."""
    names = names or {}
    tokens = []
    pos = 0
    while (m := _TOKEN.match(text, pos)) is not None:
        group = m.lastindex
        start, pos = m.span(group)
        for name, kind in names.get(text[start], ()):
            if text.startswith(name, start):
                break
        else:
            kind = None
        if kind is None:
            value = m[group]
            tokens.append((_KINDS[group] or value, value, start))
        else:
            tokens.append((kind, name, start))
            pos = start + len(name)
    tokens.append(("end", "", len(text)))
    return tokens


class Parser:
    """Recursive descent over the grammar above, valued in scalars.

    ``parse_expr`` down to ``parse_atom`` are the grammar, written once,
    walking the text's tokens; the values are made by ``add``, ``product``,
    ``divide``, ``power`` and ``parse_name``, which the element parser of
    :mod:`qplane.ncalg` overrides, with ``error``, to read elements.
    """

    def __init__(self, text, names=None):
        self.tokens = tokenize(text, names)
        self.i = 0  # the next token
        self.depth = 0

    # -- the grammar ---------------------------------------------------------

    def parse_expr(self):
        value = self.parse_term()
        tokens = self.tokens
        while True:
            kind = tokens[self.i][0]
            if kind != "+" and kind != "-":
                return value
            self.i += 1
            value = self.add(value, self.parse_term(), kind == "-")

    def parse_term(self):
        value = self.parse_factor()
        tokens = self.tokens
        while True:
            kind, _, start = tokens[self.i]
            if kind == "*":
                self.i += 1
                value = self.product(value, self.parse_factor())
            elif kind == "/":
                self.i += 1
                value = self.divide(value, self.parse_factor(), start + 1)
            else:
                return value

    def parse_factor(self):
        atom = self.parse_atom()
        if self.tokens[self.i][0] == "^":
            self.i += 1
            return self.power(atom)
        return atom

    def parse_atom(self):
        kind, _, start = self.tokens[self.i]
        if kind != "(" and kind != "-":
            return self.parse_name()
        # one more level of parentheses or unary minus, up to the cap
        self.i += 1
        if self.depth == MAX_NESTING:
            raise self.error(f"parentheses and unary minus signs nest "
                             f"deeper than {MAX_NESTING} levels", start + 1)
        self.depth += 1
        if kind == "(":
            value = self.parse_expr()
            self.expect(")")
        else:
            value = -self.parse_factor()
        self.depth -= 1
        return value

    # -- scalar values -------------------------------------------------------

    def add(self, total, term, negate):
        """The running sum of an expression, plus or minus its next term."""
        return total - term if negate else total + term

    def product(self, a, b):
        return a * b

    def divide(self, a, b, pos):
        """a / b, with ``pos`` where the divisor starts."""
        if b.is_zero():
            raise ParseError("division by zero", pos)
        return a / b

    def power(self, base):
        """``base`` to the signed exponent that follows the ``^``."""
        return self.scalar_power(base, self.take_int("integer", True))

    def scalar_power(self, base, e):
        if e < 0 and base.is_zero():
            raise ParseError("zero to a negative power", self.end())
        return base ** e

    def parse_name(self):
        """A rational or a named constant.  Its errors are always
        ``ParseError``s, also inside an element, but for the digit cap."""
        kind, text, start = self.tokens[self.i]
        if kind == "int":
            n, tokens = self.take_int("integer"), self.tokens
            # a rational only when an integer follows the slash
            if tokens[self.i][0] == "/" and tokens[self.i + 1][0] == "int":
                self.i += 1
                d = self.take_int("integer")
                if d == 0:
                    raise ParseError("zero denominator", self.end())
                return _constant(n, 0, d)
            return from_int(n)
        if kind == "end":
            raise ParseError("unexpected end of input", start)
        if text in NAMES:
            self.i += 1
            return NAMES[text]
        raise ParseError(f"unexpected token {text!r}",
                         start + len(text) if kind == "word" else start)

    # -- tokens --------------------------------------------------------------

    def error(self, message, pos) -> ScalarError:
        return ParseError(message, pos)

    def end(self):
        """Where the last token read ends."""
        _, text, start = self.tokens[self.i - 1]
        return start + len(text)

    def expect(self, kind):
        found, _, start = self.tokens[self.i]
        if found != kind:
            raise self.error(f"expected {kind!r}", start)
        self.i += 1

    def take_int(self, what, signed=False):
        neg = signed and self.tokens[self.i][0] == "-"
        self.i += neg
        kind, digits, start = self.tokens[self.i]
        if kind != "int":
            raise self.error(f"expected {what}", start)
        self.i += 1
        try:
            return -int(digits) if neg else int(digits)
        except ValueError:  # Python caps str -> int (4300 digits by default)
            raise self.error(f"{what} of {len(digits)} digits is too long",
                             start)


def parse_scalar(text: str, where: str | None = None) -> Scalar:
    """Parse a scalar expression; q is read as s^2.

    ``where`` names the text's place in a document (``r_matrix[1][1]``,
    ``eigenvalues.lambda1``); an error message then starts with it.
    """
    try:
        parser = Parser(text)
        value = parser.parse_expr()
        kind, _, start = parser.tokens[parser.i]
        if kind != "end":
            raise ParseError("trailing input", start)
        return value
    except ScalarError as exc:
        if where is None:
            raise
        raise ScalarError(f"{where}: {exc}") from None
