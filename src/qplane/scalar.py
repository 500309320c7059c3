"""Exact coefficient arithmetic for the quantum-plane engine.

All coefficients live in the field Q(i)(s) of rational functions in the
formal variable s over the Gaussian rationals, optionally multiplied by a
Laurent monomial in auxiliary central symbols (``rho`` for the squared
sphere radius).  The deformation parameter is always q = s^2, so that
half-integer powers of q are ordinary powers of s.

A polynomial in s is one flat tuple of ints ``(d, a0, b0, ..., an, bn)``:
coefficient k is (a_k + b_k*i)/d, with d > 0, gcd(d, all a, b) = 1 and no
trailing zero pair; ``()`` is zero.  The kernels (``poly_*``) run on plain
ints and end in one ``math.gcd``; no other module sees this layout.

:class:`Scalar` is the one number type: a Gaussian rational constant is
the degree-0 ``Scalar`` whose numerator is ``(d, a, b)``, so parsing,
specialization and ``Specialization.value`` use no other class.
``fractions.Fraction`` appears only inside the coefficient printer.

A :class:`Scalar` is s^val * num/den times an auxiliary monomial, with the
integer ``val`` and polynomials num and den in canonical form:

* num and den are coprime, and each has a nonzero constant coefficient,
  so the power of s is all in ``val`` (q is the constant 1 with val 2,
  and q - q^-1 is s^4 - 1 with val -2),
* den is monic, so every Laurent polynomial has den == ``POLY_ONE``,
* zero is (0, 1) with val 0 and an empty auxiliary monomial,
* auxiliary exponents are sorted by symbol name.

Structural equality of canonical forms is field equality, so zero-testing
is a dictionary lookup away everywhere else in the engine, and equality
and hashing compare tuples of ints.
"""

from __future__ import annotations

import contextlib
import math
from fractions import Fraction


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
# Scalar: s^val * num/den times a Laurent monomial in auxiliary symbols
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
    """Canonical s^val * num/den with an auxiliary monomial."""

    __slots__ = ("num", "den", "aux", "val", "_hash")

    def __init__(self, num, den=POLY_ONE, aux=(), val=0):
        """s^val * num/den times aux, for canonical polynomials num and
        den != ()."""
        self.num, self.den, self.aux, self.val = _canonicalize(num, den, aux,
                                                               val)
        self._hash = None

    # -- canonical-form queries ---------------------------------------------

    def is_zero(self):
        return not self.num

    def is_constant(self):
        """Free of s (auxiliary monomial allowed)."""
        return len(self.num) <= 3 and not self.val and self.den == POLY_ONE

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.num, self.den, self.aux, self.val))
        return self._hash

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return (self.val == other.val and self.num == other.num
                and self.den == other.den and self.aux == other.aux)

    def __bool__(self):
        return bool(self.num)

    # -- field operations ----------------------------------------------------

    def __add__(self, other):
        if not self.num:
            return other
        if not other.num:
            return self
        if self.aux != other.aux:
            raise ScalarError(
                "cannot add scalars with different auxiliary monomials: "
                f"{self} and {other}"
            )
        # both numerators over the smaller power of s
        p, q, val = self.num, other.num, self.val
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
                return _scalar(num, POLY_ONE, self.aux, val + v)
            return Scalar(num, self.den, self.aux, val)
        num = poly_add(poly_mul(p, other.den), poly_mul(q, self.den))
        return Scalar(num, poly_mul(self.den, other.den), self.aux, val)

    def __sub__(self, other):
        return self + (-other) if other.num else self

    def __neg__(self):
        if not self.num:
            return self
        return _scalar(poly_neg(self.num), self.den, self.aux, self.val)

    def __mul__(self, other):
        if not self.num or not other.num:
            return ZERO
        # both numerators have a nonzero constant coefficient, so their
        # product has one too
        num = poly_mul(self.num, other.num)
        aux = _aux_mul(self.aux, other.aux)
        val = self.val + other.val
        if self.den == POLY_ONE and other.den == POLY_ONE:
            return _scalar(num, POLY_ONE, aux, val)
        return Scalar(num, poly_mul(self.den, other.den), aux, val)

    def inverse(self):
        if not self.num:
            raise ScalarError("division by zero")
        aux = tuple((sym, -e) for sym, e in self.aux)
        # num and den are coprime already: only the new den is made monic
        num, den = _monic(self.den, self.num)
        return _scalar(num, den, aux, -self.val)

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
        """Evaluate at s = sp.value; auxiliary monomial is preserved."""
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
        return _scalar(_scale(nv, *_unit(dv)), POLY_ONE, self.aux, 0)

    # -- printing --------------------------------------------------------------

    def __str__(self):
        return scalar_str(self)

    def __repr__(self):
        return f"Scalar({scalar_str(self)!r})"


def _scalar(num, den, aux, val) -> Scalar:
    # internal constructor: (num, den, aux, val) is canonical already
    out = Scalar.__new__(Scalar)
    out.num, out.den, out.aux, out.val, out._hash = num, den, aux, val, None
    return out


def _aux_mul(a, b):
    if not b:
        return a
    if not a:
        return b
    exps = dict(a)
    for sym, e in b:
        exps[sym] = exps.get(sym, 0) + e
    return tuple(sorted((sym, e) for sym, e in exps.items() if e))


def _canonicalize(num, den, aux, val):
    if not den:
        raise ScalarError("zero denominator")
    if not num:
        return POLY_ZERO, POLY_ONE, (), 0
    aux = tuple(sorted((s, e) for s, e in aux if e))
    num, v = _strip(num)
    den, w = _strip(den)
    val += v - w
    if den == POLY_ONE:
        return num, den, aux, val
    if len(den) > 3:
        g = poly_gcd(num, den)
        if len(g) > 3:
            num, _ = poly_divmod(num, g)
            den, _ = poly_divmod(den, g)
    num, den = _monic(num, den)
    return num, den, aux, val


def _monic(num, den):
    """num and den times the constant that makes den monic."""
    if den[-1] or den[-2] != den[0]:
        unit = _unit(den)
        return _scale(num, *unit), _scale(den, *unit)
    return num, den


def clear_denominators(values):
    """([c*v for v in values], c) with c the monic lcm of their
    denominators: each c*v is a Laurent polynomial in s (den == ONE)
    times its auxiliary monomial."""
    c = POLY_ONE
    for den in {v.den for v in values} - {POLY_ONE}:
        cofactor, _ = poly_divmod(den, poly_gcd(c, den))
        c = poly_mul(c, cofactor)
    return ([_scalar(poly_mul(v.num, poly_divmod(c, v.den)[0]), POLY_ONE,
                     v.aux, v.val) for v in values],
            _scalar(c, POLY_ONE, (), 0))


ZERO = Scalar(POLY_ZERO)
ONE = Scalar(POLY_ONE)
S = Scalar(POLY_S)
Q = S * S


def _constant(a, b=0, d=1) -> Scalar:
    """The constant (a + b*i)/d, d != 0."""
    return _scalar(_canon([d, a, b]), POLY_ONE, (), 0)


I = _constant(0, 1)
MINUS_ONE = _constant(-1)


def from_int(n) -> Scalar:
    return _constant(n)


def aux_symbol(name: str, exponent: int = 1) -> Scalar:
    return Scalar(POLY_ONE, POLY_ONE, ((name, exponent),))


def s_power(e: int) -> Scalar:
    """s^e as a Scalar, e may be negative."""
    return _scalar(POLY_ONE, POLY_ONE, (), e)


def q_power(e: int) -> Scalar:
    return s_power(2 * e)


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
    if not value.is_constant() or value.aux:
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
    if x.aux and (" " in body or "/" in body):
        body = f"({body})"
    for sym, e in x.aux:
        aux = sym if e == 1 else f"{sym}^{e}"
        if body == "1":
            body = aux
        elif body == "-1":
            body = f"-{aux}"
        else:
            body = f"{body}*{aux}"
    return body


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


def _coeff_str(a, b, d):
    """(a + b*i)/d as a rational, a rational multiple of i, or a mixed
    value in parentheses, so that it can sit inside a product."""
    try:
        re, im = Fraction(a, d), Fraction(b, d)
        if not im:
            return str(re)
        mag = abs(im)
        istr = "i" if mag == 1 else f"{mag}*i"
        if not re:
            return istr if im > 0 else f"-{istr}"
        return f"({re}{'+' if im > 0 else '-'}{istr})"
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
# atom   := rational | "i" | "s" | "q" | "rho" | "(" expr ")" | "-" factor
# rational := int ("/" int)?

MAX_NESTING = 100
"""Cap on nested parentheses and unary minus signs, in either grammar.

Both parsers descend recursively, at most four frames per level, so the
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


class _Tokens:
    """Cursor over an input text; also the base of the element parser."""

    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.depth = 0

    @contextlib.contextmanager
    def nested(self):
        """One more level of parentheses or unary minus, up to the cap."""
        if self.depth == MAX_NESTING:
            raise self.error(f"parentheses and unary minus signs nest "
                             f"deeper than {MAX_NESTING} levels")
        self.depth += 1
        try:
            yield
        finally:
            self.depth -= 1

    def error(self, message) -> ScalarError:
        return ParseError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, token):
        self.skip_ws()
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def expect(self, token):
        if not self.take(token):
            raise self.error(f"expected {token!r}")

    def take_int(self, what="integer"):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start:
            raise self.error(f"expected {what}")
        digits = self.text[start:self.pos]
        try:
            return int(digits)
        except ValueError:  # Python caps str -> int (4300 digits by default)
            self.pos = start
            raise self.error(f"{what} of {len(digits)} digits is too long")

    def take_signed_int(self, what="integer"):
        neg = self.take("-")
        n = self.take_int(what)
        return -n if neg else n

    def take_word(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        return self.text[start:self.pos]


def parse_scalar(text: str, where: str | None = None) -> Scalar:
    """Parse a scalar expression; q is read as s^2.

    ``where`` names the text's place in a document (``r_matrix[1][1]``,
    ``eigenvalues.lambda1``); an error message then starts with it.
    """
    try:
        return _parse_scalar(text)
    except ScalarError as exc:
        if where is None:
            raise
        raise ScalarError(f"{where}: {exc}") from None


def _parse_scalar(text):
    toks = _Tokens(text)
    value = _parse_expr(toks)
    toks.skip_ws()
    if toks.pos != len(text):
        raise ParseError("trailing input", toks.pos)
    return value


def _parse_expr(toks):
    value = _parse_term(toks)
    while True:
        if toks.take("+"):
            value = value + _parse_term(toks)
        elif toks.take("-"):
            value = value - _parse_term(toks)
        else:
            return value


def _parse_term(toks):
    value = _parse_factor(toks)
    while True:
        if toks.take("*"):
            value = value * _parse_factor(toks)
        elif toks.take("/"):
            pos = toks.pos
            rhs = _parse_factor(toks)
            if rhs.is_zero():
                raise ParseError("division by zero", pos)
            value = value / rhs
        else:
            return value


def _parse_factor(toks):
    atom = _parse_atom(toks)
    if toks.take("^"):
        e = toks.take_signed_int()
        if e < 0 and atom.is_zero():
            raise ParseError("zero to a negative power", toks.pos)
        atom = atom ** e
    return atom


def _parse_atom(toks):
    ch = toks.peek()
    if ch == "(":
        toks.take("(")
        with toks.nested():
            value = _parse_expr(toks)
            toks.expect(")")
        return value
    if ch == "-":
        toks.take("-")
        with toks.nested():
            return -_parse_factor(toks)
    if ch.isdecimal():
        n = toks.take_int()
        if toks.peek() == "/":
            # lookahead: rational only when a digit follows the slash
            save = toks.pos
            toks.take("/")
            if toks.peek().isdecimal():
                d = toks.take_int()
                if d == 0:
                    raise ParseError("zero denominator", toks.pos)
                return _constant(n, 0, d)
            toks.pos = save
        return from_int(n)
    word = toks.take_word()
    if word == "i":
        return I
    if word == "s":
        return S
    if word == "q":
        return Q
    if word == "rho":
        return aux_symbol("rho")
    raise ParseError(f"unexpected token {word or ch!r}", toks.pos)
