"""Exact coefficient arithmetic for the quantum-plane engine.

All coefficients live in the field Q(i)(s) of rational functions in the
formal variable s over the Gaussian rationals, optionally multiplied by a
Laurent monomial in auxiliary central symbols (``rho`` for the squared
sphere radius).  The deformation parameter is always q = s^2, so that
half-integer powers of q are ordinary powers of s.

Canonical form of a :class:`GaussRational`: Gaussian integers a, b over
one integer d, (a + b*i)/d, with d > 0 and gcd(a, b, d) = 1.  Arithmetic
is plain ``int`` arithmetic plus one ``math.gcd``; ``fractions.Fraction``
appears only at the parse and print boundaries (``GaussRational(re, im)``
accepts Fractions, ``.re`` and ``.im`` read as Fractions).

Canonical form of a :class:`Scalar`:

* numerator and denominator are coprime polynomials in s over Q(i),
* the denominator is monic,
* zero is (0, 1) with an empty auxiliary monomial,
* auxiliary exponents are sorted by symbol name.

Structural equality of canonical forms is field equality, so zero-testing
is a dictionary lookup away everywhere else in the engine.
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
# Gaussian rationals
# ---------------------------------------------------------------------------

class GaussRational:
    """A number (a + b*i)/d with integers a, b, d, d > 0, gcd(a, b, d) = 1."""

    __slots__ = ("a", "b", "d", "_hash")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self.a, self.b, self.d = re, im, 1
        else:
            re, im = Fraction(re), Fraction(im)
            # over the lcm of the two reduced denominators no common factor
            # of a, b and d is left
            d = math.lcm(re.denominator, im.denominator)
            self.a = re.numerator * (d // re.denominator)
            self.b = im.numerator * (d // im.denominator)
            self.d = d
        self._hash = None

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    def __hash__(self):
        if self._hash is None:
            # the hash of the pair of Fractions (re, im); Fraction(n, 1)
            # hashes like n
            if self.d == 1:
                self._hash = hash((self.a, self.b))
            else:
                self._hash = hash((self.re, self.im))
        return self._hash

    def __eq__(self, other):
        if not isinstance(other, GaussRational):
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __add__(self, other):
        d1, d2 = self.d, other.d
        if d1 == d2:
            if d1 == 1:
                return _gr(self.a + other.a, self.b + other.b, 1)
            return _gr_reduced(self.a + other.a, self.b + other.b, d1)
        return _gr_reduced(self.a * d2 + other.a * d1,
                           self.b * d2 + other.b * d1, d1 * d2)

    def __sub__(self, other):
        d1, d2 = self.d, other.d
        if d1 == d2:
            if d1 == 1:
                return _gr(self.a - other.a, self.b - other.b, 1)
            return _gr_reduced(self.a - other.a, self.b - other.b, d1)
        return _gr_reduced(self.a * d2 - other.a * d1,
                           self.b * d2 - other.b * d1, d1 * d2)

    def __neg__(self):
        return _gr(-self.a, -self.b, self.d)

    def __mul__(self, other):
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        a = a1 * a2 - b1 * b2
        b = a1 * b2 + b1 * a2
        d = self.d * other.d
        if d == 1:
            return _gr(a, b, 1)
        return _gr_reduced(a, b, d)

    def inverse(self):
        a, b = self.a, self.b
        n = a * a + b * b
        if not n:
            raise ScalarError("division by zero")
        d = self.d
        return _gr_reduced(d * a, -d * b, n)

    def __truediv__(self, other):
        return self * other.inverse()

    def __repr__(self):
        return f"GaussRational({self.re!r}, {self.im!r})"

    def __str__(self):
        re, im = self.re, self.im
        try:
            if not im:
                return str(re)
            if not re:
                if im == 1:
                    return "i"
                if im == -1:
                    return "-i"
                return f"{im}*i"
            # mixed values are parenthesised so they can sit inside a product
            sign = "+" if im > 0 else "-"
            mag = abs(im)
            istr = "i" if mag == 1 else f"{mag}*i"
            return f"({re}{sign}{istr})"
        except ValueError:  # Python caps int -> str (4300 digits by default)
            raise ScalarError("a coefficient is too long to print")


def _gr(a, b, d) -> GaussRational:
    # internal constructor: (a, b, d) is canonical already
    out = GaussRational.__new__(GaussRational)
    out.a = a
    out.b = b
    out.d = d
    out._hash = None
    return out


def _gr_reduced(a, b, d) -> GaussRational:
    # internal constructor: d > 0; divides out gcd(a, b, d)
    g = math.gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    return _gr(a, b, d)


GR_ZERO = GaussRational(0)
GR_ONE = GaussRational(1)
GR_I = GaussRational(0, 1)


def _gr_sqrt(value: GaussRational):
    """Square root of a Gaussian rational inside Q(i), or None."""

    def _frac_sqrt(f):
        if f < 0:
            return None
        p, q = f.numerator, f.denominator
        rp, rq = _isqrt(p), _isqrt(q)
        if rp is None or rq is None:
            return None
        return Fraction(rp, rq)

    def _isqrt(n):
        r = math.isqrt(n)
        return r if r * r == n else None

    c, d = value.re, value.im
    if not d:
        r = _frac_sqrt(c)
        if r is not None:
            return GaussRational(r)
        r = _frac_sqrt(-c)
        if r is not None:
            return GaussRational(0, r)
        return None
    # (a+bi)^2 = c+di: a^2 = (c + |z|)/2 with |z| = sqrt(c^2+d^2)
    norm = _frac_sqrt(c * c + d * d)
    if norm is None:
        return None
    a2 = (c + norm) / 2
    a = _frac_sqrt(a2)
    if a is None or not a:
        return None
    b = d / (2 * a)
    return GaussRational(a, b)


# ---------------------------------------------------------------------------
# Polynomials in s over the Gaussian rationals
# ---------------------------------------------------------------------------
# A polynomial is a tuple of GaussRational coefficients in ascending degree
# with a nonzero last entry; () is the zero polynomial.

def poly_trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


POLY_ZERO = ()
POLY_ONE = (GR_ONE,)
POLY_S = (GR_ZERO, GR_ONE)


def poly_add(a, b):
    n = max(len(a), len(b))
    out = []
    for k in range(n):
        x = a[k] if k < len(a) else GR_ZERO
        y = b[k] if k < len(b) else GR_ZERO
        out.append(x + y)
    return poly_trim(out)


def poly_neg(a):
    return tuple(-c for c in a)


def poly_mul(a, b):
    if not a or not b:
        return POLY_ZERO
    out = [GR_ZERO] * (len(a) + len(b) - 1)
    for j, x in enumerate(a):
        if not x:
            continue
        for k, y in enumerate(b):
            if y:
                out[j + k] = out[j + k] + x * y
    return poly_trim(out)


def poly_scale(a, c):
    if not c:
        return POLY_ZERO
    return tuple(x * c for x in a)


def poly_divmod(a, b):
    if not b:
        raise ScalarError("polynomial division by zero")
    rem = list(a)
    quot = [GR_ZERO] * max(0, len(a) - len(b) + 1)
    inv_lead = b[-1].inverse()
    for shift in range(len(a) - len(b), -1, -1):
        c = rem[shift + len(b) - 1] * inv_lead
        if not c:
            continue
        quot[shift] = c
        for k, y in enumerate(b):
            rem[shift + k] = rem[shift + k] - c * y
    return poly_trim(quot), poly_trim(rem)


def poly_gcd(a, b):
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, r
    if not a:
        return POLY_ZERO
    return poly_scale(a, a[-1].inverse())  # monic


def poly_eval(a, x: GaussRational):
    acc = GR_ZERO
    for c in reversed(a):
        acc = acc * x + c
    return acc


def poly_str(a):
    return _laurent_str(a, 0) if a else "0"


# ---------------------------------------------------------------------------
# Scalar: element of Q(i)(s) times a Laurent monomial in auxiliary symbols
# ---------------------------------------------------------------------------

MAX_EXPONENT = 10_000
"""Cap on a power ``x ** e``: |e| times the weight of x may not exceed it.

The weight is the largest of 1, the degree of x in s and the bit length of
the largest integer in its coefficients.  A power within the cap has degree
at most 10^4 in s and coefficients of at most a few times 10^4 bits, so a
short input cannot ask for an unbounded result.  The squarings are
schoolbook products, so a dense base of high degree can still take seconds.
"""

class Scalar:
    """Canonical reduced rational function in s with an auxiliary monomial."""

    __slots__ = ("num", "den", "aux", "_hash")

    def __init__(self, num, den=POLY_ONE, aux=(), _canonical=False):
        if _canonical:
            self.num, self.den, self.aux = num, den, aux
        else:
            num, den, aux = _canonicalize(num, den, aux)
            self.num, self.den, self.aux = num, den, aux
        self._hash = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rational(value) -> "Scalar":
        return Scalar((GaussRational(value),) if Fraction(value) else POLY_ZERO)

    @staticmethod
    def from_gauss(value: GaussRational) -> "Scalar":
        return Scalar((value,) if value else POLY_ZERO)

    # -- canonical-form queries ---------------------------------------------

    def is_zero(self):
        return not self.num

    def is_constant(self):
        """Free of s (auxiliary monomial allowed)."""
        return len(self.num) <= 1 and self.den == POLY_ONE

    def constant_value(self) -> GaussRational:
        if not self.is_constant() or self.aux:
            raise ScalarError(f"not a plain constant: {self}")
        return self.num[0] if self.num else GR_ZERO

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.num, self.den, self.aux))
        return self._hash

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return (
            self.num == other.num
            and self.den == other.den
            and self.aux == other.aux
        )

    def __bool__(self):
        return bool(self.num)

    # -- field operations ----------------------------------------------------

    def __add__(self, other):
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.aux != other.aux:
            raise ScalarError(
                "cannot add scalars with different auxiliary monomials: "
                f"{self} and {other}"
            )
        if self.den == POLY_ONE and other.den == POLY_ONE:
            num = poly_add(self.num, other.num)
            if not num:
                return ZERO
            return Scalar(num, POLY_ONE, self.aux, _canonical=True)
        num = poly_add(poly_mul(self.num, other.den), poly_mul(other.num, self.den))
        den = poly_mul(self.den, other.den)
        return Scalar(num, den, self.aux)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Scalar(poly_neg(self.num), self.den, self.aux, _canonical=True)

    def __mul__(self, other):
        if self.is_zero() or other.is_zero():
            return ZERO
        num = poly_mul(self.num, other.num)
        aux = _aux_mul(self.aux, other.aux)
        if self.den == POLY_ONE and other.den == POLY_ONE:
            return Scalar(num, POLY_ONE, aux, _canonical=True)
        den = poly_mul(self.den, other.den)
        return Scalar(num, den, aux)

    def inverse(self):
        if self.is_zero():
            raise ScalarError("division by zero")
        aux = tuple((sym, -e) for sym, e in self.aux)
        return Scalar(self.den, self.num, aux)

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, e: int):
        """Repeated squaring; refuses powers larger than ``MAX_EXPONENT``."""
        weight = max(1, len(self.num) - 1, len(self.den) - 1,
                     *(max(c.a.bit_length(), c.b.bit_length(),
                           c.d.bit_length()) for c in self.num + self.den))
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
        dv = poly_eval(self.den, sp.value)
        if not dv:
            raise ScalarError(f"pole at s = {sp.value}: {self}")
        nv = poly_eval(self.num, sp.value)
        val = nv / dv
        return Scalar((val,) if val else POLY_ZERO, POLY_ONE, self.aux if val else ())

    # -- printing --------------------------------------------------------------

    def __str__(self):
        return scalar_str(self)

    def __repr__(self):
        return f"Scalar({scalar_str(self)!r})"


def _aux_mul(a, b):
    exps = dict(a)
    for sym, e in b:
        exps[sym] = exps.get(sym, 0) + e
    return tuple(sorted((sym, e) for sym, e in exps.items() if e))


def _canonicalize(num, den, aux):
    num = poly_trim(num)
    den = poly_trim(den)
    if not den:
        raise ScalarError("zero denominator")
    if not num:
        return POLY_ZERO, POLY_ONE, ()
    aux = tuple(sorted((s, e) for s, e in aux if e))
    if den == POLY_ONE:
        return num, den, aux
    if not any(den[:-1]):
        # monomial denominator c*s^k: cancel the s-valuation directly
        v = 0
        while not num[v]:
            v += 1
        shift = min(v, len(den) - 1)
        if shift:
            num = num[shift:]
            den = den[shift:]
    else:
        g = poly_gcd(num, den)
        if len(g) > 1:
            num, _ = poly_divmod(num, g)
            den, _ = poly_divmod(den, g)
    lead = den[-1]
    if lead != GR_ONE:
        inv = lead.inverse()
        num = poly_scale(num, inv)
        den = poly_scale(den, inv)
    return num, den, aux


ZERO = Scalar(POLY_ZERO)
ONE = Scalar(POLY_ONE)
S = Scalar(POLY_S)
Q = S * S
I = Scalar((GR_I,))
MINUS_ONE = Scalar((-GR_ONE,))


def from_int(n) -> Scalar:
    return Scalar.from_rational(n)


def aux_symbol(name: str, exponent: int = 1) -> Scalar:
    return Scalar(POLY_ONE, POLY_ONE, ((name, exponent),))


def s_power(e: int) -> Scalar:
    """s^e as a Scalar, e may be negative."""
    if e >= 0:
        return Scalar(poly_trim([GR_ZERO] * e + [GR_ONE]))
    return Scalar(POLY_ONE, poly_trim([GR_ZERO] * (-e) + [GR_ONE]))


def q_power(e: int) -> Scalar:
    return s_power(2 * e)


class Specialization:
    """Exact substitution s -> value, value a nonzero Gaussian rational."""

    __slots__ = ("value",)

    def __init__(self, value: GaussRational):
        if not value:
            raise ScalarError("specialization value must be nonzero")
        self.value = value

    @staticmethod
    def from_q(q_value: GaussRational) -> "Specialization":
        """Resolve s = q^(1/2) inside Q(i); prefers i over -i and 1 over -1."""
        root = _gr_sqrt(q_value)
        if root is None:
            raise ScalarError(f"q value {q_value} has no square root in Q(i)")
        if root.re < 0 or (root.re == 0 and root.im < 0):
            root = -root
        return Specialization(root)

    def __eq__(self, other):
        return isinstance(other, Specialization) and self.value == other.value

    def __hash__(self):
        return hash(("Specialization", self.value))

    def __str__(self):
        return f"s={self.value}"


# ---------------------------------------------------------------------------
# Canonical printing
# ---------------------------------------------------------------------------

def _den_monomial_degree(den):
    """Degree k if den == s^k, else None."""
    if den[-1] != GR_ONE:
        return None
    for c in den[:-1]:
        if c:
            return None
    return len(den) - 1


def scalar_str(x: Scalar) -> str:
    if x.is_zero():
        return "0"
    k = _den_monomial_degree(x.den)
    if k is not None:
        body = _laurent_str(x.num, -k)
    else:
        num = poly_str(x.num)
        den = poly_str(x.den)
        if len(x.num) > 1:
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
    for e in range(len(num) - 1, -1, -1):
        c = num[e]
        if not c:
            continue
        deg = e + shift
        if deg == 0:
            term = str(c)
        else:
            svar = "s" if deg == 1 else f"s^{deg}"
            if c == GR_ONE:
                term = svar
            elif c == -GR_ONE:
                term = f"-{svar}"
            else:
                term = f"{c}*{svar}"
        terms.append(term)
    return join_signed(terms)


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


def parse_scalar(text: str) -> Scalar:
    """Parse a scalar expression; q is read as s^2."""
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
                return Scalar.from_rational(Fraction(n, d))
            toks.pos = save
        return Scalar.from_rational(n)
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
