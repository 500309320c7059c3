"""The expression grammar against its former implementation.

The classes prefixed ``Ref`` are the former ``scalar.Parser`` and
``ncalg._ElementParser``, copied as they were before the parser read its
text into tokens: a character cursor that skipped whitespace before every
look, matched generator names longest-first at the cursor, and wrapped
every scalar of an element in an element of its own.  The current
``parse_scalar`` and ``parse_element`` must give the same value, the same
term insertion order, and the same exception class and message on seeded
valid and invalid texts of gl2, sphere_qm1 and a plane with a generator
``r``, whose name is a prefix of the constant ``rho``.
"""

import contextlib
import json
import random
import re

import pytest

from qplane import ncalg, planes, scalar
from qplane.ncalg import DERIV, DIFF, AlgebraElement, gen
from qplane.scalar import (MAX_NESTING, MAX_TERMS, NAMES, ParseError,
                           ScalarError, from_int, parse_scalar)

# -- the former implementation --------------------------------------------


class RefParser:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.depth = 0

    def parse_expr(self):
        value = self.parse_term()
        while True:
            if self.take("+"):
                value = value + self.parse_term()
            elif self.take("-"):
                value = value - self.parse_term()
            else:
                return value

    def parse_term(self):
        value = self.parse_factor()
        while True:
            if self.take("*"):
                value = self.product(value, self.parse_factor())
            elif self.take("/"):
                pos = self.pos
                value = self.divide(value, self.parse_factor(), pos)
            else:
                return value

    def parse_factor(self):
        atom = self.parse_atom()
        return self.power(atom) if self.take("^") else atom

    def parse_atom(self):
        if self.take("("):
            with self.nested():
                value = self.parse_expr()
                self.expect(")")
            return value
        if self.take("-"):
            with self.nested():
                return -self.parse_factor()
        return self.parse_name()

    def product(self, a, b):
        return a * b

    def divide(self, a, b, pos):
        if b.is_zero():
            raise ParseError("division by zero", pos)
        return a / b

    def power(self, base):
        return self.scalar_power(base, self.take_signed_int())

    def scalar_power(self, base, e):
        if e < 0 and base.is_zero():
            raise ParseError("zero to a negative power", self.pos)
        return base ** e

    def parse_name(self):
        ch = self.peek()
        if ch.isdecimal():
            n = self.take_int()
            if self.peek() == "/":
                save = self.pos
                self.take("/")
                if self.peek().isdecimal():
                    d = self.take_int()
                    if d == 0:
                        raise ParseError("zero denominator", self.pos)
                    return scalar._constant(n, 0, d)
                self.pos = save
            return from_int(n)
        if not ch:
            raise ParseError("unexpected end of input", self.pos)
        word = self.take_word()
        if word in NAMES:
            return NAMES[word]
        raise ParseError(f"unexpected token {word or ch!r}", self.pos)

    @contextlib.contextmanager
    def nested(self):
        if self.depth == MAX_NESTING:
            raise self.error(f"parentheses and unary minus signs nest "
                             f"deeper than {MAX_NESTING} levels")
        self.depth += 1
        try:
            yield
        finally:
            self.depth -= 1

    def error(self, message):
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
        except ValueError:
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


def ref_parse_scalar(text):
    parser = RefParser(text)
    value = parser.parse_expr()
    parser.skip_ws()
    if parser.pos != len(text):
        raise ParseError("trailing input", parser.pos)
    return value


def _is_scalar_element(e):
    return set(e.terms) <= {()}


class RefElementParser(RefParser):
    def __init__(self, text, sys, max_degree):
        super().__init__(text)
        self.max_degree = max_degree
        names = [(name, idx + 1)
                 for idx, name in enumerate(sys.generator_names)]
        names += [(name, None) for name in NAMES]
        self.names = sorted(names, key=lambda t: -len(t[0]))

    def error(self, message):
        return ScalarError(f"{message} at position {self.pos}")

    def match_generator(self):
        self.skip_ws()
        for name, idx in self.names:
            if self.text.startswith(name, self.pos):
                if idx is not None:
                    self.pos += len(name)
                return idx
        return None

    def product(self, a, b):
        if len(a.terms) * len(b.terms) > MAX_TERMS:
            raise self.error(f"expanding the product would make more than "
                             f"{MAX_TERMS} words")
        return a.concat(b)

    def divide(self, a, b, pos):
        if not _is_scalar_element(b):
            raise ScalarError("can only divide by scalar factors")
        return a.scale(super().divide(scalar.ONE, b.coefficient(()), pos))

    def power(self, base):
        e = self.take_signed_int("exponent")
        if _is_scalar_element(base):
            return AlgebraElement.unit(
                self.scalar_power(base.coefficient(()), e))
        if e < 0:
            raise ScalarError("negative powers only on scalar factors")
        if e > self.max_degree:
            raise ScalarError(
                f"power {e} exceeds the degree cap {self.max_degree}")
        out = AlgebraElement.unit()
        for _ in range(e):
            out = self.product(out, base)
        return out

    def parse_name(self):
        for prefix, kind in (("d(", DIFF), ("D(", DERIV)):
            if self.take(prefix):
                idx = self.match_generator()
                if idx is None:
                    raise self.error("unknown generator name")
                self.expect(")")
                return AlgebraElement.from_word((gen(kind, idx),))
        idx = self.match_generator()
        if idx is not None:
            return AlgebraElement.from_word((gen(ncalg.COORD, idx),))
        return AlgebraElement.unit(super().parse_name())


def ref_parse_element(text, sys, max_degree=16):
    parser = RefElementParser(text, sys, max_degree)
    value = parser.parse_expr()
    parser.skip_ws()
    if parser.pos != len(text):
        raise ScalarError(f"trailing input at position {parser.pos}: {text!r}")
    for w in value.terms:
        if len(w) > max_degree:
            raise ncalg.NcalgError(
                f"word of degree {len(w)} exceeds the cap {max_degree}")
    return value


# -- the planes and their texts --------------------------------------------

def _r_plane():
    doc = json.loads(planes.serialize_plane(planes.builtin_plane("gl2")))
    doc.update(generators=["r", "y"],
               symplectic={"form": "d(r)*d(y)", "scale": "1"})
    return planes.derive_plane(doc)


PLANES = {name: planes.builtin_plane(name) for name in ("gl2", "sphere_qm1")}
PLANES["r"] = _r_plane()

SCALAR_ATOMS = ["0", "1", "2", "12", "3/4", "i", "s", "q", "rho", "\u0663",
                "1\u0663"]
ODD_TOKENS = ["\u00b2", "foo", "$", "d", "D", "(", ")", "^", "^-", "/", "",
              "rhox", "x_1", " ", "\u00a0", "d (", "D(", "3/0"]


def _outcome(parse, *args):
    """(value, None) or (None, (exception class, message))."""
    try:
        return parse(*args), None
    except (ScalarError, ncalg.NcalgError) as exc:
        return None, (type(exc), str(exc))


def _assert_same_scalar(text):
    got, got_exc = _outcome(parse_scalar, text)
    want, want_exc = _outcome(ref_parse_scalar, text)
    assert got_exc == want_exc, text
    assert got == want, text


def _assert_same_element(text, plane, max_degree=16):
    sys = plane.system
    got, got_exc = _outcome(ncalg.parse_element, text, sys, max_degree)
    want, want_exc = _outcome(ref_parse_element, text, sys, max_degree)
    assert got_exc == want_exc, text
    if want is not None:
        # the same words, coefficients and insertion order
        assert list(got.terms.items()) == list(want.terms.items()), text


def _random_expr(rng, atoms, depth=0):
    """A seeded text of the grammar, spaced at random."""
    r = rng.random()
    space = rng.choice(["", "", " ", "\u00a0", "\t"])
    if depth > 3 or r < 0.35:
        return space + rng.choice(atoms)
    if r < 0.45:
        return f"-{_random_expr(rng, atoms, depth + 1)}"
    if r < 0.55:
        return f"({_random_expr(rng, atoms, depth + 1)}){space}"
    if r < 0.62:
        return (f"{_random_expr(rng, atoms, depth + 1)}^{space}"
                f"{rng.choice(['0', '1', '2', '3', '-1', '-2'])}")
    op = rng.choice(["+", "-", "*", "*", "/"])
    return (f"{_random_expr(rng, atoms, depth + 1)}{space}{op}"
            f"{_random_expr(rng, atoms, depth + 1)}")


def _corrupted(rng, text, pool):
    """``text`` with one token inserted, deleted or replaced."""
    k = rng.randrange(len(text) + 1)
    r = rng.random()
    if r < 0.4:
        return text[:k] + rng.choice(pool) + text[k:]
    if r < 0.7:
        return text[:k] + text[k + 1:]
    return text[:k] + rng.choice(pool) + text[k + 2:]


def _element_atoms(plane):
    names = list(plane.generator_names)
    return (SCALAR_ATOMS + names + [f"d({n})" for n in names]
            + [f"D({n})" for n in names])


# -- the tests --------------------------------------------------------------

def test_seeded_scalar_texts_match_the_former_parser():
    rng = random.Random(3401)
    for _ in range(600):
        text = _random_expr(rng, SCALAR_ATOMS)
        _assert_same_scalar(text)
        _assert_same_scalar(_corrupted(rng, text, ODD_TOKENS + SCALAR_ATOMS))


@pytest.mark.parametrize("name", sorted(PLANES))
def test_seeded_element_texts_match_the_former_parser(name):
    plane = PLANES[name]
    atoms = _element_atoms(plane)
    rng = random.Random(3402)
    for _ in range(400):
        text = _random_expr(rng, atoms)
        _assert_same_element(text, plane)
        _assert_same_element(_corrupted(rng, text, ODD_TOKENS + atoms),
                             plane)


# the named texts: unicode digits and spaces, the caps, and the errors
NAMED_TEXTS = [
    "\u0663", "\u0663/\u0664 + 1", "x\u00a0*\u00a0y", "\u00a0x*\u0662\u00a0",
    "x^\u00b2", "\u00b2*x", "2\u00b2", "q\u00b2",
    "3/0", "1/2/3", "1 / 2", "3/ 0", "3/(0)", "x/y", "x/0", "x/(1-1)",
    "d(z)", "d(x", "d()", "d(rho)", "d (x)", "D(y)*d(x)", "d(x+)",
    "x^17", "x^16", "x^-1", "(x-x)^-1", "0^-1", "x^", "x^ - 2", "x^2^3",
    "", "   ", "x y", "x )", "(x", "2 *", "x*", "rho*y", "r*rho", "rh",
    "x+*(x0", "2*foo", "x++x0", "x--x0", "x0-x-", "x+x", "ix0", "qx",
    "1 - 1 + x", "x + 1 - 1 + 2", "rho + 1", "x + rho - rho + 1",
    "rho - 1", "0*x", "x*0 + y",
]


@pytest.mark.parametrize("name", sorted(PLANES))
def test_named_texts_match_the_former_parser(name):
    for text in NAMED_TEXTS:
        _assert_same_scalar(text)
        _assert_same_element(text, PLANES[name])
    # the power bound of the call, below the default one
    _assert_same_element("x^5 + y", PLANES[name], max_degree=4)


def test_digit_cap_matches_the_former_parser():
    long = "7" * 4301
    for text in [long, f"x*{long}", f"1/{long}", f"x^{long}", "7" * 4300]:
        _assert_same_scalar(text)
        _assert_same_element(text, PLANES["gl2"])


@pytest.mark.parametrize("depth", [MAX_NESTING, MAX_NESTING + 1])
def test_nesting_cap_matches_the_former_parser(depth):
    texts = ["(" * depth + "q" + ")" * depth, "-" * depth + "q",
             "(" * depth + "x" + ")" * depth, "-" * depth + "x",
             "( " * depth + "x" + " )" * depth]
    for text in texts:
        _assert_same_scalar(text)
        _assert_same_element(text, PLANES["gl2"])


def _words(count):
    """A sum of ``count`` distinct words of degree 10 and 11 in x, y."""
    words = ["*".join("xy"[(k >> b) & 1] for b in range(10))
             for k in range(1024)]
    words += ["y*" + w for w in words]
    return " + ".join(words[:count])


@pytest.mark.parametrize("count", [MAX_TERMS, MAX_TERMS + 1])
def test_term_cap_matches_the_former_parser(count):
    plane, total = PLANES["gl2"], _words(count)
    for text in [f"({total})*x", f"2*({total})", f"0*({total})",
                 f"({total})*(x)^2 + y", f"({total})*2^2 - y",
                 f"({total}) * x^1 + x",
                 "(x+y)^10" if count == MAX_TERMS else "(x+y)^10*(x+y)"]:
        _assert_same_element(text, plane)


def test_parsing_compiles_no_regex_and_tokenizes_each_text_once(
        monkeypatch):
    plane = planes.builtin_plane("sphere_qm1")
    texts = [f"({k} + {k % 3}*i)*x+*x0 - x-^2 + d(x0)" for k in range(200)]
    plane.parse(texts[0])  # warm
    compiled, tokenized = [], []
    real_compile, real_tokenize = re.compile, scalar.tokenize

    def counting_compile(*args, **kwargs):
        compiled.append(args)
        return real_compile(*args, **kwargs)

    def counting_tokenize(text, names=None):
        tokenized.append(text)
        return real_tokenize(text, names)

    monkeypatch.setattr(re, "compile", counting_compile)
    monkeypatch.setattr(scalar, "tokenize", counting_tokenize)
    for text in texts:
        plane.parse(text)
    assert compiled == []
    assert tokenized == texts


def test_document_load_builds_no_name_table_without_an_element(
        glq_document):
    plane = planes.load_plane(json.dumps(glq_document(3)))
    assert "name_tokens" not in vars(plane.system)
    plane.parse("a*b")
    assert "name_tokens" in vars(plane.system)
