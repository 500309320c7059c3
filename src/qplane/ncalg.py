"""Noncommutative algebra of coordinates, differentials and derivatives.

Elements are finite linear combinations of words over three kinds of
generators (coordinate x_i, differential xi_i = dx_i, derivative d_i) with
scalar coefficients.  A plane's matrices determine a rewrite system whose
rules always rewrite a two-letter pattern to a combination of strictly
smaller words; normal forms sort every word into coordinate block,
differential block, derivative block.

The three same-kind families come from one pivoting of relation rows
(``_pivot_rules``): coordinates from E - B, differentials from E + D, and
derivatives from E - F read transposed, so that row (i, j) is sum over
(k, l) of (E - F)[(l, k), (i, j)] d_k d_l = 0.  On symmetric planes, where
that entry is (E - F)[(i, j), (l, k)], and with F = B this gives the
coordinate relations with each word reversed, e.g. d_y d_x = q d_x d_y on
gl2 (Wess-Zumino, Nucl. Phys. B Proc. Suppl. 18B, 1990).  A twisted
GL_q(n) (R[(i,j),(j,i)] = t, R[(j,i),(i,j)] = 1/t) is not symmetric, and
only the transposed reading resolves its d.d.x overlaps; the unreversed
reading fails even on gl2.  The three exchange families come from C and
D.

Termination measure, compared lexicographically per rewrite step:
(kind-inversion count, total degree, graded-lex rank).  Kind-inversion
count drops on every exchange rule, degree drops on the inhomogeneous
delta and quotient summands, and graded-lex rank drops on the same-kind
reordering rules because derivation pivots on the largest monomial.

Confluence is checked on critical pairs: every rule rewrites a two-letter
word and no two rules share one, so the only ambiguities are three-letter
overlaps, and ``confluence_selftest`` resolves each (Bergman's diamond
lemma, Adv. Math. 29, 1978).  Open premise: the measure is not yet a
semigroup order, so this is not yet a certificate of confluence.

A rewrite step sums ``c * reduce_word(prefix + w + suffix)`` over the
right-hand terms ``c * w`` of the rule into one dict, and takes each
product ``v * c`` from a memo of the rewrite system.  Canonical scalars
are equal exactly when their values are, so the memo is exact; a product
of values does not depend on the rules, so ``add_rule`` keeps it, and
copies made by ``capped`` share it.  ``normal_form`` and
``AlgebraElement.scale`` multiply without the memo: a warm session on the
symplectic layer calls them on ever new coefficients, and a memo there
would grow with the session.
"""

from __future__ import annotations

import copy
import random

from . import scalar
from .linalg import LegMatrix, identity, rref_rows
from .scalar import Scalar, ScalarError

COORD = 0
DIFF = 1
DERIV = 2


class NcalgError(ValueError):
    pass


# A generator is a pair (kind, index) with index 1-based; a word is a tuple
# of generators.

def gen(kind: int, index: int):
    return (kind, index)


def kind_inversions(word) -> int:
    """Number of letter pairs whose kinds are out of normal order."""
    inv = 0
    for a in range(len(word)):
        ka = word[a][0]
        for b in range(a + 1, len(word)):
            if ka > word[b][0]:
                inv += 1
    return inv


class AlgebraElement:
    """Finite map word -> scalar with no stored zero coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for w, c in terms.items():
                if not c.is_zero():
                    self.terms[w] = c

    @staticmethod
    def zero() -> "AlgebraElement":
        return AlgebraElement()

    @staticmethod
    def unit(c: Scalar = scalar.ONE) -> "AlgebraElement":
        return AlgebraElement({(): c})

    @staticmethod
    def from_word(word, c: Scalar = scalar.ONE) -> "AlgebraElement":
        return AlgebraElement({tuple(word): c})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            if w in out:
                s = out[w] + c
                if s.is_zero():
                    del out[w]
                else:
                    out[w] = s
            else:
                out[w] = c
        el = AlgebraElement()
        el.terms = out
        return el

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        el = AlgebraElement()
        el.terms = {w: -c for w, c in self.terms.items()}
        return el

    def scale(self, c: Scalar) -> "AlgebraElement":
        if c.is_zero():
            return AlgebraElement()
        el = AlgebraElement()
        el.terms = {w: v * c for w, v in self.terms.items()}
        return el

    def concat(self, other: "AlgebraElement") -> "AlgebraElement":
        """Free (unreduced) product."""
        out = AlgebraElement()
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                c = c1 * c2
                if w in out.terms:
                    s = out.terms[w] + c
                    if s.is_zero():
                        del out.terms[w]
                    else:
                        out.terms[w] = s
                elif not c.is_zero():
                    out.terms[w] = c
        return out

    def is_pure(self, kind: int) -> bool:
        return all(g[0] == kind for w in self.terms for g in w)

    def coefficient(self, word) -> Scalar:
        return self.terms.get(tuple(word), scalar.ZERO)

    def __repr__(self):
        return f"AlgebraElement({len(self.terms)} terms)"


class RewriteRule:
    """lhs two-generator pattern -> rhs element of strictly smaller words."""

    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs, rhs: AlgebraElement):
        self.lhs = lhs
        self.rhs = rhs

    def __repr__(self):
        return f"RewriteRule({self.lhs})"


class RewriteSystem:
    """Derived rule set for one plane; immutable after construction."""

    def __init__(self, dimension, generator_names, ranks, degree_cap=16):
        self.dimension = dimension
        self.generator_names = tuple(generator_names)
        # ranks[index-1] = position of that generator in the monomial order
        self.ranks = tuple(ranks)
        self.degree_cap = degree_cap
        self.rules = {}
        self.quotient_rule = None
        self._cache = {}
        # v * c for a normal-form coefficient v and a rule coefficient c;
        # kept across add_rule, since a product of values does not depend
        # on the rules
        self._products = {}

    def capped(self, degree_cap) -> "RewriteSystem":
        """This system with another degree cap, sharing rules and memos.

        Exact: no rule makes a word longer, so every word met while
        reducing is at most as long as the top-level word, and a cached
        normal form does not depend on the cap.
        """
        out = copy.copy(self)
        out.degree_cap = degree_cap
        return out

    # -- ordering ----------------------------------------------------------

    def gen_key(self, g):
        return (g[0], self.ranks[g[1] - 1])

    def word_key(self, word):
        return (len(word), tuple(self.gen_key(g) for g in word))

    def measure(self, word):
        return (kind_inversions(word), len(word), self.word_key(word))

    def generators(self, kinds=(COORD, DIFF, DERIV)):
        return [gen(k, i) for k in kinds for i in range(1, self.dimension + 1)]

    def gen_name(self, g):
        base = self.generator_names[g[1] - 1]
        if g[0] == COORD:
            return base
        if g[0] == DIFF:
            return f"d({base})"
        return f"D({base})"

    # -- construction ------------------------------------------------------

    def add_rule(self, lhs, rhs: AlgebraElement, quotient=False):
        lhs = tuple(lhs)
        lm = self.measure(lhs)
        for w in rhs.terms:
            if self.measure(w) >= lm:
                raise NcalgError(
                    f"rule {self._fmt_word(lhs)} -> {element_str(rhs, self)} "
                    f"does not decrease the termination measure at word "
                    f"{self._fmt_word(w)}"
                )
        rule = RewriteRule(lhs, rhs)
        self.rules[lhs] = rule
        if quotient:
            self.quotient_rule = rule
        self._cache = {}

    def renormalize_rules(self):
        """Re-reduce every rhs under the full system until stable."""
        for _ in range(8):
            changed = False
            for lhs, rule in list(self.rules.items()):
                nf = self.normal_form(rule.rhs)
                if nf != rule.rhs:
                    self.rules[lhs] = RewriteRule(lhs, nf)
                    changed = True
            self._cache = {}
            if not changed:
                return
        raise NcalgError("rule renormalization did not stabilize")

    def _fmt_word(self, word):
        return "*".join(self.gen_name(g) for g in word) or "1"

    # -- reduction ---------------------------------------------------------

    def _find_redex(self, word):
        for k in range(len(word) - 1):
            if (word[k], word[k + 1]) in self.rules:
                return k
        return None

    def reduce_word(self, word) -> AlgebraElement:
        word = tuple(word)
        if len(word) > self.degree_cap:
            raise NcalgError(
                f"word of degree {len(word)} exceeds the cap {self.degree_cap}"
            )
        hit = self._cache.get(word)
        if hit is not None:
            return hit
        k = self._find_redex(word)
        if k is None:
            result = AlgebraElement.from_word(word)
        else:
            result = self._rewrite_at(word, k)
        self._cache[word] = result
        return result

    def _rewrite_at(self, word, k) -> AlgebraElement:
        """Normal form of word after rewriting the redex at position k.

        Terms are kept in the order a sum of one scaled reduction after
        another gives: a word whose coefficient cancels is dropped, and
        appended again if a later term brings it back.
        """
        rule = self.rules[(word[k], word[k + 1])]
        prefix, suffix = word[:k], word[k + 2:]
        products = self._products
        out = {}
        for w, c in rule.rhs.terms.items():
            for w2, v in self.reduce_word(prefix + w + suffix).terms.items():
                prod = products.get((v, c))
                if prod is None:
                    prod = products[v, c] = v * c
                if w2 in out:
                    total = out[w2] + prod
                    if total.is_zero():
                        del out[w2]
                    else:
                        out[w2] = total
                else:
                    out[w2] = prod
        result = AlgebraElement()
        result.terms = out
        return result

    def normal_form(self, e: AlgebraElement) -> AlgebraElement:
        out = AlgebraElement()
        for w, c in e.terms.items():
            out = out + self.reduce_word(w).scale(c)
        return out


# ---------------------------------------------------------------------------
# Rule derivation
# ---------------------------------------------------------------------------

def build_rewrite_system(dimension, generator_names, ranks, b: LegMatrix,
                         c: LegMatrix, d: LegMatrix, f: LegMatrix,
                         quotient=None) -> RewriteSystem:
    """Derive the six rule families from a plane's B, C, D, F matrices.

    ``ranks`` places each generator in the monomial order.  ``quotient`` is
    an optional (central element, symbol) pair for the sphere-type central
    quotient: a pure coordinate AlgebraElement set equal to the symbol.
    """
    sys = RewriteSystem(dimension, generator_names, ranks)
    e = identity(dimension, 2)
    m = e - f
    families = ((COORD, (e - b).at), (DIFF, (e + d).at),
                (DERIV, lambda row, col: m.at(col[::-1], row)))
    for kind, entry in families:
        for lhs, rhs in _pivot_rules(sys, kind, entry):
            sys.add_rule(lhs, rhs)
    _add_exchange_rules(sys, c, d)
    if quotient is not None:
        _add_quotient_rule(sys, *quotient)
        sys.renormalize_rules()
    return sys


def _pivot_rules(sys: RewriteSystem, kind: int, entry):
    """Same-kind rules from relation rows, pivoting on the largest words.

    Row (i, j) is the relation sum over (k, l) of entry((i, j), (k, l)) g_k g_l
    = 0 for generators g of ``kind``.  Yields (lhs word, rhs element) pairs.
    """
    n = sys.dimension
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    words = [(gen(kind, i), gen(kind, j)) for i, j in pairs]
    order = sorted(range(len(words)), key=lambda t: sys.word_key(words[t]),
                   reverse=True)
    rows = []
    for pair in pairs:
        row = {}
        for c, t in enumerate(order):
            v = entry(pair, pairs[t])
            if not v.is_zero():
                row[c] = v
        rows.append(row)
    reduced, pivots = rref_rows(rows, len(order))
    for r, pivot_col in enumerate(pivots):
        rhs = AlgebraElement()
        for c, v in sorted(reduced[r].items()):
            if c > pivot_col:
                rhs = rhs + AlgebraElement.from_word(words[order[c]], -v)
        yield words[order[pivot_col]], rhs


def _add_exchange_rules(sys: RewriteSystem, c_matrix: LegMatrix,
                        d_matrix: LegMatrix):
    n = sys.dimension
    rng = range(1, n + 1)
    # xi_a x_b -> D^{ab}_{ij} x_i xi_j   (inversion of x1 xi2 = C12 xi1 x2)
    for a in rng:
        for b in rng:
            rhs = AlgebraElement()
            for i in rng:
                for j in rng:
                    v = d_matrix.at((a, b), (i, j))
                    if not v.is_zero():
                        rhs = rhs + AlgebraElement.from_word(
                            (gen(COORD, i), gen(DIFF, j)), v)
            sys.add_rule((gen(DIFF, a), gen(COORD, b)), rhs)
    # d_k x_i -> delta_k^i + C^{ij}_{kl} x_l d_j
    for k in rng:
        for i in rng:
            rhs = AlgebraElement()
            if i == k:
                rhs = rhs + AlgebraElement.unit()
            for j in rng:
                for l in rng:
                    v = c_matrix.at((i, j), (k, l))
                    if not v.is_zero():
                        rhs = rhs + AlgebraElement.from_word(
                            (gen(COORD, l), gen(DERIV, j)), v)
            sys.add_rule((gen(DERIV, k), gen(COORD, i)), rhs)
    # d_k xi_i -> D^{ij}_{kl} xi_l d_j
    for k in rng:
        for i in rng:
            rhs = AlgebraElement()
            for j in rng:
                for l in rng:
                    v = d_matrix.at((i, j), (k, l))
                    if not v.is_zero():
                        rhs = rhs + AlgebraElement.from_word(
                            (gen(DIFF, l), gen(DERIV, j)), v)
            sys.add_rule((gen(DERIV, k), gen(DIFF, i)), rhs)


def _add_quotient_rule(sys: RewriteSystem, central: AlgebraElement,
                       symbol: str):
    """Quotient by (central element = symbol), derived in the plane's field."""
    nf = sys.normal_form(central)
    rel = nf - AlgebraElement.unit(scalar.aux_symbol(symbol))
    if rel.is_zero():
        raise NcalgError("central element already equals the quotient symbol")
    lead = max(rel.terms, key=sys.word_key)
    if len(lead) != 2:
        raise NcalgError(f"quotient lead monomial {lead} is not quadratic")
    c = rel.terms[lead]
    rest = AlgebraElement()
    rest.terms = {w: v for w, v in rel.terms.items() if w != lead}
    sys.add_rule(lead, rest.scale(-(c.inverse())), quotient=True)


# ---------------------------------------------------------------------------
# Core operations
# ---------------------------------------------------------------------------

def multiply(a: AlgebraElement, b: AlgebraElement, sys: RewriteSystem
             ) -> AlgebraElement:
    return sys.normal_form(a.concat(b))


def derivative_action(i: int, f: AlgebraElement, sys: RewriteSystem
                      ) -> AlgebraElement:
    """Function part of moving d_i through a pure-coordinate element."""
    moved = _move_derivative(i, f, sys)
    out = AlgebraElement()
    out.terms = {w: c for w, c in moved.terms.items()
                 if all(g[0] != DERIV for g in w)}
    return out


def transport(i: int, f: AlgebraElement, sys: RewriteSystem):
    """Homogeneous part: d_i f = action + sum_j h_j d_j; returns {j: h_j}."""
    moved = _move_derivative(i, f, sys)
    table = {}
    for w, c in moved.terms.items():
        positions = [k for k, g in enumerate(w) if g[0] == DERIV]
        if not positions:
            continue
        if positions != [len(w) - 1]:
            raise NcalgError(f"unexpected derivative placement in {w}")
        j = w[-1][1]
        table.setdefault(j, AlgebraElement())
        table[j] = table[j] + AlgebraElement.from_word(w[:-1], c)
    return {j: h for j, h in table.items() if not h.is_zero()}


def _move_derivative(i, f, sys):
    if not f.is_pure(COORD):
        raise NcalgError("derivative requires a pure-coordinate element")
    deriv = AlgebraElement.from_word((gen(DERIV, i),))
    return sys.normal_form(deriv.concat(f))


def is_central(e: AlgebraElement, sys: RewriteSystem) -> bool:
    """True iff e commutes with every coordinate generator."""
    for g in sys.generators(kinds=(COORD,)):
        x = AlgebraElement.from_word((g,))
        if not sys.normal_form(e.concat(x) - x.concat(e)).is_zero():
            return False
    return True


# ---------------------------------------------------------------------------
# Confluence self-test
# ---------------------------------------------------------------------------

class ConfluenceReport:
    def __init__(self, samples, overlaps, mismatches):
        self.samples = samples
        self.overlaps = overlaps
        self.mismatches = mismatches

    @property
    def ok(self):
        return not self.mismatches

    def __repr__(self):
        status = "ok" if self.ok else f"{len(self.mismatches)} mismatches"
        return (f"ConfluenceReport(samples={self.samples}, "
                f"overlaps={self.overlaps}, {status})")


def confluence_selftest(sys: RewriteSystem, sample_count=200, max_degree=5,
                        seed=0) -> ConfluenceReport:
    """Resolve every three-letter overlap, then seeded random words.

    ``overlaps`` counts all n^3 three-letter words, but only those with
    two redexes are reduced: no other word can disagree.
    """
    rng = random.Random(seed)
    gens = sys.generators()
    overlap_count = len(gens) ** 3
    follows = {g: [h for h in gens if (g, h) in sys.rules] for g in gens}
    words = [(g1, g2, g3) for g1 in gens for g2 in follows[g1]
             for g3 in follows[g2]]
    for _ in range(sample_count):
        length = rng.randint(1, max_degree)
        words.append(tuple(rng.choice(gens) for _ in range(length)))
    mismatches = [m for m in (_critical_pair_mismatch(sys, w) for w in words)
                  if m is not None]
    return ConfluenceReport(sample_count, overlap_count, mismatches)


def _critical_pair_mismatch(sys: RewriteSystem, word):
    """The mismatch (word, left, right), or None when the two agree.

    left is the normal form; right is the normal form after the last redex
    is rewritten first.  A word with fewer than two redexes cannot disagree.
    """
    redexes = [k for k in range(len(word) - 1)
               if (word[k], word[k + 1]) in sys.rules]
    if len(redexes) < 2:
        return None
    left = sys.reduce_word(word)
    right = sys._rewrite_at(word, redexes[-1])
    return None if left == right else (word, left, right)


# ---------------------------------------------------------------------------
# Element grammar
# ---------------------------------------------------------------------------
# expr := term (("+"|"-") term)* ; term := factor ("*" factor)* ;
# factor := atom ("^" int)? ;
# atom := scalar-atom | generator | "d(" name ")" | "D(" name ")"
#       | "(" expr ")" | "-" factor .

RESERVED_NAMES = {"i", "s", "q", "rho", "d", "D"}


def parse_element(text: str, sys: RewriteSystem) -> AlgebraElement:
    """Parse an element in the plane's generator names (free, unreduced)."""
    parser = _ElementParser(text, sys)
    value = parser.parse_expr()
    parser.skip_ws()
    if parser.pos != len(text):
        raise ScalarError(f"trailing input at position {parser.pos}: {text!r}")
    return value


class _ElementParser(scalar._Tokens):
    def __init__(self, text, sys):
        super().__init__(text)
        self.sys = sys
        # longest-first so that "x+" wins over a bare "x" prefix
        self.names = sorted(
            ((name, idx + 1) for idx, name in enumerate(sys.generator_names)),
            key=lambda t: -len(t[0]),
        )

    def error(self, message) -> ScalarError:
        return ScalarError(f"{message} at position {self.pos}")

    def match_generator(self):
        self.skip_ws()
        for name, idx in self.names:
            if self.text.startswith(name, self.pos):
                self.pos += len(name)
                return idx
        return None

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
                rhs = self.parse_factor()
                if not _is_scalar_element(rhs):
                    raise ScalarError("can only divide by scalar factors")
                value = value.scale(rhs.coefficient(()).inverse())
            else:
                return value

    def parse_factor(self):
        atom = self.parse_atom()
        if not self.take("^"):
            return atom
        e = self.take_signed_int("exponent")
        if _is_scalar_element(atom):
            return AlgebraElement.unit(atom.coefficient(()) ** e)
        if e < 0:
            raise ScalarError("negative powers only on scalar factors")
        cap = self.sys.degree_cap
        if e > cap:
            # the free algebra has no zero divisors, so atom^e has a word
            # of length at least e, which the cap would reject anyway
            raise ScalarError(f"power {e} exceeds the degree cap {cap}")
        out = AlgebraElement.unit()
        for _ in range(e):
            out = self.product(out, atom)
        return out

    def product(self, a, b):
        """The free product a*b, or a parse error when it could hold more
        than ``scalar.MAX_TERMS`` words."""
        if len(a.terms) * len(b.terms) > scalar.MAX_TERMS:
            raise self.error(f"expanding the product would make more than "
                             f"{scalar.MAX_TERMS} words")
        return a.concat(b)

    def parse_atom(self):
        if self.take("("):
            with self.nested():
                value = self.parse_expr()
                self.expect(")")
            return value
        if self.take("-"):
            with self.nested():
                return -self.parse_factor()
        # differentials and derivatives before generic name matching
        for prefix, kind in (("d(", DIFF), ("D(", DERIV)):
            if self.take(prefix):
                idx = self.match_generator()
                if idx is None:
                    raise self.error("unknown generator name")
                self.expect(")")
                return AlgebraElement.from_word((gen(kind, idx),))
        idx = self.match_generator()
        if idx is not None:
            return AlgebraElement.from_word((gen(COORD, idx),))
        # fall back to the scalar grammar for one atom
        return AlgebraElement.unit(scalar._parse_atom(self))


def _is_scalar_element(e: AlgebraElement) -> bool:
    return set(e.terms) <= {()}


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

def element_str(e: AlgebraElement, sys: RewriteSystem) -> str:
    """Canonical printing: words ascending in the plane's monomial order."""
    if e.is_zero():
        return "0"
    terms = []
    for w in sorted(e.terms, key=sys.word_key):
        c = e.terms[w]
        cstr = str(c)
        wstr = "*".join(sys.gen_name(g) for g in w)
        if not w:
            term = f"({cstr})" if " " in cstr else cstr
        elif cstr == "1":
            term = wstr
        elif cstr == "-1":
            term = f"-{wstr}"
        else:
            if " " in cstr:
                cstr = f"({cstr})"
            term = f"{cstr} * {wstr}"
        terms.append(term)
    return scalar.join_signed(terms)
