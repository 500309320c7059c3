"""Noncommutative algebra of coordinates, differentials and derivatives.

Elements are finite linear combinations of words over three kinds of
generators (coordinate x_i, differential xi_i = dx_i, derivative d_i) with
scalar coefficients.  A plane's matrices determine a rewrite system whose
rules always rewrite a two-letter pattern to a combination of strictly
smaller words; normal forms sort every word into coordinate block,
differential block, derivative block.

That layout is the calculus layer's one convention, stated here once:
functions left of differentials, differentials left of derivatives.
``blocks`` splits a normal word into its three blocks, and
``normal_words`` lists the normal words of one kind without reducing
any: rules rewrite two letters, so a word is normal exactly when no two
adjacent letters form a rule's left side.  Moving d_i through
a coordinate element f gives d_i f = action + sum_j h_j d_j, with the
action and each h_j pure coordinate; ``derivative_split`` reads
(action, {j: h_j}) off the one normal form of d_i f.  ``add_term`` is the
one accumulator of linear combinations.

The three same-kind families and the quotient rule are read off the
echelon basis of their relation rows (``linalg.echelon``, largest word
first): each row gives the rule lead -> -(row - lead).  Coordinates come
from E - B, differentials from E + D, and derivatives from the same E - B
read transposed, so that row (i, j) is sum over (k, l) of
(E - B)[(l, k), (i, j)] d_k d_l = 0.  (The Wess-Zumino calculus, Nucl.
Phys. B Proc. Suppl. 18B, 1990, reads derivatives from a fourth matrix F;
F = B on both solution families, so no plane stores it.)  On symmetric
planes, where that entry is (E - B)[(i, j), (l, k)], this gives the
coordinate relations with each word reversed, e.g. d_y d_x = q d_x d_y on
gl2.  A twisted GL_q(n) (R[(i,j),(j,i)] = t, R[(j,i),(i,j)] = 1/t) is not
symmetric, and only the transposed reading resolves its d.d.x overlaps;
the unreversed reading fails even on gl2.  The three exchange families
come from C and D: each nonzero entry is added to the right-hand side it
belongs to.

A central quotient (``quotient_system``) adds one rule to its plane's
rules, the central element set equal to ``rho``, solved for the
relation's largest word; every other rule is the plane's own, with its
right-hand side renormalized under the new one.

Every family is built from the nonzero entries of its matrix, never from
a dense n^4 grid of ``LegMatrix.at`` reads: rule building costs the
nonzero entries and their sort plus n^2 right-hand sides per family, and
the same-kind families then one elimination of n^2 sparse rows each.

Termination measure, compared lexicographically per rewrite step:
(kind-inversion count, total degree, graded-lex rank).  Kind-inversion
count drops on every exchange rule, degree drops on the inhomogeneous
delta and quotient summands, and graded-lex rank drops on the same-kind
reordering rules because derivation pivots on the largest monomial.

Every rule is made by ``RewriteSystem._rule``, renormalized quotient rules
included, and it refuses a rule l -> sum c_t t unless each term t has
lower measure than l and letter kinds that are a sub-multiset of l's.
Then the measure of a t b is below that of a l b for all words a and b:
the cross inversions of t with a and with b are at most those of l; the
length can only drop; and at equal inversions and equal length the kind
multisets are equal, so graded-lex rank decides, and it is compatible
with concatenation.  The closure of the rules under context is therefore
a semigroup partial order with the descending chain condition, compatible
with the rules.  Left sides have two letters and no two rules share one,
so there are no inclusion ambiguities and the only ambiguities are the
three-letter overlaps.  Bergman's diamond lemma (Adv. Math. 29, 1978,
Theorem 1.2) then says: every overlap resolves if and only if every word
has one normal form.  ``confluence_selftest`` resolves each overlap
(``critical_words`` lists the words with two redexes), so a clean
overlap check is a certificate and no sampled word can disagree; ``qplane
verify`` reports it as ``certified: 111 critical pairs among 729 overlap
words resolve`` on orth3.  The seeded random words it can also check
depend only on the generator set, the sample count, the maximal length
and the seed, so they are drawn once per such tuple and kept (a small
bounded memo).

There is one rewrite path.  ``reduce_word`` looks a word up in the
cache; a word not cached goes to the module function ``_reduce``, which
rewrites its leftmost redex (``_rewrite_at``, also the right-hand side of
a critical pair) and caches the result.  Both take the rules and the cache
as arguments, so a step does one ``rules.get`` per position and no method
or attribute lookup.  No rule makes a word longer, so a rewrite system
bounds no degree: a call's degree bound is checked where its words enter,
when ``parse_element`` reads them.  A rule carries its right-hand
side compiled, as (word w, coefficient c, memo) triples in term order,
built by ``add_rule`` and ``renormalize_rules``; the memo is the rewrite
system's ``_products[c]``, which maps a normal-form coefficient v to
v * c.  A rewrite step sums ``c * nf(prefix + w + suffix)`` over the
triples into one dict, each product read from the memo.  Canonical
scalars are equal exactly when their values are, so the memo is exact; a
product of values does not depend on the rules, so ``add_rule`` keeps it,
and the copy made by ``quotient_system`` shares it, the quotient's rules
included.
``normal_form`` merges each scaled word normal form into one dict in
place, and it and ``AlgebraElement.scale`` multiply without the memo: a
warm session on the symplectic layer calls them on ever new coefficients,
and a memo there would grow with the session.
"""

from __future__ import annotations

import copy
import functools
import random
from collections import namedtuple

from . import scalar
from .linalg import LegMatrix, echelon, identity
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
            add_term(out, w, c)
        return _element(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return _element({w: -c for w, c in self.terms.items()})

    def scale(self, c: Scalar) -> "AlgebraElement":
        if c.is_zero():
            return AlgebraElement()
        return _element({w: v * c for w, v in self.terms.items()})

    def concat(self, other: "AlgebraElement") -> "AlgebraElement":
        """Free (unreduced) product; a coefficient times 1 is itself."""
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                add_term(out, w1 + w2, c1 if c2 is scalar.ONE else c1 * c2)
        return _element(out)

    def is_pure(self, kind: int) -> bool:
        return all(g[0] == kind for w in self.terms for g in w)

    def coefficient(self, word) -> Scalar:
        return self.terms.get(tuple(word), scalar.ZERO)

    def __repr__(self):
        return f"AlgebraElement({len(self.terms)} terms)"


_new = object.__new__


def _element(terms) -> AlgebraElement:
    """An element over ``terms``, which hold no zero coefficient."""
    el = _new(AlgebraElement)
    el.terms = terms
    return el


def add_term(out, w, c):
    """Add c * w, for a nonzero c, to the terms ``out``: a word whose
    coefficient cancels is dropped, and appended again if a later term
    brings it back."""
    total = out.get(w)
    if total is None:
        out[w] = c
    else:
        total = total + c
        if total.is_zero():
            del out[w]
        else:
            out[w] = total


# lhs two-generator pattern -> rhs element of strictly smaller words, and
# the same rhs compiled: its terms as (word, c, memo) triples in term
# order, with memo the rewrite system's products {v: v * c}
RewriteRule = namedtuple("RewriteRule", "lhs rhs compiled")


class RewriteSystem:
    """Derived rule set for one plane; immutable after construction."""

    def __init__(self, dimension, generator_names, ranks):
        self.dimension = dimension
        self.generator_names = tuple(generator_names)
        # ranks[index-1] = position of that generator in the monomial order
        self.ranks = tuple(ranks)
        self.rules = {}
        self.quotient_rule = None
        self._cache = {}
        # c -> {v: v * c} for a rule coefficient c and a normal-form
        # coefficient v; kept across add_rule, since a product of values
        # does not depend on the rules
        self._products = {}

    @functools.cached_property
    def name_tokens(self):
        """The element grammar's names for ``scalar.tokenize``, built on
        the first parse: "d(" (kind DIFF), "D(" (DERIV), then generators
        (COORD) and constants (None) longest first, so that "x+" is one
        name and "rho" no generator "r".  "(" and "-" stay operators."""
        names = self.generator_names
        table = {"d": [("d(", DIFF)], "D": [("D(", DERIV)]}
        heads = {name[0] for name in names} - set("(-")
        for name in sorted([*names, *scalar.NAMES], key=len, reverse=True):
            if name[0] in heads:
                kind = COORD if name in names else None
                table.setdefault(name[0], []).append((name, kind))
        return table

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

    def word_str(self, word):
        return "*".join(self.gen_name(g) for g in word) or "1"

    # -- construction ------------------------------------------------------

    def add_rule(self, lhs, rhs: AlgebraElement):
        lhs = tuple(lhs)
        self.rules[lhs] = self._rule(lhs, rhs)
        self._cache = {}

    def _rule(self, lhs, rhs):
        """The rule lhs -> rhs, its rhs compiled against this system's
        product memo.

        Every rule is made here, renormalized ones included, so every rule
        keeps the diamond lemma's premise (see the module docstring): each
        right-hand term has lower measure than lhs, and letter kinds that
        are a sub-multiset of lhs's.
        """
        if lhs[0][0] < lhs[1][0]:
            # normal words are kind-sorted; so a coordinate head and a
            # differential tail reduce apart, which qplane.symp's
            # constraint spans rely on
            raise NcalgError(f"rule left side {self.word_str(lhs)} has "
                             "ascending kinds")
        lm = self.measure(lhs)
        for w in rhs.terms:
            if self.measure(w) >= lm:
                fault = "does not decrease the termination measure"
            elif not _kinds_within(w, lhs):
                fault = "has letter kinds that its left side lacks"
            else:
                continue
            raise NcalgError(
                f"rule {self.word_str(lhs)} -> {element_str(rhs, self)} "
                f"{fault} at word {self.word_str(w)}")
        products = self._products
        return RewriteRule(lhs, rhs, tuple(
            (w, c, products.setdefault(c, {})) for w, c in rhs.terms.items()))

    def renormalize_rules(self):
        """Re-reduce every rhs under the full system until stable."""
        for _ in range(8):
            changed = False
            for lhs, rule in list(self.rules.items()):
                nf = self.normal_form(rule.rhs)
                if nf != rule.rhs:
                    self.rules[lhs] = self._rule(lhs, nf)
                    changed = True
            self._cache = {}
            if not changed:
                return
        raise NcalgError("rule renormalization did not stabilize")

    # -- reduction ---------------------------------------------------------

    def reduce_word(self, word) -> AlgebraElement:
        word = tuple(word)
        hit = self._cache.get(word)
        if hit is not None:
            return hit
        return _reduce(word, self.rules, self._cache)

    def normal_form(self, e: AlgebraElement) -> AlgebraElement:
        """The sum of c * nf(w) over the terms c * w of e, merged into one
        dict in the order a sum of one scaled reduction after another
        gives."""
        out = {}
        for w, c in e.terms.items():
            for w2, v in self.reduce_word(w).terms.items():
                add_term(out, w2, v * c)
        return _element(out)


def _kinds_within(word, lhs) -> bool:
    """True when the letter kinds of ``word`` are a sub-multiset of the
    letter kinds of ``lhs``."""
    rest = [g[0] for g in lhs]
    for g in word:
        if g[0] not in rest:
            return False
        rest.remove(g[0])
    return True


def _reduce(word, rules, cache) -> AlgebraElement:
    """Normal form of a word that is not in ``cache``: its leftmost redex
    rewritten, or the word itself.  The result is cached."""
    for k in range(len(word) - 1):
        rule = rules.get(word[k:k + 2])
        if rule is not None:
            result = _rewrite_at(word, k, rule, rules, cache)
            break
    else:
        result = _new(AlgebraElement)
        result.terms = {word: scalar.ONE}
    cache[word] = result
    return result


def _rewrite_at(word, k, rule, rules, cache) -> AlgebraElement:
    """Normal form of word after rewriting its redex ``rule`` at position k.

    Terms are kept in the order a sum of one scaled reduction after
    another gives (see ``add_term``).
    """
    prefix, suffix = word[:k], word[k + 2:]
    out = {}
    for w, c, products in rule.compiled:
        sub = prefix + w + suffix
        nf = cache.get(sub)
        if nf is None:
            nf = _reduce(sub, rules, cache)
        for w2, v in nf.terms.items():
            prod = products.get(v)
            if prod is None:
                prod = products[v] = v * c
            # add_term, inlined in the rewrite step
            total = out.get(w2)
            if total is None:
                out[w2] = prod
            else:
                total = total + prod
                if total.is_zero():
                    del out[w2]
                else:
                    out[w2] = total
    result = _new(AlgebraElement)
    result.terms = out
    return result


# ---------------------------------------------------------------------------
# Rule derivation
# ---------------------------------------------------------------------------

def build_rewrite_system(dimension, generator_names, ranks, b: LegMatrix,
                         c: LegMatrix, d: LegMatrix) -> RewriteSystem:
    """Derive the six rule families from a plane's B, C, D matrices.

    ``ranks`` places each generator in the monomial order.  Every family
    is built from the nonzero entries of its matrix.
    """
    sys = RewriteSystem(dimension, generator_names, ranks)
    e = identity(dimension, 2)
    coord = pair_entries(e - b)
    # the D.D row (i, j) is read from column (i, j) of E - B, and its
    # word d_k d_l from row (l, k)
    deriv = {(cp, rp[::-1]): v for (rp, cp), v in coord.items()}
    families = ((COORD, coord), (DIFF, pair_entries(e + d)),
                (DERIV, deriv))
    for kind, entries in families:
        for lhs, rhs in _pivot_rules(sys, kind, entries):
            sys.add_rule(lhs, rhs)
    _add_exchange_rules(sys, c, d)
    return sys


def pair_entries(m: LegMatrix):
    """The nonzero entries of a two-leg matrix as {(row pair, col pair):
    value}, each pair of 1-based leg indices."""
    n = m.base_dim
    return {((r // n + 1, r % n + 1), (c // n + 1, c % n + 1)): v
            for (r, c), v in m.entries.items()}


def _pivot_rules(sys: RewriteSystem, kind: int, entries):
    """Same-kind rules from relation rows, pivoting on the largest words.

    Row (i, j) is the relation sum over (k, l) of
    entries[(i, j), (k, l)] g_k g_l = 0 for generators g of ``kind``;
    ``entries`` holds the nonzero coefficients only.  Yields (lhs word, rhs
    element) pairs.
    """
    rows = {}
    for (row_pair, (k, l)), v in entries.items():
        rows.setdefault(row_pair, {})[gen(kind, k), gen(kind, l)] = v
    for lead, row in echelon(rows.values(), sys.word_key).items():
        yield lead, _solved_for(lead, row)


def _solved_for(lead, row):
    """The rhs of lead -> rhs from a relation row monic at ``lead``."""
    return _element({w: -v for w, v in row.items() if w != lead})


def _add_exchange_rules(sys: RewriteSystem, c_matrix: LegMatrix,
                        d_matrix: LegMatrix):
    """The xi.x, d.x and d.xi rules, from the nonzero entries of C and D.

    Each entry ((i, j), (k, l)) is added to the right-hand side it belongs
    to.  Sorted pair keys are in row-major order of the matrix indices, so
    each right-hand side's terms are inserted in (i, j) order for xi_a x_b
    and in (j, l) order for d_k x_i and d_k xi_i.
    """
    rng = range(1, sys.dimension + 1)
    # the right-hand sides in rule order, each d_k x_k's delta first
    rhs = {(gen(left, a), gen(right, b)): {}
           for left, right in ((DIFF, COORD), (DERIV, COORD), (DERIV, DIFF))
           for a in rng for b in rng}
    for k in rng:
        rhs[gen(DERIV, k), gen(COORD, k)][()] = scalar.ONE
    # d_k x_i -> delta_k^i + C^{ij}_{kl} x_l d_j
    for ((i, j), (k, l)), v in sorted(pair_entries(c_matrix).items()):
        rhs[gen(DERIV, k), gen(COORD, i)][gen(COORD, l), gen(DERIV, j)] = v
    for ((i, j), (k, l)), v in sorted(pair_entries(d_matrix).items()):
        # xi_i x_j -> D^{ij}_{kl} x_k xi_l  (inversion of x1 xi2 = C12 xi1 x2)
        rhs[gen(DIFF, i), gen(COORD, j)][gen(COORD, k), gen(DIFF, l)] = v
        # d_k xi_i -> D^{ij}_{kl} xi_l d_j
        rhs[gen(DERIV, k), gen(DIFF, i)][gen(DIFF, l), gen(DERIV, j)] = v
    for lhs, terms in rhs.items():
        sys.add_rule(lhs, AlgebraElement(terms))


def quotient_system(sys: RewriteSystem, central: AlgebraElement
                    ) -> RewriteSystem:
    """``sys`` modulo (central element = rho): a copy with its own rules
    and a fresh cache, plus the one rule solved for the relation's largest
    word, and every right-hand side renormalized under it."""
    rel = sys.normal_form(central) - AlgebraElement.unit(scalar.rho_power(1))
    if rel.is_zero():
        raise NcalgError("central element already equals the quotient symbol")
    (lead, row), = echelon([rel.terms], sys.word_key).items()
    if len(lead) != 2:
        raise NcalgError(f"quotient lead monomial {lead} is not quadratic")
    out = copy.copy(sys)
    out.rules = dict(sys.rules)
    out.add_rule(lead, _solved_for(lead, row))
    out.quotient_rule = out.rules[lead]
    out.renormalize_rules()
    return out


# ---------------------------------------------------------------------------
# Core operations
# ---------------------------------------------------------------------------

def multiply(a: AlgebraElement, b: AlgebraElement, sys: RewriteSystem
             ) -> AlgebraElement:
    return sys.normal_form(a.concat(b))


def blocks(word):
    """The (coordinates, differentials, derivatives) blocks of a normal
    word; a word that is not kind-sorted is an error."""
    kinds = [g[0] for g in word]
    if kinds != sorted(kinds):
        raise NcalgError(f"word {word} is not kind-sorted")
    a, b = kinds.count(COORD), len(kinds) - kinds.count(DERIV)
    return word[:a], word[a:b], word[b:]


def normal_words(sys: RewriteSystem, kind: int, max_degree: int):
    """The normal words of ``kind`` letters up to ``max_degree``, shortest
    first (see the module docstring)."""
    letters = sys.generators(kinds=(kind,))
    words, frontier = [()], [()]
    for _ in range(max_degree):
        frontier = [w + (g,) for w in frontier for g in letters
                    if not w or (w[-1], g) not in sys.rules]
        words += frontier
    return words


def derivative_split(i: int, f: AlgebraElement, sys: RewriteSystem):
    """d_i f = action + sum_j h_j d_j for a pure-coordinate f: returns
    (action, {j: h_j}), read off the one normal form of d_i f."""
    if not f.is_pure(COORD):
        raise NcalgError("derivative requires a pure-coordinate element")
    moved = sys.normal_form(
        AlgebraElement.from_word((gen(DERIV, i),)).concat(f))
    action, table = {}, {}
    for w, c in moved.terms.items():
        coords, xis, derivs = blocks(w)
        if not derivs:
            action[w] = c
        elif xis or len(derivs) != 1:
            raise NcalgError(f"unexpected derivative placement in {w}")
        else:
            table.setdefault(derivs[0][1], {})[coords] = c
    return _element(action), {j: _element(h) for j, h in table.items()}


def noncommuting_generator(e: AlgebraElement, sys: RewriteSystem):
    """The first coordinate generator that e does not commute with, or
    None when e is central."""
    for g in sys.generators(kinds=(COORD,)):
        x = AlgebraElement.from_word((g,))
        if not sys.normal_form(e.concat(x) - x.concat(e)).is_zero():
            return g
    return None


def is_central(e: AlgebraElement, sys: RewriteSystem) -> bool:
    """True iff e commutes with every coordinate generator."""
    return noncommuting_generator(e, sys) is None


# ---------------------------------------------------------------------------
# Confluence self-test
# ---------------------------------------------------------------------------

class ConfluenceReport(namedtuple("ConfluenceReport",
                                  "samples overlaps critical mismatches")):
    __slots__ = ()

    @property
    def ok(self):
        return not self.mismatches


def confluence_selftest(sys: RewriteSystem, sample_count=200, max_degree=5,
                        seed=0) -> ConfluenceReport:
    """Resolve every three-letter overlap, then seeded random words.

    ``overlaps`` counts all n^3 three-letter words, but only the
    ``critical`` pairs, those with two redexes, are reduced: no other word
    can disagree.  With no mismatch among them, no sampled word can disagree
    either (the diamond lemma, see the module docstring).
    """
    gens = tuple(sys.generators())
    critical = critical_words(sys)
    words = [*critical, *_sample_words(gens, sample_count, max_degree, seed)]
    mismatches = [m for m in (_critical_pair_mismatch(sys, w) for w in words)
                  if m is not None]
    return ConfluenceReport(sample_count, len(gens) ** 3, len(critical),
                            mismatches)


def critical_words(sys: RewriteSystem):
    """The three-letter words with two redexes, the rules' critical pairs."""
    gens = sys.generators()
    follows = {g: [h for h in gens if (g, h) in sys.rules] for g in gens}
    return [(g1, g2, g3) for g1 in gens for g2 in follows[g1]
            for g3 in follows[g2]]


@functools.lru_cache(maxsize=32)
def _sample_words(gens, sample_count, max_degree, seed):
    """``sample_count`` seeded random words over ``gens`` of length 1 to
    ``max_degree``; drawn once per argument tuple, since they depend on
    nothing else."""
    rng = random.Random(seed)
    return tuple(tuple(rng.choice(gens)
                       for _ in range(rng.randint(1, max_degree)))
                 for _ in range(sample_count))


def _critical_pair_mismatch(sys: RewriteSystem, word):
    """The mismatch (word, left, right), or None when the two agree.

    left is the normal form; right is the normal form after the last redex
    is rewritten first.  A word with fewer than two redexes cannot disagree.
    """
    rules = sys.rules
    redexes = [k for k in range(len(word) - 1) if word[k:k + 2] in rules]
    if len(redexes) < 2:
        return None
    k = redexes[-1]
    left = sys.reduce_word(word)
    right = _rewrite_at(word, k, rules[word[k:k + 2]], rules, sys._cache)
    return None if left == right else (word, left, right)


# ---------------------------------------------------------------------------
# Element grammar
# ---------------------------------------------------------------------------
# The scalar grammar (scalar.Parser) with elements for values:
# name := generator | "d(" generator ")" | "D(" generator ")" | scalar name;
# a product is taken in the free algebra, a quotient only by a scalar
# factor, and a power of a non-scalar factor only to an exponent within
# the degree bound.  A value with no word stays a Scalar until it meets
# one; element values are new, so a sum adds into its first one's dict.

RESERVED_NAMES = {*scalar.NAMES, "d", "D"}


def parse_element(text: str, sys: RewriteSystem, max_degree: int = 16
                  ) -> AlgebraElement:
    """Parse an element in the plane's generator names (free, unreduced);
    a word that survives parsing and is longer than ``max_degree`` is an
    error (see the module docstring)."""
    parser = _ElementParser(text, sys, max_degree)
    value = parser.parse_expr()
    kind, _, start = parser.tokens[parser.i]
    if kind != "end":
        raise ScalarError(f"trailing input at position {start}: {text!r}")
    value = _as_element(value)
    for w in value.terms:
        if len(w) > max_degree:
            raise NcalgError(
                f"word of degree {len(w)} exceeds the cap {max_degree}")
    return value


def _scalar_value(v):
    """The Scalar of a value with no word, else None."""
    if v.__class__ is Scalar:
        return v
    return v.coefficient(()) if set(v.terms) <= {()} else None


def _as_element(v):
    return AlgebraElement({(): v}) if v.__class__ is Scalar else v


class _ElementParser(scalar.Parser):
    def __init__(self, text, sys, max_degree):
        super().__init__(text, sys.name_tokens)
        self.names = sys.generator_names
        self.max_degree = max_degree
        self.power_end = (None, None)  # (next token, end) of an exponent

    def error(self, message, pos) -> ScalarError:
        return ScalarError(f"{message} at position {pos}")

    def add(self, total, term, negate):
        if total.__class__ is Scalar is term.__class__:
            return total - term if negate else total + term
        total = _as_element(total)
        for w, c in _as_element(term).terms.items():
            add_term(total.terms, w, -c if negate else c)
        return total

    def product(self, a, b):
        """The free product a*b, or a parse error when it could hold more
        than ``scalar.MAX_TERMS`` words."""
        if a.__class__ is Scalar is b.__class__:
            return a * b
        a, b = _as_element(a), _as_element(b)
        if len(a.terms) * len(b.terms) > scalar.MAX_TERMS:
            # where the right factor ends: after its exponent, if any
            i, pos = self.power_end
            raise self.error(f"expanding the product would make more than "
                             f"{scalar.MAX_TERMS} words",
                             pos if i == self.i else self.tokens[self.i][2])
        return a.concat(b)

    def divide(self, a, b, pos):
        c = _scalar_value(b)
        if c is None:
            raise ScalarError("can only divide by scalar factors")
        c = super().divide(scalar.ONE, c, pos)
        return a * c if a.__class__ is Scalar else a.scale(c)

    def power(self, base):
        e = self.take_int("exponent", True)
        self.power_end = (self.i, self.end())
        c = _scalar_value(base)
        if c is not None:
            return self.scalar_power(c, e)
        if e < 0:
            raise ScalarError("negative powers only on scalar factors")
        if e > self.max_degree:
            # the free algebra has no zero divisors, so base^e has a word
            # of length at least e, which the bound would reject anyway
            raise ScalarError(
                f"power {e} exceeds the degree cap {self.max_degree}")
        out = AlgebraElement.unit()
        for _ in range(e):
            out = self.product(out, base)
        return out

    def parse_name(self):
        kind, name, _ = self.tokens[self.i]
        if kind.__class__ is not int:
            return super().parse_name()
        self.i += 1
        if kind != COORD:  # "d(" or "D(", then a generator and ")"
            letter, name, start = self.tokens[self.i]
            if letter != COORD:
                raise self.error("unknown generator name", start)
            self.i += 1
            self.expect(")")
        return _element({((kind, self.names.index(name) + 1),): scalar.ONE})


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
        wstr = sys.word_str(w)
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
