import itertools
import json
import random
from collections import Counter

import pytest

from conftest import glq_plane_document, twisted_glq_document
from qplane import fixtures, ncalg, planes, scalar
from qplane.linalg import identity, rref_rows
from qplane.ncalg import (
    COORD,
    DERIV,
    DIFF,
    AlgebraElement,
    NcalgError,
    RewriteSystem,
    _critical_pair_mismatch,
    _pivot_rules,
    build_rewrite_system,
    confluence_selftest,
    derivative_split,
    element_str,
    gen,
    is_central,
    kind_inversions,
    multiply,
    pair_entries,
    parse_element,
    quotient_system,
)
from qplane.scalar import parse_scalar


GL2 = planes.builtin_plane("gl2")
ORTH3 = planes.builtin_plane("orth3")
SPHERE = planes.builtin_plane("sphere_qm1")


def nf_str(plane, text):
    return plane.show(plane.nf(plane.parse(text)))


# -- rule derivation ----------------------------------------------------------

def test_gl2_coord_rule():
    # exactly one coordinate rule: y*x -> q^-1 x*y
    sys = GL2.system
    coord_rules = {lhs: r for lhs, r in sys.rules.items()
                   if lhs[0][0] == COORD and lhs[1][0] == COORD}
    assert set(coord_rules) == {(gen(COORD, 2), gen(COORD, 1))}
    rule = coord_rules[(gen(COORD, 2), gen(COORD, 1))]
    assert rule.rhs == AlgebraElement.from_word(
        (gen(COORD, 1), gen(COORD, 2)), parse_scalar("q^-1"))


def test_gl2_diff_rules():
    sys = GL2.system
    xi, eta = gen(DIFF, 1), gen(DIFF, 2)
    assert sys.rules[(xi, xi)].rhs.is_zero()
    assert sys.rules[(eta, eta)].rhs.is_zero()
    assert sys.rules[(eta, xi)].rhs == AlgebraElement.from_word(
        (xi, eta), parse_scalar("-q"))


def test_orth3_coord_rules_match_printed_lines():
    assert nf_str(ORTH3, "x+ * x0") == "s^2 * x0*x+"
    assert nf_str(ORTH3, "x0 * x-") == "s^2 * x-*x0"
    assert nf_str(ORTH3, "x+ * x-") == "x-*x+ + (-s + s^-1) * x0*x0"


def test_rule_rhs_strictly_smaller():
    for plane in (GL2, ORTH3, SPHERE):
        sys = plane.system
        for lhs, rule in sys.rules.items():
            m = sys.measure(lhs)
            for w in rule.rhs.terms:
                assert sys.measure(w) < m


def test_bad_rule_rejected():
    sys = GL2.system
    with pytest.raises(NcalgError):
        sys.add_rule((gen(COORD, 1), gen(COORD, 2)),
                     AlgebraElement.from_word((gen(COORD, 2), gen(COORD, 1))))


def test_ascending_kind_rule_rejected():
    # a normal word is kind-sorted, so no rule may rewrite a coordinate
    # followed by a differential
    sys = RewriteSystem(2, ("x", "y"), (1, 2))
    with pytest.raises(NcalgError, match=r"x\*d\(x\)"):
        sys.add_rule((gen(COORD, 1), gen(DIFF, 1)), AlgebraElement())


def test_rule_left_sides_never_ascend_in_kind():
    # every left side is same-kind or a kind inversion, and every right
    # term's letter kinds are a sub-multiset of its left side's: the
    # sphere's renormalized quotient rules included
    glq = [planes.load_plane(json.dumps(glq_plane_document(n)))
           for n in (2, 3, 4)]
    for plane in [GL2, ORTH3, SPHERE] + glq:
        for (a, b), rule in plane.system.rules.items():
            assert a[0] >= b[0], (plane.name, a, b)
            kinds = Counter((a[0], b[0]))
            for w in rule.rhs.terms:
                assert not Counter(g[0] for g in w) - kinds, (plane.name, w)


def test_rule_with_a_new_letter_kind_rejected():
    # x_2 x_1 -> d(x_1) lowers the measure, but a term with a kind that
    # its left side lacks would break the measure's compatibility with
    # concatenation, on which the confluence certificate rests
    sys = RewriteSystem(2, ("x", "y"), (1, 2))
    with pytest.raises(NcalgError,
                       match=r"rule y\*x -> d\(x\) has letter kinds .* "
                             r"at word d\(x\)$"):
        sys.add_rule((gen(COORD, 2), gen(COORD, 1)),
                     AlgebraElement.from_word((gen(DIFF, 1),)))
    assert not sys.rules


def test_renormalized_rules_keep_the_premise():
    # renormalize_rules makes its rules where add_rule does: a right-hand
    # side that renormalizes to a term of another letter kind is refused
    sys = RewriteSystem(2, ("x", "y"), (1, 2))
    x, y, dx = gen(COORD, 1), gen(COORD, 2), gen(DERIV, 1)
    sys.add_rule((y, x), AlgebraElement.from_word((x, y)))
    sys.rules[dx, x] = ncalg.RewriteRule(
        (dx, x), AlgebraElement.from_word((y, x)), ())
    with pytest.raises(NcalgError, match=r"at word x\*y$"):
        sys.renormalize_rules()


def dense_rewrite_system(plane):
    """The rule system of ``plane`` as derived before the derivation read
    only nonzero entries: every family walks the dense n^4 grid through
    ``LegMatrix.at`` and sums its right-hand sides term by term."""
    n = plane.dimension
    sys = RewriteSystem(n, plane.generator_names, plane.system.ranks)
    e = identity(n, 2)
    m = e - plane.b
    families = ((COORD, (e - plane.b).at), (DIFF, (e + plane.d).at),
                (DERIV, lambda row, col: m.at(col[::-1], row)))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    for kind, entry in families:
        words = [(gen(kind, i), gen(kind, j)) for i, j in pairs]
        order = sorted(range(len(words)),
                       key=lambda t: sys.word_key(words[t]), reverse=True)
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
            sys.add_rule(words[order[pivot_col]], rhs)
    rng = range(1, n + 1)
    for a in rng:
        for b in rng:
            rhs = AlgebraElement()
            for i in rng:
                for j in rng:
                    v = plane.d.at((a, b), (i, j))
                    if not v.is_zero():
                        rhs = rhs + AlgebraElement.from_word(
                            (gen(COORD, i), gen(DIFF, j)), v)
            sys.add_rule((gen(DIFF, a), gen(COORD, b)), rhs)
    for target, kind, matrix in ((COORD, DERIV, plane.c),
                                 (DIFF, DERIV, plane.d)):
        for k in rng:
            for i in rng:
                rhs = AlgebraElement()
                if i == k and target == COORD:
                    rhs = rhs + AlgebraElement.unit()
                for j in rng:
                    for l in rng:
                        v = matrix.at((i, j), (k, l))
                        if not v.is_zero():
                            rhs = rhs + AlgebraElement.from_word(
                                (gen(target, l), gen(kind, j)), v)
                sys.add_rule((gen(DERIV, k), gen(target, i)), rhs)
    if plane.quotient_central_expr is not None:
        sys = quotient_system(sys, plane.parse(plane.quotient_central_expr))
    return sys


def _document_plane(doc):
    return planes.load_plane(json.dumps(doc))


def _sphere_document(q):
    return {**json.loads(planes.serialize_plane(SPHERE)), "q": q}


SPARSE_DERIVATION_PLANES = {
    "gl2": lambda: GL2,
    "orth3": lambda: ORTH3,
    "sphere_qm1": lambda: SPHERE,
    "gl2@q=1": lambda: planes.specialize_builtin("gl2", "1"),
    "orth3@q=1": lambda: planes.specialize_builtin("orth3", "1"),
    "orth3@q=-1": lambda: planes.specialize(ORTH3, "-1"),
    "glq2": lambda: _document_plane(glq_plane_document(2)),
    "glq3": lambda: _document_plane(glq_plane_document(3)),
    "glq4": lambda: _document_plane(glq_plane_document(4)),
    "glq2-perm10": lambda: _document_plane(glq_plane_document(2, [1, 0])),
    "glq3-perm201": lambda: _document_plane(
        glq_plane_document(3, [2, 0, 1])),
    "glq4-perm1302": lambda: _document_plane(
        glq_plane_document(4, [1, 3, 0, 2])),
    "twisted3-reversed": lambda: _document_plane(
        twisted_glq_document(3, reverse=True)),
    "sphere-doc@generic": lambda: _document_plane(_sphere_document("generic")),
    "sphere-doc@q=1": lambda: _document_plane(_sphere_document("1")),
    "orth3@q=2i": lambda: planes.specialize(ORTH3, "2*i"),
}


@pytest.mark.parametrize("name", SPARSE_DERIVATION_PLANES)
def test_sparse_derivation_equals_dense_reference(name):
    plane = SPARSE_DERIVATION_PLANES[name]()
    got = build_rewrite_system(plane.dimension, plane.generator_names,
                               plane.system.ranks, plane.b, plane.c,
                               plane.d)
    if plane.quotient_central_expr is not None:
        got = quotient_system(got, plane.parse(plane.quotient_central_expr))
    want = dense_rewrite_system(plane)
    assert list(got.rules) == list(want.rules)
    for lhs, rule in want.rules.items():
        assert list(got.rules[lhs].rhs.terms.items()) == \
            list(rule.rhs.terms.items()), lhs
    assert (got.quotient_rule is None) == (want.quotient_rule is None)
    if want.quotient_rule is not None:
        assert got.quotient_rule.lhs == want.quotient_rule.lhs


# -- normal forms -------------------------------------------------------------

def test_nf_yx():
    assert nf_str(GL2, "y*x") == "s^-2 * x*y"


def test_nf_derivative_through_coordinate():
    # hand expansion of the derivative exchange rule
    assert nf_str(GL2, "D(x)*x") == "1 + s^4 * x*D(x) + (s^4 - 1) * y*D(y)"


def test_nf_orth3_plus_zero():
    assert nf_str(ORTH3, "x+ * x0") == "s^2 * x0*x+"


def test_nf_idempotent_random():
    rng = random.Random(4)
    for plane in (GL2, ORTH3):
        sys = plane.system
        gens = sys.generators()
        for _ in range(60):
            w = tuple(rng.choice(gens) for _ in range(rng.randint(0, 4)))
            e = AlgebraElement.from_word(w, parse_scalar(str(rng.randint(1, 5))))
            once = sys.normal_form(e)
            assert sys.normal_form(once) == once


def test_multiply_unit_and_known_products():
    x = GL2.parse("x")
    y = GL2.parse("y")
    assert multiply(x, y, GL2.system) == GL2.parse("x*y")
    assert multiply(y, x, GL2.system) == GL2.nf(GL2.parse("q^-1 * x*y"))
    rng = random.Random(9)
    gens = GL2.system.generators()
    for _ in range(30):
        w = tuple(rng.choice(gens) for _ in range(rng.randint(0, 4)))
        e = GL2.nf(AlgebraElement.from_word(w))
        one = AlgebraElement.unit()
        assert multiply(e, one, GL2.system) == e
        assert multiply(one, e, GL2.system) == e


def test_multiply_associative_random():
    rng = random.Random(17)
    for plane in (GL2, SPHERE):
        sys = plane.system
        gens = sys.generators()
        for _ in range(40):
            a, b, c = (
                AlgebraElement.from_word(
                    tuple(rng.choice(gens) for _ in range(rng.randint(0, 3))))
                for _ in range(3)
            )
            assert multiply(multiply(a, b, sys), c, sys) == \
                multiply(a, multiply(b, c, sys), sys)


# -- derivative split ---------------------------------------------------------

def _action(i, f, sys):
    return derivative_split(i, f, sys)[0]


def _transport(i, f, sys):
    return derivative_split(i, f, sys)[1]


def test_derivative_action_examples():
    assert GL2.show(_action(1, GL2.parse("x"), GL2.system)) == "1"
    # oracle: stepwise expansion of D(x)*x*y recorded by hand
    assert GL2.show(_action(1, GL2.parse("x*y"), GL2.system)) == "s^4 * y"
    assert _action(3, ORTH3.parse("x+"), ORTH3.system).is_zero()


def test_transport_examples():
    t = _transport(1, GL2.parse("y"), GL2.system)
    assert set(t) == {1}
    assert GL2.show(t[1]) == "s^2 * y"
    t = _transport(1, AlgebraElement.unit(), GL2.system)
    assert set(t) == {1}
    assert GL2.show(t[1]) == "1"
    t = _transport(2, GL2.parse("x"), GL2.system)
    assert set(t) == {2}
    assert GL2.show(t[2]) == "s^2 * x"


def test_transport_decomposition_exact():
    # d_i f == action + sum_j h_j d_j, reassembled exactly
    rng = random.Random(23)
    sys = ORTH3.system
    coords = sys.generators(kinds=(COORD,))
    for _ in range(25):
        w = tuple(rng.choice(coords) for _ in range(rng.randint(0, 3)))
        f = AlgebraElement.from_word(w)
        for i in (1, 2, 3):
            moved = sys.normal_form(
                AlgebraElement.from_word((gen(DERIV, i),)).concat(f))
            act, tab = derivative_split(i, f, sys)
            rebuilt = act
            for j, h in tab.items():
                rebuilt = rebuilt + h.concat(
                    AlgebraElement.from_word((gen(DERIV, j),)))
            assert sys.normal_form(rebuilt) == moved


def test_derivative_requires_pure_coordinates():
    with pytest.raises(NcalgError):
        derivative_split(1, GL2.parse("d(x)"), GL2.system)


def test_transport_multiplicative():
    # chain rule for the homogeneous part: moving a derivative through a
    # product composes the transport tables
    rng = random.Random(41)
    for plane in (GL2, ORTH3):
        sys = plane.system
        coords = sys.generators(kinds=(COORD,))
        for _ in range(20):
            g = AlgebraElement.from_word(
                tuple(rng.choice(coords) for _ in range(rng.randint(0, 2))))
            h = AlgebraElement.from_word(
                tuple(rng.choice(coords) for _ in range(rng.randint(0, 2))))
            gh = multiply(g, h, sys)
            for i in range(1, plane.dimension + 1):
                direct = _transport(i, gh, sys)
                composed = {}
                for m, gm in _transport(i, g, sys).items():
                    for j, hj in _transport(m, h, sys).items():
                        composed.setdefault(j, AlgebraElement.zero())
                        composed[j] = composed[j] + multiply(gm, hj, sys)
                composed = {j: v for j, v in composed.items()
                            if not v.is_zero()}
                assert set(direct) == set(composed)
                for j in direct:
                    assert sys.normal_form(direct[j] - composed[j]).is_zero()


# -- centrality ----------------------------------------------------------------

def test_central_examples():
    from qplane import fixtures
    r2 = ORTH3.parse(fixtures.SPHERE_CENTRAL)
    assert is_central(r2, ORTH3.system)
    assert not is_central(GL2.parse("x"), GL2.system)
    assert is_central(AlgebraElement.unit(), GL2.system)


# -- quotient ------------------------------------------------------------------

def test_sphere_quotient_rule():
    sys = SPHERE.system
    assert sys.quotient_rule is not None
    assert sys.quotient_rule.lhs == (gen(COORD, 2), gen(COORD, 2))
    assert sys.quotient_rule.rhs == AlgebraElement.unit(
        parse_scalar("-rho"))


def test_sphere_rules_specialized_not_specialized_generic():
    # the x0 x0 differential rule exists generically but not at q = -1
    xi0 = gen(DIFF, 2)
    assert (xi0, xi0) in ORTH3.system.rules
    assert (xi0, xi0) not in SPHERE.system.rules


# -- confluence ----------------------------------------------------------------

def test_confluence_builtin_planes():
    for plane in (GL2, ORTH3, SPHERE):
        report = confluence_selftest(plane.system, sample_count=200,
                                     max_degree=5, seed=20240811)
        assert report.ok, (plane.name, report.mismatches[:3])


def _corrupted_gl2_system():
    corrupted = planes.derive_plane({
        "name": "gl2-corrupt", "dimension": 2, "generators": ["x", "y"],
        "family": "A",
        "r_matrix": [["q", "0", "0", "0"],
                     ["0", "q - q^-1", "1", "0"],
                     ["0", "1", "0", "0"],
                     ["0", "0", "0", "q"]],
        "eigenvalues": {"lambda1": "-q^-1", "lambda2": "q"},
        "gamma": "r_over_q"})
    sys = corrupted.system
    # perturb one exchange coefficient; add_rule resets the cache
    lhs = (gen(DIFF, 1), gen(COORD, 1))
    rhs = sys.rules[lhs].rhs + AlgebraElement.from_word(
        (gen(COORD, 2), gen(DIFF, 2)), parse_scalar("1"))
    sys.add_rule(lhs, rhs)
    return sys


def _glq_planes():
    """GL_q(2..4) in every basis permutation and the twisted GL_q(3) in
    both orders."""
    docs = [glq_plane_document(n, list(perm)) for n in (2, 3, 4)
            for perm in itertools.permutations(range(n))]
    docs += [twisted_glq_document(3, reverse) for reverse in (False, True)]
    return [planes.load_plane(json.dumps(doc)) for doc in docs]


def test_clean_overlaps_leave_no_sampled_word_to_disagree():
    # the diamond lemma: once every critical pair resolves, the seeded
    # words that verify no longer reduces cannot disagree either
    for plane in [GL2, ORTH3, SPHERE] + _glq_planes():
        assert confluence_selftest(plane.system, sample_count=0).ok
        for seed in (0, 3):
            report = confluence_selftest(plane.system, sample_count=200,
                                         max_degree=5, seed=seed)
            assert report.ok, (plane.name, seed, report.mismatches[:1])


def test_sphere_at_generic_q_keeps_its_sampled_mismatches():
    # the failing case, whose report still reduces the seeded words
    doc = json.loads(planes.serialize_plane(SPHERE))
    doc["q"] = "generic"
    sys = planes.load_plane(json.dumps(doc)).system
    overlaps = confluence_selftest(sys, sample_count=0).mismatches
    report = confluence_selftest(sys, sample_count=200, max_degree=5, seed=0)
    assert len(overlaps) == 12 and len(report.mismatches) == 16
    assert report.mismatches[:12] == overlaps


def test_confluence_detects_corruption():
    sys = _corrupted_gl2_system()
    report = confluence_selftest(sys, sample_count=50, max_degree=4, seed=1)
    assert not report.ok


def test_overlaps_alone_detect_corruption():
    report = confluence_selftest(_corrupted_gl2_system(), sample_count=0)
    assert report.samples == 0 and report.overlaps == 6 ** 3
    assert report.mismatches
    for word, left, right in report.mismatches:
        assert len(word) == 3 and left != right


def test_overlap_mismatches_equal_brute_force_over_all_words():
    # only words with two redexes are reduced; every other word of the n^3
    # must agree, so a brute force over all of them finds the same list
    sys = _corrupted_gl2_system()
    gens = sys.generators()
    brute = [m for m in (_critical_pair_mismatch(sys, (a, b, c))
                         for a in gens for b in gens for c in gens)
             if m is not None]
    report = confluence_selftest(sys, sample_count=0)
    assert brute and report.mismatches == brute


def test_classical_limit_commutes():
    at1 = planes.specialize_builtin("orth3", 1)
    gens = at1.coordinate_generators()
    for a in gens:
        for b in gens:
            x = AlgebraElement.from_word((a,))
            y = AlgebraElement.from_word((b,))
            assert at1.nf(x.concat(y) - y.concat(x)).is_zero()


def test_parse_element_bounds_the_degree():
    sys = GL2.system
    with pytest.raises(NcalgError) as err:
        parse_element("x*y + " + "*".join(["x"] * 17), sys)
    assert str(err.value) == "word of degree 17 exceeds the cap 16"
    with pytest.raises(NcalgError) as err:
        parse_element("D(x)*y*x*d(y)*x", sys, max_degree=4)
    assert str(err.value) == "word of degree 5 exceeds the cap 4"
    # the bound reads the surviving terms: a word that cancels is not one
    assert parse_element("x*y*x*y - x*y*x*y + y", sys, max_degree=2) == \
        AlgebraElement.from_word((gen(COORD, 2),))
    # the rewrite system bounds no degree: its rules never lengthen a word
    word = tuple(gen(COORD, 2 - k % 2) for k in range(20))
    nf = sys.reduce_word(word)
    assert all(len(w) == 20 for w in nf.terms)
    assert sys.reduce_word(list(word)) is nf


# -- the rewrite step --------------------------------------------------------

def reference_reduce(sys, word, memo):
    """Normal form by the summation the product memo replaced: one
    AlgebraElement sum per right-hand term, each scaled without a memo."""
    if word not in memo:
        k = next((k for k in range(len(word) - 1)
                  if (word[k], word[k + 1]) in sys.rules), None)
        if k is None:
            result = AlgebraElement.from_word(word)
        else:
            rule = sys.rules[(word[k], word[k + 1])]
            prefix, suffix = word[:k], word[k + 2:]
            result = AlgebraElement()
            for w, c in rule.rhs.terms.items():
                result = result + reference_reduce(
                    sys, prefix + w + suffix, memo).scale(c)
        memo[word] = result
    return memo[word]


def seeded_words(sys, seed, count=60, max_len=5):
    rng = random.Random(seed)
    gens = sys.generators()
    return [tuple(rng.choice(gens) for _ in range(rng.randint(1, max_len)))
            for _ in range(count)]


@pytest.fixture
def glq3(glq3_document):
    return planes.load_plane(json.dumps(glq3_document))


def test_rewrite_step_against_reference(glq3):
    for plane in (GL2, ORTH3, glq3):
        sys = plane.system
        memo = {}
        for word in seeded_words(sys, seed=17):
            got = sys.reduce_word(word)
            want = reference_reduce(sys, word, memo)
            # same terms in the same order, and no zero stored
            assert list(got.terms.items()) == list(want.terms.items()), word
            assert not any(c.is_zero() for c in got.terms.values())


def test_quotient_copy_shares_the_product_memo():
    sys = ORTH3.system
    central = parse_element(fixtures.SPHERE_CENTRAL, sys)
    assert quotient_system(sys, central)._products is sys._products


def test_add_rule_keeps_products_and_normal_forms(glq3):
    base = glq3.system
    rules = list(base.rules.items())

    def system(rule_items):
        out = RewriteSystem(base.dimension, base.generator_names, base.ranks)
        for lhs, rule in rule_items:
            out.add_rule(lhs, rule.rhs)
        return out

    words = seeded_words(base, seed=23)
    # reduce under part of the rules first, so that the memo fills
    warm = system(rules[: len(rules) // 2])
    for word in words:
        warm.reduce_word(word)
    products = warm._products
    assert products
    for lhs, rule in rules[len(rules) // 2:]:
        warm.add_rule(lhs, rule.rhs)
    assert warm._products is products
    fresh = system(rules)
    for word in words:
        assert warm.reduce_word(word) == fresh.reduce_word(word), word


def _all_words(sys, max_len):
    gens = sys.generators()
    return [w for n in range(max_len + 1)
            for w in itertools.product(gens, repeat=n)]


LEFTMOST_PLANES = {
    "gl2": lambda: GL2.system,
    "orth3": lambda: ORTH3.system,
    "sphere_qm1": lambda: SPHERE.system,
    "glq3-perm201": lambda: planes.load_plane(
        json.dumps(glq_plane_document(3, [2, 0, 1]))).system,
    "gl2-corrupted": lambda: _corrupted_gl2_system(),
}


@pytest.mark.parametrize("name", LEFTMOST_PLANES)
def test_reduction_equals_plain_leftmost_reducer(name):
    sys = LEFTMOST_PLANES[name]()
    memo = {}
    for word in _all_words(sys, 4):
        got = sys.reduce_word(word)
        want = reference_reduce(sys, word, memo)
        assert list(got.terms.items()) == list(want.terms.items()), word
    # every cached normal form, also of words met while reducing, has the
    # reference's value and term order
    for word, got in sys._cache.items():
        want = reference_reduce(sys, word, memo)
        assert list(got.terms.items()) == list(want.terms.items()), word


def reference_confluence(sys, sample_count, max_degree, seed):
    """The mismatch list of confluence_selftest, by the plain reducer: all
    n^3 three-letter words, then the seeded words, each with two redexes
    reduced leftmost-first and with its last redex rewritten first."""
    gens = sys.generators()
    words = list(itertools.product(gens, repeat=3))
    rng = random.Random(seed)
    for _ in range(sample_count):
        length = rng.randint(1, max_degree)
        words.append(tuple(rng.choice(gens) for _ in range(length)))
    memo, out = {}, []
    for word in words:
        redexes = [k for k in range(len(word) - 1)
                   if (word[k], word[k + 1]) in sys.rules]
        if len(redexes) < 2:
            continue
        k = redexes[-1]
        right = AlgebraElement()
        for w, c in sys.rules[(word[k], word[k + 1])].rhs.terms.items():
            right = right + reference_reduce(
                sys, word[:k] + w + word[k + 2:], memo).scale(c)
        left = reference_reduce(sys, word, memo)
        if left != right:
            out.append((word, left, right))
    return out


def _ordered(mismatches):
    return [(w, list(a.terms.items()), list(b.terms.items()))
            for w, a, b in mismatches]


def test_corrupted_mismatches_equal_the_plain_reducers():
    report = confluence_selftest(_corrupted_gl2_system(), sample_count=50,
                                 max_degree=4, seed=1)
    want = reference_confluence(_corrupted_gl2_system(), 50, 4, 1)
    assert want and _ordered(report.mismatches) == _ordered(want)


def reference_normal_form(sys, e):
    """The normal form as one AlgebraElement sum per term of e, with the
    words whose coefficient cancelled in the sum and those that a later
    term brought back."""
    out, dropped, back = AlgebraElement(), set(), set()
    for w, c in e.terms.items():
        total = out + sys.reduce_word(w).scale(c)
        back |= dropped & total.terms.keys()
        dropped |= out.terms.keys() - total.terms.keys()
        out = total
    return out, dropped, back


def seeded_elements(sys, seed, count=40):
    """Elements of 2-4 seeded words with Gaussian coefficients, minus the
    normal form of the first term, so that terms cancel in the normal
    form, plus the first word reversed, which brings some of them back."""
    rng = random.Random(seed)
    gens = sys.generators()
    out = []
    for _ in range(count):
        length = rng.randint(2, 4)
        words = [tuple(rng.choice(gens) for _ in range(length))
                 for _ in range(rng.randint(2, 4))]
        e = AlgebraElement()
        for w in words:
            c = scalar.from_int(rng.randint(-3, 3) or 1) + \
                scalar.from_int(rng.randint(-3, 3)) * scalar.I
            e = e + AlgebraElement.from_word(w, c)
        first = sys.reduce_word(words[0]).scale(e.coefficient(words[0]))
        # the first word reversed reduces to some of the cancelled words
        back = AlgebraElement.from_word(words[0][::-1])
        out.append(e - first + back)
    return out


@pytest.mark.parametrize(
    "name", ["gl2", "orth3", "sphere_qm1", "glq3-perm201"])
def test_normal_form_equals_the_sum_of_scaled_reductions(name):
    sys = LEFTMOST_PLANES[name]()
    cancelled = brought_back = 0
    for e in seeded_elements(sys, seed=31):
        want, dropped, back = reference_normal_form(sys, e)
        got = sys.normal_form(e)
        assert list(got.terms.items()) == list(want.terms.items())
        assert not any(c.is_zero() for c in got.terms.values())
        cancelled += bool(dropped)
        brought_back += bool(back)
    assert cancelled >= 10 and brought_back >= 10


def _assert_compiled(sys):
    for lhs, rule in sys.rules.items():
        assert [(w, c) for w, c, _ in rule.compiled] == \
            list(rule.rhs.terms.items()), lhs
        for _, c, products in rule.compiled:
            assert products is sys._products[c]


def test_every_rule_carries_its_compiled_right_hand_side():
    glq3 = planes.load_plane(json.dumps(glq_plane_document(3, [2, 0, 1])))
    built = build_rewrite_system(glq3.dimension, glq3.generator_names,
                                 glq3.system.ranks, glq3.b, glq3.c, glq3.d)
    _assert_compiled(built)
    built.renormalize_rules()
    _assert_compiled(built)
    for plane in (GL2, ORTH3, SPHERE):
        _assert_compiled(plane.system)
    central = parse_element(fixtures.SPHERE_CENTRAL, ORTH3.system)
    quotient = quotient_system(ORTH3.system, central)
    _assert_compiled(quotient)


def test_sample_words_are_drawn_once():
    for sys, count, degree, seed in ((GL2.system, 50, 4, 1),
                                     (ORTH3.system, 200, 5, 3)):
        gens = tuple(sys.generators())
        rng = random.Random(seed)
        want = []
        for _ in range(count):
            length = rng.randint(1, degree)
            want.append(tuple(rng.choice(gens) for _ in range(length)))
        got = ncalg._sample_words(gens, count, degree, seed)
        assert list(got) == want
        assert ncalg._sample_words(gens, count, degree, seed) is got
    assert ncalg._sample_words.cache_info().maxsize is not None


# -- termination measure --------------------------------------------------------

def test_kind_inversions():
    w = (gen(DERIV, 1), gen(DIFF, 1), gen(COORD, 1))
    assert kind_inversions(w) == 3
    assert kind_inversions(()) == 0
    assert kind_inversions((gen(COORD, 1), gen(DIFF, 1))) == 0


def test_every_step_decreases_measure():
    plane = planes.derive_plane({
        "name": "gl2-steps", "dimension": 2, "generators": ["x", "y"],
        "family": "A",
        "r_matrix": [["q", "0", "0", "0"],
                     ["0", "q - q^-1", "1", "0"],
                     ["0", "1", "0", "0"],
                     ["0", "0", "0", "q"]],
        "eigenvalues": {"lambda1": "-q^-1", "lambda2": "q"},
        "gamma": "r_over_q"})
    sys = plane.system

    def walk(word):
        # the reduction's own path: rewrite the first redex, recurse on
        # every right-hand-side term
        k = next((k for k in range(len(word) - 1)
                  if (word[k], word[k + 1]) in sys.rules), None)
        if k is None:
            return
        rule = sys.rules[(word[k], word[k + 1])]
        base = sys.measure(word)
        for w in rule.rhs.terms:
            nxt = word[:k] + w + word[k + 2:]
            assert sys.measure(nxt) < base, (word, nxt)
            walk(nxt)

    rng = random.Random(3)
    gens = sys.generators()
    for _ in range(40):
        walk(tuple(rng.choice(gens) for _ in range(rng.randint(0, 5))))


# -- derivative-derivative rules --------------------------------------------

def deriv_deriv_rules(sys):
    return {lhs: rule for lhs, rule in sys.rules.items()
            if lhs[0][0] == DERIV and lhs[1][0] == DERIV}


def as_derivatives(e):
    """The element with every coordinate letter made a derivative and
    every word reversed."""
    return AlgebraElement({tuple(gen(DERIV, g[1]) for g in reversed(w)): c
                           for w, c in e.terms.items()})


def test_deriv_deriv_rule_counts(glq_document):
    assert len(deriv_deriv_rules(GL2.system)) == 1
    assert len(deriv_deriv_rules(ORTH3.system)) == 3
    assert len(deriv_deriv_rules(SPHERE.system)) == 3
    for n in (2, 3, 4):
        plane = planes.load_plane(json.dumps(glq_document(n)))
        assert len(deriv_deriv_rules(plane.system)) == n * (n - 1) // 2


def test_deriv_deriv_normal_forms():
    rule = GL2.system.rules[(gen(DERIV, 2), gen(DERIV, 1))]
    assert rule.rhs == AlgebraElement.from_word(
        (gen(DERIV, 1), gen(DERIV, 2)), parse_scalar("q"))
    assert nf_str(GL2, "D(y)*D(x) - q*D(x)*D(y)") == "0"
    assert nf_str(SPHERE, "D(x+)*D(x-) - D(x-)*D(x+)") == "2*i * D(x0)*D(x0)"


def coordinate_relations(plane):
    """lhs - rhs of every coordinate-coordinate rule of the plane."""
    for lhs, rule in plane.system.rules.items():
        if lhs[0][0] == COORD and lhs[1][0] == COORD:
            yield AlgebraElement.from_word(lhs) - rule.rhs


def test_deriv_deriv_relations_are_reversed_coordinate_relations(glq3):
    for plane in (GL2, ORTH3, glq3):
        relations = list(coordinate_relations(plane))
        assert relations
        for rel in relations:
            assert plane.nf(as_derivatives(rel)).is_zero(), plane.show(rel)
    # the sphere's coordinate rules pass through its quotient rule
    # x0*x0 -> -rho (x+*x- -> 2*i*rho + x-*x+), which has no derivative
    # analogue; the transcribed orth3 coordinate relations do hold for its
    # derivatives at q = -1
    for _, lhs, rhs in fixtures.ORTH3_COORD_RELATIONS:
        rel = SPHERE.parse(lhs) - SPHERE.parse(rhs)
        assert SPHERE.nf(as_derivatives(rel)).is_zero(), (lhs, rhs)


def test_unreversed_deriv_reading_is_not_confluent():
    # reading (E - B)[(i, j), (k, l)] for the word D_k D_l, without the
    # reversal, derives D(y)*D(x) -> q^-1 D(x)*D(y), which leaves a
    # D.D.x overlap unresolvable
    base = GL2.system
    trial = RewriteSystem(base.dimension, base.generator_names, base.ranks)
    for lhs, rule in base.rules.items():
        if not (lhs[0][0] == DERIV and lhs[1][0] == DERIV):
            trial.add_rule(lhs, rule.rhs)
    m = identity(2, 2) - GL2.b
    for lhs, rhs in _pivot_rules(trial, DERIV, pair_entries(m)):
        trial.add_rule(lhs, rhs)
    assert trial.rules[(gen(DERIV, 2), gen(DERIV, 1))].rhs == \
        AlgebraElement.from_word((gen(DERIV, 1), gen(DERIV, 2)),
                                 parse_scalar("q^-1"))
    report = confluence_selftest(trial, sample_count=0)
    assert not report.ok
    kinds = {tuple(g[0] for g in word) for word, _, _ in report.mismatches}
    assert (DERIV, DERIV, COORD) in kinds


@pytest.mark.parametrize("reverse", [False, True], ids=["std", "reversed"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_twisted_glq_calculus_is_confluent(n, reverse):
    # the D.D family read as (E - B)[(l, k), (i, j)] for D_k D_l resolves
    # every overlap also where R[(i,j),(j,i)] != R[(j,i),(i,j)]
    plane = planes.load_plane(json.dumps(twisted_glq_document(n, reverse)))
    report = confluence_selftest(plane.system, sample_count=0)
    assert report.overlaps == n ** 3 * 27
    assert report.mismatches == []


# -- parsing and printing --------------------------------------------------------

def test_parse_element_longest_match():
    e = ORTH3.parse("x+ * x-")
    assert list(e.terms) == [(gen(COORD, 1), gen(COORD, 3))]
    e = ORTH3.parse("x0+x-")
    assert set(e.terms) == {(gen(COORD, 2),), (gen(COORD, 3),)}


def test_parse_element_scalars_and_powers():
    e = GL2.parse("(q - 1) * x^2")
    assert e.coefficient((gen(COORD, 1), gen(COORD, 1))) == parse_scalar("q-1")
    e = GL2.parse("q^-1 * d(x)")
    assert e.coefficient((gen(DIFF, 1),)) == parse_scalar("q^-1")


def test_parse_element_division_by_scalar():
    e = GL2.parse("x/(q+1)")
    assert e.coefficient((gen(COORD, 1),)) == parse_scalar("1/(q+1)")
    with pytest.raises(scalar.ScalarError):
        GL2.parse("x/y")


def test_element_parse_errors_name_the_position():
    # the element grammar and the scalar atoms it falls back to share one
    # tokenizer; each keeps its own message format
    cases = {
        "(x": "expected ')' at position 2",
        "x^": "expected exponent at position 2",
        "d(z)": "unknown generator name at position 2",
        "x*foo": "unexpected token 'foo' (at position 5)",
        # the end of the input, after a scalar and after a generator
        "2 *": "unexpected end of input (at position 3)",
        "x*": "unexpected end of input (at position 2)",
        "3/0*x": "zero denominator (at position 3)",
        # superscript digits pass str.isdigit but are no int literal
        "x^\u00b2": "expected exponent at position 2",
        "\u00b2*x": "unexpected token '\u00b2' (at position 1)",
    }
    for text, message in cases.items():
        with pytest.raises(scalar.ScalarError) as info:
            GL2.parse(text)
        assert str(info.value) == message, text


def test_element_division_by_zero_names_the_position():
    # the scalar grammar's errors, at the same positions
    cases = {
        "x/0": "division by zero (at position 2)",
        "0^-1": "zero to a negative power (at position 4)",
        "x*(1-1)^-1": "zero to a negative power (at position 10)",
    }
    for text, message in cases.items():
        with pytest.raises(scalar.ParseError) as info:
            GL2.parse(text)
        assert str(info.value) == message, text
    with pytest.raises(scalar.ParseError) as info:
        parse_scalar("0^-1")
    assert str(info.value) == cases["0^-1"]


def test_element_nesting_cap():
    n = scalar.MAX_NESTING
    x = AlgebraElement.from_word((gen(COORD, 1),))
    assert GL2.parse("(" * n + "x" + ")" * n) == x
    assert GL2.parse("(-" * (n // 2) + "x" + ")" * (n // 2)) == x
    for text in ["(" * (n + 1) + "x" + ")" * (n + 1), "-" * (n + 1) + "x"]:
        with pytest.raises(scalar.ScalarError, match="nest deeper"):
            GL2.parse(text)


SCALAR_ATOMS = ["0", "1", "2", "3", "12", "2/3", "i", "s", "q", "rho"]
SCALAR_TOKENS = SCALAR_ATOMS + ["+", "-", "*", "/", "^", "^-", "(", ")", " "]


def _random_scalar_text(rng, depth=0):
    """A seeded random text of the scalar grammar."""
    r = rng.random()
    if depth > 3 or r < 0.35:
        return rng.choice(SCALAR_ATOMS)
    inner = _random_scalar_text(rng, depth + 1)
    if r < 0.5:
        return f"({inner})"
    if r < 0.6:
        return f"-{inner}"
    if r < 0.75:
        return f"{inner}^{rng.choice(['0', '2', '-1', '-2'])}"
    return inner + rng.choice("+-*/") + _random_scalar_text(rng, depth + 1)


def _parsed_or_none(parse, text):
    try:
        return parse(text)
    except scalar.ScalarError:
        return None


def test_element_grammar_agrees_with_the_scalar_grammar():
    # a text without generators reads as the unit element of its scalar,
    # and a text one grammar rejects the other rejects too; half the
    # random texts get one scalar token inserted at a random place
    rng = random.Random(16)
    texts = ["2/3^2", "-2^2", "1/2/3", "q^-1/2", "2^-1/2", "(1+s)^-2",
             "rho^2/rho", "--2", "2*-3"]
    for _ in range(3000):
        text = _random_scalar_text(rng)
        if rng.random() < 0.5:
            k = rng.randint(0, len(text))
            text = text[:k] + rng.choice(SCALAR_TOKENS) + text[k:]
        texts.append(text)
    rejected = 0
    for text in texts:
        value = _parsed_or_none(parse_scalar, text)
        element = _parsed_or_none(
            lambda t: parse_element(t, GL2.system), text)
        assert (value is None) == (element is None), text
        if value is None:
            rejected += 1
        else:
            assert element == AlgebraElement.unit(value), text
    assert 0 < rejected < len(texts) - 9


def test_element_print_parse_roundtrip():
    rng = random.Random(31)
    for plane in (GL2, ORTH3):
        sys = plane.system
        gens = sys.generators()
        for _ in range(40):
            w = tuple(rng.choice(gens) for _ in range(rng.randint(0, 4)))
            e = plane.nf(AlgebraElement.from_word(
                w, parse_scalar(f"{rng.randint(1, 9)}/q")))
            text = element_str(e, sys)
            assert plane.nf(parse_element(text, sys)) == e, text


def test_print_ascending_order():
    assert nf_str(ORTH3, "x+ * x-") == "x-*x+ + (-s + s^-1) * x0*x0"
