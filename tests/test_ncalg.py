import json
import random

import pytest

from qplane import planes, scalar
from qplane.ncalg import (
    COORD,
    DERIV,
    DIFF,
    AlgebraElement,
    NcalgError,
    RewriteSystem,
    confluence_selftest,
    derivative_action,
    derive_deriv_deriv_conventions,
    element_str,
    gen,
    is_central,
    kind_inversions,
    multiply,
    parse_element,
    transport,
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


# -- derivative action and transport ------------------------------------------

def test_derivative_action_examples():
    assert GL2.show(derivative_action(1, GL2.parse("x"), GL2.system)) == "1"
    # oracle: stepwise expansion of D(x)*x*y recorded by hand
    assert GL2.show(derivative_action(1, GL2.parse("x*y"), GL2.system)) \
        == "s^4 * y"
    assert derivative_action(3, ORTH3.parse("x+"), ORTH3.system).is_zero()


def test_transport_examples():
    t = transport(1, GL2.parse("y"), GL2.system)
    assert set(t) == {1}
    assert GL2.show(t[1]) == "s^2 * y"
    t = transport(1, AlgebraElement.unit(), GL2.system)
    assert set(t) == {1}
    assert GL2.show(t[1]) == "1"
    t = transport(2, GL2.parse("x"), GL2.system)
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
            act = derivative_action(i, f, sys)
            tab = transport(i, f, sys)
            rebuilt = act
            for j, h in tab.items():
                rebuilt = rebuilt + h.concat(
                    AlgebraElement.from_word((gen(DERIV, j),)))
            assert sys.normal_form(rebuilt) == moved


def test_derivative_requires_pure_coordinates():
    with pytest.raises(NcalgError):
        derivative_action(1, GL2.parse("d(x)"), GL2.system)


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
                direct = transport(i, gh, sys)
                composed = {}
                for m, gm in transport(i, g, sys).items():
                    for j, hj in transport(m, h, sys).items():
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
    corrupted = planes.derive_plane(
        "gl2-corrupt", 2, ("x", "y"), "A",
        [["q", "0", "0", "0"],
         ["0", "q - q^-1", "1", "0"],
         ["0", "1", "0", "0"],
         ["0", "0", "0", "q"]],
        ("-q^-1", "q"), gamma_policy="r_over_q")
    sys = corrupted.system
    # perturb one exchange coefficient; add_rule resets the cache
    lhs = (gen(DIFF, 1), gen(COORD, 1))
    rhs = sys.rules[lhs].rhs + AlgebraElement.from_word(
        (gen(COORD, 2), gen(DIFF, 2)), parse_scalar("1"))
    sys.add_rule(lhs, rhs)
    return sys


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


def test_classical_limit_commutes():
    at1 = planes.specialize_builtin("orth3", 1)
    gens = at1.coordinate_generators()
    for a in gens:
        for b in gens:
            x = AlgebraElement.from_word((a,))
            y = AlgebraElement.from_word((b,))
            assert at1.nf(x.concat(y) - y.concat(x)).is_zero()


def test_degree_cap():
    sys = GL2.system
    word = tuple(gen(COORD, 1) for _ in range(sys.degree_cap + 1))
    with pytest.raises(NcalgError):
        sys.reduce_word(word)


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


def test_capped_copy_shares_the_product_memo():
    sys = GL2.system
    assert sys.capped(4)._products is sys._products


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


# -- termination measure --------------------------------------------------------

def test_kind_inversions():
    w = (gen(DERIV, 1), gen(DIFF, 1), gen(COORD, 1))
    assert kind_inversions(w) == 3
    assert kind_inversions(()) == 0
    assert kind_inversions((gen(COORD, 1), gen(DIFF, 1))) == 0


def test_every_step_decreases_measure():
    plane = planes.derive_plane(
        "gl2-steps", 2, ("x", "y"), "A", [
            ["q", "0", "0", "0"],
            ["0", "q - q^-1", "1", "0"],
            ["0", "1", "0", "0"],
            ["0", "0", "0", "q"]],
        ("-q^-1", "q"), gamma_policy="r_over_q")
    sys = plane.system

    def walk(word):
        # the reduction's own path: rewrite the first redex, recurse on
        # every right-hand-side term
        k = sys._find_redex(word)
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


# -- derivative-derivative conventions ------------------------------------------

def test_deriv_deriv_conventions_reported():
    results = derive_deriv_deriv_conventions(GL2.system, GL2.f)
    names = [name for name, _, _ in results]
    assert names == ["rows", "rows_flipped", "columns", "columns_flipped"]
    survivors = [name for name, _, ok in results if ok]
    # the flipped-word readings reproduce D(y)*D(x) -> q D(x)*D(y), the only
    # exchange compatible with the derivative-coordinate rules
    assert "rows_flipped" in survivors
    assert "rows" not in survivors
    for name, rules, ok in results:
        if not ok:
            continue
        lhs = (gen(DERIV, 2), gen(DERIV, 1))
        assert rules[lhs].rhs == AlgebraElement.from_word(
            (gen(DERIV, 1), gen(DERIV, 2)), parse_scalar("q"))


def test_default_system_has_no_deriv_deriv_rules():
    for plane in (GL2, ORTH3, SPHERE):
        for lhs in plane.system.rules:
            assert not (lhs[0][0] == DERIV and lhs[1][0] == DERIV)


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
        "3/0*x": "zero denominator (at position 3)",
        # superscript digits pass str.isdigit but are no int literal
        "x^\u00b2": "expected exponent at position 2",
        "\u00b2*x": "unexpected token '\u00b2' (at position 1)",
    }
    for text, message in cases.items():
        with pytest.raises(scalar.ScalarError) as info:
            GL2.parse(text)
        assert str(info.value) == message, text


def test_element_nesting_cap():
    n = scalar.MAX_NESTING
    x = AlgebraElement.from_word((gen(COORD, 1),))
    assert GL2.parse("(" * n + "x" + ")" * n) == x
    assert GL2.parse("(-" * (n // 2) + "x" + ")" * (n // 2)) == x
    for text in ["(" * (n + 1) + "x" + ")" * (n + 1), "-" * (n + 1) + "x"]:
        with pytest.raises(scalar.ScalarError, match="nest deeper"):
            GL2.parse(text)


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
