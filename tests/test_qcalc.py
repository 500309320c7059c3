import random

import pytest

from qplane import fixtures, ncalg, planes, qcalc
from qplane.ncalg import COORD, DIFF, AlgebraElement, gen
from qplane.qcalc import (
    QcalcError,
    TensorForm,
    VectorField,
    WedgeForm,
    apply_field,
    contract,
    d_form,
    d_function,
    one_form_body,
    pair,
    to_tensor,
    wedge,
)
from qplane.scalar import parse_scalar

GL2 = planes.builtin_plane("gl2")
ORTH3 = planes.builtin_plane("orth3")
SPHERE = planes.builtin_plane("sphere_qm1")


def tensor_lift_words(words, gamma):
    """Lift raw two-differential words without normal-forming them first."""
    out = TensorForm(2)
    rows = qcalc._braiding_rows(gamma)
    for (a, b), c in words:
        qcalc._add_lift(out, (), a, b, c, rows)
    return out


def form(plane, text, degree):
    return WedgeForm(degree, plane.nf(plane.parse(text)))


def rand_coord_poly(plane, rng, max_degree=4, terms=3):
    gens = plane.coordinate_generators()
    e = AlgebraElement.zero()
    for _ in range(terms):
        w = tuple(rng.choice(gens) for _ in range(rng.randint(0, max_degree)))
        e = e + AlgebraElement.from_word(w, parse_scalar(str(rng.randint(-3, 3))))
    return plane.nf(e)


# -- exterior differential ------------------------------------------------------

def test_d_of_generator():
    d = d_function(GL2.parse("x"), GL2.system)
    assert d.body == GL2.parse("d(x)")


def test_d_x_squared_two_routes():
    # route 1: the operator definition
    d = d_function(GL2.parse("x*x"), GL2.system)
    # route 2: Leibniz expansion d(x)*x + x*d(x), independently normal-ordered
    leib = GL2.nf(GL2.parse("d(x)*x + x*d(x)"))
    assert d.body == leib
    assert d.body == GL2.nf(GL2.parse("(1 + q^-2) * x * d(x)"))


def test_d_of_central_element_is_multiple_of_constraint():
    eta = d_function(ORTH3.parse(fixtures.SPHERE_CENTRAL), ORTH3.system)
    combo = ORTH3.nf(ORTH3.parse(fixtures.SPHERE_DIFF_CONSTRAINT))
    ratio = parse_scalar("q + 1")
    assert (eta.body - combo.scale(ratio)).is_zero()


def test_d_non_coordinate_input_rejected():
    with pytest.raises(QcalcError):
        d_function(GL2.parse("d(x)"), GL2.system)


def test_d_form_examples():
    # d(x * dy) = dx ^ dy
    one = form(GL2, "x * d(y)", 1)
    two = d_form(one, GL2.system)
    assert two.body == GL2.nf(GL2.parse("d(x)*d(y)"))
    # constant-coefficient 2-form is closed
    omega = form(GL2, "d(x)*d(y)", 2)
    assert d_form(omega, GL2.system).is_zero()
    # x * dy is not closed: a nonzero witness
    assert not d_form(form(GL2, "x*d(y)", 1), GL2.system).is_zero()


def test_d_squared_zero_random():
    rng = random.Random(7)
    for plane in (GL2, ORTH3):
        for _ in range(100):
            f = rand_coord_poly(plane, rng)
            ddf = d_form(d_function(f, plane.system), plane.system)
            assert ddf.is_zero()


def test_leibniz_random():
    rng = random.Random(13)
    for plane in (GL2, ORTH3):
        sys = plane.system
        for _ in range(100):
            f = rand_coord_poly(plane, rng, max_degree=3, terms=2)
            g = rand_coord_poly(plane, rng, max_degree=3, terms=2)
            lhs = d_function(ncalg.multiply(f, g, sys), sys).body
            rhs = sys.normal_form(d_function(f, sys).body.concat(g)) + \
                sys.normal_form(f.concat(d_function(g, sys).body))
            assert sys.normal_form(lhs - rhs).is_zero()


# -- wedge ------------------------------------------------------------------------

def test_wedge_examples():
    eta_xi = wedge(form(GL2, "d(y)", 1), form(GL2, "d(x)", 1), GL2.system)
    assert eta_xi.body == GL2.nf(GL2.parse("-q * d(x)*d(y)"))
    assert wedge(form(GL2, "d(x)", 1), form(GL2, "d(x)", 1),
                 GL2.system).is_zero()


def test_wedge_associative_random():
    rng = random.Random(19)
    for plane in (GL2, SPHERE):
        sys = plane.system
        diffs = [gen(DIFF, i) for i in range(1, plane.dimension + 1)]
        for _ in range(50):
            forms = []
            for _ in range(3):
                body = AlgebraElement.zero()
                for _ in range(2):
                    w = (rng.choice(plane.coordinate_generators()),) \
                        if rng.random() < 0.5 else ()
                    body = body + AlgebraElement.from_word(
                        w + (rng.choice(diffs),),
                        parse_scalar(str(rng.randint(-2, 2))))
                forms.append(WedgeForm(1, sys.normal_form(body)))
            a, b, c = forms
            left = wedge(wedge(a, b, sys), c, sys)
            right = wedge(a, wedge(b, c, sys), sys)
            assert left == right


# -- tensor representation --------------------------------------------------------

def test_to_tensor_reproduces_printed_expansion():
    omega = form(GL2, "d(x)*d(y)", 2)
    t = to_tensor(omega, GL2.gamma, GL2.system)
    assert t.entries == {
        ((), (1, 2)): parse_scalar("q^-2"),
        ((), (2, 1)): parse_scalar("-q^-1"),
    }


def test_to_tensor_kills_relation_rows():
    # rows of (E + D) lifted to tensors must vanish: wedge well-definedness
    for plane in (GL2, SPHERE):
        e = planes.identity(plane.dimension)
        m = e + plane.d
        n = plane.dimension
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                row = []
                for k in range(1, n + 1):
                    for l in range(1, n + 1):
                        v = m.at((i, j), (k, l))
                        if not v.is_zero():
                            row.append(((k, l), v))
                t = tensor_lift_words(row, plane.gamma)
                assert t.is_zero(), (plane.name, i, j)


def test_to_tensor_sphere_row():
    omega = form(SPHERE, "d(x+)*d(x-)", 2)
    t = to_tensor(omega, SPHERE.gamma, SPHERE.system)
    # normal form of dx+ dx- is -dx- dx+; the lift of that word carries
    # the (E - Gamma) row at (-,+): slots (3,1) and -Gamma contribution
    assert t.entries[((), (1, 3))] == parse_scalar("1")
    assert t.entries[((), (3, 1))] == parse_scalar("-1")


def test_sphere_tensor_matches_printed_expansion():
    from qplane import symp
    om = symp.symplectic_form(SPHERE)
    got = {key: str(v) for key, v in om.tensor.entries.items()}
    xp, x0, xm = (gen(COORD, 1),), (gen(COORD, 2),), (gen(COORD, 3),)
    want = {
        (xp, (3, 2)): "-1", (xp, (2, 3)): "-1",
        (xm, (2, 1)): "1", (xm, (1, 2)): "1",
        (x0, (1, 3)): "-1", (x0, (3, 1)): "1",
    }
    assert got == want


# -- pairing and contraction -------------------------------------------------------

def test_pair_delta():
    dx = form(GL2, "d(x)", 1)
    dy = form(GL2, "d(y)", 1)
    assert pair(VectorField.basis(1), dy, GL2.system).is_zero()
    assert pair(VectorField.basis(2), dy, GL2.system) == AlgebraElement.unit()
    assert pair(VectorField.basis(1), dx, GL2.system) == AlgebraElement.unit()


def test_pair_with_coefficient():
    # oracle: the exchange matrix entry C[(2,1),(1,2)] = q
    alpha = form(GL2, "y * d(x)", 1)
    got = pair(VectorField.basis(1), alpha, GL2.system)
    assert got == GL2.nf(GL2.parse("q * y"))
    assert GL2.c.at((2, 1), (1, 2)) == parse_scalar("q")


def test_pair_left_linear():
    rng = random.Random(3)
    for _ in range(20):
        f = rand_coord_poly(GL2, rng, max_degree=2, terms=2)
        alpha = form(GL2, "y*d(x) + x*d(y)", 1)
        lhs = pair(VectorField.basis(1, f), alpha, GL2.system)
        rhs = ncalg.multiply(f, pair(VectorField.basis(1), alpha, GL2.system),
                             GL2.system)
        assert lhs == rhs


def test_contract_first_slot():
    t = TensorForm(2, {((), (1, 2)): parse_scalar("1")})
    got = contract(VectorField.basis(2), t, GL2.system)
    assert got.is_zero()
    t = TensorForm(2, {((), (2, 1)): parse_scalar("1")})
    got = contract(VectorField.basis(2), t, GL2.system)
    assert got.entries == {((), (1,)): parse_scalar("1")}


def _expected_contract_generator(plane, i, j, k):
    # delta_i^j dx^k - Gamma^{jk}_{im} dx^m
    want = AlgebraElement.zero()
    if i == j:
        want = want + AlgebraElement.from_word((gen(DIFF, k),))
    for m in range(1, plane.dimension + 1):
        v = plane.gamma.at((j, k), (i, m))
        if not v.is_zero():
            want = want - AlgebraElement.from_word((gen(DIFF, m),), v)
    return plane.nf(want)


def test_contract_generator_identity_all_indices():
    for plane in (GL2, SPHERE):
        n = plane.dimension
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                for k in range(1, n + 1):
                    body = plane.nf(AlgebraElement.from_word(
                        (gen(DIFF, j), gen(DIFF, k))))
                    t = to_tensor(WedgeForm(2, body), plane.gamma,
                                  plane.system)
                    got = one_form_body(contract(VectorField.basis(i), t,
                                                 plane.system))
                    assert plane.nf(got) == _expected_contract_generator(
                        plane, i, j, k), (plane.name, i, j, k)


def _expected_contract_coefficient(plane, i, j, k, l):
    # C^{jk}_{in} x^n dx^l - C^{js}_{in} Gamma^{kl}_{st} x^n dx^t
    want = AlgebraElement.zero()
    n = plane.dimension
    for nn in range(1, n + 1):
        v = plane.c.at((j, k), (i, nn))
        if not v.is_zero():
            want = want + AlgebraElement.from_word(
                (gen(COORD, nn), gen(DIFF, l)), v)
    for s in range(1, n + 1):
        for t in range(1, n + 1):
            gv = plane.gamma.at((k, l), (s, t))
            if gv.is_zero():
                continue
            for nn in range(1, n + 1):
                cv = plane.c.at((j, s), (i, nn))
                if not cv.is_zero():
                    want = want - AlgebraElement.from_word(
                        (gen(COORD, nn), gen(DIFF, t)), cv * gv)
    return plane.nf(want)


def test_contract_coefficient_identity_all_indices():
    for plane in (GL2, SPHERE):
        n = plane.dimension
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                for k in range(1, n + 1):
                    for l in range(1, n + 1):
                        body = plane.nf(AlgebraElement.from_word(
                            (gen(COORD, j), gen(DIFF, k), gen(DIFF, l))))
                        t = to_tensor(WedgeForm(2, body), plane.gamma,
                                      plane.system)
                        got = one_form_body(
                            contract(VectorField.basis(i), t, plane.system))
                        assert plane.nf(got) == _expected_contract_coefficient(
                            plane, i, j, k, l), (plane.name, i, j, k, l)


def test_contract_degree_zero_rejected():
    with pytest.raises(QcalcError):
        contract(VectorField.basis(1), TensorForm(0), GL2.system)


# -- field application ---------------------------------------------------------------

def test_apply_field_examples():
    x_field = VectorField.basis(2, AlgebraElement.unit(parse_scalar("q")))
    assert apply_field(x_field, GL2.parse("y"), GL2.system) == \
        AlgebraElement.unit(parse_scalar("q"))
    neg = VectorField.basis(1, AlgebraElement.unit(parse_scalar("-q^2")))
    assert apply_field(neg, GL2.parse("x"), GL2.system) == \
        AlgebraElement.unit(parse_scalar("-q^2"))
    mixed = VectorField({3: ORTH3.parse("x-"), 1: ORTH3.parse("x+")})
    assert apply_field(mixed, ORTH3.parse("x0"), ORTH3.system).is_zero()


def test_vector_field_coefficients_must_be_coordinates():
    with pytest.raises(QcalcError):
        VectorField({1: GL2.parse("d(x)")})
