"""The calculus layer against its former implementation.

The functions prefixed ``ref_`` are the former ``qcalc`` and ``ncalg``
code, copied as it was before the calculus layer read the normal-word
layout and the derivative split from ``ncalg``: d_i was moved through a
function once for its action and once more for its transport table, and
every sum was rebuilt term by term.  The current functions must give the
same values on seeded elements of gl2, orth3, sphere_qm1 and a GL_q(3)
document in a permuted basis.
"""

import json
import random

import pytest

from conftest import glq_plane_document
from qplane import ncalg, planes, qcalc
from qplane.ncalg import COORD, DERIV, DIFF, AlgebraElement, gen
from qplane.qcalc import TensorForm, VectorField, WedgeForm
from qplane.scalar import parse_scalar


# -- the former implementation --------------------------------------------

def ref_move_derivative(i, f, sys):
    deriv = AlgebraElement.from_word((gen(DERIV, i),))
    return sys.normal_form(deriv.concat(f))


def ref_derivative_action(i, f, sys):
    moved = ref_move_derivative(i, f, sys)
    return AlgebraElement({w: c for w, c in moved.terms.items()
                           if all(g[0] != DERIV for g in w)})


def ref_transport(i, f, sys):
    moved = ref_move_derivative(i, f, sys)
    table = {}
    for w, c in moved.terms.items():
        positions = [k for k, g in enumerate(w) if g[0] == DERIV]
        if not positions:
            continue
        assert positions == [len(w) - 1]
        j = w[-1][1]
        table.setdefault(j, AlgebraElement())
        table[j] = table[j] + AlgebraElement.from_word(w[:-1], c)
    return {j: h for j, h in table.items() if not h.is_zero()}


def ref_add_entry(t, word, slots, c):
    key = (tuple(word), tuple(slots))
    cur = t.entries.get(key)
    if cur is None:
        if not c.is_zero():
            t.entries[key] = c
    else:
        s = cur + c
        if s.is_zero():
            del t.entries[key]
        else:
            t.entries[key] = s


def ref_one_form_body(t):
    out = AlgebraElement.zero()
    for (word, slots), c in t.entries.items():
        out = out + AlgebraElement.from_word(word + (gen(DIFF, slots[0]),), c)
    return out


def ref_d_function(f, sys):
    total = AlgebraElement.zero()
    for i in range(1, sys.dimension + 1):
        action = ref_derivative_action(i, f, sys)
        if action.is_zero():
            continue
        xi = AlgebraElement.from_word((gen(DIFF, i),))
        total = total + sys.normal_form(xi.concat(action))
    return total


def ref_d_form(omega, sys):
    total = AlgebraElement.zero()
    for w, c in sys.normal_form(omega.body).terms.items():
        split = 0
        while split < len(w) and w[split][0] == COORD:
            split += 1
        coord, xis = w[:split], w[split:]
        df = ref_d_function(AlgebraElement.from_word(coord, c), sys)
        if not df.is_zero():
            total = total + sys.normal_form(
                df.concat(AlgebraElement.from_word(xis)))
    return total


def ref_to_tensor(omega, gamma, sys):
    out = TensorForm(2)
    n = sys.dimension
    for w, c in sys.normal_form(omega.body).terms.items():
        coord = tuple(g for g in w if g[0] == COORD)
        a, b = [g[1] for g in w if g[0] == DIFF]
        ref_add_entry(out, coord, (a, b), c)
        for k in range(1, n + 1):
            for l in range(1, n + 1):
                v = gamma.at((a, b), (k, l))
                if not v.is_zero():
                    ref_add_entry(out, coord, (k, l), -(c * v))
    return out


def ref_contract(x, t, sys):
    out = TensorForm(t.degree - 1)
    for i, f in x.components.items():
        for (word, slots), c in t.entries.items():
            h = ref_transport(i, AlgebraElement.from_word(word), sys)
            g = h.get(slots[0])
            if g is None:
                continue
            value = sys.normal_form(f.concat(g)).scale(c)
            for w, v in value.terms.items():
                ref_add_entry(out, w, slots[1:], v)
    return out


def ref_apply_field(x, f, sys):
    out = AlgebraElement.zero()
    for i, coeff in x.components.items():
        action = ref_derivative_action(i, f, sys)
        if not action.is_zero():
            out = out + sys.normal_form(coeff.concat(action))
    return out


# -- seeded elements --------------------------------------------------------

def _glq3_permuted():
    return planes.load_plane(json.dumps(glq_plane_document(3, [2, 0, 1])))


PLANES = {
    "gl2": lambda: planes.builtin_plane("gl2"),
    "orth3": lambda: planes.builtin_plane("orth3"),
    "sphere_qm1": lambda: planes.builtin_plane("sphere_qm1"),
    "glq3_permuted": _glq3_permuted,
}


# Every element is homogeneous in the coordinates: on the sphere a scalar
# holds one power of the radius symbol, so a sum of normal forms of words
# of different degrees may not add.

def _coord_poly(rng, plane, degree, terms=3):
    gens = plane.coordinate_generators()
    e = AlgebraElement.zero()
    for _ in range(terms):
        c = parse_scalar(rng.choice(["1", "-2", "q", "1/3", "i - q^-1"]))
        word = tuple(rng.choice(gens) for _ in range(degree))
        e = e + AlgebraElement.from_word(word, c)
    return plane.nf(e)


def _form(rng, plane, degree, terms=3):
    n = plane.dimension
    coord_degree = rng.randint(0, 2)
    e = AlgebraElement.zero()
    for _ in range(terms):
        xis = tuple(gen(DIFF, rng.randint(1, n)) for _ in range(degree))
        e = e + _coord_poly(rng, plane, coord_degree, 1).concat(
            AlgebraElement.from_word(xis))
    return WedgeForm(degree, plane.nf(e))


def _field(rng, plane):
    degree = rng.randint(0, 1)
    return VectorField({j: _coord_poly(rng, plane, degree, 2)
                        for j in range(1, plane.dimension + 1)
                        if rng.random() < 0.7})


def _braiding(plane):
    """The plane's braiding, or else its first candidate: the lift is
    compared as a computation, whether or not Gamma passed."""
    if plane.gamma is not None:
        return plane.gamma
    return plane.gamma_candidates[0][1]


@pytest.mark.parametrize("name", sorted(PLANES))
def test_derivative_split_matches_action_and_transport(name):
    plane = PLANES[name]()
    sys = plane.system
    rng = random.Random(7)
    for _ in range(12):
        f = _coord_poly(rng, plane, rng.randint(0, 3))
        for i in range(1, plane.dimension + 1):
            action, table = ncalg.derivative_split(i, f, sys)
            assert action == ref_derivative_action(i, f, sys)
            assert table == ref_transport(i, f, sys)


@pytest.mark.parametrize("name", sorted(PLANES))
def test_d_and_field_application_match(name):
    plane = PLANES[name]()
    sys = plane.system
    rng = random.Random(11)
    for _ in range(8):
        f = _coord_poly(rng, plane, rng.randint(0, 3))
        assert qcalc.d_function(f, sys).body == ref_d_function(f, sys)
        x = _field(rng, plane)
        assert qcalc.apply_field(x, f, sys) == ref_apply_field(x, f, sys)
        for degree in (1, 2):
            omega = _form(rng, plane, degree)
            assert qcalc.d_form(omega, sys).body == ref_d_form(omega, sys)


@pytest.mark.parametrize("name", sorted(PLANES))
def test_tensor_lift_and_contraction_match(name):
    plane = PLANES[name]()
    sys = plane.system
    gamma = _braiding(plane)
    rng = random.Random(13)
    for _ in range(6):
        omega = _form(rng, plane, 2)
        t = qcalc.to_tensor(omega, gamma, sys)
        assert t == ref_to_tensor(omega, gamma, sys)
        x = _field(rng, plane)
        t1 = qcalc.contract(x, t, sys)
        assert t1 == ref_contract(x, t, sys)
        assert qcalc.one_form_body(t1) == ref_one_form_body(t1)
        y = _field(rng, plane)
        assert qcalc.contract(y, t1, sys) == ref_contract(y, t1, sys)
