"""q-deformed differential calculus: d, wedge, tensor forms, pairings.

Forms live in the xi-algebra: a k-form is an element whose normal words
consist of a coordinate prefix followed by exactly k differentials.  The
tensor representation keeps the k differential slots free (no relations),
which is where contraction against vector fields happens; the braiding
matrix of the plane links the two pictures.  The normal-word layout, the
split d_i f = action + sum_j h_j d_j that d, contraction and field
application read, and the term accumulator are :mod:`qplane.ncalg`'s
(see its module docstring).
"""

from __future__ import annotations

from . import ncalg
from .linalg import LegMatrix
from .ncalg import COORD, DIFF, AlgebraElement, RewriteSystem, gen
from .scalar import Scalar


class QcalcError(ValueError):
    pass


class VectorField:
    """Finite sum of (pure-coordinate coefficient) * d_direction."""

    __slots__ = ("components",)

    def __init__(self, components=None):
        # direction index -> coefficient AlgebraElement
        self.components = {}
        if components:
            for j, coeff in components.items():
                if not coeff.is_zero():
                    if not coeff.is_pure(COORD):
                        raise QcalcError("vector field coefficients must be "
                                         "pure coordinate elements")
                    self.components[j] = coeff

    @staticmethod
    def basis(direction: int, coeff: AlgebraElement = None) -> "VectorField":
        return VectorField({direction: coeff if coeff is not None
                            else AlgebraElement.unit()})

    def __add__(self, other):
        out = dict(self.components)
        for j, c in other.components.items():
            out[j] = out.get(j, AlgebraElement.zero()) + c
        return VectorField(out)

    def scale(self, c: Scalar) -> "VectorField":
        return VectorField({j: e.scale(c) for j, e in self.components.items()})

    def is_zero(self):
        return not self.components

    def __eq__(self, other):
        # no component is stored zero
        if not isinstance(other, VectorField):
            return NotImplemented
        return self.components == other.components

    def __repr__(self):
        return f"VectorField({sorted(self.components)})"


class WedgeForm:
    """Homogeneous form of fixed differential degree in normal order."""

    __slots__ = ("degree", "body")

    def __init__(self, degree: int, body: AlgebraElement):
        for w in body.terms:
            _, xis, derivs = ncalg.blocks(w)
            if len(xis) != degree or derivs:
                raise QcalcError(
                    f"word {w} is not a degree-{degree} differential word")
        self.degree = degree
        self.body = body

    def is_zero(self):
        return self.body.is_zero()

    def __eq__(self, other):
        if not isinstance(other, WedgeForm):
            return NotImplemented
        return self.degree == other.degree and self.body == other.body

    def __repr__(self):
        return f"WedgeForm(degree={self.degree}, {len(self.body.terms)} terms)"


class TensorForm:
    """Coordinate words times free tensor slots of differentials."""

    __slots__ = ("degree", "entries")

    def __init__(self, degree: int, entries=None):
        self.degree = degree
        self.entries = {}
        if entries:
            for (word, slots), c in entries.items():
                if len(slots) != degree:
                    raise QcalcError("slot arity mismatch")
                if not c.is_zero():
                    self.entries[(word, slots)] = c

    def add_entry(self, word, slots, c: Scalar):
        if not c.is_zero():
            ncalg.add_term(self.entries, (tuple(word), tuple(slots)), c)

    def is_zero(self):
        return not self.entries

    def __eq__(self, other):
        if not isinstance(other, TensorForm):
            return NotImplemented
        return self.degree == other.degree and self.entries == other.entries

    def __repr__(self):
        return f"TensorForm(degree={self.degree}, {len(self.entries)} entries)"


def one_form_body(t: TensorForm) -> AlgebraElement:
    """Identify a degree-1 tensor with its xi-algebra body."""
    if t.degree != 1:
        raise QcalcError("expected a degree-1 tensor")
    out = {}
    for (word, slots), c in t.entries.items():
        ncalg.add_term(out, word + (gen(DIFF, slots[0]),), c)
    return AlgebraElement(out)


# ---------------------------------------------------------------------------
# Exterior differential
# ---------------------------------------------------------------------------

def derivative_actions(f: AlgebraElement, directions, sys: RewriteSystem):
    """{i: the action of d_i on f} for each direction i of ``directions``,
    each read off one ``ncalg.derivative_split``.  d f
    (:func:`d_of_actions`) and X(f) (:func:`apply_to_actions`) are built
    from these."""
    if not f.is_pure(COORD):
        raise QcalcError("derivatives act on pure coordinate elements only")
    return {i: ncalg.derivative_split(i, f, sys)[0] for i in directions}


def d_of_actions(actions, sys: RewriteSystem) -> AlgebraElement:
    """The body of d f = sum_i xi_i . (d_i f), normal-ordered to
    functions-left form, from f's ``derivative_actions``."""
    out = {}
    for i, action in actions.items():
        xi = AlgebraElement.from_word((gen(DIFF, i),))
        for w, c in sys.normal_form(xi.concat(action)).terms.items():
            ncalg.add_term(out, w, c)
    return AlgebraElement(out)


def d_function(f: AlgebraElement, sys: RewriteSystem) -> WedgeForm:
    """d f = sum_i xi_i . (d_i f), normal-ordered to functions-left form."""
    directions = range(1, sys.dimension + 1)
    return WedgeForm(1, d_of_actions(derivative_actions(f, directions, sys),
                                     sys))


def d_form(omega: WedgeForm, sys: RewriteSystem) -> WedgeForm:
    """Differentiate coordinate coefficients; differentials are d-closed."""
    out = {}
    for w, c in sys.normal_form(omega.body).terms.items():
        coord, xis, _ = ncalg.blocks(w)
        df = d_function(AlgebraElement.from_word(coord, c), sys)
        moved = sys.normal_form(df.body.concat(AlgebraElement.from_word(xis)))
        for w2, v in moved.terms.items():
            ncalg.add_term(out, w2, v)
    return WedgeForm(omega.degree + 1, AlgebraElement(out))


def wedge(a: WedgeForm, b: WedgeForm, sys: RewriteSystem) -> WedgeForm:
    return WedgeForm(a.degree + b.degree,
                     sys.normal_form(a.body.concat(b.body)))


# ---------------------------------------------------------------------------
# Tensor representation
# ---------------------------------------------------------------------------

def to_tensor(omega: WedgeForm, gamma: LegMatrix, sys: RewriteSystem
              ) -> TensorForm:
    """Lift a 2-form to tensor slots: xi_a xi_b -> xi_a (x) xi_b - Gamma row.

    The lift is well defined when Gamma satisfies the wedge condition
    (D+E)(E-Gamma) = 0 and the braid relation; a plane's ``gamma`` is a
    braiding candidate that passed that check (``planes.resolve_gamma``).
    """
    if omega.degree != 2:
        raise QcalcError("to_tensor expects a 2-form")
    out = TensorForm(2)
    rows = _braiding_rows(gamma)
    for w, c in sys.normal_form(omega.body).terms.items():
        coord, ((_, a), (_, b)), _ = ncalg.blocks(w)
        _add_lift(out, coord, a, b, c, rows)
    return out


def _braiding_rows(gamma: LegMatrix):
    """Gamma's nonzero entries by row: {(a, b): [((k, l), value), ...]},
    each row in (k, l) order."""
    rows = {}
    for (ab, kl), v in sorted(ncalg.pair_entries(gamma).items()):
        rows.setdefault(ab, []).append((kl, v))
    return rows


def _add_lift(out: TensorForm, coord, a, b, c: Scalar, rows):
    """Add c * coord * (xi_a (x) xi_b - Gamma row (a, b)) to ``out``, with
    Gamma's rows read from ``_braiding_rows``."""
    out.add_entry(coord, (a, b), c)
    for kl, v in rows.get((a, b), ()):
        out.add_entry(coord, kl, -(c * v))


# ---------------------------------------------------------------------------
# Pairings and contraction
# ---------------------------------------------------------------------------

def pair(x: VectorField, alpha: WedgeForm, sys: RewriteSystem
         ) -> AlgebraElement:
    """Inner product <f d_i, g dx^j>: ``x`` contracted with alpha's slot."""
    if alpha.degree != 1:
        raise QcalcError("pair expects a one-form")
    entries = {}
    for w, c in sys.normal_form(alpha.body).terms.items():
        coord, ((_, j),), _ = ncalg.blocks(w)
        entries[coord, (j,)] = c
    t = contract(x, TensorForm(1, entries), sys)
    return AlgebraElement({w: c for (w, _), c in t.entries.items()})


def contract(x: VectorField, t: TensorForm, sys: RewriteSystem) -> TensorForm:
    """First-slot contraction after moving each derivative through the
    entries' coordinate words, once per component and word."""
    if t.degree < 1:
        raise QcalcError("cannot contract a degree-0 tensor")
    out = TensorForm(t.degree - 1)
    for i, f in x.components.items():
        tables = {}
        for (word, slots), c in t.entries.items():
            table = tables.get(word)
            if table is None:
                _, table = ncalg.derivative_split(
                    i, AlgebraElement.from_word(word), sys)
                tables[word] = table
            g = table.get(slots[0])
            if g is None:
                continue
            for w, v in sys.normal_form(f.concat(g)).terms.items():
                out.add_entry(w, slots[1:], v * c)
    return out


def apply_field(x: VectorField, f: AlgebraElement, sys: RewriteSystem
                ) -> AlgebraElement:
    """X(f) = sum coeff . (d_direction f), a pure coordinate element."""
    return apply_to_actions(x, derivative_actions(f, x.components, sys),
                            sys)


def apply_to_actions(x: VectorField, actions, sys: RewriteSystem
                     ) -> AlgebraElement:
    """X(f) from f's ``derivative_actions`` in (at least) the directions
    of X."""
    out = {}
    for i, coeff in x.components.items():
        for w, c in sys.normal_form(coeff.concat(actions[i])).terms.items():
            ncalg.add_term(out, w, c)
    return AlgebraElement(out)
