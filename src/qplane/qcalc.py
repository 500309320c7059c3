"""q-deformed differential calculus: d, wedge, tensor forms, pairings.

Forms live in the xi-algebra: a k-form is an element whose normal words
consist of a coordinate prefix followed by exactly k differentials.  The
tensor representation keeps the k differential slots free (no relations),
which is where contraction against vector fields happens; the braiding
matrix of the plane links the two pictures.
"""

from __future__ import annotations

from . import ncalg
from .linalg import LegMatrix
from .ncalg import COORD, DERIV, DIFF, AlgebraElement, RewriteSystem, gen
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
        return all(e.is_zero() for e in self.components.values())

    def __eq__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        keys = set(self.components) | set(other.components)
        return all(
            self.components.get(k, AlgebraElement.zero())
            == other.components.get(k, AlgebraElement.zero())
            for k in keys
        )

    def __repr__(self):
        return f"VectorField({sorted(self.components)})"


class WedgeForm:
    """Homogeneous form of fixed differential degree in normal order."""

    __slots__ = ("degree", "body")

    def __init__(self, degree: int, body: AlgebraElement):
        for w in body.terms:
            k = sum(1 for g in w if g[0] == DIFF)
            if k != degree or any(g[0] == DERIV for g in w):
                raise QcalcError(
                    f"word {w} is not a degree-{degree} differential word")
        self.degree = degree
        self.body = body

    def is_zero(self):
        return self.body.is_zero()

    def __add__(self, other):
        if self.degree != other.degree:
            raise QcalcError("cannot add forms of different degree")
        return WedgeForm(self.degree, self.body + other.body)

    def __sub__(self, other):
        return self + WedgeForm(other.degree, -other.body)

    def scale(self, c: Scalar) -> "WedgeForm":
        return WedgeForm(self.degree, self.body.scale(c))

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
        key = (tuple(word), tuple(slots))
        cur = self.entries.get(key)
        if cur is None:
            if not c.is_zero():
                self.entries[key] = c
        else:
            s = cur + c
            if s.is_zero():
                del self.entries[key]
            else:
                self.entries[key] = s

    def scale(self, c: Scalar) -> "TensorForm":
        out = TensorForm(self.degree)
        for key, v in self.entries.items():
            out.entries[key] = v * c
        return out

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
    out = AlgebraElement.zero()
    for (word, slots), c in t.entries.items():
        out = out + AlgebraElement.from_word(word + (gen(DIFF, slots[0]),), c)
    return out


# ---------------------------------------------------------------------------
# Exterior differential
# ---------------------------------------------------------------------------

def d_function(f: AlgebraElement, sys: RewriteSystem) -> WedgeForm:
    """d f = sum_i xi_i . (d_i f), normal-ordered to functions-left form."""
    if not f.is_pure(COORD):
        raise QcalcError("d_function expects a pure coordinate element")
    total = AlgebraElement.zero()
    for i in range(1, sys.dimension + 1):
        action = ncalg.derivative_action(i, f, sys)
        if action.is_zero():
            continue
        xi = AlgebraElement.from_word((gen(DIFF, i),))
        total = total + sys.normal_form(xi.concat(action))
    return WedgeForm(1, total)


def d_form(omega: WedgeForm, sys: RewriteSystem) -> WedgeForm:
    """Differentiate coordinate coefficients; differentials are d-closed."""
    total = AlgebraElement.zero()
    for w, c in sys.normal_form(omega.body).terms.items():
        split = 0
        while split < len(w) and w[split][0] == COORD:
            split += 1
        coord, xis = w[:split], w[split:]
        df = d_function(AlgebraElement.from_word(coord, c), sys)
        if not df.is_zero():
            total = total + sys.normal_form(
                df.body.concat(AlgebraElement.from_word(xis)))
    return WedgeForm(omega.degree + 1, total)


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
    for w, c in sys.normal_form(omega.body).terms.items():
        coord = tuple(g for g in w if g[0] == COORD)
        a, b = [g[1] for g in w if g[0] == DIFF]
        _add_lift(out, coord, a, b, c, gamma, sys.dimension)
    return out


def _add_lift(out: TensorForm, coord, a, b, c: Scalar, gamma: LegMatrix, n):
    """Add c * coord * (xi_a (x) xi_b - Gamma row (a, b)) to ``out``."""
    out.add_entry(coord, (a, b), c)
    for k in range(1, n + 1):
        for l in range(1, n + 1):
            v = gamma.at((a, b), (k, l))
            if not v.is_zero():
                out.add_entry(coord, (k, l), -(c * v))


# ---------------------------------------------------------------------------
# Pairings and contraction
# ---------------------------------------------------------------------------

def pair(x: VectorField, alpha: WedgeForm, sys: RewriteSystem
         ) -> AlgebraElement:
    """Inner product <f d_i, g dx^j>: ``x`` contracted with alpha's slot."""
    if alpha.degree != 1:
        raise QcalcError("pair expects a one-form")
    body = sys.normal_form(alpha.body)
    t = contract(x, TensorForm(1, {(w[:-1], (w[-1][1],)): c
                                   for w, c in body.terms.items()}), sys)
    return AlgebraElement({w: c for (w, _), c in t.entries.items()})


def contract(x: VectorField, t: TensorForm, sys: RewriteSystem) -> TensorForm:
    """First-slot contraction after derivative transport."""
    if t.degree < 1:
        raise QcalcError("cannot contract a degree-0 tensor")
    out = TensorForm(t.degree - 1)
    for i, f in x.components.items():
        for (word, slots), c in t.entries.items():
            h = ncalg.transport(i, AlgebraElement.from_word(word), sys)
            g = h.get(slots[0])
            if g is None:
                continue
            value = sys.normal_form(f.concat(g)).scale(c)
            for w, v in value.terms.items():
                out.add_entry(w, slots[1:], v)
    return out


def apply_field(x: VectorField, f: AlgebraElement, sys: RewriteSystem
                ) -> AlgebraElement:
    """X(f) = sum coeff . (d_direction f), a pure coordinate element."""
    if not f.is_pure(COORD):
        raise QcalcError("apply_field expects a pure coordinate element")
    out = AlgebraElement.zero()
    for i, coeff in x.components.items():
        action = ncalg.derivative_action(i, f, sys)
        if not action.is_zero():
            out = out + sys.normal_form(coeff.concat(action))
    return out
