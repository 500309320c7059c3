"""Symplectic layer: closedness, nondegeneracy, Hamiltonian fields, brackets.

On a quotient plane (the sphere) the differential of the defining central
element generates extra relations among forms.  Those cannot be oriented
as two-letter rewrite rules without breaking confluence, so they are kept
as a left module of form relations and quotiented out by exact linear
algebra: an element of differential degree k is reduced modulo the span of
(coordinate monomial) * (constraint form) * (differential letters).  The
span is the echelon basis (:func:`qplane.linalg.echelon`) of those
generators, largest word first, so each row is monic at its own lead
word, which no other row holds, and a reduction is one pass.  Word rewriting
and this module reduction together realize the sphere's exterior algebra;
on unconstrained planes the module is empty and reduction is the
identity.

A span is built from an echelon basis of its cores nf(p * g * u), the
constraint forms g padded by normal differential words p and u (other
words add nothing, as nf(p * g * u) = nf(nf(p) * g * u)), extended by the
normal coordinate words x^w (``ncalg.normal_words``).  This is exact for
two reasons.  Scalars and the radius symbol are central and the normal
form is linear, so the x^w * B over the basis rows B span what the
x^w * core span, and a space has one reduced echelon basis.  And no rule's
left side has ascending kinds, so the normal form of x^w times a word of B
is the normal form of x^w times the word's coordinate head, followed by
its differential tail.  On the sphere at k = 3 the 21 cores have 7 basis
rows, so the span at coordinate bound 6, of rank 224, is the echelon
basis of 7 x 49 = 343 generators.

A Hamiltonian field solves X~|omega = -df over the fields whose
coefficients have degree at most a bound.  The contraction keeps a
field's coefficient on the left, so X -> X~|omega is a left module map,
fixed by the n coordinate contractions C_j = scale * (d_j~|omega): a form
contracts omega with d_1, ..., d_n once, on first use, and maps
X = sum_j f_j d_j to the sum of nf(f_j * C_j).  Each ``SymplecticForm``
also keeps one ``_HamiltonianSystem`` per bound: the columns nf(w * C_j)
over the ansatz unknowns w d_j, the same modulo the constraint module, and
the kernel of that map.  One routine reads a kernel off an rref:
``is_nondegenerate`` the unreduced columns', the system the reduced ones'.
Each field is one elimination against the reduced columns.  A solve
splits each homogeneous component of f once per direction
(``qcalc.derivative_actions``): those actions give the component's
target, and their sums, the actions of d_i on f and the body of d f, are
what the conserving choice and the residual read.
"""

from __future__ import annotations

import warnings
from collections import namedtuple

from . import ncalg, qcalc, scalar
from .linalg import echelon, rref_rows
from .ncalg import COORD, DIFF, AlgebraElement
from .qcalc import TensorForm, VectorField, WedgeForm, one_form_body
from .scalar import Scalar


class SympError(ValueError):
    pass


class NonUniqueFieldWarning(UserWarning):
    """The Hamiltonian field is a family; its canonical particular was used."""


class NoSolutionError(SympError):
    """No Hamiltonian vector field exists within the degree bound."""


class SymplecticForm:
    """2-form with cached tensor representation and a constant prefactor."""

    __slots__ = ("wedge", "tensor", "scale", "_contractions", "_systems")

    def __init__(self, wedge: WedgeForm, tensor: TensorForm, scale: Scalar):
        if wedge.degree != 2:
            raise SympError("symplectic candidate must be a 2-form")
        if scale.is_zero():
            raise SympError("scale must be nonzero")
        self.wedge = wedge
        self.tensor = tensor
        self.scale = scale
        # {j: scale * (d_j~|omega)}, built on first use
        self._contractions = None
        # max_degree -> its _HamiltonianSystem
        self._systems = {}


def symplectic_form(plane) -> SymplecticForm:
    """The plane's declared symplectic form (wedge + tensor + scale).

    It is built on first use and kept on the plane value
    (``plane.symplectic``), with its per-bound Hamiltonian systems; a form
    that cannot be built raises the same ``SympError`` text on every call.
    """
    return plane.symplectic


def build_symplectic_form(plane) -> SymplecticForm:
    """Build the plane's declared symplectic form, uncached."""
    if plane.symplectic_body_expr is None:
        raise SympError(f"plane {plane.name} declares no symplectic form")
    if plane.gamma is None:
        raise SympError(
            f"plane {plane.name} has no braiding that satisfies the wedge "
            "condition; tensor representation unavailable")
    body = plane.nf(plane.parse(plane.symplectic_body_expr))
    if body.is_zero():
        raise SympError(f"plane {plane.name}: the symplectic form is zero")
    for w in body.terms:
        _, xis, derivs = ncalg.blocks(w)
        if len(xis) != 2 or derivs:
            raise SympError(
                f"plane {plane.name}: the symplectic form is not a 2-form: "
                f"word {plane.system.word_str(w)} is not a "
                "degree-2 differential word")
    wedge = WedgeForm(2, body)
    scale = plane.parse_coefficient(plane.symplectic_scale_expr)
    tensor = qcalc.to_tensor(wedge, plane.gamma, plane.system)
    return SymplecticForm(wedge, tensor, scale)


# ---------------------------------------------------------------------------
# Constraint-module reduction
# ---------------------------------------------------------------------------

def constraint_reduce(e: AlgebraElement, plane, extra_degree: int = 2
                      ) -> AlgebraElement:
    """Reduce a form body modulo the plane's differential-constraint module.

    The module is spanned by normal forms of  x^w . xi^p . g . xi^u  over
    all constraint generators g, coordinate monomials x^w up to the input's
    coordinate degree plus ``extra_degree``, and normal differential words
    padding g to the input's differential degree.  The margin covers
    relations that only appear after the central quotient trades a
    coordinate pair for the radius symbol.  Identity on planes without
    constraints.
    """
    if not plane.constraint_forms or e.is_zero():
        return e
    sys = plane.system
    splits = [ncalg.blocks(w) for w in e.terms]
    xi_degrees = {len(xis) for _, xis, _ in splits}
    if len(xi_degrees) != 1:
        raise SympError("constraint reduction expects homogeneous "
                        "differential degree")
    k = xi_degrees.pop()
    coord_deg = max(len(coords) for coords, _, _ in splits)
    span = _constraint_span(plane, k, coord_deg + extra_degree)
    return _reduce_against_span(e, span, sys)


def _constraint_span(plane, xi_degree, coord_bound):
    """The echelon basis of the constraint module at differential degree
    ``xi_degree`` and coordinate multipliers up to ``coord_bound``: of the
    x^w * B over the normal coordinate words w and the rows B of the
    cores' echelon basis, each word of B split once into its coordinate
    head and differential tail (see the module docstring).
    """
    key = (xi_degree, coord_bound)
    cache = plane.constraint_spans
    if key in cache:
        return cache[key]
    sys = plane.system
    cores = [core.terms for core in _constraint_cores(plane, xi_degree)]
    # each row as (coordinate head, differential tail, c) per word
    basis = [[ncalg.blocks(word)[:2] + (c,) for word, c in row.items()]
             for row in echelon(cores, sys.word_key).values()]
    gens = []
    for w in ncalg.normal_words(sys, COORD, coord_bound):
        for parts in basis:
            terms = {}
            for head, tail, c in parts:
                for w2, v in sys.reduce_word(w + head).terms.items():
                    ncalg.add_term(terms, w2 + tail, v * c)
            gens.append(terms)
    span = {lead: AlgebraElement(row) for lead, row in
            echelon(gens, sys.word_key).items()}
    cache[key] = span
    return span


def _constraint_cores(plane, xi_degree):
    """The nonzero nf(p * g * u) over the constraint forms g and the
    normal differential words p, u that pad g to ``xi_degree``.  Other
    padding words add nothing, as nf(p * g * u) = nf(nf(p) * g * u)."""
    sys = plane.system
    for form in plane.constraint_forms:
        pad = xi_degree - form.degree
        words = ncalg.normal_words(sys, DIFF, pad)
        for prefix in words:
            for suffix in (u for u in words if len(prefix) + len(u) == pad):
                core = sys.normal_form(
                    AlgebraElement.from_word(prefix).concat(
                        form.body).concat(AlgebraElement.from_word(suffix)))
                if not core.is_zero():
                    yield core


def _reduce_against_span(e, span, sys):
    """``e`` with every lead word of ``span`` cleared, in one pass.

    Each row holds exactly one lead word, its own (the span is an echelon
    basis), so subtracting a row changes no other lead word's coefficient.
    """
    for w in [w for w in e.terms if w in span]:
        e = e - span[w].scale(e.terms[w])
    return e


# ---------------------------------------------------------------------------
# Closedness and nondegeneracy
# ---------------------------------------------------------------------------

def is_closed(omega: SymplecticForm, plane) -> bool:
    """d(omega) = 0, checked modulo the plane's constraint module."""
    d_body = qcalc.d_form(omega.wedge, plane.system).body
    return constraint_reduce(d_body, plane).is_zero()


def is_nondegenerate(omega: SymplecticForm, plane, max_degree: int = 1):
    """Trivial kernel of X -> X~|omega on the bounded ansatz space.

    Returns (verdict, witness): witness is a nonzero kernel field when the
    verdict is False.  The certificate only covers coefficients up to
    ``max_degree``.
    """
    system = _system(omega, plane, max_degree)
    kernel = _kernel(system.columns, system.variables, plane.system)
    return (False, kernel[0]) if kernel else (True, None)


def _ansatz(plane, max_degree):
    # low-degree unknowns first: the rref particular (free variables zero)
    # then concentrates on minimal-degree coefficients
    words = ncalg.normal_words(plane.system, COORD, max_degree)
    key = plane.system.word_key  # shortest words first
    return sorted(((j, w) for j in range(1, plane.dimension + 1)
                   for w in words), key=lambda t: (key(t[1]), t[0]))


def _contract(field, omega, plane):
    """The body of scale * (X~|omega): the sum of nf(f_j * C_j) over the
    components f_j d_j of X (see the module docstring)."""
    sys = plane.system
    if omega._contractions is None:
        omega._contractions = {
            j: one_form_body(qcalc.contract(
                VectorField.basis(j), omega.tensor, sys)).scale(omega.scale)
            for j in range(1, plane.dimension + 1)}
    out = {}
    for j, f in field.components.items():
        product = f.concat(omega._contractions[j])
        for w, c in sys.normal_form(product).terms.items():
            ncalg.add_term(out, w, c)
    return AlgebraElement(out)


# The map X -> X~|omega on one bounded ansatz: ``variables`` lists the
# unknowns (direction j, coefficient word w), ``columns`` the one-form
# bodies nf(w * C_j) (see ``_contract``), ``reduced`` the same modulo the
# constraint module, and ``kernel`` the kernel basis of ``reduced``, a
# tuple every report at this degree bound shares.
_HamiltonianSystem = namedtuple("_HamiltonianSystem",
                                "variables columns reduced kernel")


def _system(omega, plane, max_degree):
    """The Hamiltonian system of ``omega`` at ``max_degree``, built once."""
    system = omega._systems.get(max_degree)
    if system is not None:
        return system
    variables = _ansatz(plane, max_degree)
    columns = [_contract(VectorField.basis(j, AlgebraElement.from_word(w)),
                         omega, plane) for j, w in variables]
    reduced = [constraint_reduce(col, plane) for col in columns]
    kernel = _kernel(reduced, variables, plane.system)
    system = _HamiltonianSystem(variables, columns, reduced, kernel)
    omega._systems[max_degree] = system
    return system


def _rref_columns(columns, sys):
    """rref of the matrix whose columns are the given form bodies.

    Row r holds the coefficients of the r-th word (in ``sys.word_key``
    order) that occurs in any column, as a sparse row {column index:
    coefficient}; a word a column lacks stores nothing.
    """
    words = sorted({w for col in columns for w in col.terms},
                   key=sys.word_key)
    index = {w: r for r, w in enumerate(words)}
    rows = [{} for _ in words]
    for c, col in enumerate(columns):
        for w, v in col.terms.items():
            rows[index[w]][c] = v
    return rref_rows(rows, len(columns)) if rows else ([], [])


def _solve_columns(columns, targets, sys):
    """Solve sum_p t_p * columns[p] == b for each b of ``targets`` by one
    rref of [columns | targets].

    Returns one list per target of the nonzero (p, t_p) of the solution
    with every free unknown zero, in pivot order, or None when any target
    is out of reach.
    """
    reduced, pivots = _rref_columns(columns + targets, sys)
    last = len(columns)
    if pivots and pivots[-1] >= last:
        return None
    return [[(p, reduced[r][b]) for r, p in enumerate(pivots)
             if b in reduced[r]]
            for b in range(last, last + len(targets))]


def _kernel(columns, variables, sys):
    """The kernel basis of the map with these columns, as a tuple of
    fields: one per free column, with its unknown 1 and every other free
    unknown 0."""
    reduced, pivots = _rref_columns(columns, sys)
    return tuple(
        _field(variables, [(free, scalar.ONE)] + [
            (p, -reduced[r][free]) for r, p in enumerate(pivots)
            if free in reduced[r]])
        for free in range(len(variables)) if free not in pivots)


def _field(variables, coeffs):
    """The field sum of c * w d_j over the (p, c) of ``coeffs``, with
    (j, w) = variables[p]."""
    components = {}
    for p, c in coeffs:
        j, w = variables[p]
        ncalg.add_term(components.setdefault(j, {}), w, c)
    return VectorField({j: AlgebraElement(terms)
                        for j, terms in components.items()})


# ---------------------------------------------------------------------------
# Hamiltonian vector fields
# ---------------------------------------------------------------------------

# Solution set of X~|omega = -df within a coefficient-degree bound:
# ``status`` is "unique", "family" or "none", and ``kernel_basis`` is the
# tuple every report at this degree bound shares.
SolveReport = namedtuple("SolveReport", "status particular kernel_basis")


def hamiltonian_vector_field(f: AlgebraElement, omega: SymplecticForm,
                             plane, max_degree: int = 1) -> SolveReport:
    """Solve the defining linear system of the Hamiltonian field of f.

    One elimination of [reduced | targets] per f, with one target -df_n
    for each homogeneous component f_n of f.  The rref particular (free
    unknowns zero) is linear in the target, so the particulars sum to the
    one of -df.  Each target column is kept homogeneous because a scalar
    holds one power of the sphere's radius symbol, so a row operation on
    a column that mixes degrees there can fail to add.

    Each component is split once per direction: its actions give its
    target, and, as d_i is linear, their sums give d_i f and the d f
    that the conserving choice and the residual read.  Those sums are
    taken only when read, so a system with no solution adds nothing
    across components.
    """
    sys = plane.system
    if not f.is_pure(COORD):
        raise SympError("hamiltonian_vector_field expects a pure "
                        "coordinate element")
    f = sys.normal_form(f)
    system = _system(omega, plane, max_degree)
    directions = range(1, plane.dimension + 1)
    actions, bodies = [], []
    for n in sorted({len(w) for w in f.terms}):
        part = AlgebraElement({w: c for w, c in f.terms.items()
                               if len(w) == n})
        actions.append(qcalc.derivative_actions(part, directions, sys))
        bodies.append(qcalc.d_of_actions(actions[-1], sys))
    targets = [constraint_reduce(body, plane).scale(scalar.MINUS_ONE)
               for body in bodies]
    solutions = _solve_columns(system.reduced, targets, sys)
    if solutions is None:
        return SolveReport("none", None, ())
    particular = _field(system.variables,
                        [pv for solution in solutions for pv in solution])
    kernel = system.kernel
    if kernel:
        zero = AlgebraElement.zero()
        f_actions = {i: sum((a[i] for a in actions), zero)
                     for i in directions}
        particular = _prefer_conserving(f_actions, particular, kernel, plane)
    status = "unique" if not kernel else "family"
    _check_residual(sum(bodies, AlgebraElement.zero()), particular, omega,
                    plane, max_degree)
    return SolveReport(status, particular, kernel)


def _prefer_conserving(f_actions, particular, kernel, plane):
    """Canonical representative of a solution family: make X_f(f) vanish.

    A Hamiltonian should be a constant of its own motion; when the kernel
    of the contraction map allows it, shift the particular solution so that
    applying it to f gives zero.  Each field is applied to f through f's
    ``qcalc.derivative_actions``, ``f_actions``.  Unreachable shifts leave
    the rref particular unchanged.
    """
    sys = plane.system
    base = qcalc.apply_to_actions(particular, f_actions, sys)
    if base.is_zero():
        return particular
    images = [qcalc.apply_to_actions(z, f_actions, sys) for z in kernel]
    solutions = _solve_columns(images, [-base], sys)
    if solutions is None:
        return particular  # inconsistent: no conserving representative
    shifted = particular
    for p, t in solutions[0]:
        shifted = shifted + kernel[p].scale(t)
    return shifted


def _check_residual(df, field, omega, plane, max_degree):
    """Raise unless ``field`` contracts omega to -d f, given the body
    ``df`` of d f, modulo the constraint module."""
    sys = plane.system
    residual = _contract(field, omega, plane) + df
    # at the solver's own multiplier bound first, and at a wider one only
    # when that leaves a remainder: a span grows with its bound, so a
    # residual that vanishes at the first vanishes at the second, and a
    # remainder is judged and named at the wider bound
    if constraint_reduce(residual, plane).is_zero():
        return
    reduced = constraint_reduce(residual, plane, extra_degree=4)
    if not reduced.is_zero():
        word = min(reduced.terms, key=sys.word_key)
        raise SympError(
            f"internal error: solver residual at degree bound {max_degree} "
            f"is nonzero; its first word is {sys.word_str(word)}")


def poisson_bracket(f: AlgebraElement, g: AlgebraElement,
                    omega: SymplecticForm, plane, max_degree: int = 1
                    ) -> AlgebraElement:
    """[f, g] = -X_f g using the canonical particular solution for X_f."""
    report = hamiltonian_vector_field(f, omega, plane, max_degree)
    if report.status == "none":
        raise NoSolutionError("no Hamiltonian vector field within the "
                              f"degree bound {max_degree}")
    if report.status == "family":
        warnings.warn(
            "Hamiltonian field is determined only up to a "
            f"{len(report.kernel_basis)}-dimensional kernel; the canonical "
            "particular solution was used", NonUniqueFieldWarning,
            stacklevel=2)
    return bracket_from_field(report.particular, g, plane)


def bracket_from_field(field: VectorField, g: AlgebraElement, plane
                       ) -> AlgebraElement:
    """[f, g] = -X_f(g), given the Hamiltonian field X_f of f."""
    value = qcalc.apply_field(field, plane.nf(g), plane.system)
    return value.scale(scalar.MINUS_ONE)


def equations_of_motion(h: AlgebraElement, omega: SymplecticForm, plane,
                        max_degree: int = 1):
    """Right-hand sides xdot_i = [x_i, H] for every coordinate generator."""
    out = {}
    for g in plane.coordinate_generators():
        xi = AlgebraElement.from_word((g,))
        out[plane.generator_names[g[1] - 1]] = poisson_bracket(
            xi, h, omega, plane, max_degree)
    return out
