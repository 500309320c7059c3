"""Symplectic layer: closedness, nondegeneracy, Hamiltonian fields, brackets.

On a quotient plane (the sphere) the differential of the defining central
element generates extra relations among forms.  Those cannot be oriented
as two-letter rewrite rules without breaking confluence, so they are kept
as a left module of form relations and quotiented out by exact linear
algebra: an element of differential degree k is reduced modulo the span of
(coordinate monomial) * (constraint form) * (differential letters).  Word
rewriting and this module reduction together realize the sphere's exterior
algebra; on unconstrained planes the module is empty and reduction is the
identity.

A Hamiltonian field solves X~|omega = -df over the fields whose
coefficients have degree at most a bound.  Each ``SymplecticForm`` keeps
one ``_HamiltonianSystem`` per bound: the contraction of omega with each
ansatz field, the same modulo the constraint module, and the kernel of
that map.  ``is_nondegenerate`` reads the contractions, and each field is
one elimination against the reduced ones.
"""

from __future__ import annotations

import warnings
from collections import namedtuple

from . import qcalc, scalar
from .linalg import rref_rows
from .ncalg import COORD, DIFF, AlgebraElement, gen
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

    __slots__ = ("wedge", "tensor", "scale", "_systems")

    def __init__(self, wedge: WedgeForm, tensor: TensorForm, scale: Scalar):
        if wedge.degree != 2:
            raise SympError("symplectic candidate must be a 2-form")
        if scale.is_zero():
            raise SympError("scale must be nonzero")
        self.wedge = wedge
        self.tensor = tensor
        self.scale = scale
        # max_degree -> its _HamiltonianSystem
        self._systems = {}


def symplectic_form(plane) -> SymplecticForm:
    """Build the plane's declared symplectic form (wedge + tensor + scale)."""
    if plane.symplectic_body_expr is None:
        raise SympError(f"plane {plane.name} declares no symplectic form")
    if plane.gamma is None:
        raise SympError(
            f"plane {plane.name} has no braiding that satisfies the wedge "
            "condition; tensor representation unavailable")
    body = plane.nf(plane.parse(plane.symplectic_body_expr))
    wedge = WedgeForm(2, body)
    scale = scalar.parse_scalar(plane.symplectic_scale_expr)
    if plane.specialization is not None:
        scale = scale.specialize(plane.specialization)
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
    coordinate degree plus ``extra_degree``, and differential words padding
    g to the input's differential degree.  The margin covers relations that
    only appear after the central quotient trades a coordinate pair for the
    radius symbol.  Identity on planes without constraints.
    """
    if not plane.constraint_forms or e.is_zero():
        return e
    sys = plane.system
    xi_degrees = {sum(1 for g in w if g[0] == DIFF) for w in e.terms}
    if len(xi_degrees) != 1:
        raise SympError("constraint reduction expects homogeneous "
                        "differential degree")
    k = xi_degrees.pop()
    coord_deg = max(sum(1 for g in w if g[0] == COORD) for w in e.terms)
    span = _constraint_span(plane, k, coord_deg + extra_degree)
    return _reduce_against_span(e, span, sys)


def _constraint_span(plane, xi_degree, coord_bound):
    key = (xi_degree, coord_bound)
    cache = plane.constraint_spans
    if key in cache:
        return cache[key]
    sys = plane.system
    gens = []
    coords = _normal_coord_words(plane, coord_bound)
    for form in plane.constraint_forms:
        pad = xi_degree - form.degree
        if pad < 0:
            continue
        for split in range(pad + 1):
            for prefix in _diff_words(plane, split):
                for suffix in _diff_words(plane, pad - split):
                    core = AlgebraElement.from_word(prefix).concat(
                        form.body).concat(AlgebraElement.from_word(suffix))
                    for w in coords:
                        el = sys.normal_form(
                            AlgebraElement.from_word(w).concat(core))
                        if not el.is_zero():
                            gens.append(el)
    span = _echelonize(gens, sys)
    cache[key] = span
    return span


def _normal_coord_words(plane, max_degree):
    sys = plane.system
    out = [()]
    frontier = [()]
    for _ in range(max_degree):
        nxt = []
        for w in frontier:
            for g in plane.coordinate_generators():
                cand = w + (g,)
                nf = sys.reduce_word(cand)
                if list(nf.terms) == [cand]:
                    nxt.append(cand)
        out.extend(nxt)
        frontier = nxt
    return out


def _diff_words(plane, length):
    if length == 0:
        return [()]
    gens = [gen(DIFF, i) for i in range(1, plane.dimension + 1)]
    words = [()]
    for _ in range(length):
        words = [w + (g,) for w in words for g in gens]
    return words


def _echelonize(elements, sys):
    """Row-reduce a list of elements into (lead word -> element) form."""
    span = {}
    for el in elements:
        el = _reduce_against_span(el, span, sys)
        if el.is_zero():
            continue
        lead = max(el.terms, key=sys.word_key)
        el = el.scale(el.terms[lead].inverse())
        # back-substitute into existing rows
        for lw in list(span):
            row = span[lw]
            c = row.terms.get(lead)
            if c is not None:
                span[lw] = row - el.scale(c)
        span[lead] = el
    return span


def _reduce_against_span(e, span, sys):
    """``e`` with every lead word of ``span`` cleared, in one pass.

    Each row holds exactly one lead word, its own (:func:`_echelonize`
    back-substitutes), so subtracting a row changes no other lead word's
    coefficient.
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
    reduced, pivots = _rref_columns(system.columns, plane.system)
    free = [j for j in range(len(system.variables)) if j not in pivots]
    if not free:
        return True, None
    return False, _kernel_vector(reduced, pivots, free[0], system.variables)


def _ansatz(plane, max_degree):
    # low-degree unknowns first: the rref particular (free variables zero)
    # then concentrates on minimal-degree coefficients
    words = _normal_coord_words(plane, max_degree)
    variables = [(j, w) for j in range(1, plane.dimension + 1)
                 for w in words]
    variables.sort(key=lambda t: (len(t[1]),
                                  plane.system.word_key(t[1]), t[0]))
    return variables


# The map X -> X~|omega on one bounded ansatz: ``variables`` lists the
# unknowns (direction j, coefficient word w), ``columns`` the one-form
# bodies scale * (w d_j)~|tensor, ``reduced`` the same modulo the
# constraint module, and ``kernel`` the kernel basis of ``reduced``, a
# tuple every report at this degree bound shares.
_HamiltonianSystem = namedtuple("_HamiltonianSystem",
                                "variables columns reduced kernel")


def _system(omega, plane, max_degree):
    """The Hamiltonian system of ``omega`` at ``max_degree``, built once."""
    system = omega._systems.get(max_degree)
    if system is not None:
        return system
    sys = plane.system
    variables = _ansatz(plane, max_degree)
    columns = []
    for j, w in variables:
        field = VectorField.basis(j, AlgebraElement.from_word(w))
        body = one_form_body(qcalc.contract(field, omega.tensor, sys))
        columns.append(sys.normal_form(body).scale(omega.scale))
    reduced = [constraint_reduce(col, plane) for col in columns]
    rref, pivots = _rref_columns(reduced, sys)
    kernel = tuple(_kernel_vector(rref, pivots, fc, variables)
                   for fc in range(len(variables)) if fc not in pivots)
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


def _kernel_vector(reduced, pivots, free_col, variables):
    coeffs = {free_col: scalar.ONE}
    for r, p in enumerate(pivots):
        v = reduced[r].get(free_col)
        if v is not None:
            coeffs[p] = -v
    field = VectorField()
    for col, c in coeffs.items():
        j, w = variables[col]
        field = field + VectorField.basis(j, AlgebraElement.from_word(w, c))
    return field


# ---------------------------------------------------------------------------
# Hamiltonian vector fields
# ---------------------------------------------------------------------------

# Solution set of X~|omega = -df within a coefficient-degree bound:
# ``status`` is "unique", "family" or "none", and ``kernel_basis`` is the
# tuple every report at this degree bound shares.
SolveReport = namedtuple("SolveReport",
                         "status particular kernel_basis degree_bound")


def hamiltonian_vector_field(f: AlgebraElement, omega: SymplecticForm,
                             plane, max_degree: int = 1) -> SolveReport:
    """Solve the defining linear system of the Hamiltonian field of f.

    One elimination of [reduced | targets] per f, with one target -df_n
    for each homogeneous component f_n of f.  The rref particular (free
    unknowns zero) is linear in the target, so the particulars sum to the
    one of -df.  Each target column is kept homogeneous because a scalar
    holds one power of the sphere's radius symbol, so a row operation on
    a column that mixes degrees there can fail to add.
    """
    sys = plane.system
    if not f.is_pure(COORD):
        raise SympError("hamiltonian_vector_field expects a pure "
                        "coordinate element")
    f = sys.normal_form(f)
    system = _system(omega, plane, max_degree)
    targets = []
    for n in sorted({len(w) for w in f.terms}):
        part = AlgebraElement({w: c for w, c in f.terms.items()
                               if len(w) == n})
        target = sys.normal_form(qcalc.d_function(part, sys).body)
        targets.append(constraint_reduce(target, plane).scale(
            scalar.MINUS_ONE))
    solutions = _solve_columns(system.reduced, targets, sys)
    if solutions is None:
        return SolveReport("none", None, (), max_degree)
    particular = VectorField()
    for solution in solutions:
        for p, v in solution:
            j, w = system.variables[p]
            particular = particular + VectorField.basis(
                j, AlgebraElement.from_word(w, v))
    kernel = system.kernel
    if kernel:
        particular = _prefer_conserving(f, particular, kernel, plane)
    status = "unique" if not kernel else "family"
    _check_residual(f, particular, omega, plane, max_degree)
    return SolveReport(status, particular, kernel, max_degree)


def _prefer_conserving(f, particular, kernel, plane):
    """Canonical representative of a solution family: make X_f(f) vanish.

    A Hamiltonian should be a constant of its own motion; when the kernel
    of the contraction map allows it, shift the particular solution so that
    applying it to f gives zero.  Unreachable shifts leave the rref
    particular unchanged.
    """
    sys = plane.system
    f_nf = sys.normal_form(f)
    base = qcalc.apply_field(particular, f_nf, sys)
    if base.is_zero():
        return particular
    actions = [qcalc.apply_field(z, f_nf, sys) for z in kernel]
    solutions = _solve_columns(actions, [-base], sys)
    if solutions is None:
        return particular  # inconsistent: no conserving representative
    shifted = particular
    for p, t in solutions[0]:
        shifted = shifted + kernel[p].scale(t)
    return shifted


def _check_residual(f, field, omega, plane, max_degree):
    sys = plane.system
    lhs = one_form_body(qcalc.contract(field, omega.tensor, sys))
    residual = sys.normal_form(lhs).scale(omega.scale) + \
        qcalc.d_function(sys.normal_form(f), sys).body
    # a wider multiplier bound than the solver used: membership tests are
    # monotone in the bound, so this can only confirm
    reduced = constraint_reduce(sys.normal_form(residual), plane,
                                extra_degree=4)
    if not reduced.is_zero():
        word = min(reduced.terms, key=sys.word_key)
        raise SympError(
            f"internal error: solver residual at degree bound {max_degree} "
            "is nonzero; its first word is "
            f"{'*'.join(sys.gen_name(g) for g in word) or '1'}")


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
    return plane.nf(value.scale(scalar.MINUS_ONE))


def equations_of_motion(h: AlgebraElement, omega: SymplecticForm, plane,
                        max_degree: int = 1):
    """Right-hand sides xdot_i = [x_i, H] for every coordinate generator."""
    out = {}
    for g in plane.coordinate_generators():
        xi = AlgebraElement.from_word((g,))
        out[plane.generator_names[g[1] - 1]] = poisson_bracket(
            xi, h, omega, plane, max_degree)
    return out
