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
"""

from __future__ import annotations

import warnings

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

    __slots__ = ("wedge", "tensor", "scale", "_columns_cache")

    def __init__(self, wedge: WedgeForm, tensor: TensorForm, scale: Scalar):
        if wedge.degree != 2:
            raise SympError("symplectic candidate must be a 2-form")
        if scale.is_zero():
            raise SympError("scale must be nonzero")
        self.wedge = wedge
        self.tensor = tensor
        self.scale = scale
        # (max_degree, reduce_constraints) -> (columns, ansatz variables)
        self._columns_cache = {}


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
    tensor = qcalc.to_tensor(wedge, plane.gamma, plane.system,
                             d_matrix=plane.d)
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
    changed = True
    while changed:
        changed = False
        for w in sorted(e.terms, key=sys.word_key, reverse=True):
            row = span.get(w)
            if row is not None:
                e = e - row.scale(e.terms[w])
                changed = True
                break
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
    columns, variables = _contraction_matrix(plane, omega, max_degree)
    rows = sorted({w for col in columns for w in col.terms},
                  key=plane.system.word_key)
    matrix = [[col.terms.get(w, scalar.ZERO) for col in columns]
              for w in rows]
    reduced, pivots = rref_rows(matrix) if rows else ([], [])
    free = [j for j in range(len(variables)) if j not in pivots]
    if not free:
        return True, None
    return False, _kernel_vector(reduced, pivots, free[0], variables)


def _ansatz(plane, max_degree):
    # low-degree unknowns first: the rref particular (free variables zero)
    # then concentrates on minimal-degree coefficients
    words = _normal_coord_words(plane, max_degree)
    variables = [(j, w) for j in range(1, plane.dimension + 1)
                 for w in words]
    variables.sort(key=lambda t: (len(t[1]),
                                  plane.system.word_key(t[1]), t[0]))
    return variables


def _contraction_matrix(plane, omega, max_degree, reduce_constraints=False):
    """One-form bodies of scale * (w d_j) ~| tensor for each ansatz variable.

    Returns (columns, variables) for the ansatz of ``max_degree``.
    """
    key = (max_degree, reduce_constraints)
    cached = omega._columns_cache.get(key)
    if cached is not None:
        return cached
    sys = plane.system
    variables = _ansatz(plane, max_degree)
    columns = []
    for j, w in variables:
        field = VectorField.basis(j, AlgebraElement.from_word(w))
        body = one_form_body(qcalc.contract(field, omega.tensor, sys))
        body = sys.normal_form(body).scale(omega.scale)
        if reduce_constraints:
            body = constraint_reduce(body, plane)
        columns.append(body)
    omega._columns_cache[key] = columns, variables
    return columns, variables


def _kernel_vector(reduced, pivots, free_col, variables):
    coeffs = {free_col: scalar.ONE}
    for r, p in enumerate(pivots):
        v = reduced[r][free_col]
        if not v.is_zero():
            coeffs[p] = -v
    field = VectorField()
    for col, c in coeffs.items():
        j, w = variables[col]
        field = field + VectorField.basis(j, AlgebraElement.from_word(w, c))
    return field


# ---------------------------------------------------------------------------
# Hamiltonian vector fields
# ---------------------------------------------------------------------------

class SolveReport:
    """Solution set of X ~| omega = -df within a coefficient-degree bound."""

    def __init__(self, status, particular, kernel_basis, degree_bound):
        self.status = status  # "unique" | "family" | "none"
        self.particular = particular
        self.kernel_basis = kernel_basis
        self.degree_bound = degree_bound

    def __repr__(self):
        return (f"SolveReport({self.status}, kernel_dim="
                f"{len(self.kernel_basis)}, degree<={self.degree_bound})")


def hamiltonian_vector_field(f: AlgebraElement, omega: SymplecticForm,
                             plane, max_degree: int = 1) -> SolveReport:
    """Solve the defining linear system of the Hamiltonian field of f.

    Degree-inhomogeneous inputs are solved per homogeneous component (the
    system is linear in f and the quotient bookkeeping is graded) and the
    particulars are summed.
    """
    sys = plane.system
    if not f.is_pure(COORD):
        raise SympError("hamiltonian_vector_field expects a pure "
                        "coordinate element")
    f = sys.normal_form(f)
    particular = VectorField()
    kernel = None
    for component in _degree_components(f):
        part, kern = _solve_component(component, omega, plane, max_degree)
        if part is None:
            return SolveReport("none", None, [], max_degree)
        particular = particular + part
        kernel = kern  # identical system matrix for every component
    if kernel is None:
        kernel = _solve_component(AlgebraElement.zero(), omega, plane,
                                  max_degree)[1]
    if kernel:
        particular = _prefer_conserving(f, particular, kernel, plane)
    status = "unique" if not kernel else "family"
    report = SolveReport(status, particular, kernel, max_degree)
    _check_residual(f, particular, omega, plane)
    return report


def _degree_components(f: AlgebraElement):
    by_degree = {}
    for w, c in f.terms.items():
        by_degree.setdefault(len(w), AlgebraElement.zero())
        by_degree[len(w)] = by_degree[len(w)] + AlgebraElement.from_word(w, c)
    return [by_degree[d] for d in sorted(by_degree)]


def _solve_component(f: AlgebraElement, omega: SymplecticForm, plane,
                     max_degree: int):
    sys = plane.system
    columns, variables = _contraction_matrix(plane, omega, max_degree,
                                             reduce_constraints=True)
    target = qcalc.d_function(f, sys).body
    target = constraint_reduce(sys.normal_form(target), plane).scale(
        scalar.MINUS_ONE)
    rows = sorted({w for col in columns for w in col.terms}
                  | set(target.terms), key=sys.word_key)
    if not rows:
        # zero map and zero target: everything is a solution
        kernel = [VectorField.basis(j, AlgebraElement.from_word(w))
                  for j, w in variables]
        return VectorField(), kernel
    matrix = [[col.terms.get(w, scalar.ZERO) for col in columns]
              + [target.terms.get(w, scalar.ZERO)] for w in rows]
    reduced, pivots = rref_rows(matrix)
    ncols = len(variables)
    if ncols in pivots:
        return None, []
    particular = VectorField()
    for r, p in enumerate(pivots):
        v = reduced[r][ncols]
        if not v.is_zero():
            j, w = variables[p]
            particular = particular + VectorField.basis(
                j, AlgebraElement.from_word(w, v))
    free = [j for j in range(ncols) if j not in pivots]
    kernel = [_kernel_vector(reduced, pivots, fc, variables) for fc in free]
    return particular, kernel


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
    words = sorted({w for a in actions for w in a.terms} | set(base.terms),
                   key=sys.word_key)
    if not words:
        return particular
    matrix = [[a.terms.get(w, scalar.ZERO) for a in actions]
              + [-(base.terms.get(w, scalar.ZERO))] for w in words]
    reduced, pivots = rref_rows(matrix)
    if len(actions) in pivots:
        return particular  # inconsistent: no conserving representative
    shifted = particular
    for r, p in enumerate(pivots):
        t = reduced[r][len(actions)]
        if not t.is_zero():
            shifted = shifted + kernel[p].scale(t)
    return shifted


def _check_residual(f, field, omega, plane):
    sys = plane.system
    lhs = one_form_body(qcalc.contract(field, omega.tensor, sys))
    residual = sys.normal_form(lhs).scale(omega.scale) + \
        qcalc.d_function(sys.normal_form(f), sys).body
    # a wider multiplier bound than the solver used: membership tests are
    # monotone in the bound, so this can only confirm
    reduced = constraint_reduce(sys.normal_form(residual), plane,
                                extra_degree=4)
    if not reduced.is_zero():
        raise SympError("internal error: solver residual is nonzero")


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
    value = qcalc.apply_field(report.particular, plane.nf(g), plane.system)
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
