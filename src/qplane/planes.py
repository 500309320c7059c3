"""Plane registry: derivation, validation, ingestion and fixture diffing.

A plane is fully determined by its braid matrix, family and eigenvalues:
the calculus matrices B, C, D, F are derived (A-family by rescaling, B-family
through the spectral projector), validated against the consistency system,
and turned into the rewrite rule set.  Specialized planes (the quantum
sphere at q = -1) re-derive their rules after substituting the matrices,
because rule derivation divides by quantities that may vanish exactly at
the special value.

The braid matrix is the single source of truth; the printed relation
tables live in :mod:`qplane.fixtures` and are diffed against the derived
calculus by :func:`verify_reference_relations`.
"""

from __future__ import annotations

import json

from . import fixtures, ncalg, qcalc, scalar
from .linalg import LegMatrix, LinalgError, check_min_poly, check_ybe, \
    from_exprs, gamma_condition, identity, mat_inverse, projector_q, \
    wz_conditions
from .ncalg import COORD, AlgebraElement, gen
from .scalar import Scalar, ScalarError, Specialization, parse_scalar


class PlaneError(ValueError):
    """Plane configuration problem (schema, parsing, unusable values)."""


class PlaneVerificationError(PlaneError):
    """A structural check failed; the message names the violated condition."""


class PlaneSpec:
    """A validated quantum plane with its derived calculus."""

    def __init__(self, name, dimension, generator_names, family):
        self.name = name
        self.dimension = dimension
        self.generator_names = tuple(generator_names)
        self.family = family
        self.r_matrix = None
        self.eigenvalues = ()
        self.specialization = None
        self.parent = None
        self.b = self.c = self.d = self.f = self.q_projector = None
        self.gamma_policy = "auto"
        self.gamma = None
        self.gamma_explicit = None
        self.gamma_candidates = []
        self.monomial_ranks = ()
        self.system = None
        self.quotient_central = None
        self.quotient_central_expr = None
        self.quotient_symbol = None
        self.constraint_forms = []
        self.symplectic_body_expr = None
        self.symplectic_scale_expr = None
        self.wz_report = {}

    # derived views -----------------------------------------------------------

    def coordinate_generators(self):
        return [gen(COORD, i) for i in range(1, self.dimension + 1)]

    def parse(self, text: str) -> AlgebraElement:
        e = ncalg.parse_element(text, self.system)
        if self.specialization is not None:
            e = _specialize_element(e, self.specialization)
        return e

    def nf(self, e: AlgebraElement) -> AlgebraElement:
        return self.system.normal_form(e)

    def show(self, e: AlgebraElement) -> str:
        return ncalg.element_str(e, self.system)

    def signature(self):
        return {
            "dimension": self.dimension,
            "generators": list(self.generator_names),
            "family": self.family,
            "r_matrix": {rc: str(v) for rc, v in
                         sorted(self.r_matrix.entries.items())},
            "eigenvalues": [str(v) for v in self.eigenvalues],
            "q": "generic" if self.specialization is None
                 else str(self.specialization.value),
            "quotient": self.quotient_central_expr,
            "symplectic": self.symplectic_body_expr,
        }

    def __eq__(self, other):
        if not isinstance(other, PlaneSpec):
            return NotImplemented
        return self.signature() == other.signature()

    def __repr__(self):
        q = "generic" if self.specialization is None else str(
            self.specialization)
        return f"PlaneSpec({self.name}, n={self.dimension}, {q})"


def derive_plane(name, dimension, generator_names, family, r_exprs,
                 eigenvalue_exprs, q="generic", gamma_policy=None,
                 gamma_exprs=None, quotient=None, symplectic=None
                 ) -> PlaneSpec:
    """Build and validate a plane from raw configuration values."""
    if family not in ("A", "B"):
        raise PlaneError(f"unknown family {family!r}")
    if len(generator_names) != dimension:
        raise PlaneError("generator list does not match the dimension")
    for n_ in generator_names:
        if n_ in ncalg.RESERVED_NAMES:
            raise PlaneError(f"generator name {n_!r} collides with a "
                             "reserved token")
    if family == "B" and len(eigenvalue_exprs) != 3:
        raise PlaneError("family B requires three eigenvalues "
                         "(lambda0, lambda1, lambda2)")
    if family == "A" and len(eigenvalue_exprs) != 2:
        raise PlaneError("family A requires two eigenvalues "
                         "(lambda1, lambda2)")

    plane = PlaneSpec(name, dimension, generator_names, family)
    plane.gamma_policy = gamma_policy or ("r_over_q" if family == "A"
                                          else "auto")
    plane.r_matrix = from_exprs(r_exprs, dimension)
    plane.eigenvalues = tuple(parse_scalar(e) for e in eigenvalue_exprs)

    _validate_structure(plane)
    _derive_matrices(plane)
    plane.monomial_ranks = _family_ranks(dimension, family)
    plane.system = ncalg.build_rewrite_system(plane)

    if q != "generic":
        sp = _parse_q_value(q)
        plane = _specialize(plane, sp)

    if quotient is not None:
        _attach_quotient(plane, quotient["central"], quotient["symbol"])
    if gamma_exprs is not None:
        plane.gamma_policy = "explicit"
        matrix = from_exprs(gamma_exprs, dimension)
        if plane.specialization is not None:
            matrix = matrix.specialize(plane.specialization)
        plane.gamma_explicit = matrix
    _resolve_gamma_in_place(plane)
    if symplectic is not None:
        plane.symplectic_body_expr = symplectic["form"]
        plane.symplectic_scale_expr = symplectic["scale"]
    return plane


def _parse_q_value(q):
    if isinstance(q, Specialization):
        return q
    try:
        value = parse_scalar(str(q))
        if not value.is_constant() or value.aux:
            raise PlaneError(f"q must be a constant value, got {q!r}")
        return Specialization.from_q(value.constant_value())
    except ScalarError as exc:
        raise PlaneError(f"invalid q value {q!r}: {exc}")


def _validate_structure(plane):
    if not check_ybe(plane.r_matrix):
        raise PlaneVerificationError(
            f"plane {plane.name}: braid Yang-Baxter equation fails for the "
            "given r_matrix")
    if not check_min_poly(plane.r_matrix, plane.eigenvalues):
        raise PlaneVerificationError(
            f"plane {plane.name}: minimal polynomial with the declared "
            "eigenvalues does not annihilate the r_matrix")


def _derive_matrices(plane):
    r = plane.r_matrix
    q = scalar.Q if plane.specialization is None else \
        scalar.Q.specialize(plane.specialization)
    c = r.scale(q)
    try:
        d = mat_inverse(c)
    except LinalgError as exc:
        raise PlaneVerificationError(
            f"plane {plane.name}: C = qR is singular, the exchange matrix "
            f"D = C^-1 does not exist ({exc})")
    if plane.family == "A":
        b = r.scale(q.inverse())
        f = b
        plane.q_projector = None
    else:
        lam0, lam1, lam2 = plane.eigenvalues
        try:
            qpr = projector_q(r, lam0, lam1, lam2)
        except LinalgError as exc:
            raise PlaneError(f"plane {plane.name}: projector undefined "
                             f"({exc})")
        b = identity(plane.dimension) - qpr
        f = b
        plane.q_projector = qpr
    plane.b, plane.c, plane.d, plane.f = b, c, d, f
    plane.wz_report = wz_conditions(b, c, d, f)
    bad = [k for k, ok in plane.wz_report.items() if not ok]
    if bad:
        raise PlaneVerificationError(
            f"plane {plane.name}: consistency conditions failed: {bad}")


def _family_ranks(dimension, family):
    # A-family monomial order follows the declared order (x < y); the
    # B-family basis is written largest-first (+, 0, -), so reverse it.
    if family == "A":
        return tuple(range(1, dimension + 1))
    return tuple(range(dimension, 0, -1))


def _specialize(plane: PlaneSpec, sp: Specialization) -> PlaneSpec:
    out = PlaneSpec(plane.name, plane.dimension, plane.generator_names,
                    plane.family)
    out.parent = plane
    out.specialization = sp
    out.gamma_policy = plane.gamma_policy
    try:
        out.r_matrix = plane.r_matrix.specialize(sp)
        out.eigenvalues = tuple(v.specialize(sp) for v in plane.eigenvalues)
        out.b = plane.b.specialize(sp)
        out.c = plane.c.specialize(sp)
        out.d = plane.d.specialize(sp)
        out.f = plane.f.specialize(sp)
        if plane.q_projector is not None:
            out.q_projector = plane.q_projector.specialize(sp)
    except ScalarError as exc:
        raise PlaneError(f"plane {plane.name}: specialization at {sp} hits a "
                         f"pole: {exc}")
    _validate_structure(out)
    out.wz_report = wz_conditions(out.b, out.c, out.d, out.f)
    bad = [k for k, ok in out.wz_report.items() if not ok]
    if bad:
        raise PlaneVerificationError(f"plane {plane.name} at {sp}: consistency "
                                     f"conditions failed: {bad}")
    out.monomial_ranks = plane.monomial_ranks
    out.system = ncalg.build_rewrite_system(out)
    return out


def _attach_quotient(plane: PlaneSpec, central_expr: str, symbol: str):
    plane.quotient_central_expr = central_expr
    plane.quotient_symbol = symbol
    central = plane.parse(central_expr)
    if not central.is_pure(COORD):
        raise PlaneError("quotient central element must be pure coordinate")
    generic = plane.parent if plane.parent is not None else plane
    generic_central = generic.parse(central_expr)
    if not ncalg.is_central(generic_central, generic.system):
        raise PlaneVerificationError("declared central element is not central")
    plane.quotient_central = central
    # rebuild the rule set with the quotient rule derived in this field
    plane.system = ncalg.build_rewrite_system(plane)
    plane.constraint_forms = _derive_constraint_forms(plane, generic,
                                                      generic_central)


def _derive_constraint_forms(plane, generic, generic_central):
    """Differential consequences of the quotient, as form-module generators.

    The differential of the central element is computed on the generic
    parent (where it does not vanish identically), normalized to leading
    coefficient one, and then specialized; its own differential is appended
    when nonzero.  These generate the left module that form-level reductions
    quotient by.
    """
    eta = qcalc.d_function(generic_central, generic.system)
    if eta.is_zero():
        return []
    lead = max(eta.body.terms, key=generic.system.word_key)
    monic = eta.body.scale(eta.body.terms[lead].inverse())
    if plane.specialization is not None:
        try:
            body = AlgebraElement(
                {w: c.specialize(plane.specialization)
                 for w, c in monic.terms.items()})
        except ScalarError as exc:
            raise PlaneError(f"constraint specialization hits a pole: {exc}")
    else:
        body = monic
    c1 = qcalc.WedgeForm(1, plane.nf(body))
    forms = []
    if not c1.is_zero():
        forms.append(c1)
        c2 = qcalc.d_form(c1, plane.system)
        c2 = qcalc.WedgeForm(2, plane.nf(c2.body))
        if not c2.is_zero():
            forms.append(c2)
    return forms


def _resolve_gamma_in_place(plane):
    plane.gamma_candidates = resolve_gamma(plane)
    for _, matrix, passes in plane.gamma_candidates:
        if passes:
            plane.gamma = matrix
            break


def resolve_gamma(plane: PlaneSpec):
    """Evaluate the braiding candidates for the wedge product.

    Returns a list of (candidate name, matrix, passes) in policy order; the
    first passing candidate becomes the plane's braiding.  Candidates that
    cannot be formed (singular matrix) are reported as failing.
    """
    q = scalar.Q if plane.specialization is None else \
        scalar.Q.specialize(plane.specialization)
    candidates = []
    policy = plane.gamma_policy
    if policy == "r_over_q":
        candidates.append(("r_over_q", plane.r_matrix.scale(q.inverse())))
    elif policy == "d_matrix":
        candidates.append(("d_matrix", plane.d))
    elif policy == "auto":
        candidates.append(("d_matrix", plane.d))
        try:
            candidates.append(("r_inverse", mat_inverse(plane.r_matrix)))
        except LinalgError:
            candidates.append(("r_inverse", None))
    elif policy == "explicit":
        candidates.append(("explicit", plane.gamma_explicit))
    else:
        raise PlaneError(f"unknown gamma policy {policy!r}")
    out = []
    for cname, matrix in candidates:
        passes = matrix is not None and gamma_condition(plane.d, matrix)
        out.append((cname, matrix, passes))
    if policy == "explicit" and not any(p for _, _, p in out):
        raise PlaneVerificationError("explicit braiding fails the wedge condition")
    return out


# ---------------------------------------------------------------------------
# Built-in planes
# ---------------------------------------------------------------------------

_BUILTIN_CACHE = {}


def builtin_planes():
    """The three reference planes: gl2, orth3, and the sphere at q = -1."""
    return [builtin_plane(n) for n in ("gl2", "orth3", "sphere_qm1")]


def builtin_plane(name: str) -> PlaneSpec:
    if name in _BUILTIN_CACHE:
        return _BUILTIN_CACHE[name]
    if name == "gl2":
        plane = derive_plane(
            "gl2", 2, fixtures.GL2_GENERATORS, "A", fixtures.R_GL2,
            ("-q^-1", "q"), gamma_policy="r_over_q",
            symplectic={"form": "d(x)*d(y)", "scale": "1"},
        )
    elif name == "orth3":
        plane = derive_plane(
            "orth3", 3, fixtures.ORTH3_GENERATORS, "B", fixtures.R_ORTH3,
            ("q^-2", "-q^-1", "q"), gamma_policy="auto",
        )
    elif name == "sphere_qm1":
        plane = derive_plane(
            "sphere_qm1", 3, fixtures.ORTH3_GENERATORS, "B", fixtures.R_ORTH3,
            ("q^-2", "-q^-1", "q"), q="-1", gamma_policy="auto",
            quotient={"central": fixtures.SPHERE_CENTRAL, "symbol": "rho"},
            symplectic={"form": fixtures.SPHERE_SYMPLECTIC_BODY,
                        "scale": fixtures.SPHERE_SYMPLECTIC_SCALE},
        )
    else:
        raise PlaneError(f"unknown builtin plane {name!r}")
    _BUILTIN_CACHE[name] = plane
    return plane


def specialize_builtin(name: str, q) -> PlaneSpec:
    """A generic builtin plane specialized at a numeric q (q = 1 checks).

    The cached generic plane is evaluated at q, not derived again; its rules
    are rebuilt in the specialized field, as for every specialization.
    """
    base = builtin_plane(name)
    if base.specialization is not None:
        raise PlaneError(f"builtin plane {name!r} is already specialized")
    plane = _specialize(base, _parse_q_value(q))
    plane.name = f"{name}@q={q}"
    _resolve_gamma_in_place(plane)
    return plane


def _matrix_exprs(m: LegMatrix):
    size = m.size
    return [[str(m[r, c]) for c in range(size)] for r in range(size)]


# ---------------------------------------------------------------------------
# Configuration documents
# ---------------------------------------------------------------------------

_SCHEMA_KEYS = {"name", "dimension", "generators", "family", "r_matrix",
                "eigenvalues", "q", "gamma", "quotient", "symplectic"}
_GAMMA_NAMES = {"r_over_q": "r_over_q", "d": "d_matrix", "auto": "auto"}


def load_plane(document: str) -> PlaneSpec:
    """Parse, validate and derive a plane from a JSON configuration."""
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as exc:
        raise PlaneError(f"configuration is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise PlaneError("configuration must be a JSON object")
    unknown = set(doc) - _SCHEMA_KEYS
    if unknown:
        raise PlaneError(f"unknown configuration keys: {sorted(unknown)}")
    for key in ("name", "dimension", "generators", "family", "r_matrix"):
        if key not in doc:
            raise PlaneError(f"missing required key {key!r}")
    name = doc["name"]
    dimension = doc["dimension"]
    if not isinstance(dimension, int) or not 2 <= dimension <= 4:
        raise PlaneError("dimension must be an integer between 2 and 4")
    generators = doc["generators"]
    if (not isinstance(generators, list)
            or len(generators) != dimension
            or len(set(generators)) != dimension):
        raise PlaneError("generators must be a list of distinct names "
                         "matching the dimension")
    family = doc["family"]
    r_exprs = doc["r_matrix"]
    size = dimension * dimension
    if (not isinstance(r_exprs, list) or len(r_exprs) != size
            or any(not isinstance(row, list) or len(row) != size
                   for row in r_exprs)):
        raise PlaneError(f"r_matrix must be a dense {size}x{size} grid of "
                         "scalar expressions (write zeros explicitly)")
    eig_doc = doc.get("eigenvalues")
    if family == "B":
        if not eig_doc or not {"lambda0", "lambda1", "lambda2"} <= set(eig_doc):
            raise PlaneError("family B requires eigenvalues lambda0, "
                             "lambda1, lambda2")
        eigs = (eig_doc["lambda0"], eig_doc["lambda1"], eig_doc["lambda2"])
    elif family == "A":
        if eig_doc is None:
            eigs = ("-q^-1", "q")
        else:
            if not {"lambda1", "lambda2"} <= set(eig_doc):
                raise PlaneError("family A eigenvalues need lambda1, lambda2")
            eigs = (eig_doc["lambda1"], eig_doc["lambda2"])
    else:
        raise PlaneError(f"unknown family {family!r}")
    gamma = doc.get("gamma")
    gamma_policy = None
    gamma_explicit = None
    if gamma is not None:
        if isinstance(gamma, str):
            if gamma not in _GAMMA_NAMES:
                raise PlaneError(f"unknown gamma policy {gamma!r}")
            gamma_policy = _GAMMA_NAMES[gamma]
        elif isinstance(gamma, list):
            gamma_policy = "explicit"
            gamma_explicit = gamma
        else:
            raise PlaneError("gamma must be a policy name or a matrix")
    quotient = doc.get("quotient")
    if quotient is not None and not (
            isinstance(quotient, dict)
            and {"central", "symbol"} <= set(quotient)):
        raise PlaneError("quotient requires 'central' and 'symbol'")
    symplectic = doc.get("symplectic")
    if symplectic is not None and not (
            isinstance(symplectic, dict)
            and {"form", "scale"} <= set(symplectic)):
        raise PlaneError("symplectic requires 'form' and 'scale'")

    return derive_plane(
        name, dimension, tuple(generators), family, r_exprs, eigs,
        q=doc.get("q", "generic"), gamma_policy=gamma_policy,
        gamma_exprs=gamma_explicit, quotient=quotient, symplectic=symplectic,
    )


def serialize_plane(plane: PlaneSpec) -> str:
    base = plane.parent if plane.parent is not None else plane
    doc = {
        "name": plane.name,
        "dimension": plane.dimension,
        "generators": list(plane.generator_names),
        "family": plane.family,
        "r_matrix": _matrix_exprs(base.r_matrix),
        "q": "generic" if plane.specialization is None
             else _q_expr(plane.specialization),
        "eigenvalues": _eig_doc(base),
    }
    policy_doc = {v: k for k, v in _GAMMA_NAMES.items()}
    if plane.gamma_policy in policy_doc:
        doc["gamma"] = policy_doc[plane.gamma_policy]
    if plane.quotient_central_expr:
        doc["quotient"] = {"central": plane.quotient_central_expr,
                           "symbol": plane.quotient_symbol}
    if plane.symplectic_body_expr:
        doc["symplectic"] = {"form": plane.symplectic_body_expr,
                             "scale": plane.symplectic_scale_expr}
    return json.dumps(doc, indent=2, sort_keys=True)


def _q_expr(sp: Specialization):
    return str(Scalar.from_gauss(sp.value * sp.value))


def _eig_doc(plane):
    if plane.family == "A":
        lam1, lam2 = plane.eigenvalues
        return {"lambda1": str(lam1), "lambda2": str(lam2)}
    lam0, lam1, lam2 = plane.eigenvalues
    return {"lambda0": str(lam0), "lambda1": str(lam1), "lambda2": str(lam2)}


# ---------------------------------------------------------------------------
# Fixture comparison
# ---------------------------------------------------------------------------

class RelationDiff:
    def __init__(self, name, residual_str):
        self.name = name
        self.residual = residual_str

    def __repr__(self):
        return f"RelationDiff({self.name}: {self.residual})"


def verify_reference_relations(plane: PlaneSpec, tables=None):
    """Diff the derived calculus against transcribed relation tables.

    ``tables`` is a list of (label, [(name, lhs, rhs), ...]) in the element
    grammar; when omitted the built-in tables matching the plane's shape
    are used.  Returns a list of RelationDiff entries; empty means exact
    agreement.
    """
    diffs = []
    reference = _reference_shape(plane) if tables is None else None
    if tables is None:
        tables = []
        if reference == "gl2":
            tables = [("coord", fixtures.GL2_COORD_RELATIONS),
                      ("diff", fixtures.GL2_DIFF_RELATIONS)]
        elif reference == "orth3":
            tables = [("coord", fixtures.ORTH3_COORD_RELATIONS),
                      ("diff-coord", fixtures.ORTH3_DIFF_COORD_RELATIONS),
                      ("deriv-coord", fixtures.ORTH3_DERIV_COORD_RELATIONS)]
    for label, table in tables:
        for rname, lhs, rhs in table:
            residual = plane.nf(plane.parse(lhs) - plane.parse(rhs))
            if not residual.is_zero():
                diffs.append(RelationDiff(f"{label}/{rname}",
                                          plane.show(residual)))
    if reference == "orth3":
        table = from_exprs(fixtures.D_ORTH3_TABLE, 3)
        if plane.specialization is not None:
            table = table.specialize(plane.specialization)
        if plane.d != table:
            size = plane.d.size
            for rr in range(size):
                for cc in range(size):
                    got, want = plane.d[rr, cc], table[rr, cc]
                    if got != want:
                        diffs.append(RelationDiff(
                            f"d-matrix[{rr},{cc}]",
                            f"derived {got} vs printed {want}"))
    return diffs


def _reference_shape(plane: PlaneSpec):
    """Which transcribed tables apply.

    The plane's braid matrix must match, and so must its generator names:
    the tables are written in them, so other names would not parse or would
    name other generators.
    """
    base = plane.parent if plane.parent is not None else plane
    names = plane.generator_names
    if plane.family == "A" and names == fixtures.GL2_GENERATORS:
        if base.r_matrix == from_exprs(fixtures.R_GL2, 2):
            return "gl2"
    if plane.family == "B" and names == fixtures.ORTH3_GENERATORS:
        if base.r_matrix == from_exprs(fixtures.R_ORTH3, 3):
            return "orth3"
    return None


def _specialize_element(e: AlgebraElement, sp: Specialization):
    return AlgebraElement({w: c.specialize(sp) for w, c in e.terms.items()})
