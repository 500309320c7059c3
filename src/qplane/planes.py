"""Plane registry: the lifecycle of a plane, built-ins, ingestion, fixtures.

A plane is an immutable value, and every plane is reached from one
derivation of its braid matrix:

1. The generic derivation (:func:`_derive_generic`) validates the braid
   matrix and its eigenvalues, derives the calculus matrices B, C, D, F
   (A-family by rescaling, B-family through the spectral projector),
   checks them against the consistency system and turns them into the
   rewrite rule set.  The result is a generic plane; its ``generic`` field
   is the plane itself.
2. Specialization (:func:`_specialize`) evaluates the generic matrices at
   a numeric q, refusing a pole, and inherits the generic verdicts (braid
   relation, minimal polynomial, consistency conditions): evaluation is a
   ring homomorphism, so they are not proved again.  It derives the rules
   again in that field, because rule derivation divides by quantities
   that may vanish exactly at the special value.  The result is a new
   plane whose ``generic`` is the plane it came from.
3. The central quotient (:func:`_quotient`) adds the rule that sets a
   central element to a symbol, and the differential consequences of that
   rule as form relations.  It, too, returns a new plane.

:func:`derive_plane` composes these steps for a configuration document.
The built-in sphere is the cached generic orth3, specialized at q = -1 and
quotiented by its central radius.

Three views are derived from a plane's fields when first read and then
kept on it: ``gamma_candidates`` (each braiding candidate for the wedge
product with its verdict on the wedge condition and the braid relation,
the one place that condition is proved), ``gamma`` (the first passing
candidate) and ``reference_shape`` (which transcribed tables apply).
The rewrite degree cap is fixed when a rule system is built;
:func:`capped` gives a copy with another cap that shares the rules and
caches.

The braid matrix is the single source of truth; the printed relation
tables live in :mod:`qplane.fixtures` and are diffed against the derived
calculus by :func:`verify_reference_relations`.
"""

from __future__ import annotations

import json
from collections import namedtuple
from functools import cached_property

from . import fixtures, ncalg, qcalc, scalar
from .linalg import LegMatrix, LinalgError, check_min_poly, check_ybe, \
    from_exprs, identity, mat_inverse, projector_q, wedge_condition, \
    wz_conditions
from .ncalg import COORD, AlgebraElement, gen
from .scalar import ScalarError, Specialization, parse_scalar


class PlaneError(ValueError):
    """Plane configuration problem (schema, parsing, unusable values)."""


class PlaneVerificationError(PlaneError):
    """A structural check failed; the message names the violated condition."""


class PlaneSpec:
    """A validated quantum plane with its derived calculus; immutable.

    Every field is a constructor argument, and assigning an attribute
    afterwards raises.  ``generic`` is the generic-q plane this one was
    specialized from; a generic plane is its own (stored as None, so that
    no plane refers to itself).  ``structure_report`` and ``wz_report`` hold
    the verdicts proved while deriving (braid relation, minimal polynomial,
    centrality of a quotient element; the consistency conditions), which
    the verify suites read instead of proving them again.
    ``constraint_spans`` memoizes the constraint-module spans of
    :mod:`qplane.symp`.
    """

    def __init__(self, name, dimension, generator_names, family, r_matrix,
                 eigenvalues, b, c, d, f, q_projector, structure_report,
                 wz_report, monomial_ranks, system, gamma_policy,
                 specialization=None, generic=None, gamma_explicit=None,
                 quotient_central=None, quotient_central_expr=None,
                 quotient_symbol=None, constraint_forms=(),
                 symplectic_body_expr=None, symplectic_scale_expr=None,
                 constraint_spans=None):
        fields = dict(locals())
        del fields["self"]
        fields["_generic"] = fields.pop("generic")
        if constraint_spans is None:
            fields["constraint_spans"] = {}
        self.__dict__.update(fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"plane {self.name} is immutable: cannot set "
                             f"{name!r}")

    @property
    def generic(self):
        return self if self._generic is None else self._generic

    # derived views -----------------------------------------------------------

    @cached_property
    def gamma_candidates(self):
        """(candidate name, matrix, passes) in policy order."""
        return resolve_gamma(self)

    @cached_property
    def gamma(self):
        """The first passing candidate: the braiding of the wedge product."""
        return next((m for _, m, ok in self.gamma_candidates if ok), None)

    @cached_property
    def reference_shape(self):
        """Which transcribed tables apply: "gl2", "orth3" or None.

        The plane's braid matrix must match, and so must its generator
        names: the tables are written in them, so other names would not
        parse or would name other generators.
        """
        names, r = self.generator_names, self.generic.r_matrix
        if self.family == "A" and names == fixtures.GL2_GENERATORS:
            if r == from_exprs(fixtures.R_GL2, 2):
                return "gl2"
        if self.family == "B" and names == fixtures.ORTH3_GENERATORS:
            if r == from_exprs(fixtures.R_ORTH3, 3):
                return "orth3"
        return None

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


# the constructor's parameters, in order: the fields of a plane
_FIELDS = PlaneSpec.__init__.__code__.co_varnames[
    1:PlaneSpec.__init__.__code__.co_argcount]


def _replace(plane: PlaneSpec, **fields) -> PlaneSpec:
    """A copy of ``plane`` with ``fields`` changed."""
    values = {name: getattr(plane, name) for name in _FIELDS}
    values["generic"] = plane._generic
    values.update(fields)
    return PlaneSpec(**values)


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

    eigenvalues = tuple(
        parse_scalar(e, where=f"eigenvalues.{key}")
        for key, e in zip(_EIGENVALUE_KEYS[family], eigenvalue_exprs))
    plane = _derive_generic(
        name, dimension, tuple(generator_names), family,
        from_exprs(r_exprs, dimension, name="r_matrix"), eigenvalues,
        gamma_policy or ("r_over_q" if family == "A" else "auto"))
    if q != "generic":
        plane = _specialize(plane, _parse_q_value(q))
    if quotient is not None:
        plane = _quotient(plane, quotient["central"], quotient["symbol"])
    declared = {}
    if gamma_exprs is not None:
        matrix = from_exprs(gamma_exprs, dimension, name="gamma")
        if plane.specialization is not None:
            matrix = matrix.specialize(plane.specialization)
        declared.update(gamma_policy="explicit", gamma_explicit=matrix)
    if symplectic is not None:
        declared.update(symplectic_body_expr=symplectic["form"],
                        symplectic_scale_expr=symplectic["scale"])
    if declared:
        plane = _replace(plane, **declared)
    if gamma_exprs is not None:
        plane.gamma_candidates  # a failing explicit braiding raises here
    return plane


def _parse_q_value(q):
    if isinstance(q, Specialization):
        return q
    try:
        return Specialization.from_q(parse_scalar(str(q)))
    except ScalarError as exc:
        raise PlaneError(f"invalid q value {q!r}: {exc}")


def _derive_generic(name, dimension, generator_names, family, r,
                    eigenvalues, gamma_policy) -> PlaneSpec:
    """The generic plane of a braid matrix: matrices, checks and rules."""
    structure = _validate_structure(name, r, eigenvalues)
    c = r.scale(scalar.Q)
    try:
        d = mat_inverse(c)
    except LinalgError as exc:
        raise PlaneVerificationError(
            f"plane {name}: C = qR is singular, the exchange matrix "
            f"D = C^-1 does not exist ({exc})")
    if family == "A":
        qpr = None
        b = r.scale(scalar.Q.inverse())
    else:
        try:
            qpr = projector_q(r, *eigenvalues)
        except LinalgError as exc:
            raise PlaneError(f"plane {name}: projector undefined ({exc})")
        b = identity(dimension) - qpr
    wz = wz_conditions(b, c, d, b)
    bad = [k for k, ok in wz.items() if not ok]
    if bad:
        raise PlaneVerificationError(
            f"plane {name}: consistency conditions failed: {bad}")
    ranks = _family_ranks(dimension, family)
    system = ncalg.build_rewrite_system(dimension, generator_names, ranks,
                                        b, c, d, b)
    return PlaneSpec(name, dimension, generator_names, family, r,
                     eigenvalues, b, c, d, b, qpr, structure, wz, ranks,
                     system, gamma_policy)


def _validate_structure(name, r, eigenvalues):
    """The structural verdicts of a braid matrix; raises if one fails."""
    if not check_ybe(r):
        raise PlaneVerificationError(
            f"plane {name}: braid Yang-Baxter equation fails for the "
            "given r_matrix")
    if not check_min_poly(r, eigenvalues):
        raise PlaneVerificationError(
            f"plane {name}: minimal polynomial with the declared "
            "eigenvalues does not annihilate the r_matrix")
    return {"braid-relation": True, "minimal-polynomial": True}


def _family_ranks(dimension, family):
    # A-family monomial order follows the declared order (x < y); the
    # B-family basis is written largest-first (+, 0, -), so reverse it.
    if family == "A":
        return tuple(range(1, dimension + 1))
    return tuple(range(dimension, 0, -1))


def _specialize(plane: PlaneSpec, sp: Specialization, name=None
                ) -> PlaneSpec:
    """``plane`` at s = sp.value, named ``name`` (default: its own name).

    The generic verdicts are inherited and only the rules are derived
    again (step 2 of the module docstring).
    """
    name = name or plane.name
    try:
        r = plane.r_matrix.specialize(sp)
        eigenvalues = tuple(v.specialize(sp) for v in plane.eigenvalues)
        b, c, d, f = (m.specialize(sp)
                      for m in (plane.b, plane.c, plane.d, plane.f))
        qpr = None if plane.q_projector is None \
            else plane.q_projector.specialize(sp)
    except ScalarError as exc:
        raise PlaneError(f"plane {name}: specialization at {sp} hits a "
                         f"pole: {exc}")
    structure = {key: plane.structure_report[key]
                 for key in ("braid-relation", "minimal-polynomial")}
    system = ncalg.build_rewrite_system(
        plane.dimension, plane.generator_names, plane.monomial_ranks,
        b, c, d, f)
    return PlaneSpec(name, plane.dimension, plane.generator_names,
                     plane.family, r, eigenvalues, b, c, d, f, qpr,
                     structure, plane.wz_report, plane.monomial_ranks, system,
                     plane.gamma_policy, specialization=sp,
                     generic=plane.generic)


def _quotient(plane: PlaneSpec, central_expr: str, symbol: str
              ) -> PlaneSpec:
    """``plane`` modulo (central element = symbol), with its form relations.

    Centrality is checked on the generic plane, where the element is not
    degenerate.  A quotient at generic q is its own generic plane.
    """
    central = plane.parse(central_expr)
    if not central.is_pure(COORD):
        raise PlaneError("quotient central element must be pure coordinate")
    generic = plane.generic
    generic_central = generic.parse(central_expr)
    if not ncalg.is_central(generic_central, generic.system):
        raise PlaneVerificationError("declared central element is not central")
    # the rule set with the quotient rule derived in this field
    system = ncalg.build_rewrite_system(
        plane.dimension, plane.generator_names, plane.monomial_ranks,
        plane.b, plane.c, plane.d, plane.f, quotient=(central, symbol))
    generic_system = system if generic is plane else generic.system
    forms = _derive_constraint_forms(plane.specialization, system,
                                     generic_system, generic_central)
    structure = {**plane.structure_report, "central-element": True}
    return _replace(plane, system=system, structure_report=structure,
                    quotient_central=central,
                    quotient_central_expr=central_expr,
                    quotient_symbol=symbol, constraint_forms=forms,
                    constraint_spans={})


def _derive_constraint_forms(sp, system, generic_system, generic_central):
    """Differential consequences of the quotient, as form-module generators.

    The differential of the central element is computed on the generic
    plane (where it does not vanish identically), normalized to leading
    coefficient one, and then specialized at ``sp``; its own differential
    is appended when nonzero.  These generate the left module that
    form-level reductions quotient by.
    """
    eta = qcalc.d_function(generic_central, generic_system)
    if eta.is_zero():
        return ()
    lead = max(eta.body.terms, key=generic_system.word_key)
    body = eta.body.scale(eta.body.terms[lead].inverse())
    if sp is not None:
        try:
            body = _specialize_element(body, sp)
        except ScalarError as exc:
            raise PlaneError(f"constraint specialization hits a pole: {exc}")
    c1 = qcalc.WedgeForm(1, system.normal_form(body))
    forms = []
    if not c1.is_zero():
        forms.append(c1)
        c2 = qcalc.d_form(c1, system)
        c2 = qcalc.WedgeForm(2, system.normal_form(c2.body))
        if not c2.is_zero():
            forms.append(c2)
    return tuple(forms)


def resolve_gamma(plane: PlaneSpec):
    """Evaluate the braiding candidates for the wedge product.

    Returns a list of (candidate name, matrix, passes) in policy order; the
    first passing candidate becomes the plane's braiding.  A candidate
    passes the wedge condition (D+E)(E-Gamma) = 0 and the braid relation;
    this is the one place the wedge condition is proved.  R^-1 is read off
    D = (qR)^-1 as q D: every plane has an invertible C = qR.

    The braid relation of the derived candidates is read off verdicts the
    plane already holds: lambda*R and lambda*R^-1 satisfy it when R does
    (``braid-relation``), and D is R^-1/q because C*D = D*C = E (WZ3).
    Only an explicit braiding gets its own Yang-Baxter check.
    """
    q = scalar.Q if plane.specialization is None else \
        scalar.Q.specialize(plane.specialization)
    r_braids = plane.structure_report["braid-relation"]
    d_braids = r_braids and plane.wz_report["wz3_dc_braid_and_inverse"]
    candidates = []  # (name, matrix, braid verdict or None to prove)
    policy = plane.gamma_policy
    if policy == "r_over_q":
        candidates.append(("r_over_q", plane.r_matrix.scale(q.inverse()),
                           r_braids))
    elif policy == "d_matrix":
        candidates.append(("d_matrix", plane.d, d_braids))
    elif policy == "auto":
        candidates.append(("d_matrix", plane.d, d_braids))
        candidates.append(("r_inverse", plane.d.scale(q), d_braids))
    elif policy == "explicit":
        candidates.append(("explicit", plane.gamma_explicit, None))
    else:
        raise PlaneError(f"unknown gamma policy {policy!r}")
    out = [(cname, matrix, wedge_condition(plane.d, matrix)
            and (check_ybe(matrix) if braids is None else braids))
           for cname, matrix, braids in candidates]
    if policy == "explicit" and not any(p for _, _, p in out):
        raise PlaneVerificationError("explicit braiding fails the wedge "
                                     "condition or the braid relation")
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
            symplectic={"form": fixtures.GL2_SYMPLECTIC_BODY,
                        "scale": fixtures.GL2_SYMPLECTIC_SCALE},
        )
    elif name == "orth3":
        plane = derive_plane(
            "orth3", 3, fixtures.ORTH3_GENERATORS, "B", fixtures.R_ORTH3,
            ("q^-2", "-q^-1", "q"), gamma_policy="auto",
        )
    elif name == "sphere_qm1":
        # the paper's sphere: orth3 at q = -1 over its central radius
        sphere = _specialize(builtin_plane("orth3"), _parse_q_value("-1"),
                             name="sphere_qm1")
        plane = _replace(
            _quotient(sphere, fixtures.SPHERE_CENTRAL, "rho"),
            symplectic_body_expr=fixtures.SPHERE_SYMPLECTIC_BODY,
            symplectic_scale_expr=fixtures.SPHERE_SYMPLECTIC_SCALE)
    else:
        raise PlaneError(f"unknown builtin plane {name!r}")
    _BUILTIN_CACHE[name] = plane
    return plane


def specialize(plane: PlaneSpec, q) -> PlaneSpec:
    """A generic plane specialized at a numeric q (the q = 1 checks).

    The plane is evaluated at q, not derived again; its rules are rebuilt
    in the specialized field, as for every specialization.
    """
    if plane.specialization is not None:
        raise PlaneError(f"plane {plane.name!r} is already specialized")
    return _specialize(plane, _parse_q_value(q), name=f"{plane.name}@q={q}")


def specialize_builtin(name: str, q) -> PlaneSpec:
    """The cached generic builtin plane ``name`` specialized at q."""
    return specialize(builtin_plane(name), q)


def capped(plane: PlaneSpec, degree_cap: int) -> PlaneSpec:
    """``plane`` with rewrite degree cap ``degree_cap``.

    The copy shares the rules and every cache: no rule makes a word longer,
    so the cap only decides which top-level words are rejected.
    """
    return _replace(plane, system=plane.system.capped(degree_cap))


def _matrix_exprs(m: LegMatrix):
    size = m.size
    return [[str(m[r, c]) for c in range(size)] for r in range(size)]


# ---------------------------------------------------------------------------
# Configuration documents
# ---------------------------------------------------------------------------

_SCHEMA_KEYS = {"name", "dimension", "generators", "family", "r_matrix",
                "eigenvalues", "q", "gamma", "quotient", "symplectic"}
_GAMMA_NAMES = {"r_over_q": "r_over_q", "d": "d_matrix", "auto": "auto"}
# the document keys of each family's eigenvalues, in order
_EIGENVALUE_KEYS = {"A": ("lambda1", "lambda2"),
                    "B": ("lambda0", "lambda1", "lambda2")}


def load_plane(document: str) -> PlaneSpec:
    """Parse, validate and derive a plane from a JSON configuration."""
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as exc:
        raise PlaneError(f"configuration is not valid JSON: {exc}")
    except ValueError:  # an int literal past Python's 4300-digit cap
        raise PlaneError("configuration has an integer literal too long")
    except RecursionError:
        raise PlaneError("configuration nests arrays or objects too deeply")
    if not isinstance(doc, dict):
        raise PlaneError("configuration must be a JSON object")
    unknown = set(doc) - _SCHEMA_KEYS
    if unknown:
        raise PlaneError(f"unknown configuration keys: {sorted(unknown)}")
    for key in ("name", "dimension", "generators", "family", "r_matrix"):
        if key not in doc:
            raise PlaneError(f"missing required key {key!r}")
    name = doc["name"]
    if not isinstance(name, str):
        raise PlaneError("name must be a string")
    dimension = doc["dimension"]
    if not isinstance(dimension, int) or not 2 <= dimension <= 4:
        raise PlaneError("dimension must be an integer between 2 and 4")
    generators = doc["generators"]
    if (not isinstance(generators, list)
            or not all(isinstance(g, str) and g for g in generators)
            or len(generators) != dimension
            or len(set(generators)) != dimension):
        raise PlaneError("generators must be a list of distinct names "
                         "matching the dimension")
    family = doc["family"]
    size = dimension * dimension
    r_exprs = _grid(doc["r_matrix"], size, "r_matrix")
    eig_doc = doc.get("eigenvalues")
    if family == "A" and eig_doc is None:
        eigs = ("-q^-1", "q")
    elif family in ("A", "B"):
        keys = _EIGENVALUE_KEYS[family]
        eigs = _strings(eig_doc, keys, f"family {family} requires "
                        f"eigenvalues {', '.join(keys)} as strings")
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
            gamma_explicit = _grid(gamma, size, "gamma")
        else:
            raise PlaneError("gamma must be a policy name or a matrix")
    quotient = doc.get("quotient")
    if quotient is not None:
        _strings(quotient, ("central", "symbol"),
                 "quotient requires 'central' and 'symbol' as strings")
    symplectic = doc.get("symplectic")
    if symplectic is not None:
        _strings(symplectic, ("form", "scale"),
                 "symplectic requires 'form' and 'scale' as strings")

    return derive_plane(
        name, dimension, tuple(generators), family, r_exprs, eigs,
        q=doc.get("q", "generic"), gamma_policy=gamma_policy,
        gamma_exprs=gamma_explicit, quotient=quotient, symplectic=symplectic,
    )


def _grid(rows, size, key):
    """``rows`` if it is a dense size x size grid of expressions.

    An entry is an expression string or, read as its decimal text, a JSON
    integer.
    """
    if (not isinstance(rows, list) or len(rows) != size
            or any(not isinstance(row, list) or len(row) != size
                   or not all(isinstance(v, str) or type(v) is int
                              for v in row)
                   for row in rows)):
        raise PlaneError(f"{key} must be a dense {size}x{size} grid of "
                         "scalar expressions (write zeros explicitly)")
    return rows


def _strings(obj, keys, message):
    """The string values of ``keys`` in the JSON object ``obj``."""
    if not isinstance(obj, dict) or not all(
            isinstance(obj.get(k), str) for k in keys):
        raise PlaneError(message)
    return tuple(obj[k] for k in keys)


def serialize_plane(plane: PlaneSpec) -> str:
    base = plane.generic
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
    return str(sp.value * sp.value)


def _eig_doc(plane):
    return {key: str(v) for key, v in
            zip(_EIGENVALUE_KEYS[plane.family], plane.eigenvalues)}


# ---------------------------------------------------------------------------
# Fixture comparison
# ---------------------------------------------------------------------------

RelationDiff = namedtuple("RelationDiff", "name residual")

# the transcribed relation tables of each reference shape
_REFERENCE_TABLES = {
    "gl2": (("coord", fixtures.GL2_COORD_RELATIONS),
            ("diff", fixtures.GL2_DIFF_RELATIONS),
            ("deriv", fixtures.GL2_DERIV_RELATIONS)),
    "orth3": (("coord", fixtures.ORTH3_COORD_RELATIONS),
              ("diff-coord", fixtures.ORTH3_DIFF_COORD_RELATIONS),
              ("deriv-coord", fixtures.ORTH3_DERIV_COORD_RELATIONS)),
}


def verify_reference_relations(plane: PlaneSpec):
    """Diff the derived calculus against the transcribed relation tables.

    The tables of the plane's ``reference_shape`` are used, written in the
    element grammar.  Returns a list of RelationDiff entries; empty means
    exact agreement.  The printed D table is diffed by :func:`d_table_diffs`.
    """
    diffs = []
    for label, table in _REFERENCE_TABLES.get(plane.reference_shape, ()):
        for rname, lhs, rhs in table:
            residual = plane.nf(plane.parse(lhs) - plane.parse(rhs))
            if not residual.is_zero():
                diffs.append(RelationDiff(f"{label}/{rname}",
                                          plane.show(residual)))
    return diffs


def d_table_diffs(plane: PlaneSpec):
    """Entrywise diff of an orth3-shaped plane's D and the printed table."""
    table = from_exprs(fixtures.D_ORTH3_TABLE, 3)
    if plane.specialization is not None:
        table = table.specialize(plane.specialization)
    d, size = plane.d, plane.d.size
    return [RelationDiff(f"d-matrix[{rr},{cc}]",
                         f"derived {d[rr, cc]} vs printed {table[rr, cc]}")
            for rr in range(size) for cc in range(size)
            if d[rr, cc] != table[rr, cc]]


def _specialize_element(e: AlgebraElement, sp: Specialization):
    return AlgebraElement({w: c.specialize(sp) for w, c in e.terms.items()})
