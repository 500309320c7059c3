"""Plane registry: the lifecycle of a plane, built-ins, ingestion, fixtures.

A plane is an immutable value, and every plane is reached from one
derivation of its braid matrix:

1. The generic derivation (:func:`_derive_generic`) validates the braid
   matrix and its eigenvalues, derives the calculus matrices B, C, D
   (A-family by rescaling, B-family as E - Q from the spectral projector
   Q, which B therefore holds; the Wess-Zumino F is B on both families;
   neither Q nor F is stored), checks them against the consistency system
   and turns them into the rewrite rule set, which holds the monomial
   order (``system.ranks``).  B, C and D = C^-1 are polynomials in R, read
   off the powers of R that prove its minimal polynomial, so no matrix is
   inverted.  The braid relation, proved first, carries the three
   triple-leg consistency conditions, and the minimal polynomial carries
   Q Q = Q and, on the paper's eigenvalues, (E - B)(E + C) = 0; only
   another declaration evaluates that product (the argument is in
   :func:`_derive_generic`).  Each kind's rules
   must leave as many normal words of low degree as its classical model
   has (commuting coordinates and derivatives, anticommuting
   differentials): a family-B plane whose declared lambda1 has an empty
   eigenspace has no coordinate relations, and fails here.  The
   result is a generic plane; its ``generic`` field is the plane itself.
2. Specialization (:func:`_specialize`) evaluates the generic matrices at
   a numeric q, refusing a pole; the generic checks (braid relation,
   minimal polynomial, consistency conditions) hold there too, since
   evaluation is a ring homomorphism, so they are not proved again.  It
   derives the rules, and a quotient (step 3), again in that field,
   because rule derivation divides by quantities that may vanish exactly
   at the special value; the declarations are kept.  The result is a new
   plane whose ``generic`` is the plane it came from.
3. The central quotient (:func:`_quotient`) adds one rule to its plane's
   rules (:func:`qplane.ncalg.quotient_system`), the one that sets a
   central element to ``rho``, and the differential consequences of that
   rule as form relations.  It, too, returns a new plane, which keeps the
   element as its text (``quotient_central_expr``).

:func:`derive_plane` is the one reader of a configuration document (the
decoded JSON object): it checks the schema, composes these steps and reads
the symplectic declaration in the final plane's field.  Each step raises
:class:`PlaneVerificationError` when one of its checks fails, so a plane
that exists has passed them all and keeps no record of them.
:func:`load_plane` decodes the JSON text; gl2 and orth3 are documents
too, and the built-in sphere is the cached generic orth3, specialized at
q = -1 and quotiented by its central radius.  A braiding policy has its
document name (``r_over_q``, ``d``, ``auto``) in the code too, and
``explicit`` when the document gives a matrix; :func:`serialize_plane`
writes the name or the generic matrix, and the plane's signature, which
decides equality, includes it.

Five views are derived from a plane's fields when first read and then
kept on it, so every new plane value starts without them:
``constraint_spans`` (the memo of :mod:`qplane.symp`'s spans),
``symplectic`` (the declared symplectic form with its contractions and
Hamiltonian systems; a form that cannot be built raises on every read),
``gamma_candidates`` (each braiding candidate for the wedge
product with its verdict on the wedge condition and the braid relation,
the one place that condition is decided), ``gamma`` (the first passing
candidate) and ``reference_shape`` (which transcribed tables apply).
A plane bounds no degree: :meth:`PlaneSpec.parse` checks the bound of
the call whose words it reads, so every call shares one plane's rules,
caches, spans and form.

The braid matrix is the single source of truth; the printed relation
tables live in :mod:`qplane.fixtures` and are diffed against the derived
calculus by :func:`verify_reference_relations`.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from functools import cached_property

from . import fixtures, ncalg, qcalc, scalar, symp
from .linalg import WZ_CONDITIONS, LegMatrix, LinalgError, Powers, \
    check_min_poly, check_ybe, echelon, from_exprs, identity, \
    monic_coefficients, projector_q, wedge_condition, xi_compat
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
    no plane refers to itself).  A plane is its own certificate: it is
    built only when its braid matrix satisfies the braid relation and its
    minimal polynomial, its calculus matrices the consistency conditions,
    and a quotient element is central; a failing check raises
    :class:`PlaneVerificationError` instead.
    """

    def __init__(self, name, dimension, generator_names, family, r_matrix,
                 eigenvalues, b, c, d, system, gamma_policy,
                 specialization=None, generic=None,
                 gamma_explicit=None, quotient_central_expr=None,
                 constraint_forms=(),
                 symplectic_body_expr=None, symplectic_scale_expr=None):
        fields = dict(locals())
        del fields["self"]
        fields["_generic"] = fields.pop("generic")
        self.__dict__.update(fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"plane {self.name} is immutable: cannot set "
                             f"{name!r}")

    @property
    def generic(self):
        return self if self._generic is None else self._generic

    # derived views -----------------------------------------------------------

    @cached_property
    def constraint_spans(self):
        """:mod:`qplane.symp`'s constraint-module spans by (differential
        degree, coordinate bound)."""
        return {}

    @cached_property
    def symplectic(self):
        """:func:`qplane.symp.symplectic_form`'s form, built on first read
        and kept; a form that cannot be built raises its ``SympError`` on
        every read, and nothing is kept."""
        return symp.build_symplectic_form(self)

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

    def parse(self, text: str, max_degree: int = 16) -> AlgebraElement:
        """``text`` parsed, refusing a word longer than ``max_degree``."""
        e = ncalg.parse_element(text, self.system, max_degree)
        if self.specialization is not None:
            e = _specialize_element(e, self.specialization)
        return e

    def parse_coefficient(self, text: str) -> scalar.Scalar:
        """A scalar in this plane's field: parsed, and specialized when
        the plane is."""
        c = parse_scalar(text)
        if self.specialization is not None:
            c = c.specialize(self.specialization)
        return c

    def nf(self, e: AlgebraElement) -> AlgebraElement:
        return self.system.normal_form(e)

    def show(self, e: AlgebraElement) -> str:
        return ncalg.element_str(e, self.system)

    def signature(self):
        return {
            "dimension": self.dimension,
            "generators": list(self.generator_names),
            "family": self.family,
            "r_matrix": _matrix_exprs(self.r_matrix),
            "eigenvalues": [str(v) for v in self.eigenvalues],
            "q": "generic" if self.specialization is None
                 else str(self.specialization.value),
            "gamma": self.gamma_policy if self.gamma_explicit is None
                     else _matrix_exprs(self.gamma_explicit),
            # the quotient element's free parse (on the quotient plane its
            # normal form is rho), the form's normal form and the scale's
            # value, each printed canonically
            "quotient": self._printed(self.quotient_central_expr,
                                      lambda t: self.show(self.parse(t))),
            "symplectic": self._printed(
                self.symplectic_body_expr,
                lambda t: self.show(self.nf(self.parse(t)))),
            "scale": self._printed(
                self.symplectic_scale_expr,
                lambda t: str(self.parse_coefficient(t))),
        }

    @staticmethod
    def _printed(text, printed):
        """``printed(text)``, or ``text`` itself when it is None or does
        not read."""
        if text is None:
            return None
        try:
            return printed(text)
        except (ScalarError, ncalg.NcalgError):
            return text

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


def derive_plane(doc) -> PlaneSpec:
    """Validate a decoded configuration document and derive its plane.

    The schema is checked first, each rule once, then the generic plane is
    derived, given its declarations, specialized at ``q`` and quotiented.
    """
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
    gamma_policy = "r_over_q" if family == "A" else "auto"
    gamma_exprs = None
    if gamma is not None:
        if isinstance(gamma, str):
            if gamma not in _GAMMA_POLICIES:
                raise PlaneError(f"unknown gamma policy {gamma!r}")
            gamma_policy = gamma
        elif isinstance(gamma, list):
            gamma_exprs = _grid(gamma, size, "gamma")
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
    for n_ in generators:
        if n_ in ncalg.RESERVED_NAMES:
            raise PlaneError(f"generator name {n_!r} collides with a "
                             "reserved token")
        if n_[0].isdecimal() or n_[0] in "+*/^()-":
            raise PlaneError(f"generator name {n_!r} starts with a digit "
                             "or one of + * / ^ ( ) -, which the element "
                             "grammar reads as a number or an operator")
    if quotient is not None and quotient["symbol"] != "rho":
        raise PlaneError(f"quotient.symbol must be 'rho', the one auxiliary "
                         f"symbol the grammar reads, not "
                         f"{quotient['symbol']!r}")
    eigenvalues = tuple(parse_scalar(e, where=f"eigenvalues.{key}")
                        for key, e in zip(_EIGENVALUE_KEYS[family], eigs))
    plane = _derive_generic(
        name, dimension, tuple(generators), family,
        from_exprs(r_exprs, dimension, name="r_matrix"), eigenvalues,
        gamma_policy)
    if gamma_exprs is not None:
        plane = _replace(plane, gamma_policy="explicit", gamma_explicit=(
            from_exprs(gamma_exprs, dimension, name="gamma")))
    if symplectic is not None:
        plane = _replace(plane, symplectic_body_expr=symplectic["form"],
                         symplectic_scale_expr=symplectic["scale"])
    if doc.get("q", "generic") != "generic":
        plane = _specialize(plane, _parse_q_value(doc["q"]))
    if quotient is not None:
        plane = _quotient(plane, quotient["central"])
    if symplectic is not None:
        # read in the final plane's field, so a pole at q is caught too
        _read(plane.parse, symplectic["form"], "symplectic.form")
        _read(plane.parse_coefficient, symplectic["scale"],
              "symplectic.scale")
    if gamma_exprs is not None:
        plane.gamma_candidates  # a failing explicit braiding raises here
    return plane


def _read(parse, text, key):
    """``parse(text)``; text that does not read raises a PlaneError that
    names its document key."""
    try:
        return parse(text)
    except (ScalarError, ncalg.NcalgError) as exc:
        raise PlaneError(f"{key}: {exc}")


def _parse_q_value(q):
    try:
        return Specialization.from_q(parse_scalar(str(q)))
    except ScalarError as exc:
        raise PlaneError(f"invalid q value {q!r}: {exc}")


def _derive_generic(name, dimension, generator_names, family, r,
                    eigenvalues, gamma_policy) -> PlaneSpec:
    """The generic plane of a braid matrix: matrices, checks and rules.

    Nothing else makes B, C or D.  Every eigenvalue is nonzero (a braid
    matrix is invertible), and R satisfies the braid relation, checked as
    X R12 == R23 X with X = R12 R23, and its minimal polynomial m(R) =
    sum c_k R^k = 0, read off R's powers E, R, R^2 (and R^3 on family
    B; :class:`qplane.linalg.Powers`).  Every other matrix is a
    polynomial in R, read off those powers with no further product:

    - C = qR.
    - D = -(sum_(k>=1) c_k R^(k-1)) / (q c_0): m(R) = 0 gives c_0 E =
      -R sum_(k>=1) c_k R^(k-1), and c_0 = m(0), up to sign the product
      of the eigenvalues, is nonzero.  So D is C's exact inverse.
    - B = R/q on family A, and B = E - Q on family B, with Q = (R^2 -
      (lambda0 + lambda2) R + lambda0 lambda2 E) / ((lambda1 - lambda0)
      (lambda1 - lambda2)) (:func:`qplane.linalg.projector_q`).

    The consistency conditions then follow from m(R) = 0 and the braid
    relation, except (E - B)(E + C) = 0 on some declarations:

    - wz1, (E - B)(E + C) = 0.  On family A it is -(R - q)(R + q^-1),
      which is m(R) when the eigenvalues are q and -q^-1 as values.  On
      family B it is Q (E + qR) = (1 + q lambda1) Q, since (R - lambda1)
      Q is m(R) up to a scalar, and so zero when lambda1 = -q^-1.  Any
      other declaration evaluates the product
      (:func:`qplane.linalg.xi_compat`).
    - wz4 is wz1, since F = B.
    - wz2, X12 C23 C12 = C23 C12 X23 for X = E - B.  The X that satisfy
      it form an algebra: it is linear in X, and if X and Y satisfy it,
      X12 Y12 C23 C12 = X12 C23 C12 Y23 = C23 C12 X23 Y23.  It holds for
      X = E, and for X = R it is the braid relation times q^2.  So it
      holds for every polynomial in R, E - B and its denominator-cleared
      multiple among them.
    - wz5, X23 C12 C23 = C12 C23 X12: the same argument.
    - wz3: CD = DC = E, as above.  Multiplying wz5's identity for X = C,
      C23 C12 C23 = C12 C23 C12, by D23 on the left and D12 on the right
      gives D23 C12 C23 = C12 C23 D12.

    Q = L(R) for the Lagrange polynomial L of lambda1 on {lambda0,
    lambda1, lambda2}, which ``projector_q`` requires distinct from
    lambda0 and lambda2.  L^2 - L = L (L - 1) vanishes at lambda0 and
    lambda2 (twice at lambda0 = lambda2) and at lambda1, so the minimal
    polynomial divides it, and Q Q = Q holds with no product.
    """
    for key, value in zip(_EIGENVALUE_KEYS[family], eigenvalues):
        if value.is_zero():
            raise PlaneVerificationError(
                f"plane {name}: eigenvalue {key} is 0, but a braid matrix "
                "is invertible")
    if not check_ybe(r):
        raise PlaneVerificationError(
            f"plane {name}: braid Yang-Baxter equation fails for the "
            "given r_matrix")
    powers = Powers(r)
    if not check_min_poly(powers, eigenvalues):
        raise PlaneVerificationError(
            f"plane {name}: minimal polynomial with the declared "
            "eigenvalues does not annihilate the r_matrix")
    c = r.scale(scalar.Q)
    coeffs = monic_coefficients(eigenvalues)
    k = -(scalar.Q * coeffs[0]).inverse()
    d = powers.poly([ck * k for ck in coeffs[1:]])
    if family == "A":
        b = r.scale(scalar.Q.inverse())
        proved = _is_hecke(family, eigenvalues, scalar.Q)
    else:
        try:
            b = identity(dimension) - projector_q(powers, *eigenvalues)
        except LinalgError as exc:
            raise PlaneError(f"plane {name}: projector undefined ({exc})")
        proved = eigenvalues[1] == -scalar.Q.inverse()
    if not proved and not xi_compat(b, c):
        raise PlaneVerificationError(
            f"plane {name}: consistency conditions failed: "
            f"{[WZ_CONDITIONS[0], WZ_CONDITIONS[3]]}")
    system = ncalg.build_rewrite_system(
        dimension, generator_names, _family_ranks(dimension, family), b, c, d)
    _check_word_counts(name, system)
    return PlaneSpec(name, dimension, generator_names, family, r,
                     eigenvalues, b, c, d, system, gamma_policy)


def _is_hecke(family, eigenvalues, q):
    """True when the minimal polynomial is (R - q)(R + q^-1): a family-A
    plane whose eigenvalues are q and -q^-1 as values."""
    return family == "A" and set(eigenvalues) == {q, -q.inverse()}


def _check_word_counts(name, system):
    """Raise unless each kind's relations leave as many normal words as
    its classical model has: C(n+k-1, k) of degree k = 2, 3 for commuting
    coordinates and derivatives, and C(n, k) of degree k = 2 .. n+1 for
    anticommuting differentials.  The count looks up adjacent letter
    pairs and reduces nothing (``ncalg.normal_words``)."""
    n = system.dimension
    commuting = [math.comb(n + k - 1, k) for k in (2, 3)]
    for kind, sector, model, want in (
            (COORD, "coordinate", "commuting coordinates", commuting),
            (ncalg.DIFF, "differential", "anticommuting differentials",
             [math.comb(n, k) for k in range(2, n + 2)]),
            (ncalg.DERIV, "derivative", "commuting derivatives", commuting)):
        counts = [0] * (len(want) + 2)
        for w in ncalg.normal_words(system, kind, len(want) + 1):
            counts[len(w)] += 1
        if counts[2:] != want:
            got = [f"{counts[2]} normal words of degree 2"] + [
                f"{c} of degree {k}" for k, c in enumerate(counts[3:], 3)]
            raise PlaneVerificationError(
                f"plane {name}: the {sector} relations leave "
                f"{_and_list(got)}, where {model} have {_and_list(want)}")


def _and_list(items):
    """'a, b and c'."""
    *head, last = map(str, items)
    return f"{', '.join(head)} and {last}"


def _family_ranks(dimension, family):
    # A-family monomial order follows the declared order (x < y); the
    # B-family basis is written largest-first (+, 0, -), so reverse it.
    if family == "A":
        return tuple(range(1, dimension + 1))
    return tuple(range(dimension, 0, -1))


def _specialize(plane: PlaneSpec, sp: Specialization, name=None
                ) -> PlaneSpec:
    """``plane`` at s = sp.value, named ``name`` (default: its own name).

    The generic checks and the declarations are inherited; the rules are
    derived again, and a quotient rule added to them again (step 2 of the
    module docstring).
    """
    name = name or plane.name
    try:
        r = plane.r_matrix.specialize(sp)
        eigenvalues = tuple(v.specialize(sp) for v in plane.eigenvalues)
        b, c, d = (m.specialize(sp) for m in (plane.b, plane.c, plane.d))
        gamma = None if plane.gamma_explicit is None \
            else plane.gamma_explicit.specialize(sp)
    except ScalarError as exc:
        raise PlaneError(f"plane {name}: specialization at {sp} hits a "
                         f"pole: {exc}")
    system = ncalg.build_rewrite_system(
        plane.dimension, plane.generator_names, plane.system.ranks, b, c, d)
    out = _replace(plane, name=name, r_matrix=r, eigenvalues=eigenvalues,
                   b=b, c=c, d=d, gamma_explicit=gamma,
                   system=system, specialization=sp, generic=plane.generic)
    if plane.quotient_central_expr is not None:
        out = _quotient(out, plane.quotient_central_expr)
    return out


def _quotient(plane: PlaneSpec, central_expr: str) -> PlaneSpec:
    """``plane`` modulo (central element = rho), with its form relations.

    Centrality is checked on the generic plane, where the element is not
    degenerate.  A quotient at generic q is its own generic plane.
    """
    central = _read(plane.parse, central_expr, "quotient.central")
    if not central.is_pure(COORD):
        raise PlaneError("quotient central element must be pure coordinate")
    generic = plane.generic
    generic_central = generic.parse(central_expr)
    g = ncalg.noncommuting_generator(generic_central, generic.system)
    if g is not None:
        raise PlaneVerificationError(
            f"plane {plane.name}: declared central element {central_expr} "
            f"is not central: it does not commute with "
            f"{generic.system.gen_name(g)}")
    # the plane's rules and the quotient rule derived in this field
    system = ncalg.quotient_system(plane.system, central)
    generic_system = system if generic is plane else generic.system
    forms = _derive_constraint_forms(plane.specialization, system,
                                     generic_system, generic_central)
    return _replace(plane, system=system, quotient_central_expr=central_expr,
                    constraint_forms=forms)


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
    (row,) = echelon([eta.body.terms], generic_system.word_key).values()
    body = AlgebraElement(row)
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
        if not c2.is_zero():
            forms.append(c2)
    return tuple(forms)


def resolve_gamma(plane: PlaneSpec):
    """Evaluate the braiding candidates for the wedge product.

    Returns a list of (candidate name, matrix, passes) in policy order; the
    first passing candidate becomes the plane's braiding.  A candidate
    passes the wedge condition (D+E)(E-Gamma) = 0 and the braid relation;
    this is the one place the wedge condition is decided.  R^-1 is read off
    D = (qR)^-1 as q D: every plane has an invertible C = qR.

    For R/q the condition is proved without a product where the minimal
    polynomial carries it: D + E = D (E + qR), and (E + qR)(E - R/q) =
    -(R - q)(R + q^-1), which is m(R) on a family-A plane whose
    eigenvalues are q and -q^-1.  Every other candidate is evaluated.

    The derived candidates R/q, D and q D = R^-1 satisfy the braid relation
    because the plane exists: its R does, and so does every scalar multiple
    of R or of R^-1.  Only an explicit braiding gets its own Yang-Baxter
    check.
    """
    q = scalar.Q if plane.specialization is None else \
        scalar.Q.specialize(plane.specialization)
    policy = plane.gamma_policy
    if policy == "r_over_q":
        candidates = [("r_over_q", plane.r_matrix.scale(q.inverse()))]
    elif policy == "d":
        candidates = [("d_matrix", plane.d)]
    elif policy == "auto":
        candidates = [("d_matrix", plane.d), ("r_inverse", plane.d.scale(q))]
    else:  # "explicit": the document's matrix
        candidates = [("explicit", plane.gamma_explicit)]
    hecke = _is_hecke(plane.family, plane.eigenvalues, q)
    out = [(cname, matrix, (cname == "r_over_q" and hecke)
            or (wedge_condition(plane.d, matrix)
                and (policy != "explicit" or check_ybe(matrix))))
           for cname, matrix in candidates]
    if policy == "explicit" and not any(p for _, _, p in out):
        raise PlaneVerificationError("explicit braiding fails the wedge "
                                     "condition or the braid relation")
    return out


# ---------------------------------------------------------------------------
# Built-in planes
# ---------------------------------------------------------------------------

_BUILTIN_CACHE = {}


def builtin_plane(name: str) -> PlaneSpec:
    if name in _BUILTIN_CACHE:
        return _BUILTIN_CACHE[name]
    if name == "gl2":
        plane = derive_plane({
            "name": "gl2", "dimension": 2, "family": "A",
            "generators": list(fixtures.GL2_GENERATORS),
            "r_matrix": fixtures.R_GL2, "gamma": "r_over_q",
            "eigenvalues": {"lambda1": "-q^-1", "lambda2": "q"},
            "symplectic": {"form": fixtures.GL2_SYMPLECTIC_BODY,
                           "scale": fixtures.GL2_SYMPLECTIC_SCALE}})
    elif name == "orth3":
        plane = derive_plane({
            "name": "orth3", "dimension": 3, "family": "B",
            "generators": list(fixtures.ORTH3_GENERATORS),
            "r_matrix": fixtures.R_ORTH3, "gamma": "auto",
            "eigenvalues": {"lambda0": "q^-2", "lambda1": "-q^-1",
                            "lambda2": "q"}})
    elif name == "sphere_qm1":
        # the paper's sphere: orth3 at q = -1 over its central radius
        sphere = _specialize(builtin_plane("orth3"), _parse_q_value("-1"),
                             name="sphere_qm1")
        plane = _replace(
            _quotient(sphere, fixtures.SPHERE_CENTRAL),
            symplectic_body_expr=fixtures.SPHERE_SYMPLECTIC_BODY,
            symplectic_scale_expr=fixtures.SPHERE_SYMPLECTIC_SCALE)
    else:
        raise PlaneError(f"unknown builtin plane {name!r}")
    _BUILTIN_CACHE[name] = plane
    return plane


def specialize(plane: PlaneSpec, q) -> PlaneSpec:
    """A generic plane specialized at a numeric q (the q = 1 checks).

    The plane is evaluated at q, not derived again; its rules and quotient
    are rebuilt in the specialized field, as for every specialization.
    """
    if plane.specialization is not None:
        raise PlaneError(f"plane {plane.name!r} is already specialized")
    return _specialize(plane, _parse_q_value(q), name=f"{plane.name}@q={q}")


def specialize_builtin(name: str, q) -> PlaneSpec:
    """The cached generic builtin plane ``name`` specialized at q."""
    return specialize(builtin_plane(name), q)


def _matrix_exprs(m: LegMatrix):
    size = m.size
    return [[str(m[r, c]) for c in range(size)] for r in range(size)]


# ---------------------------------------------------------------------------
# Configuration documents
# ---------------------------------------------------------------------------

_SCHEMA_KEYS = {"name", "dimension", "generators", "family", "r_matrix",
                "eigenvalues", "q", "gamma", "quotient", "symplectic"}
_GAMMA_POLICIES = ("r_over_q", "d", "auto")
# the document keys of each family's eigenvalues, in order
_EIGENVALUE_KEYS = {"A": ("lambda1", "lambda2"),
                    "B": ("lambda0", "lambda1", "lambda2")}


def load_plane(document: str) -> PlaneSpec:
    """Decode a JSON configuration; :func:`derive_plane` reads it."""
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as exc:
        raise PlaneError(f"configuration is not valid JSON: {exc}")
    except ValueError:  # an int literal past Python's 4300-digit cap
        raise PlaneError("configuration has an integer literal too long")
    except RecursionError:
        raise PlaneError("configuration nests arrays or objects too deeply")
    return derive_plane(doc)


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
    base, sp = plane.generic, plane.specialization
    doc = {
        "name": plane.name,
        "dimension": plane.dimension,
        "generators": list(plane.generator_names),
        "family": plane.family,
        "r_matrix": _matrix_exprs(base.r_matrix),
        "q": "generic" if sp is None else str(sp.value * sp.value),
        "eigenvalues": {key: str(v) for key, v in
                        zip(_EIGENVALUE_KEYS[base.family], base.eigenvalues)},
        "gamma": plane.gamma_policy if base.gamma_explicit is None
                 else _matrix_exprs(base.gamma_explicit),
    }
    if plane.quotient_central_expr:
        doc["quotient"] = {"central": plane.quotient_central_expr,
                           "symbol": "rho"}
    if plane.symplectic_body_expr:
        doc["symplectic"] = {"form": plane.symplectic_body_expr,
                             "scale": plane.symplectic_scale_expr}
    return json.dumps(doc, indent=2, sort_keys=True)


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
