import itertools
import json
import pathlib

import pytest

from conftest import glq_plane_document, twisted_glq_document
from qplane import fixtures, linalg, ncalg, planes
from qplane.linalg import (
    check_min_poly,
    check_ybe,
    clear_denominators,
    from_exprs,
    gamma_condition,
    identity,
    mat_inverse,
    projector_q,
    wedge_condition,
    wz_conditions,
)
from qplane.planes import (
    PlaneError,
    PlaneVerificationError,
    _matrix_exprs,
    builtin_plane,
    derive_plane,
    load_plane,
    resolve_gamma,
    serialize_plane,
    specialize_builtin,
    verify_reference_relations,
)
from qplane.scalar import (
    I,
    ONE,
    POLY_ONE,
    Q,
    ZERO,
    parse_scalar,
)
from qplane.symp import symplectic_form

# the generic gl2 and orth3 documents, without a name
GL2_DOC = {"dimension": 2, "generators": ["x", "y"], "family": "A",
           "r_matrix": fixtures.R_GL2,
           "eigenvalues": {"lambda1": "-q^-1", "lambda2": "q"}}
ORTH3_DOC = {"dimension": 3, "generators": ["x+", "x0", "x-"], "family": "B",
             "r_matrix": fixtures.R_ORTH3,
             "eigenvalues": {"lambda0": "q^-2", "lambda1": "-q^-1",
                             "lambda2": "q"}}


def builtin_planes():
    """The three reference planes: gl2, orth3, and the sphere at q = -1."""
    return [builtin_plane(n) for n in ("gl2", "orth3", "sphere_qm1")]


def test_builtins_derive():
    out = builtin_planes()
    assert [p.name for p in out] == ["gl2", "orth3", "sphere_qm1"]
    gl2, orth3, sphere = out
    assert gl2.family == "A" and gl2.dimension == 2
    assert orth3.family == "B" and orth3.dimension == 3
    assert sphere.specialization is not None
    assert sphere.specialization.value == I


def _derivation_verdicts(plane):
    """The derivation's checks, proved again on the plane's own matrices:
    braid relation, minimal polynomial, consistency conditions."""
    r = plane.r_matrix
    return (check_ybe(r), check_min_poly(r, plane.eigenvalues),
            all(wz_conditions(plane.b, plane.c, plane.d).values()))


def test_builtin_invariants():
    for plane in builtin_planes():
        assert _derivation_verdicts(plane) == (True, True, True)
        assert plane.system is not None


def _sphere_document(q):
    return {**json.loads(planes.serialize_plane(builtin_plane("sphere_qm1"))),
            "q": q}


# the planes the suite derives: the built-ins, GL_q(2..4) in every basis
# permutation, the twisted GL_q(2..4) in both orders, and the sphere's
# document at four values of q
DERIVED_PLANES = {
    **{name: lambda name=name: builtin_plane(name)
       for name in ("gl2", "orth3", "sphere_qm1")},
    **{f"glq{n}-{''.join(map(str, perm))}":
       lambda n=n, perm=perm: derive_plane(glq_plane_document(n, list(perm)))
       for n in (2, 3, 4) for perm in itertools.permutations(range(n))},
    **{f"twisted{n}-{'reversed' if reverse else 'standard'}":
       lambda n=n, reverse=reverse: derive_plane(
           twisted_glq_document(n, reverse))
       for n in (2, 3, 4) for reverse in (False, True)},
    **{f"sphere-doc@q={q}": lambda q=q: derive_plane(_sphere_document(q))
       for q in ("generic", "1", "-1", "2*i")},
}


@pytest.mark.parametrize("name", DERIVED_PLANES)
def test_derived_planes_satisfy_every_condition(name):
    # the derivation takes the five consistency conditions and Q*Q == Q
    # from the braid relation and the minimal polynomial: each is proved
    # again here on the plane's own matrices
    plane = DERIVED_PLANES[name]()
    assert _derivation_verdicts(plane) == (True, True, True)
    if plane.family == "B":
        # B = E - Q, and M = c*Q: Q*Q == Q exactly when M*M == c*M
        m, c = clear_denominators(identity(plane.dimension) - plane.b)
        assert m * m == m.scale(c)
    # every derived plane declares the eigenvalues on which the derivation
    # takes (E - B)(E + C) = 0 (wz1 above), and on family A the r_over_q
    # wedge condition, from m(R) = 0; B is checked against the projector
    # of a fresh R^2
    generic = plane.generic
    if plane.family == "A":
        assert set(generic.eigenvalues) == {Q, -Q.inverse()}
        q = Q if plane.specialization is None else Q.specialize(
            plane.specialization)
        assert wedge_condition(plane.d, plane.r_matrix.scale(q.inverse()))
    else:
        assert generic.eigenvalues[1] == -Q.inverse()
        assert generic.b == identity(generic.dimension) - projector_q(
            generic.r_matrix, *generic.eigenvalues)


def test_derivation_embeds_only_the_braid_relation(monkeypatch):
    # the braid relation's R12 and R23 are the only triple-leg matrices a
    # load builds: the three triple-leg consistency conditions follow
    # from it
    embeds = []
    embed = linalg.embed

    def counted(m, position):
        embeds.append(position)
        return embed(m, position)

    monkeypatch.setattr(linalg, "embed", counted)
    derive_plane(glq_plane_document(3))
    assert embeds == ["12", "23"]


def _counted(monkeypatch, name):
    """Count the calls of ``planes.<name>``."""
    calls = []
    fn = getattr(planes, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(planes, name, counted)
    return calls


def test_xi_compat_is_evaluated_only_off_the_paper_eigenvalues(
        monkeypatch, glq_document):
    calls = _counted(monkeypatch, "xi_compat")
    for doc in (GL2_DOC, ORTH3_DOC, glq_document(3),
                {**GL2_DOC, "eigenvalues": {"lambda1": "q",
                                            "lambda2": "-q^-1"}}):
        derive_plane({**doc, "name": "p"})
    assert calls == []
    # lambda1 = q on orth3: Q (E + qR) = (1 + q^2) Q, not zero
    swapped = {"lambda0": "q^-2", "lambda1": "q", "lambda2": "-q^-1"}
    with pytest.raises(PlaneVerificationError, match="wz1_xx_xi_compat"):
        derive_plane({**ORTH3_DOC, "name": "p", "eigenvalues": swapped})
    assert len(calls) == 1


def test_wedge_condition_is_evaluated_off_the_hecke_r_over_q(
        monkeypatch, glq_document):
    calls = _counted(monkeypatch, "wedge_condition")
    for plane in (builtin_plane("gl2"), derive_plane(glq_document(3)),
                  derive_plane({**GL2_DOC, "name": "p", "q": "1"})):
        assert [ok for _, _, ok in plane.gamma_candidates] == [True]
    assert calls == []
    # family B's r_over_q, and gl2's d policy, are evaluated
    for doc, verdicts in (({**ORTH3_DOC, "gamma": "r_over_q"}, [False]),
                          ({**GL2_DOC, "gamma": "d"}, [False])):
        calls.clear()
        plane = derive_plane({**doc, "name": "p"})
        assert [ok for _, _, ok in plane.gamma_candidates] == verdicts
        assert len(calls) == 1
        assert verdicts == [gamma_condition(plane.d, m)
                            for _, m, _ in plane.gamma_candidates]


@pytest.mark.parametrize("name, legs", [("orth3", [3, 3, 3, 2, 2]),
                                        ("glq3", [3, 3, 3, 2])])
def test_derivation_products_read_off_the_powers(monkeypatch, name, legs,
                                                 glq_document):
    # three triple-leg products prove the braid relation, and R^2 (and R^3
    # on family B) the minimal polynomial; D, B and Q are read off them
    # with no further product
    doc = {**ORTH3_DOC, "name": "p"} if name == "orth3" else glq_document(3)
    products = []
    mul = linalg.LegMatrix.__mul__

    def counted(a, b):
        products.append(a.legs)
        return mul(a, b)

    monkeypatch.setattr(linalg.LegMatrix, "__mul__", counted)
    derive_plane(doc)
    assert products == legs


@pytest.mark.parametrize("family, eigenvalues, key", [
    ("A", {"lambda1": "-q^-1", "lambda2": "0"}, "lambda2"),
    ("B", {"lambda0": "0", "lambda1": "-q^-1", "lambda2": "q"}, "lambda0"),
])
def test_zero_eigenvalue_is_refused(family, eigenvalues, key):
    # D = (qR)^-1 is read off m(R) over m(0), the product of the
    # eigenvalues up to sign: a zero one is refused before any check
    doc = {**(GL2_DOC if family == "A" else ORTH3_DOC), "name": "p",
           "eigenvalues": eigenvalues}
    with pytest.raises(PlaneVerificationError,
                       match=f"^plane p: eigenvalue {key} is 0, but a braid "
                             "matrix is invertible$"):
        derive_plane(doc)


def test_sphere_gamma_resolution():
    sphere = builtin_plane("sphere_qm1")
    names = [(n, ok) for n, _, ok in sphere.gamma_candidates]
    assert names == [("d_matrix", True), ("r_inverse", False)]
    assert sphere.gamma == sphere.d


def test_orth3_gamma_all_fail():
    orth3 = builtin_plane("orth3")
    assert all(not ok for _, _, ok in orth3.gamma_candidates)
    assert orth3.gamma is None


def test_gl2_gamma_r_over_q():
    gl2 = builtin_plane("gl2")
    assert [(n, ok) for n, _, ok in gl2.gamma_candidates] == \
        [("r_over_q", True)]
    assert gl2.gamma == gl2.r_matrix.scale(parse_scalar("q^-1"))


def test_verify_relations_empty_diffs():
    for plane in builtin_planes():
        assert verify_reference_relations(plane) == []


def test_orth3_at_1_commutative():
    at1 = specialize_builtin("orth3", 1)
    diffs = verify_reference_relations(at1)
    assert diffs == []


@pytest.mark.parametrize("name", ["gl2", "orth3"])
def test_specialize_builtin_matches_rederivation(name):
    # oracle: re-derive the generic plane from its printed matrices at q=1
    base = builtin_plane(name)
    want = derive_plane({
        "name": f"{name}@q=1", "dimension": base.dimension,
        "generators": list(base.generator_names), "family": base.family,
        "r_matrix": _matrix_exprs(base.r_matrix),
        "eigenvalues": {key: str(v) for key, v in zip(
            planes._EIGENVALUE_KEYS[base.family], base.eigenvalues)},
        "q": 1, "gamma": base.gamma_policy})
    got = specialize_builtin(name, 1)
    assert got.name == want.name == f"{name}@q=1"
    assert got.specialization == want.specialization
    for attr in ("b", "c", "d"):
        assert getattr(got, attr) == getattr(want, attr), attr
    assert {lhs: r.rhs for lhs, r in got.system.rules.items()} == \
        {lhs: r.rhs for lhs, r in want.system.rules.items()}
    assert _derivation_verdicts(got) == _derivation_verdicts(want) \
        == (True, True, True)
    assert got.gamma_candidates == want.gamma_candidates
    assert got.gamma == want.gamma


def test_sphere_and_orth3_share_one_derivation(monkeypatch):
    calls = []
    derive = planes.derive_plane

    def counting(*args, **kwargs):
        calls.append(args[0]["name"])
        return derive(*args, **kwargs)

    monkeypatch.setattr(planes, "_BUILTIN_CACHE", {})
    monkeypatch.setattr(planes, "derive_plane", counting)
    sphere = builtin_plane("sphere_qm1")
    orth3 = builtin_plane("orth3")
    assert calls == ["orth3"]
    assert sphere.generic is orth3
    assert orth3.generic is orth3


@pytest.mark.parametrize("name", ["gl2", "orth3", "sphere_qm1"])
def test_builtin_planes_are_frozen(name):
    plane = builtin_plane(name)
    for attr in ("name", "system", "gamma", "generic", "constraint_spans"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(plane, attr, None)


def test_specialize_builtin_leaves_generic_plane_unchanged():
    orth3 = builtin_plane("orth3")
    signature = orth3.signature()
    candidates = list(orth3.gamma_candidates)
    at1 = specialize_builtin("orth3", 1)
    assert at1.name == "orth3@q=1" and at1.generic is orth3
    assert builtin_plane("orth3") is orth3
    assert orth3.name == "orth3"
    assert orth3.signature() == signature
    assert orth3.gamma_candidates == candidates


@pytest.mark.parametrize("name,q", [
    ("gl2", "1"), ("orth3", "1"), ("orth3", "-1"), ("orth3", "2*i"),
    *[(f"glq{n}", q) for n in (2, 3, 4) for q in ("1", "1/4", "-1")]])
def test_specialization_inherits_generic_verdicts(name, q):
    # the specialized plane inherits the generic checks without proving
    # them; proved again on its evaluated matrices and on the generic ones,
    # they all pass
    if name.startswith("glq"):
        doc = {**glq_plane_document(int(name[3:])), "q": q}
        plane = load_plane(json.dumps(doc))
    else:
        plane = specialize_builtin(name, q)
    generic = plane.generic
    assert plane.specialization is not None and generic is not plane
    assert _derivation_verdicts(plane) == _derivation_verdicts(generic) \
        == (True, True, True)


def test_specialize_builtin_rejects_specialized_plane():
    with pytest.raises(PlaneError, match="already specialized"):
        specialize_builtin("sphere_qm1", 1)


def _rules(plane):
    return {lhs: r.rhs for lhs, r in plane.system.rules.items()}


def _generic_sphere():
    doc = json.loads(serialize_plane(builtin_plane("sphere_qm1")))
    return doc, load_plane(json.dumps({**doc, "q": "generic"}))


def test_specialized_generic_sphere_is_the_builtin_sphere():
    # specialization keeps the declarations and derives the quotient again
    sphere = builtin_plane("sphere_qm1")
    _, generic = _generic_sphere()
    got = planes.specialize(generic, -1)
    assert got.quotient_central_expr == sphere.quotient_central_expr
    assert _rules(got) == _rules(sphere)
    assert got.system.quotient_rule.lhs == sphere.system.quotient_rule.lhs
    assert got.system.quotient_rule.rhs == sphere.system.quotient_rule.rhs
    assert [f.body for f in got.constraint_forms] == \
        [f.body for f in sphere.constraint_forms]
    assert _derivation_verdicts(got) == _derivation_verdicts(sphere) \
        == (True, True, True)
    for p in (got, sphere):
        assert ncalg.is_central(p.generic.parse(p.quotient_central_expr),
                                p.generic.system)
    assert got.constraint_spans == {} and got.generic is generic
    omega, want = symplectic_form(got), symplectic_form(sphere)
    assert omega.wedge.body == want.wedge.body
    assert omega.scale == want.scale


def test_specialized_generic_sphere_at_1_matches_its_document():
    doc, generic = _generic_sphere()
    got = planes.specialize(generic, 1)
    want = load_plane(json.dumps({**doc, "q": "1"}))
    assert got == want
    assert _rules(got) == _rules(want)
    assert got.system.quotient_rule.rhs == want.system.quotient_rule.rhs
    assert [f.body for f in got.constraint_forms] == \
        [f.body for f in want.constraint_forms]


def test_specialization_keeps_an_explicit_gamma():
    gamma = [["q^-1 * (" + e + ")" for e in row] for row in fixtures.R_GL2]
    generic = load_plane(json.dumps(gl2_doc(gamma=gamma)))
    got = planes.specialize(generic, "1/4")
    assert got.gamma_policy == "explicit"
    assert got.gamma == generic.gamma.specialize(got.specialization)
    assert got.gamma == load_plane(json.dumps(gl2_doc(
        gamma=gamma, q="1/4"))).gamma


@pytest.mark.parametrize("q", ["generic", "1/4"])
def test_serialization_keeps_an_explicit_gamma(q):
    # the serialized text carries the document's matrix, not the family's
    # default policy
    gamma = [["q^-1 * (" + e + ")" for e in row] for row in fixtures.R_GL2]
    plane = load_plane(json.dumps(gl2_doc(gamma=gamma, q=q)))
    doc = serialize_plane(plane)
    assert json.loads(doc)["gamma"] == _matrix_exprs(plane.generic.gamma)
    again = load_plane(doc)
    assert again.gamma_policy == "explicit"
    assert again.gamma == plane.gamma
    assert again == plane
    assert serialize_plane(again) == doc


def test_signature_tells_braidings_apart():
    # R/q is the default braiding of gl2: declared as a matrix, it is the
    # same braiding but another plane, as its serialized text differs
    gamma = [["q^-1 * (" + e + ")" for e in row] for row in fixtures.R_GL2]
    default = load_plane(json.dumps(gl2_doc()))
    explicit = load_plane(json.dumps(gl2_doc(gamma=gamma)))
    assert explicit.gamma == default.gamma
    assert explicit != default
    assert explicit == load_plane(json.dumps(gl2_doc(gamma=gamma)))
    for policy in ("d", "auto"):
        assert load_plane(json.dumps(gl2_doc(gamma=policy))) != default
    assert load_plane(json.dumps(gl2_doc(gamma="r_over_q"))) == default


def _golden_document(name, edit):
    path = pathlib.Path(__file__).parent / "golden" / f"serialize_{name}.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    edit(doc)
    return doc


def test_signature_tells_symplectic_scales_apart():
    def scale(text):
        return lambda doc: doc["symplectic"].update(scale=text)

    one = derive_plane(_golden_document("gl2", scale("1")))
    assert derive_plane(_golden_document("gl2", scale("2"))) != one
    # the scale is compared by its value, not its text
    assert derive_plane(_golden_document("gl2", scale("2/2"))) == one


def test_signature_reads_the_symplectic_form_by_its_normal_form():
    def form(text):
        return lambda doc: doc["symplectic"].update(form=text)

    gl2 = derive_plane(_golden_document("gl2", form("d(x)*d(y)")))
    assert derive_plane(_golden_document("gl2", form("d(x) * d(y)"))) == gl2
    # d(x)*d(x) is zero, so this is the same form
    same = "d(x)*d(y) + d(x)*d(x)"
    assert derive_plane(_golden_document("gl2", form(same))) == gl2
    assert derive_plane(_golden_document("gl2", form("d(y)*d(x)"))) != gl2


def test_signature_reads_the_quotient_element_by_its_free_parse():
    def central(text):
        return lambda doc: doc["quotient"].update(central=text)

    sphere = derive_plane(_golden_document("sphere_qm1", lambda doc: None))
    respaced = "s^-1*x+*x- + x0*x0 + s*x-*x+"
    assert derive_plane(_golden_document("sphere_qm1",
                                         central(respaced))) == sphere
    # on the quotient plane the element's normal form is rho, so a
    # comparison of normal forms could not tell central elements apart
    assert sphere.show(sphere.nf(sphere.parse(respaced))) == "rho"
    assert sphere.signature()["quotient"] != "rho"


def test_d_agrees_with_printed_table_via_independent_route():
    # derived route: (qR)^-1 by Gauss-Jordan; independent route: the
    # transcribed table itself must invert qR back to the identity
    orth3 = builtin_plane("orth3")
    from qplane.linalg import from_exprs
    table = from_exprs(fixtures.D_ORTH3_TABLE, 3)
    qr = orth3.r_matrix.scale(parse_scalar("q"))
    assert qr * table == identity(3)
    assert table * qr == identity(3)


# -- configuration loading ---------------------------------------------------------

def gl2_doc(**overrides):
    doc = {
        "name": "user-gl2",
        "dimension": 2,
        "generators": ["x", "y"],
        "family": "A",
        "r_matrix": fixtures.R_GL2,
        "eigenvalues": {"lambda1": "-q^-1", "lambda2": "q"},
        "q": "generic",
        "gamma": "r_over_q",
    }
    doc.update(overrides)
    return doc


def test_load_plane_matches_builtin():
    plane = load_plane(json.dumps(gl2_doc()))
    gl2 = builtin_plane("gl2")
    assert plane.r_matrix == gl2.r_matrix
    assert plane.system.rules.keys() == gl2.system.rules.keys()
    for lhs in plane.system.rules:
        assert plane.system.rules[lhs].rhs == gl2.system.rules[lhs].rhs


def test_load_plane_corrupted_entry_names_ybe():
    bad = [list(row) for row in fixtures.R_GL2]
    bad[0][0] = "q + 1"
    with pytest.raises(PlaneError, match="Yang-Baxter"):
        load_plane(json.dumps(gl2_doc(r_matrix=bad)))


def test_load_plane_missing_eigenvalues_family_b():
    doc = gl2_doc(family="B", dimension=3,
                  generators=["a", "b", "c"],
                  r_matrix=fixtures.R_ORTH3)
    del doc["eigenvalues"]
    with pytest.raises(PlaneError, match="lambda0"):
        load_plane(json.dumps(doc))


def test_load_plane_schema_errors():
    with pytest.raises(PlaneError, match="JSON"):
        load_plane("{not json")
    with pytest.raises(PlaneError, match="missing required"):
        load_plane(json.dumps({"name": "p"}))
    with pytest.raises(PlaneError, match="unknown configuration"):
        load_plane(json.dumps(gl2_doc(extra=1)))
    with pytest.raises(PlaneError, match="dense"):
        load_plane(json.dumps(gl2_doc(r_matrix=[["q"]])))
    with pytest.raises(PlaneError, match="dimension"):
        load_plane(json.dumps(gl2_doc(dimension=7)))


def test_load_plane_wrong_minimal_polynomial():
    doc = gl2_doc(eigenvalues={"lambda1": "q", "lambda2": "q"})
    with pytest.raises(PlaneError, match="minimal polynomial"):
        load_plane(json.dumps(doc))


def test_plane_without_the_commutative_word_count_is_refused():
    # FRT Sp_q(2) declared as family B: the declared -q^-1 has an empty
    # eigenspace, so the rules are those of the free algebra, with 4 and 8
    # normal words of degree 2 and 3 where commuting x, y have 3 and 4
    doc = gl2_doc(name="spq2", family="B", gamma="auto",
                  r_matrix=[["q", "0", "0", "0"],
                            ["0", "q - q^-3", "q^-1", "0"],
                            ["0", "q^-1", "0", "0"],
                            ["0", "0", "0", "q"]],
                  eigenvalues={"lambda0": "-q^-3", "lambda1": "-q^-1",
                               "lambda2": "q"})
    with pytest.raises(PlaneVerificationError,
                       match="leave 4 normal words of degree 2 and 8 of "
                             "degree 3, where commuting coordinates have "
                             "3 and 4"):
        load_plane(json.dumps(doc))


def test_word_counts_name_the_differential_sector():
    # orth3 at q = -1 is no generic plane: its differential relations
    # leave 4 normal words of degree 2 where anticommuting ones have 3
    system = planes.specialize(builtin_plane("orth3"), "-1").system
    with pytest.raises(PlaneVerificationError,
                       match="the differential relations leave 4 normal "
                             "words of degree 2, 4 of degree 3 and 4 of "
                             "degree 4, where anticommuting differentials "
                             "have 3, 1 and 0"):
        planes._check_word_counts("orth3@q=-1", system)


def test_word_counts_name_the_derivative_sector():
    # gl2's rules without D.D rules: the derivatives are free
    system = builtin_plane("gl2").system
    free = ncalg.RewriteSystem(2, system.generator_names, system.ranks)
    free.rules = {lhs: rule for lhs, rule in system.rules.items()
                  if {g[0] for g in lhs} != {ncalg.DERIV}}
    with pytest.raises(PlaneVerificationError,
                       match="the derivative relations leave 4 normal words "
                             "of degree 2 and 8 of degree 3, where commuting "
                             "derivatives have 3 and 4"):
        planes._check_word_counts("gl2", free)


def test_reserved_generator_names_rejected():
    with pytest.raises(PlaneError, match="reserved"):
        load_plane(json.dumps(gl2_doc(generators=["q", "y"])))


def test_explicit_gamma_accepted_and_checked():
    gamma = [["q^-1 * (" + e + ")" for e in row] for row in fixtures.R_GL2]
    plane = load_plane(json.dumps(gl2_doc(gamma=gamma)))
    assert plane.gamma is not None
    bad = [list(row) for row in fixtures.R_GL2]
    with pytest.raises(PlaneError, match="wedge"):
        load_plane(json.dumps(gl2_doc(gamma=bad)))


def test_roundtrip_serialization():
    # q = 2i (s = 1 + i) and q = -1/4 (s = i/2) print q from s * s
    cases = [(builtin_plane(name), None)
             for name in ("gl2", "orth3", "sphere_qm1")]
    cases += [(specialize_builtin("orth3", "2*i"), "2*i"),
              (specialize_builtin("gl2", "-1/4"), "-1/4")]
    for plane, q in cases:
        doc = serialize_plane(plane)
        if q is not None:
            assert json.loads(doc)["q"] == q
        again = load_plane(doc)
        assert again == plane
        assert serialize_plane(again) == doc


def test_quotient_adds_one_rule_to_its_planes_rules(monkeypatch):
    # the sphere is orth3 at q = -1 plus the rule x0*x0 -> -rho; the
    # quotient derives nothing again and leaves its plane's rules as they
    # were
    sphere = builtin_plane("sphere_qm1")
    plane = planes.specialize(builtin_plane("orth3"), -1)
    before = _rules(plane)
    monkeypatch.setattr(planes.ncalg, "build_rewrite_system", None)
    got = planes._quotient(plane, fixtures.SPHERE_CENTRAL)
    lead = got.system.quotient_rule.lhs
    assert list(got.system.rules) == [*before, lead]
    assert _rules(got) == _rules(sphere)
    assert _rules(plane) == before and lead not in before


def test_specialized_quotient_reloads():
    doc = serialize_plane(builtin_plane("sphere_qm1"))
    again = load_plane(doc)
    assert json.loads(doc)["quotient"]["symbol"] == "rho"
    assert again.quotient_central_expr == fixtures.SPHERE_CENTRAL
    assert again.system.quotient_rule is not None
    assert len(again.constraint_forms) == 2


def test_resolve_gamma_shapes():
    gl2 = builtin_plane("gl2")
    out = resolve_gamma(gl2)
    assert [n for n, _, _ in out] == ["r_over_q"]
    sphere = builtin_plane("sphere_qm1")
    out = resolve_gamma(sphere)
    assert [n for n, _, _ in out] == ["d_matrix", "r_inverse"]


def test_glq_scalars_are_laurent_polynomials(glq_document):
    # every GL_q(n) entry and rule coefficient is a Laurent polynomial in
    # s: the power of s is carried as an exponent, never as a denominator
    plane = load_plane(json.dumps(glq_document(3)))
    values = [v for m in (plane.r_matrix, plane.b, plane.c, plane.d)
              for v in m.entries.values()]
    values += [c for rule in plane.system.rules.values()
               for c in rule.rhs.terms.values()]
    assert values and all(v.den == POLY_ONE for v in values)
    assert plane.c.at((1, 1), (1, 1)).val == 4  # q^2 = s^4


@pytest.mark.parametrize("name", ["glq3", *DERIVED_PLANES])
def test_q_times_d_is_r_inverse(name, glq_document):
    # D = (qR)^-1, read off the minimal polynomial, so R^-1 = q D; the
    # auto policy's r_inverse reads it so
    if name == "glq3":
        plane = load_plane(json.dumps({**glq_document(3), "gamma": "auto"}))
    else:
        plane = DERIVED_PLANES[name]()
    q = Q if plane.specialization is None else Q.specialize(
        plane.specialization)
    assert plane.d == mat_inverse(plane.c)  # the oracles
    r_inverse = mat_inverse(plane.r_matrix)
    assert plane.d.scale(q) == r_inverse
    if plane.gamma_policy == "auto":
        candidates = {n: m for n, m, _ in plane.gamma_candidates}
        assert candidates["r_inverse"] == r_inverse


@pytest.mark.parametrize("name", ["gl2", "orth3", "sphere_qm1", "glq3",
                                  "glq3-d", "glq3-auto"])
def test_gamma_verdicts_equal_direct_gamma_condition(name, glq_document):
    # resolve_gamma takes the braid relation of the derived candidates
    # from the plane's existence; a direct proof must agree on each of them
    if name.startswith("glq3"):
        document = glq_document(3)
        if "-" in name:
            document["gamma"] = name.split("-", 1)[1]
        plane = load_plane(json.dumps(document))
    else:
        plane = builtin_plane(name)
    for _, matrix, ok in plane.gamma_candidates:
        assert ok == gamma_condition(plane.d, matrix)


def test_explicit_gamma_failing_only_the_braid_relation_is_refused():
    # Gamma = E - v w^T with v = (0, -q^-1, 1, 0) in ker(D + E) passes the
    # wedge condition for every w; with w = (1, 0, 0, 0) it breaks the
    # braid relation, which an explicit braiding must still prove
    gl2 = builtin_plane("gl2")
    v = [ZERO, -Q.inverse(), ONE, ZERO]
    rows = [["1", "0", "0", "0"],
            ["q^-1", "1", "0", "0"],
            ["-1", "0", "1", "0"],
            ["0", "0", "0", "1"]]
    gamma = from_exprs(rows, 2)
    d_plus_e = gl2.d + identity(2)
    for r in range(4):
        acc = ZERO
        for c in range(4):
            acc = acc + d_plus_e[r, c] * v[c]
        assert acc.is_zero()
    assert wedge_condition(gl2.d, gamma) and not check_ybe(gamma)
    with pytest.raises(PlaneVerificationError, match="braid relation"):
        derive_plane({**GL2_DOC, "name": "gl2", "gamma": rows})


def test_derive_plane_rejects_noncentral_quotient():
    with pytest.raises(PlaneError, match="not central"):
        derive_plane({**ORTH3_DOC, "name": "bad-sphere", "q": "-1",
                      "quotient": {"central": "x0", "symbol": "rho"}})


def test_q_value_must_be_square_in_gaussian_rationals():
    with pytest.raises(PlaneError):
        derive_plane({**GL2_DOC, "name": "bad-q", "q": "i"})
    with pytest.raises(PlaneError):
        # sqrt(2) not in Q(i)
        derive_plane({**GL2_DOC, "name": "bad-q2", "q": "2"})


def test_specialization_away_from_degenerate_points():
    import warnings
    from qplane import ncalg, symp
    p4 = derive_plane({**GL2_DOC, "name": "gl2-at-4", "q": "4",
                       "gamma": "r_over_q",
                       "symplectic": {"form": "d(x)*d(y)", "scale": "1"}})
    omega = symp.symplectic_form(p4)
    assert symp.is_closed(omega, p4)
    bracket = symp.poisson_bracket(p4.parse("x"), p4.parse("y"), omega, p4)
    assert bracket == p4.nf(p4.parse("-4"))
    assert ncalg.confluence_selftest(p4.system, 60, 4, 7).ok
    o4 = derive_plane({**ORTH3_DOC, "name": "orth3-at-4", "q": "4"})
    assert ncalg.confluence_selftest(o4.system, 60, 4, 7).ok
    # the wedge braiding exists only at the special values of q
    assert all(not ok for _, _, ok in o4.gamma_candidates)
