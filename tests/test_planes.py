import json

import pytest

from conftest import glq_plane_document
from qplane import fixtures, planes
from qplane.linalg import (
    check_min_poly,
    check_ybe,
    from_exprs,
    gamma_condition,
    identity,
    mat_inverse,
    wedge_condition,
    wz_conditions,
)
from qplane.planes import (
    PlaneError,
    PlaneVerificationError,
    capped,
    _matrix_exprs,
    builtin_plane,
    builtin_planes,
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


def test_builtins_derive():
    out = builtin_planes()
    assert [p.name for p in out] == ["gl2", "orth3", "sphere_qm1"]
    gl2, orth3, sphere = out
    assert gl2.family == "A" and gl2.dimension == 2
    assert orth3.family == "B" and orth3.dimension == 3
    assert sphere.specialization is not None
    assert sphere.specialization.value == I


def test_builtin_invariants():
    for plane in builtin_planes():
        assert all(plane.wz_report.values())
        assert plane.system is not None


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
    want = derive_plane(
        f"{name}@q=1", base.dimension, base.generator_names, base.family,
        _matrix_exprs(base.r_matrix), [str(v) for v in base.eigenvalues],
        q=1, gamma_policy=base.gamma_policy)
    got = specialize_builtin(name, 1)
    assert got.name == want.name == f"{name}@q=1"
    assert got.specialization == want.specialization
    for attr in ("b", "c", "d", "f", "q_projector"):
        assert getattr(got, attr) == getattr(want, attr), attr
    assert {lhs: r.rhs for lhs, r in got.system.rules.items()} == \
        {lhs: r.rhs for lhs, r in want.system.rules.items()}
    assert got.wz_report == want.wz_report
    assert got.gamma_candidates == want.gamma_candidates
    assert got.gamma == want.gamma


def test_sphere_and_orth3_share_one_derivation(monkeypatch):
    calls = []
    derive = planes.derive_plane

    def counting(*args, **kwargs):
        calls.append(args[0])
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


def test_capped_copy_shares_rules_and_caches():
    gl2 = builtin_plane("gl2")
    low = capped(gl2, 3)
    assert low.system.degree_cap == 3 and gl2.system.degree_cap == 16
    assert low.system.rules is gl2.system.rules
    assert low.system._cache is gl2.system._cache
    assert low.generic is low and low == gl2
    assert low.nf(low.parse("y*x*y")) == gl2.nf(gl2.parse("y*x*y"))


@pytest.mark.parametrize("name,q", [
    ("gl2", "1"), ("orth3", "1"), ("orth3", "-1"), ("orth3", "2*i"),
    *[(f"glq{n}", q) for n in (2, 3, 4) for q in ("1", "1/4", "-1")]])
def test_specialization_inherits_generic_verdicts(name, q):
    # the specialized plane carries the generic verdicts; proved again on
    # its evaluated matrices they all pass and agree
    if name.startswith("glq"):
        doc = {**glq_plane_document(int(name[3:])), "q": q}
        plane = load_plane(json.dumps(doc))
    else:
        plane = specialize_builtin(name, q)
    generic = plane.generic
    assert plane.specialization is not None and generic is not plane
    structure = {
        "braid-relation": check_ybe(plane.r_matrix),
        "minimal-polynomial": check_min_poly(plane.r_matrix,
                                             plane.eigenvalues),
    }
    wz = wz_conditions(plane.b, plane.c, plane.d, plane.f)
    assert all(structure.values()) and all(wz.values())
    assert plane.structure_report == structure == generic.structure_report
    assert plane.wz_report == wz == generic.wz_report


def test_specialize_builtin_rejects_specialized_plane():
    with pytest.raises(PlaneError, match="already specialized"):
        specialize_builtin("sphere_qm1", 1)


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


def test_specialized_quotient_reloads():
    doc = serialize_plane(builtin_plane("sphere_qm1"))
    again = load_plane(doc)
    assert again.quotient_symbol == "rho"
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


@pytest.mark.parametrize("name", ["gl2", "orth3", "sphere_qm1", "glq3"])
def test_q_times_d_is_r_inverse(name, glq_document):
    # D = (qR)^-1, so R^-1 = q D; the auto policy's r_inverse reads it so
    if name == "glq3":
        plane = load_plane(json.dumps({**glq_document(3), "gamma": "auto"}))
    else:
        plane = builtin_plane(name)
    q = Q if plane.specialization is None else Q.specialize(
        plane.specialization)
    r_inverse = mat_inverse(plane.r_matrix)  # the oracle
    assert plane.d.scale(q) == r_inverse
    if plane.gamma_policy == "auto":
        candidates = {n: m for n, m, _ in plane.gamma_candidates}
        assert candidates["r_inverse"] == r_inverse


@pytest.mark.parametrize("name", ["gl2", "orth3", "sphere_qm1", "glq3",
                                  "glq3-d", "glq3-auto"])
def test_gamma_verdicts_equal_direct_gamma_condition(name, glq_document):
    # resolve_gamma reads the braid relation of the derived candidates off
    # the plane's verdicts; a direct proof must agree on each of them
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
        derive_plane("gl2", 2, ("x", "y"), "A", fixtures.R_GL2,
                     ("-q^-1", "q"), gamma_exprs=rows)


def test_derive_plane_rejects_noncentral_quotient():
    with pytest.raises(PlaneError, match="not central"):
        derive_plane(
            "bad-sphere", 3, ("x+", "x0", "x-"), "B", fixtures.R_ORTH3,
            ("q^-2", "-q^-1", "q"), q="-1",
            quotient={"central": "x0", "symbol": "rho"})


def test_q_value_must_be_square_in_gaussian_rationals():
    with pytest.raises(PlaneError):
        derive_plane(
            "bad-q", 2, ("x", "y"), "A", fixtures.R_GL2,
            ("-q^-1", "q"), q="i")
    with pytest.raises(PlaneError):
        derive_plane(
            "bad-q2", 2, ("x", "y"), "A", fixtures.R_GL2,
            ("-q^-1", "q"), q="2")  # sqrt(2) not in Q(i)


def test_specialization_away_from_degenerate_points():
    import warnings
    from qplane import ncalg, symp
    p4 = derive_plane("gl2-at-4", 2, ("x", "y"), "A", fixtures.R_GL2,
                      ("-q^-1", "q"), q="4", gamma_policy="r_over_q",
                      symplectic={"form": "d(x)*d(y)", "scale": "1"})
    omega = symp.symplectic_form(p4)
    assert symp.is_closed(omega, p4)
    bracket = symp.poisson_bracket(p4.parse("x"), p4.parse("y"), omega, p4)
    assert bracket == p4.nf(p4.parse("-4"))
    assert ncalg.confluence_selftest(p4.system, 60, 4, 7).ok
    o4 = derive_plane("orth3-at-4", 3, ("x+", "x0", "x-"), "B",
                      fixtures.R_ORTH3, ("q^-2", "-q^-1", "q"), q="4")
    assert ncalg.confluence_selftest(o4.system, 60, 4, 7).ok
    # the wedge braiding exists only at the special values of q
    assert all(not ok for _, _, ok in o4.gamma_candidates)
