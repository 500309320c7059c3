import json
import random

import pytest

from conftest import glq_plane_document
from qplane import cli, fixtures, ncalg, planes, qcalc, scalar, symp
from qplane.linalg import rref_rows
from qplane.ncalg import COORD, DERIV, DIFF, AlgebraElement, gen
from qplane.qcalc import TensorForm, VectorField, WedgeForm, one_form_body
from qplane.scalar import parse_scalar
from qplane.symp import (
    SympError,
    constraint_reduce,
    equations_of_motion,
    hamiltonian_vector_field,
    is_closed,
    is_nondegenerate,
    poisson_bracket,
    symplectic_form,
)

GL2 = planes.builtin_plane("gl2")
SPHERE = planes.builtin_plane("sphere_qm1")
OMEGA_GL2 = symplectic_form(GL2)
OMEGA_SPHERE = symplectic_form(SPHERE)


def field_of(plane, table):
    out = VectorField()
    for coeff, direction in table:
        j = plane.generator_names.index(direction) + 1
        out = out + VectorField.basis(j, plane.parse(coeff))
    return out


# -- closedness -----------------------------------------------------------------

def test_gl2_closed():
    assert is_closed(OMEGA_GL2, GL2)


def test_sphere_closed():
    assert is_closed(OMEGA_SPHERE, SPHERE)


def test_sphere_d_omega_nonzero_without_constraints():
    # the raw differential does not vanish at word level; the constraint
    # module is what kills it (three-forms collapse on the sphere)
    d_body = qcalc.d_form(OMEGA_SPHERE.wedge, SPHERE.system).body
    assert not d_body.is_zero()
    assert constraint_reduce(d_body, SPHERE).is_zero()


def test_open_one_form_witness():
    alpha = WedgeForm(1, GL2.nf(GL2.parse("x*d(y)")))
    assert not qcalc.d_form(alpha, GL2.system).is_zero()


def test_sphere_three_forms_collapse():
    # every pure 3-form word dies against the constraint module
    body = AlgebraElement.from_word(
        (gen(DIFF, 3), gen(DIFF, 2), gen(DIFF, 1)))
    assert constraint_reduce(SPHERE.nf(body), SPHERE).is_zero()


def test_constraint_reduce_identity_without_quotient():
    e = GL2.nf(GL2.parse("x*d(y)"))
    assert constraint_reduce(e, GL2) == e


# -- nondegeneracy -----------------------------------------------------------------

def test_gl2_nondegenerate_degree0():
    ok, witness = is_nondegenerate(OMEGA_GL2, GL2, 0)
    assert ok and witness is None


def test_gl2_nondegenerate_degree1():
    ok, _ = is_nondegenerate(OMEGA_GL2, GL2, 1)
    assert ok


def test_sphere_nondegenerate_degree1():
    ok, _ = is_nondegenerate(OMEGA_SPHERE, SPHERE, 1)
    assert ok


def test_zero_form_degenerate_with_witness():
    zero = symp.SymplecticForm(
        WedgeForm(2, AlgebraElement.from_word(
            (gen(DIFF, 1), gen(DIFF, 2)))),
        TensorForm(2), scalar.ONE)
    ok, witness = is_nondegenerate(zero, GL2, 0)
    assert not ok
    assert witness is not None and not witness.is_zero()


# -- hamiltonian solver -------------------------------------------------------------

def test_gl2_fields_unique():
    rx = hamiltonian_vector_field(GL2.parse("x"), OMEGA_GL2, GL2, 1)
    assert rx.status == "unique"
    assert rx.particular == field_of(GL2, fixtures.GL2_HAMILTONIAN_FIELDS["x"])
    ry = hamiltonian_vector_field(GL2.parse("y"), OMEGA_GL2, GL2, 1)
    assert ry.status == "unique"
    assert ry.particular == field_of(GL2, fixtures.GL2_HAMILTONIAN_FIELDS["y"])


def test_sphere_fields_family_contains_printed_solution():
    for name, table in fixtures.SPHERE_HAMILTONIAN_FIELDS.items():
        rep = hamiltonian_vector_field(SPHERE.parse(name), OMEGA_SPHERE,
                                       SPHERE, 1)
        assert rep.status == "family"
        assert rep.particular == field_of(SPHERE, table)


def test_sphere_kernel_annihilates_contraction():
    rep = hamiltonian_vector_field(SPHERE.parse("x0"), OMEGA_SPHERE,
                                   SPHERE, 1)
    assert len(rep.kernel_basis) == 1
    z = rep.kernel_basis[0]
    body = one_form_body(qcalc.contract(z, OMEGA_SPHERE.tensor,
                                        SPHERE.system))
    body = SPHERE.system.normal_form(body).scale(OMEGA_SPHERE.scale)
    assert constraint_reduce(body, SPHERE).is_zero()


def test_residual_exact():
    for plane, omega, names in ((GL2, OMEGA_GL2, ("x", "y")),
                                (SPHERE, OMEGA_SPHERE, ("x+", "x0", "x-"))):
        for name in names:
            f = plane.parse(name)
            rep = hamiltonian_vector_field(f, omega, plane, 1)
            lhs = one_form_body(qcalc.contract(rep.particular, omega.tensor,
                                               plane.system))
            residual = plane.nf(lhs).scale(omega.scale) + \
                qcalc.d_function(f, plane.system).body
            assert constraint_reduce(plane.nf(residual), plane).is_zero()


def test_nonzero_residual_names_degree_bound_and_word(monkeypatch):
    # a solver that returns the zero field leaves the residual df
    monkeypatch.setattr(symp, "_solve_columns",
                        lambda columns, targets, sys: [[] for _ in targets])
    with pytest.raises(SympError, match=r"residual at degree bound 2 is "
                       r"nonzero; its first word is d\(y\)$"):
        hamiltonian_vector_field(GL2.parse("x*y + y"), OMEGA_GL2, GL2, 2)


def test_residual_checked_at_the_wider_margin_only_on_a_remainder(
        monkeypatch):
    # a residual that vanishes at the solver's own margin needs no span at
    # the wider one: on a cold plane the (1, 6) span is never built
    fresh = planes._replace(SPHERE)
    rep = hamiltonian_vector_field(fresh.parse("x0"), symplectic_form(fresh),
                                   fresh, 1)
    assert rep.particular is not None
    assert (1, 6) not in fresh.constraint_spans
    # a remainder is named from the wider margin's span
    monkeypatch.setattr(symp, "_solve_columns",
                        lambda columns, targets, sys: [[] for _ in targets])
    fresh = planes._replace(SPHERE)
    with pytest.raises(SympError, match=r"residual at degree bound 2 is "
                       r"nonzero; its first word is d\(x-\)$"):
        hamiltonian_vector_field(fresh.parse("x0*x+ + x-"),
                                 symplectic_form(fresh), fresh, 2)
    assert (1, 5) in fresh.constraint_spans


def test_solver_scaling_linearity():
    c = parse_scalar("3*q")
    rep1 = hamiltonian_vector_field(GL2.parse("x"), OMEGA_GL2, GL2, 1)
    rep2 = hamiltonian_vector_field(GL2.parse("x").scale(c), OMEGA_GL2,
                                    GL2, 1)
    assert rep2.particular == rep1.particular.scale(c)


def test_solver_no_solution_reported():
    # a 2-form that no ansatz of degree 0 can hit: target needs degree 1
    f = SPHERE.parse("x0*x+")
    rep = hamiltonian_vector_field(f, OMEGA_SPHERE, SPHERE, 0)
    assert rep.status == "none"


def test_large_sparse_solve_on_glq4():
    # at degree bound 8 the system is 1980 x 1980 with one nonzero per
    # row: the elimination visits the rows that hold each pivot column,
    # not every row for every column
    doc = glq_plane_document(4)
    doc["symplectic"] = {"form": "d(a)*d(b) + d(c)*d(e)", "scale": "1"}
    plane = planes.derive_plane(doc)
    omega = symplectic_form(plane)
    report = hamiltonian_vector_field(plane.parse("a"), omega, plane, 8)
    assert report.status == "unique"
    assert report.particular == field_of(plane, [("s^2", "b")])


def test_solver_rejects_non_coordinate_input():
    with pytest.raises(SympError):
        hamiltonian_vector_field(GL2.parse("d(x)"), OMEGA_GL2, GL2, 1)


# -- brackets ------------------------------------------------------------------------

def test_gl2_bracket_table():
    for (f, g), expect in fixtures.GL2_BRACKETS.items():
        value = poisson_bracket(GL2.parse(f), GL2.parse(g), OMEGA_GL2, GL2)
        assert value == GL2.nf(GL2.parse(expect)), (f, g)


def test_gl2_bracket_asymmetry_identity():
    # q [x,y] == -[y,x] as computed scalars
    xy = poisson_bracket(GL2.parse("x"), GL2.parse("y"), OMEGA_GL2, GL2)
    yx = poisson_bracket(GL2.parse("y"), GL2.parse("x"), OMEGA_GL2, GL2)
    q = parse_scalar("q")
    assert xy.scale(q) == -yx


def test_sphere_bracket_table():
    for (f, g), expect in fixtures.SPHERE_BRACKETS.items():
        value = poisson_bracket(SPHERE.parse(f), SPHERE.parse(g),
                                OMEGA_SPHERE, SPHERE)
        assert value == SPHERE.nf(SPHERE.parse(expect)), (f, g)


def test_family_bracket_warns():
    with pytest.warns(symp.NonUniqueFieldWarning):
        poisson_bracket(SPHERE.parse("x+"), SPHERE.parse("x-"),
                        OMEGA_SPHERE, SPHERE)


def test_sphere_non_antisymmetry():
    b1 = poisson_bracket(SPHERE.parse("x0"), SPHERE.parse("x+"),
                         OMEGA_SPHERE, SPHERE)
    b2 = poisson_bracket(SPHERE.parse("x+"), SPHERE.parse("x0"),
                         OMEGA_SPHERE, SPHERE)
    want = SPHERE.nf(SPHERE.parse("x+"))
    assert b1 == want and b2 == want


# -- equations of motion ----------------------------------------------------------------

def test_gl2_eom():
    table = equations_of_motion(GL2.parse("y"), OMEGA_GL2, GL2)
    assert table["x"] == GL2.nf(GL2.parse("-q"))
    assert table["y"].is_zero()


def test_sphere_eom():
    table = equations_of_motion(SPHERE.parse("x0"), OMEGA_SPHERE, SPHERE)
    assert table["x+"] == SPHERE.nf(SPHERE.parse("x+"))
    assert table["x-"] == SPHERE.nf(SPHERE.parse("x-"))
    assert table["x0"].is_zero()


def test_constant_hamiltonian_trivial_motion():
    table = equations_of_motion(AlgebraElement.unit(), OMEGA_GL2, GL2)
    assert all(v.is_zero() for v in table.values())


def test_sphere_degree2_ansatz_same_canonical_fields():
    # enlarging the ansatz grows the kernel but must not move the
    # canonical particular off the printed fields
    for name, table in fixtures.SPHERE_HAMILTONIAN_FIELDS.items():
        rep = hamiltonian_vector_field(SPHERE.parse(name), OMEGA_SPHERE,
                                       SPHERE, 2)
        assert rep.status == "family"
        assert len(rep.kernel_basis) > 1
        assert rep.particular == field_of(SPHERE, table)


def test_sphere_d_squared_mod_constraints():
    import random
    from qplane.scalar import from_int
    rng = random.Random(5)
    coords = SPHERE.coordinate_generators()
    for _ in range(40):
        e = AlgebraElement.zero()
        for _ in range(2):
            w = tuple(rng.choice(coords) for _ in range(rng.randint(0, 3)))
            e = e + AlgebraElement.from_word(w, from_int(rng.randint(-2, 2)))
        f = SPHERE.nf(e)
        dd = qcalc.d_form(qcalc.d_function(f, SPHERE.system),
                          SPHERE.system).body
        assert constraint_reduce(SPHERE.nf(dd), SPHERE).is_zero()


def test_missing_symplectic_form():
    orth3 = planes.builtin_plane("orth3")
    with pytest.raises(SympError):
        symplectic_form(orth3)


def _augmented_kernel(f, omega, plane, max_degree):
    """Reference: the kernel basis read off rref([A | b]) for one f."""
    sys = plane.system
    system = symp._system(omega, plane, max_degree)
    columns, variables = system.reduced, system.variables
    target = qcalc.d_function(sys.normal_form(f), sys).body
    target = constraint_reduce(sys.normal_form(target), plane).scale(
        scalar.MINUS_ONE)
    rows = sorted({w for col in columns for w in col.terms}
                  | set(target.terms), key=sys.word_key)
    matrix = [{c: col.terms[w] for c, col in enumerate(columns + [target])
               if w in col.terms} for w in rows]
    reduced, pivots = rref_rows(matrix, len(columns) + 1)
    assert len(variables) not in pivots
    return [_kernel_vector(reduced, pivots, fc, variables)
            for fc in range(len(variables)) if fc not in pivots]


@pytest.mark.parametrize("degree", [2, 3])
def test_kernel_basis_shared_per_degree_bound(degree):
    first = hamiltonian_vector_field(SPHERE.parse("x0"), OMEGA_SPHERE,
                                     SPHERE, degree)
    second = hamiltonian_vector_field(SPHERE.parse("(2 - i)*x+*x-"),
                                      OMEGA_SPHERE, SPHERE, degree)
    assert first.status == second.status == "family"
    assert first.kernel_basis is second.kernel_basis
    basis = first.kernel_basis
    assert isinstance(basis, tuple)
    with pytest.raises(TypeError):
        basis[0] = VectorField()
    cold = symp.build_symplectic_form(SPHERE)
    cold_report = hamiltonian_vector_field(SPHERE.parse("x+*x-"), cold,
                                           SPHERE, degree)
    assert cold_report.kernel_basis is not basis
    assert cold_report.kernel_basis == basis
    for f in ("x0", "x+*x-"):
        assert list(basis) == _augmented_kernel(SPHERE.parse(f), cold,
                                                SPHERE, degree)


def _reduce_by_restarts(e, span, sys):
    """The former reduction: clear the largest lead word, then start over."""
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


def _echelonized_span(plane, xi_degree, coord_bound):
    """The former span builder: the generators of ``_constraint_span``,
    Gauss-Jordan reduced one at a time, each new row back-substituted
    into the rows before it."""
    sys = plane.system
    coords = _trial_normal_words(plane.system, COORD, coord_bound)
    gens = []
    for form in plane.constraint_forms:
        pad = xi_degree - form.degree
        for split in range(pad + 1):
            for prefix in _diff_words(plane, split):
                for suffix in _diff_words(plane, pad - split):
                    core = AlgebraElement.from_word(prefix).concat(
                        form.body).concat(AlgebraElement.from_word(suffix))
                    for w in coords:
                        gens.append(sys.normal_form(
                            AlgebraElement.from_word(w).concat(core)))
    span = {}
    for el in gens:
        el = _reduce_by_restarts(el, span, sys)
        if el.is_zero():
            continue
        lead = max(el.terms, key=sys.word_key)
        el = el.scale(el.terms[lead].inverse())
        for lw in list(span):
            c = span[lw].terms.get(lead)
            if c is not None:
                span[lw] = span[lw] - el.scale(c)
        span[lead] = el
    return span


def test_constraint_span_matches_echelonize():
    # the rref with the largest word first is the unique reduced echelon
    # form, so it equals the former builder's span; k = 0 has no generator
    doc = json.loads(planes.serialize_plane(SPHERE))
    at_one = planes.load_plane(json.dumps({**doc, "q": "1"}))
    cases = [(SPHERE, k, bound) for k in (1, 2, 3) for bound in range(2, 7)]
    cases += [(at_one, k, bound) for k in (1, 2, 3) for bound in range(2, 6)]
    cases += [(SPHERE, 0, 2), (at_one, 0, 2)]
    for plane, k, bound in cases:
        fresh = planes._replace(plane)
        span = symp._constraint_span(fresh, k, bound)
        assert span == _echelonized_span(plane, k, bound), \
            (plane.name, k, bound)
        assert bool(span) == (k > 0)


def test_constraint_span_matches_echelonize_on_the_sphere_document():
    # the same comparison at generic q and at q = 2i
    doc = json.loads(planes.serialize_plane(SPHERE))
    for q in ("generic", "2*i"):
        plane = planes.load_plane(json.dumps({**doc, "q": q}))
        for k in (1, 2, 3):
            for bound in (2, 3, 4):
                fresh = planes._replace(plane)
                span = symp._constraint_span(fresh, k, bound)
                assert span == _echelonized_span(plane, k, bound), \
                    (q, k, bound)
                assert span


def test_constraint_span_extends_a_basis_of_its_cores(monkeypatch):
    # at k = 3 the 21 cores nf(p * g * u) over normal padding words p, u
    # have a basis of 7 rows, so the span at bound 6 eliminates 7 x 49
    # generators, not 21 x 49
    sizes = []
    echelon = symp.echelon

    def counting(vectors, key):
        vectors = list(vectors)
        sizes.append(len(vectors))
        return echelon(vectors, key)

    monkeypatch.setattr(symp, "echelon", counting)
    fresh = planes._replace(SPHERE)
    span = symp._constraint_span(fresh, 3, 6)
    assert len(ncalg.normal_words(SPHERE.system, COORD, 6)) == 49
    assert sizes == [21, 7 * 49]
    assert len(span) == 224


def test_one_pass_span_reduction_matches_restart_loop():
    keys = [(k, bound) for k in (1, 2, 3) for bound in range(2, 7)]
    one_pass = symp._reduce_against_span
    fresh = planes._replace(SPHERE)
    spans = {key: symp._constraint_span(fresh, *key) for key in keys}
    # seeded sphere forms: a random word's normal form plus a span row
    rng = random.Random(20261018)
    sys = SPHERE.system
    coords = SPHERE.coordinate_generators()
    diffs = [gen(DIFF, i) for i in range(1, 4)]
    for _ in range(200):
        k, bound = key = rng.choice(keys)
        word = tuple(rng.choice(coords) for _ in range(rng.randint(0, bound)))
        word += tuple(rng.choice(diffs) for _ in range(k))
        e = sys.normal_form(AlgebraElement.from_word(
            word, parse_scalar(str(rng.randint(1, 5)))))
        row = rng.choice(list(spans[key].values()))
        try:
            e = e + row.scale(parse_scalar(str(rng.randint(-5, 5))))
        except scalar.ScalarError:
            pass  # mixed powers of rho do not add yet (ROADMAP item 1)
        got = one_pass(e, spans[key], sys)
        assert got == _reduce_by_restarts(e, spans[key], sys)
        assert not any(w in spans[key] for w in got.terms)


def _per_component_reference(f, omega, plane, max_degree):
    """Reference: solve each homogeneous component of f on its own and sum.

    Returns (status, particular, kernel) as a report states them.
    """
    sys = plane.system
    system = symp._system(omega, plane, max_degree)
    columns, variables = system.reduced, system.variables
    f = sys.normal_form(f)
    particular = VectorField()
    for n in sorted({len(w) for w in f.terms}):
        part = AlgebraElement({w: c for w, c in f.terms.items()
                               if len(w) == n})
        target = qcalc.d_function(part, sys).body
        target = constraint_reduce(sys.normal_form(target), plane).scale(
            scalar.MINUS_ONE)
        rows = sorted({w for col in columns for w in col.terms}
                      | set(target.terms), key=sys.word_key)
        matrix = [{c: col.terms[w]
                   for c, col in enumerate(columns + [target])
                   if w in col.terms} for w in rows]
        reduced, pivots = rref_rows(matrix, len(columns) + 1)
        if len(variables) in pivots:
            return "none", None, ()
        for r, p in enumerate(pivots):
            j, w = variables[p]
            particular = particular + VectorField.basis(
                j, AlgebraElement.from_word(
                    w, reduced[r].get(len(columns), scalar.ZERO)))
    kernel = _augmented_kernel(AlgebraElement.zero(), omega, plane,
                               max_degree)
    if kernel:
        # the conserving shift: make X(f) vanish when the kernel allows it
        base = qcalc.apply_field(particular, f, sys)
        if not base.is_zero():
            images = [qcalc.apply_field(z, f, sys) for z in kernel]
            shift = symp._solve_columns(images, [-base], sys)
            if shift is not None:
                for p, t in shift[0]:
                    particular = particular + kernel[p].scale(t)
    return ("family" if kernel else "unique"), particular, tuple(kernel)


def _mixed_hamiltonian(rng, names):
    terms = []
    for _ in range(rng.randint(2, 3)):
        word = "*".join(rng.choice(names) for _ in range(rng.randint(0, 3)))
        terms.append(f"({rng.randint(-3, 3)} + {rng.randint(-2, 2)}*i)*"
                     f"{word or '1'}")
    return " + ".join(terms)


# sphere Hamiltonians whose components reach rows of different powers of
# rho: -df summed into one column would need to add those powers
RHO_MIXING = ("(-2 + i)*x-*x0*x+ + (3 - i)*x0 + (-2 + 2*i)*x-*x-",
              "(-3 - 2*i)*x0 - 3*x-*x+*x0 - 2*x+")


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("plane,omega,fixed", [
    (GL2, OMEGA_GL2, ()), (SPHERE, OMEGA_SPHERE, RHO_MIXING)],
    ids=["gl2", "sphere_qm1"])
def test_one_solve_matches_per_component_reference(plane, omega, fixed,
                                                   degree):
    rng = random.Random(9000 + degree)
    drawn = [_mixed_hamiltonian(rng, plane.generator_names)
             for _ in range(12)]
    for text in list(fixed) + drawn:
        try:
            want = _per_component_reference(plane.parse(text), omega, plane,
                                            degree)
        except scalar.ScalarError:
            # mixed powers of rho do not add yet (ROADMAP item 1)
            with pytest.raises(scalar.ScalarError):
                hamiltonian_vector_field(plane.parse(text), omega, plane,
                                         degree)
            code = 2
        else:
            got = hamiltonian_vector_field(plane.parse(text), omega, plane,
                                           degree)
            assert (got.status, got.particular, got.kernel_basis) == want, \
                text
            code = 1 if want[0] == "none" else 0
        argv = ["hamvec", "--plane", plane.name, "--degree", str(degree),
                text]
        assert cli.main(argv) == code, text


def test_nondegeneracy_and_solve_contract_each_variable_once(monkeypatch):
    # a form contracts omega with its n coordinate fields d_j, once; every
    # ansatz column and every residual is read off those contractions
    calls = []
    contract = qcalc.contract

    def counted(field, tensor, sys):
        calls.append(field)
        return contract(field, tensor, sys)

    monkeypatch.setattr(qcalc, "contract", counted)
    omega = symp.build_symplectic_form(SPHERE)
    assert is_nondegenerate(omega, SPHERE, 2)[0]
    assert calls == [VectorField.basis(j) for j in (1, 2, 3)]
    for degree in (1, 2, 3):
        hamiltonian_vector_field(SPHERE.parse("x0"), omega, SPHERE, degree)
    assert len(calls) == 3


def test_solve_splits_each_component_of_f_once_per_direction(monkeypatch):
    # the targets, the conserving choice and the residual read the same
    # actions: 3 directions x 2 homogeneous components
    omega = symp.build_symplectic_form(SPHERE)
    f = SPHERE.parse("x0*x+ + x-")
    hamiltonian_vector_field(f, omega, SPHERE, 3)  # warm: system built
    splits = []
    split = ncalg.derivative_split

    def counted(i, f, sys):
        splits.append((i, f))
        return split(i, f, sys)

    monkeypatch.setattr(ncalg, "derivative_split", counted)
    report = hamiltonian_vector_field(f, omega, SPHERE, 3)
    assert report.status == "family"  # the conserving choice ran
    assert len(splits) == len(set(splits)) == 6


def test_sphere_system_splits_each_contraction_word_once(monkeypatch):
    # the degree-3 system moves each d_j through the form's coordinate
    # words once: 3 directions x 3 words
    splits = []
    split = ncalg.derivative_split

    def counted(i, f, sys):
        splits.append((i, f))
        return split(i, f, sys)

    monkeypatch.setattr(ncalg, "derivative_split", counted)
    omega = symp.build_symplectic_form(SPHERE)
    symp._system(omega, SPHERE, 3)
    assert len(splits) == len(set(splits)) == 9


# -- one form per plane value ---------------------------------------------------

def _sphere_document_plane(**changes):
    doc = {**json.loads(planes.serialize_plane(SPHERE)), **changes}
    doc = {k: v for k, v in doc.items() if v is not None}
    return planes.load_plane(json.dumps(doc))


def test_symplectic_form_is_kept_on_the_plane():
    for plane in (GL2, SPHERE):
        assert symplectic_form(plane) is symplectic_form(plane)
    # each new plane value builds its own form, once
    generic = _sphere_document_plane(q="generic")
    special = planes.specialize(generic, "-1")
    unquotiented = _sphere_document_plane(quotient=None)
    assert unquotiented.quotient_central_expr is None
    before = symplectic_form(unquotiented)
    quotient = planes._quotient(unquotiented, fixtures.SPHERE_CENTRAL)
    for plane, other in ((special, SPHERE), (quotient, unquotiented)):
        omega = symplectic_form(plane)
        assert omega is symplectic_form(plane)
        assert omega is not symplectic_form(other)
    assert symplectic_form(unquotiented) is before


def test_symplectic_form_that_fails_raises_the_same_text_each_call():
    orth3 = planes.builtin_plane("orth3")
    generic = _sphere_document_plane(q="generic")
    for plane, text in (
            (orth3, "plane orth3 declares no symplectic form"),
            (generic, "plane sphere_qm1 has no braiding that satisfies the "
                      "wedge condition; tensor representation unavailable")):
        for _ in range(3):
            with pytest.raises(SympError) as err:
                symplectic_form(plane)
            assert str(err.value) == text
            assert type(err.value) is SympError
            # a failing read stores nothing on the plane
            assert "symplectic" not in vars(plane)


# -- the retired builders, as references ----------------------------------------

def _trial_normal_words(sys, kind, max_degree):
    """The former normal-word lister, for words of one kind: the normal
    words up to ``max_degree``, by reducing every candidate word."""
    out = [()]
    frontier = [()]
    for _ in range(max_degree):
        nxt = []
        for w in frontier:
            for g in sys.generators(kinds=(kind,)):
                cand = w + (g,)
                nf = sys.reduce_word(cand)
                if list(nf.terms) == [cand]:
                    nxt.append(cand)
        out.extend(nxt)
        frontier = nxt
    return out


def _diff_words(plane, length):
    """All n^length differential words."""
    gens = [gen(DIFF, i) for i in range(1, plane.dimension + 1)]
    words = [()]
    for _ in range(length):
        words = [w + (g,) for w in words for g in gens]
    return words


def _kernel_vector(reduced, pivots, free_col, variables):
    coeffs = {free_col: scalar.ONE}
    for r, p in enumerate(pivots):
        v = reduced[r].get(free_col)
        if v is not None:
            coeffs[p] = -v
    return symp._field(variables, coeffs.items())


def _per_variable_columns(omega, plane, variables):
    """scale * (w d_j)~|omega, contracted afresh for each unknown (j, w)."""
    sys = plane.system
    columns = []
    for j, w in variables:
        field = VectorField.basis(j, AlgebraElement.from_word(w))
        body = one_form_body(qcalc.contract(field, omega.tensor, sys))
        columns.append(sys.normal_form(body).scale(omega.scale))
    return columns


def _reference_kernel(columns, variables, sys):
    reduced, pivots = symp._rref_columns(columns, sys)
    return tuple(_kernel_vector(reduced, pivots, fc, variables)
                 for fc in range(len(variables)) if fc not in pivots)


def _glq3_with_a_form():
    doc = glq_plane_document(3, [2, 0, 1])
    doc["symplectic"] = {"form": "d(a)*d(b) + c*d(b)*d(c)", "scale": "2"}
    return planes.load_plane(json.dumps(doc))


CONTRACTION_PLANES = {
    "gl2": lambda: GL2,
    "sphere_qm1": lambda: SPHERE,
    "sphere-doc@generic": lambda: _sphere_document_plane(q="generic"),
    "sphere-doc@q=2i": lambda: _sphere_document_plane(q="2*i"),
    "sphere-doc@q=1": lambda: _sphere_document_plane(q="1"),
    "glq3-perm201": _glq3_with_a_form,
}


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("name", CONTRACTION_PLANES)
def test_contraction_map_matches_the_retired_builders(name, degree):
    # columns from the n coordinate contractions, kernels from the one
    # kernel routine and spans from normal padding words, each against the
    # builder it replaced; the sphere document at generic q and q = 2i has
    # no braiding for its form, so only its spans are compared
    plane = planes._replace(CONTRACTION_PLANES[name]())
    sys = plane.system
    for k in (1, 2, 3):
        assert symp._constraint_span(plane, k, degree + 2) == \
            _echelonized_span(plane, k, degree + 2), k
    if name in ("sphere-doc@generic", "sphere-doc@q=2i"):
        with pytest.raises(SympError):
            symplectic_form(plane)
        return
    omega = symplectic_form(plane)
    system = symp._system(omega, plane, degree)
    words = _trial_normal_words(sys, COORD, degree)
    assert sorted(system.variables) == sorted(
        (j, w) for j in range(1, plane.dimension + 1) for w in words)
    columns = _per_variable_columns(omega, plane, system.variables)
    assert system.columns == columns
    reduced = [constraint_reduce(col, plane) for col in columns]
    assert system.reduced == reduced
    assert system.kernel == _reference_kernel(reduced, system.variables, sys)
    kernel = _reference_kernel(columns, system.variables, sys)
    assert is_nondegenerate(omega, plane, degree) == (
        (False, kernel[0]) if kernel else (True, None))


@pytest.mark.parametrize("name", ["gl2", "orth3", "sphere_qm1",
                                  "glq3-perm201"])
def test_normal_words_equal_trial_reduction(name):
    plane = (_glq3_with_a_form() if name == "glq3-perm201"
             else planes.builtin_plane(name))
    sys = plane.system

    for kind in (COORD, DIFF, DERIV):
        assert ncalg.normal_words(sys, kind, 4) == \
            _trial_normal_words(sys, kind, 4), kind
