import random

import pytest

from qplane import cli, fixtures, planes, qcalc, scalar, symp
from qplane.linalg import rref_rows
from qplane.ncalg import DIFF, AlgebraElement, gen
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
    return [symp._kernel_vector(reduced, pivots, fc, variables)
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
    cold = symplectic_form(SPHERE)
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


def test_one_pass_span_reduction_matches_restart_loop(monkeypatch):
    keys = [(k, bound) for k in (1, 2, 3) for bound in range(2, 7)]
    one_pass = symp._reduce_against_span
    fresh = planes._replace(SPHERE, constraint_spans={})
    spans = {key: symp._constraint_span(fresh, *key) for key in keys}
    monkeypatch.setattr(symp, "_reduce_against_span", _reduce_by_restarts)
    oracle = planes._replace(SPHERE, constraint_spans={})
    for key in keys:
        assert symp._constraint_span(oracle, *key) == spans[key], key
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
        particular = symp._prefer_conserving(f, particular, kernel, plane)
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
    calls = []
    contract = qcalc.contract

    def counted(field, tensor, sys):
        calls.append(field)
        return contract(field, tensor, sys)

    monkeypatch.setattr(qcalc, "contract", counted)
    omega = symplectic_form(SPHERE)
    assert is_nondegenerate(omega, SPHERE, 2)[0]
    variables = symp._system(omega, SPHERE, 2).variables
    assert len(calls) == len(variables)
    hamiltonian_vector_field(SPHERE.parse("x0"), omega, SPHERE, 2)
    # the residual check contracts the solved field once
    assert len(calls) == len(variables) + 1
