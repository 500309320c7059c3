"""Acceptance suite: one test per criterion, exact equality throughout.

Every check is an identity of canonical forms in the exact coefficient
field; there are no numeric tolerances.  Each criterion prints a PASS/FAIL
line so the suite doubles as a human-readable report when run with -s.
"""

import json
import random
import time

from qplane import fixtures, ncalg, planes, qcalc, symp
from qplane.cli import main as cli_main
from qplane.linalg import check_ybe, from_exprs, identity
from qplane.ncalg import DIFF, AlgebraElement, confluence_selftest, gen
from qplane.qcalc import VectorField, WedgeForm, one_form_body
from qplane.scalar import from_int, parse_scalar


GL2 = planes.builtin_plane("gl2")
ORTH3 = planes.builtin_plane("orth3")
SPHERE = planes.builtin_plane("sphere_qm1")


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_yang_baxter():
    start = time.monotonic()
    ok = check_ybe(GL2.r_matrix) and check_ybe(ORTH3.r_matrix)
    corruptions = {
        "gl2": [(0, 0), (1, 1), (1, 2), (2, 1), (3, 3)],
        "orth3": [(0, 0), (1, 1), (2, 2), (4, 4), (1, 3)],
    }
    failed_corruptions = 0
    for name, positions in corruptions.items():
        base = (GL2 if name == "gl2" else ORTH3).r_matrix
        for rc in positions:
            m = base.copy()
            m[rc] = m[rc] + from_int(1)
            if not check_ybe(m):
                failed_corruptions += 1
    elapsed = time.monotonic() - start
    ok = ok and failed_corruptions == 10 and elapsed < 5.0
    report(1, ok,
           f"braid relation holds for both matrices, {failed_corruptions}"
           f"/10 corruptions fail, {elapsed:.2f}s < 5s")


def test_criterion_2_spectral():
    q = parse_scalar("q")
    e2 = identity(2)
    gl2_ok = ((GL2.r_matrix - e2.scale(q))
              * (GL2.r_matrix + e2.scale(parse_scalar("q^-1")))).is_zero()
    e3 = identity(3)
    orth3_ok = ((ORTH3.r_matrix - e3.scale(q))
                * (ORTH3.r_matrix + e3.scale(parse_scalar("q^-1")))
                * (ORTH3.r_matrix - e3.scale(parse_scalar("q^-2")))).is_zero()
    qpr = ORTH3.q_projector
    proj_ok = qpr * qpr == qpr
    report(2, gl2_ok and orth3_ok and proj_ok,
           "quadratic and cubic minimal polynomials vanish, projector "
           "idempotent")


def test_criterion_3_consistency():
    gl2_ok = all(GL2.wz_report.values())
    orth3_ok = all(ORTH3.wz_report.values())
    table = from_exprs(fixtures.D_ORTH3_TABLE, 3)
    typos = []
    for rr in range(9):
        for cc in range(9):
            if ORTH3.d[rr, cc] != table[rr, cc]:
                typos.append((rr, cc))
    # independent recomputation: the printed table must invert qR directly
    qr = ORTH3.r_matrix.scale(parse_scalar("q"))
    second_route = (qr * table == identity(3)) and (table * qr == identity(3))
    report(3, gl2_ok and orth3_ok and not typos and second_route,
           f"five consistency conditions hold for both assignments; "
           f"derived D matches the printed table with typo list {typos} "
           f"(table independently inverts qR: {second_route})")


def test_criterion_4_derived_relations():
    diffs = planes.verify_reference_relations(GL2) + \
        planes.verify_reference_relations(ORTH3)
    commute_ok = True
    for name in ("gl2", "orth3"):
        at1 = planes.specialize_builtin(name, 1)
        gens = at1.coordinate_generators()
        for a in gens:
            for b in gens:
                x = AlgebraElement.from_word((a,))
                y = AlgebraElement.from_word((b,))
                if not at1.nf(x.concat(y) - y.concat(x)).is_zero():
                    commute_ok = False
    report(4, not diffs and commute_ok,
           f"fixture diff list {[d.name for d in diffs]} empty; all "
           f"coordinate commutators vanish at q=1: {commute_ok}")


def test_criterion_5_gamma():
    gl2_ok = [(n, ok) for n, _, ok in GL2.gamma_candidates] == \
        [("r_over_q", True)]
    orth3_ok = all(not ok for _, _, ok in ORTH3.gamma_candidates)
    sphere_table = [(n, ok) for n, _, ok in SPHERE.gamma_candidates]
    some_pass = any(ok for _, ok in sphere_table)
    involution = SPHERE.gamma is not None and \
        SPHERE.gamma * SPHERE.gamma == identity(3)
    report(5, gl2_ok and orth3_ok and some_pass and involution,
           f"gl2 r/q passes; generic orth3 candidates all fail; at q=-1 "
           f"{sphere_table} with the passing candidate an involution")


def test_criterion_6_two_dim_symplectic():
    omega = symp.symplectic_form(GL2)
    tensor_ok = omega.tensor.entries == {
        ((), (1, 2)): parse_scalar("q^-2"),
        ((), (2, 1)): parse_scalar("-q^-1"),
    }
    rx = symp.hamiltonian_vector_field(GL2.parse("x"), omega, GL2, 1)
    ry = symp.hamiltonian_vector_field(GL2.parse("y"), omega, GL2, 1)
    want_x = VectorField.basis(2, AlgebraElement.unit(parse_scalar("q")))
    want_y = VectorField.basis(1, AlgebraElement.unit(parse_scalar("-q^2")))
    fields_ok = (rx.status == "unique" and rx.particular == want_x
                 and ry.status == "unique" and ry.particular == want_y)
    xy = symp.poisson_bracket(GL2.parse("x"), GL2.parse("y"), omega, GL2)
    yx = symp.poisson_bracket(GL2.parse("y"), GL2.parse("x"), omega, GL2)
    bracket_ok = xy == AlgebraElement.unit(parse_scalar("-q")) and \
        xy.scale(parse_scalar("q")) == -yx
    residual_ok = True
    for f, rep in (("x", rx), ("y", ry)):
        lhs = one_form_body(qcalc.contract(rep.particular, omega.tensor,
                                           GL2.system))
        res = GL2.nf(lhs).scale(omega.scale) + \
            qcalc.d_function(GL2.parse(f), GL2.system).body
        if not GL2.nf(res).is_zero():
            residual_ok = False
    report(6, tensor_ok and fields_ok and bracket_ok and residual_ok,
           "tensor expansion, Hamiltonian fields, bracket table and exact "
           "residuals all reproduce the two-dimensional results")


def test_criterion_7_sphere_suite():
    central = ORTH3.parse(fixtures.SPHERE_CENTRAL)
    central_ok = ncalg.is_central(central, ORTH3.system)

    eta = qcalc.d_function(central, ORTH3.system)
    combo = ORTH3.nf(ORTH3.parse(fixtures.SPHERE_DIFF_CONSTRAINT))
    constant = parse_scalar("q + 1")
    proportional_ok = (eta.body - combo.scale(constant)).is_zero()

    omega = symp.symplectic_form(SPHERE)
    closed_ok = symp.is_closed(omega, SPHERE)

    solution_ok = True
    for name, table in fixtures.SPHERE_HAMILTONIAN_FIELDS.items():
        rep = symp.hamiltonian_vector_field(SPHERE.parse(name), omega,
                                            SPHERE, 1)
        want = VectorField()
        for coeff, direction in table:
            j = SPHERE.generator_names.index(direction) + 1
            want = want + VectorField.basis(j, SPHERE.parse(coeff))
        # the printed field must lie in the affine solution set
        diff = rep.particular + want.scale(parse_scalar("-1"))
        in_set = _in_kernel_span(diff, rep.kernel_basis, SPHERE)
        if rep.status == "none" or not in_set:
            solution_ok = False

    brackets_ok = True
    for (f, g), expect in fixtures.SPHERE_BRACKETS.items():
        value = symp.poisson_bracket(SPHERE.parse(f), SPHERE.parse(g),
                                     omega, SPHERE)
        if not (value - SPHERE.nf(SPHERE.parse(expect))).is_zero():
            brackets_ok = False
    sym1 = symp.poisson_bracket(SPHERE.parse("x0"), SPHERE.parse("x+"),
                                omega, SPHERE)
    sym2 = symp.poisson_bracket(SPHERE.parse("x+"), SPHERE.parse("x0"),
                                omega, SPHERE)
    non_antisym_ok = sym1 == sym2 == SPHERE.nf(SPHERE.parse("x+"))

    eom = symp.equations_of_motion(SPHERE.parse("x0"), omega, SPHERE)
    eom_ok = (eom["x+"] == SPHERE.nf(SPHERE.parse("x+"))
              and eom["x-"] == SPHERE.nf(SPHERE.parse("x-"))
              and eom["x0"].is_zero())

    ok = (central_ok and proportional_ok and closed_ok and solution_ok
          and brackets_ok and non_antisym_ok and eom_ok)
    report(7, ok,
           f"radius central; d(r^2) = (q+1) * printed one-form combination "
           f"(constant recorded: {constant}); d(omega)=0; printed fields in "
           f"solution sets; all six brackets incl. non-antisymmetry; "
           f"equations of motion for the height function")


def _in_kernel_span(field, kernel, plane):
    """Exact membership of a vector field in the span of kernel fields."""
    if field.is_zero():
        return True
    unknowns = []
    rows = set()
    tables = []
    for z in kernel:
        table = {(j, w): c for j, e in z.components.items()
                 for w, c in e.terms.items()}
        tables.append(table)
        rows.update(table)
    target = {(j, w): c for j, e in field.components.items()
              for w, c in e.terms.items()}
    rows.update(target)
    rows = sorted(rows, key=lambda t: (t[0], plane.system.word_key(t[1])))
    matrix = [{c: t[r] for c, t in enumerate(tables + [target]) if r in t}
              for r in rows]
    from qplane.linalg import rref_rows
    reduced, pivots = rref_rows(matrix, len(tables) + 1)
    return len(tables) not in pivots


def test_criterion_8_calculus_properties():
    rng = random.Random(20240811)
    d2_ok = leibniz_ok = True
    for plane in (GL2, ORTH3):
        sys = plane.system
        coords = plane.coordinate_generators()
        for _ in range(100):
            f = _rand_poly(plane, rng, coords)
            g = _rand_poly(plane, rng, coords)
            if not qcalc.d_form(qcalc.d_function(f, sys), sys).is_zero():
                d2_ok = False
            lhs = qcalc.d_function(ncalg.multiply(f, g, sys), sys).body
            rhs = sys.normal_form(
                qcalc.d_function(f, sys).body.concat(g)) + \
                sys.normal_form(f.concat(qcalc.d_function(g, sys).body))
            if not sys.normal_form(lhs - rhs).is_zero():
                leibniz_ok = False
    assoc_ok = True
    count = 0
    for plane in (GL2, ORTH3):
        sys = plane.system
        diffs = [gen(DIFF, i) for i in range(1, plane.dimension + 1)]
        for _ in range(25):
            count += 1
            one_forms = []
            for _ in range(3):
                body = AlgebraElement.zero()
                for _ in range(2):
                    prefix = (rng.choice(plane.coordinate_generators()),) \
                        if rng.random() < 0.5 else ()
                    body = body + AlgebraElement.from_word(
                        prefix + (rng.choice(diffs),),
                        parse_scalar(str(rng.randint(-2, 2))))
                one_forms.append(WedgeForm(1, sys.normal_form(body)))
            a, b, c = one_forms
            if qcalc.wedge(qcalc.wedge(a, b, sys), c, sys) != \
                    qcalc.wedge(a, qcalc.wedge(b, c, sys), sys):
                assoc_ok = False
    report(8, d2_ok and leibniz_ok and assoc_ok,
           f"d^2=0 and Leibniz on 100 random polynomials per plane; wedge "
           f"associativity on {count} random one-form triples")


def _rand_poly(plane, rng, coords):
    e = AlgebraElement.zero()
    for _ in range(3):
        w = tuple(rng.choice(coords) for _ in range(rng.randint(0, 4)))
        e = e + AlgebraElement.from_word(w,
                                         parse_scalar(str(rng.randint(-3, 3))))
    return plane.nf(e)


def test_criterion_9_confluence():
    ok = True
    details = []
    for plane in (GL2, ORTH3, SPHERE):
        rep = confluence_selftest(plane.system, sample_count=200,
                                  max_degree=5, seed=20240811)
        details.append(f"{plane.name}: {len(rep.mismatches)} mismatches in "
                       f"{rep.samples}+{rep.overlaps} words")
        if not rep.ok:
            ok = False
    report(9, ok, "; ".join(details))


def test_criterion_10_determinism_and_performance(capsys):
    planes._BUILTIN_CACHE.clear()
    start = time.monotonic()
    outputs = []
    for name in ("gl2", "orth3", "sphere_qm1"):
        code = cli_main(["verify", "--plane", name, "--suite", "all",
                         "--format", "json"])
        captured = capsys.readouterr()
        assert code == 0, captured.out
        outputs.append(captured.out)
    elapsed = time.monotonic() - start
    reruns = []
    for name in ("gl2", "orth3", "sphere_qm1"):
        cli_main(["verify", "--plane", name, "--suite", "all",
                  "--format", "json"])
        reruns.append(capsys.readouterr().out)
    identical = outputs == reruns
    for text in outputs:
        json.loads(text)
    with capsys.disabled():
        report(10, identical and elapsed < 120.0,
               f"three full suites in {elapsed:.1f}s < 120s with "
               f"byte-identical JSON reports across runs: {identical}")
