"""Command-line interface: verification suites and symbolic queries.

Every command is a thin composition of library calls; no computation lives
only here.  Exit codes: 0 all checks pass, 1 verification or solve
failure, 2 usage/parse/configuration error.  Findings (adjudicated
discrepancies in the printed tables) exit 0 unless --strict is given.

JSON reports are byte-deterministic for fixed inputs: checks are sorted by
name, scalars print canonically, and wall-clock timing is reported only in
text mode.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import warnings

from . import __version__, fixtures, ncalg, planes, qcalc, scalar, symp
from .linalg import check_min_poly, check_ybe, clear_denominators, identity
from .ncalg import AlgebraElement, NcalgError
from .planes import PlaneError
from .scalar import ScalarError
from .symp import SympError


class Check:
    def __init__(self, name, status, detail=""):
        self.name = name
        self.status = status  # "pass" | "fail" | "finding"
        self.detail = detail

    def as_dict(self):
        return {"name": self.name, "status": self.status,
                "detail": self.detail}


def _plane_from_arg(args):
    """The plane of --plane, with the --max-degree cap of this call."""
    try:
        if args.plane in ("gl2", "orth3", "sphere_qm1"):
            plane = planes.builtin_plane(args.plane)
        else:
            with open(args.plane, "r", encoding="utf-8") as fh:
                plane = planes.load_plane(fh.read())
    except OSError as exc:
        raise PlaneError(f"cannot read plane configuration: {exc}")
    if args.max_degree:
        plane = planes.capped(plane, args.max_degree)
    return plane


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

def suite_ybe(plane):
    checks = []
    checks.append(Check(
        "ybe/braid-relation",
        "pass" if check_ybe(plane.r_matrix) else "fail",
        "R12 R23 R12 == R23 R12 R23"))
    ok = check_min_poly(plane.r_matrix, plane.eigenvalues)
    eigs = ", ".join(str(v) for v in plane.eigenvalues)
    checks.append(Check("ybe/minimal-polynomial",
                        "pass" if ok else "fail",
                        f"eigenvalues {eigs}"))
    if plane.q_projector is not None:
        # M = c*Q: Q*Q == Q exactly when M*M == c*M
        m, c = clear_denominators(plane.q_projector)
        ok = m * m == m.scale(c)
        checks.append(Check("ybe/projector-idempotent",
                            "pass" if ok else "fail", "Q*Q == Q"))
    return checks


def suite_wz(plane):
    checks = []
    for name, ok in plane.wz_report.items():
        checks.append(Check(f"wz/{name}", "pass" if ok else "fail"))
    checks.append(Check(
        "wz/sign-adjudication", "finding",
        "conditions 1 and 4 hold as (E-B)(E+C)=0 and (E-F)(E+C)=0, the "
        "form implied by applying d to the coordinate relations; with "
        "(E-C) they fail for both solution families"))
    if planes._reference_shape(plane) == "orth3":
        diffs = planes._d_table_diffs(plane)
        if diffs:
            for d in diffs:
                checks.append(Check(f"wz/{d.name}", "finding", d.residual))
        else:
            checks.append(Check("wz/d-matrix-table", "pass",
                                "derived (qR)^-1 matches the printed table "
                                "entrywise"))
    return checks


def suite_gamma(plane):
    checks = []
    table = "; ".join(f"{name}: {'pass' if ok else 'fail'}"
                      for name, _, ok in plane.gamma_candidates)
    needs_gamma = plane.symplectic_body_expr is not None
    if needs_gamma and plane.gamma is None:
        status = "fail"
    else:
        status = "pass"
    checks.append(Check("gamma/resolution", status, table))
    if plane.specialization is not None and plane.gamma is not None:
        ok = plane.gamma * plane.gamma == identity(plane.dimension)
        checks.append(Check("gamma/involution",
                            "pass" if ok else "finding",
                            "Gamma^2 == E at the specialized value"))
    return checks


def suite_relations(plane, seed=0):
    checks = []
    diffs = planes.verify_reference_relations(plane)
    rel_diffs = [d for d in diffs if not d.name.startswith("d-matrix")]
    if rel_diffs:
        for d in rel_diffs:
            checks.append(Check(f"relations/{d.name}", "finding",
                                f"residual {d.residual}"))
    elif planes._reference_shape(plane) is None:
        checks.append(Check("relations/fixtures", "pass",
                            "no transcribed relation table applies to "
                            "this plane"))
    else:
        checks.append(Check("relations/fixtures", "pass",
                            "all transcribed relation tables reproduced "
                            "with empty diff"))
    if plane.quotient_central is not None:
        generic = plane.generic
        central = generic.parse(plane.quotient_central_expr)
        ok = ncalg.is_central(central, generic.system)
        checks.append(Check("relations/central-element",
                            "pass" if ok else "fail",
                            "declared central element commutes with all "
                            "coordinates at generic q"))
    if plane.specialization is None:
        try:
            at1 = planes.specialize_builtin(plane.name, 1) \
                if plane.name in ("gl2", "orth3") else None
        except PlaneError:
            at1 = None
        if at1 is not None:
            ok = _all_coordinates_commute(at1)
            checks.append(Check("relations/classical-limit",
                                "pass" if ok else "fail",
                                "all coordinate commutators vanish at q=1"))
    report = ncalg.confluence_selftest(plane.system, sample_count=200,
                                       max_degree=5, seed=seed)
    detail = (f"{report.samples} random words, {report.overlaps} overlap "
              f"words, {len(report.mismatches)} mismatches")
    checks.append(Check("relations/confluence",
                        "pass" if report.ok else "fail", detail))
    return checks


def _all_coordinates_commute(plane):
    gens = plane.coordinate_generators()
    for a in gens:
        for b in gens:
            x = AlgebraElement.from_word((a,))
            y = AlgebraElement.from_word((b,))
            if not plane.nf(x.concat(y) - y.concat(x)).is_zero():
                return False
    return True


def suite_closedness(plane, degree=1):
    checks = []
    if plane.symplectic_body_expr is None:
        return [Check("closedness/symplectic-declared", "pass",
                      "plane declares no symplectic form; nothing to check")]
    omega = symp.symplectic_form(plane)
    ok = symp.is_closed(omega, plane)
    checks.append(Check("closedness/d-omega-zero", "pass" if ok else "fail"))
    nd, _ = symp.is_nondegenerate(omega, plane, degree)
    checks.append(Check("closedness/nondegenerate",
                        "pass" if nd else "fail",
                        f"certified up to coefficient degree {degree}"))
    return checks


def suite_hamiltonian(plane, degree=1):
    checks = []
    if plane.symplectic_body_expr is None:
        return [Check("hamiltonian/symplectic-declared", "pass",
                      "plane declares no symplectic form; nothing to check")]
    omega = symp.symplectic_form(plane)
    fields = {}
    for g in plane.coordinate_generators():
        name = plane.generator_names[g[1] - 1]
        f = plane.parse(name)
        try:
            report = symp.hamiltonian_vector_field(f, omega, plane, degree)
        except SympError as exc:
            checks.append(Check(f"hamiltonian/solve-{name}", "fail",
                                str(exc)))
            continue
        fields[name] = report
        detail = f"status {report.status}: " + _field_str(
            report.particular, plane)
        checks.append(Check(f"hamiltonian/solve-{name}",
                            "pass" if report.status != "none" else "fail",
                            detail))
    expected = None
    if plane.name == "gl2":
        expected = fixtures.GL2_HAMILTONIAN_FIELDS, fixtures.GL2_BRACKETS
    elif plane.name == "sphere_qm1":
        expected = fixtures.SPHERE_HAMILTONIAN_FIELDS, fixtures.SPHERE_BRACKETS
    if expected is not None:
        field_table, bracket_table = expected
        ok = all(
            name in fields and _field_matches(fields[name].particular,
                                              field_table[name], plane)
            for name in field_table)
        checks.append(Check("hamiltonian/field-fixtures",
                            "pass" if ok else "fail",
                            "solver output contains the printed vector "
                            "fields"))
        ok = True
        shown = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", symp.NonUniqueFieldWarning)
            for (fn, gn), expect in bracket_table.items():
                value = symp.poisson_bracket(plane.parse(fn), plane.parse(gn),
                                             omega, plane, degree)
                want = plane.nf(plane.parse(expect))
                shown.append(f"[{fn},{gn}]={plane.show(value)}")
                if not (value - want).is_zero():
                    ok = False
        checks.append(Check("hamiltonian/bracket-fixtures",
                            "pass" if ok else "fail", "; ".join(shown)))
    return checks


def _field_str(field, plane):
    if field is None or not field.components:
        return "0"
    parts = []
    for j in sorted(field.components):
        name = plane.generator_names[j - 1]
        parts.append(f"({plane.show(field.components[j])}) * D({name})")
    return " + ".join(parts)


def _field_matches(field, table, plane):
    want = qcalc.VectorField()
    for coeff, direction in table:
        j = plane.generator_names.index(direction) + 1
        want = want + qcalc.VectorField.basis(j, plane.parse(coeff))
    diff = field + want.scale(scalar.MINUS_ONE)
    return all(plane.nf(e).is_zero() for e in diff.components.values())


_SUITES = {
    "ybe": lambda plane, args: suite_ybe(plane),
    "wz": lambda plane, args: suite_wz(plane),
    "gamma": lambda plane, args: suite_gamma(plane),
    "relations": lambda plane, args: suite_relations(plane, seed=args.seed),
    "closedness": lambda plane, args: suite_closedness(plane,
                                                       degree=args.degree),
    "hamiltonian": lambda plane, args: suite_hamiltonian(plane,
                                                         degree=args.degree),
}


def cmd_verify(args):
    try:
        plane = _plane_from_arg(args)
    except planes.PlaneVerificationError as exc:
        # structural checks failed while deriving: a verification failure,
        # not a configuration error
        print(f"FAIL load/derivation: {exc}")
        return 1
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    start = time.monotonic()
    checks = []
    for name in names:
        checks.extend(_SUITES[name](plane, args))
    elapsed = time.monotonic() - start
    checks.sort(key=lambda c: c.name)
    report = {
        "version": __version__,
        "plane": plane.name,
        "suite": args.suite,
        "checks": [c.as_dict() for c in checks],
        "timing_s": None,
    }
    failed = [c for c in checks if c.status == "fail"]
    findings = [c for c in checks if c.status == "finding"]
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for c in checks:
            tag = {"pass": "PASS", "fail": "FAIL", "finding": "NOTE"}[c.status]
            line = f"{tag} {c.name}"
            if c.detail:
                line += f": {c.detail}"
            print(line)
        print(f"{len(checks)} checks, {len(failed)} failed, "
              f"{len(findings)} findings ({elapsed:.2f}s)")
    if failed or (args.strict and findings):
        return 1
    return 0


def cmd_nf(args):
    plane = _plane_from_arg(args)
    value = plane.nf(plane.parse(args.expression))
    print(plane.show(value))
    return 0


def cmd_bracket(args):
    plane = _plane_from_arg(args)
    omega = symp.symplectic_form(plane)
    try:
        with _surfaced_family_warnings():
            value = symp.poisson_bracket(plane.parse(args.f),
                                         plane.parse(args.g),
                                         omega, plane, args.degree)
    except symp.NoSolutionError as exc:
        print(exc)
        return 1
    print(plane.show(value))
    return 0


def cmd_hamvec(args):
    plane = _plane_from_arg(args)
    omega = symp.symplectic_form(plane)
    report = symp.hamiltonian_vector_field(plane.parse(args.f), omega,
                                           plane, args.degree)
    if report.status == "none":
        print(f"no solution within coefficient degree {args.degree}")
        return 1
    print(f"status: {report.status}")
    print(f"X = {_field_str(report.particular, plane)}")
    for k, basis in enumerate(report.kernel_basis):
        print(f"kernel[{k}] = {_field_str(basis, plane)}")
    return 0


def cmd_eom(args):
    plane = _plane_from_arg(args)
    omega = symp.symplectic_form(plane)
    try:
        with _surfaced_family_warnings():
            table = symp.equations_of_motion(plane.parse(args.h), omega,
                                             plane, args.degree)
    except symp.NoSolutionError as exc:
        print(exc)
        return 1
    for name in plane.generator_names:
        print(f"d/dt {name} = {plane.show(table[name])}")
    return 0


class _surfaced_family_warnings:
    """Collapse repeated non-uniqueness warnings into one stderr note."""

    def __enter__(self):
        self._ctx = warnings.catch_warnings(record=True)
        self._records = self._ctx.__enter__()
        warnings.simplefilter("always", symp.NonUniqueFieldWarning)
        return self

    def __exit__(self, *exc):
        self._ctx.__exit__(*exc)
        if any(issubclass(r.category, symp.NonUniqueFieldWarning)
               for r in self._records):
            print("note: Hamiltonian fields were non-unique; canonical "
                  "particular solutions used", file=sys.stderr)
        return False


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qplane",
        description="exact symbolic calculus on quantum planes")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--plane", required=True,
                       help="builtin name (gl2, orth3, sphere_qm1) or a "
                            "JSON configuration path")
        p.add_argument("--degree", type=int, default=1,
                       help="vector-field coefficient degree bound")
        p.add_argument("--max-degree", type=int, default=None,
                       help="rewrite degree cap for this call (default 16)")

    p = sub.add_parser("verify", help="run a verification suite")
    common(p)
    p.add_argument("--suite", default="all",
                   choices=["ybe", "wz", "gamma", "relations", "closedness",
                            "hamiltonian", "all"])
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.add_argument("--strict", action="store_true",
                   help="findings also fail the run")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for confluence sampling")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("nf", help="normal form of an element")
    common(p)
    p.add_argument("expression")
    p.set_defaults(func=cmd_nf)

    p = sub.add_parser("bracket", help="Poisson bracket [f, g]")
    common(p)
    p.add_argument("f")
    p.add_argument("g")
    p.set_defaults(func=cmd_bracket)

    p = sub.add_parser("hamvec", help="Hamiltonian vector field of f")
    common(p)
    p.add_argument("f")
    p.set_defaults(func=cmd_hamvec)

    p = sub.add_parser("eom", help="equations of motion for a Hamiltonian")
    common(p)
    p.add_argument("h")
    p.set_defaults(func=cmd_eom)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PlaneError, ScalarError, NcalgError, qcalc.QcalcError,
            SympError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
