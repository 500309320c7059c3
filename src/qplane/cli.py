"""Command-line interface: verification suites and symbolic queries.

Every command is a thin composition of library calls; no computation lives
only here.  Exit codes: 0 all checks pass, 1 verification or solve
failure, 2 usage/parse/configuration error; 141 when stdout is closed
before the output is written and 130 on an interrupt, each quietly.
Findings (adjudicated discrepancies in the printed tables) exit 0 unless
--strict is given.  --degree, which verify, hamvec, bracket and eom take
and nf does not, takes an integer of at least 0, and --max-degree one of
at least 1; any other value is a usage error.  --max-degree (default 16)
bounds the call's own words: the expressions it parses and the unknowns
of degree --degree + 1 it solves for, not the words a check builds.

A plane exists only when its derivation checks hold (braid relation,
minimal polynomial, consistency conditions, centrality of a quotient
element), so the suites report those as passing without proving them
again; a failing check is ``FAIL load/derivation``.  The suites read the
views the plane keeps: the symplectic suites read ``plane.symplectic``,
built once per plane value.

JSON reports are byte-deterministic for fixed inputs: checks are sorted by
name, scalars print canonically, and wall-clock timing is reported only in
text mode.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
import warnings
from collections import namedtuple

from . import __version__, fixtures, ncalg, planes, qcalc, scalar, symp
from .linalg import WZ_CONDITIONS, identity
from .ncalg import AlgebraElement, NcalgError
from .planes import PlaneError
from .scalar import ScalarError
from .symp import SympError


# exit codes past the 0/1/2 contract, as a shell reports a process killed
# by the signal: 128 + SIGPIPE when stdout is closed before the output is
# written, 128 + SIGINT on an interrupt
EXIT_BROKEN_PIPE = 141
EXIT_INTERRUPTED = 130

# status is "pass", "fail" or "finding"
Check = namedtuple("Check", "name status detail", defaults=("",))


class UsageError(ValueError):
    """Options that do not fit together."""


def _plane_from_arg(args):
    """The plane of --plane."""
    try:
        if args.plane in ("gl2", "orth3", "sphere_qm1"):
            plane = planes.builtin_plane(args.plane)
        else:
            with open(args.plane, "r", encoding="utf-8") as fh:
                plane = planes.load_plane(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise PlaneError(f"cannot read plane configuration: {exc}")
    return plane


def _check_degree(args):
    """Refuse a --degree whose unknowns, a coefficient word and one D
    letter each, would pass the --max-degree cap."""
    if args.degree + 1 > args.max_degree:
        raise UsageError(f"--degree {args.degree} needs unknowns of degree "
                         f"{args.degree + 1}, past the cap "
                         f"{args.max_degree} of --max-degree")


def _solver_inputs(args, *texts):
    """The plane, its form and ``texts`` parsed under --max-degree, for
    a command that solves for fields; --degree is checked first."""
    _check_degree(args)
    plane = _plane_from_arg(args)
    omega = symp.symplectic_form(plane)
    return plane, omega, [plane.parse(t, args.max_degree) for t in texts]


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

def suite_ybe(plane):
    # a plane is built only when its braid matrix passes both checks, and
    # the minimal polynomial makes Q idempotent (planes._derive_generic)
    eigs = ", ".join(str(v) for v in plane.eigenvalues)
    checks = [Check("ybe/braid-relation", "pass",
                    "R12 R23 R12 == R23 R12 R23"),
              Check("ybe/minimal-polynomial", "pass", f"eigenvalues {eigs}")]
    if plane.family == "B":
        checks.append(Check("ybe/projector-idempotent", "pass", "Q*Q == Q"))
    return checks


def suite_wz(plane):
    # a plane is built only when its calculus passes every condition
    checks = [Check(f"wz/{name}", "pass") for name in WZ_CONDITIONS]
    checks.append(Check(
        "wz/sign-adjudication", "finding",
        "conditions 1 and 4 hold as (E-B)(E+C)=0 and (E-F)(E+C)=0, the "
        "form implied by applying d to the coordinate relations; with "
        "(E-C) they fail for both solution families"))
    if plane.reference_shape == "orth3":
        diffs = planes.d_table_diffs(plane)
        checks.extend(Check(f"wz/{d.name}", "finding", d.residual)
                      for d in diffs)
        if not diffs:
            checks.append(Check("wz/d-matrix-table", "pass",
                                "derived (qR)^-1 matches the printed table "
                                "entrywise"))
    return checks


def suite_gamma(plane):
    table = "; ".join(f"{name}: {'pass' if ok else 'fail'}"
                      for name, _, ok in plane.gamma_candidates)
    # a declared symplectic form needs a braiding
    needs_gamma = plane.symplectic_body_expr is not None
    status = "fail" if needs_gamma and plane.gamma is None else "pass"
    checks = [Check("gamma/resolution", status, table)]
    if plane.specialization is not None and plane.gamma is not None:
        ok = plane.gamma * plane.gamma == identity(plane.dimension)
        checks.append(Check("gamma/involution",
                            "pass" if ok else "finding",
                            "Gamma^2 == E at the specialized value"))
    return checks


def suite_relations(plane, seed=0):
    diffs = planes.verify_reference_relations(plane)
    checks = [Check(f"relations/{d.name}", "finding", f"residual {d.residual}")
              for d in diffs]
    if not diffs:
        checks.append(Check("relations/fixtures", "pass",
                            "no transcribed relation table applies to this "
                            "plane" if plane.reference_shape is None else
                            "all transcribed relation tables reproduced "
                            "with empty diff"))
    if plane.quotient_central_expr is not None:
        # a quotient is built only over a central element
        checks.append(Check("relations/central-element", "pass",
                            "declared central element commutes with all "
                            "coordinates at generic q"))
    # Only planes named like the paper's generic planes are taken to q = 1:
    # that derivation is 8-19 % of verifying a GL_q(2..4) document.
    if plane.specialization is None and plane.name in ("gl2", "orth3"):
        detail = "all coordinate commutators vanish at q=1"
        try:
            at1 = planes.specialize(plane, 1)
            name, ok = at1.system.gen_name, True
            for g in at1.coordinate_generators():
                x = AlgebraElement.from_word((g,))
                if not ncalg.is_central(x, at1.system):
                    h = ncalg.noncommuting_generator(x, at1.system)
                    ok, detail = False, (f"{name(g)} and {name(h)} do not "
                                         "commute at q=1")
                    break
        except PlaneError as exc:
            ok, detail = False, str(exc)
        checks.append(Check("relations/classical-limit",
                            "pass" if ok else "fail", detail))
    checks.append(_confluence_check(plane, seed))
    return checks


def _confluence_check(plane, seed):
    """Certified when every critical pair resolves: the rules keep the
    diamond lemma's premise, so no other word can disagree.  Only a
    failing check also reduces the seeded words, which it reports.
    """
    system = plane.system
    report = ncalg.confluence_selftest(system, sample_count=0)
    if report.ok:
        return Check("relations/confluence", "pass",
                     f"certified: {report.critical} "
                     f"critical pairs among {report.overlaps} overlap words "
                     "resolve")
    report = ncalg.confluence_selftest(system, sample_count=200,
                                       max_degree=5, seed=seed)
    word, left, right = report.mismatches[0]
    return Check("relations/confluence", "fail",
                 f"{report.samples} random words, {report.overlaps} overlap "
                 f"words, {len(report.mismatches)} mismatches; first "
                 f"{system.word_str(word)}: leftmost redex first gives "
                 f"{plane.show(left)}, last redex first gives "
                 f"{plane.show(right)}")


def _without_form(suite, plane):
    """The one check of a symplectic suite that has no form to work on,
    or [] when ``plane.symplectic`` is a form."""
    if plane.symplectic_body_expr is None:
        return [Check(f"{suite}/symplectic-declared", "pass",
                      "plane declares no symplectic form; nothing to check")]
    try:
        plane.symplectic
    except SympError as exc:
        return [Check(f"{suite}/symplectic-form", "fail", str(exc))]
    return []


def suite_closedness(plane, degree=1):
    checks = _without_form("closedness", plane)
    if checks:
        return checks
    omega = plane.symplectic
    ok = symp.is_closed(omega, plane)
    checks.append(Check("closedness/d-omega-zero", "pass" if ok else "fail"))
    nd, witness = symp.is_nondegenerate(omega, plane, degree)
    detail = f"certified up to coefficient degree {degree}" if nd else \
        f"kernel field {_field_str(witness, plane)} within coefficient " \
        f"degree {degree}"
    checks.append(Check("closedness/nondegenerate",
                        "pass" if nd else "fail", detail))
    return checks


def suite_hamiltonian(plane, degree=1):
    checks = _without_form("hamiltonian", plane)
    if checks:
        return checks
    omega = plane.symplectic
    fields = {}  # generator name -> its solved field
    for g in plane.coordinate_generators():
        name = plane.generator_names[g[1] - 1]
        f = plane.parse(name)
        try:
            report = symp.hamiltonian_vector_field(f, omega, plane, degree)
        except SympError as exc:
            checks.append(Check(f"hamiltonian/solve-{name}", "fail",
                                str(exc)))
            continue
        if report.status == "none":
            checks.append(Check(f"hamiltonian/solve-{name}", "fail",
                                "no field within coefficient degree "
                                f"{degree}"))
            continue
        fields[name] = report.particular
        detail = f"status {report.status}: " + _field_str(
            report.particular, plane)
        checks.append(Check(f"hamiltonian/solve-{name}", "pass", detail))
    expected = _hamiltonian_tables(plane, omega)
    if expected is not None:
        field_table, bracket_table = expected
        ok = all(name in fields and _field_matches(fields[name],
                                                   field_table[name], plane)
                 for name in field_table)
        checks.append(Check("hamiltonian/field-fixtures",
                            "pass" if ok else "fail",
                            "solver output contains the printed vector "
                            "fields"))
        # every f of a bracket table is a generator: [f, g] = -X_f(g) is
        # read off the field solved above
        ok = True
        shown = []
        for (fn, gn), expect in bracket_table.items():
            if fn not in fields:
                ok = False
                shown.append(f"[{fn},{gn}]: no field for {fn}")
                continue
            value = symp.bracket_from_field(fields[fn], plane.parse(gn),
                                            plane)
            shown.append(f"[{fn},{gn}]={plane.show(value)}")
            ok = ok and (value - plane.nf(plane.parse(expect))).is_zero()
        checks.append(Check("hamiltonian/bracket-fixtures",
                            "pass" if ok else "fail", "; ".join(shown)))
    return checks


def _hamiltonian_tables(plane, omega):
    """The printed field and bracket tables, when they hold for ``plane``
    and ``omega``; else None.

    They hold on the paper's two symplectic planes: gl2 at generic q with
    d(x)*d(y), and orth3 at q = -1 over its central radius with the
    sphere's form.  The plane's reference shape, q, quotient and braiding,
    and the form, are compared with those; no other plane is derived.
    """
    shape, sp = plane.reference_shape, plane.specialization
    if shape == "gl2" and sp is None and plane.quotient_central_expr is None:
        body, scale = fixtures.GL2_SYMPLECTIC_BODY, \
            fixtures.GL2_SYMPLECTIC_SCALE
        gamma = plane.r_matrix.scale(scalar.Q.inverse())
        tables = fixtures.GL2_HAMILTONIAN_FIELDS, fixtures.GL2_BRACKETS
    elif (shape == "orth3" and sp is not None
          and scalar.Q.specialize(sp) == scalar.MINUS_ONE
          and plane.quotient_central_expr is not None
          and plane.nf(plane.parse(fixtures.SPHERE_CENTRAL))
          == plane.nf(plane.parse("rho"))):
        body, scale = fixtures.SPHERE_SYMPLECTIC_BODY, \
            fixtures.SPHERE_SYMPLECTIC_SCALE
        gamma = plane.d
        tables = fixtures.SPHERE_HAMILTONIAN_FIELDS, fixtures.SPHERE_BRACKETS
    else:
        return None
    paper = (plane.nf(plane.parse(body)), plane.parse_coefficient(scale),
             gamma)
    return tables if (omega.wedge.body, omega.scale, plane.gamma) == paper \
        else None


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


# each suite as f(plane, args)
_SUITES = {
    "ybe": lambda plane, args: suite_ybe(plane),
    "wz": lambda plane, args: suite_wz(plane),
    "gamma": lambda plane, args: suite_gamma(plane),
    "relations": lambda plane, args: suite_relations(plane, seed=args.seed),
    "closedness": lambda plane, args: suite_closedness(plane, args.degree),
    "hamiltonian": lambda plane, args: suite_hamiltonian(plane, args.degree),
}


def cmd_verify(args):
    if args.suite in ("closedness", "hamiltonian", "all"):
        _check_degree(args)  # the suites that read --degree
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
        "checks": [c._asdict() for c in checks],
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
    value = plane.nf(plane.parse(args.expression, args.max_degree))
    print(plane.show(value))
    return 0


def cmd_bracket(args):
    plane, omega, (f, g) = _solver_inputs(args, args.f, args.g)
    try:
        with _surfaced_family_warnings():
            value = symp.poisson_bracket(f, g, omega, plane, args.degree)
    except symp.NoSolutionError as exc:
        print(exc)
        return 1
    print(plane.show(value))
    return 0


def cmd_hamvec(args):
    plane, omega, (f,) = _solver_inputs(args, args.f)
    report = symp.hamiltonian_vector_field(f, omega, plane, args.degree)
    if report.status == "none":
        print(f"no solution within coefficient degree {args.degree}")
        return 1
    print(f"status: {report.status}")
    print(f"X = {_field_str(report.particular, plane)}")
    for k, basis in enumerate(report.kernel_basis):
        print(f"kernel[{k}] = {_field_str(basis, plane)}")
    return 0


def cmd_eom(args):
    plane, omega, (h,) = _solver_inputs(args, args.h)
    try:
        with _surfaced_family_warnings():
            table = symp.equations_of_motion(h, omega, plane, args.degree)
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


def _int_from(low):
    """An argparse type: an integer of at least ``low``."""
    def parse(text):
        value = int(text)  # argparse reports a ValueError as "invalid int"
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, "
                                             f"not {value}")
        return value
    parse.__name__ = "int"
    return parse


@functools.cache
def build_parser():
    """The command-line parser, built once per process.

    ``parse_args`` keeps no state between calls: defaults go to a fresh
    namespace, and usage, help and version text look up ``sys.stdout``,
    ``sys.stderr`` and the terminal width when they print.  So ``main``
    may be called any number of times in one process.
    """
    parser = argparse.ArgumentParser(
        prog="qplane",
        description="exact symbolic calculus on quantum planes")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, degree=True):
        p.add_argument("--plane", required=True,
                       help="builtin name (gl2, orth3, sphere_qm1) or a "
                            "JSON configuration path")
        if degree:
            p.add_argument("--degree", type=_int_from(0), default=1,
                           help="vector-field coefficient degree bound, at "
                                "least 0")
        p.add_argument("--max-degree", type=_int_from(1), default=16,
                       help="largest word degree of the call's input and "
                            "unknowns, at least 1 (default 16)")

    p = sub.add_parser("verify", help="run a verification suite")
    common(p)
    p.add_argument("--suite", default="all",
                   choices=["ybe", "wz", "gamma", "relations", "closedness",
                            "hamiltonian", "all"])
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.add_argument("--strict", action="store_true",
                   help="findings also fail the run")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the random words that a failing confluence "
                        "check also reduces and reports")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("nf", help="normal form of an element")
    common(p, degree=False)
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
    try:
        args = build_parser().parse_args(argv)
        try:
            code = args.func(args)
        except (UsageError, PlaneError, ScalarError, NcalgError,
                qcalc.QcalcError, SympError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = 2
        # a closed stdout is met here, not when the interpreter exits
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader has gone: send what is left to devnull, so that the
        # flush at exit does not fail again (the Python docs' "Note on
        # SIGPIPE")
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
