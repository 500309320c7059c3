"""The three workloads: input draw, one operation, and its known answer.

Each workload is driven by one closed-loop client (run.py): it draws the
next operation from the seeded stream, runs it, and only then draws the
next.  `run` returns the raw answer or raises (the operation failed);
`check` compares a completed answer with the known answer after the timed
loop and returns None or the reason it is wrong.  `defect_probes` runs,
once per run and outside the timed stream, the fixed inputs that show the
known defects the stream's draw steers clear of (see NOTES.md).

Every operation belongs to one of three input classes, small / medium /
large, whose mean latencies are the `op_s.*` class metrics:

- verify-builtins: gl2 / sphere_qm1 / orth3
- glq-ingest:      GL_q(2) / GL_q(3) / GL_q(4)
- sphere-dynamics: degree bound 1 / 2 / 3
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import warnings

import glq

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
CHILD = os.path.join(HERE, "child.py")

CLASSES = ("small", "medium", "large")


class OpFailed(Exception):
    """The operation raised, or exited with a code other than 0 or 1."""


def defect(label, probe_input, detail, present=True):
    """One known-defect probe result, as run.py prints and records it."""
    return {"defect": label, "input": probe_input, "present": present,
            "detail": detail}


# Check names of `verify --suite all`, written out from the suite
# definitions: the set must not change silently.
WZ_CHECKS = ["wz/sign-adjudication", "wz/wz1_xx_xi_compat",
             "wz/wz2_xx_transport", "wz/wz3_dc_braid_and_inverse",
             "wz/wz4_ff_xi_compat", "wz/wz5_dd_transport"]
BUILTIN_CHECKS = {
    "gl2": WZ_CHECKS + [
        "closedness/d-omega-zero", "closedness/nondegenerate",
        "gamma/resolution", "hamiltonian/bracket-fixtures",
        "hamiltonian/field-fixtures", "hamiltonian/solve-x",
        "hamiltonian/solve-y", "relations/classical-limit",
        "relations/confluence", "relations/fixtures",
        "ybe/braid-relation", "ybe/minimal-polynomial"],
    "orth3": WZ_CHECKS + [
        "closedness/symplectic-declared", "gamma/resolution",
        "hamiltonian/symplectic-declared", "relations/classical-limit",
        "relations/confluence", "relations/fixtures", "wz/d-matrix-table",
        "ybe/braid-relation", "ybe/minimal-polynomial",
        "ybe/projector-idempotent"],
    "sphere_qm1": WZ_CHECKS + [
        "closedness/d-omega-zero", "closedness/nondegenerate",
        "gamma/involution", "gamma/resolution",
        "hamiltonian/bracket-fixtures", "hamiltonian/field-fixtures",
        "hamiltonian/solve-x+", "hamiltonian/solve-x-",
        "hamiltonian/solve-x0", "relations/central-element",
        "relations/confluence", "relations/fixtures", "wz/d-matrix-table",
        "ybe/braid-relation", "ybe/minimal-polynomial",
        "ybe/projector-idempotent"],
}


def report_verdict(stdout, expected_names=None):
    """Reason a `verify --format json` report is wrong, or None."""
    checks = json.loads(stdout)["checks"]
    failed = [c["name"] for c in checks if c["status"] == "fail"]
    if failed:
        return f"checks failed: {failed}"
    names = sorted(c["name"] for c in checks)
    if expected_names is not None and names != sorted(expected_names):
        return f"check names differ: {names}"
    return None


def parsed_report(code, stdout, stderr):
    """Return (code, stdout) of a verify run that produced a report."""
    if code in (0, 1):
        try:
            json.loads(stdout)
            return code, stdout
        except ValueError:
            pass
    raise OpFailed(f"exit {code}: {stderr.strip()[-300:]}")


class VerifyBuiltins:
    """A fresh `qplane verify --suite all --format json` process per op."""

    name = "verify-builtins"
    planes = ("gl2", "orth3", "sphere_qm1")
    class_of = {"gl2": "small", "sphere_qm1": "medium", "orth3": "large"}
    traced_prefix = 3
    setup_probe = "import"

    def __init__(self, trace):
        self.trace = trace
        self.first_stdout = {}
        self.child_traces = []

    def setup(self):
        pass

    def draw(self, rng, index):
        plane = self.planes[index % 3]
        # few seeds, so equal (plane, seed) pairs recur within a run and
        # the byte-identity of the report is checked
        seed = rng.randrange(4)
        return {"class": self.class_of[plane],
                "input": f"verify --plane {plane} --seed {seed}",
                "plane": plane, "seed": seed}

    def run(self, spec, op_id):
        argv = [sys.executable, CHILD, "verify"]
        if self.trace:
            path = os.path.join(OUT, f"child-trace-{os.getpid()}-{op_id}.json")
            argv += ["--trace-out", path, "--op", str(op_id)]
            self.child_traces.append((op_id, path))
        argv += ["--plane", spec["plane"], "--suite", "all", "--format",
                 "json", "--seed", str(spec["seed"])]
        try:
            proc = subprocess.run(argv, capture_output=True, text=True,
                                  timeout=150)
        except subprocess.TimeoutExpired as exc:
            raise OpFailed(f"timed out after {exc.timeout} s")
        return parsed_report(proc.returncode, proc.stdout, proc.stderr)

    def defect_probes(self):
        return []

    def check(self, spec, answer):
        code, stdout = answer
        key = (spec["plane"], spec["seed"])
        first = self.first_stdout.setdefault(key, stdout)
        if stdout != first:
            return "stdout differs from an earlier run with the same seed"
        if code != 0:
            return f"exit {code}"
        return report_verdict(stdout, BUILTIN_CHECKS[spec["plane"]])


class GlqIngest:
    """Write a GL_q(n) plane document and verify it in-process."""

    name = "glq-ingest"
    traced_prefix = 6
    setup_probe = "import"

    def __init__(self, trace):
        self.path = os.path.join(OUT, "glq-document.json")

    def setup(self):
        from qplane import cli
        self.cli = cli

    def draw(self, rng, index):
        n = 2 + index % 3
        text, desc = glq.draw_document(rng, n)
        return {"class": CLASSES[n - 2], "input": desc, "document": text}

    def run(self, spec, op_id):
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.write(spec["document"])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(["verify", "--plane", self.path, "--suite",
                                  "all", "--format", "json"])
        return parsed_report(code, out.getvalue(), err.getvalue())

    def defect_probes(self):
        """Defect (b): standard-basis GL_q(2) named other than x, y."""
        text, desc = glq.document(2, ("a", "b"))
        try:
            self.run({"document": text}, "probe")
        except OpFailed as exc:
            return [defect("b", desc, str(exc))]
        return [defect("b", desc, "verify exits 0 or 1", present=False)]

    def check(self, spec, answer):
        code, stdout = answer
        if code != 0:
            return f"exit {code}"
        # the check names are not fixed: a document whose generators are
        # named x, y is diffed against the gl2 tables (see NOTES.md)
        return report_verdict(stdout)


SPHERE_GENERATORS = ("x+", "x0", "x-")
# fixture brackets are placed at every FIXTURE_EVERY-th position
FIXTURE_EVERY = 20


def gaussian_coefficient(rng):
    re = im = 0
    while re == 0 and im == 0:
        re, im = rng.randint(-3, 3), rng.randint(-3, 3)
    sign = "-" if im < 0 else "+"
    return f"({re} {sign} {abs(im)}*i)"


def hamiltonian(rng):
    """A sum of 1-3 monomials of one degree, 1-3, with Gaussian coefficients.

    The monomials share their degree: a sum that mixes degree 1 with
    degree 3 raises ScalarError in the normal form (defect (a) in
    NOTES.md, probed by run.py on every sphere-dynamics run).
    """
    degree = rng.randint(1, 3)
    terms = []
    for _ in range(rng.randint(1, 3)):
        word = "*".join(rng.choice(SPHERE_GENERATORS) for _ in range(degree))
        terms.append(f"{gaussian_coefficient(rng)}*{word}")
    return " + ".join(terms)


class SphereDynamics:
    """A session of Hamiltonian queries on the q = -1 sphere."""

    name = "sphere-dynamics"
    traced_prefix = 60
    setup_probe = "sphere"

    def __init__(self, trace):
        self.kernel_verdicts = {}
        self.last_hamvec = {}
        self.checked_fields = {}  # (f, degree) -> verified SolveReport

    def setup(self):
        from qplane import fixtures, planes, qcalc, scalar, symp
        from qplane.ncalg import AlgebraElement
        self.fixtures, self.qcalc, self.scalar = fixtures, qcalc, scalar
        self.symp, self.zero = symp, AlgebraElement.zero()
        self.plane = planes.builtin_plane("sphere_qm1")
        self.omega = symp.symplectic_form(self.plane)
        # a session sees the non-uniqueness note once, not per query
        warnings.simplefilter("ignore", symp.NonUniqueFieldWarning)
        self.fixture_pairs = list(fixtures.SPHERE_BRACKETS)

    def draw(self, rng, index):
        degree = 1 + index % 3
        spec = {"class": CLASSES[degree - 1], "degree": degree}
        if index % FIXTURE_EVERY == 0:
            f, g = self.fixture_pairs[(index // FIXTURE_EVERY)
                                      % len(self.fixture_pairs)]
            spec.update(kind="fixture", f=f, g=g)
        else:
            kind = rng.choice(("hamvec", "bracket", "eom"))
            # as in a session, brackets take the Hamiltonian whose field was
            # last asked for at this degree bound
            f = self.last_hamvec.get(degree) if kind == "bracket" else None
            spec.update(kind=kind, f=f or hamiltonian(rng))
            if kind == "hamvec":
                self.last_hamvec[degree] = spec["f"]
            if kind == "bracket":
                spec["g"] = hamiltonian(rng)
        args = [spec["f"]] + ([spec["g"]] if "g" in spec else [])
        spec["input"] = (f"{spec['kind']} --degree {degree} "
                         + " ".join(repr(a) for a in args))
        return spec

    def run(self, spec, op_id):
        plane, omega, symp = self.plane, self.omega, self.symp
        f, degree = plane.parse(spec["f"]), spec["degree"]
        kind = spec["kind"]
        if kind == "hamvec":
            return symp.hamiltonian_vector_field(f, omega, plane, degree)
        if kind == "eom":
            return symp.equations_of_motion(f, omega, plane, degree)
        try:
            return symp.poisson_bracket(f, plane.parse(spec["g"]), omega,
                                        plane, degree)
        except symp.NoSolutionError:
            return None  # a valid verdict: no field within the bound

    def defect_probes(self):
        """Defect (a): a sum mixing degree 1 and degree 3 on the sphere."""
        text = "x0*x0*x+ + x+"
        try:
            self.plane.nf(self.plane.parse(text))
        except Exception as exc:  # the defect raises ScalarError
            return [defect("a", f"nf {text!r}",
                           f"{type(exc).__name__}: {exc}")]
        return [defect("a", f"nf {text!r}", "normal form computed",
                       present=False)]

    # known answers --------------------------------------------------------

    def check(self, spec, answer):
        plane, kind = self.plane, spec["kind"]
        if kind == "fixture":
            want = plane.nf(plane.parse(
                self.fixtures.SPHERE_BRACKETS[(spec["f"], spec["g"])]))
            if answer is None or not (answer - want).is_zero():
                return "fixture bracket differs from the paper's table"
            return None
        f = plane.parse(spec["f"])
        key = (spec["f"], spec["degree"])
        if kind == "hamvec":
            reason = self._field_verdict(f, answer, spec["degree"])
            if reason is None:
                self.checked_fields[key] = answer
            return reason
        if kind == "eom":
            h = plane.nf(f)
            for name in plane.generator_names:
                want = plane.nf(self.qcalc.apply_field(
                    self._fixture_field(name), h, plane.system).scale(
                        self.scalar.MINUS_ONE))
                if not (answer[name] - want).is_zero():
                    return f"d/dt {name} differs from -X_{name}(H)"
            return None
        report = self.checked_fields.get(key)
        if report is None:
            report = self.symp.hamiltonian_vector_field(
                f, self.omega, plane, spec["degree"])
            reason = self._field_verdict(f, report, spec["degree"])
            if reason:
                return reason
        if answer is None:
            return None if report.status == "none" else \
                "NoSolutionError although X_f exists"
        g = plane.nf(plane.parse(spec["g"]))
        want = plane.nf(self.qcalc.apply_field(
            report.particular, g, plane.system).scale(self.scalar.MINUS_ONE))
        if not (answer - want).is_zero():
            return "bracket differs from -X_f(g)"
        return None

    def _fixture_field(self, name):
        field = self.qcalc.VectorField()
        for coeff, direction in self.fixtures.SPHERE_HAMILTONIAN_FIELDS[name]:
            j = self.plane.generator_names.index(direction) + 1
            field = field + self.qcalc.VectorField.basis(
                j, self.plane.parse(coeff))
        return field

    def _field_verdict(self, f, report, degree):
        if report.status == "none":
            return None
        if not self._solves(f, report.particular):
            return "particular field does not solve X~|omega = -df"
        for z in report.kernel_basis:
            key = (degree, self._field_key(z))
            if key not in self.kernel_verdicts:
                self.kernel_verdicts[key] = self._solves(self.zero, z)
            if not self.kernel_verdicts[key]:
                return "kernel field does not contract omega to zero"
        return None

    def _field_key(self, field):
        return tuple((j, self.plane.show(c))
                     for j, c in sorted(field.components.items()))

    def _solves(self, f, field):
        """one_form_body(contract(X, omega)) * scale + d f reduces to 0."""
        plane, qcalc, sys_ = self.plane, self.qcalc, self.plane.system
        lhs = qcalc.one_form_body(qcalc.contract(field, self.omega.tensor,
                                                 sys_))
        residual = sys_.normal_form(lhs).scale(self.omega.scale)
        if not f.is_zero():
            residual = residual + qcalc.d_function(sys_.normal_form(f),
                                                   sys_).body
        reduced = self.symp.constraint_reduce(sys_.normal_form(residual),
                                              plane, extra_degree=4)
        return reduced.is_zero()


WORKLOADS = {w.name: w for w in (VerifyBuiltins, SphereDynamics, GlqIngest)}
