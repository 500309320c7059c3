"""Per-layer tracing of qplane, installed from outside the package.

`install` replaces public functions and methods of the layer modules with
wrappers, including every copy a module bound with `from .x import y`
(for example `planes.wz_conditions` or `ncalg.rref_rows`).  Nothing inside
qplane changes; a process that never calls `install` runs the plain code.

Three kinds of wrapper, chosen by how often the target runs:

- span: timed, and a span (operation id, span id, parent span, name,
  start, end) is kept in memory for each call;
- timed: calls, inclusive and self time, no span (hot functions);
- count: calls only (the scalar operators, millions of calls).

Inclusive seconds (`.s`) count only the outermost call of a recursion.
Self seconds (`.self_s`) are inclusive time minus the time of wrapped
calls made inside it.
"""

import functools
import importlib
import json
import time

MODULES = ("scalar", "linalg", "ncalg", "qcalc", "symp", "planes", "cli")

# (module, attribute or Class.method, kind)
TARGETS = (
    ("scalar", "poly_gcd", "timed"),
    ("scalar", "poly_mul", "timed"),
    ("scalar", "Scalar.__mul__", "count"),
    ("scalar", "Scalar.__add__", "count"),
    ("scalar", "Scalar.inverse", "count"),
    ("scalar", "parse_scalar", "count"),
    ("linalg", "check_ybe", "span"),
    ("linalg", "check_min_poly", "span"),
    ("linalg", "projector_q", "span"),
    ("linalg", "wz_conditions", "span"),
    ("linalg", "mat_inverse", "span"),
    ("linalg", "gamma_condition", "span"),
    ("linalg", "LegMatrix.__mul__", "timed"),
    ("linalg", "rref_rows", "timed"),
    ("ncalg", "build_rewrite_system", "span"),
    ("ncalg", "RewriteSystem.normal_form", "timed"),
    ("ncalg", "RewriteSystem.reduce_word", "timed"),
    ("ncalg", "confluence_selftest", "span"),
    ("ncalg", "is_central", "span"),
    ("ncalg", "parse_element", "count"),
    ("qcalc", "d_function", "timed"),
    ("qcalc", "d_form", "span"),
    ("qcalc", "to_tensor", "span"),
    ("qcalc", "contract", "timed"),
    ("qcalc", "apply_field", "timed"),
    ("symp", "symplectic_form", "span"),
    ("symp", "constraint_reduce", "timed"),
    ("symp", "is_closed", "span"),
    ("symp", "is_nondegenerate", "span"),
    ("symp", "hamiltonian_vector_field", "span"),
    ("symp", "poisson_bracket", "span"),
    ("symp", "equations_of_motion", "span"),
    ("planes", "derive_plane", "span"),
    ("planes", "builtin_plane", "span"),
    ("planes", "specialize_builtin", "span"),
    ("planes", "load_plane", "span"),
    ("planes", "verify_reference_relations", "span"),
    ("cli", "suite_ybe", "span"),
    ("cli", "suite_wz", "span"),
    ("cli", "suite_gamma", "span"),
    ("cli", "suite_relations", "span"),
    ("cli", "suite_closedness", "span"),
    ("cli", "suite_hamiltonian", "span"),
)

# Spans beyond this many are counted but not kept, so a long traced run
# cannot exhaust memory.
MAX_SPANS = 200_000


def metric_prefix(module, attr):
    """`scalar` + `Scalar.__mul__` -> `scalar.Scalar.mul`."""
    return f"{module}.{attr.replace('__', '')}"


class Tracer:
    """Aggregates and spans of one process."""

    def __init__(self):
        self.stats = {}  # name -> [calls, top_calls, inclusive_s, self_s]
        self.depth = {}
        self.frames = []  # child time of each open timed call
        self.open_spans = []
        self.spans = []
        self.dropped_spans = 0
        self.next_span = 0
        self.op_id = "setup"
        self.rref_cells = 0

    def _stat(self, name):
        return self.stats.setdefault(name, [0, 0, 0.0, 0.0])

    def counting(self, name, fn):
        stat = self._stat(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def timing(self, name, fn, keep_spans):
        stat = self._stat(name)
        depth, frames, clock = self.depth, self.frames, time.perf_counter
        count_cells = name == "linalg.rref_rows"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count_cells and args[0]:
                self.rref_cells += len(args[0]) * len(args[0][0])
            level = depth.get(name, 0)
            depth[name] = level + 1
            frame = [0.0]
            frames.append(frame)
            if keep_spans:
                span_id = self._open_span()
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                frames.pop()
                if frames:
                    frames[-1][0] += elapsed
                depth[name] = level
                stat[0] += 1
                stat[3] += elapsed - frame[0]
                if level == 0:
                    stat[1] += 1
                    stat[2] += elapsed
                if keep_spans:
                    self._close_span(span_id, name, start, end)
        return wrapper

    def _open_span(self):
        self.next_span += 1
        self.open_spans.append(self.next_span)
        return self.next_span

    def _close_span(self, span_id, name, start, end):
        self.open_spans.pop()
        if len(self.spans) >= MAX_SPANS:
            self.dropped_spans += 1
            return
        parent = self.open_spans[-1] if self.open_spans else None
        self.spans.append((self.op_id, span_id, parent, name, start, end))

    def snapshot(self):
        """Raw aggregates: {name: [calls, top_calls, s, self_s]} + cells."""
        out = {name: list(v) for name, v in self.stats.items()}
        out["linalg.rref_rows.cells"] = self.rref_cells
        return out


def install():
    """Wrap every target in TARGETS and return the Tracer that records."""
    tracer = Tracer()
    modules = [importlib.import_module(f"qplane.{m}") for m in MODULES]
    by_name = dict(zip(MODULES, modules))
    for module, attr, kind in TARGETS:
        name = metric_prefix(module, attr)
        owner = by_name[module]
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
        original = getattr(owner, attr)
        if kind == "count":
            wrapper = tracer.counting(name, original)
        else:
            wrapper = tracer.timing(name, original, kind == "span")
        setattr(owner, attr, wrapper)
        if owner in modules:
            for other in modules:
                for key, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, key, wrapper)
    return tracer


def write_spans(path, spans):
    """One JSON object per span, in the order the spans closed."""
    with open(path, "w", encoding="utf-8") as fh:
        for op_id, span_id, parent, name, start, end in spans:
            fh.write(json.dumps({"op": op_id, "span": span_id,
                                 "parent": parent, "name": name,
                                 "start": start, "end": end}) + "\n")


def merge(into, raw):
    """Add one snapshot to another (used for child processes)."""
    for name, value in raw.items():
        if isinstance(value, list):
            acc = into.setdefault(name, [0, 0, 0.0, 0.0])
            for k in range(4):
                acc[k] += value[k]
        else:
            into[name] = into.get(name, 0) + value


def layer_metrics(raw, names):
    """Select the per-layer metric values named in BENCHMARK.json."""
    out = {}
    for metric in names:
        if metric == "ncalg.reduce_word.calls_per_top":
            calls, top = raw.get("ncalg.RewriteSystem.reduce_word",
                                 [0, 0, 0, 0])[:2]
            out[metric] = calls / top if top else 0.0
            continue
        if metric == "linalg.rref_rows.cells":
            out[metric] = raw.get(metric, 0)
            continue
        base, stat = metric.rsplit(".", 1)
        calls, top, incl, self_s = raw.get(base, [0, 0, 0.0, 0.0])
        out[metric] = {"calls": calls, "top_calls": top, "s": incl,
                       "self_s": self_s}[stat]
    return out
