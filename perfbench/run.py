"""qplane benchmark: one closed-loop client per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N --seconds S]

Workloads are listed in BENCHMARK.json and explained in perfbench/NOTES.md.
A run draws its inputs from --seed, measures for --seconds (then finishes
the operation in flight), checks every answer against its known answer,
prints every metric with its unit and, as the last line, one JSON object
{"correct", "attempted", "failed", "metrics"}.  Times are scaled to the
speed of a reference host by a calibration kernel timed in pauses of the
loop (see CALIBRATION_REFERENCE_S); the as-measured figures are printed
beside them.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the layers are wrapped from
outside (perfbench/tracer.py) and the metrics are the per-layer totals over
set-up plus the first operations of the stream.  `--workload all` runs
every workload untraced and traced and reports the tracing overhead.
After the timed loop the run probes, once and untimed, each known defect
whose inputs the stream does not draw, and prints whether it still shows.
Per-operation rows, the environment and the spans go to perfbench/out/.
The exit code is 0 only when no answer was wrong.
"""

import argparse
import fractions
import hashlib
import itertools
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# set-up samples per run, each in a fresh process, spread evenly over the
# timed loop (which pauses for them) so that they see the same host as the
# operations do; setup_s is their median
SETUP_SAMPLES = 5
# after --seconds, keep going at most this long until every input class
# has a completed operation
CLASS_GRACE_S = 60.0
# failed or wrong operations printed; the rows file keeps all of them
SHOW_NOT_OK = 10
# Host-speed calibration.  The host is shared and its speed drifts by up
# to 1.5x over minutes, for the operations and for any fixed piece of work
# alike.  The loop pauses every CALIBRATE_EVERY_S to time a fixed stdlib
# kernel (at most CALIBRATION_BURST samples owed after a long operation),
# and every time metric is scaled by the run's host speed,
# CALIBRATION_REFERENCE_S / mean kernel time, to seconds at the speed of
# the reference host: a 2-vCPU Intel Xeon VM, Python 3.11.  The
# as-measured figures are printed beside them as [raw ...].
CALIBRATION_TERMS = 600
CALIBRATION_REFERENCE_S = 0.006
CALIBRATE_EVERY_S = 0.2
CALIBRATION_BURST = 16


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def environment(seed):
    digest = hashlib.sha256()
    package = os.path.join(SRC, "qplane")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"commit": commit, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": cpu, "platform": platform.platform(),
            "workload_seed": seed}


def setup_sample(kind):
    """Seconds from starting a fresh process to the end of its set-up."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"),
                             "setup", kind], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {err.strip()[-300:]}")
    return elapsed


def percentile(values, k):
    """k-th percentile (k in 1..99), inclusive method."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[k - 1]


def calibration_kernel():
    """A fixed piece of stdlib work whose time measures the host's speed:
    Fraction arithmetic (big-integer gcds) and small dict stores, the
    kind of work qplane's scalar layer does, without qplane."""
    one = fractions.Fraction
    acc, seen = one(1, 3), {}
    for i in range(CALIBRATION_TERMS):
        acc = acc * one(i + 1, i + 2) + one(1, i + 3)
        seen[(i, i % 7)] = acc.numerator % 97
    return len(seen)


def calibration_sample():
    """(start, seconds) of one run of the calibration kernel."""
    start = time.perf_counter()
    calibration_kernel()
    return start, time.perf_counter() - start


def closed_loop(wl, args, recorder):
    """Run operations one after another for --seconds, with the set-up
    samples and calibration samples taken in pauses of the timed loop.

    Returns a dict: rows, specs and answers of the operations, the
    per-layer snapshot, timed seconds (pauses excluded), set-up samples and
    calibration samples."""
    rng = random.Random(args.seed)
    min_ops = wl.traced_prefix if args.trace else 0
    rows, specs, answers = [], [], []
    layers = None
    start = time.perf_counter()
    deadline = start + args.seconds
    probe_at = [] if args.trace else [
        start + args.seconds * k / SETUP_SAMPLES for k in range(SETUP_SAMPLES)]
    setup_samples, calibration, paused = [], [calibration_sample()], 0.0
    calibrate_at = time.perf_counter() + CALIBRATE_EVERY_S

    def pause(take, samples):
        nonlocal paused, deadline, calibrate_at, probe_at
        t0 = time.perf_counter()
        samples.append(take())
        took = time.perf_counter() - t0
        paused += took
        deadline += took
        calibrate_at += took
        probe_at = [t + took for t in probe_at]

    for index in itertools.count():
        while probe_at and time.perf_counter() >= probe_at[0]:
            probe_at.pop(0)
            pause(lambda: setup_sample(wl.setup_probe), setup_samples)
        owed = 0
        while time.perf_counter() >= calibrate_at and owed < CALIBRATION_BURST:
            pause(calibration_sample, calibration)
            calibrate_at += CALIBRATE_EVERY_S
            owed += 1
        calibrate_at = max(calibrate_at, time.perf_counter())
        now = time.perf_counter()
        if now >= deadline and index >= min_ops:
            done = {r["class"] for r in rows if r["outcome"] != "failed"}
            if (done >= set(workloads.CLASSES)
                    or now >= deadline + CLASS_GRACE_S):
                break
        op = wl.draw(rng, index)
        if recorder:
            recorder.op_id = index
        detail, answer = "", None
        t0 = time.perf_counter()
        try:
            answer = wl.run(op, index)
            outcome = "ok"
        except Exception as exc:  # an operation failure is a result
            outcome = "failed"
            detail = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        rows.append({"op": index, "class": op["class"], "input": op["input"],
                     "outcome": outcome, "start": t0 - start,
                     "seconds": seconds, "detail": detail})
        specs.append(op)
        answers.append(answer)
        if recorder and index + 1 == wl.traced_prefix:
            layers = recorder.snapshot()
    elapsed = time.perf_counter() - start - paused
    calibration = [[at - start, seconds] for at, seconds in calibration]
    return {"rows": rows, "specs": specs, "answers": answers,
            "layers": layers, "elapsed": elapsed,
            "setup_samples": setup_samples, "calibration": calibration}


def check_answers(wl, rows, specs, answers):
    """Mark completed rows whose answer differs from the known answer."""
    for row, op, answer in zip(rows, specs, answers):
        if row["outcome"] != "ok":
            continue
        try:
            reason = wl.check(op, answer)
        except Exception as exc:  # a check that cannot run is not a pass
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason:
            row["outcome"], row["detail"] = "wrong", reason


def end_to_end(loop, peak_rss_mb):
    """The end-to-end figures, times at the reference host speed, and the
    same figures as measured on this host (`raw`)."""
    completed = [r for r in loop["rows"] if r["outcome"] != "failed"]
    latencies = [r["seconds"] for r in completed]
    raw = {}
    if latencies:
        raw["op_s.p50"] = statistics.median(latencies)
        raw["op_s.p90"] = percentile(latencies, 90)
    # a class mean, not a median: operations of one class cost nearly the
    # same, so their spread is the host switching between fast and slow
    # phases, and a mean follows the share of time spent in each smoothly
    # where a median jumps between them
    for cls in workloads.CLASSES:
        values = [r["seconds"] for r in completed if r["class"] == cls]
        if values:
            raw[f"op_s.{cls}"] = statistics.mean(values)
    # throughput at the stream's even class mix.  Counting the operations
    # that fit into the timed seconds would move with the class in flight
    # at the deadline: on verify-builtins, whose operations take 0.4-3.5 s,
    # by up to a tenth.  That count is kept as completed_per_s.
    class_means = [raw.get(f"op_s.{cls}") for cls in workloads.CLASSES]
    if all(class_means):
        raw["ops_per_s"] = len(class_means) / sum(class_means)
    if loop["setup_samples"]:
        raw["setup_s"] = statistics.median(loop["setup_samples"])
    # the host's speed over the run, relative to the reference host
    speed = CALIBRATION_REFERENCE_S / statistics.mean(
        seconds for _, seconds in loop["calibration"])
    e2e = {name: value / speed if name == "ops_per_s" else value * speed
           for name, value in raw.items()}
    raw["completed_per_s"] = len(completed) / loop["elapsed"]
    e2e["peak_rss_mb"] = peak_rss_mb
    return e2e, raw, speed


def run_workload(args, spec):
    os.makedirs(workloads.OUT, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](bool(args.trace))
    recorder = None
    if args.trace and args.workload != "verify-builtins":
        recorder = tracer.install()
    setup_start = time.perf_counter()
    wl.setup()
    setup_inprocess = time.perf_counter() - setup_start

    loop = closed_loop(wl, args, recorder)
    rows, layers = loop["rows"], loop["layers"]
    who = (resource.RUSAGE_CHILDREN if args.workload == "verify-builtins"
           else resource.RUSAGE_SELF)
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    spans, dropped_spans = [], 0
    if args.trace:
        layers, spans, dropped_spans = collect_trace(wl, recorder, layers)
    check_start = time.perf_counter()
    check_answers(wl, rows, loop["specs"], loop["answers"])
    check_s = time.perf_counter() - check_start
    defects = wl.defect_probes()
    failed = sum(r["outcome"] == "failed" for r in rows)
    wrong = sum(r["outcome"] == "wrong" for r in rows)
    e2e, raw, speed = end_to_end(loop, peak_rss_mb)

    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = tracer.layer_metrics(
            layers, [n for n in units if not n.startswith("trace.")])
        if "op_s.p50" in e2e:
            metrics["trace.op_s.p50"] = e2e["op_s.p50"]
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = {k: e2e[k] for k in units if k in e2e}

    base = os.path.join(workloads.OUT,
                        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    result = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "env": environment(args.seed),
              "setup_samples_s": loop["setup_samples"],
              "setup_inprocess_s": setup_inprocess, "check_s": check_s,
              "calibration_s": loop["calibration"], "host_speed": speed,
              "end_to_end": e2e, "end_to_end_raw": raw, "layers": layers if args.trace else None,
              "traced_prefix_ops": wl.traced_prefix if args.trace else None,
              "dropped_spans": dropped_spans, "known_defects": defects,
              "workload_figures": workload_figures(args.workload, e2e, rows),
              "ops": rows}
    with open(base + ".json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    if args.trace:
        tracer.write_spans(os.path.join(
            workloads.OUT, f"{args.workload}-seed{args.seed}-spans.jsonl"),
            spans)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(rows)} ops in {loop['elapsed']:.2f} s, {failed} failed, "
          f"{wrong} wrong")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(f"  [host_speed] = {speed:.6g} (reference host = 1, from "
          f"{len(loop['calibration'])} calibration samples)")
    for name, value in raw.items():
        print(f"  [raw {name}] = {value:.6g}")
    for name, value in result["workload_figures"].items():
        print(f"  [{name}] = {value:.6g}")
    not_ok = [r for r in rows if r["outcome"] != "ok"]
    for row in not_ok[:SHOW_NOT_OK]:
        print(f"  {row['outcome']} op {row['op']} ({row['input'][:160]}): "
              f"{row['detail'][:160]}")
    if len(not_ok) > SHOW_NOT_OK:
        print(f"  ... {len(not_ok) - SHOW_NOT_OK} more failed or wrong "
              "operations in the rows file")
    for probe in defects:
        state = "still present" if probe["present"] else "no longer shows"
        print(f"  known defect ({probe['defect']}) {state}: "
              f"{probe['input']}: {probe['detail'][:160]}")
    if args.trace:
        print_overhead(args, e2e)
    print(f"  rows: {os.path.relpath(base, ROOT)}.json")
    correct = wrong == 0 and bool(rows)
    print(json.dumps({
        "correct": correct, "attempted": len(rows), "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0 if correct else 1


def collect_trace(wl, recorder, layers):
    """Per-layer totals over set-up and the traced prefix, and all spans."""
    if recorder is not None:
        return layers, recorder.spans, recorder.dropped_spans
    layers, spans, dropped = {}, [], 0
    for op_id, path in wl.child_traces:
        if not os.path.exists(path):  # the child was killed
            continue
        with open(path, encoding="utf-8") as fh:
            child = json.load(fh)
        os.remove(path)
        if op_id < wl.traced_prefix:
            tracer.merge(layers, child["layers"])
        spans.extend(child["spans"])
        dropped += child["dropped_spans"]
    return layers, spans, dropped


WORKLOAD_NAMES = {
    "verify-builtins": {"verify_s.gl2": "op_s.small",
                        "verify_s.sphere_qm1": "op_s.medium",
                        "verify_s.orth3": "op_s.large"},
    "glq-ingest": {"ingest_s.n2": "op_s.small", "ingest_s.n3": "op_s.medium",
                   "ingest_s.n4": "op_s.large"},
    "sphere-dynamics": {"query_s.p50": "op_s.p50", "query_s.p90": "op_s.p90",
                        "query_s.degree1": "op_s.small",
                        "query_s.degree2": "op_s.medium",
                        "query_s.degree3": "op_s.large"},
}


def workload_figures(workload, e2e, rows):
    """Figures printed in brackets: the class metrics under the workload's
    own names, and the ungated latency percentiles and failure counts."""
    out = {alias: e2e[name] for alias, name in
           WORKLOAD_NAMES[workload].items() if name in e2e}
    for name in ("op_s.p50", "op_s.p90"):
        if name in e2e:
            out[name] = e2e[name]
    out["failed_ratio"] = (sum(r["outcome"] == "failed" for r in rows)
                           / max(len(rows), 1))
    out["wrong_verdicts"] = sum(r["outcome"] == "wrong" for r in rows)
    return out


def print_overhead(args, traced):
    path = os.path.join(workloads.OUT, f"{args.workload}-seed{args.seed}"
                        "-trace0.json")
    if not os.path.exists(path):
        print("  tracing overhead: no untraced run with this seed in out/")
        return
    with open(path, encoding="utf-8") as fh:
        plain = json.load(fh)["end_to_end"]
    for name in ("op_s.p50", "op_s.p90", "op_s.small", "op_s.medium",
                 "op_s.large", "ops_per_s"):
        if name in plain and name in traced:
            change = traced[name] / plain[name] - 1.0
            print(f"  tracing overhead {name}: {traced[name]:.6g} traced vs "
                  f"{plain[name]:.6g} untraced ({change:+.1%})")


def run_all(args):
    """Every workload, untraced then traced, with one summary."""
    ok, attempted, failed, metrics = True, 0, 0, {}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 name, "--seed", str(args.seed), "--seconds",
                 str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            try:
                last = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                return fail(f"{name} trace {trace} printed no result")
            ok = ok and last["correct"] and proc.returncode == 0
            attempted += last["attempted"]
            failed += last["failed"]
            if not trace:
                metrics.update({f"{name}/{k}": v
                                for k, v in last["metrics"].items()})
    print(json.dumps({"correct": ok, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qplane", "__init__.py")):
        return fail(f"no qplane sources under {SRC}")
    sys.path.insert(0, SRC)
    if args.workload != "all" and hasattr(os, "sched_setaffinity"):
        # one vCPU for the loop, its child processes and the calibration
        # kernel, so that the kernel times the CPU the operations ran on
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
