"""Child processes of the benchmark.

    python3 perfbench/child.py setup (import|sphere)
        import qplane (and for `sphere`, derive sphere_qm1 and build its
        symplectic form), print `ready` and exit: one set-up sample.
    python3 perfbench/child.py verify [--trace-out FILE --op ID] ARGS...
        run `qplane verify ARGS...` in this fresh process and exit with its
        code; with --trace-out, trace the layers and write the aggregates
        and spans to FILE.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def setup(kind):
    from qplane import cli  # noqa: F401  (what a CLI process imports)
    if kind == "sphere":
        from qplane import planes, symp
        symp.symplectic_form(planes.builtin_plane("sphere_qm1"))
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    return 0


def verify(args):
    from qplane import cli
    if args[0] != "--trace-out":
        return cli.main(["verify"] + args)
    path, op_id, args = args[1], int(args[3]), args[4:]
    import tracer
    trace = tracer.install()
    trace.op_id = op_id
    try:
        return cli.main(["verify"] + args)
    finally:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"layers": trace.snapshot(), "spans": trace.spans,
                       "dropped_spans": trace.dropped_spans}, fh)


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    sys.exit(setup(rest[0]) if mode == "setup" else verify(rest))
