"""Workload processes started by run.py, one at a time.

  child.py probe MODULE
      import MODULE, print the clock when ready, exit (set-up samples)
  child.py run WORKLOAD RESULT TRACE SPANS
      run an in-process workload's operations, write RESULT as JSON;
      with TRACE=1 the layer wrappers are installed and spans go to SPANS
  child.py cli SPANS ARG...
      one traced CLI command: import the CLI, install the wrappers and
      call scheme_forge.cli.main(ARG...); stdout and exit code are the
      command's own

Clock values are time.perf_counter(), which on Linux is CLOCK_MONOTONIC
and so comparable between the parent and its children.
"""

import gzip
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _check_source(mod):
    if not os.path.abspath(mod.__file__).startswith(SRC + os.sep):
        sys.exit(f"scheme_forge imported from {mod.__file__}, not from {SRC}")


def _cpu_s():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _write_spans(path, tracer):
    with gzip.open(path, "wt") as fh:
        json.dump(tracer.rows(), fh)


def probe(module):
    import importlib

    importlib.import_module(module)
    ready = time.perf_counter()
    _check_source(sys.modules["scheme_forge"])
    print(repr(ready))


def run(workload, result_path, traced, spans_path):
    import scheme_forge

    ready = time.perf_counter()
    _check_source(scheme_forge)
    import workloads

    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer().install()
    cpu0 = _cpu_s()
    ops = []
    for i, op in enumerate(workloads.WORKLOADS[workload][1]):
        if tracer:
            tracer.op = i
        output = error = None
        c0, t0 = _cpu_s(), time.perf_counter()
        try:
            output = workloads.run_inproc_op(workload, op)
        except Exception as e:  # any failure is counted, not raised
            error = f"{type(e).__name__}: {e}"
        t1, c1 = time.perf_counter(), _cpu_s()
        ops.append(
            {"op": op, "t0": t0, "t1": t1, "cpu_s": c1 - c0, "output": output, "error": error}
        )
    cpu_s = _cpu_s() - cpu0
    if tracer:
        tracer.uninstall()
        _write_spans(spans_path, tracer)
    result = {"ready": ready, "cpu_s": cpu_s, "ops": ops}
    with open(result_path, "w") as fh:
        json.dump(result, fh)


def cli(spans_path, argv):
    t0 = time.perf_counter()
    import scheme_forge.cli as cli_mod

    t1 = time.perf_counter()
    _check_source(sys.modules["scheme_forge"])
    from tracer import Tracer

    tracer = Tracer()
    tracer.record("cli.import", t0, t1)
    tracer.op = 0
    with tracer:
        code = cli_mod.main(argv)
    sys.stdout.flush()
    _write_spans(spans_path, tracer)
    return code


def main(argv):
    mode = argv[0]
    if mode == "probe":
        probe(argv[1])
        return 0
    if mode == "run":
        run(argv[1], argv[2], argv[3] == "1", argv[4])
        return 0
    if mode == "cli":
        return cli(argv[1], argv[2:])
    sys.exit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
