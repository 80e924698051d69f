"""scheme-forge benchmark: one workload, checked outputs, one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's `src/`.  Every operation runs in fresh child processes, one
process at a time.  A run sets up (median of several set-ups), then
repeats whole passes of the workload while the next pass is expected to
end within S seconds of measuring (at least one pass) and reports
medians over the passes.  With --trace 0
the last stdout line carries the end-to-end metrics; with --trace 1 it
carries the per-layer metrics of traced passes, after one untraced pass
that gives the tracing overhead; all of them fit in the S seconds.  A human-readable summary, including
failed_ratio and the environment, goes to stderr; the full record goes
to .perfbench_work/results/.

The seed is recorded but changes no input: every workload is a fixed
instance from the paper (see README.md).
"""

import argparse
import gzip
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

from check import check, load_reference
from tracer import LAYER_METRICS, derive, merge
from workloads import CLI_SESSION, WORKLOADS, cli_digest, op_label

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
CHILD = os.path.join(HERE, "child.py")

SETUP_SAMPLES = 7
RUN_DEADLINE_S = 170  # a child still running then is killed

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("op_max_s", "s", "lower"),
    ("ok_ratio", "1", "higher"),
)


class Child:
    """One child process; stdout and stderr go to files in the run dir."""

    def __init__(self, argv, env, out_path, timeout):
        self.out_path = out_path
        with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
            self.t_spawn = time.perf_counter()
            self.proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
        self.timer = threading.Timer(max(timeout, 1.0), self._expire)
        self.timer.start()

    def _expire(self):
        try:
            os.kill(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def wait(self):
        try:
            _, status, ru = os.wait4(self.proc.pid, 0)
        finally:
            self.timer.cancel()
        self.t_exit = time.perf_counter()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.cpu_s = ru.ru_utime + ru.ru_stime
        self.rss_mb = ru.ru_maxrss / 1024.0
        return self

    def stdout(self):
        with open(self.out_path, "rb") as fh:
            return fh.read()

    def stderr_tail(self):
        with open(self.out_path + ".err", "rb") as fh:
            return fh.read()[-400:].decode(errors="replace")

    def kill(self):
        self.timer.cancel()
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()


class Run:
    def __init__(self, workload):
        self.workload = workload
        self.kind, self.ops = WORKLOADS[workload]
        self.reference = load_reference()
        self.dir = os.path.join(WORK, f"run-{os.getpid()}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.cache_dir = os.path.join(self.dir, "cache")
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.env.pop("SCHEME_FORGE_CACHE_DIR", None)
        self.cli_env = dict(self.env, SCHEME_FORGE_CACHE_DIR=self.cache_dir)
        self.n_children = 0
        self.live = None
        self.deadline = time.perf_counter() + RUN_DEADLINE_S

    def child(self, argv, env):
        self.n_children += 1
        path = os.path.join(self.dir, f"child{self.n_children}.out")
        timeout = self.deadline - time.perf_counter()
        self.live = Child([sys.executable] + argv, env, path, timeout)
        c = self.live.wait()
        self.live = None
        return c

    def close(self):
        if self.live is not None:
            self.live.kill()
        shutil.rmtree(self.dir, ignore_errors=True)

    # -- set-up ---------------------------------------------------------------------

    def setup(self):
        """Median spawn-to-ready time of fresh workload processes."""
        module = "scheme_forge.cli" if self.kind == "cli" else "scheme_forge"
        samples = []
        for _ in range(SETUP_SAMPLES):
            c = self.child([CHILD, "probe", module], self.env)
            if c.proc.returncode != 0:
                raise SystemExit(f"set-up probe failed: {c.stderr_tail()}")
            samples.append(float(c.stdout()) - c.t_spawn)
        return statistics.median(samples), samples

    # -- passes -------------------------------------------------------------------------

    def judge(self, index, op, output, error):
        status, reason = check(self.reference, self.workload, index, op, output, error)
        return {"op": op_label(self.workload, op), "status": status, "reason": reason}

    def inproc_pass(self, traced):
        result = os.path.join(self.dir, "result.json")
        spans = os.path.join(self.dir, "spans.json.gz")
        for path in (result, spans):
            if os.path.exists(path):
                os.remove(path)
        argv = [CHILD, "run", self.workload, result, "1" if traced else "0", spans]
        c = self.child(argv, self.env)
        if c.proc.returncode != 0 or not os.path.exists(result):
            error = f"workload process exited {c.proc.returncode}: {c.stderr_tail()}"
            ops = [self.judge(i, op, None, error) for i, op in enumerate(self.ops)]
            times = [c.t_exit - c.t_spawn]
            return self._pass(ops, times, [c.cpu_s], c.t_exit - c.t_spawn, c.cpu_s, c.rss_mb, [])
        with open(result) as fh:
            res = json.load(fh)
        ops = [self.judge(i, o["op"], o["output"], o["error"]) for i, o in enumerate(res["ops"])]
        times = [o["t1"] - o["t0"] for o in res["ops"]]
        cpus = [o["cpu_s"] for o in res["ops"]]
        wall = res["ops"][-1]["t1"] - res["ops"][0]["t0"]
        rows = [self._read_spans(spans)] if traced else []
        p = self._pass(ops, times, cpus, wall, res["cpu_s"], c.rss_mb, rows)
        p["ready_s"] = res["ready"] - c.t_spawn
        return p

    def cli_pass(self, traced):
        """The session against an empty cache, then against the cache it filled."""
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        ops, times, cpus, rss, rows = [], [], [], 0.0, []
        t_first = None
        for i, op in enumerate(self.ops):
            argv = op[1]
            spans = os.path.join(self.dir, f"spans{i}.json.gz")
            if traced:
                cmd = [CHILD, "cli", spans] + list(argv)
            else:
                cmd = ["-m", "scheme_forge"] + list(argv)
            c = self.child(cmd, self.cli_env)
            t_first = c.t_spawn if t_first is None else t_first
            digest = cli_digest(c.proc.returncode, c.stdout())
            ops.append(self.judge(i % len(CLI_SESSION), op, digest, None))
            times.append(c.t_exit - c.t_spawn)
            cpus.append(c.cpu_s)
            rss = max(rss, c.rss_mb)
            if traced and os.path.exists(spans):
                rows.append(self._read_spans(spans))
                os.remove(spans)
        return self._pass(ops, times, cpus, c.t_exit - t_first, sum(cpus), rss, rows)

    @staticmethod
    def _read_spans(path):
        with gzip.open(path, "rt") as fh:
            return json.load(fh)

    @staticmethod
    def _pass(ops, times, cpus, wall, cpu, rss, rows):
        return {
            "ops": ops,
            "op_s": times,
            "op_cpu_s": cpus,
            "wall_s": wall,
            "cpu_s": cpu,
            "peak_rss_mb": rss,
            "op_max_s": max(times),
            "spans": rows,
        }

    def one_pass(self, traced):
        if self.kind == "cli":
            return self.cli_pass(traced)
        return self.inproc_pass(traced)

    def passes(self, seconds, traced):
        """Whole passes while the next one is expected to end in time."""
        out, lengths = [], []
        t0 = time.perf_counter()
        while not out or time.perf_counter() - t0 + statistics.median(lengths) <= seconds:
            t = time.perf_counter()
            out.append(self.one_pass(traced))
            lengths.append(time.perf_counter() - t)
        return out


def _median(passes, key):
    return statistics.median(p[key] for p in passes)


def warm_up(seconds=1.0):
    """Keep both cores busy for a moment before anything is timed.

    After the machine has idled, the first pass otherwise runs about
    1.5 s slower (the q=25 suite of verify in 0.86 s instead of
    0.3 s), which skews the first run of a series and the untraced
    reference pass of a traced run.
    """
    import numpy

    a = numpy.ones((1000, 1000), dtype=numpy.float32)
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        a @ a


def environment():
    import numpy

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(os.getloadavg()),
        "cpu_quota": None,
    }
    for path in ("/sys/fs/cgroup/cpu.max", "/sys/fs/cgroup/cpu/cpu.cfs_quota_us"):
        try:
            with open(path) as fh:
                env["cpu_quota"] = f"{path}: {fh.read().strip()}"
            break
        except OSError:
            pass
    return env


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "scheme_forge", "__init__.py")):
        print(f"error: no scheme_forge source under {SRC}", file=sys.stderr)
        return 2

    # turn SIGTERM into SystemExit so that the finally below stops the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    env = environment()
    warm_up()
    run = Run(args.workload)
    try:
        setup_s, setup_samples = run.setup()
        t0 = time.perf_counter()
        untraced = run.passes(0 if args.trace else args.seconds, traced=False)
        # the untraced reference pass of a traced run counts against --seconds
        rest = args.seconds - (time.perf_counter() - t0)
        traced = run.passes(rest, traced=True) if args.trace else []
    finally:
        run.close()

    all_ops = [o for p in untraced + traced for o in p["ops"]]
    attempted = len(all_ops)
    failed = sum(o["status"] != "ok" for o in all_ops)
    correct = all(o["status"] != "fail" for o in all_ops)

    # one list of span rows per traced pass: name, start, end, parent, op, attr
    spans = [merge(p["spans"]) for p in traced]
    if args.trace:
        wall_ref = _median(untraced, "wall_s")
        per_pass = [
            derive(rows, p["peak_rss_mb"], wall_ref, p["wall_s"]) for rows, p in zip(spans, traced)
        ]
        units = {name: unit for name, unit, _ in LAYER_METRICS}
        values = {name: statistics.median(m[name] for m in per_pass) for name in units}
    else:
        units = {name: unit for name, unit, _ in END_TO_END}
        values = {
            "setup_s": setup_s,
            "wall_s": _median(untraced, "wall_s"),
            "cpu_s": _median(untraced, "cpu_s"),
            "peak_rss_mb": _median(untraced, "peak_rss_mb"),
            "op_max_s": _median(untraced, "op_max_s"),
            "ok_ratio": (attempted - failed) / attempted,
        }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "setup_samples_s": setup_samples,
        "passes": [{k: v for k, v in p.items() if k != "spans"} for p in untraced + traced],
        "metrics": values,
        "attempted": attempted,
        "failed": failed,
        "correct": correct,
    }
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(WORK, "results", name + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    if spans:
        with gzip.open(os.path.join(WORK, "results", name + ".spans.json.gz"), "wt") as fh:
            json.dump(spans, fh)

    _summary(record, units)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
            }
        )
    )
    return 0


def _summary(record, units):
    err = sys.stderr
    env = record["environment"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}", file=err)
    print("environment: " + json.dumps(env), file=err)
    for name, value in record["metrics"].items():
        print(f"  {name:<34} {value:>14.6g} {units[name]}", file=err)
    ratio = record["failed"] / record["attempted"]
    print(f"  {'failed_ratio':<34} {ratio:>14.6g} 1  ({record['failed']}/{record['attempted']})", file=err)
    for p in record["passes"]:
        for o, t in zip(p["ops"], p["op_s"]):
            note = f"  [{o['status']}: {o['reason']}]" if o["status"] != "ok" else ""
            print(f"    {t:8.3f} s  {o['op']}{note}", file=err)
    print(f"correct: {record['correct']}", file=err)


if __name__ == "__main__":
    sys.exit(main())
