"""Write reference.json: the outputs the benchmark checks every run against.

    python3 perfbench/make_reference.py

Run it only on a commit whose outputs are known to be right.  It records

  verify       the theorem reports per q, without their `elapsed` field
  cli          exit code, size and sha256 of stdout per session command,
               each run with no cache directory
  known_defects
               outputs that are wrong in a known way, counted as failed
               but not as an incorrect run
"""

import json
import os
import platform
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import numpy  # noqa: E402

from check import REFERENCE_PATH  # noqa: E402
from workloads import CLI_SESSION, VERIFY_QS, cli_digest, run_inproc_op  # noqa: E402

MODULUS_DEFECT = (
    "the cache key leaves out --modulus, so command 2 reads the matrix command 1 "
    "cached for the default modulus and prints other labels (exit 0)"
)


def cli_run(argv, cache_dir=None):
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("SCHEME_FORGE_CACHE_DIR", None)
    if cache_dir:
        env["SCHEME_FORGE_CACHE_DIR"] = cache_dir
    p = subprocess.run(
        [sys.executable, "-m", "scheme_forge"] + list(argv), env=env, capture_output=True
    )
    return cli_digest(p.returncode, p.stdout)


def main():
    ref = {
        "generated_with": {"python": platform.python_version(), "numpy": numpy.__version__},
        "verify": {},
    }
    for q in VERIFY_QS:
        reports = run_inproc_op("verify", q)
        bad = [r["theorem"] for r in reports if not r["passed"]]
        if bad:
            raise SystemExit(f"q={q}: failing reports {bad}; refusing to record them")
        ref["verify"][str(q)] = reports
    ref["cli"] = [cli_run(argv) for argv in CLI_SESSION]

    with tempfile.TemporaryDirectory(dir=HERE) as cache:
        cli_run(CLI_SESSION[0], cache)
        cached = cli_run(CLI_SESSION[1], cache)
    ref["known_defects"] = {}
    if cached != ref["cli"][1]:
        ref["known_defects"]["cli"] = {"1": {"output": cached, "reason": MODULUS_DEFECT}}

    with open(REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
