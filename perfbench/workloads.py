"""The two benchmark workloads and the operations they are made of.

Every input is a fixed instance from the paper, so nothing here depends
on the benchmark seed.  The in-process operations return a JSON-able
summary of their output, which `check.py` compares with the reference
results in `reference.json`.
"""

import hashlib

VERIFY_QS = (5, 7, 9, 11, 13, 25, 49)

# One CLI session, in this order.  Command 2 reads the matrix cached by
# command 1 because the cache key leaves out the modulus; that known
# defect is kept visible on purpose (see reference.json "known_defects").
CLI_SESSION = (
    ("scheme", "labels", "--q", "9", "--group", "psl"),
    ("scheme", "labels", "--q", "9", "--group", "psl", "--modulus", "1,0,1"),
    ("scheme", "labels", "--q", "49", "--group", "m", "--format", "json"),
    ("fusion", "check", "--q", "49", "--fine", "psl", "--coarse", "m", "--format", "json"),
    ("build", "--q", "49", "--group", "pgammal", "--format", "json", "--p-tensor"),
    ("build", "--q", "25", "--group", "psl", "--format", "csv"),
    ("scheme", "labels", "--q", "81", "--group", "psl", "--format", "json"),
)

# A cli pass runs the session against an empty cache directory (cold:
# builds and cache writes), then again against the cache it filled
# (warm: cache reads).
CLI_PHASES = ("cold", "warm")

# name -> (kind, operations); the "inproc" workload runs its operations in
# one workload process, the "cli" workload runs one process per command.
WORKLOADS = {
    "verify": ("inproc", VERIFY_QS),
    "cli": ("cli", tuple((phase, argv) for phase in CLI_PHASES for argv in CLI_SESSION)),
}


def op_label(workload, op):
    kind, _ = WORKLOADS[workload]
    if kind == "cli":
        phase, argv = op
        return f"{phase}: " + " ".join(argv)
    return f"{workload} q={op}"


def strip_report(report):
    """A theorem report as JSON data, without its timing field."""
    d = report.to_dict()
    del d["elapsed"]
    return d


def verify_op(q):
    """verify, one operation: the theorem suite at one q."""
    from scheme_forge import fission

    return [strip_report(r) for r in fission.verify_paper([q])]


def cli_digest(exit_code, stdout):
    return {
        "exit": int(exit_code),
        "bytes": len(stdout),
        "sha256": hashlib.sha256(stdout).hexdigest(),
    }


def run_inproc_op(workload, op):
    if workload == "verify":
        return verify_op(op)
    raise ValueError(f"{workload} has no in-process operations")
