"""Output checks against the reference results in reference.json.

`check` sorts an operation's outcome into one of three statuses:

  ok     the output equals the reference
  known  the output equals a recorded known defect (counted as failed,
         but expected: the run stays correct)
  fail   anything else, including an exception or a wrong exit code
"""

import json
import os

from workloads import WORKLOADS

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def load_reference(path=REFERENCE_PATH):
    with open(path) as fh:
        return json.load(fh)


def _ref_section(workload):
    return "cli" if WORKLOADS[workload][0] == "cli" else workload


def _canonical(data):
    return json.dumps(data, sort_keys=True)


def check(reference, workload, index, op, output, error=None):
    """(status, reason) of one operation's outcome; for the cli workload,
    `index` is the command's place in the session."""
    if error is not None:
        return "fail", f"exception: {error}"
    section = _ref_section(workload)
    if section == "cli":
        want = reference["cli"][index]
    else:
        want = reference[section][str(op)]
    if workload == "verify":
        failed = [f"{r['theorem']}[q={r['q']}]" for r in output if not r["passed"]]
        if failed:
            return "fail", "theorem reports failed: " + ", ".join(failed)
    if _canonical(output) == _canonical(want):
        return "ok", ""
    known = reference.get("known_defects", {}).get(section, {}).get(str(index))
    if known is not None and _canonical(output) == _canonical(known["output"]):
        return "known", known["reason"]
    if section == "cli" and output["exit"] != want["exit"]:
        return "fail", f"exit code {output['exit']}, expected {want['exit']}"
    return "fail", "output differs from the reference"
