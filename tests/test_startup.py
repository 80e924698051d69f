"""Process start-up: `import scheme_forge` sets the OpenBLAS thread timeout
before numpy loads, and leaves a value the user set, and the OpenBLAS
thread count, as they were."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
KEYS = ("OPENBLAS_THREAD_TIMEOUT", "OPENBLAS_NUM_THREADS")

# records the variables at the moment numpy is first imported, then again
# once `import scheme_forge` has returned
PROBE = f"""
import json, os, sys
assert "numpy" not in sys.modules
KEYS = {KEYS!r}
seen = {{}}

class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.update({{k: os.environ.get(k) for k in KEYS}})
        return None

sys.meta_path.insert(0, Spy())
import scheme_forge
print(json.dumps({{"at_numpy": seen, "after": {{k: os.environ.get(k) for k in KEYS}}}}))
"""


def probe(**env):
    base = {k: v for k, v in os.environ.items() if k not in KEYS}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), base.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env={**base, **env}, capture_output=True, text=True, check=True
    ).stdout
    seen = json.loads(out)
    assert seen["at_numpy"], "numpy was not imported by scheme_forge"
    return seen


def test_thread_timeout_defaults_to_4_before_numpy_loads():
    seen = probe()
    assert seen["at_numpy"]["OPENBLAS_THREAD_TIMEOUT"] == "4"
    assert seen["after"]["OPENBLAS_THREAD_TIMEOUT"] == "4"


def test_user_thread_timeout_wins():
    seen = probe(OPENBLAS_THREAD_TIMEOUT="8")
    assert seen["at_numpy"]["OPENBLAS_THREAD_TIMEOUT"] == "8"
    assert seen["after"]["OPENBLAS_THREAD_TIMEOUT"] == "8"


def test_num_threads_left_unset():
    seen = probe()
    assert seen["at_numpy"]["OPENBLAS_NUM_THREADS"] is None
    assert seen["after"]["OPENBLAS_NUM_THREADS"] is None
