"""The process entry, `cli.run`: `python -m scheme_forge` and the
`scheme-forge` script freeze the heap once `main` has returned, so that
interpreter shutdown does not sweep the objects numpy and the package
leave alive, and otherwise exit with `main`'s code and bytes.  In-process
`main` freezes nothing: the `gc.collect()`/weakref tests of the field
memo need a collectable heap."""

import gc
import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import golden
from scheme_forge.cli import main

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "scheme_forge"

# a `sitecustomize` whose atexit hook writes the frozen-object count last
# on stderr: atexit hooks run after `main` has returned, before shutdown
PROBE = """import atexit, gc, sys
atexit.register(lambda: print("frozen", gc.get_freeze_count(), file=sys.stderr))
"""

LABELS = "scheme labels --q 9 --group psl --format text"


def through_entry(tmp_path, argv):
    """Exit code, stdout bytes and frozen-object count at exit of
    `python -m scheme_forge *argv`, without a cache."""
    (tmp_path / "sitecustomize.py").write_text(PROBE)
    env = {k: v for k, v in os.environ.items() if k != "SCHEME_FORGE_CACHE_DIR"}
    env["PYTHONPATH"] = os.pathsep.join([str(tmp_path), str(SRC.parent)])
    proc = subprocess.run([sys.executable, "-m", "scheme_forge", *argv], env=env, capture_output=True)
    (frozen,) = re.findall(rb"^frozen (\d+)$", proc.stderr, re.M)
    return proc.returncode, proc.stdout, int(frozen)


def in_process(capsys, monkeypatch, argv):
    """Exit code and stdout bytes of `main(argv)`, which leaves the heap unfrozen."""
    monkeypatch.delenv("SCHEME_FORGE_CACHE_DIR", raising=False)
    code = main(argv)
    assert gc.get_freeze_count() == 0
    return code, capsys.readouterr().out.encode()


@pytest.mark.parametrize(
    "command",
    [LABELS, "fusion check --q 9 --fine m --coarse psl", "build --q 9 --group m --format json --out {out}"],
    ids=["labels", "exit-1", "out-file"],
)
def test_the_entry_freezes_after_main_and_keeps_its_code_and_bytes(command, tmp_path, capsys, monkeypatch):
    outs = [tmp_path / "in-process.json", tmp_path / "entry.json"]
    code, stdout = in_process(capsys, monkeypatch, command.format(out=outs[0]).split())
    entry_code, entry_stdout, frozen = through_entry(tmp_path, command.format(out=outs[1]).split())
    assert frozen > 0
    assert (entry_code, entry_stdout) == (code, stdout)
    if command == LABELS:
        digest = {"exit": code, "bytes": len(stdout), "sha256": hashlib.sha256(stdout).hexdigest()}
        assert digest == golden.MANIFEST[LABELS]
    elif "--out" in command:
        assert stdout == b"" and outs[0].read_bytes() == outs[1].read_bytes() != b""
    else:
        assert code == 1 and b"is NOT a fusion" in stdout


def test_the_script_and_the_module_call_one_entry():
    """`[project.scripts] scheme-forge`, `__main__.py` and `cli.py` run as a
    script name one function of `cli`.  Python 3.10 has no `tomllib`, so
    `pyproject.toml` is read with a regex."""
    toml = (ROOT / "pyproject.toml").read_text()
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", toml, re.M | re.S)
    (script,) = re.findall(r'^scheme-forge = "scheme_forge\.cli:(\w+)"$', scripts.group(1), re.M)
    entry = r"import sys\n\nfrom \.cli import (\w+)\n\nsys\.exit\(\1\(\)\)\n"
    module = re.fullmatch(entry, (SRC / "__main__.py").read_text())
    tail = r'\nif __name__ == "__main__":\n    sys\.exit\((\w+)\(\)\)\n\Z'
    as_script = re.search(tail, (SRC / "cli.py").read_text())
    assert script == module.group(1) == as_script.group(1) == "run"
