"""The layer tracer of the benchmark (perfbench/tracer.py) wraps package
functions by name; installing and removing it must find every name and
put every original back."""

import inspect
import sys
from pathlib import Path

import scheme_forge.cli  # noqa: F401  (the tracer wraps CLI functions too)


def _package_namespaces():
    spaces = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "scheme_forge" or name.startswith("scheme_forge.")):
            continue
        spaces[name] = mod
        for key, value in vars(mod).items():
            if inspect.isclass(value) and value.__module__ == name:
                spaces[f"{name}.{key}"] = value
    return {name: dict(vars(ns)) for name, ns in spaces.items()}


def test_tracer_installs_and_restores_every_attribute(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from perfbench.tracer import Tracer

    before = _package_namespaces()
    tracer = Tracer().install()
    try:
        assert _package_namespaces() != before
    finally:
        tracer.uninstall()
    after = _package_namespaces()
    assert after.keys() == before.keys()
    for name, attrs in before.items():
        assert after[name].keys() == attrs.keys(), name
        for key, value in attrs.items():
            assert after[name][key] is value, f"{name}.{key}"


def test_traced_verify_builds_each_q25_scheme_once(monkeypatch):
    """`verify_paper` builds each scheme once and passes it to the reports
    that read it, so the benchmark counts one stabilizer build per group
    at q = 25, where the class-count, transpose and commutativity reports
    read psl and m twice each."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from perfbench.tracer import Tracer
    from scheme_forge import fission
    from scheme_forge.gf import GF

    # the tracer wraps kernels, so the run fills the memo of a new field
    # rather than one that later tests read (see conftest.py)
    monkeypatch.setattr(fission, "field", GF)
    with Tracer() as tracer:
        reports = fission.verify_paper([25])
    assert all(r.passed for r in reports)
    builds = [row for row in tracer.rows() if row[5] is not None and row[5][0] == "build"]
    assert {row[0] for row in builds} == {"schemes.orbital_scheme_via_stabilizer"}
    assert sorted(row[5][3] for row in builds) == ["m", "pgammal", "psl"]
