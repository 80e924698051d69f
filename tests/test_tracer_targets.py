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
