"""The byte gates: every pinned output is one entry of `golden.json`.

An id is the invocation that produces its output.  A CLI id is the argv
of a `scheme-forge` command, and its entry holds the exit code and the
size and sha256 of its stdout (`verify` without its `elapsed` lines), as
the `cli` entries of `perfbench/reference.json` do.  A `matrix <builder>
--opt value ...` id names a relation matrix built by `MATRIX_BUILDERS`,
and its entry holds the matrix's dtype and the sha256 of its bytes.

The test modules check the entries through `gate`, each gate over the ids
of one kind of output; `test_golden.py` holds every entry to exactly one
gate.  A failing entry's message carries the new value.  A change that
means to alter an output pastes that value into `golden.json` and names
the id in CHANGES.md.
"""

import hashlib
import json
import re
from collections import Counter, defaultdict
from pathlib import Path

import pytest

from scheme_forge import fission as fi
from scheme_forge import geometry as geo
from scheme_forge.cli import main
from scheme_forge.gf import field
from scheme_forge.schemes import fuse, fusion_map, group_orbital_scheme, orbital_scheme_via_stabilizer

GOLDEN = Path(__file__).with_name("golden.json")


def _refuse_repeats(pairs):
    """A JSON object as a dict, refusing a repeated key, which a plain
    `json.load` would silently resolve to its last value."""
    repeated = sorted(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
    if repeated:
        raise ValueError(f"{GOLDEN.name} repeats {repeated}")
    return dict(pairs)


MANIFEST = json.loads(GOLDEN.read_text(), object_pairs_hook=_refuse_repeats)

# every id that a gate checks, once per gate that claims it
CLAIMED = []


def _fused(fld, coarse):
    """psl fused onto FT or `m`, or FT fused onto T(q+1)."""
    ft = fi.build_ft(fld)
    if coarse == "t":
        return fuse(ft, [{"diagonal": 0, "share": 1}.get(lab.kind, 2) for lab in ft.labels])
    psl = fi.labeled_scheme(fld, "psl")
    return fuse(psl, fusion_map(ft if coarse == "ft" else fi.labeled_scheme(fld, "m"), psl))


# builder of a `matrix` id -> its scheme, from the field and the id's
# other options
MATRIX_BUILDERS = {
    "ft": fi.build_ft,
    "generic": lambda fld, domain, group: group_orbital_scheme(
        fld, group, geo.domain(geo.Plane(fld), domain)
    ),
    "stabilizer": lambda fld, group: orbital_scheme_via_stabilizer(
        fld, group, geo.pairs_domain(geo.Plane(fld))
    ),
    "fuse": _fused,
}


def check(key, capsys, monkeypatch):
    """Recompute the output of one id and compare it with its entry."""
    words = key.split()
    if words[0] == "matrix":
        opts = {flag.lstrip("-"): value for flag, value in zip(words[2::2], words[3::2])}
        M = MATRIX_BUILDERS[words[1]](field(int(opts.pop("q"))), **opts).relation_matrix
        got = {"dtype": str(M.dtype), "sha256": hashlib.sha256(M.tobytes()).hexdigest()}
    else:
        monkeypatch.delenv("SCHEME_FORGE_CACHE_DIR", raising=False)
        code = main(words)
        out = capsys.readouterr().out
        if words[0] == "verify":
            out = re.sub(r'\n *"elapsed": [^\n]*', "", out)
            assert out.count("elapsed") == 0
        stdout = out.encode()
        got = {"exit": code, "bytes": len(stdout), "sha256": hashlib.sha256(stdout).hexdigest()}
    assert got == MANIFEST[key], f"new value of {key!r}: {json.dumps(got, sort_keys=True)}"


def gate(pattern, case=lambda *groups: groups):
    """A test of the ids that `pattern` fully matches, one case per value
    of `case` on the pattern's groups (None claims no case), named by that
    value joined with "-"; each case checks all of its ids.  A pattern
    without groups gives one unparametrized test."""
    cases = defaultdict(list)
    for key in MANIFEST:
        m = re.fullmatch(pattern, key)
        if m and (c := case(*m.groups())) is not None:
            cases[c].append(key)
    assert cases, f"no entry of {GOLDEN.name} matches {pattern!r}"
    CLAIMED.extend(key for keys in cases.values() for key in keys)

    def test(keys, capsys, monkeypatch):
        for key in keys:
            check(key, capsys, monkeypatch)

    if list(cases) == [()]:
        return lambda capsys, monkeypatch: test(cases[()], capsys, monkeypatch)
    return pytest.mark.parametrize("keys", list(cases.values()), ids=["-".join(c) for c in cases])(test)
