"""Command-line surface: exit codes, formats, determinism, cache."""

import json

import pytest

import golden
from scheme_forge import moebius as mo
from scheme_forge import schemes as sc
from scheme_forge.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_m9_summary(capsys):
    code, out, _ = run(capsys, "build", "--q", "9", "--group", "m", "--domain", "pairs")
    assert code == 0
    assert "n = 45" in out and "classes d = 4" in out
    assert "symmetric: yes" in out


def test_build_psl7(capsys):
    code, out, _ = run(capsys, "build", "--q", "7", "--group", "psl")
    assert code == 0
    assert "classes d = 6" in out
    assert "symmetric: no" in out


def test_build_json_schema(capsys):
    code, out, _ = run(
        capsys, "build", "--q", "9", "--group", "pgammal", "--format", "json", "--p-tensor"
    )
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == 1
    assert (data["n"], data["d"]) == (45, 4)
    assert data["valencies"][0] == 1
    assert len(data["p_tensor"]) == data["d"] + 1
    assert data["labels"][0].startswith("Λ")


def test_build_csv_p_tensor(capsys):
    code, out, _ = run(capsys, "build", "--q", "5", "--group", "pgl", "--format", "csv")
    assert code == 0
    assert out.startswith("B_0")
    # d+1 = 4 blocks of 4 rows each
    lines = out.strip().splitlines()
    assert sum(1 for l in lines if l.startswith("B_")) == 4


@pytest.mark.parametrize("kind", ["tangent-lines", "elliptic-lines"])
def test_build_rejects_the_domains_off_the_paper(capsys, kind):
    code, out, err = run(capsys, "build", "--q", "9", "--group", "m", "--domain", kind)
    assert (code, out) == (2, "")
    assert "invalid choice" in err


def test_build_deterministic(capsys):
    args = ("build", "--q", "9", "--group", "psl", "--format", "json", "--p-tensor")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


@pytest.mark.parametrize("kind", ["hyp-lines", "hyp-points"])
def test_build_on_the_conic_domains_matches_pairs(capsys, kind):
    args = ("build", "--q", "9", "--group", "psl", "--format", "json", "--p-tensor")
    code, out, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args, "--domain", kind)
    assert code == code2 == 0
    a, b = json.loads(out), json.loads(out2)
    assert b["domain"] == kind
    for key in ("n", "d", "valencies", "transpose_map", "p_tensor"):
        assert a[key] == b[key], key


def test_modulus_override_is_isomorphic(capsys):
    code, out1, _ = run(capsys, "build", "--q", "9", "--group", "m", "--format", "json")
    code2, out2, _ = run(
        capsys, "build", "--q", "9", "--group", "m", "--format", "json",
        "--modulus", "1,0,1",
    )
    assert code == code2 == 0
    a, b = json.loads(out1), json.loads(out2)
    assert a["d"] == b["d"] and sorted(a["valencies"]) == sorted(b["valencies"])


def test_reducible_modulus_is_a_usage_error(capsys):
    # (x^2 + 1)^2 has no root in GF(3), yet it is reducible
    code, out, err = run(
        capsys, "scheme", "labels", "--q", "81", "--group", "psl", "--modulus", "1,0,2,0,1"
    )
    assert (code, out) == (2, "")
    assert err == "error: modulus (1, 0, 2, 0, 1) is reducible over GF(3)\n"


def test_build_exhaustive_keeps_the_bytes(capsys, monkeypatch):
    checked = []
    real = sc.Scheme.verify_exhaustive
    monkeypatch.setattr(sc.Scheme, "verify_exhaustive", lambda S: checked.append(S.n) or real(S))
    args = ("build", "--q", "9", "--group", "m")
    code, out, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args, "--exhaustive")
    assert code == code2 == 0
    assert out2 == out and checked == [45]


def test_verify_paper_q9(capsys):
    code, out, _ = run(capsys, "verify", "paper", "--q", "9")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_verify_paper_json(capsys):
    code, out, _ = run(capsys, "verify", "paper", "--q", "5", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True and data["failed"] == []
    assert all(r["passed"] for r in data["reports"])


def test_verify_rejects_bad_q(capsys):
    code, _, err = run(capsys, "verify", "paper", "--q", "6")
    assert code == 2
    assert "prime power" in err
    code, _, _ = run(capsys, "verify", "paper", "--q", "4")
    assert code == 2
    code, _, _ = run(capsys, "verify", "paper", "--q", "3")
    assert code == 2


def test_verify_rejects_q_above_the_size_limit(capsys, monkeypatch):
    from scheme_forge import fission

    built = []
    real = fission.domain_for
    monkeypatch.setattr(fission, "domain_for", lambda *a: built.append(a) or real(*a))
    code, out, err = run(capsys, "verify", "paper", "--q", "5", "--q", "169")
    assert (code, out, built) == (2, "", [])
    assert "q <= 127" in err and "--allow-large" not in err


def test_usage_error_exit_code(capsys):
    assert main(["build", "--q", "9", "--group", "nonsense"]) == 2
    assert main(["nonsense"]) == 2
    assert main(["build"]) == 2


def test_m_requires_square_q(capsys):
    code, _, err = run(capsys, "build", "--q", "7", "--group", "m")
    assert code == 2
    assert "even power" in err


def test_allow_large_guard(capsys):
    code, _, err = run(capsys, "build", "--q", "169", "--group", "pgl")
    assert code == 2
    assert "--allow-large" in err


def test_allow_large_reaches_the_triangular_scheme(capsys, monkeypatch):
    monkeypatch.setattr(sc, "MAX_DEFAULT_Q", 7)
    code, out, _ = run(capsys, "build", "--q", "9", "--group", "t", "--allow-large")
    assert code == 0 and "n = 45" in out
    code, _, err = run(capsys, "build", "--q", "9", "--group", "t")
    assert code == 2 and "--allow-large" in err


def test_oversized_q_is_refused_before_any_field_is_built(capsys, monkeypatch):
    """The field tables grow as q^2, so the size bound comes first: built
    before it, they made `build --q 1009` take 1.1 s and 194 MB of max
    RSS (one run, 2 vCPUs) before it exited 2."""
    from scheme_forge import gf

    def refuse(self, *args, **kwargs):
        raise AssertionError("a field was built before the size guard")

    monkeypatch.setattr(gf.GF, "__init__", refuse)
    code, _, err = run(capsys, "build", "--q", "4001", "--group", "psl")
    assert code == 2 and "--allow-large" in err
    code, _, err = run(capsys, "verify", "paper", "--q", "4001")
    assert code == 2 and "q <= 127" in err


def test_the_library_takes_no_size_knob():
    """The one size check is the CLI's, on q as it arrives: no library
    callable takes `allow_large` or `max_order`.  Nor does any take
    `check`: every `Scheme` is proven, so none opts out of its proof."""
    import inspect

    import scheme_forge
    from scheme_forge import cli, fission, schemes

    callables = [getattr(scheme_forge, name) for name in dir(scheme_forge)]
    for mod in (cli, fission, schemes, mo):
        callables += [v for v in vars(mod).values() if getattr(v, "__module__", None) == mod.__name__]
    callables += [m for c in list(callables) if inspect.isclass(c) for m in vars(c).values()]
    checked = 0
    for fn in filter(callable, callables):
        try:
            params = inspect.signature(fn).parameters
        except (TypeError, ValueError):
            continue
        checked += 1
        assert not {"allow_large", "max_order", "check"} & params.keys(), fn
    assert checked > 100


@pytest.mark.parametrize(
    "argv",
    [("geometry", "dump", "--what", "conic"), ("group", "info", "--group", "pgl")],
)
def test_every_command_with_allow_large_guards_the_size(capsys, argv):
    code, out, err = run(capsys, *argv, "--q", "131")
    assert (code, out) == (2, "") and "--allow-large" in err
    code, out, _ = run(capsys, *argv, "--q", "131", "--allow-large")
    assert code == 0 and out


@pytest.mark.parametrize(
    "argv",
    [
        ("scheme", "labels", "--q", "5", "--group", "psl", "--format", "csv"),
        ("fusion", "check", "--q", "5", "--fine", "psl", "--coarse", "t", "--format", "csv"),
        ("group", "info", "--q", "5", "--group", "pgl", "--format", "csv"),
        ("geometry", "dump", "--q", "5", "--what", "conic", "--format", "json"),
    ],
)
def test_format_offers_only_what_the_command_writes(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "invalid choice" in err or "unrecognized arguments" in err


def test_geometry_dump(capsys):
    code, out, _ = run(capsys, "geometry", "dump", "--q", "5", "--what", "conic")
    assert code == 0
    data = json.loads(out)
    assert len(data["elements"]) == 6
    # elements serialize as integer coefficient vectors
    assert data["elements"][0] == [[1], [0], [0]] or all(
        isinstance(c, list) for c in data["elements"][0]
    )
    code, out, _ = run(capsys, "geometry", "dump", "--q", "5", "--what", "lines")
    counts = {}
    for e in json.loads(out)["elements"]:
        counts[e["class"]] = counts.get(e["class"], 0) + 1
    assert counts == {"hyperbolic": 15, "tangent": 6, "elliptic": 10}
    code, out, _ = run(capsys, "geometry", "dump", "--q", "5", "--what", "points")
    assert len(json.loads(out)["elements"]) == 31


# the byte gates of the CLI outputs, entries of golden.json
test_geometry_dump_keeps_its_bytes = golden.gate(r"geometry dump --q (\d+) --what (\w+)")
test_group_info_and_scheme_labels_keep_their_bytes = golden.gate(
    r"(?:group|scheme) (info|labels) --q (\d+) --group (\w+) --format (\w+)"
)
# the closed-form FT and T(q+1) above q = 27, one output each
test_closed_form_builds_keep_their_bytes = golden.gate(
    r"build --q (\d+) --group (ft|t) --format (\w+)(?: --p-tensor)?",
    lambda q, name, fmt: (q, name, fmt) if int(q) > 27 else None,
)
# every scheme on pairs at q, json and csv (every group above q = 27)
test_build_p_tensor_outputs_keep_their_bytes = golden.gate(
    r"build --q (\d+) --group (\w+) --format \w+(?: --p-tensor)?",
    lambda q, name: (q,) if int(q) <= 27 or name in mo.GROUPS else None,
)
# every group on a conic domain at q, json and csv
test_plane_domain_builds_keep_their_bytes = golden.gate(
    r"build --q (\d+) --domain ([\w-]+) --group \w+ --format \w+(?: --p-tensor)?"
)
test_verify_report_keeps_its_bytes = golden.gate(r"verify paper --all-q --deep --format json")


def test_group_info(capsys):
    code, out, _ = run(capsys, "group", "info", "--q", "9", "--group", "pgammal", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 1440
    assert data["base_pair_stabilizer_size"] == 32
    for g in data["generators"]:
        assert set(g) == {"matrix", "frob"}
        assert all(isinstance(v, list) for v in g["matrix"])


def test_scheme_labels(capsys):
    code, out, _ = run(capsys, "scheme", "labels", "--q", "9", "--group", "psl")
    assert code == 0
    assert "Γ_0" in out and "Γ_-1" in out
    code, out, _ = run(capsys, "scheme", "labels", "--q", "9", "--group", "m", "--format", "json")
    data = json.loads(out)
    assert len(data["classes"]) == 5
    assert sum(c["valency"] for c in data["classes"]) == 45


def test_fusion_check(capsys):
    code, out, _ = run(capsys, "fusion", "check", "--q", "9", "--fine", "psl", "--coarse", "m")
    assert code == 0 and "is a fusion" in out
    code, out, _ = run(capsys, "fusion", "check", "--q", "9", "--fine", "m", "--coarse", "psl")
    assert code == 1 and "is NOT a fusion" in out
    code, out, _ = run(
        capsys, "fusion", "check", "--q", "9", "--fine", "ft", "--coarse", "t", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["is_fusion"] is True and data["partition"][0] == 0


def test_fusion_check_is_one_comparison(capsys, monkeypatch):
    from scheme_forge import cli
    from scheme_forge.gf import GF

    calls = []
    real = sc._fuses_onto
    monkeypatch.setattr(sc, "_fuses_onto", lambda *args: calls.append(1) or real(*args))
    # the spy is a patched kernel: no cached field may fill its memo under it
    monkeypatch.setattr(cli, "field", GF)
    code, out, _ = run(capsys, "fusion", "check", "--q", "25", "--fine", "psl", "--coarse", "m")
    assert code == 0 and "is a fusion" in out
    assert len(calls) == 1


def test_benchmark_cli_session_keeps_its_bytes_cold_and_warm(tmp_path, monkeypatch, capsys):
    """The session runs in-process against an empty cache, which it
    fills, then again against the filled cache, where every lookup hits:
    each command's exit code and stdout equal the benchmark reference
    either way."""
    from pathlib import Path

    from scheme_forge import cli

    root = Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root))
    from perfbench.workloads import CLI_SESSION, cli_digest

    reference = json.loads((root / "perfbench" / "reference.json").read_text())["cli"]
    assert len(reference) == len(CLI_SESSION) and {r["exit"] for r in reference} == {0}
    monkeypatch.setenv("SCHEME_FORGE_CACHE_DIR", str(tmp_path))
    hits = []
    real = cli._cache_load

    def load(*args):
        S = real(*args)
        hits.append(S is not None)
        return S

    monkeypatch.setattr(cli, "_cache_load", load)
    for phase in ("cold", "warm"):
        hits.clear()
        for argv, want in zip(CLI_SESSION, reference):
            code, out, _ = run(capsys, *argv)
            assert cli_digest(code, out.encode()) == want, (phase, argv)
        # eight lookups, as `fusion check` builds two schemes; cold, only
        # its coarse q = 49 `m` was written by an earlier command
        assert len(hits) == 8 and hits.count(True) == (1 if phase == "cold" else 8)
    assert len(list(tmp_path.glob("*.npz"))) == 7


def test_cold_cache_write_holds_no_n_by_n_array(tmp_path):
    """The cache file of a stabilizer-path scheme is streamed from its row
    blocks: the matrix is never filled, the file holds the matrix that a
    dense fill gives, and the generators certify it on load.  Measured
    0.08 n^2 bytes at q = 81: the row kernel's temporaries, about 16
    bytes an entry of a row block, about 1 MB whatever q is (0.63 n^2 at
    q = 49); the write through `np.savez` of the filled matrix peaked
    at 2.0 n^2."""
    import tracemalloc

    import numpy as np

    from scheme_forge import cli
    from scheme_forge.fission import _labeled_scheme
    from scheme_forge.gf import field

    fld = field(81)
    S = _labeled_scheme(fld, "psl")
    tracemalloc.start()
    try:
        cli._cache_save(str(tmp_path), fld, "psl", "pairs", S)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert S._matrix is None
    assert peak < 0.2 * S.n * S.n
    with np.load(cli._cache_path(str(tmp_path), fld, "psl", "pairs")) as data:
        assert np.array_equal(data["relation_matrix"], S.relation_matrix)
        assert data["relation_matrix"].dtype == S.relation_matrix.dtype
    loaded = cli._cache_load(str(tmp_path), fld, "psl", "pairs")
    assert loaded.verified_by == "certificate"
    assert np.array_equal(loaded.relation_matrix, S.relation_matrix)


def test_out_file(tmp_path, capsys):
    path = tmp_path / "scheme.json"
    code = main(["build", "--q", "5", "--group", "pgl", "--format", "json", "--out", str(path)])
    capsys.readouterr()
    assert code == 0
    assert json.loads(path.read_text())["n"] == 15


def test_cache_roundtrip(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SCHEME_FORGE_CACHE_DIR", str(tmp_path))
    args = ("build", "--q", "9", "--group", "m", "--format", "json")
    _, out1, _ = run(capsys, *args)
    files = list(tmp_path.iterdir())
    assert files, "cache directory should be populated"
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_cache_is_keyed_by_modulus(tmp_path, monkeypatch, capsys):
    commands = [
        ("scheme", "labels", "--q", "9", "--group", "psl"),
        ("scheme", "labels", "--q", "9", "--group", "psl", "--modulus", "1,0,1"),
    ]
    monkeypatch.delenv("SCHEME_FORGE_CACHE_DIR", raising=False)
    uncached = [run(capsys, *argv) for argv in commands]
    assert uncached[0][1] != uncached[1][1]
    monkeypatch.setenv("SCHEME_FORGE_CACHE_DIR", str(tmp_path))
    for _ in range(2):  # the second round reads the files the first wrote
        for argv, want in zip(commands, uncached):
            assert run(capsys, *argv) == want
    assert len(list(tmp_path.glob("*.npz"))) == 2


@pytest.mark.parametrize("damage", ["truncate", "garbage", "other-key", "renumbered"])
def test_damaged_cache_file_is_a_miss(tmp_path, monkeypatch, capsys, damage):
    import numpy as np

    argv = ("scheme", "labels", "--q", "9", "--group", "m")
    monkeypatch.delenv("SCHEME_FORGE_CACHE_DIR", raising=False)
    want = run(capsys, *argv)
    monkeypatch.setenv("SCHEME_FORGE_CACHE_DIR", str(tmp_path))
    assert run(capsys, *argv) == want
    (path,) = tmp_path.glob("*.npz")
    if damage == "truncate":
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    elif damage == "garbage":
        path.write_bytes(b"not a zip archive")
    elif damage == "renumbered":
        # still certified and labeled, but classes 1 and 2 swap numbers
        with np.load(path) as data:
            M = data["relation_matrix"]
        swap = np.arange(M.max() + 1, dtype=M.dtype)
        swap[[1, 2]] = [2, 1]
        np.savez(path, relation_matrix=swap[M])
    else:
        np.savez(path, other=np.zeros((45, 45), dtype=np.uint8))
    assert run(capsys, *argv) == want
    assert run(capsys, *argv) == want  # the rebuilt file was written back
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_module_entry_point():
    proc = _run_module(["build", "--q", "5", "--group", "psl"])
    assert proc.returncode == 0
    assert "classes d = 5" in proc.stdout


def test_misfiled_cache_file_is_a_miss(tmp_path, monkeypatch, capsys):
    """A pgl matrix under the psl name: every pgl class holds pairs of two
    psl labels, so the checked labeling rejects it and the scheme is rebuilt."""
    import numpy as np

    from scheme_forge import cli
    from scheme_forge.fission import labeled_scheme
    from scheme_forge.gf import field

    argv = ("scheme", "labels", "--q", "9", "--group", "psl")
    monkeypatch.delenv("SCHEME_FORGE_CACHE_DIR", raising=False)
    want = run(capsys, *argv)
    fld = field(9)
    path = cli._cache_path(str(tmp_path), fld, "psl", "pairs")
    np.savez(path, relation_matrix=labeled_scheme(fld, "pgl").relation_matrix)
    monkeypatch.setenv("SCHEME_FORGE_CACHE_DIR", str(tmp_path))
    assert run(capsys, *argv) == want
    assert run(capsys, *argv) == want  # the rebuilt file was written back


def test_cache_load_certifies_the_whole_matrix(tmp_path):
    """Two entries swapped in a row other than the base row keep the
    structure and the labels of the base row intact; the generators'
    certificate rejects the file, which a structure-only load accepted."""
    import numpy as np

    from scheme_forge import cli
    from scheme_forge.fission import labeled_scheme
    from scheme_forge.gf import field

    fld = field(9)
    S = labeled_scheme(fld, "psl")
    path = cli._cache_path(str(tmp_path), fld, "psl", "pairs")
    np.savez(path, relation_matrix=S.relation_matrix)
    loaded = cli._cache_load(str(tmp_path), fld, "psl", "pairs")
    assert loaded.verified_by == "certificate"
    assert np.array_equal(loaded.relation_matrix, S.relation_matrix)
    M = S.relation_matrix.copy()
    x = S.n - 1
    assert x != S.domain.base_index
    b = int(np.flatnonzero((M[x] != M[x, 0]) & (M[x] != 0))[0])
    M[x, [0, b]] = M[x, [b, 0]]
    np.savez(path, relation_matrix=M)
    assert cli._cache_load(str(tmp_path), fld, "psl", "pairs") is None


def _run_module(argv, **env):
    import os
    import subprocess
    import sys

    import scheme_forge

    src = os.path.dirname(os.path.dirname(scheme_forge.__file__))
    return subprocess.run(
        [sys.executable, "-m", "scheme_forge", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src, **env},
    )


def test_unwritable_out_file_is_a_usage_error(tmp_path):
    out = tmp_path / "missing-dir" / "x"
    proc = _run_module(["build", "--q", "9", "--group", "psl", "--out", str(out)])
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


def test_cache_dir_under_a_file_is_a_usage_error(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    proc = _run_module(
        ["build", "--q", "9", "--group", "psl"], SCHEME_FORGE_CACHE_DIR=str(blocker / "cache")
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


@pytest.mark.parametrize("q", [5, 9, 25, 27, 49, 81])
def test_group_info_stabilizer_size_is_the_enumerated_one(capsys, q):
    from scheme_forge.gf import field

    fld = field(q)
    for gid in mo.groups(fld):
        code, out, _ = run(capsys, "group", "info", "--q", str(q), "--group", gid, "--format", "json")
        assert code == 0
        assert json.loads(out)["base_pair_stabilizer_size"] == len(mo.base_pair_stabilizer(fld, gid))


def test_huge_q_with_allow_large_is_a_usage_error_at_once():
    """`--allow-large` lifts the q <= 127 check, but a field above
    `gf.MAX_Q` is refused before it is factored or any table is allocated,
    so a ten-digit prime exits 2 with a message within a second."""
    import time

    t0 = time.perf_counter()
    proc = _run_module(["build", "--q", "1000000007", "--group", "psl", "--allow-large"])
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    assert elapsed < 1.0


def test_memory_error_is_a_usage_error(capsys, monkeypatch):
    from scheme_forge import cli

    def exhausted(q, modulus=None):
        raise MemoryError()

    monkeypatch.setattr(cli, "field", exhausted)
    code, out, err = run(capsys, "build", "--q", "9", "--group", "psl")
    assert (code, out, err) == (2, "", "error: out of memory\n")
