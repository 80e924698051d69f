"""Command-line surface: exit codes, formats, determinism, cache."""

import hashlib
import json
import re

import pytest

from scheme_forge import moebius as mo
from scheme_forge import schemes as sc
from scheme_forge.cli import SCHEME_NAMES, main


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
    calls = []
    real = sc._fuses_onto
    monkeypatch.setattr(sc, "_fuses_onto", lambda *args: calls.append(1) or real(*args))
    code, out, _ = run(capsys, "fusion", "check", "--q", "25", "--fine", "psl", "--coarse", "m")
    assert code == 0 and "is a fusion" in out
    assert len(calls) == 1


# sha256 of the stdout of `build --format json --p-tensor`, then of
# `build --format csv`, for each scheme name in turn (every group above
# q = 27, where T(q+1) and FT are slow to build), each preceded by the
# name, format and exit code
BUILD_DIGESTS = {
    5: "56629fe201f3baff42dff4879b599f85316c303d035920252e207961a2a97be7",
    9: "9a34818e38fb62bba86d6dd05952f2a0ebbce8682f3fbdce8edf6b3ec65b4e45",
    25: "5ab23b15951241151e0aca83b4513eded1e1b44ac359ae3b88c01fdd9efb5b3d",
    27: "ca51ffb01dd2890f7b3260bec4591a45cd3c441872ddd0337bd680324d1a197b",
    49: "5281863b24bfe21456b027f1a44b1a82b0892b9820b6a3ea0b9fa24efc5675da",
    81: "27f606b83a7dc98567ade7d0058b82f1162487a4f2194e3da958ff8096d4ae03",
}


@pytest.mark.parametrize("q", sorted(BUILD_DIGESTS))
def test_build_p_tensor_outputs_keep_their_bytes(q, capsys, monkeypatch):
    monkeypatch.delenv("SCHEME_FORGE_CACHE_DIR", raising=False)
    h = hashlib.sha256()
    for name in SCHEME_NAMES if q <= 27 else mo.GROUPS:
        for fmt in (["--format", "json", "--p-tensor"], ["--format", "csv"]):
            code, out, _ = run(capsys, "build", "--q", str(q), "--group", name, *fmt)
            h.update(f"{name} {fmt[1]} {code}\n{out}".encode())
    assert h.hexdigest() == BUILD_DIGESTS[q]


# sha256 of the stdout of `build --domain <kind> --format json --p-tensor`,
# then of `build --domain <kind> --format csv`, for each group in turn,
# each preceded by the domain, group, format and exit code; computed when
# every plane-domain row was moved through `rho`
PLANE_BUILD_DIGESTS = {
    (9, "hyp-lines"): "5f1031801aafd5749e68184773cb4fc77e9495c071d062d5c41161caa507384c",
    (9, "hyp-points"): "be7e3a1085d58251e5012196f2cf59d76c92c39d21fd477c5a5a4a7bdba2a318",
    (25, "hyp-lines"): "98a23e2787126566748dc7a9ef4ed2ce29691d227a5b84c5c2ece5ce96429fb7",
    (25, "hyp-points"): "ef56fff7a93db509154813f42a3f5ccd3c8b6756d6973587920305c06edd265a",
    (81, "hyp-lines"): "7c0538b5eb39f1f56f4d364cc26b8c11d04bc15d018af49bc8dce5c1d58b2ada",
    (81, "hyp-points"): "652c9fdf46d8fc3ba230b83eacfba545a343c151221e294e4254e12d73e06ec6",
}


@pytest.mark.parametrize("q, kind", sorted(PLANE_BUILD_DIGESTS))
def test_plane_domain_builds_keep_their_bytes(q, kind, capsys, monkeypatch):
    monkeypatch.delenv("SCHEME_FORGE_CACHE_DIR", raising=False)
    h = hashlib.sha256()
    for name in mo.GROUPS:
        for fmt in (["--format", "json", "--p-tensor"], ["--format", "csv"]):
            code, out, _ = run(capsys, "build", "--q", str(q), "--domain", kind, "--group", name, *fmt)
            h.update(f"{kind} {name} {fmt[1]} {code}\n{out}".encode())
    assert h.hexdigest() == PLANE_BUILD_DIGESTS[q, kind]


# sha256 of `verify paper --all-q --deep --format json` with its
# `elapsed` lines removed
VERIFY_DIGEST = "21b258f739f2615b8ef99af7416a69bc91cfb27ef9c285c80a476b60d8c43840"


def test_verify_report_keeps_its_bytes(capsys):
    code, out, _ = run(capsys, "verify", "paper", "--all-q", "--deep", "--format", "json")
    assert code == 0
    kept = re.sub(r'\n *"elapsed": [^\n]*', "", out)
    assert kept.count("elapsed") == 0
    assert hashlib.sha256(kept.encode()).hexdigest() == VERIFY_DIGEST


def test_triangular_build_at_q81_keeps_its_bytes(capsys, monkeypatch):
    """The closed-form T(82), which the generic orbit path took about 20 s
    to build: the digest of `build --format json --p-tensor`, then of
    `build --format csv`, as in BUILD_DIGESTS, computed with that path."""
    monkeypatch.delenv("SCHEME_FORGE_CACHE_DIR", raising=False)
    h = hashlib.sha256()
    for fmt in (["--format", "json", "--p-tensor"], ["--format", "csv"]):
        code, out, _ = run(capsys, "build", "--q", "81", "--group", "t", *fmt)
        h.update(f"t {fmt[1]} {code}\n{out}".encode())
    assert h.hexdigest() == T81_DIGEST


T81_DIGEST = "dcf61e62946e8ef7c1a0689e08ecdde3a6a62ef08bd09bb59ae3d3f0609b870e"

# sha256 of the stdout of `build --format json --p-tensor` and of `build
# --format csv` for FT and T, computed when both builders filled the n x n
# matrix and certified it against its image under each automorphism
CLOSED_FORM_DIGESTS = {
    (49, "ft", "json"): "e77a7efd06582be716904c05c7b735985d7c411211df73f207db0f51cf777d21",
    (49, "ft", "csv"): "50a6146300d7d3caf03ef311716f9e1dd5eae650a63597d2ebfd18e7c71063b1",
    (49, "t", "json"): "b9c26b56a9beaba9cf2b7e5a90eac061a453367bf0b3cab13e6b191de881a616",
    (49, "t", "csv"): "586d569a928ad32417f4809ab14bdd458d4129b5a2d9835ff166018811162277",
    (81, "ft", "json"): "810654b6c394afd35b52e7896328c4a6c46d84b2afb99f06bc3d0366b5df1484",
    (81, "ft", "csv"): "03ef614923030bc7ea8f3f1dfca2b1468808d48495e89976fedeed38ff8a613d",
    (81, "t", "json"): "2f3f246869f9f8a3c15c06f7149aa079b0db93333e721ae3e070d57a12d769d1",
    (81, "t", "csv"): "d3a75523d679c4afb1011fbaa8bc04ddd522dd3a790b7ad8cf6e21a5482ceb94",
    (121, "ft", "json"): "a35d7d05d707affa9deca907e99955fd0378eb0df856a5b4c0fc2342764b5dfc",
    (121, "ft", "csv"): "875df3840fc4790ac08a53eb7d23e10fedfc7bb9ea11e40e92792ad5166607e1",
    (121, "t", "json"): "2ba637865b483ba8c97ca1a68522ab4adc4614674ee8a951a642d85fa8023c7a",
    (121, "t", "csv"): "bd045144479ffa44f150f3bb1835662fd61558e69c1197e214de443467b1cfbc",
}


@pytest.mark.parametrize("q, name, fmt", sorted(CLOSED_FORM_DIGESTS))
def test_closed_form_builds_keep_their_bytes(q, name, fmt, capsys):
    extra = ["--p-tensor"] if fmt == "json" else []
    code, out, _ = run(capsys, "build", "--q", str(q), "--group", name, "--format", fmt, *extra)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CLOSED_FORM_DIGESTS[q, name, fmt]


# sha256 of the stdout of each command of the benchmark's CLI session
# (perfbench/workloads.py), every one exiting 0, the same against an empty
# cache directory and against the cache that the first pass filled;
# computed when the cache was written by `np.savez` of the filled matrix
CLI_SESSION_DIGESTS = {
    "scheme labels --q 9 --group psl":
        "2f71a3e6497bf14a69393d38a22b3c2e26f2629cb88d2768a0f9be3a832e87c1",
    "scheme labels --q 9 --group psl --modulus 1,0,1":
        "d321aa2e79d5ec2f9838cbebd2cfeaa1be020898af5012e50d084ef515a143ea",
    "scheme labels --q 49 --group m --format json":
        "f244e15446706dbe944fcb575bdad5ff282357665960f5aa2eba3d8fb14e90da",
    "fusion check --q 49 --fine psl --coarse m --format json":
        "cbf960bf881780b645afb435e8ad8d8d3eb722b6c306d34234566b6a76994ac1",
    "build --q 49 --group pgammal --format json --p-tensor":
        "024146079791cc3b3f899004f8327c11199d8f52881153897e77a979248b42a1",
    "build --q 25 --group psl --format csv":
        "9e58eb1d378f572cbd4f54b712693790a06dfd7cff183ef36c13a5a49aadab92",
    "scheme labels --q 81 --group psl --format json":
        "5fbefa943ea2ad502354701401d096842cec41f31493a5ff3fad771f30c52270",
}


def test_benchmark_cli_session_keeps_its_bytes_cold_and_warm(tmp_path, monkeypatch, capsys):
    """The session runs in-process against an empty cache, which it
    fills, then again against the filled cache, where every lookup hits:
    each stdout keeps its bytes either way."""
    from pathlib import Path

    from scheme_forge import cli

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from perfbench.workloads import CLI_SESSION

    assert [" ".join(argv) for argv in CLI_SESSION] == list(CLI_SESSION_DIGESTS)
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
        for argv in CLI_SESSION:
            code, out, _ = run(capsys, *argv)
            digest = hashlib.sha256(out.encode()).hexdigest()
            assert (code, digest) == (0, CLI_SESSION_DIGESTS[" ".join(argv)]), (phase, argv)
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
    from scheme_forge.fission import pgl_scheme
    from scheme_forge.gf import field

    argv = ("scheme", "labels", "--q", "9", "--group", "psl")
    monkeypatch.delenv("SCHEME_FORGE_CACHE_DIR", raising=False)
    want = run(capsys, *argv)
    fld = field(9)
    path = cli._cache_path(str(tmp_path), fld, "psl", "pairs")
    np.savez(path, relation_matrix=pgl_scheme(fld).relation_matrix)
    monkeypatch.setenv("SCHEME_FORGE_CACHE_DIR", str(tmp_path))
    assert run(capsys, *argv) == want
    assert run(capsys, *argv) == want  # the rebuilt file was written back


def test_cache_load_certifies_the_whole_matrix(tmp_path):
    """Two entries swapped in a row other than the base row keep the
    structure and the labels of the base row intact; the generators'
    certificate rejects the file, which a structure-only load accepted."""
    import numpy as np

    from scheme_forge import cli
    from scheme_forge.fission import psl_scheme
    from scheme_forge.gf import field

    fld = field(9)
    S = psl_scheme(fld)
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
    from scheme_forge import moebius as mo
    from scheme_forge.gf import field

    fld = field(q)
    for gid in ("pgl", "psl", "pgammal") + (("m",) if fld.m % 2 == 0 else ()):
        code, out, _ = run(capsys, "group", "info", "--q", str(q), "--group", gid, "--format", "json")
        assert code == 0
        assert json.loads(out)["base_pair_stabilizer_size"] == len(mo.base_pair_stabilizer(fld, gid))
