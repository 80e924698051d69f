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


# sha256 of the stdout of `geometry dump`, computed when each coordinate
# was written through one `GF.coeffs` call per field code
GEOMETRY_DUMP_DIGESTS = {
    (5, "conic"): "e619d83185638d85c6c52080f28def925f0478f39845fd47e51aa1be3ab3d1b7",
    (5, "lines"): "51eed3ad3e3dad296e5408cb60d3feff43f422329347d65791c64b0b96815002",
    (5, "points"): "d51d026496e68f30bc092a491a757113aecc1621e2a3604669599b4ac33d749b",
    (9, "conic"): "d90ca1d2e5d31dda18fc7bacd2e0b3dab53dccd21ba86e5b2a7f8e8e01ad971f",
    (9, "lines"): "163be86dc153d316f58a7693053fd26c7734a180e16156022100cf3f896f0f58",
    (9, "points"): "6a2fa51036e29c38047d12e9a1e793a115cd663dbe845f7e268870fd11b193c5",
    (27, "conic"): "be831d1676b1098688d2a4e2d5843d0e6bdcbb2c05de58510c21a663278720f0",
    (27, "lines"): "bd7406af85aee712b2f2cb397393e385c7f891a68cf0c94002967c05f49bdaca",
    (27, "points"): "bd1412c27b8f90c46f46ac8b9b1c6a9f941ac5f7729780261274be85d72ef807",
    (49, "conic"): "4ef0265e8c06b93e9f808f4460c862b1d46310f3589b365cb0675873c9242e54",
    (49, "lines"): "59314117a7d6a74c194c5265618ad745ec0f4f7e7edfff2c176df0fbf0d6add1",
    (49, "points"): "c3113dcb90a9ad518a8d2d0109ff97cd3f7f0f050dae401b60ba6140b972e79c",
}


@pytest.mark.parametrize("q, what", sorted(GEOMETRY_DUMP_DIGESTS))
def test_geometry_dump_keeps_its_bytes(q, what, capsys):
    code, out, _ = run(capsys, "geometry", "dump", "--q", str(q), "--what", what)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, GEOMETRY_DUMP_DIGESTS[q, what])


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


# sha256 of the stdout of `group info` at every defined group and of
# `scheme labels` for psl, m and ft, in text and json, computed when both
# commands printed through the Moebius and FieldElement objects
GROUP_INFO_DIGESTS = {
    ("info", 5, "pgl", "text"): "9c6271a08c98b111a6df20e8471faed9215c987d3bb910fa0797682e972c5ddf",
    ("info", 5, "pgl", "json"): "48fd886c2788fb880b86060db1ae5d468d386920670c6ae4fc1003da99403917",
    ("info", 5, "psl", "text"): "6cb57c41e85ac2ed546e1aa2dc9ec825c0a949157a9fd9f8819716489f777e0d",
    ("info", 5, "psl", "json"): "123014274e44389f4c97f29d9b33186036b7839c3f9072ff46fb249f48a61e5e",
    ("info", 5, "pgammal", "text"): "7e82d06b04330513fc3a1f7d684c074c97e3881596468b982a63ed13c980a153",
    ("info", 5, "pgammal", "json"): "59400ddf769d6074c74a96967afa26a18e1ff68a24ed2eb52a5d16cabc904fa9",
    ("info", 9, "pgl", "text"): "84502e8060293d58a35067e95298ecc9cb608bcbb0caf3afca17fc61a7667dc8",
    ("info", 9, "pgl", "json"): "9eba6d46417e0f3a6a96c5e268312b13a3a7243bdf4bb5d9713c29fe4414067c",
    ("info", 9, "psl", "text"): "cf9ddc1be1cf3a8066d7f76c8f990aeb25b096de989a14dc236c0012c20def7d",
    ("info", 9, "psl", "json"): "29fd1a8875d14c14958f5a8de5d407555ee3de2b83326980fcf5f275cd28ef64",
    ("info", 9, "m", "text"): "68d7b90b5227d52ae66185678c4b90699032d2c6e5f9ace987bb69f681f0453f",
    ("info", 9, "m", "json"): "aa956f728ddd38789b7cba1ba9e3376d8e50897c7cf1f0f723ac20b6c7ff9bf2",
    ("info", 9, "pgammal", "text"): "f8be58622d3b6ab4217d21f1fb82b8d51b6ea489cc8dabdc9176180d9a97bb48",
    ("info", 9, "pgammal", "json"): "f4682ec02170daf97fed1b8deb7145c074b03e9d116a01853b97fb928743668b",
    ("info", 25, "pgl", "text"): "08d2c9d715eb22962016b522a71c749a8f756bca793afa3ffe3ead0922ad7fbe",
    ("info", 25, "pgl", "json"): "fcd5a35255b2ddc23e45de771d3e6428ba17260fd5ed47cf4dbaa711a230e790",
    ("info", 25, "psl", "text"): "2619e8ce184ff0259cc8324cb13bdd349bdbeea73c7eb86efca276b6c404e0fd",
    ("info", 25, "psl", "json"): "b8e1abc4c1d5b0488283a532b5c690e08b64986fa93dc189137a5e09b939a4ec",
    ("info", 25, "m", "text"): "fe0baa541b67251cc37c59d8541a6ac1d795ebdeb1e865ab7ad59cf03fadf772",
    ("info", 25, "m", "json"): "396857b2485aa5a9caf21e4c7b6b4283a1ca378d9da8c6e763917b49ee7ccef7",
    ("info", 25, "pgammal", "text"): "15d5b79eb48bf2c8401a45e309fbc3f9b6a51f42fc8e3dbf9dcfa6546b3e42c5",
    ("info", 25, "pgammal", "json"): "6327bcba69a090ba5e08d382b77b597e866e016284af70499d97e459121b93ca",
    ("info", 27, "pgl", "text"): "a5e58374f50af44b8a90cdf7ff4888200d547d66b300e697a3ad6089e14b84ca",
    ("info", 27, "pgl", "json"): "8d89b28200b75b998c7a978702e61b5a0d6b980c50dc71c34b9bbd2e8d12bdfe",
    ("info", 27, "psl", "text"): "a956f610d53c24276826ce3280a099d46311ebe767002f6f1f9d55a9e2dd08d9",
    ("info", 27, "psl", "json"): "d2e4184d1b7d7ca9be38efa135aae66a43a7efa5fcfde0b09ebae8c977bb8055",
    ("info", 27, "pgammal", "text"): "ca08eea6bc30e60a78e051ef535d9ee89c84f7bee5a7cf950869065d8ac82da6",
    ("info", 27, "pgammal", "json"): "d1020c4c96a10011459f7fc7b65c69a928c1510a557fc79dd8a0eab9642404bc",
    ("info", 49, "pgl", "text"): "7907ce15171ddd47d1b1a8490b73269b4e6d68062e40a1da3cba99c107e28a27",
    ("info", 49, "pgl", "json"): "b82c976f39e8b1d2bc23e1ff78c085656c163cde671963b60fc7411ef4087094",
    ("info", 49, "psl", "text"): "7ef3cab7bd765a718ce73f2cf6e691f465e8af100f68e205ed4a3ac48c2bd22f",
    ("info", 49, "psl", "json"): "2b3efea58d538d2862d4587f25ca1da25b3ea74698d5dc708f0f677b98489612",
    ("info", 49, "m", "text"): "bfdb96bf273d463d9c731781c7ce4cb37a90a2d99dffebb783e777a0850550a3",
    ("info", 49, "m", "json"): "b031c9458ece4a4a6d2de6005cc5e3154506174f7b8268554723c8bf460a36c1",
    ("info", 49, "pgammal", "text"): "fe63f623baf6abad6b826dcdae87f4b71895040ea52d1951caaa0cc8d7d2fa1d",
    ("info", 49, "pgammal", "json"): "0232e1a9b6863384f4a8f1151db570e906221bf1b1ea141dadbb666c3782e987",
    ("info", 81, "pgl", "text"): "f03c9f4dbc13def6be8f86c01bb9bba38be1d2b35989775567caae2bd9b5ba22",
    ("info", 81, "pgl", "json"): "ab8449e923a304871125146fb8790522d93e9cb776d6a7e19716c4001cbd3916",
    ("info", 81, "psl", "text"): "728bced24cf2f60740a2f1a2c7dc0828147e026e054bb94c2a06f621f67272ef",
    ("info", 81, "psl", "json"): "74c0c5d3450dfa0ba37b7fc3ff8148d40cc406687ce64225832d1d121b4b1bca",
    ("info", 81, "m", "text"): "d8d1f01af39a82c7320a347b7e7f47d34900950c013b60aa7441a1c418ad34ae",
    ("info", 81, "m", "json"): "ead150664ab279aea45a11460d56edf82836bf9556615008c81ff203008499ba",
    ("info", 81, "pgammal", "text"): "cf4e87423ac0ab8f7fa4e586e93dd7be95bb7ebfd7a49ee3253aab6a41d6291b",
    ("info", 81, "pgammal", "json"): "208b35ca888448020bd7dfcd98e70f76293d4c512d682e70406b7764dde63e3d",
    ("info", 125, "pgl", "text"): "092f93492edb4747e8fca3fb26ef7041456de1face189921cdf71357860ee922",
    ("info", 125, "pgl", "json"): "e62ea840cbee925c455e63b5756fb77ac86654401af36f1079b57306ae7b8b5a",
    ("info", 125, "psl", "text"): "b9cbd576e5dfef282a18a34bb83b127b09ec0cc334bfd0e1d08d83e984f38dc4",
    ("info", 125, "psl", "json"): "e8bb22ded241d97b9ffdc0b92d09ca920164dbbf3c0c5385d40b9e132949695a",
    ("info", 125, "pgammal", "text"): "47bf3d97f7202e255623e5f3b838c53df1335d8dc1a0aaa00a9f77ef483689d0",
    ("info", 125, "pgammal", "json"): "484a9c6d24899eac92ac4c7ac8255d9887581bc99e95c0b88d9ed315e292fe50",
    ("labels", 25, "psl", "text"): "38e64672bbb6e5e495ce581e940e8cafe6c0c4f8417a257ee2af8d037228b7ec",
    ("labels", 25, "psl", "json"): "eeb4655c42c96ad7571c4f7eba8c4d55853878226f888f27eee44b2f1761385e",
    ("labels", 25, "m", "text"): "f950a826ff70ec5250cc20234f4996d05a8c5f06fc434390d703b6fbbbeb15e6",
    ("labels", 25, "m", "json"): "7bc67e99952477e362bdd9c037dd3a9490d1b94eb9cba0cc6bd611967ace368c",
    ("labels", 25, "ft", "text"): "60d84d193c036341ca9667e1523964fbe8050641d2ddaaa12bb93e72d4949ccd",
    ("labels", 25, "ft", "json"): "3676e9ff67af2db2720d7aaafb91de50a757534feb2e3a56544005b437e10493",
    ("labels", 27, "psl", "text"): "b7a57be59d852d053e2edd8158c7af78a042f029887637551c49091fa10ff27e",
    ("labels", 27, "psl", "json"): "a0ab70bfb96fb170c345f6f2f2a11e0c1783a7415ea83930c8e1864761785aec",
    ("labels", 27, "ft", "text"): "087f0aea953b5ca56848d200224e08555f1122b656ed1a14671bc4a20016e44b",
    ("labels", 27, "ft", "json"): "35095abcc9fc681198b117e110dfc510748b74a9ba4253300f79e2902d5d3e88",
    ("labels", 49, "psl", "text"): "5d035d38d2d286dc17e66c4fd56889524ae22bf2556fe8adc1696176bea9f4e6",
    ("labels", 49, "psl", "json"): "e991d455e5c8d2b2833e7c00ceb1e77cfc8613de3bd2438e1a2433ef187031b9",
    ("labels", 49, "m", "text"): "72f8e84a676aff52c908bc687a602190e7257384a46939d5ed129dc664199638",
    ("labels", 49, "m", "json"): "f244e15446706dbe944fcb575bdad5ff282357665960f5aa2eba3d8fb14e90da",
    ("labels", 49, "ft", "text"): "924a7132c434ac384be7b9331cedea84d553c9682dac2a14422bb094909d9d6f",
    ("labels", 49, "ft", "json"): "ab242ad2bf82bc563c7b9a956e54859c1669b3326beb169554539954dc3e3c60",
}


@pytest.mark.parametrize("cmd, q, name, fmt", sorted(GROUP_INFO_DIGESTS))
def test_group_info_and_scheme_labels_keep_their_bytes(cmd, q, name, fmt, capsys, monkeypatch):
    monkeypatch.delenv("SCHEME_FORGE_CACHE_DIR", raising=False)
    argv = ("group", "info") if cmd == "info" else ("scheme", "labels")
    code, out, _ = run(capsys, *argv, "--q", str(q), "--group", name, "--format", fmt)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, GROUP_INFO_DIGESTS[cmd, q, name, fmt])


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
