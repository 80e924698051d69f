"""Self-tests of the benchmark: wrappers, checker, metric derivation.

    python3 -m pytest perfbench/tests -q
"""

import copy
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

import scheme_forge
import scheme_forge.cli as cli
from scheme_forge import fission, geometry, gf, moebius, schemes

import run
from check import check, load_reference
from tracer import LAYER_METRICS, Tracer, derive, merge
from workloads import WORKLOADS, cli_digest, strip_report

from conftest import BENCH, ROOT

MODULES = (scheme_forge, gf, geometry, moebius, schemes, fission, cli)
CLASSES = (gf.GF, geometry.Plane, schemes.Scheme)


def scheme_digest(S):
    M = S.relation_matrix
    return {
        "n": int(S.n),
        "d": int(S.d),
        "matrix_sha256": hashlib.sha256(
            f"{M.dtype.str}{M.shape}".encode() + M.tobytes()
        ).hexdigest(),
        "labels": S.label_text(),
        "valencies": [int(v) for v in S.valencies],
        "transpose_map": [int(v) for v in S.transpose_map],
    }


def _snapshot():
    return [(m, dict(vars(m))) for m in MODULES + CLASSES]


def test_wrappers_are_installed_everywhere_and_restored():
    before = _snapshot()
    orig_field = gf.field
    with Tracer():
        assert gf.field is not orig_field
        assert fission.field is gf.field and cli.field is gf.field
        assert scheme_forge.field is gf.field
        assert cli.build_domain is geometry.domain
        assert schemes.Scheme.__dict__["__init__"].__wrapped__ is not None
    for owner, attrs in before:
        now = vars(owner)
        assert set(now) == set(attrs), owner
        for key, value in attrs.items():
            assert now[key] is value, (owner, key)


def _cli_stdout(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def test_traced_small_runs_give_identical_outputs(monkeypatch):
    monkeypatch.delenv("SCHEME_FORGE_CACHE_DIR", raising=False)
    qs = [5, 7, 9, 13]
    argv = ["build", "--q", "9", "--group", "m", "--format", "json", "--p-tensor"]

    def outputs():
        reports = [strip_report(r) for r in fission.verify_paper(qs)]
        digest = scheme_digest(fission.psl_scheme(gf.field(13)))
        return json.dumps(reports, sort_keys=True), digest, _cli_stdout(argv)

    plain = outputs()
    tracer = Tracer()
    with tracer:
        traced = outputs()
    assert traced == plain

    rows = tracer.rows()
    callers = {rows[r[3]][0] for r in rows if r[0] == "moebius.transporter_to_base"}
    assert callers == {"schemes.orbital_scheme_via_stabilizer"}
    m = derive(rows, 100.0, 1.0, 1.0)
    assert m["fission.reports"] == len(json.loads(plain[0]))
    assert m["fission.reports_failed"] == 0
    assert m["moebius.transporter_calls"] > 0
    assert m["schemes.builds"] >= m["schemes.distinct_builds"] > 0


def test_cache_spans_count_hits_and_bytes(tmp_path, monkeypatch):
    monkeypatch.setenv("SCHEME_FORGE_CACHE_DIR", str(tmp_path))
    argv = ["scheme", "labels", "--q", "9", "--group", "psl"]
    tracer = Tracer()
    with tracer:
        first = _cli_stdout(argv)
        second = _cli_stdout(argv)
    assert first == second
    m = derive(tracer.rows(), 100.0, 1.0, 1.0)
    assert m["cli.cache_lookups"] == 2
    assert m["cli.cache_hits"] == 1
    written = os.path.getsize(tmp_path / "relmat_q9_psl_pairs.npz")
    assert m["cli.cache_bytes_written"] == written == m["cli.cache_bytes_read"]


def test_checker_accepts_reference_and_flags_corruption():
    ref = load_reference()
    good = ref["verify"]["5"]
    assert check(ref, "verify", 0, 5, good) == ("ok", "")

    bad = copy.deepcopy(good)
    key = next(iter(bad[0]["computed"]))
    bad[0]["computed"][key] = "corrupted"
    assert check(ref, "verify", 0, 5, bad)[0] == "fail"

    failing = copy.deepcopy(good)
    failing[0]["passed"] = False
    assert check(ref, "verify", 0, 5, failing)[0] == "fail"

    assert check(ref, "verify", 6, 49, None, error="MemoryError")[0] == "fail"


def test_checker_cli_statuses():
    ref = load_reference()
    assert check(ref, "cli", 0, None, ref["cli"][0])[0] == "ok"
    assert check(ref, "cli", 0, None, cli_digest(0, b"corrupted\n"))[0] == "fail"
    wrong_exit = dict(ref["cli"][3], exit=1)
    assert check(ref, "cli", 3, None, wrong_exit)[0] == "fail"
    defect = ref["known_defects"]["cli"]["1"]["output"]
    assert check(ref, "cli", 1, None, defect)[0] == "known"
    # the defect's output is only expected from command 2
    assert check(ref, "cli", 0, None, defect)[0] == "fail"


def test_derive_self_and_inclusive_times():
    rows = [
        ["schemes.orbital_scheme_via_stabilizer", 0.0, 10.0, -1, 0, None],
        ["moebius.transporter_to_base", 1.0, 2.0, 0, 0, None],
        ["schemes._renumber_first_occurrence", 2.0, 5.0, 0, 0, ["renumber", 1 << 20]],
        ["schemes.Scheme.__init__", 5.0, 9.0, 0, 0, ["matrix", 2 << 20]],
        ["schemes.Scheme.p_tensor", 6.0, 7.0, 3, 0, None],
        ["schemes.Scheme.p_tensor", 7.0, 7.5, 4, 0, None],
    ]
    m = derive(rows, 40.0, 19.0, 20.0)
    assert m["schemes.stabilizer_path_self_s"] == pytest.approx(2.0)
    assert m["schemes.scheme_init_self_s"] == pytest.approx(3.0)
    assert m["schemes.p_tensor_s"] == pytest.approx(1.0)
    assert m["schemes.p_tensor_calls"] == 1
    assert m["schemes.renumber_mb"] == pytest.approx(1.0)
    assert m["schemes.rss_per_matrix"] == pytest.approx(20.0)
    assert m["trace.overhead_s"] == pytest.approx(1.0)
    assert m["trace.coverage"] == pytest.approx(0.5)
    merged = merge([rows[:2], rows[:2]])
    assert [r[3] for r in merged] == [-1, 0, -1, 2]


def test_benchmark_json_lists_what_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(LAYER_METRICS)


def test_run_refuses_a_tree_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert p.returncode != 0
    assert p.stdout == ""
