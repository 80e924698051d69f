"""Acceptance gate: every structural criterion at its stated tolerance.

All quantities here are integers or booleans, so every comparison is
exact.  Each criterion prints one PASS/FAIL line (visible with -s, or in
captured output on failure).  Stated runtime budgets are asserted with
wide margins.
"""

import time

import numpy as np
import pytest

from scheme_forge.gf import field
from scheme_forge.geometry import Plane, pairs_domain
from scheme_forge.schemes import (
    group_orbital_scheme,
    p_polynomial_orderings,
    partition_bijection,
    triangular_scheme,
)
from scheme_forge import fission as fi
from scheme_forge import moebius as mo


def _report(num, desc, ok):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num}: {desc}"


def test_criterion_01_psl_class_counts():
    expected = {5: 5, 9: 8, 13: 11, 25: 20, 7: 6, 11: 9, 19: 15}
    ok = True
    for q, want in sorted(expected.items()):
        t0 = time.perf_counter()
        rep = fi.report_theorem("psl-class-count", fi.labeled_scheme(field(q), "psl"))
        dt = time.perf_counter() - t0
        ok &= rep.passed and rep.computed["classes"] == want
        ok &= rep.computed["symmetric"] is False
        ok &= dt < (60 if q == 25 else 5)
    _report(1, "square-determinant subgroup class counts (3q+5)/4 and (3q+3)/4", ok)


def test_criterion_02_m_class_counts():
    ok = True
    budgets = {25: 60, 49: 300, 81: 1800}
    for q, want in ((25, 10), (49, 19), (81, 31)):
        t0 = time.perf_counter()
        rep = fi.report_theorem("m-class-count", fi.labeled_scheme(field(q), "m"))
        dt = time.perf_counter() - t0
        ok &= rep.passed and rep.computed == {"classes": want, "symmetric": False}
        ok &= dt < budgets[q]
    _report(2, "twisted-group class counts (3q+5)/8 at q = 25, 49, 81", ok)


def test_criterion_03_m9_generalized_octagon():
    rep = fi.report_theorem("m9-octagon", fi.labeled_scheme(field(9), "m"))
    ok = rep.passed
    ok &= rep.computed["n"] == 45 and rep.computed["symmetric"]
    ok &= rep.computed["intersection_array"] == ([4, 2, 2, 2], [1, 1, 1, 2])
    _report(3, "q=9 twisted scheme: 45 vertices, distance-regular {4,2,2,2;1,1,1,2}", ok)


def test_criterion_04_ft_construction():
    ok = True
    for q in (5, 7, 9, 11, 13):
        fld = field(q)
        pgl = group_orbital_scheme(fld, "pgl", fi.domain_for(fld, "pairs"))
        rep = fi.report_ft(fi.build_ft(fld), pgl)
        ok &= rep.passed
        ok &= rep.computed["classes"] == (q + 1) // 2
        ok &= rep.computed["share_valency"] == 2 * (q - 1)
        ok &= rep.computed["harmonic_valency"] == (q - 1) // 2
        ok &= rep.computed["ratio_valency"] in (None, q - 1)
        ok &= rep.computed["equals_orbital"]
    _report(4, "cross-ratio fission: (q+1)/2 classes, valencies, orbital equality q<=13", ok)


def test_criterion_05_q9_fusion_diagram():
    fld = field(9)
    rep = fi.report_q9_fusion_diagram({
        "t": triangular_scheme(fi.domain_for(fld, "pairs")),
        "ft": fi.build_ft(fld),
        **{gid: fi.labeled_scheme(fld, gid) for gid in ("psl", "pgammal", "m")},
    })
    _report(5, "q=9 three-row fusion diagram with all fusion edges", rep.passed)


def test_criterion_06_pgammal_class_counts():
    ok = True
    for q, want in ((9, 4), (25, 9), (49, 16)):
        rep = fi.report_theorem("pgammal-class-count", fi.labeled_scheme(field(q), "pgammal"))
        ok &= rep.passed and rep.computed["classes"] == want
        ok &= rep.computed["count_agrees"] and rep.computed["symmetric"]
        ok &= rep.computed["p_polynomial"] is (q == 9)
    for q in (5, 7, 11, 13):
        rep = fi.report_theorem("pgammal-class-count", fi.labeled_scheme(field(q), "pgammal"))
        ok &= rep.passed and rep.computed["symmetric"] and rep.computed["count_agrees"]
    _report(6, "semilinear-group class counts 4/9/16, symmetry, direct-count agreement", ok)


def test_criterion_07_commutativity_survey():
    r25 = fi.report_theorem("m-commutativity", fi.labeled_scheme(field(25), "m"))
    r49 = fi.report_theorem("m-commutativity", fi.labeled_scheme(field(49), "m"))
    ok = r25.passed and r49.passed
    ok &= r25.computed == {"symmetric": False, "commutative": True}
    ok &= r49.computed == {"symmetric": False, "commutative": False}
    _report(7, "twisted scheme commutative-not-symmetric at 25, non-commutative at 49", ok)


def test_criterion_08_three_domain_isomorphism():
    ok = True
    for q in (5, 7, 9, 13):
        fld = field(q)
        for gid in mo.groups(fld):
            ok &= fi.report_three_domain_isomorphism(fld, gid).passed
            # the dense generic-path schemes the report stands for
            on_pairs, *on_plane = [
                group_orbital_scheme(fld, gid, fi.domain_for(fld, kind))
                for kind in ("pairs", "hyp-lines", "hyp-points")
            ]
            ok &= all(partition_bijection(on_pairs, S) is not None for S in on_plane)
    _report(8, "pairs / secant lines / poles carry identical schemes, every group", ok)


def test_criterion_09_geometry_invariants():
    ok = True
    for q in (5, 7, 9, 11, 13):
        rep = fi.report_geometry(field(q))
        ok &= rep.passed
    _report(9, "conic size, line class counts, pole formulas, exhaustive q<=13", ok)


def test_criterion_10_embedding_contract():
    ok = True
    for q in (5, 7, 9, 11, 13):
        rep = fi.report_embedding(field(q))
        ok &= rep.passed
    _report(10, "det cube law, parametrization equivariance, conic fixed setwise", ok)


def test_criterion_11_scheme_axioms():
    ok = True
    for q in (5, 7, 9, 11, 13):
        fld = field(q)
        rep = fi.report_scheme_axioms({gid: fi._labeled_scheme(fld, gid) for gid in mo.groups(fld)})
        ok &= rep.passed
    _report(11, "axioms, valency and counting identities, exhaustive constancy q<=13", ok)


def test_criterion_12_transpose_rules():
    ok = True
    reading = None
    for q in (5, 9, 13, 25):
        fld = field(q)
        rep = fi.report_transpose_rules(fi.labeled_scheme(fld, "psl"))
        ok &= rep.passed
        ok &= ("minus-sign partner" in rep.note)
        # the harmonic criterion is the square class of 2, cross-checked
        legendre2 = ((-1) ** ((fld.p * fld.p - 1) // 8)) ** fld.m == 1
        ok &= fld.is_square(2) == legendre2
        reading = "minus-sign partner"
    _report(12, f"split-class transpose criteria; superscript resolved as {reading}", ok)
