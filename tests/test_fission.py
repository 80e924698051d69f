"""The labeled fission schemes and every structural claim about them."""

import hashlib
import tracemalloc
from collections import defaultdict

import numpy as np
import pytest

from scheme_forge.gf import GF, field
from scheme_forge.geometry import Plane, domain, pairs_domain
from scheme_forge.schemes import (
    fusion_map,
    group_orbital_scheme,
    is_fusion,
    p_polynomial_orderings,
    partition_bijection,
    triangular_scheme,
)
from scheme_forge import fission as fi
from scheme_forge import schemes as sc


# -- per-field plane and domain caches ---------------------------------------------


def test_plane_and_pairs_caches_live_as_long_as_their_field():
    import gc
    import weakref

    fld = GF(7)
    dom = fi.domain_for(fld, "pairs")
    assert dom.field is fld and dom.plane is fi.plane_for(fld)
    assert fi.domain_for(fld, "pairs") is dom
    ref = weakref.ref(fld)
    del fld, dom
    gc.collect()
    assert ref() is None


def test_domain_for_builds_each_kind_once():
    fld = GF(9)
    dom = fi.domain_for(fld, "hyp-lines")
    assert fi.domain_for(fld, "hyp-lines") is dom
    fresh = domain(fi.plane_for(fld), "hyp-lines")
    assert dom.kind == fresh.kind == "hyp-lines"
    assert dom.elements == fresh.elements and dom.base_index == fresh.base_index
    assert fi.domain_for(fld, "pairs") is not dom


# -- the cross-ratio fission scheme -----------------------------------------------


@pytest.mark.parametrize("q", [5, 7, 9, 11, 13])
def test_ft_class_count_and_valencies(q):
    fld = field(q)
    ft = fi.build_ft(fld)
    assert ft.d == (q + 1) // 2
    by_kind = defaultdict(set)
    for k, lab in enumerate(ft.labels):
        by_kind[lab.kind].add(int(ft.valencies[k]))
    assert by_kind["share"] == {2 * (q - 1)}
    assert by_kind["harmonic"] == {(q - 1) // 2}
    assert by_kind["ratio"] in (set(), {q - 1})
    assert ft.is_symmetric()


@pytest.mark.parametrize("q", [5, 7, 9, 11, 13])
def test_ft_equals_orbital(q):
    assert fi.ft_equals_orbital(field(q))


def test_ft_q9_class_labels():
    fld = field(9)
    g = fld.primitive_element()
    ft = fi.build_ft(fld)
    assert ft.d == 5

    def rep(r):
        return min(r, fld.inv(r), key=fld.rank)

    expected = {("diagonal", None), ("share", None), ("harmonic", None)}
    expected |= {("ratio", rep(fld.pow(g, e))) for e in (1, 2, 3)}
    assert {(l.kind, l.rep) for l in ft.labels} == expected


def test_ft_fuses_to_triangular():
    for q in (5, 9):
        fld = field(q)
        ft = fi.build_ft(fld)
        tri = triangular_scheme(pairs_domain(Plane(fld)))
        part = fi.triangular_partition(ft)
        assert is_fusion(tri, ft, part)


# sha256 of the FT(q+1) relation matrices, all uint8, as built by the
# earlier one-row-at-a-time construction
FT_DIGESTS = {
    5: "dc378dcc0e6c727cdd7dda65e8f9a7ecc6bd6502b636716413eddf97e7fb0dfe",
    9: "e4b01fc7c1b0e9d146933ea36b58b60268a86c323af7a4a6a4308fa4f1c05d68",
    13: "d6a8eef982b1ef2f68d42586acdf3738b72f94a5e1cf68e16057e53a10ebbc46",
    25: "1a888bd2977bc4daa9cfd8f98c19fb53b5859d10f3f16cd4e8110d935e480f77",
    49: "8fab25a08a814c46c5441d364f8d201f772e46051def5a1fd6a5284aa2aface8",
}


@pytest.mark.parametrize("q", sorted(FT_DIGESTS))
def test_ft_keeps_its_bytes(q):
    M = fi.build_ft(field(q)).relation_matrix
    assert M.dtype == np.uint8
    assert hashlib.sha256(M.tobytes()).hexdigest() == FT_DIGESTS[q]


def test_ft_build_memory_stays_near_the_matrix():
    # the uint8 matrix plus row-block temporaries: measured 1.15 n^2
    # bytes (5.08 with the earlier int32 n x n intermediate)
    fld = field(81)
    n = fi.domain_for(fld, "pairs").n
    tracemalloc.start()
    try:
        fi.build_ft(fld)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * n * n


# -- the square-determinant subgroup ------------------------------------------------


@pytest.mark.parametrize(
    "q,expected", [(5, 5), (7, 6), (9, 8), (11, 9), (13, 11), (19, 15), (25, 20)]
)
def test_psl_class_count(q, expected):
    assert fi.psl_class_count_formula(q) == expected
    rep = fi.report_psl_class_count(field(q))
    assert rep.passed, rep.computed
    assert rep.computed["classes"] == expected
    assert rep.computed["symmetric"] is False


@pytest.mark.parametrize("q", [5, 7, 9, 13])
def test_psl_labels_match_independent_orbitals(q):
    """The closed-form labeling must induce exactly the orbit partition of
    the base row of the generic (BFS) scheme."""
    fld = field(q)
    dom = pairs_domain(Plane(fld))
    S = group_orbital_scheme(fld, "psl", dom)
    base = dom.base_index
    by_label = defaultdict(set)
    for y in range(dom.n):
        lab = fi.psl_orbit_label(fld, tuple(int(v) for v in dom.plane.pg1.pairs[y]))
        by_label[lab.key()].add(int(S.relation_matrix[base, y]))
    assert all(len(v) == 1 for v in by_label.values())
    assert len(by_label) == S.d + 1


@pytest.mark.parametrize("q", [5, 9, 13, 25])
def test_psl_orbit_length_bookkeeping(q):
    fld = field(q)
    S = fi.psl_scheme(fld)
    assert q % 4 == 1
    lengths = defaultdict(list)
    for k, lab in enumerate(S.labels):
        lengths[(lab.kind, lab.sign != 0)].append(int(S.valencies[k]))
    assert lengths[("share", True)] == [q - 1, q - 1]
    assert sorted(lengths[("harmonic", True)]) == [(q - 1) // 4, (q - 1) // 4]
    for v in lengths[("ratio", True)]:
        assert v == (q - 1) // 2
    for v in lengths[("ratio", False)]:
        assert v == q - 1
    assert int(S.valencies.sum()) == S.n


@pytest.mark.parametrize("q", [7, 11])
def test_psl_orbit_length_bookkeeping_3mod4(q):
    fld = field(q)
    S = fi.psl_scheme(fld)
    lengths = defaultdict(list)
    for k, lab in enumerate(S.labels):
        lengths[(lab.kind, lab.sign != 0)].append(int(S.valencies[k]))
    assert lengths[("share", True)] == [q - 1, q - 1]
    assert lengths[("harmonic", False)] == [(q - 1) // 2]
    for v in lengths[("ratio", True)]:
        assert v == (q - 1) // 2
    for v in lengths[("ratio", False)]:
        assert v == q - 1


@pytest.mark.parametrize("q", [5, 7, 9, 11, 13, 25])
def test_psl_split_classes_pair_within_labels(q):
    """Split halves have equal valency and transpose within their own
    cross-ratio label, never across."""
    S = fi.psl_scheme(field(q))
    by_key = {lab.key(): k for k, lab in enumerate(S.labels)}
    for k, lab in enumerate(S.labels):
        kt = int(S.transpose_map[k])
        lab2 = S.labels[kt]
        assert (lab.kind, lab.rep) == (lab2.kind, lab2.rep)
        assert S.valencies[k] == S.valencies[kt]
        if lab.sign != 0:
            partner = by_key[(lab.kind, lab.rep, -lab.sign)]
            assert S.valencies[k] == S.valencies[partner]
            assert kt in (k, partner)


@pytest.mark.parametrize("q", [5, 9, 13, 25])
def test_transpose_rules_1mod4(q):
    rep = fi.report_transpose_rules(field(q))
    assert rep.passed, rep.note
    assert "minus-sign partner" in rep.note


@pytest.mark.parametrize("q", [7, 11])
def test_transpose_rules_3mod4(q):
    rep = fi.report_transpose_rules(field(q))
    assert rep.passed, rep.note


def test_transpose_rule_q9_harmonic_self_paired():
    """2 = -1 is a square in GF(9), so the harmonic halves are symmetric."""
    fld = field(9)
    assert fld.is_square(fld.add(1, 1))
    S = fi.psl_scheme(fld)
    for k, lab in enumerate(S.labels):
        if lab.kind == "harmonic":
            assert S.transpose_map[k] == k


def test_transpose_rule_q13_harmonic_swapped():
    fld = field(13)
    assert not fld.is_square(2)
    S = fi.psl_scheme(fld)
    ks = [k for k, lab in enumerate(S.labels) if lab.kind == "harmonic"]
    assert len(ks) == 2
    assert int(S.transpose_map[ks[0]]) == ks[1]


# -- the twisted sharply 3-transitive group -------------------------------------------


@pytest.mark.parametrize("q,expected", [(25, 10), (49, 19), (81, 31)])
def test_m_class_count(q, expected):
    rep = fi.report_m_class_count(field(q))
    assert rep.passed, rep.computed
    assert rep.computed == {"classes": expected, "symmetric": False}


def test_m_rejects_odd_power():
    from scheme_forge.moebius import InvalidGroupError

    with pytest.raises(InvalidGroupError):
        fi.m_scheme(field(7))
    with pytest.raises(InvalidGroupError):
        fi.m_scheme(field(27))


@pytest.mark.parametrize("q", [9, 25, 49])
def test_m_labels_match_independent_orbitals(q):
    fld = field(q)
    S = fi.m_scheme(fld)  # labeled builder already cross-checks; spot-check too
    dom = S.domain
    base = dom.base_index
    for y in range(0, dom.n, 7):
        lab = fi.m_orbit_label(fld, tuple(int(v) for v in dom.plane.pg1.pairs[y]))
        k = int(S.relation_matrix[base, y])
        assert S.labels[k].key() == lab.key()


@pytest.mark.parametrize("q", [9, 25, 49, 81])
def test_m_orbit_bookkeeping(q):
    fld = field(q)
    S = fi.m_scheme(fld)
    root = int(round(q**0.5))
    kinds = defaultdict(list)
    for k, lab in enumerate(S.labels):
        if k == 0:
            continue
        split = lab.sign != 0
        tclass = lab.kind == "ratio" and not split and not fld.is_square(lab.rep)
        kinds[(lab.kind, split, tclass)].append(int(S.valencies[k]))
    assert kinds[("share", False, False)] == [2 * (q - 1)]
    assert kinds[("harmonic", False, False)] == [(q - 1) // 2]
    assert len(kinds[("ratio", True, False)]) == (root - 3) * (root - 1) // 4
    assert set(kinds[("ratio", True, False)]) <= {q - 1}
    assert len(kinds[("ratio", False, True)]) == (q - 1) // 8
    assert set(kinds[("ratio", False, True)]) <= {2 * (q - 1)}
    # whole square classes: one per fused {s, 1/s} pair under the involution
    assert len(kinds[("ratio", False, False)]) == root - 2


@pytest.mark.parametrize("q", [25, 49, 81])
def test_m_nonsymmetry_via_split_pairs(q):
    fld = field(q)
    S = fi.m_scheme(fld)
    by_key = {lab.key(): k for k, lab in enumerate(S.labels)}
    nonsym = [k for k in range(S.d + 1) if S.transpose_map[k] != k]
    assert nonsym, "the scheme must be non-symmetric for q > 9"
    for k in nonsym:
        lab = S.labels[k]
        assert lab.kind == "ratio" and lab.sign != 0
        assert int(S.transpose_map[k]) == by_key[(lab.kind, lab.rep, -lab.sign)]


def test_m9_structure_with_bfs_oracle():
    rep = fi.report_m9_octagon()
    assert rep.passed, rep.computed
    S = fi.m_scheme(field(9))
    orders = p_polynomial_orderings(S)
    assert [o["intersection_array"] for o in orders] == [([4, 2, 2, 2], [1, 1, 1, 2])]
    # independent distance-regularity oracle on the generating graph
    c = orders[0]["relation"]
    adj = S.relation_matrix == c
    bs, cs = _bfs_intersection_array(adj)
    assert (bs, cs) == ([4, 2, 2, 2], [1, 1, 1, 2])
    # the generating relation is the harmonic one
    assert S.labels[c].kind == "harmonic"


def _bfs_intersection_array(adj):
    """Distance-regularity parameters by BFS from every vertex; raises if
    the counts are not constant."""
    n = adj.shape[0]
    nbrs = [np.flatnonzero(adj[v]) for v in range(n)]
    all_b, all_c = None, None
    for v0 in range(n):
        dist = {v0: 0}
        frontier = [v0]
        e = 0
        while frontier:
            e += 1
            nxt = []
            for v in frontier:
                for w in nbrs[v]:
                    if int(w) not in dist:
                        dist[int(w)] = e
                        nxt.append(int(w))
            frontier = nxt
        diam = max(dist.values())
        assert len(dist) == n
        b = [set() for _ in range(diam + 1)]
        cset = [set() for _ in range(diam + 1)]
        for v, dv in dist.items():
            down = sum(1 for w in nbrs[v] if dist[int(w)] == dv - 1)
            up = sum(1 for w in nbrs[v] if dist[int(w)] == dv + 1)
            b[dv].add(up)
            cset[dv].add(down)
        bs = [b[e].pop() for e in range(diam)]
        cs = [cset[e].pop() for e in range(1, diam + 1)]
        for e in range(diam):
            assert len(b[e]) == 0
        for e in range(1, diam + 1):
            assert len(cset[e]) == 0
        if all_b is None:
            all_b, all_c = bs, cs
        else:
            assert (bs, cs) == (all_b, all_c)
    return all_b, all_c


@pytest.mark.parametrize("q", [9, 25, 49])
def test_commutativity_survey(q):
    rep = fi.report_commutativity(field(q))
    assert rep.passed, rep.computed


def test_commutativity_survey_deep_q81():
    rep = fi.report_commutativity(field(81))
    assert rep.passed, rep.computed


# -- the full semilinear group ---------------------------------------------------------


@pytest.mark.parametrize("q,expected", [(9, 4), (25, 9), (49, 16)])
def test_pgammal_class_count(q, expected):
    rep = fi.report_pgammal(field(q))
    assert rep.passed, rep.computed
    assert rep.computed["classes"] == expected


def test_pgammal_prime_field_reduces_to_ft():
    fld = field(7)
    assert fi.count_pgammal_classes(fld) == (7 + 1) // 2
    S = fi.pgammal_scheme(fld)
    ft = fi.build_ft(fld)
    assert partition_bijection(S, ft) is not None


@pytest.mark.parametrize("q", [9, 25, 49])
def test_pgammal_count_matches_built_scheme(q):
    fld = field(q)
    assert fi.pgammal_scheme(fld).d == fi.count_pgammal_classes(fld)


def test_pgammal_q9_p_polynomial_via_harmonic():
    S = fi.pgammal_scheme(field(9))
    orders = p_polynomial_orderings(S)
    assert orders and S.labels[orders[0]["relation"]].kind == "harmonic"


@pytest.mark.parametrize("q", [25, 49])
def test_pgammal_not_p_polynomial(q):
    S = fi.pgammal_scheme(field(q))
    assert p_polynomial_orderings(S) == []


@pytest.mark.parametrize("q", [5, 7, 9, 13])
def test_pgammal_symmetric(q):
    assert fi.pgammal_scheme(field(q)).is_symmetric()


@pytest.mark.parametrize("q", [9, 25])
def test_pgammal_share_class_is_original_triangular_relation(q):
    """The touching relation survives unsplit all the way down: the
    semilinear share class is exactly the triangular 'meet' class."""
    fld = field(q)
    S = fi.pgammal_scheme(fld)
    tri = triangular_scheme(pairs_domain(Plane(fld)))
    part = fusion_map(tri, S)
    assert part is not None
    share = [k for k, lab in enumerate(S.labels) if lab.kind == "share"]
    assert len(share) == 1
    assert [k for k in range(S.d + 1) if part[k] == part[share[0]]] == share


# -- cross-domain isomorphism and the fusion lattice -------------------------------------


@pytest.mark.parametrize("q", [5, 7, 9, 13])
def test_three_domain_isomorphism(q):
    fld = field(q)
    for gid in ("pgl", "psl", "pgammal") + (("m",) if fld.m % 2 == 0 else ()):
        rep = fi.report_three_domain_isomorphism(fld, gid)
        assert rep.passed, (q, gid)


@pytest.mark.parametrize("q", [5, 7, 9, 13])
def test_fusion_lattice(q):
    rep = fi.report_fusion_lattice(field(q))
    assert rep.passed, rep.computed


def test_q9_fusion_diagram():
    rep = fi.report_q9_fusion_diagram()
    assert rep.passed, rep.computed
    assert rep.computed["m_nontrivial_classes"] == 4
    assert rep.computed["pgammal_equals_m"]


def test_m9_merges_the_two_nonsquare_ratio_classes():
    """Bottom row of the q = 9 diagram: the primitive-element class and
    its cube fuse; the square class and harmonic class split-and-refuse."""
    fld = field(9)
    g = fld.primitive_element()
    msch = fi.m_scheme(fld)
    ft = fi.build_ft(fld)
    part = fusion_map(msch, ft)
    assert part is not None

    def ft_class_of(r):
        for k, lab in enumerate(ft.labels):
            if lab.kind == "ratio" and r in lab.orbit:
                return k
        raise AssertionError

    k_g = ft_class_of(g)
    k_g3 = ft_class_of(fld.pow(g, 3))
    k_g2 = ft_class_of(fld.mul(g, g))
    assert part[k_g] == part[k_g3]
    assert part[k_g2] != part[k_g]


def test_verify_paper_aggregate():
    reports = fi.verify_paper([9])
    assert all(r.passed for r in reports)
    ids = {r.theorem_id for r in reports}
    assert {
        "geometry-counts",
        "embedding-contract",
        "ft-cross-ratio",
        "scheme-axioms",
        "fusion-lattice",
        "psl-class-count",
        "transpose-rules",
        "pgammal-class-count",
        "m-commutativity",
        "m9-octagon",
        "q9-fusion-diagram",
    } <= ids
    for r in reports:
        d = r.to_dict()
        assert {"theorem", "q", "predicted", "computed", "passed", "elapsed", "note"} <= set(d)


# -- the build memo of one verify_paper call ------------------------------------------


def _stripped(reports):
    out = []
    for r in reports:
        d = r.to_dict()
        del d["elapsed"]
        out.append(d)
    return out


def _reports_called_directly(q):
    """What verify_paper([q]) runs at q = 9 or 25, in its order, with no memo."""
    fld = field(q)
    if q == 25:
        return [
            fi.report_psl_class_count(fld),
            fi.report_transpose_rules(fld),
            fi.report_pgammal(fld),
            fi.report_m_class_count(fld),
            fi.report_commutativity(fld),
        ]
    return [
        fi.report_geometry(fld),
        fi.report_embedding(fld),
        fi.report_ft(fld),
        fi.report_scheme_axioms(fld),
        fi.report_fusion_lattice(fld),
        *(fi.report_three_domain_isomorphism(fld, gid) for gid in ("pgl", "psl", "pgammal", "m")),
        fi.report_psl_class_count(fld),
        fi.report_transpose_rules(fld),
        fi.report_pgammal(fld),
        fi.report_commutativity(fld),
        fi.report_m9_octagon(),
        fi.report_q9_fusion_diagram(),
    ]


@pytest.mark.parametrize("q", [9, 25])
def test_verify_paper_equals_the_reports_called_directly(q):
    assert _stripped(fi.verify_paper([q])) == _stripped(_reports_called_directly(q))
    assert not hasattr(field(q), "_build_memo")


def _spy(monkeypatch, module, name, seen):
    """Replace module.name by a wrapper that passes (args, result) to `seen`."""
    orig = getattr(module, name)

    def spied(*args, **kwargs):
        out = orig(*args, **kwargs)
        seen(args, out)
        return out

    monkeypatch.setattr(module, name, spied)


def test_verify_paper_builds_each_q49_scheme_once(monkeypatch):
    gids = []
    _spy(monkeypatch, sc, "orbital_scheme_via_stabilizer", lambda args, S: gids.append(args[1]))
    assert all(r.passed for r in fi.verify_paper([49]))
    # the class-count reports build psl and m, the transpose rules and the
    # commutativity survey get the same schemes back
    assert sorted(gids) == ["m", "pgammal", "psl"]


def test_scheme_axioms_report_reads_the_labeled_builds(monkeypatch):
    gids = []
    _spy(monkeypatch, fi, "_labeled_scheme", lambda args, S: gids.append(args[1]))
    fld = field(9)
    fld._build_memo = {}
    try:
        assert fi.report_scheme_axioms(fld).passed
        # the next report asks for the scheme the axioms report built last
        assert fi.m_scheme(fld) is fld._build_memo[("labeled", "m", "pairs", True)]
    finally:
        del fld._build_memo
    assert gids == ["pgl", "psl", "pgammal", "m"]


def test_scheme_axioms_report_notes_each_failed_identity_once(monkeypatch):
    """Adding 1 to every intersection number breaks the counting identity
    k_k p^k_ij = k_i p^i_kj' wherever k_i != k_k, for many (i, j); the
    report notes it once per group."""
    real = fi._group_scheme

    def doctored(fld, gid, check, allow_large):
        S = real(fld, gid, check, allow_large)
        S._p_tensor = S.p_tensor() + 1
        return S

    monkeypatch.setattr(fi, "_group_scheme", doctored)
    rep = fi.report_scheme_axioms(field(5))
    assert not rep.passed
    notes = rep.note.split("; ")
    for gid in ("pgl", "psl", "pgammal"):
        assert notes.count(f"{gid}: counting identity fails") == 1
    monkeypatch.setattr(fi, "_group_scheme", real)
    rep = fi.report_scheme_axioms(field(5))
    assert rep.passed and rep.note == ""


def test_the_memo_holds_nothing_while_a_scheme_is_built(monkeypatch):
    fld = field(9)
    held = []
    for module, name in [
        (sc, "orbital_scheme_via_stabilizer"),
        (sc, "group_orbital_scheme"),
        (sc, "triangular_scheme"),
        (fi, "build_ft"),
    ]:
        orig = getattr(module, name)

        def guarded(*args, _orig=orig, **kwargs):
            held.append(len(fld._build_memo))
            return _orig(*args, **kwargs)

        monkeypatch.setattr(module, name, guarded)
    assert all(r.passed for r in fi.verify_paper([9]))
    assert len(held) > 20 and not any(held)


def _weakrefs_to_stabilizer_builds(monkeypatch):
    import weakref

    refs = []
    _spy(
        monkeypatch, sc, "orbital_scheme_via_stabilizer", lambda args, S: refs.append(weakref.ref(S))
    )
    return refs


def test_the_memo_and_its_schemes_die_with_the_call(monkeypatch):
    refs = _weakrefs_to_stabilizer_builds(monkeypatch)
    fi.verify_paper([9])
    assert not hasattr(field(9), "_build_memo")
    assert refs and all(r() is None for r in refs)


def test_the_memo_and_its_schemes_die_when_a_report_raises(monkeypatch):
    refs = _weakrefs_to_stabilizer_builds(monkeypatch)
    held = []

    def failing_report(fld):
        held.append(len(fld._build_memo))
        raise RuntimeError("report failed")

    monkeypatch.setattr(fi, "report_pgammal", failing_report)
    with pytest.raises(RuntimeError, match="report failed"):
        fi.verify_paper([9])
    assert held == [1]
    assert not hasattr(field(9), "_build_memo")
    assert refs and all(r() is None for r in refs)
