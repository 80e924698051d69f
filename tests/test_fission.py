"""The labeled fission schemes and every structural claim about them."""

import json
import tracemalloc
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

import golden
import oracles as orc
from scheme_forge.gf import GF, field
from scheme_forge.geometry import Domain, Plane, domain, pairs_domain
from scheme_forge.schemes import (
    fusion_map,
    group_orbital_scheme,
    is_fusion,
    p_polynomial_orderings,
    partition_bijection,
    triangular_scheme,
)
from scheme_forge import fission as fi
from scheme_forge import moebius as mo
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
    assert np.array_equal(dom.coords, fresh.coords) and dom.base_index == fresh.base_index
    assert fi.domain_for(fld, "pairs") is not dom


# the entries of the field memo that hold arrays, once a `psl` build and a
# three-domain report have run, besides the table of groups
MEMO_ARRAYS = (
    "psl transporters",
    ("generator perms", "pairs"),
    ("generator perms", "hyp-lines"),
    ("generator perms", "hyp-points"),
    "cross-ratio keys",
)


def _memo_arrays(fld):
    fi.labeled_scheme(fld, "psl")
    fi.report_three_domain_isomorphism(fld, "psl")
    table = {("groups", gid): entry for gid, entry in fld._memo["groups"].items()}
    return table | {key: fld._memo[key] for key in MEMO_ARRAYS}


def _equal_entries(x, y):
    pairs = zip(x, y, strict=True) if isinstance(x, tuple) else [(x, y)]
    return all(np.array_equal(u, v) if isinstance(u, np.ndarray) else u == v for u, v in pairs)


def test_memo_arrays_are_read_only():
    """No reader can change what every later build over the field reads."""
    for key, value in _memo_arrays(field(9)).items():
        for a in value if isinstance(value, tuple) else (value,):
            if isinstance(a, np.ndarray):
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = 0
    with pytest.raises(ValueError, match="read-only"):
        mo.generators(field(9), "pgl")[0, 0] = 0


@pytest.mark.parametrize("q", [9, 127])
def test_psl_transporters_are_kept_as_int16(q):
    """Every code and exponent of a transporter is below `gf.MAX_Q`, so the
    memo keeps them as int16, a quarter of the kernel's int64 rows."""
    fld = field(q)
    fi.labeled_scheme(fld, "psl")
    transporters = fld._memo["psl transporters"]
    assert transporters.dtype == np.int16 and not transporters.flags.writeable
    pairs = fi.domain_for(fld, "pairs").plane.pg1.pairs
    assert np.array_equal(transporters, mo.transporters_to_base(fld, pairs))


def test_memo_entries_are_keyed_by_the_field():
    """field(9) and field(9, modulus=(1, 0, 1)) code the elements apart:
    each holds its own entries, equal to those a fresh field with its
    modulus builds, and its transporters are those of the kernel."""
    conway, other = field(9), field(9, modulus=(1, 0, 1))
    held = {fld: _memo_arrays(fld) for fld in (conway, other)}
    assert not np.array_equal(held[conway]["psl transporters"], held[other]["psl transporters"])
    for fld, entries in held.items():
        fresh = _memo_arrays(GF(9, modulus=fld.modulus))
        assert all(_equal_entries(value, fresh[key]) for key, value in entries.items()), fld
        pairs = fi.domain_for(fld, "pairs").plane.pg1.pairs
        assert np.array_equal(entries["psl transporters"], mo.transporters_to_base(GF(9, fld.modulus), pairs))


def test_verify_paper_shares_the_work_of_each_field(monkeypatch):
    """On a fresh field, `verify_paper([9])` computes the `psl` transporters
    once for its four stabilizer builds, moves each domain kind once by
    the generators of every group, for the generic `pgl` build and the
    four three-domain reports, and labels each cross-ratio key once for
    the five labelings (FT and the four groups)."""
    _on_uncached_fields(monkeypatch)
    fields, kinds, gammas = [], [], []
    _spy(monkeypatch, mo, "transporters_to_base", lambda args, out: fields.append(args[0]))
    _spy(monkeypatch, mo, "domain_perms", lambda args, out: kinds.append(args[1].kind))
    _spy(monkeypatch, fi, "psl_orbit_label", lambda args, out: gammas.append(args[1]))
    assert all(r.passed for r in fi.verify_paper([9]))
    (fld,) = fields
    assert sorted(kinds) == sorted(Domain.KINDS)
    assert len(gammas) == len(fld._memo["cross-ratio keys"][3]) <= 2 * fld.q + 1


def test_octagon_report_computes_the_orderings_once(monkeypatch):
    S = fi.labeled_scheme(field(9), "m")
    calls = []
    _spy(monkeypatch, sc, "p_polynomial_orderings", lambda args, out: calls.append(args[0]))
    reports = fi._group_reports("m", S)
    assert [(r.theorem_id, r.passed) for r in reports] == [("m-commutativity", True), ("m9-octagon", True)]
    assert calls == [S]


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
    """The cross-ratio construction equals the group-orbital one, under a
    unique relabeling of classes."""
    fld = field(q)
    orbital = group_orbital_scheme(fld, "pgl", pairs_domain(Plane(fld)))
    assert partition_bijection(fi.build_ft(fld), orbital) is not None


def test_ft_q9_class_labels():
    fld = field(9)
    g = fld.primitive_element()
    ft = fi.build_ft(fld)
    assert ft.d == 5

    def rep(r):
        return min(r, fld.inv(r), key=fld.rank)

    expected = {("diagonal", None), ("share", None), ("harmonic", None)}
    expected |= {("ratio", rep(orc.power(fld, g, e))) for e in (1, 2, 3)}
    assert {(l.kind, l.rep) for l in ft.labels} == expected


def test_ft_fuses_to_triangular():
    for q in (5, 9):
        fld = field(q)
        ft = fi.build_ft(fld)
        tri = triangular_scheme(pairs_domain(Plane(fld)))
        part = [{"diagonal": 0, "share": 1}.get(lab.kind, 2) for lab in ft.labels]
        assert is_fusion(tri, ft, part)


test_ft_keeps_its_bytes = golden.gate(r"matrix ft --q (\d+)")


@pytest.mark.parametrize("name", ["ft", "t"])
def test_closed_form_build_and_p_tensor_hold_no_n_by_n_array(name):
    """FT and T at q = 121 (n = 7381), built, certified on point tables
    and counted into their p-tensor with no matrix: measured 0.08 n^2
    bytes for FT, mostly the row blocks of the p-tensor, and 0.03 n^2 for
    T; the n x n fill and its certificate had peaked at 1.03 n^2 for the
    FT build alone."""
    fld = field(121)
    n = fi.domain_for(fld, "pairs").n
    tracemalloc.start()
    try:
        S = fi.build_ft(fld) if name == "ft" else triangular_scheme(fi.domain_for(fld, "pairs"))
        S.p_tensor()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert S._matrix is None and S.verified_by == "cross-ratio"
    assert peak < 0.2 * n * n


def test_closed_form_builders_take_no_dense_path(monkeypatch):
    """Neither builder passes a matrix to `Scheme` or fills one: both end
    in `Scheme._from_rows`, and their parameters, p-tensor and
    P-polynomial orderings are read from rows."""

    def dense(*args, **kwargs):
        raise AssertionError("a closed-form builder took the dense path")

    fld = GF(25)
    dom = fi.domain_for(fld, "pairs")
    monkeypatch.setattr(sc.Scheme, "__init__", dense)
    monkeypatch.setattr(sc, "_fill_matrix", dense)
    for S in (fi.build_ft(fld), triangular_scheme(dom)):
        assert S.verified_by == "cross-ratio" and S.n == dom.n
        S.p_tensor()
        p_polynomial_orderings(S)
        assert S._matrix is None


def test_ft_certificate_refuses_what_does_not_prove_it(monkeypatch):
    """The Frobenius t -> t^3 at q = 9 maps the cross-ratio r to r^3,
    so it does not scale the determinant table; the shift t -> t + 1
    alone fixes infinity, so it is not transitive on the pairs."""
    real, calls = mo.generators, []

    def with_frobenius(fld, gid):
        calls.append(gid)
        return np.vstack([real(fld, gid), [(1, 0, 0, 1, 1)]])

    monkeypatch.setattr(mo, "generators", with_frobenius)
    with pytest.raises(sc.NotASchemeError, match="does not scale"):
        fi.build_ft(GF(9))
    monkeypatch.setattr(mo, "generators", lambda fld, gid: calls.append(gid) or real(fld, gid)[:1])
    with pytest.raises(sc.NotASchemeError, match="not transitive"):
        fi.build_ft(GF(7))
    assert calls == ["pgl", "pgl"]


def _ft_arguments(monkeypatch, q):
    """The pairs domain, determinant table and `pgl` point permutations
    that `build_ft` hands to `cross_ratio_scheme` at q."""
    seen = {}
    real = sc.cross_ratio_scheme

    def spy(dom, table, points):
        seen.update(dom=dom, table=table.copy(), points=points.copy())
        return real(dom, table, points)

    with monkeypatch.context() as m:
        m.setattr(sc, "cross_ratio_scheme", spy)
        fi.build_ft(GF(q))
    return seen["dom"], seen["table"], seen["points"]


@pytest.mark.parametrize(
    "fault, message",
    [
        ("zeroed pair", "zero exactly on the diagonal"),
        ("nonzero diagonal", "zero exactly on the diagonal"),
        ("not a field code", "zero exactly on the diagonal"),
        ("repeated point", "permutation"),
    ],
)
def test_cross_ratio_scheme_refuses_data_it_cannot_read(monkeypatch, fault, message):
    """The codes count shared points by the zeros of the table, so its
    zeros must be exactly the diagonal and its entries field codes, and
    every generator must be a permutation of PG(1,q)."""
    dom, D, points = _ft_arguments(monkeypatch, 7)
    if fault == "zeroed pair":
        D[2, 5] = D[5, 2] = 0
    elif fault == "nonzero diagonal":
        D[3, 3] = 1
    elif fault == "not a field code":
        D[1, 4] = dom.field.q
    else:
        points[-1, 0] = points[-1, 1]
    with pytest.raises(sc.NotASchemeError, match=message):
        sc.cross_ratio_scheme(dom, D, points)


def test_cross_ratio_scheme_refuses_a_generator_that_does_not_scale_the_table(monkeypatch):
    """The `pgl` generators scale D and certify FT(6); the transposition
    (0 1) added as the last generator is a permutation but lies in no
    PGL(2,5), which fixes no 3 points but the identity, and it breaks
    the cross-ratios.  It does not fix the base pair {0, oo}, so the
    orbit certificate alone would accept the codes: only the scaling
    check sees it."""
    dom, D, points = _ft_arguments(monkeypatch, 5)
    assert sc.cross_ratio_scheme(dom, D, points).verified_by == "cross-ratio"
    swap = np.arange(6, dtype=points.dtype)
    swap[[0, 1]] = [1, 0]
    with pytest.raises(sc.NotASchemeError, match="does not scale"):
        sc.cross_ratio_scheme(dom, D, np.vstack([points, swap]))


def test_cross_ratio_scheme_checks_the_scaling_of_column_0(monkeypatch):
    """Column 0 of D multiplied by the point's own field element (1 at
    oo): row 0 and the block of rows and columns 1..q still scale under
    t -> g t, which fixes 0 and oo, but column 0 moves by one more factor
    g at every finite point and not at oo, which changes the cross-ratio
    of some {x, oo} against some {0, y}, so the generator is refused."""
    dom, D, points = _ft_arguments(monkeypatch, 7)
    fld, q = dom.field, dom.field.q
    D[1:q, 0] = fld.MUL[D[1:q, 0], fld.BY_RANK[1:q]]
    scaling = points[1:2]
    assert np.array_equal(scaling[0, [0, q]], [0, q])
    with pytest.raises(sc.NotASchemeError, match="does not scale"):
        sc.cross_ratio_scheme(dom, D, scaling)


def test_cross_ratio_certificate_binds_the_class_count(monkeypatch):
    """T's table of 1s is scaled by every permutation, so the `pgl`
    generators pass the scaling check on it; but the stabilizer of the
    base pair in PGL(2,q) has more orbits than T has classes, and the
    certificate refuses them."""
    dom, _, points = _ft_arguments(monkeypatch, 9)
    ones = 1 - np.eye(10, dtype=np.intp)
    with pytest.raises(sc.NotASchemeError, match="base row"):
        sc.cross_ratio_scheme(dom, ones, points)


# -- the square-determinant subgroup ------------------------------------------------


@pytest.mark.parametrize(
    "q,expected", [(5, 5), (7, 6), (9, 8), (11, 9), (13, 11), (19, 15), (25, 20)]
)
def test_psl_class_count(q, expected):
    assert fi.PREDICTIONS["psl-class-count"][1](field(q))["classes"] == expected
    rep = fi.report_theorem("psl-class-count", fi.labeled_scheme(field(q), "psl"))
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


@pytest.mark.parametrize("q", [5, 7, 9, 11, 13, 25, 27, 49, 81])
def test_closed_forms_agree_with_the_keyed_labels_at_every_pair(q):
    """Each group's closed form, called on every pair of the base row,
    gives the label that the once-per-key pass gave that pair's class:
    the closed forms are constant on the cross-ratio keys."""
    fld = field(q)
    for gid in mo.groups(fld):
        label_of_pair = fi.GROUP_SCHEMES[gid][0]
        S = fi._labeled_scheme(fld, gid)
        row = S.relation_matrix[S.domain.base_index].tolist()
        for k, pair in zip(row, S.domain.plane.pg1.pairs.tolist()):
            assert label_of_pair(fld, tuple(pair)) == S.labels[k], (gid, pair)


def test_labels_that_do_not_match_the_classes_raise():
    """The pgl labels give both halves of each split psl class one label;
    a base row that puts the pairs of one key in two classes is rejected
    before any label is computed."""
    fld = field(9)
    S = fi.labeled_scheme(fld, "psl")
    dom = S.domain
    row = S.row(dom.base_index)
    with pytest.raises(fi.TheoremViolationError, match="two distinct computed orbits"):
        fi._labels_from_base_row(fld, row, dom, S.d, fi._ft_label_of_pair)
    split = row.copy()
    split[S.n - 1] = S.d + 1
    with pytest.raises(fi.TheoremViolationError, match="key spans two"):
        fi._labels_from_base_row(fld, split, dom, S.d + 1, fi.psl_orbit_label)


@pytest.mark.parametrize("q", [5, 9, 13, 25])
def test_psl_orbit_length_bookkeeping(q):
    fld = field(q)
    S = fi.labeled_scheme(fld, "psl")
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
    S = fi.labeled_scheme(fld, "psl")
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
    S = fi.labeled_scheme(field(q), "psl")
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
    rep = fi.report_transpose_rules(fi.labeled_scheme(field(q), "psl"))
    assert rep.passed, rep.note
    assert "minus-sign partner" in rep.note


@pytest.mark.parametrize("q", [7, 11])
def test_transpose_rules_3mod4(q):
    rep = fi.report_transpose_rules(fi.labeled_scheme(field(q), "psl"))
    assert rep.passed, rep.note


def test_transpose_rule_q9_harmonic_self_paired():
    """2 = -1 is a square in GF(9), so the harmonic halves are symmetric."""
    fld = field(9)
    assert fld.is_square(fld.add(1, 1))
    S = fi.labeled_scheme(fld, "psl")
    for k, lab in enumerate(S.labels):
        if lab.kind == "harmonic":
            assert S.transpose_map[k] == k


def test_transpose_rule_q13_harmonic_swapped():
    fld = field(13)
    assert not fld.is_square(2)
    S = fi.labeled_scheme(fld, "psl")
    ks = [k for k, lab in enumerate(S.labels) if lab.kind == "harmonic"]
    assert len(ks) == 2
    assert int(S.transpose_map[ks[0]]) == ks[1]


# -- the twisted sharply 3-transitive group -------------------------------------------


@pytest.mark.parametrize("q,expected", [(25, 10), (49, 19), (81, 31)])
def test_m_class_count(q, expected):
    rep = fi.report_theorem("m-class-count", fi.labeled_scheme(field(q), "m"))
    assert rep.passed, rep.computed
    assert rep.computed == {"classes": expected, "symmetric": False}


def test_labeled_scheme_is_the_builder_the_tracer_names():
    """The exported entry point is `_labeled_scheme` itself, so the layer
    tracer, which wraps every binding of that object, times its calls."""
    import scheme_forge

    assert scheme_forge.labeled_scheme is fi.labeled_scheme is fi._labeled_scheme


def test_m_rejects_odd_power():
    from scheme_forge.moebius import InvalidGroupError

    with pytest.raises(InvalidGroupError):
        fi.labeled_scheme(field(7), "m")
    with pytest.raises(InvalidGroupError):
        fi.labeled_scheme(field(27), "m")


@pytest.mark.parametrize("q", [9, 25, 49])
def test_m_labels_match_independent_orbitals(q):
    fld = field(q)
    S = fi.labeled_scheme(fld, "m")  # labeled builder already cross-checks; spot-check too
    dom = S.domain
    base = dom.base_index
    for y in range(0, dom.n, 7):
        lab = fi.m_orbit_label(fld, tuple(int(v) for v in dom.plane.pg1.pairs[y]))
        k = int(S.relation_matrix[base, y])
        assert S.labels[k].key() == lab.key()


@pytest.mark.parametrize("q", [9, 25, 49, 81])
def test_m_orbit_bookkeeping(q):
    fld = field(q)
    S = fi.labeled_scheme(fld, "m")
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
    S = fi.labeled_scheme(fld, "m")
    by_key = {lab.key(): k for k, lab in enumerate(S.labels)}
    nonsym = [k for k in range(S.d + 1) if S.transpose_map[k] != k]
    assert nonsym, "the scheme must be non-symmetric for q > 9"
    for k in nonsym:
        lab = S.labels[k]
        assert lab.kind == "ratio" and lab.sign != 0
        assert int(S.transpose_map[k]) == by_key[(lab.kind, lab.rep, -lab.sign)]


def test_m9_structure_with_bfs_oracle():
    S = fi.labeled_scheme(field(9), "m")
    rep = fi.report_theorem("m9-octagon", S)
    assert rep.passed, rep.computed
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
    rep = fi.report_theorem("m-commutativity", fi.labeled_scheme(field(q), "m"))
    assert rep.passed, rep.computed


def test_commutativity_survey_deep_q81():
    rep = fi.report_theorem("m-commutativity", fi.labeled_scheme(field(81), "m"))
    assert rep.passed, rep.computed


# -- the full semilinear group ---------------------------------------------------------


@pytest.mark.parametrize("q,expected", [(9, 4), (25, 9), (49, 16)])
def test_pgammal_class_count(q, expected):
    rep = fi.report_theorem("pgammal-class-count", fi.labeled_scheme(field(q), "pgammal"))
    assert rep.passed, rep.computed
    assert rep.computed["classes"] == expected


def test_pgammal_prime_field_reduces_to_ft():
    fld = field(7)
    assert fi.count_pgammal_classes(fld) == (7 + 1) // 2
    S = fi.labeled_scheme(fld, "pgammal")
    ft = fi.build_ft(fld)
    assert partition_bijection(S, ft) is not None


def _pgammal_classes_by_search(fld):
    """Oracle: 2 + the orbits of <Frobenius, inversion> on the nonzero
    field elements other than +-1, by a scalar stack search."""
    left = set(range(1, fld.q)) - {1, fld.neg(1)}
    orbits = 0
    while left:
        stack = [left.pop()]
        while stack:
            t = stack.pop()
            for u in [fld.inv(t)] + [orc.frobenius(fld, t, j) for j in range(fld.m)]:
                if u in left:
                    left.remove(u)
                    stack.append(u)
        orbits += 1
    return 2 + orbits


def _is_prime_power(q):
    p = next(k for k in range(2, q + 1) if q % k == 0)
    while q % p == 0:
        q //= p
    return q == 1


def test_pgammal_class_count_equals_the_scalar_search():
    qs = [q for q in range(5, 170, 2) if _is_prime_power(q)]
    assert len(qs) == 45
    for q in qs:
        fld = field(q)
        assert fi.count_pgammal_classes(fld) == _pgammal_classes_by_search(fld), q


def test_pgammal_report_counts_the_classes_once(monkeypatch):
    """Each prediction is evaluated once per report: at q = 25 the paper
    gives the count, so only `count_agrees` counts; at q = 5 the prediction
    counts too."""
    calls = []
    real = fi.count_pgammal_classes
    monkeypatch.setattr(fi, "count_pgammal_classes", lambda fld: calls.append(1) or real(fld))
    for q, want in ((25, 1), (5, 2)):
        calls.clear()
        (rep,) = fi._group_reports("pgammal", fi.labeled_scheme(field(q), "pgammal"))
        assert (rep.theorem_id, rep.passed, len(calls)) == ("pgammal-class-count", True, want)


@pytest.mark.parametrize("q", [9, 25, 49])
def test_pgammal_count_matches_built_scheme(q):
    fld = field(q)
    assert fi.labeled_scheme(fld, "pgammal").d == fi.count_pgammal_classes(fld)


def test_pgammal_q9_p_polynomial_via_harmonic():
    S = fi.labeled_scheme(field(9), "pgammal")
    orders = p_polynomial_orderings(S)
    assert orders and S.labels[orders[0]["relation"]].kind == "harmonic"


@pytest.mark.parametrize("q", [25, 49])
def test_pgammal_not_p_polynomial(q):
    S = fi.labeled_scheme(field(q), "pgammal")
    assert p_polynomial_orderings(S) == []


@pytest.mark.parametrize("q", [5, 7, 9, 13])
def test_pgammal_symmetric(q):
    assert fi.labeled_scheme(field(q), "pgammal").is_symmetric()


@pytest.mark.parametrize("q", [9, 25])
def test_pgammal_share_class_is_original_triangular_relation(q):
    """The touching relation survives unsplit all the way down: the
    semilinear share class is exactly the triangular 'meet' class."""
    fld = field(q)
    S = fi.labeled_scheme(fld, "pgammal")
    tri = triangular_scheme(pairs_domain(Plane(fld)))
    part = fusion_map(tri, S)
    assert part is not None
    share = [k for k, lab in enumerate(S.labels) if lab.kind == "share"]
    assert len(share) == 1
    assert [k for k in range(S.d + 1) if part[k] == part[share[0]]] == share


# -- cross-domain isomorphism and the fusion lattice -------------------------------------


@pytest.mark.parametrize("q", [5, 7, 9, 13])
def test_three_domain_isomorphism(q):
    """The report passes, and the dense generic-path schemes it stands
    for have one pair partition on the three domains."""
    fld = field(q)
    for gid in mo.groups(fld):
        rep = fi.report_three_domain_isomorphism(fld, gid)
        assert rep.passed, (q, gid)
        on_pairs, *on_plane = [
            group_orbital_scheme(fld, gid, fi.domain_for(fld, kind))
            for kind in ("pairs", "hyp-lines", "hyp-points")
        ]
        assert all(sc.partition_bijection(on_pairs, S) is not None for S in on_plane), (q, gid)


def test_three_domain_report_fails_on_a_swapped_line_permutation(monkeypatch):
    """Two entries of one generator's permutation of the secant lines
    swapped: the three arrays differ, and the report says so."""
    swapped = []

    def swapped_on_lines(maps, dom, _orig=mo.domain_perms):
        perms = _orig(maps, dom)
        if dom.kind == "hyp-lines":
            # the row of t -> g^2 t, the second `psl` generator
            r = maps.tolist().index(mo.generators(dom.field, "psl")[1].tolist())
            perms[r, [0, 1]] = perms[r, [1, 0]]
            swapped.append(r)
        return perms

    assert fi.report_three_domain_isomorphism(field(9), "psl").passed
    monkeypatch.setattr(mo, "domain_perms", swapped_on_lines)
    rep = fi.report_three_domain_isomorphism(GF(9), "psl")
    assert not rep.passed and rep.computed == {"isomorphic": False}
    assert len(swapped) == 1


def _lattice_schemes(fld):
    """The triangular, FT, psl, pgammal and (at even powers) m schemes."""
    gids = [gid for gid in fi.GROUP_SCHEMES if gid in mo.groups(fld)][1:]
    tri = triangular_scheme(fi.domain_for(fld, "pairs"))
    return [tri, fi.build_ft(fld)] + [fi._labeled_scheme(fld, gid) for gid in gids]


@pytest.mark.parametrize("q", [5, 7, 9, 13])
def test_fusion_lattice(q):
    rep = fi.report_fusion_lattice(*_lattice_schemes(field(q)))
    assert rep.passed, rep.computed


def test_fusion_lattice_fails_on_swapped_schemes():
    """FT in the place of psl and psl in the place of FT: psl does not
    refine FT, so that edge is reported failed, not raised."""
    tri, ft, psl, pgml = _lattice_schemes(field(5))
    rep = fi.report_fusion_lattice(tri, psl, ft, pgml)
    assert not rep.passed
    assert rep.computed["ft_fuses_psl"] is False


def test_q9_fusion_diagram():
    rep = fi.report_q9_fusion_diagram(*_lattice_schemes(field(9)))
    assert rep.passed, rep.computed
    assert rep.computed["m_nontrivial_classes"] == 4
    assert rep.computed["pgammal_equals_m"]


def test_m9_merges_the_two_nonsquare_ratio_classes():
    """Bottom row of the q = 9 diagram: the primitive-element class and
    its cube fuse; the square class and harmonic class split-and-refuse."""
    fld = field(9)
    g = fld.primitive_element()
    msch = fi.labeled_scheme(fld, "m")
    ft = fi.build_ft(fld)
    part = fusion_map(msch, ft)
    assert part is not None

    def ft_class_of(r):
        for k, lab in enumerate(ft.labels):
            if lab.kind == "ratio" and r in lab.orbit:
                return k
        raise AssertionError

    k_g = ft_class_of(g)
    k_g3 = ft_class_of(orc.power(fld, g, 3))
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


def test_a_report_passes_exactly_when_its_data_agree():
    rep = fi.TheoremReport("t", 5, {"classes": 3}, {"classes": 4})
    assert not rep.passed and rep.to_dict()["passed"] is False
    rep.computed["classes"] = 3
    assert rep.passed and rep.to_dict()["passed"] is True


def _changed(value):
    """Another value of the same kind: a bool negated, a number plus one."""
    return (not value) if isinstance(value, bool) else value + 1


@pytest.mark.parametrize("theorem_id", list(fi.PREDICTIONS))
def test_one_changed_prediction_fails_exactly_its_report(monkeypatch, theorem_id):
    """Each prediction lives in one table entry and is checked by one
    report: changing the first predicted value of an entry fails that
    report alone, at q = 25 or, for an entry silent there, q = 9, and no
    build raises."""
    gid, predict = fi.PREDICTIONS[theorem_id]
    q = next(q for q in (25, 9) if predict(field(q)) is not None)

    def changed(fld):
        predicted = predict(fld)
        key = next(iter(predicted))
        return {**predicted, key: _changed(predicted[key])}

    monkeypatch.setitem(fi.PREDICTIONS, theorem_id, (gid, changed))
    reports = fi.verify_paper([q])
    assert [r.theorem_id for r in reports if not r.passed] == [theorem_id]


# -- the build plan of verify_paper ----------------------------------------------------


def _stripped(reports):
    out = []
    for r in reports:
        d = r.to_dict()
        del d["elapsed"]
        out.append(d)
    return out


def _reports_called_directly(q):
    """What verify_paper([q]) runs at q = 9 or 25, in its order, each
    report given schemes built for it alone."""
    fld = field(q)
    if q == 25:
        return [
            fi.report_theorem("psl-class-count", fi.labeled_scheme(fld, "psl")),
            fi.report_transpose_rules(fi.labeled_scheme(fld, "psl")),
            fi.report_theorem("pgammal-class-count", fi.labeled_scheme(fld, "pgammal")),
            fi.report_theorem("m-class-count", fi.labeled_scheme(fld, "m")),
            fi.report_theorem("m-commutativity", fi.labeled_scheme(fld, "m")),
        ]
    gids = ("pgl", "psl", "pgammal", "m")
    return [
        fi.report_geometry(fld),
        fi.report_embedding(fld),
        fi.report_ft(fi.build_ft(fld), group_orbital_scheme(fld, "pgl", fi.domain_for(fld, "pairs"))),
        fi.report_scheme_axioms({gid: fi._labeled_scheme(fld, gid) for gid in gids}),
        fi.report_fusion_lattice(*_lattice_schemes(fld)),
        *(fi.report_three_domain_isomorphism(fld, gid) for gid in gids),
        fi.report_theorem("psl-class-count", fi.labeled_scheme(fld, "psl")),
        fi.report_transpose_rules(fi.labeled_scheme(fld, "psl")),
        fi.report_theorem("pgammal-class-count", fi.labeled_scheme(fld, "pgammal")),
        fi.report_theorem("m-commutativity", fi.labeled_scheme(fld, "m")),
        fi.report_theorem("m9-octagon", fi.labeled_scheme(fld, "m")),
        fi.report_q9_fusion_diagram(*_lattice_schemes(fld)),
    ]


@pytest.mark.parametrize("q", [9, 25])
def test_verify_paper_equals_the_reports_called_directly(q):
    assert _stripped(fi.verify_paper([q])) == _stripped(_reports_called_directly(q))


def test_verify_paper_keeps_the_benchmark_reference_order(monkeypatch):
    """`verify_paper([q])` without `elapsed`, as JSON data, is the benchmark's
    reference list for q, report for report and in order, at every q the
    `verify` workload runs.  The CLI digest hashes reports sorted by (q,
    id), so it does not pin this order.  The test only reads perfbench/."""
    root = Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root))
    from perfbench import workloads

    reference = json.loads((root / "perfbench" / "reference.json").read_text())["verify"]
    assert sorted(reference, key=int) == [str(q) for q in workloads.VERIFY_QS]
    for q in workloads.VERIFY_QS:
        reports = [workloads.strip_report(r) for r in fi.verify_paper([q])]
        assert json.loads(json.dumps(reports)) == reference[str(q)], q


def _on_uncached_fields(monkeypatch):
    """Make `verify_paper` build on a new GF(q) at each q, so a spy on a
    kernel sees the work of the field's memo and leaves no entry in it
    that a later test reads (see conftest.py)."""
    monkeypatch.setattr(fi, "field", GF)


def _spy(monkeypatch, module, name, seen):
    """Replace module.name by a wrapper that passes (args, result) to `seen`."""
    orig = getattr(module, name)

    def spied(*args, **kwargs):
        out = orig(*args, **kwargs)
        seen(args, out)
        return out

    monkeypatch.setattr(module, name, spied)


# the builders of verify_paper, and how to read (field, group, domain kind)
# off their arguments
BUILDERS = [
    (fi, "build_ft", lambda a: (a[0], "ft", "pairs")),
    (sc, "triangular_scheme", lambda a: (a[0].field, "t", "pairs")),
    (sc, "orbital_scheme_via_stabilizer", lambda a: (a[0], a[1], a[2].kind)),
    (sc, "group_orbital_scheme", lambda a: (a[0], a[1], a[2].kind)),
]


def test_verify_paper_builds_each_q49_scheme_once(monkeypatch):
    _on_uncached_fields(monkeypatch)
    gids = []
    _spy(monkeypatch, sc, "orbital_scheme_via_stabilizer", lambda args, S: gids.append(args[1]))
    assert all(r.passed for r in fi.verify_paper([49]))
    # the class-count reports, the transpose rules and the commutativity
    # survey read the psl, pgammal and m schemes the plan built
    assert sorted(gids) == ["m", "pgammal", "psl"]


def test_verify_paper_builds_each_scheme_at_most_once_per_q(monkeypatch):
    _on_uncached_fields(monkeypatch)
    builds = []
    for module, name, key in BUILDERS:
        _spy(
            monkeypatch,
            module,
            name,
            lambda args, S, name=name, key=key: builds.append((name, *key(args))),
        )
    assert all(r.passed for r in fi.verify_paper([5, 7, 9, 11, 13, 25, 49]))
    keys = [(name, fld.q, gid, kind) for name, fld, gid, kind in builds]
    assert len(keys) == len(set(keys)) == 37


def test_suites_past_q13_never_fill_a_matrix(monkeypatch):
    """Above q = 13 the reports read parameters, labels and p-tensors,
    which the stabilizer path proves without the relation matrix."""
    _on_uncached_fields(monkeypatch)
    filled = []
    _spy(monkeypatch, sc, "_fill_matrix", lambda args, M: filled.append(M.shape))
    for q in (25, 49):
        assert all(r.passed for r in fi.verify_paper([q]))
    assert filled == []
    assert all(r.passed for r in fi.verify_paper([9]))
    assert (45, 45) in filled


def test_scheme_axioms_report_reads_the_labeled_builds(monkeypatch):
    built, read = [], []
    _spy(monkeypatch, fi, "_labeled_scheme", lambda args, S: built.append(S))
    _spy(monkeypatch, fi, "report_scheme_axioms", lambda args, rep: read.append(args[0]))
    assert all(r.passed for r in fi.verify_paper([9]))
    assert list(read[0]) == ["pgl", "psl", "pgammal", "m"]
    assert list(read[0].values()) == built


def test_scheme_axioms_report_notes_each_failed_identity_once():
    """Adding 1 to every intersection number breaks the counting identity
    k_k p^k_ij = k_i p^i_kj' wherever k_i != k_k, for many (i, j); the
    report notes it once per group."""
    fld = field(5)
    gids = ("pgl", "psl", "pgammal")
    doctored = {gid: fi._labeled_scheme(fld, gid) for gid in gids}
    for S in doctored.values():
        S._p_tensor = S.p_tensor() + 1
    rep = fi.report_scheme_axioms(doctored)
    assert not rep.passed
    notes = rep.note.split("; ")
    for gid in gids:
        assert notes.count(f"{gid}: counting identity fails") == 1
    rep = fi.report_scheme_axioms({gid: fi._labeled_scheme(fld, gid) for gid in gids})
    assert rep.passed and rep.note == ""


def _weakrefs_to_builds(monkeypatch, before_build=None):
    """Weak references to every scheme the builders of verify_paper make;
    `before_build(refs)` runs as each stabilizer build starts."""
    import weakref

    _on_uncached_fields(monkeypatch)
    refs = []
    for module, name, _ in BUILDERS:
        orig = getattr(module, name)

        def spied(*args, _orig=orig, _name=name, **kwargs):
            if before_build is not None and _name == "orbital_scheme_via_stabilizer":
                before_build(refs)
            S = _orig(*args, **kwargs)
            refs.append(weakref.ref(S))
            return S

        monkeypatch.setattr(module, name, spied)
    return refs


def test_no_earlier_group_scheme_is_alive_at_a_stabilizer_build(monkeypatch):
    alive = []
    refs = _weakrefs_to_builds(
        monkeypatch, lambda refs: alive.append(sum(r() is not None for r in refs))
    )
    for q in (25, 49):
        assert all(r.passed for r in fi.verify_paper([q]))
    assert len(refs) == 6 and alive == [0] * 6


def test_built_schemes_die_with_the_call(monkeypatch):
    refs = _weakrefs_to_builds(monkeypatch)
    fi.verify_paper([9])
    assert len(refs) == 7 and all(r() is None for r in refs)


def test_built_schemes_die_when_a_report_raises(monkeypatch):
    import gc

    refs = _weakrefs_to_builds(monkeypatch)

    real = fi.report_theorem

    def failing_report(theorem_id, S, *predicted):
        if theorem_id == "pgammal-class-count":
            raise RuntimeError("report failed")
        return real(theorem_id, S, *predicted)

    monkeypatch.setattr(fi, "report_theorem", failing_report)
    # caught here rather than with pytest.raises, whose record of the
    # exception would keep the frames of verify_paper, and their schemes,
    # alive as long as the test runs
    try:
        fi.verify_paper([9])
    except RuntimeError as e:
        assert str(e) == "report failed"
    else:
        raise AssertionError("the failing report did not raise")
    gc.collect()
    assert len(refs) == 7 and all(r() is None for r in refs)


# -- the batched conic reports ---------------------------------------------------------


@pytest.mark.parametrize("q", [25, 27, 49, 81])
def test_geometry_and_embedding_reports_pass_above_13(q):
    fld = field(q)
    for rep in (fi.report_geometry(fld), fi.report_embedding(fld)):
        assert rep.passed, rep.to_dict()


def _corrupt(monkeypatch, owner, name, spoil):
    """Replace owner.name by a wrapper that passes its result through
    `spoil`; returns the list it appends to at each call."""
    orig, calls = getattr(owner, name), []
    monkeypatch.setattr(owner, name, lambda *args: calls.append(1) or spoil(orig(*args)))
    return calls


def _swap_first_rows(a):
    a = a.copy()
    a[[0, 1]] = a[[1, 0]]
    return a


def test_geometry_report_fails_on_a_corrupted_pole_kernel(monkeypatch):
    calls = _corrupt(monkeypatch, Plane, "poles", _swap_first_rows)
    rep = fi.report_geometry(GF(9))
    assert calls and not rep.passed
    assert {k for k in rep.computed if rep.computed[k] != rep.predicted[k]} == {"perp_formulas"}


def test_geometry_report_fails_on_a_corrupted_conic_count(monkeypatch):
    calls = _corrupt(monkeypatch, Plane, "conic_counts", lambda h: h + (np.arange(len(h)) == 0))
    rep = fi.report_geometry(GF(9))
    assert calls and not rep.passed and rep.computed["perp_formulas"]


def test_embedding_report_fails_on_a_corrupted_generator_image(monkeypatch):
    def off_conic(images):
        images = images.copy()
        images[-1, 0] = (0, 1, 0)
        return images

    calls = _corrupt(monkeypatch, mo, "_coords_transform", off_conic)
    rep = fi.report_embedding(GF(9))
    assert calls and not rep.passed
    assert rep.computed == {"det_cubed": True, "equivariance": False, "fixes_conic": False}
    monkeypatch.undo()
    # images of two conic points exchanged: still the conic, no longer equivariant
    calls = _corrupt(monkeypatch, mo, "point_perms", lambda P: _swap_first_rows(P.T).T)
    rep = fi.report_embedding(GF(9))
    assert calls
    assert rep.computed == {"det_cubed": True, "equivariance": False, "fixes_conic": True}


def _odd_prime_powers(lo, hi):
    def prime_power(q):
        p = next(d for d in range(2, q + 1) if q % d == 0)
        while q % p == 0:
            q //= p
        return q == 1

    return [q for q in range(lo, hi + 1, 2) if prime_power(q)]


def test_theorem_suite_passes_at_every_odd_prime_power_up_to_127():
    """Every report the plan makes, at every odd prime power 5 <= q <=
    127: the primes 3 mod 4 above 11, the odd powers 27 and 125, where
    `m` is undefined, and 121, where `m` is over GF(11^2)."""
    qs = _odd_prime_powers(5, 127)
    assert len(qs) == 36 and {27, 121, 125, 127} <= set(qs)
    reports = fi.verify_paper(qs)
    assert sorted({r.q for r in reports}) == qs
    assert len(reports) == 159
    assert [r for r in reports if not r.passed] == []
