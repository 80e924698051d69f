"""Scheme engine: orbital construction both ways, axioms, intersection
numbers against brute-force oracles, fusions, and distance-regularity."""

import hashlib
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from scheme_forge import fission as fi
from scheme_forge import moebius as mo
from scheme_forge import schemes as sc
from scheme_forge.gf import field
from scheme_forge.geometry import Plane, domain, pairs_domain
from scheme_forge.moebius import domain_perm, generators
from scheme_forge.schemes import (
    DomainSizeError,
    NotASchemeError,
    NotTransitiveError,
    Scheme,
    UnsupportedDomainError,
    fuse,
    fusion_map,
    group_orbital_scheme,
    is_fusion,
    orbital_scheme,
    orbital_scheme_via_stabilizer,
    p_polynomial_orderings,
    partition_bijection,
    triangular_scheme,
)

GROUPS_FOR = lambda fld: ("pgl", "psl", "pgammal") + (("m",) if fld.m % 2 == 0 else ())


@pytest.fixture(scope="module")
def t10():
    return triangular_scheme(pairs_domain(Plane(field(9))))


def test_triangular_scheme_shape(t10):
    assert (t10.n, t10.d) == (45, 2)
    assert list(t10.valencies) == [1, 16, 28]
    assert t10.is_symmetric() and t10.is_commutative()


def test_triangular_p111_against_brute_force(t10):
    # oracle: direct count over 2-subsets of a 10-point set
    pts = range(10)
    x, y = frozenset({0, 1}), frozenset({0, 2})
    count = 0
    for z in map(frozenset, combinations(pts, 2)):
        if len(z & x) == 1 and len(z & y) == 1:
            count += 1
    assert count == 8
    assert t10.p_tensor()[1, 1, 1] == 8
    t10.verify_exhaustive()


def test_triangular_matches_intersection_size_rule(t10):
    # relation of (x, y) is 2 - |x . y|
    dom = t10.domain
    for a in range(0, 45, 7):
        for b in range(0, 45, 5):
            inter = len(set(dom.elements[a]) & set(dom.elements[b]))
            assert t10.relation(a, b) == 2 - inter


def test_not_transitive_rejected():
    dom = pairs_domain(Plane(field(5)))
    ident = [np.arange(dom.n)]
    with pytest.raises(NotTransitiveError):
        orbital_scheme(ident, dom)


def _union_find_least(perms, n):
    """Least element of each orbit, by plain union-find."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in perms:
        for x in range(n):
            a, b = find(x), find(int(p[x]))
            parent[max(a, b)] = min(a, b)
    return [find(x) for x in range(n)]


def test_orbits_of_a_non_transitive_group_match_union_find():
    # the generators permute the members of three interleaved blocks among
    # themselves and fix the rest of the points
    rng = np.random.default_rng(7)
    n = 300
    block = rng.integers(0, 4, n)
    perms = []
    for _ in range(3):
        p = np.arange(n)
        for b in range(3):
            members = np.flatnonzero(block == b)
            p[members] = rng.permutation(members)
        perms.append(p)
    lab = sc._orbits(perms, (n,))
    want = _union_find_least(perms, n)
    assert lab.tolist() == want
    assert len(set(want)) > 4


# sha256 of the generic-path relation matrices (dtype tag, then bytes) of
# every group defined at q, in the order of GROUPS_FOR, as built by the
# earlier breadth-first construction
GENERIC_DIGESTS = {
    (5, "pairs"): "9d69d8e7b94d1b3e91d63d2718f2e5e16e041b9f8c04bcc5d7d8c09587266db0",
    (5, "hyp-lines"): "9d69d8e7b94d1b3e91d63d2718f2e5e16e041b9f8c04bcc5d7d8c09587266db0",
    (5, "hyp-points"): "9d69d8e7b94d1b3e91d63d2718f2e5e16e041b9f8c04bcc5d7d8c09587266db0",
    (9, "pairs"): "9b0623008a50e458b2c2c8608bdcac3e2ba32991ab7a1f7347cd5ea6be0df38d",
    (9, "hyp-lines"): "9b0623008a50e458b2c2c8608bdcac3e2ba32991ab7a1f7347cd5ea6be0df38d",
    (9, "hyp-points"): "9b0623008a50e458b2c2c8608bdcac3e2ba32991ab7a1f7347cd5ea6be0df38d",
    (13, "pairs"): "4dae40bae1316b700e898d6645de31478bebddaa4876f52d853a7e32d7527326",
    (13, "hyp-lines"): "4dae40bae1316b700e898d6645de31478bebddaa4876f52d853a7e32d7527326",
    (13, "hyp-points"): "4dae40bae1316b700e898d6645de31478bebddaa4876f52d853a7e32d7527326",
    (9, "tangent-lines"): "1f7d9068c76fd2754d678880bc2542fc4cca74b934f5ce250c22069a54481471",
    (9, "elliptic-lines"): "515c3b5abe6347eb9d3e10567a40c1905cfef1f1f3dae1705385780e5ec17428",
}


@pytest.mark.parametrize("q, kind", sorted(GENERIC_DIGESTS))
def test_generic_matrices_keep_their_bytes(q, kind):
    fld = field(q)
    dom_ = domain(Plane(fld), kind)
    h = hashlib.sha256()
    for gid in GROUPS_FOR(fld):
        M = group_orbital_scheme(fld, gid, dom_).relation_matrix
        h.update(M.dtype.str.encode())
        h.update(M.tobytes())
    assert h.hexdigest() == GENERIC_DIGESTS[q, kind]


def test_pgl9_has_five_classes():
    fld = field(9)
    S = group_orbital_scheme(fld, "pgl", pairs_domain(Plane(fld)))
    assert S.d == (fld.q + 1) // 2


@pytest.mark.parametrize("q", [5, 7, 9, 11, 13])
def test_generic_and_stabilizer_paths_agree(q):
    fld = field(q)
    pl = Plane(fld)
    for kind in ("pairs", "hyp-lines", "hyp-points"):
        dom_ = domain(pl, kind)
        for gid in GROUPS_FOR(fld):
            a = group_orbital_scheme(fld, gid, dom_)
            b = orbital_scheme_via_stabilizer(fld, gid, dom_)
            assert np.array_equal(a.relation_matrix, b.relation_matrix), (q, gid, kind)


def _least_image_labels(fld, gid, dom_):
    """Reference orbit labels: each element's least image under the full
    base-pair stabilizer list, which is a group, so the least element of
    its orbit; the labels are checked to be invariant."""
    S = mo.domain_perms(mo.coefficients(mo.base_pair_stabilizer(fld, gid)), dom_)
    mn = S.min(axis=0)
    assert (mn[S] == mn).all()
    return mn


@pytest.mark.parametrize("q", [5, 7, 9, 25, 27, 49])
def test_stabilizer_generators_have_the_full_stabilizer_orbits(q):
    fld = field(q)
    pl = Plane(fld)
    for kind in ("pairs", "hyp-lines", "hyp-points"):
        dom_ = domain(pl, kind)
        base = dom_.base_index
        for gid in GROUPS_FOR(fld):
            gens = mo.stabilizer_generators(fld, gid)
            assert mo.generators(fld, gid)[1:] == gens
            perms = mo.domain_perms(mo.coefficients(gens), dom_)
            assert (perms[:, base] == base).all()
            want = _least_image_labels(fld, gid, dom_)
            assert np.array_equal(sc._orbits(perms, (dom_.n,)), want), (gid, kind)


def _generator_perms(fld, gid, dom_, drop=0):
    gens = mo.generators(fld, gid)
    return mo.domain_perms(mo.coefficients(gens[: len(gens) - drop]), dom_)


def test_fused_non_scheme_is_rejected_with_check():
    """The q = 9 psl partition [0,1,1,2,1,1,1,1,1] fuses to a matrix that
    passes every structure check but is not a scheme; the earlier check,
    which sampled rows 0..10, accepted it."""
    fld = field(9)
    fine = fi.psl_scheme(fld)
    M = np.array([0, 1, 1, 2, 1, 1, 1, 1, 1], dtype=np.uint8)[fine.relation_matrix]
    assert Scheme(M, domain=fine.domain, check=False).verified_by == "structure"
    with pytest.raises(NotASchemeError, match="not constant"):
        Scheme(M, domain=fine.domain)
    # the psl generators preserve it and are transitive, but the classes
    # of the base row are unions of stabilizer orbits
    with pytest.raises(NotASchemeError, match="orbits of its stabilizer"):
        Scheme(M, domain=fine.domain, automorphisms=_generator_perms(fld, "psl", fine.domain))


def test_certificate_needs_the_whole_stabilizer():
    fld = field(9)
    S = fi.pgammal_scheme(fld)
    assert mo.generators(fld, "pgammal")[-1].j == 1  # the Frobenius map
    full = _generator_perms(fld, "pgammal", S.domain)
    assert Scheme(S.relation_matrix, domain=S.domain, automorphisms=full).verified_by == "certificate"
    without = _generator_perms(fld, "pgammal", S.domain, drop=1)
    with pytest.raises(NotASchemeError, match="orbits of its stabilizer"):
        Scheme(S.relation_matrix, domain=S.domain, automorphisms=without)


def test_certificate_needs_a_transitive_group():
    fld = field(9)
    S = fi.pgl_scheme(fld)
    stab = mo.domain_perms(mo.coefficients(mo.stabilizer_generators(fld, "pgl")), S.domain)
    with pytest.raises(NotASchemeError, match="not transitive"):
        Scheme(S.relation_matrix, domain=S.domain, automorphisms=stab)


def test_certificate_reaches_the_last_row_block():
    """Two entries of the last row swapped: counts, diagonal, row 0 and
    the base row stay intact, so only the certificate can see it."""
    fld = field(49)
    S = fi.psl_scheme(fld)
    n = S.n
    assert len(sc._row_blocks(n, n)) > 1 and S.domain.base_index != n - 1
    M = S.relation_matrix.copy()
    b = int(np.flatnonzero((M[n - 1] != M[n - 1, 0]) & (M[n - 1] != 0))[0])
    M[n - 1, [0, b]] = M[n - 1, [b, 0]]
    with pytest.raises(NotASchemeError, match="does not preserve"):
        Scheme(M, domain=S.domain, automorphisms=_generator_perms(fld, "psl", S.domain))


def test_certificate_checks_every_row_block():
    """A swap in row x0 of the last block is visible, under one generator
    p, only in rows x0 and p^-1(x0); with both in the last block, only
    the check of that block sees it."""
    fld = field(25)
    S = fi.psl_scheme(fld)
    n = S.n
    last = sc._row_blocks(n, n)[-1][0]
    assert last > 0
    perms = _generator_perms(fld, "psl", S.domain)
    p, x0 = next(
        (p, x0)
        for p in perms
        for x0 in range(last, n)
        if x0 != S.domain.base_index and np.argsort(p)[x0] >= last and p[x0] != x0
    )
    M = S.relation_matrix.copy()
    b = int(np.flatnonzero((M[x0] != M[x0, 0]) & (M[x0] != 0))[0])
    M[x0, [0, b]] = M[x0, [b, 0]]
    with pytest.raises(NotASchemeError, match="does not preserve"):
        Scheme(M, domain=S.domain, automorphisms=p[None])


def test_orbital_scheme_rejects_a_map_that_is_not_a_permutation():
    fld = field(5)
    dom_ = pairs_domain(Plane(fld))
    perms = _generator_perms(fld, "pgl", dom_)
    perms[1, 0] = perms[1, 1]
    with pytest.raises(ValueError, match="permutation"):
        orbital_scheme(perms, dom_)


def test_each_builder_records_the_check_it_passed(t10):
    fld = field(9)
    pl = Plane(fld)
    dom_ = pairs_domain(pl)
    psl = orbital_scheme_via_stabilizer(fld, "psl", dom_)
    ft = fi.build_ft(fld)
    part = fusion_map(ft, psl)
    unchecked_psl = Scheme(psl.relation_matrix, domain=dom_, check=False)
    expected = {
        "certificate": [
            psl,
            ft,
            fi.m_scheme(fld),
            orbital_scheme_via_stabilizer(fld, "pgl", domain(pl, "hyp-points")),
        ],
        "orbits": [t10, group_orbital_scheme(fld, "pgammal", domain(pl, "tangent-lines"))],
        "fusion": [fuse(psl, part)],
        "exhaustive": [Scheme(ft.relation_matrix)],
        "structure": [
            orbital_scheme_via_stabilizer(fld, "psl", dom_, check=False),
            fi.build_ft(fld, check=False),
            unchecked_psl,
            fuse(psl, part, check=False),
            fuse(unchecked_psl, part),
        ],
    }
    for want, built in expected.items():
        assert [S.verified_by for S in built] == [want] * len(built)


# sha256 of the q = 81 relation matrices on pairs, all uint8, as built by
# the earlier one-row-at-a-time construction
Q81_DIGESTS = {
    "psl": "5d00423a469566226d167670b5982a83bdcdf3ac0fd817eb550a09fec681d3e2",
    "m": "b18e67118d5da8979dcff03c950fc0ba7a3e8c1ced5dc2bc9ba64660300bb4b4",
    "pgammal": "491022298fead6f176eea010b9a08371f0f63ce07d0a4583ea9777338d05dc5d",
}


@pytest.fixture(scope="module")
def q81():
    """The q = 81 schemes on pairs, built with check=True, and the
    tracemalloc peak of the psl build, made first with nothing else held."""
    fld = field(81)
    dom_ = pairs_domain(Plane(fld))
    tracemalloc.start()
    try:
        builds = {"psl": orbital_scheme_via_stabilizer(fld, "psl", dom_)}
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for gid in ("m", "pgammal"):
        builds[gid] = orbital_scheme_via_stabilizer(fld, gid, dom_)
    return builds, peak


@pytest.mark.parametrize("gid", sorted(Q81_DIGESTS))
def test_q81_matrices_keep_their_bytes(q81, gid):
    M = q81[0][gid].relation_matrix
    assert M.dtype == np.uint8
    assert hashlib.sha256(M.tobytes()).hexdigest() == Q81_DIGESTS[gid]


def test_q81_build_memory_stays_near_the_matrix(q81):
    # measured 1.23 n^2 bytes: the uint8 matrix plus row-block temporaries
    builds, peak = q81
    n = builds["psl"].n
    assert peak <= 1.5 * n * n


@pytest.mark.parametrize(
    "fault, message",
    [("transpose", "transposition"), ("diagonal", "exactly the diagonal")],
)
def test_blocked_checks_reach_the_last_row_block(fault, message):
    fld = field(49)
    M = orbital_scheme_via_stabilizer(fld, "psl", pairs_domain(Plane(fld))).relation_matrix.copy()
    n = M.shape[0]
    assert len(sc._row_blocks(n, n)) > 1
    M[n - 1, n - 2] = 0 if fault == "diagonal" else M[n - 1, n - 2] % M.max() + 1
    with pytest.raises(NotASchemeError, match=message):
        Scheme(M)


def test_stabilizer_path_rejects_baseless_domain():
    fld = field(9)
    dom_ = domain(Plane(fld), "tangent-lines")
    with pytest.raises(UnsupportedDomainError):
        orbital_scheme_via_stabilizer(fld, "pgl", dom_)


@pytest.mark.parametrize("q", [5, 7, 9, 13])
def test_axiom_identities(q):
    fld = field(q)
    dom_ = pairs_domain(Plane(fld))
    for gid in GROUPS_FOR(fld):
        S = orbital_scheme_via_stabilizer(fld, gid, dom_)
        P = S.p_tensor()
        k = S.valencies
        d1 = S.d + 1
        assert int(k.sum()) == S.n
        assert k[0] == 1
        for i in range(d1):
            ip = int(S.transpose_map[i])
            assert k[i] == k[ip]
            assert P[0, i, ip] == k[i]
            assert P[:, i, :].sum(axis=1).tolist() == [int(k[i])] * d1
            for j in range(d1):
                for kk in range(d1):
                    assert P[kk, i, j] * k[kk] == P[i, kk, int(S.transpose_map[j])] * k[i]
        # valency = row count from arbitrary points
        for x in (0, S.n // 2, S.n - 1):
            assert np.bincount(S.relation_matrix[x], minlength=d1).tolist() == k.tolist()
        if S.is_symmetric():
            assert S.is_commutative()


@pytest.mark.parametrize("q", [5, 7, 9, 11, 13])
def test_exhaustive_constancy(q):
    fld = field(q)
    dom_ = pairs_domain(Plane(fld))
    for gid in GROUPS_FOR(fld):
        orbital_scheme_via_stabilizer(fld, gid, dom_).verify_exhaustive()


def test_exhaustive_check_memory_is_bounded():
    # one float64 indicator, the product and the expected counts, plus
    # the second indicator while it is made: measured 3.2 arrays of 8n^2
    # bytes (23 at the earlier all-indicators-at-once check)
    fld = field(25)
    S = orbital_scheme_via_stabilizer(fld, "psl", pairs_domain(Plane(fld)))
    S.p_tensor()
    tracemalloc.start()
    try:
        S.verify_exhaustive()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 8 * S.n * S.n


def test_scheme_rejects_broken_matrices():
    M = np.zeros((4, 4), dtype=np.uint8)
    with pytest.raises(NotASchemeError):
        Scheme(M)  # everything diagonal-class
    M = np.array([[0, 1, 1, 1], [2, 0, 1, 1], [2, 2, 0, 1], [2, 2, 2, 0]], dtype=np.uint8)
    with pytest.raises(NotASchemeError):
        Scheme(M)  # transposes of class 1 not a class
    ok = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=np.uint8)
    S = Scheme(ok)
    assert S.d == 1 and S.is_symmetric()


def test_identity_partition_is_fusion():
    fld = field(9)
    S = orbital_scheme_via_stabilizer(fld, "m", pairs_domain(Plane(fld)))
    ident = np.arange(S.d + 1)
    assert is_fusion(S, S, ident)


def test_fusion_positive_cases():
    fld = field(9)
    dom_ = pairs_domain(Plane(fld))
    tri = triangular_scheme(dom_)
    pgl = group_orbital_scheme(fld, "pgl", dom_)
    psl = orbital_scheme_via_stabilizer(fld, "psl", dom_)
    msch = orbital_scheme_via_stabilizer(fld, "m", dom_)
    for coarse, fine in ((tri, pgl), (pgl, psl), (msch, psl), (tri, psl)):
        part = fusion_map(coarse, fine)
        assert part is not None
        assert is_fusion(coarse, fine, part)
    # refinement fails in the other direction
    assert fusion_map(psl, pgl) is None


# sha256 of fused relation matrices, all uint8, as built when fuse renumbered
# an int64 n x n copy of the fused classes
FUSE_DIGESTS = {
    (9, "ft"): "e4b01fc7c1b0e9d146933ea36b58b60268a86c323af7a4a6a4308fa4f1c05d68",
    (9, "m"): "482886e86c675d4e129a4c7114588d92c03b0afd78e1613c7d5d2648703cb620",
    (9, "t"): "11bc169d0c94a7ad655c7c3b16f864e22f2589ecdd24218562bb366ccd11e2c7",
    (25, "ft"): "1a888bd2977bc4daa9cfd8f98c19fb53b5859d10f3f16cd4e8110d935e480f77",
    (25, "m"): "7d6505c1f0766e5fe3b25095804eece3b0739e3e4623f52b0e63e918a308b408",
    (25, "t"): "e0f0e0519c17d406ece9dba887b94502deaf07f3c6953e6cb2fca6c18ed49220",
}


@pytest.mark.parametrize("q, coarse", sorted(FUSE_DIGESTS))
def test_fuse_keeps_its_bytes(q, coarse):
    fld = field(q)
    ft = fi.build_ft(fld)
    if coarse == "t":
        fused = fuse(ft, fi.triangular_partition(ft))
    else:
        psl = fi.psl_scheme(fld)
        fused = fuse(psl, fusion_map(ft if coarse == "ft" else fi.m_scheme(fld), psl))
    M = fused.relation_matrix
    assert M.dtype == np.uint8
    assert hashlib.sha256(M.tobytes()).hexdigest() == FUSE_DIGESTS[q, coarse]


def test_fusion_checks_compare_in_the_coarse_dtype():
    # measured 2.0 n^2 bytes: the fused uint8 copy and the comparison
    # (9.0 with an int64 n x n copy)
    fld = field(49)
    ft, psl = fi.build_ft(fld), fi.psl_scheme(fld)
    part = fusion_map(ft, psl)
    tracemalloc.start()
    try:
        assert np.array_equal(fusion_map(ft, psl), part)
        assert is_fusion(ft, psl, part)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * ft.n * ft.n


def test_admissible_partition_need_not_give_a_scheme():
    """Merging the touching and harmonic classes of the q=7 cross-ratio
    scheme is admissible but the intersection numbers are not constant."""
    from scheme_forge.fission import build_ft

    ft = build_ft(field(7))
    part = np.array([0, 1, 1, 2, 2])
    with pytest.raises(NotASchemeError):
        fuse(ft, part)


def test_fusion_check_is_not_fooled_by_sampled_rows():
    """At q = 9, class 3 of the psl scheme alone and every other
    nontrivial class together form an admissible partition whose fused
    numbers look constant on the sampled rows, yet the fused matrix is
    not a scheme."""
    fine = fi.psl_scheme(field(9))
    part = np.array([0, 1, 1, 2, 1, 1, 1, 1, 1])
    coarse = Scheme(part[fine.relation_matrix].astype(np.uint8), check=False)
    coarse.p_tensor()
    with pytest.raises(NotASchemeError):
        coarse.verify_exhaustive()
    assert not is_fusion(coarse, fine, part)
    with pytest.raises(NotASchemeError):
        fuse(fine, part)


def test_is_fusion_rejects_transpose_open_partition():
    fld = field(13)
    from scheme_forge.fission import psl_scheme

    fine = psl_scheme(fld)
    paired = [
        k
        for k in range(1, fine.d + 1)
        if fine.transpose_map[k] != k and fine.labels[k].sign == 1
    ]
    k = paired[0]
    part = np.ones(fine.d + 1, dtype=np.int64)
    part[0] = 0
    part[k] = 2  # its transpose partner stays in block 1
    coarse = Scheme(part[fine.relation_matrix].astype(np.uint8), check=False)
    assert not is_fusion(coarse, fine, part)
    with pytest.raises(NotASchemeError, match="not admissible"):
        fuse(fine, part)


def test_is_fusion_rejects_wrong_matrix():
    fld = field(9)
    dom_ = pairs_domain(Plane(fld))
    tri = triangular_scheme(dom_)
    pgl = group_orbital_scheme(fld, "pgl", dom_)
    part = fusion_map(tri, pgl)
    bad = part.copy()
    bad[1], bad[2] = 2, 1
    assert not is_fusion(tri, pgl, bad)
    # classes past the coarse ones, equal to them modulo 256
    assert is_fusion(tri, pgl, part)
    assert not is_fusion(tri, pgl, np.where(part > 0, part + 256, 0))


def test_partition_bijection_detects_relabelings():
    fld = field(9)
    dom_ = pairs_domain(Plane(fld))
    S = orbital_scheme_via_stabilizer(fld, "m", dom_)
    # a permuted relabeling of the same partition
    perm = np.array([0, 2, 1, 4, 3])
    M2 = perm[S.relation_matrix].astype(np.uint8)
    T = Scheme(M2)
    bij = partition_bijection(S, T)
    assert bij is not None and list(bij) == [0, 2, 1, 4, 3]
    tri = triangular_scheme(dom_)
    assert partition_bijection(S, tri) is None


def test_p_polynomial_triangular(t10):
    out = p_polynomial_orderings(t10)
    by_rel = {o["relation"]: o for o in out}
    assert 1 in by_rel
    assert by_rel[1]["intersection_array"] == ([16, 7], [1, 4])
    assert by_rel[1]["ordering"] == [0, 1, 2]


def test_p_polynomial_matches_bfs_oracle(t10):
    """Independent check of the distance partition claim for T(10)."""
    adj = t10.relation_matrix == 1
    n = t10.n
    for start in range(0, n, 11):
        dist = {start: 0}
        frontier = [start]
        e = 0
        while frontier:
            e += 1
            nxt = []
            for v in frontier:
                for w in np.flatnonzero(adj[v]):
                    if int(w) not in dist:
                        dist[int(w)] = e
                        nxt.append(int(w))
            frontier = nxt
        for y in range(n):
            assert dist[y] == {0: 0, 1: 1, 2: 2}[t10.relation(start, y)]


def _dense_p_polynomial_orderings(S):
    """Reference: the dense distance check on every symmetric class,
    with no screening on the intersection numbers."""
    if not S.is_commutative():
        return []
    out = []
    P = S.p_tensor()
    M = S.relation_matrix
    for c in range(1, S.d + 1):
        if S.transpose_map[c] != c:
            continue
        D = sc._graph_distances(M == c, cap=S.d)
        if D is None:
            continue
        dist_of_class = np.array([D[x, y] for (x, y) in S.class_reps], dtype=np.int64)
        if sorted(dist_of_class.tolist()) != list(range(S.d + 1)):
            continue
        if not np.array_equal(D, dist_of_class[M]):
            continue
        order = np.argsort(dist_of_class)
        bs = [int(P[order[e], c, order[e + 1]]) for e in range(S.d)]
        cs = [int(P[order[e], c, order[e - 1]]) for e in range(1, S.d + 1)]
        out.append(
            {
                "relation": c,
                "ordering": [int(k) for k in order],
                "intersection_array": (bs, cs),
            }
        )
    return out


def _circulant_distance_classes():
    """Distance classes of the circulant graph C_14(1, 6), relabelled so
    that the sampled constancy check passes.  It is not a scheme, yet the
    dense check accepts classes 1 and 2."""
    n = 14
    relabel = [10, 9, 7, 11, 1, 4, 13, 0, 5, 12, 8, 2, 6, 3]
    steps = np.minimum(np.arange(n), n - np.arange(n))
    dist_of_step = np.array([0, 1, 2, 3, 3, 2, 1, 2])
    D = dist_of_step[steps[(np.arange(n)[None, :] - np.arange(n)[:, None]) % n]]
    return D[np.ix_(relabel, relabel)].astype(np.uint8)


def test_circulant_distance_classes_are_not_a_scheme():
    S = Scheme(_circulant_distance_classes(), check=False)
    with pytest.raises(NotASchemeError):
        S.verify_exhaustive()


@pytest.mark.parametrize("q", [9, 25])
def test_p_polynomial_screen_matches_dense_reference(q, t10, monkeypatch):
    fld = field(q)
    dom_ = pairs_domain(Plane(fld))
    # the 4-cycle as a scheme: class 2 is the cycle, class 1 the
    # disconnected graph of antipodal pairs
    c4 = Scheme(np.array([[0, 1, 2, 2], [1, 0, 2, 2], [2, 2, 0, 1], [2, 2, 1, 0]], dtype=np.uint8))
    cases = [t10, c4, fi.build_ft(fld), Scheme(_circulant_distance_classes(), check=False)]
    cases += [orbital_scheme_via_stabilizer(fld, gid, dom_) for gid in ("psl", "m", "pgammal")]
    dense_calls = []
    real = sc._graph_distances
    monkeypatch.setattr(sc, "_graph_distances", lambda adj, cap: dense_calls.append(1) or real(adj, cap))
    accepted = kept = 0
    for S in cases:
        want = _dense_p_polynomial_orderings(S)
        dense_calls.clear()
        assert p_polynomial_orderings(S) == want
        accepted += len(want)
        kept += len(dense_calls)
    assert accepted >= 5  # both classes of T(10) and of the circulant, the 4-cycle
    # the screen passes one class the dense check then rejects: class 3 of
    # the circulant, which is not a scheme
    assert kept == accepted + 1


def _renumber_reference(raw):
    uniq, first = np.unique(raw.ravel(), return_index=True)
    order = np.argsort(first, kind="stable")
    remap = np.empty(int(uniq.max()) + 1, dtype=np.uint8 if len(uniq) <= 255 else np.uint16)
    remap[uniq[order]] = np.arange(len(uniq), dtype=remap.dtype)
    return remap[raw]


def _renumbered(raw):
    remap, first = sc._renumber_first_occurrence(raw[0], int(raw.max()) + 1)
    assert np.array_equal(remap[raw[0, first]], np.arange(len(first)))
    return remap[raw]


def test_renumber_transitive_input():
    fld = field(9)
    M = orbital_scheme_via_stabilizer(fld, "psl", pairs_domain(Plane(fld))).relation_matrix
    ids = np.random.default_rng(3).permutation(50)[: int(M.max()) + 1] * 7
    raw = ids[M].astype(np.int32)
    got, want = _renumbered(raw), _renumber_reference(raw)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@pytest.mark.parametrize("nclasses", [255, 256])
@pytest.mark.parametrize("row0_complete", [True, False])
def test_renumber_dtype_at_the_uint8_boundary(nclasses, row0_complete):
    n = 260
    raw = ((np.arange(n)[:, None] + np.arange(n)[None, :]) % nclasses).astype(np.int32)
    raw = np.random.default_rng(nclasses).permutation(nclasses)[raw].astype(np.int32)
    if row0_complete:
        got, want = _renumbered(raw), _renumber_reference(raw)
        assert got.dtype == want.dtype == (np.uint8 if nclasses == 255 else np.uint16)
        assert np.array_equal(got, want)
        return
    # one class missing from row 0: the dtype follows the classes row 0
    # holds, and the missing one takes the dtype's largest value, which
    # no numbered class can take
    missing = raw[1, n - 1]
    raw[0, raw[0] == missing] = raw[0, 0]
    got = _renumbered(raw)
    assert got.dtype == np.uint8
    assert (got[raw == missing] == 255).all() and (got[raw != missing] < nclasses - 1).all()


@pytest.mark.parametrize("check", [True, False])
@pytest.mark.parametrize(
    "M",
    [
        # class 2 occurs, but not in row 0
        np.array([[0, 1, 1, 1], [1, 0, 1, 2], [1, 1, 0, 2], [1, 2, 2, 0]], dtype=np.uint8),
        np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=np.float64),
        np.array([[0, -1, -1], [-1, 0, -1], [-1, -1, 0]], dtype=np.int8),
    ],
    ids=["row0-misses-a-class", "float", "negative"],
)
def test_row0_must_hold_every_class_of_integer_type(M, check):
    with pytest.raises(NotASchemeError):
        Scheme(M, check=check)


@pytest.mark.parametrize("check", [True, False])
def test_negative_entry_outside_row0_rejected(check):
    M = np.array([[0, 1, 1], [1, 0, -1], [1, 1, 0]], dtype=np.int8)
    with pytest.raises(NotASchemeError):
        Scheme(M, check=check)


def test_p_polynomial_absent_for_psl9():
    fld = field(9)
    S = orbital_scheme_via_stabilizer(fld, "psl", pairs_domain(Plane(fld)))
    assert not S.is_commutative() or p_polynomial_orderings(S) == []
    assert p_polynomial_orderings(S) == []  # non-commutative short-circuits


def test_size_guard():
    fld = field(169)
    dom_ = pairs_domain(Plane(fld))
    with pytest.raises(DomainSizeError):
        orbital_scheme_via_stabilizer(fld, "pgl", dom_)
    S = orbital_scheme_via_stabilizer(fld, "pgl", dom_, allow_large=True, check=False)
    assert S.n == 169 * 170 // 2


def test_elliptic_and_tangent_line_schemes():
    """The full fractional-linear group is generously transitive on the
    elliptic lines (checked computationally, no structural claim made),
    and 2-transitive on the tangents, so that scheme is trivial."""
    for q in (5, 7, 9):
        fld = field(q)
        pl = Plane(fld)
        ell = group_orbital_scheme(fld, "pgl", domain(pl, "elliptic-lines"))
        assert ell.is_symmetric()
        tan = group_orbital_scheme(fld, "pgl", domain(pl, "tangent-lines"))
        assert tan.d == 1 and tan.is_symmetric()
