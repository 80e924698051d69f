"""Scheme engine: orbital construction both ways, axioms, intersection
numbers against brute-force oracles, fusions, and distance-regularity."""

import tracemalloc
from itertools import combinations

import numpy as np
import pytest

import golden
from scheme_forge import fission as fi
from scheme_forge import moebius as mo
from scheme_forge import schemes as sc
from scheme_forge.gf import GF, field
from scheme_forge.geometry import Plane, domain, pairs_domain
from scheme_forge.schemes import (
    DomainSizeError,
    NotASchemeError,
    NotTransitiveError,
    Scheme,
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
    pairs = t10.domain.plane.pg1.pairs.tolist()
    for a in range(0, 45, 7):
        for b in range(0, 45, 5):
            inter = len(set(pairs[a]) & set(pairs[b]))
            assert t10.row(a)[b] == 2 - inter


@pytest.mark.parametrize("q", [5, 7, 9, 11, 13, 25, 27])
def test_closed_form_triangular_scheme_equals_the_symmetric_group_orbitals(q):
    """The closed form equals the orbital scheme of (0 1) and (0 1 ... q)
    on pairs, which `_orbits` labels over all n^2 ordered pairs, and is
    proved by the cross-ratio certificate of the symmetric group's
    generators."""
    dom_ = pairs_domain(Plane(field(q)))
    T = triangular_scheme(dom_)
    swap = np.arange(q + 1)
    swap[[0, 1]] = [1, 0]
    cycle = np.roll(np.arange(q + 1), -1)
    generic = orbital_scheme(dom_.plane.pg1.pair_images(np.stack([swap, cycle])), dom_)
    assert T.verified_by == "cross-ratio"
    assert T.relation_matrix.dtype == generic.relation_matrix.dtype == np.uint8
    assert np.array_equal(T.relation_matrix, generic.relation_matrix)
    assert T.class_reps == generic.class_reps
    assert np.array_equal(T.p_tensor(), generic.p_tensor())


def test_triangular_certificate_needs_the_base_pair_stabilizer(monkeypatch):
    """(0 1) and (0 1 ... q) alone are transitive but fix no pair, so the
    stabilizer of the base pair has one orbit per element and the
    certificate refuses them."""
    real = sc.cross_ratio_scheme
    monkeypatch.setattr(sc, "cross_ratio_scheme", lambda dom, table, points: real(dom, table, points[3:]))
    with pytest.raises(NotASchemeError, match="base row"):
        triangular_scheme(pairs_domain(Plane(field(9))))


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


# every group defined at q, on the domain
test_generic_matrices_keep_their_bytes = golden.gate(
    r"matrix generic --q (\d+) --domain ([\w-]+) --group \w+"
)


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
        for gid in mo.groups(fld):
            a = group_orbital_scheme(fld, gid, dom_)
            b = orbital_scheme_via_stabilizer(fld, gid, dom_)
            assert np.array_equal(a.relation_matrix, b.relation_matrix), (q, gid, kind)


def _least_image_labels(fld, gid, dom_):
    """Reference orbit labels: each element's least image under the full
    base-pair stabilizer list, which is a group, so the least element of
    its orbit; the labels are checked to be invariant."""
    S = mo.domain_perms(mo.base_pair_stabilizer(fld, gid), dom_)
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
        for gid in mo.groups(fld):
            gens = mo.generators(fld, gid)[1:]
            perms = mo.domain_perms(gens, dom_)
            assert (perms[:, base] == base).all()
            want = _least_image_labels(fld, gid, dom_)
            assert np.array_equal(sc._orbits(perms, (dom_.n,)), want), (gid, kind)


def _generator_perms(fld, gid, dom_, drop=0):
    gens = mo.generators(fld, gid)
    return mo.domain_perms(gens[: len(gens) - drop], dom_)


def test_fused_non_scheme_is_rejected_with_check():
    """The q = 9 psl partition [0,1,1,2,1,1,1,1,1] fuses to a matrix that
    passes every structure check and the transposition check but is not a
    scheme; the earlier check, which sampled rows 0..10, accepted it."""
    fld = field(9)
    fine = fi.labeled_scheme(fld, "psl")
    M = np.array([0, 1, 1, 2, 1, 1, 1, 1, 1], dtype=np.uint8)[fine.relation_matrix]
    with pytest.raises(NotASchemeError, match="not constant"):
        Scheme(M, domain=fine.domain)
    # the psl generators preserve it and are transitive, but the classes
    # of the base row are unions of stabilizer orbits
    with pytest.raises(NotASchemeError, match="orbits of its stabilizer"):
        Scheme(M, domain=fine.domain, automorphisms=_generator_perms(fld, "psl", fine.domain))


def test_certificate_needs_the_whole_stabilizer():
    fld = field(9)
    S = fi.labeled_scheme(fld, "pgammal")
    assert mo.generators(fld, "pgammal")[-1, 4] == 1  # the Frobenius map
    full = _generator_perms(fld, "pgammal", S.domain)
    assert Scheme(S.relation_matrix, domain=S.domain, automorphisms=full).verified_by == "certificate"
    without = _generator_perms(fld, "pgammal", S.domain, drop=1)
    with pytest.raises(NotASchemeError, match="orbits of its stabilizer"):
        Scheme(S.relation_matrix, domain=S.domain, automorphisms=without)


def test_certificate_needs_a_transitive_group():
    fld = field(9)
    S = fi.labeled_scheme(fld, "pgl")
    stab = mo.domain_perms(mo.generators(fld, "pgl")[1:], S.domain)
    with pytest.raises(NotASchemeError, match="not transitive"):
        Scheme(S.relation_matrix, domain=S.domain, automorphisms=stab)


def test_certificate_reaches_the_last_row_block():
    """Two entries of the last row swapped: counts, diagonal, row 0 and
    the base row stay intact, so only the certificate can see it."""
    fld = field(49)
    S = fi.labeled_scheme(fld, "psl")
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
    S = fi.labeled_scheme(fld, "psl")
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


@pytest.mark.parametrize("q", [5, 7, 9, 11, 13, 25, 27, 49, 81])
def test_matrix_free_parameters_equal_a_dense_certified_rebuild(q):
    fld = field(q)
    for kind in ("pairs",) if q == 81 else ("pairs", "hyp-lines", "hyp-points"):
        dom_ = fi.domain_for(fld, kind)
        for gid in mo.groups(fld):
            S = orbital_scheme_via_stabilizer(fld, gid, dom_)
            assert S.verified_by == "orbits"
            base_row = S.row(dom_.base_index)
            dense = Scheme(S.relation_matrix, domain=dom_, automorphisms=_generator_perms(fld, gid, dom_))
            assert dense.verified_by == "certificate"
            assert np.array_equal(base_row, dense.relation_matrix[dom_.base_index])
            assert (S.n, S.d, S.class_reps) == (dense.n, dense.d, dense.class_reps)
            for name in ("valencies", "transpose_map"):
                a, b = getattr(S, name), getattr(dense, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), (q, kind, gid, name)
            assert np.array_equal(S.p_tensor(), dense.p_tensor()), (q, kind, gid)


def _p_tensor_by_definition(M):
    """Oracle: p[k, i, j] read off every pair (x, y) of class k as entry
    (x, y) of B_i B_j, B_i the 0/1 matrix of class i, asserting that it
    is the same on all of them."""
    d1 = int(M.max()) + 1
    B = (M[None] == np.arange(d1)[:, None, None]).astype(np.float64)
    P = np.empty((d1, d1, d1), dtype=np.int64)
    for i in range(d1):
        products = np.matmul(B[i], B)  # [j, x, y]
        for k in range(d1):
            counts = products[:, M == k]
            assert (counts == counts[:, :1]).all(), (i, k)
            P[k, i] = counts[:, 0]
    return P


@pytest.mark.parametrize("q", [5, 7, 9, 11, 13])
def test_p_tensor_equals_the_count_over_every_pair(q):
    """Both representations against the definition: stabilizer-path
    schemes, counted without their matrix, and matrix-built ones."""
    fld = field(q)
    cases = [fi.build_ft(fld), triangular_scheme(fi.domain_for(fld, "pairs"))]
    for kind in ("pairs", "hyp-lines", "hyp-points"):
        dom_ = fi.domain_for(fld, kind)
        for gid in mo.groups(fld):
            cases += [orbital_scheme_via_stabilizer(fld, gid, dom_), group_orbital_scheme(fld, gid, dom_)]
    for S in cases:
        P = S.p_tensor()
        assert P.dtype == np.int64
        assert np.array_equal(P, _p_tensor_by_definition(S.relation_matrix)), (q, S)


def _p_tensor_at_the_class_representatives(M):
    """Oracle: p[k, i, j] counted at (0, y) for the first column y of each
    class k in row 0, reading column y itself."""
    reps = np.unique(M[0], return_index=True)[1]
    d1 = len(reps)
    P = np.zeros((d1, d1, d1), dtype=np.int64)
    for k, y in enumerate(reps):
        np.add.at(P[k], (M[0], M[:, y]), 1)
    return P


def test_p_tensor_counts_at_the_class_representatives():
    """The q = 9 psl scheme is not symmetric, so reading column y_k as the
    transposed row y_k matters: the counts at (0, y_k) taken from the
    columns are the tensor, for the stabilizer path and for the matrix."""
    fld = field(9)
    S = orbital_scheme_via_stabilizer(fld, "psl", pairs_domain(Plane(fld)))
    assert not S.is_symmetric()
    want = _p_tensor_at_the_class_representatives(S.relation_matrix)
    assert np.array_equal(S.p_tensor(), want)
    assert np.array_equal(Scheme(S.relation_matrix).p_tensor(), want)


def test_p_tensor_allocates_no_n_by_n_array():
    # measured 0.35 n^2 bytes at n = 3321, most of it the 63^3 int64
    # tensor and the row blocks of the transporters; the uint8 matrix
    # alone would be n^2
    fld = field(81)
    S = orbital_scheme_via_stabilizer(fld, "psl", pairs_domain(Plane(fld)))
    tracemalloc.start()
    try:
        S.p_tensor()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert S._matrix is None
    assert peak <= 0.6 * S.n * S.n


@pytest.mark.parametrize("q", [5, 9, 13, 25, 27])
def test_composed_label_rows_equal_the_generic_path(q):
    """Rows of a stabilizer-path scheme on pairs, read through the label
    table labels[pair_table], equal the matrix of the generic path
    for every group; `row_blocks` fills nothing, and the p-tensor counted
    from the rows is the generic scheme's, counted from its matrix."""
    fld = field(q)
    dom_ = pairs_domain(Plane(fld))
    for gid in mo.groups(fld):
        S = orbital_scheme_via_stabilizer(fld, gid, dom_)
        generic = group_orbital_scheme(fld, gid, dom_)
        M = generic.relation_matrix
        blocks = list(S.row_blocks())
        assert [(r0, r1) for r0, r1, _ in blocks] == sc._row_blocks(S.n, S.n)
        assert np.array_equal(np.concatenate([rows for _, _, rows in blocks]), M), gid
        P = S.p_tensor()
        assert S._matrix is None
        assert np.array_equal(P, generic.p_tensor()), gid
        assert np.array_equal(S.relation_matrix, M) and S.relation_matrix.dtype == M.dtype


def test_row_blocks_of_a_filled_matrix_are_views():
    fld = field(9)
    S = fi.build_ft(fld)
    M = S.relation_matrix
    blocks = list(S.row_blocks())
    assert blocks[-1][1] == S.n
    assert all(rows.base is M and np.array_equal(rows, M[r0:r1]) for r0, r1, rows in blocks)


def test_relation_reads_one_row_without_filling_the_matrix():
    fld = field(25)
    S = orbital_scheme_via_stabilizer(fld, "psl", pairs_domain(Plane(fld)))
    pairs = [(0, 1), (7, 300), (324, 5), (100, 100)]
    got = [int(S.row(x)[y]) for x, y in pairs]
    assert S._matrix is None
    assert got == [int(S.relation_matrix[x, y]) for x, y in pairs]


# The faults below doctor a kernel whose result the field's memo keeps, so
# the doctored build runs on an uncached GF(q); each returns the list its
# kernel appends to at each call.


def _without_frobenius(monkeypatch):
    orig, calls = mo.generators, []

    def generators(fld, gid):
        calls.append(gid)
        gens = orig(fld, gid)
        return gens[gens[:, 4] == 0]

    monkeypatch.setattr(mo, "generators", generators)
    return calls


def _psl_by_pgl_transporters(monkeypatch):
    """One transporter T replaced by t -> T(t)/z, z a non-square: a map of
    pgl, not of psl, that still sends its pair to {0, oo}."""
    orig, calls = mo.transporters_to_base, []

    def transporters(fld, pairs):
        calls.append(len(pairs))
        out = orig(fld, pairs)
        out[len(out) // 2, 2:4] = fld.MUL[fld.fixed_nonsquare(), out[len(out) // 2, 2:4]]
        return out

    monkeypatch.setattr(mo, "transporters_to_base", transporters)
    return calls


def _one_transporter_is_the_identity(monkeypatch):
    orig, calls = mo.transporters_to_base, []

    def transporters(fld, pairs):
        calls.append(len(pairs))
        out = orig(fld, pairs)
        out[len(out) // 2] = (1, 0, 0, 1, 0)
        return out

    monkeypatch.setattr(mo, "transporters_to_base", transporters)
    return calls


@pytest.mark.parametrize(
    "gid, fault, message",
    [
        # the Frobenius generator fixes {0, oo}, and without it the
        # stabilizer generators give only the pgl stabilizer, of half its order
        ("pgammal", _without_frobenius, "miss part of its stabilizer"),
        # a transporter whose determinant is a non-square
        ("psl", _psl_by_pgl_transporters, "not in psl"),
        # the identity is in the group, but moves no pair to {0, oo}
        ("psl", _one_transporter_is_the_identity, "does not reach the base element"),
    ],
)
def test_stabilizer_path_proof_checks_raise_when_broken(monkeypatch, gid, fault, message):
    orbital_scheme_via_stabilizer(field(9), gid, pairs_domain(Plane(field(9))))
    calls = fault(monkeypatch)
    fld = GF(9)
    with pytest.raises(NotASchemeError, match=message):
        orbital_scheme_via_stabilizer(fld, gid, pairs_domain(Plane(fld)))
    assert calls


def test_a_transporter_of_another_pair_is_refused(monkeypatch):
    """One transporter row replaced by the transporter of the next pair:
    a map of the group that is not the identity, so step 1 passes, but
    it sends its own pair to {0, oo}, not this one, and step 2 refuses it."""
    fld = GF(25)
    dom_ = pairs_domain(Plane(fld))
    orig, calls = mo.transporters_to_base, []
    x = dom_.n // 2

    def transporters(fld, pairs):
        calls.append(len(pairs))
        out = orig(fld, pairs)
        out[x] = out[x + 1]
        return out

    monkeypatch.setattr(mo, "transporters_to_base", transporters)
    doctored = mo.transporters_to_base(fld, dom_.plane.pg1.pairs)[x]
    assert mo.in_group(fld, doctored[None], "psl").all() and doctored.tolist() != [1, 0, 0, 1, 0]
    with pytest.raises(NotASchemeError, match="does not reach the base element"):
        orbital_scheme_via_stabilizer(fld, "psl", dom_)
    assert calls == [dom_.n, dom_.n]


def test_the_stabilizer_build_moves_each_transporter_at_its_own_pair(monkeypatch):
    """The q = 49 `psl` build, on a field whose memo holds no transporters,
    evaluates a map at a point O(n + (d + k)(q+1)) times, k the
    generators: two points per transporter in the check, and all q + 1
    only for the generators (once: their pair permutations, as on pairs
    there is no domain certificate), row 0 (once: the numbering, which
    gives row 0 of the scheme) and the class representatives' rows; never
    all points of all n transporters."""
    fld = GF(49)
    dom_ = pairs_domain(Plane(fld))
    evaluated, real = [], mo.point_images
    monkeypatch.setattr(mo, "point_images", lambda *args: evaluated.append(real(*args).size) or real(*args))
    S = orbital_scheme_via_stabilizer(fld, "psl", dom_)
    k, n, q = len(mo.generators(fld, "psl")), dom_.n, fld.q
    assert 2 * n <= sum(evaluated) <= 2 * n + (S.d + 1 + k + 1) * (q + 1) < n * (q + 1) // 4


def _one_plane_image_swapped(monkeypatch):
    """The images of two secant lines under the first generator row, the
    shift, which every group has, swapped."""
    orig, calls = mo._coords_transform, []

    def swapped(*args):
        calls.append(1)
        out = orig(*args)
        out[0, [1, 2]] = out[0, [2, 1]]
        return out

    monkeypatch.setattr(mo, "_coords_transform", swapped)
    return calls


def _without_the_shift(monkeypatch):
    calls, real = [], mo.generators
    monkeypatch.setattr(mo, "generators", lambda fld, gid: calls.append(gid) or real(fld, gid)[1:])
    return calls


@pytest.mark.parametrize(
    "kind, fault, message",
    [
        # the first generator moves two secant lines unlike their pairs
        ("hyp-lines", _one_plane_image_swapped, "unlike the pairs"),
        # the stabilizer generators pass steps 1 to 4 and move the poles
        # as they move the pairs, but generate only the stabilizer
        ("hyp-points", _without_the_shift, "not transitive on the pairs"),
    ],
)
def test_plane_domain_certificate_raises_when_broken(monkeypatch, kind, fault, message):
    orbital_scheme_via_stabilizer(field(9), "psl", domain(Plane(field(9)), kind))
    calls = fault(monkeypatch)
    fld = GF(9)
    with pytest.raises(NotASchemeError, match=message):
        orbital_scheme_via_stabilizer(fld, "psl", domain(Plane(fld), kind))
    assert calls


def test_plane_domain_rows_are_read_on_pairs(monkeypatch):
    """A plane-domain build and a full row pass move the domain through
    `rho` once, for the generators in the certificate: the distinct
    generator rows of every group, which the field's memo keeps for
    every build on the domain kind.  No row is read through `rho`."""
    fld = GF(25)
    dom_ = domain(Plane(fld), "hyp-lines")
    calls, real = [], mo._rho
    monkeypatch.setattr(mo, "_rho", lambda fld, maps: calls.append(np.array(maps)) or real(fld, maps))
    S = orbital_scheme_via_stabilizer(fld, "psl", dom_)
    assert len(list(S.row_blocks())) > 1
    assert len(calls) == 1
    rows = {tuple(r) for gid in mo.GROUPS for r in mo.generators(fld, gid).tolist()}
    assert sorted(map(tuple, calls[0].tolist())) == sorted(rows)


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
    certified = Scheme(psl.relation_matrix, domain=dom_, automorphisms=_generator_perms(fld, "psl", dom_))
    expected = {
        "cross-ratio": [ft, t10],
        "certificate": [certified],
        "orbits": [
            psl,
            fi.labeled_scheme(fld, "m"),
            orbital_scheme_via_stabilizer(fld, "pgl", domain(pl, "hyp-points")),
            group_orbital_scheme(fld, "pgammal", domain(pl, "hyp-lines")),
        ],
        "fusion": [fuse(psl, part)],
        "exhaustive": [Scheme(ft.relation_matrix)],
    }
    for want, built in expected.items():
        assert [S.verified_by for S in built] == [want] * len(built)


test_q81_matrices_keep_their_bytes = golden.gate(r"matrix stabilizer --q 81 --group (\w+)")


def test_q81_build_memory_stays_near_the_matrix():
    # measured 0.21 n^2 bytes: the build fills no matrix (1.23 n^2 when it
    # filled the uint8 matrix and certified it)
    fld = field(81)
    dom_ = pairs_domain(Plane(fld))
    tracemalloc.start()
    try:
        S = orbital_scheme_via_stabilizer(fld, "psl", dom_)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * S.n * S.n


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


@pytest.mark.parametrize("q", [5, 7, 9, 13])
def test_axiom_identities(q):
    fld = field(q)
    dom_ = pairs_domain(Plane(fld))
    for gid in mo.groups(fld):
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
    for gid in mo.groups(fld):
        orbital_scheme_via_stabilizer(fld, gid, dom_).verify_exhaustive()


def test_exhaustive_check_memory_is_bounded():
    # the float64 weight matrix, a bool indicator and row-block
    # temporaries (a block is 62% of the matrix at n = 325), with the
    # matrix filled on first read: measured 3.1 arrays of 8n^2 bytes
    # (3.2 with two float64 indicators, 23 with all indicators at once)
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


def _first_inconstant_pair(M, P):
    """The (i, j) that a check of one class product at a time names first."""
    for i in range(P.shape[0]):
        for j in range(P.shape[0]):
            if not np.array_equal((M == i).astype(int) @ (M == j).astype(int), P[:, i, j][M]):
                return i, j
    return None


def test_packed_exhaustive_check_names_the_first_failing_pair():
    fine = fi.labeled_scheme(field(9), "psl")
    fused = np.array([0, 1, 1, 2, 1, 1, 1, 1, 1], dtype=np.uint8)[fine.relation_matrix]
    valid = orbital_scheme_via_stabilizer(field(13), "psl", pairs_domain(Plane(field(13))))
    swapped = valid.relation_matrix.copy()
    x = swapped.shape[0] - 1
    b = int(np.flatnonzero((swapped[x] != swapped[x, 0]) & (swapped[x] != 0))[0])
    # two entries of the last row swapped, and their transposes with them,
    # so the classes stay closed under transposition
    swapped[x, [0, b]] = swapped[x, [b, 0]]
    swapped[[0, b], x] = valid.transpose_map[swapped[x, [0, b]]]
    for M in (fused, swapped):
        i, j = _first_inconstant_pair(M, _p_tensor_at_the_class_representatives(M))
        with pytest.raises(NotASchemeError, match=rf"p\^k_\({i},{j}\) is not constant"):
            Scheme(M)
    # n = 91 packs 8 classes into one product, so (1, 9) lies in the
    # second chunk of i = 1, and still comes before (2, 3)
    S = Scheme(valid.relation_matrix)
    S._p_tensor = S.p_tensor().copy()
    S._p_tensor[:, 1, 9] += 1
    S._p_tensor[:, 2, 3] += 1
    with pytest.raises(NotASchemeError, match=r"p\^k_\(1,9\) is not constant"):
        S.verify_exhaustive()


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


test_fuse_keeps_its_bytes = golden.gate(r"matrix fuse --q (\d+) --coarse (\w+)")


def test_fusion_checks_compare_in_the_coarse_dtype():
    # measured 2.0 n^2 bytes: the fused uint8 copy and the comparison
    # (9.0 with an int64 n x n copy)
    fld = field(49)
    ft, psl = fi.build_ft(fld), fi.labeled_scheme(fld, "psl")
    part = fusion_map(ft, psl)
    tracemalloc.start()
    try:
        assert np.array_equal(fusion_map(ft, psl), part)
        assert is_fusion(ft, psl, part)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * ft.n * ft.n


@pytest.mark.parametrize("q", [25, 49])
def test_fusion_checks_fill_no_matrix(q, monkeypatch):
    """Fusion maps and partition bijections between stabilizer-path
    schemes, and the `fusion check` command, compare row blocks, and a
    fused scheme reads its rows through the fine ones, its parameters,
    p-tensor and row blocks included, so no relation matrix is filled."""
    from scheme_forge import cli

    filled = []
    real = sc._fill_matrix
    monkeypatch.setattr(sc, "_fill_matrix", lambda S: filled.append(S.n) or real(S))
    monkeypatch.delenv("SCHEME_FORGE_CACHE_DIR", raising=False)
    # the spy is a patched kernel: no cached field may fill its memo under it
    monkeypatch.setattr(cli, "field", GF)
    fld = GF(q)
    dom_ = pairs_domain(Plane(fld))
    psl, m, pgl = (orbital_scheme_via_stabilizer(fld, gid, dom_) for gid in ("psl", "m", "pgl"))
    assert fusion_map(m, psl) is not None and fusion_map(psl, m) is None
    assert is_fusion(pgl, psl, fusion_map(pgl, psl))
    assert partition_bijection(psl, orbital_scheme_via_stabilizer(fld, "psl", dom_)) is not None
    fused = fuse(psl, fusion_map(m, psl))
    assert fused.verified_by == "fusion"
    assert np.array_equal(fused.valencies, m.valencies)
    assert np.array_equal(fused.transpose_map, m.transpose_map)
    assert np.array_equal(fused.p_tensor(), m.p_tensor())
    assert all(np.array_equal(f, r) for (_, _, f), (_, _, r) in zip(fused.row_blocks(), m.row_blocks()))
    argv = ["fusion", "check", "--q", str(q), "--fine", "psl", "--coarse", "m", "--format", "json"]
    assert cli.main(argv) == 0
    assert filled == []


@pytest.mark.parametrize("extra", [-1, 1], ids=["short", "long"])
def test_fusion_checks_refuse_a_partition_of_the_wrong_length(extra):
    """A partition must have one entry per fine class: a short one once
    indexed past its end in `fuse`, and a long one was called not
    admissible."""
    fld = field(9)
    psl, m = fi.labeled_scheme(fld, "psl"), fi.labeled_scheme(fld, "m")
    part = fusion_map(m, psl)
    wrong = np.concatenate([part, [1]])[: len(part) + extra]
    for call in (lambda: fuse(psl, wrong), lambda: is_fusion(m, psl, wrong)):
        with pytest.raises(ValueError, match="partition must assign every fine class"):
            call()


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
    not a scheme: neither the exhaustive check nor `fuse` builds it."""
    fine = fi.labeled_scheme(field(9), "psl")
    part = np.array([0, 1, 1, 2, 1, 1, 1, 1, 1])
    with pytest.raises(NotASchemeError, match="not constant"):
        Scheme(part[fine.relation_matrix].astype(np.uint8))
    with pytest.raises(NotASchemeError, match="not constant"):
        fuse(fine, part)


def test_is_fusion_rejects_transpose_open_partition():
    fld = field(13)
    from scheme_forge.fission import labeled_scheme

    fine = labeled_scheme(fld, "psl")
    paired = [
        k
        for k in range(1, fine.d + 1)
        if fine.transpose_map[k] != k and fine.labels[k].sign == 1
    ]
    k = paired[0]
    part = np.ones(fine.d + 1, dtype=np.int64)
    part[0] = 0
    part[k] = 2  # its transpose partner stays in block 1
    with pytest.raises(NotASchemeError, match="transposition"):
        Scheme(part[fine.relation_matrix].astype(np.uint8))
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


def test_is_fusion_is_false_where_fine_does_not_refine_coarse():
    """FT does not refine psl, so fusion_map gives None: no fusion, where
    the report edges once raised TypeError."""
    fld = field(9)
    psl9, ft9 = fi.labeled_scheme(fld, "psl"), fi.build_ft(fld)
    assert fusion_map(psl9, ft9) is None
    assert is_fusion(psl9, ft9, fusion_map(psl9, ft9)) is False


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
        row = t10.row(start)
        for y in range(n):
            assert dist[y] == {0: 0, 1: 1, 2: 2}[row[y]]


def _graph_distances(adj, cap):
    """All-pairs distances of a graph, or None if disconnected/deeper than cap."""
    n = adj.shape[0]
    D = np.full((n, n), -1, dtype=np.int32)
    np.fill_diagonal(D, 0)
    reach = np.eye(n, dtype=bool)
    Af = adj.astype(np.float32)
    for e in range(1, cap + 1):
        grown = (reach.astype(np.float32) @ Af) > 0
        grown |= reach
        new = grown & ~reach
        if not new.any():
            break
        D[new] = e
        reach = grown
    if (D < 0).any():
        return None
    return D


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
        D = _graph_distances(M == c, cap=S.d)
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
    with pytest.raises(NotASchemeError, match="not constant"):
        Scheme(_circulant_distance_classes())


@pytest.mark.parametrize("q", [9, 25])
def test_p_polynomial_screen_matches_dense_reference(q, t10):
    """The class search on the exact p-tensor gives what the dense
    distance check gives."""
    fld = field(q)
    dom_ = pairs_domain(Plane(fld))
    # the 4-cycle as a scheme: class 2 is the cycle, class 1 the
    # disconnected graph of antipodal pairs
    c4 = Scheme(np.array([[0, 1, 2, 2], [1, 0, 2, 2], [2, 2, 0, 1], [2, 2, 1, 0]], dtype=np.uint8))
    cases = [t10, c4, fi.build_ft(fld)]
    cases += [orbital_scheme_via_stabilizer(fld, gid, dom_) for gid in ("psl", "m", "pgammal")]
    accepted = 0
    for S in cases:
        want = _dense_p_polynomial_orderings(S)
        assert p_polynomial_orderings(S) == want
        accepted += len(want)
    assert accepted >= 3  # both classes of T(10), the 4-cycle


def _schemes_of_the_verify_plan(monkeypatch, q):
    """Every scheme that `verify_paper([q])` builds, in build order."""
    built = []
    init, from_rows = sc.Scheme.__init__, sc.Scheme._from_rows.__func__

    def spy_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    def spy_from_rows(cls, *args, **kwargs):
        built.append(from_rows(cls, *args, **kwargs))
        return built[-1]

    with monkeypatch.context() as m:
        m.setattr(sc.Scheme, "__init__", spy_init)
        m.setattr(sc.Scheme, "_from_rows", classmethod(spy_from_rows))
        assert all(r.passed for r in fi.verify_paper([q]))
    return built


@pytest.mark.parametrize("q", [5, 7, 9, 11, 13, 25])
def test_p_polynomial_orderings_match_the_dense_oracle_on_the_verify_plan(q, monkeypatch):
    """77 proven schemes over these q: the plan builds 6 at each q <= 13
    but 9, 7 at 9 and 3 at 25, and at q <= 13 each group's generic-path
    schemes on the three domains join them, but the plan's own `pgl` on
    pairs: 14 at each q <= 13 but 9, 18 at 9.  Reading the orderings
    fills no stabilizer-path matrix; the dense oracle then does."""
    built = _schemes_of_the_verify_plan(monkeypatch, q)
    assert len(built) == {9: 7, 25: 3}.get(q, 6)
    fld = field(q)
    if q <= 13:
        kinds = ("pairs", "hyp-lines", "hyp-points")
        built += [
            group_orbital_scheme(fld, gid, fi.domain_for(fld, kind))
            for gid in mo.groups(fld)
            for kind in kinds
            if (gid, kind) != ("pgl", "pairs")
        ]
    assert len(built) == {9: 18, 25: 3}.get(q, 14)
    for S in built:
        unfilled = S._matrix is None
        got = p_polynomial_orderings(S)
        assert (S._matrix is None) == unfilled
        assert got == _dense_p_polynomial_orderings(S), (q, S)


@pytest.mark.parametrize("q", [9, 25, 49])
def test_p_polynomial_orderings_fill_no_matrix(q):
    fld = field(q)
    dom_ = pairs_domain(Plane(fld))
    for gid in mo.groups(fld):
        S = orbital_scheme_via_stabilizer(fld, gid, dom_)
        orders = p_polynomial_orderings(S)
        assert S._matrix is None
        assert bool(orders) == (q == 9 and gid in ("m", "pgammal")), gid


def test_each_fusion_edge_is_one_comparison(monkeypatch):
    fld = field(9)
    schemes = (
        triangular_scheme(fi.domain_for(fld, "pairs")),
        fi.build_ft(fld),
        fi.labeled_scheme(fld, "psl"),
        fi.labeled_scheme(fld, "pgammal"),
        fi.labeled_scheme(fld, "m"),
    )
    calls = []
    real = sc._fuses_onto
    monkeypatch.setattr(sc, "_fuses_onto", lambda *args: calls.append(1) or real(*args))
    lattice = fi.report_fusion_lattice(*schemes)
    assert lattice.passed and len(calls) == len(lattice.computed) == 6
    calls.clear()
    diagram = fi.report_q9_fusion_diagram(*schemes)
    assert diagram.passed and len(calls) == 4


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


@pytest.mark.parametrize("certified", [True, False])
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
def test_row0_must_hold_every_class_of_integer_type(M, certified):
    """The structure checks run before either proof: with automorphisms
    (here the identity) and without."""
    with pytest.raises(NotASchemeError):
        Scheme(M, automorphisms=[np.arange(len(M))] if certified else None)


@pytest.mark.parametrize("certified", [True, False])
def test_negative_entry_outside_row0_rejected(certified):
    M = np.array([[0, 1, 1], [1, 0, -1], [1, 1, 0]], dtype=np.int8)
    with pytest.raises(NotASchemeError):
        Scheme(M, automorphisms=[np.arange(len(M))] if certified else None)


def test_p_polynomial_absent_for_psl9():
    fld = field(9)
    S = orbital_scheme_via_stabilizer(fld, "psl", pairs_domain(Plane(fld)))
    assert not S.is_commutative()
    assert p_polynomial_orderings(S) == []


def test_size_guard():
    """The stabilizer path holds O(n + q^2) and builds at any q with no
    flag; the generic path holds three int64 n x n label arrays and stops
    above MAX_DEFAULT_Q, with no way round."""
    fld = field(169)
    S = orbital_scheme_via_stabilizer(fld, "pgl", pairs_domain(Plane(fld)))
    assert S.n == 169 * 170 // 2 == 14365
    fld = field(131)
    with pytest.raises(DomainSizeError):
        group_orbital_scheme(fld, "pgl", pairs_domain(Plane(fld)))


def test_bare_matrix_above_the_exhaustive_limit_raises():
    """The exhaustive check of a bare q = 49 matrix would take minutes;
    it raises at once, naming the way round."""
    fld = field(49)
    M = orbital_scheme_via_stabilizer(fld, "psl", pairs_domain(Plane(fld))).relation_matrix
    assert M.shape[0] > sc.MAX_EXHAUSTIVE_N
    with pytest.raises(DomainSizeError, match="pass automorphisms to certify the matrix"):
        Scheme(M)


def _admissible_by_blocks(fine, part):
    """Admissibility by its definition, as sets of blocks: the reference
    for `_is_admissible`."""
    if part[0] != 0 or int((part == 0).sum()) != 1:
        return False
    blocks = {frozenset(np.flatnonzero(part == c).tolist()) for c in set(part.tolist())}
    return all(frozenset(fine.transpose_map[list(b)].tolist()) in blocks for b in blocks)


def test_admissibility_rejects_a_transposed_block_inside_a_larger_block():
    fine = fi.labeled_scheme(field(13), "psl")
    t = fine.transpose_map
    k = next(k for k in range(1, fine.d + 1) if t[k] != k)
    j = next(j for j in range(1, fine.d + 1) if t[j] == j)
    part = np.full(fine.d + 1, 3)
    part[0], part[k], part[[t[k], j]] = 0, 1, 2
    assert not sc._is_admissible(fine, part)
    assert not _admissible_by_blocks(fine, part)


def test_admissibility_does_not_depend_on_block_labels():
    fld = field(25)
    fine = fi.labeled_scheme(fld, "psl")
    t = fine.transpose_map
    rng = np.random.default_rng(25)
    parts = [fusion_map(fi.labeled_scheme(fld, "m"), fine), fusion_map(fi.build_ft(fld), fine)]
    for _ in range(100):
        sym = rng.integers(1, 4, fine.d + 1)
        parts += [np.minimum(sym, sym[t]), rng.integers(1, 4, fine.d + 1)]
    answers = set()
    for part in parts:
        part[0] = 0
        expect = _admissible_by_blocks(fine, part)
        relabel = np.concatenate([[0], rng.permutation(np.arange(3, 9 * fine.d + 3, 9))])
        assert sc._is_admissible(fine, part) == expect
        assert sc._is_admissible(fine, relabel[part]) == expect
        answers.add(expect)
    assert answers == {True, False}


def test_verify_and_fusion_check_never_import_numpy_ma():
    """A bare np.unique imports numpy.ma on first use (about 18 ms)."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    code = (
        "import sys, numpy\n"
        "preloaded = 'numpy.ma' in sys.modules\n"
        "from scheme_forge import cli, fission\n"
        "fission.verify_paper([5, 7, 9, 11, 13])\n"
        "cli.main(['fusion', 'check', '--q', '49', '--fine', 'psl', '--coarse', 'm'])\n"
        "print(preloaded, 'numpy.ma' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    preloaded, loaded = proc.stdout.split()[-2:]
    if preloaded == "True":
        pytest.skip("this numpy imports numpy.ma with numpy itself")
    assert loaded == "False"
