"""Semilinear fractional maps as rows (a, b, c, d, j): action, group law,
membership, the four subgroups, stabilizers, transporters, and the plane
embedding, against the scalar oracles and closures of permutations."""

import random

import numpy as np
import pytest

import oracles as orc
from scheme_forge import fission as fi
from scheme_forge.gf import field
from scheme_forge.geometry import Plane, domain
from scheme_forge.moebius import (
    GROUPS,
    InvalidGroupError,
    _cofactors,
    _coords_transform,
    _rho,
    base_pair_stabilizer,
    domain_perm,
    domain_perms,
    generators,
    group_order,
    groups,
    in_group,
    point_images,
    point_perms,
    transporter_to_base,
    transporters_to_base,
)

SMALL_Q = [5, 7, 9]


def random_map(fld, rng, j_choices=(0,)):
    while True:
        try:
            return orc.canonical(fld, *(rng.randrange(fld.q) for _ in range(4)), rng.choice(j_choices))
        except ValueError:
            continue


def group(fld, gid):
    """The group as an array of its distinct point permutations, the
    closure of its generators' (`point_perms` rows)."""
    return np.array(sorted(orc.closure(point_perms(fld, generators(fld, gid)))))


@pytest.mark.parametrize("q", SMALL_Q + [25, 27])
def test_generators_are_the_canonical_rows_of_the_documented_maps(q):
    """t -> t + 1, then t -> g t and t -> 1/t (pgl), t -> g^2 t and
    t -> -1/t (psl), these plus t -> g t^(p^(m/2)) (m), and the pgl ones
    plus t -> t^p (pgammal), each scaled by the oracle."""
    fld = field(q)
    g = fld.primitive_element()
    stab = {
        "pgl": [(g, 0, 0, 1, 0), (0, 1, 1, 0, 0)],
        "psl": [(fld.mul(g, g), 0, 0, 1, 0), (0, fld.neg(1), 1, 0, 0)],
    }
    stab["m"] = stab["psl"] + [(g, 0, 0, 1, fld.m // 2)]
    stab["pgammal"] = stab["pgl"] + [(1, 0, 0, 1, 1)] * (fld.m > 1)
    for gid in groups(fld):
        assert generators(fld, gid)[0].tolist() == [1, 1, 0, 1, 0]
        assert generators(fld, gid)[1:].tolist() == [list(orc.canonical(fld, *row)) for row in stab[gid]]


@pytest.mark.parametrize("q, even_power", [(5, False), (9, True), (25, True), (27, False), (81, True), (125, False)])
def test_the_table_holds_the_groups_defined_over_the_field(q, even_power):
    """`m` is in the table exactly when q is an even power of a prime, the
    table keeps the order of `GROUPS`, and the labeled schemes of
    `fission` name the same groups."""
    assert tuple(groups(field(q))) == tuple(g for g in GROUPS if g != "m" or even_power)
    assert set(fi.GROUP_SCHEMES) == set(GROUPS)


def test_group_ids_have_one_spelling():
    """An id outside `GROUPS`, any other spelling of one included, and `m`
    over an odd power raise with these messages."""
    for gid in ("so3", "PGL", "pgamma", "(psl)"):
        with pytest.raises(InvalidGroupError) as err:
            generators(field(9), gid)
        assert str(err.value) == f"unknown group {gid!r}; choose from ('pgl', 'psl', 'm', 'pgammal')"
    with pytest.raises(InvalidGroupError) as err:
        group_order(field(27), "m")
    assert str(err.value) == "M(q) needs q to be an even power of an odd prime; q=27 has m=3"


def test_identity_and_inversion_map():
    f = field(9)
    ident, inversion = point_perms(f, [(1, 0, 0, 1, 0), (0, 1, 1, 0, 0)])  # t -> t, t -> 1/t
    assert ident.tolist() == list(range(10))
    zero, one = int(f.RANK[0]), int(f.RANK[1])
    assert inversion[zero] == 9 and inversion[9] == zero and inversion[one] == one


@pytest.mark.parametrize("q", SMALL_Q)
def test_nonidentity_fixes_at_most_two_points(q):
    fld = field(q)
    fixes = group(fld, "pgl") == np.arange(q + 1)
    moving = ~fixes.all(axis=1)
    assert moving.sum() == q**3 - q - 1
    assert (fixes[moving].sum(axis=1) <= 2).all()


@pytest.mark.parametrize("q", SMALL_Q + [25])
def test_compose_matches_pointwise(q):
    """`point_perms` equals the oracle action point by point, and moves a
    composition, and an inverse, as the composed permutations."""
    fld = field(q)
    rng = random.Random(q)
    js = tuple(range(fld.m))
    for _ in range(40):
        g, h = random_map(fld, rng, js), random_map(fld, rng, js)
        gh = orc.compose(fld, g, h)
        assert gh[4] == (g[4] + h[4]) % fld.m
        pg, ph, pgh, pinv = point_perms(fld, [g, h, gh, orc.inverse(fld, g)])
        assert pg.tolist() == [orc.apply(fld, g, pos) for pos in range(q + 1)]
        assert np.array_equal(pgh, pg[ph])
        assert np.array_equal(pg[pinv], np.arange(q + 1))


@pytest.mark.parametrize("q", SMALL_Q)
def test_point_images_match_the_oracle_action(q):
    """Row r of `point_images` is row r of the points moved by map r, as
    the oracle moves it, infinity among the points and among the images;
    a single row of points is moved by every map."""
    fld = field(q)
    rng = np.random.default_rng(q)
    for gid in groups(fld):
        maps = np.concatenate(
            [generators(fld, gid), base_pair_stabilizer(fld, gid), transporters_to_base(fld, Plane(fld).pg1.pairs)]
        )
        points = np.column_stack([np.full(len(maps), q), rng.integers(q + 1, size=(len(maps), 3))])
        images = point_images(fld, maps, points)
        assert images.shape == points.shape and images.dtype == np.int32
        assert images.tolist() == [
            [orc.apply(fld, g, pos) for pos in row] for g, row in zip(maps.tolist(), points.tolist())
        ]
        assert (images == q).any() and (images != q).any()
        one_row = point_images(fld, maps, points[:1])
        assert one_row.tolist() == [[orc.apply(fld, g, pos) for pos in points[0].tolist()] for g in maps.tolist()]


def test_det_class_multiplies():
    """In PGL(2,q) a product lies in psl exactly when both factors do or
    neither does, as the square class of the determinant multiplies."""
    fld = field(13)
    rng = random.Random(0)
    for _ in range(50):
        g, h = random_map(fld, rng), random_map(fld, rng)
        ing, inh, ingh = in_group(fld, [g, h, orc.compose(fld, g, h)], "psl")
        assert ingh == (ing == inh)


def test_membership_predicates():
    f = field(9)
    z = f.fixed_nonsquare()
    scale_z, twisted = (z, 0, 0, 1, 0), (z, 0, 0, 1, 1)
    assert in_group(f, [scale_z, twisted], "pgl").tolist() == [True, False]
    assert in_group(f, [scale_z, twisted], "psl").tolist() == [False, False]
    assert in_group(f, [scale_z, twisted], "m").tolist() == [False, True]
    assert in_group(f, [scale_z, twisted], "pgammal").tolist() == [True, True]
    with pytest.raises(InvalidGroupError):
        in_group(field(7), (1, 0, 0, 1, 0), "m")
    with pytest.raises(InvalidGroupError):
        in_group(f, scale_z, "so3")


def test_membership_counts_in_pgammal_q9():
    """Every canonical row over GF(9) is one of the 1440 elements of
    PGammaL(2,9), which act as distinct permutations and are exactly the
    closure of the pgammal generators."""
    f = field(9)
    rows = orc.all_maps(f, range(f.m))
    assert len(rows) == 1440
    perms = point_perms(f, rows)
    assert {tuple(p) for p in perms.tolist()} == orc.closure(point_perms(f, generators(f, "pgammal")))
    member = {gid: in_group(f, rows, gid) for gid in GROUPS}
    counts = {gid: int(ok.sum()) for gid, ok in member.items()}
    assert counts == {"pgl": 720, "psl": 360, "m": 720, "pgammal": 1440}
    # the intersection of the two sharply 3-transitive groups
    both = member["pgl"] & member["m"]
    assert (member["psl"][both]).all()
    assert int(both.sum()) == 360
    for gid in counts:
        assert member[gid].tolist() == [orc.in_group(f, g, gid) for g in rows]


def test_in_group_rejects_rows_that_are_not_maps():
    f = field(9)
    good = np.array([2, 1, 0, 1, 0])
    bad = np.array([good] * 5)
    bad[0, :4] = (1, 1, 1, 1)  # singular
    bad[1, 0] = f.q  # not a field code
    bad[2, 3] = -1
    bad[3, 4] = f.m  # no such exponent
    bad[4, 4] = -1
    for gid in GROUPS:
        assert not in_group(f, bad, gid).any()
        assert in_group(f, good, gid).tolist() == [orc.in_group(f, tuple(good), gid)]


@pytest.mark.parametrize("q", [9, 25])
def test_psl_is_intersection_as_permutation_groups(q):
    fld = field(q)
    perms = {gid: orc.closure(point_perms(fld, generators(fld, gid))) for gid in ("pgl", "psl", "m")}
    assert [len(perms[gid]) for gid in ("pgl", "psl", "m")] == [q**3 - q, (q**3 - q) // 2, q**3 - q]
    assert perms["pgl"] & perms["m"] == perms["psl"]
    assert perms["pgl"] != perms["m"]


@pytest.mark.parametrize("q", SMALL_Q)
def test_generator_closure_orders(q):
    fld = field(q)
    for gid in groups(fld):
        assert in_group(fld, generators(fld, gid), gid).all()
        assert len(group(fld, gid)) == group_order(fld, gid)


def test_psl_generators_have_square_det():
    for q in SMALL_Q:
        fld = field(q)
        for g in generators(fld, "psl").tolist():
            assert g[4] == 0 and fld.is_square(orc.det(fld, g))


def test_m9_differs_from_pgl9_as_permutation_set():
    f = field(9)
    pgl = orc.closure(point_perms(f, generators(f, "pgl")))
    m = orc.closure(point_perms(f, generators(f, "m")))
    assert len(pgl) == len(m) == 720
    assert pgl != m


@pytest.mark.parametrize("q,gid,size", [
    (5, "pgl", 8), (5, "psl", 4), (5, "pgammal", 8),
    (9, "pgl", 16), (9, "psl", 8), (9, "m", 16), (9, "pgammal", 32),
    (25, "m", 48), (25, "pgammal", 96),
    (13, "pgl", 24),
])
def test_base_pair_stabilizer_sizes(q, gid, size):
    fld = field(q)
    stab = base_pair_stabilizer(fld, gid)
    assert len(stab) == size
    assert in_group(fld, stab, gid).all()
    assert [orc.canonical(fld, *g) for g in stab.tolist()] == list(map(tuple, stab.tolist()))
    moved = point_perms(fld, stab)
    assert (np.sort(moved[:, [0, q]], axis=1) == [0, q]).all()
    # orbit-stabilizer cross-check for the whole group
    if gid != "pgammal":
        assert len(stab) * (fld.q * (fld.q + 1) // 2) == group_order(fld, gid)


def test_base_pair_stabilizer_order():
    """Rows in order of j, then e in canonical order, t -> e t before
    t -> e / t, filtered by the group."""
    fld = field(9)
    want = [orc.canonical(fld, *row, j)
            for j in range(fld.m) for e in fld.BY_RANK[1:].tolist()
            for row in ((e, 0, 0, 1), (0, e, 1, 0))]
    for gid in GROUPS:
        assert list(map(tuple, base_pair_stabilizer(fld, gid).tolist())) == [
            g for g in want if orc.in_group(fld, g, gid)
        ]


def test_pgl_stabilizer_size_formula():
    for q in (5, 7, 9, 13):
        assert len(base_pair_stabilizer(field(q), "pgl")) == 2 * (q - 1)


def test_psl_stabilizer_structure():
    for q in (5, 9, 13):
        fld = field(q)
        for a, b, c, d, _ in base_pair_stabilizer(fld, "psl").tolist():
            if c == 0:  # t -> e t
                assert fld.is_square(fld.div(a, d))
            else:  # t -> e / t
                assert fld.is_square(fld.neg(fld.div(b, c)))


@pytest.mark.parametrize("q", SMALL_Q)
def test_sharp_3_transitivity(q):
    """Exactly one element maps each ordered distinct triple to (0, 1, oo):
    count triples (g^-1(0), g^-1(1), g^-1(oo)) over the whole group."""
    fld = field(q)
    zero, one, inf = 0, int(fld.RANK[1]), fld.q
    for gid in groups(fld).keys() & {"pgl", "m"}:
        inv = np.argsort(group(fld, gid), axis=1)
        served = np.unique(inv[:, [zero, one, inf]], axis=0, return_counts=True)[1]
        assert len(served) == (q + 1) * q * (q - 1)
        assert set(served.tolist()) == {1}


@pytest.mark.parametrize("q", [5, 7, 9, 13])
def test_psl_doubly_transitive(q):
    """Orbit count of the point-pair action: 2 (diagonal, off-diagonal)."""
    fld = field(q)
    perms = point_perms(fld, generators(fld, "psl"))
    n = q + 1
    seen = {(0, 0), (0, 1)}
    for seed in [(0, 0), (0, 1)]:
        frontier = [seed]
        while frontier:
            x, y = frontier.pop()
            for s in perms:
                t = (int(s[x]), int(s[y]))
                if t not in seen:
                    seen.add(t)
                    frontier.append(t)
    assert len(seen) == n * n


@pytest.mark.parametrize("q", [5, 9, 13, 25])
def test_transporter_properties(q):
    fld = field(q)
    rng = random.Random(q)
    for gid in groups(fld):
        for _ in range(200):
            pair = tuple(sorted(rng.sample(range(q + 1), 2)))
            g = transporter_to_base(fld, pair)
            assert in_group(fld, g, gid)[0]
            assert set(point_perms(fld, [g])[0, list(pair)].tolist()) == {0, fld.q}


def test_transporter_examples():
    fld = field(9)
    assert transporter_to_base(fld, (0, 9)).tolist() == [1, 0, 0, 1, 0]
    f7 = field(7)
    one, minus1 = int(f7.RANK[1]), int(f7.RANK[6])
    # t -> (t-1)/(t+1)
    assert transporter_to_base(f7, (one, minus1)).tolist() == [1, f7.neg(1), 1, 1, 0]


# -- the embedding into the plane ------------------------------------------------


@pytest.mark.parametrize("q", [5, 7, 9, 13])
def test_rho_det_cube(q):
    """`_rho` is the oracle's rho, and det rho = det^3, with det rho the
    first-row expansion along `_cofactors`."""
    fld = field(q)
    rng = random.Random(q)
    maps = np.array([random_map(fld, rng, tuple(range(fld.m))) for _ in range(100)])
    R, cof = _rho(fld, maps), _cofactors(fld, _rho(fld, maps))
    for g, r, c in zip(maps.tolist(), R.tolist(), cof[:, 0].tolist()):
        assert tuple(map(tuple, r)) == orc.rho(fld, g)
        det3 = fld.add(fld.add(fld.mul(r[0][0], c[0]), fld.mul(r[0][1], c[1])), fld.mul(r[0][2], c[2]))
        assert det3 == orc.power(fld, orc.det(fld, g), 3)


def test_rho_identity_and_middle_column():
    f = field(9)
    assert _rho(f, [(1, 0, 0, 1, 0)]).tolist() == [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]]
    rng = random.Random(3)
    two = f.add(1, 1)
    for _ in range(30):
        a, b, c, d, j = g = random_map(f, rng)
        col = _rho(f, [g])[0, :, 1].tolist()
        expect = [
            f.mul(two, f.mul(a, b)),
            f.add(f.mul(a, d), f.mul(b, c)),
            f.mul(two, f.mul(c, d)),
        ]
        assert col == expect


@pytest.mark.parametrize("q", [5, 7])
def test_rho_is_injective_homomorphism(q):
    fld = field(q)
    elements = orc.all_maps(fld, [0])
    R = _rho(fld, elements).reshape(-1, 9).tolist()
    images = {orc.normalize(fld, r) for r in R}
    assert len(images) == len(elements)  # kernel is only +-identity
    rng = random.Random(1)
    for _ in range(40):
        g, h = rng.choice(elements), rng.choice(elements)
        lhs = _rho(fld, [orc.compose(fld, g, h)])[0]
        rg, rh = orc.rho(fld, g), orc.rho(fld, h)
        product = [orc.times(fld, rg, [row[c] for row in rh]) for c in range(3)]
        assert orc.normalize(fld, lhs.ravel().tolist()) == orc.normalize(fld, np.array(product).T.ravel().tolist())


@pytest.mark.parametrize("q", [5, 7, 9, 13])
def test_conic_param_equivariance_exhaustive(q):
    fld = field(q)
    pl = Plane(fld)
    C = pl.conic_points()
    assert C[int(fld.RANK[0])].tolist() == [0, 0, 1] and C[q].tolist() == [1, 0, 0]
    maps = generators(fld, "pgammal")
    images = _coords_transform(fld, _rho(fld, maps), maps[:, 4], C)
    assert np.array_equal(images, C[point_perms(fld, maps)])
    for g in maps.tolist():
        for pos in range(q + 1):
            moved = orc.move_point(fld, orc.rho(fld, g), g[4], C[pos].tolist())
            assert moved == orc.conic_point(fld, orc.apply(fld, g, pos))


@pytest.mark.parametrize("q", [5, 7, 9, 13])
def test_rho_fixes_conic_setwise(q):
    fld = field(q)
    pl = Plane(fld)
    C = pl.conic_points()
    conic = set(map(tuple, C.tolist()))
    maps = generators(fld, "pgammal")
    for images in _coords_transform(fld, _rho(fld, maps), maps[:, 4], C):
        assert set(map(tuple, images.tolist())) == conic


def test_rho_scales_quadratic_form_by_det_squared():
    fld = field(9)
    pl = Plane(fld)
    rng = random.Random(5)
    for _ in range(50):
        g = random_map(fld, rng)
        r = orc.rho(fld, g)
        det2 = fld.mul(orc.det(fld, g), orc.det(fld, g))
        # compare on raw (unnormalized) images, batched and against the oracle
        points = pl.all_points()[rng.sample(range(91), 10)].tolist()
        images = [orc.times(fld, r, P) for P in points]
        expected = [fld.mul(det2, orc.quadratic_form(fld, P)) for P in points]
        assert pl.quadratic_form(images).tolist() == expected
        assert pl.quadratic_form(points).tolist() == [orc.quadratic_form(fld, P) for P in points]


def test_line_action_matches_point_action():
    """Moving a secant line and moving its two conic points agree."""
    fld = field(9)
    pl = Plane(fld)
    maps = generators(fld, "pgammal")
    pairs = np.array([(i, j) for i in range(4) for j in range(i + 1, 6)])
    moved = _coords_transform(fld, _cofactors(fld, _rho(fld, maps)), maps[:, 4], pl.secant_lines(pairs))
    for lines, perm in zip(moved, point_perms(fld, maps)):
        assert np.array_equal(lines, pl.secant_lines(perm[pairs]))


def test_domain_perm_consistency():
    fld = field(9)
    pl = Plane(fld)
    dpairs, dlines, dpoints = (domain(pl, kind) for kind in ("pairs", "hyp-lines", "hyp-points"))
    for g in generators(fld, "pgammal"):
        p1 = domain_perm(g, dpairs)
        p2 = domain_perm(g, dlines)
        p3 = domain_perm(g, dpoints)
        assert np.array_equal(p1, p2)
        assert np.array_equal(p1, p3)


@pytest.mark.parametrize("q", [5, 7, 9, 25, 27, 49])
def test_batched_transporters_match_one_at_a_time(q):
    fld = field(q)
    pairs = Plane(fld).pg1.pairs
    # both orders of each pair, so that alpha = oo is covered too
    both = np.concatenate([pairs, pairs[:, ::-1]])
    batch = transporters_to_base(fld, both)
    assert batch.shape == (len(both), 5)
    assert batch.tolist() == [list(orc.transporter(fld, pair)) for pair in both.tolist()]
    assert transporter_to_base(fld, both[-1]).tolist() == batch[-1].tolist()
    # one family for every group: each transporter lies in psl, so in all
    for gid in groups(fld):
        assert in_group(fld, batch, gid).all()


def test_batched_transporter_rejects_a_repeated_point():
    with pytest.raises(ValueError):
        transporters_to_base(field(9), [[0, 9], [3, 3]])


def _scalar_perm(fld, g, dom):
    """Permutation of g on the domain, one element at a time."""
    pl = dom.plane
    if dom.kind == "pairs":
        tab = pl.pg1.pair_table
        return [int(tab[orc.apply(fld, g, i), orc.apply(fld, g, j)]) for i, j in pl.pg1.pairs.tolist()]
    act = orc.move_point if dom.kind == "hyp-points" else orc.move_line
    images = [act(fld, orc.rho(fld, g), g[4], e) for e in dom.coords.tolist()]
    return dom.index_of_coords(np.array(images)).tolist()


@pytest.mark.parametrize("q", [9, 25])
def test_batched_domain_perms_match_per_map(q):
    fld = field(q)
    pl = Plane(fld)
    for kind in ("pairs", "hyp-lines", "hyp-points"):
        dom = domain(pl, kind)
        for gid in groups(fld):
            maps = np.concatenate([base_pair_stabilizer(fld, gid), generators(fld, gid)])
            batch = domain_perms(maps, dom)
            assert batch.shape == (len(maps), dom.n) and batch.dtype == np.int32
            for g, row in zip(maps, batch):
                assert np.array_equal(row, domain_perm(g, dom))
            # element i of every domain is pair i, so the points of the
            # picked elements, one row of picks per map, move like them
            picks = np.random.default_rng(q).integers(dom.n, size=(len(maps), 4))
            ends = point_images(fld, maps, pl.pg1.pairs[picks].reshape(len(maps), -1))
            moved = pl.pg1.pair_table[ends[:, 0::2], ends[:, 1::2]]
            assert np.array_equal(moved, np.take_along_axis(batch, picks, axis=1))
            if q == 9:
                for g, row in zip(maps.tolist(), batch):
                    assert row.tolist() == _scalar_perm(fld, g, dom)


@pytest.mark.parametrize("q", [5, 9, 13, 25])
def test_every_domain_is_indexed_like_the_pairs(q):
    """Element i of every domain is pair i through the conic, so each
    group's generators move pairs, secant lines and poles by the same
    permutations, and the base element is {0, oo} on all three."""
    fld = field(q)
    pl = Plane(fld)
    doms = [domain(pl, kind) for kind in ("pairs", "hyp-lines", "hyp-points")]
    assert [dom.base_index for dom in doms] == [pl.pg1.base_pair] * 3
    assert pl.pg1.pairs[pl.pg1.base_pair].tolist() == [int(fld.RANK[0]), pl.pg1.INF]
    for gid in groups(fld):
        pairs, lines, points = (domain_perms(generators(fld, gid), dom) for dom in doms)
        assert np.array_equal(pairs, lines) and np.array_equal(pairs, points)
