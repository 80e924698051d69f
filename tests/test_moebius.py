"""Semilinear fractional maps: action, group law, membership, the four
subgroups, stabilizers, transporters, and the plane embedding."""

import random

import numpy as np
import pytest

from scheme_forge.gf import field
from scheme_forge.geometry import INFINITY, Plane, domain
from scheme_forge.moebius import (
    InvalidGroupError,
    Moebius,
    base_pair_stabilizer,
    coefficients,
    conic_param,
    domain_perm,
    domain_perms,
    enumerate_group,
    generators,
    group_order,
    in_group,
    membership,
    point_perm,
    point_perms,
    transporter_to_base,
    transporters_to_base,
)

SMALL_Q = [5, 7, 9]


def random_moebius(fld, rng, j_choices=(0,)):
    while True:
        a, b, c, d = (rng.randrange(fld.q) for _ in range(4))
        try:
            return Moebius(fld, a, b, c, d, j=rng.choice(j_choices))
        except ValueError:
            continue


def test_identity_and_inversion_map():
    f = field(9)
    e = Moebius.identity(f)
    for pos in range(10):
        assert e.apply_pos(pos) == pos
    g = Moebius(f, 0, 1, 1, 0)  # t -> 1/t
    assert g(f.zero()) is INFINITY
    assert g(INFINITY) == f.zero()
    assert g(f.one()) == f.one()


@pytest.mark.parametrize("q", SMALL_Q)
def test_nonidentity_fixes_at_most_two_points(q):
    fld = field(q)
    for g in enumerate_group(fld, "pgl"):
        if g.is_identity():
            continue
        fixed = int((point_perm(g) == np.arange(q + 1)).sum())
        assert fixed <= 2


@pytest.mark.parametrize("q", SMALL_Q + [25])
def test_compose_matches_pointwise(q):
    fld = field(q)
    rng = random.Random(q)
    js = tuple(range(fld.m))
    for _ in range(40):
        g = random_moebius(fld, rng, js)
        h = random_moebius(fld, rng, js)
        gh = g * h
        assert gh.j == (g.j + h.j) % fld.m
        pg = point_perm(g)
        ph = point_perm(h)
        assert np.array_equal(point_perm(gh), pg[ph])
        assert (g * g.inverse()).is_identity()
        assert (g.inverse() * g).is_identity()


def test_det_class_multiplies():
    fld = field(13)
    rng = random.Random(0)
    for _ in range(50):
        g = random_moebius(fld, rng)
        h = random_moebius(fld, rng)
        assert (g * h).det_is_square == (g.det_is_square == h.det_is_square)


def test_membership_predicates():
    f = field(9)
    z = f.fixed_nonsquare()
    scale_z = Moebius(f, z, 0, 0, 1)
    assert membership(scale_z, "pgl")
    assert not membership(scale_z, "psl")
    assert not membership(scale_z, "m")
    twisted = Moebius(f, z, 0, 0, 1, j=1)
    assert membership(twisted, "m")
    assert not membership(twisted, "pgl")
    assert membership(twisted, "pgammal")
    with pytest.raises(InvalidGroupError):
        membership(Moebius.identity(field(7)), "m")
    with pytest.raises(InvalidGroupError):
        membership(scale_z, "so3")


def test_membership_counts_in_pgammal_q9():
    f = field(9)
    elements = enumerate_group(f, "pgammal")
    assert len(elements) == 1440
    counts = {
        gid: sum(1 for g in elements if membership(g, gid))
        for gid in ("pgl", "psl", "m", "pgammal")
    }
    assert counts == {"pgl": 720, "psl": 360, "m": 720, "pgammal": 1440}
    # the intersection of the two sharply 3-transitive groups
    both = [g for g in elements if membership(g, "pgl") and membership(g, "m")]
    assert all(membership(g, "psl") for g in both)
    assert len(both) == 360
    rows = coefficients(elements)
    for gid in counts:
        assert in_group(f, rows, gid).tolist() == [membership(g, gid) for g in elements]


def test_in_group_rejects_rows_that_are_not_maps():
    f = field(9)
    good = coefficients([Moebius(f, 2, 1, 0, 1)])[0]
    bad = np.array([good] * 5)
    bad[0, :4] = (1, 1, 1, 1)  # singular
    bad[1, 0] = f.q  # not a field code
    bad[2, 3] = -1
    bad[3, 4] = f.m  # no such exponent
    bad[4, 4] = -1
    for gid in ("pgl", "psl", "m", "pgammal"):
        assert not in_group(f, bad, gid).any()
        assert in_group(f, good, gid).tolist() == [membership(Moebius(f, *good), gid)]


@pytest.mark.parametrize("q", [9, 25])
def test_psl_is_intersection_as_permutation_groups(q):
    fld = field(q)
    perms = {
        gid: {tuple(point_perm(g)) for g in enumerate_group(fld, gid)}
        for gid in ("pgl", "psl", "m")
    }
    assert perms["pgl"] & perms["m"] == perms["psl"]
    assert perms["pgl"] != perms["m"]


@pytest.mark.parametrize("q", SMALL_Q)
def test_generator_closure_orders(q):
    fld = field(q)
    for gid in ("pgl", "psl", "pgammal") + (("m",) if fld.m % 2 == 0 else ()):
        gens = generators(fld, gid)
        assert all(membership(g, gid) for g in gens)
        assert len(enumerate_group(fld, gid)) == group_order(fld, gid)


def test_psl_generators_have_square_det():
    for q in SMALL_Q:
        for g in generators(field(q), "psl"):
            assert g.j == 0 and g.det_is_square


def test_m9_differs_from_pgl9_as_permutation_set():
    f = field(9)
    pgl = {tuple(point_perm(g)) for g in enumerate_group(f, "pgl")}
    m = {tuple(point_perm(g)) for g in enumerate_group(f, "m")}
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
    base = {0, fld.q}
    for g in stab:
        assert membership(g, gid)
        assert {g.apply_pos(0), g.apply_pos(fld.q)} == base
    # orbit-stabilizer cross-check for the whole group
    if gid != "pgammal":
        assert len(stab) * (fld.q * (fld.q + 1) // 2) == group_order(fld, gid)


def test_pgl_stabilizer_size_formula():
    for q in (5, 7, 9, 13):
        assert len(base_pair_stabilizer(field(q), "pgl")) == 2 * (q - 1)


def test_psl_stabilizer_structure():
    for q in (5, 9, 13):
        fld = field(q)
        for g in base_pair_stabilizer(fld, "psl"):
            if g.c == 0:  # t -> e t
                assert fld.is_square(fld.div(g.a, g.d))
            else:  # t -> e / t
                assert fld.is_square(fld.neg(fld.div(g.b, g.c)))


@pytest.mark.parametrize("q", SMALL_Q)
def test_sharp_3_transitivity(q):
    """Exactly one element maps each ordered distinct triple to (0, 1, oo):
    count triples (g^-1(0), g^-1(1), g^-1(oo)) over the whole group."""
    fld = field(q)
    zero, one, inf = 0, int(fld.RANK[1]), fld.q
    for gid in ("pgl",) + (("m",) if fld.m % 2 == 0 else ()):
        served = {}
        for g in enumerate_group(fld, gid):
            inv = point_perm(g.inverse())
            key = (int(inv[zero]), int(inv[one]), int(inv[inf]))
            served[key] = served.get(key, 0) + 1
        assert len(served) == (q + 1) * q * (q - 1)
        assert set(served.values()) == {1}


@pytest.mark.parametrize("q", [5, 7, 9, 13])
def test_psl_doubly_transitive(q):
    """Orbit count of the point-pair action: 2 (diagonal, off-diagonal)."""
    fld = field(q)
    perms = [point_perm(g) for g in generators(fld, "psl")]
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
    groups = ("pgl", "psl", "pgammal") + (("m",) if fld.m % 2 == 0 else ())
    for gid in groups:
        for _ in range(200):
            pair = tuple(sorted(rng.sample(range(q + 1), 2)))
            g = transporter_to_base(fld, pair, gid)
            assert membership(g, gid)
            assert {g.apply_pos(pair[0]), g.apply_pos(pair[1])} == {0, fld.q}


def test_transporter_examples():
    fld = field(9)
    assert transporter_to_base(fld, (0, 9), "pgl").is_identity()
    f7 = field(7)
    one, minus1 = int(f7.RANK[1]), int(f7.RANK[6])
    g = transporter_to_base(f7, (one, minus1), "pgl")
    # t -> (t-1)/(t+1)
    assert g == Moebius(f7, 1, f7.neg(1), 1, 1)


# -- the embedding into the plane ------------------------------------------------


@pytest.mark.parametrize("q", [5, 7, 9, 13])
def test_rho_det_cube(q):
    fld = field(q)
    rng = random.Random(q)
    for _ in range(100):
        g = random_moebius(fld, rng, tuple(range(fld.m)))
        assert g.rho().det == fld.pow(g.det, 3)


def test_rho_identity_and_middle_column():
    f = field(9)
    assert Moebius.identity(f).rho().matrix == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    rng = random.Random(3)
    two = f.add(1, 1)
    for _ in range(30):
        g = random_moebius(f, rng)
        col = tuple(row[1] for row in g.rho().matrix)
        expect = (
            f.mul(two, f.mul(g.a, g.b)),
            f.add(f.mul(g.a, g.d), f.mul(g.b, g.c)),
            f.mul(two, f.mul(g.c, g.d)),
        )
        assert col == expect


@pytest.mark.parametrize("q", [5, 7])
def test_rho_is_injective_homomorphism(q):
    fld = field(q)
    pl = Plane(fld)
    elements = enumerate_group(fld, "pgl")
    images = {g.rho() for g in elements}
    assert len(images) == len(elements)  # kernel is only +-identity
    rng = random.Random(1)
    for _ in range(40):
        g, h = rng.choice(elements), rng.choice(elements)
        lhs = (g * h).rho()
        rhs_mat = tuple(
            tuple(
                _dot_row_col(fld, g.rho().matrix, h.rho().matrix, r, c) for c in range(3)
            )
            for r in range(3)
        )
        from scheme_forge.moebius import Semilinear3

        assert lhs == Semilinear3(fld, rhs_mat, 0)


def _dot_row_col(fld, A, B, r, c):
    s = 0
    for t in range(3):
        s = fld.add(s, fld.mul(A[r][t], B[t][c]))
    return s


@pytest.mark.parametrize("q", [5, 7, 9, 13])
def test_conic_param_equivariance_exhaustive(q):
    fld = field(q)
    pl = Plane(fld)
    assert conic_param(pl, fld.zero()) == (0, 0, 1)
    assert conic_param(pl, INFINITY) == (1, 0, 0)
    for g in generators(fld, "pgammal"):
        r = g.rho()
        for pos in range(q + 1):
            assert pl.conic_point(g.apply_pos(pos)) == r.apply_point(pl.conic_point(pos), pl)


@pytest.mark.parametrize("q", [5, 7, 9, 13])
def test_rho_fixes_conic_setwise(q):
    fld = field(q)
    pl = Plane(fld)
    conic = set(pl.conic_points())
    for g in generators(fld, "pgammal"):
        r = g.rho()
        assert {r.apply_point(P, pl) for P in conic} == conic


def test_rho_scales_quadratic_form_by_det_squared():
    fld = field(9)
    pl = Plane(fld)
    rng = random.Random(5)
    for _ in range(50):
        g = random_moebius(fld, rng)
        r = g.rho()
        det2 = fld.mul(g.det, g.det)
        # compare on raw (unnormalized) images: apply the matrix by hand
        for P in (pl.all_points()[k] for k in rng.sample(range(91), 10)):
            img = tuple(
                _dot_row_col3(fld, r.matrix, P, row) for row in range(3)
            )
            assert pl.quadratic_form(img) == fld.mul(det2, pl.quadratic_form(P))


def _dot_row_col3(fld, A, v, r):
    s = 0
    for t in range(3):
        s = fld.add(s, fld.mul(A[r][t], v[t]))
    return s


def test_line_action_matches_point_action():
    """Moving a secant line and moving its two conic points agree."""
    fld = field(9)
    pl = Plane(fld)
    for g in generators(fld, "pgammal"):
        r = g.rho()
        for i in range(4):
            for j in range(i + 1, 6):
                l = pl.hyperbolic_line_pos(i, j)
                moved = r.apply_line(l, pl)
                expect = pl.hyperbolic_line_pos(g.apply_pos(i), g.apply_pos(j))
                assert moved == expect


def test_domain_perm_consistency():
    fld = field(9)
    pl = Plane(fld)
    from scheme_forge.geometry import (
        hyperbolic_lines_domain,
        hyperbolic_points_domain,
        pairs_domain,
    )

    dpairs = pairs_domain(pl)
    dlines = hyperbolic_lines_domain(pl)
    dpoints = hyperbolic_points_domain(pl)
    for g in generators(fld, "pgammal"):
        p1 = domain_perm(g, dpairs)
        p2 = domain_perm(g, dlines)
        p3 = domain_perm(g, dpoints)
        assert np.array_equal(p1, p2)
        assert np.array_equal(p1, p3)


def _transporter_reference(fld, pair, gid):
    """One transporter at a time with Moebius objects: t -> (t - alpha) /
    (t - beta), after t -> z*t when the group needs a square determinant."""
    q = fld.q
    alpha, beta = (None if p == q else int(fld.BY_RANK[p]) for p in pair)
    if alpha is None:
        h = Moebius(fld, 0, 1, 1, fld.neg(beta))
    elif beta is None:
        h = Moebius(fld, 1, fld.neg(alpha), 0, 1)
    else:
        h = Moebius(fld, 1, fld.neg(alpha), 1, fld.neg(beta))
    if gid in ("psl", "m") and not h.det_is_square:
        h = Moebius(fld, fld.fixed_nonsquare(), 0, 0, 1) * h
    return h


@pytest.mark.parametrize("q", [5, 7, 9, 25, 27, 49])
def test_batched_transporters_match_one_at_a_time(q):
    fld = field(q)
    pairs = Plane(fld).pg1.pairs
    # both orders of each pair, so that alpha = oo is covered too
    both = np.concatenate([pairs, pairs[:, ::-1]])
    for gid in ("pgl", "psl", "pgammal") + (("m",) if fld.m % 2 == 0 else ()):
        batch = transporters_to_base(fld, gid, both)
        assert batch.shape == (len(both), 5)
        for row, pair in zip(batch.tolist(), both.tolist()):
            g = transporter_to_base(fld, pair, gid)
            assert g == _transporter_reference(fld, pair, gid)
            assert row == [g.a, g.b, g.c, g.d, g.j]


def test_batched_transporter_rejects_a_repeated_point():
    with pytest.raises(ValueError):
        transporters_to_base(field(9), "pgl", [[0, 9], [3, 3]])


def _scalar_perm(g, dom):
    """Permutation of g on the domain, one element at a time."""
    pl = dom.plane
    if dom.kind == "pairs":
        tab = pl.pg1.pair_table
        return [int(tab[g.apply_pos(int(i)), g.apply_pos(int(j))]) for i, j in pl.pg1.pairs]
    r = g.rho()
    act = r.apply_point if dom.kind == "hyp-points" else r.apply_line
    images = [act(e, pl) for e in map(tuple, dom.coords.tolist())]
    return dom.index_of_coords(np.array(images)).tolist()


@pytest.mark.parametrize("q", [9, 25])
def test_batched_domain_perms_match_per_map(q):
    fld = field(q)
    pl = Plane(fld)
    for kind in ("pairs", "hyp-lines", "hyp-points"):
        dom = domain(pl, kind)
        for gid in ("pgl", "psl", "pgammal") + (("m",) if fld.m % 2 == 0 else ()):
            maps = base_pair_stabilizer(fld, gid) + generators(fld, gid)
            batch = domain_perms(coefficients(maps), dom)
            assert batch.shape == (len(maps), dom.n) and batch.dtype == np.int32
            for g, row in zip(maps, batch):
                assert np.array_equal(row, domain_perm(g, dom))
            # element i of every domain is pair i, so the pairs of the
            # picked elements, one row of picks per map, move like them
            picks = np.random.default_rng(q).integers(dom.n, size=(len(maps), 4))
            moved = pl.pg1.pair_images(point_perms(fld, coefficients(maps)), picks)
            assert np.array_equal(moved, np.take_along_axis(batch, picks, axis=1))
            if q == 9:
                for g, row in zip(maps, batch):
                    assert row.tolist() == _scalar_perm(g, dom)


@pytest.mark.parametrize("q", [5, 9, 13, 25])
def test_every_domain_is_indexed_like_the_pairs(q):
    """Element i of every domain is pair i through the conic, so each
    group's generators move pairs, secant lines and poles by the same
    permutations, and the base element is {0, oo} on all three."""
    fld = field(q)
    pl = Plane(fld)
    doms = [domain(pl, kind) for kind in ("pairs", "hyp-lines", "hyp-points")]
    assert [dom.base_index for dom in doms] == [pl.pg1.base_pair] * 3
    assert pl.pg1.pairs[pl.pg1.base_pair].tolist() == [pl.pg1.pos(0), pl.pg1.INF]
    for gid in ("pgl", "psl", "pgammal") + (("m",) if fld.m % 2 == 0 else ()):
        pairs, lines, points = (domain_perms(coefficients(generators(fld, gid)), dom) for dom in doms)
        assert np.array_equal(pairs, lines) and np.array_equal(pairs, points)
