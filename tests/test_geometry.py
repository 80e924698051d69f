"""Conic geometry: counts, polarity, line classification, cross-ratio,
through the batched `Plane` kernels, against the scalar oracles."""

import random

import numpy as np
import pytest

import oracles as orc
from scheme_forge.fission import build_ft
from scheme_forge.geometry import LINE_CLASSES, Plane, domain, pairs_domain
from scheme_forge.gf import field
from scheme_forge.moebius import generators, point_perms

SMALL_Q = [5, 7, 9, 13]


@pytest.fixture(params=SMALL_Q)
def plane(request):
    return Plane(field(request.param))


def _values(fld, U, V):
    """U . V row by row, through the field tables: 0 where a point of V
    lies on the line of U."""
    M, A = fld.MUL, fld.ADD
    U, V = np.asarray(U), np.asarray(V)
    return A[A[M[U[..., 0], V[..., 0]], M[U[..., 1], V[..., 1]]], M[U[..., 2], V[..., 2]]]


def _polars(plane, points):
    """The polar line of each point, (x0, x1, x2) -> (-x2, 2 x1, -x0): the
    line of the points R with B(P, R) = 2 P1 R1 - P0 R2 - P2 R0 = 0."""
    f, P = plane.field, np.asarray(points)
    return plane.normalize_rows(np.stack([f.NEG[P[:, 2]], f.MUL[f.ADD[1, 1], P[:, 1]], f.NEG[P[:, 0]]], 1))


def test_quadratic_form_basics():
    pl = Plane(field(9))
    f = pl.field
    assert pl.quadratic_form((1, 0, 0)) == 0
    assert pl.quadratic_form((0, 1, 0)) == 1
    for t in range(9):
        assert pl.quadratic_form((f.mul(t, t), t, 1)) == 0


def test_bilinear_form(plane):
    """B(u, v) = 2 u1 v1 - u0 v2 - u2 v0 is symmetric with B(P, P) = 2 Q(P),
    and a point lies on a line exactly when B of it and the pole is 0."""
    f = plane.field
    two = f.add(1, 1)

    def B(u, v):
        return f.sub(f.sub(f.mul(two, f.mul(u[1], v[1])), f.mul(u[0], v[2])), f.mul(u[2], v[0]))

    assert B((1, 0, 0), (1, 0, 0)) == 0
    assert B((0, 1, 0), (0, 1, 0)) == two
    pts = plane.all_points()[:: max(1, len(plane.all_points()) // 15)]
    poles = plane.poles(pts).tolist()
    for u in pts:
        for v, pole in zip(pts, poles):
            assert B(u, v) == B(v, u)
            assert (B(pole, u) == 0) == (_values(f, v, u) == 0)
        assert B(u, u) == f.mul(two, plane.quadratic_form(u))


def test_conic(plane):
    """q + 1 distinct points of Q = 0, no three collinear: every secant
    through two of them meets the conic in exactly those two."""
    q = plane.field.q
    conic = plane.conic_points()
    assert len(conic) == q + 1
    assert len(set(conic)) == q + 1
    assert all(plane.quadratic_form(P) == 0 for P in conic)
    assert (plane.conic_counts(plane.secant_lines(plane.pg1.pairs)) == 2).all()


def test_point_line_counts(plane):
    q = plane.field.q
    assert len(plane.all_points()) == q * q + q + 1
    assert len(set(plane.all_points())) == q * q + q + 1
    assert len(plane.all_lines()) == q * q + q + 1


def test_line_classification_counts(plane):
    q = plane.field.q
    counts = {"hyperbolic": 0, "tangent": 0, "elliptic": 0}
    for h in plane.conic_counts(plane.all_lines()):
        counts[LINE_CLASSES[h]] += 1
    assert counts["hyperbolic"] == q * (q + 1) // 2
    assert counts["tangent"] == q + 1
    # everything else is elliptic
    assert counts["elliptic"] == (q * q + q + 1) - q * (q + 1) // 2 - (q + 1)
    assert counts["elliptic"] == q * (q - 1) // 2


def test_classification_by_root_count_oracle(plane):
    """Independent classification: a line {a0 x0 + a1 x1 + a2 x2 = 0} meets
    the conic at (t^2 : t : 1) with a0 t^2 + a1 t + a2 = 0, plus (1:0:0)
    iff a0 = 0; count roots directly."""
    f = plane.field
    lines = plane.all_lines()
    for (a0, a1, a2), counted in zip(lines, plane.conic_counts(lines).tolist()):
        hits = sum(
            1
            for t in range(f.q)
            if f.add(f.add(f.mul(a0, f.mul(t, t)), f.mul(a1, t)), a2) == 0
        )
        if a0 == 0:
            hits += 1
        assert counted == hits


def test_polarity_involution(plane):
    """Line -> pole -> polar is the identity on lines, point -> polar ->
    pole the identity on points, so both maps are bijections."""
    points = np.array(plane.all_points())
    assert np.array_equal(plane.poles(_polars(plane, points)), points)
    assert np.array_equal(_polars(plane, plane.poles(points)), points)


def test_polarity_preserves_incidence(plane):
    pts = np.array(plane.all_points()[:: max(1, len(plane.all_points()) // 12)])
    lines = np.array(plane.all_lines()[:: max(1, len(plane.all_lines()) // 12)])
    f = plane.field
    on = _values(f, lines[None], pts[:, None]) == 0
    dual = _values(f, _polars(plane, pts)[:, None], plane.poles(lines)[None]) == 0
    assert np.array_equal(on, dual)


def test_tangents_are_polars_of_conic_points(plane):
    """The tangents are the lines through one conic point, and the pole of
    each is its point of contact."""
    lines = np.array(plane.all_lines())
    tangents = lines[plane.conic_counts(lines) == 1]
    conic = plane.conic_points()
    poles = plane.poles(tangents)
    assert sorted(map(tuple, poles.tolist())) == sorted(conic)
    assert not _values(plane.field, tangents, poles).any()
    assert np.array_equal(plane.poles(_polars(plane, conic)), conic)


def test_base_secant_pole():
    pl = Plane(field(9))
    l = pl.secant_lines([(0, pl.pg1.INF)])
    assert pl.poles(l).tolist() == [[0, 1, 0]]


def test_perp_formulas(plane):
    f = plane.field
    q = f.q
    half = f.inv(f.add(1, 1))
    poles = plane.poles(plane.secant_lines(plane.pg1.pairs)).tolist()
    for (i, j), pole in zip(plane.pg1.pairs.tolist(), poles):
        if j == q:
            xi = int(f.BY_RANK[i])
            rep = (f.mul(f.add(1, 1), xi), 1, 0)
            assert plane.quadratic_form(rep) == 1
        else:
            xi, ga = int(f.BY_RANK[i]), int(f.BY_RANK[j])
            h = f.mul(half, f.sub(ga, xi))
            rep = (f.mul(ga, xi), f.mul(half, f.add(xi, ga)), 1)
            assert plane.quadratic_form(rep) == f.mul(h, h)
        assert pole == plane.normalize_rows([rep])[0].tolist()


def test_line_class_matches_pole_square_type(plane):
    """A line is hyperbolic/tangent/elliptic iff Q of its pole is a
    nonzero square / zero / a non-square."""
    f = plane.field
    lines = plane.all_lines()
    count_hyp_points = 0
    for P, h in zip(plane.poles(lines).tolist(), plane.conic_counts(lines).tolist()):
        qv = plane.quadratic_form(P)
        cls = LINE_CLASSES[h]
        if cls == "tangent":
            assert qv == 0
        elif cls == "hyperbolic":
            assert qv != 0 and f.is_square(qv)
        else:
            assert qv != 0 and not f.is_square(qv)
        assert plane.classify_point(P) == {"tangent": "singular"}.get(cls, cls)
        if cls == "hyperbolic":
            count_hyp_points += 1
    assert count_hyp_points == f.q * (f.q + 1) // 2


def test_degenerate_line_raises():
    pl = Plane(field(5))
    with pytest.raises(ValueError, match="zero triple"):
        pl.secant_lines([(2, 2)])


def _ft_ratio(ft, fld, x, y, z, w):
    """The least of r and 1/r in canonical order, by FT's label of the
    pairs {x, y} and {z, w} of positions: q for a shared point."""
    table = ft.domain.plane.pg1.pair_table
    lab = ft.labels[ft.relation(int(table[x, y]), int(table[z, w]))]
    return {"harmonic": fld.neg(1), "share": fld.q, "diagonal": fld.q}.get(lab.kind, lab.rep)


def _lesser(fld, r):
    return r if r in (0, fld.q) else min(r, fld.inv(r), key=fld.rank)


def test_cross_ratio_limit_rules():
    """cr(0, oo; 1, l) = 1/l and cr(0, oo; 1, -1) = -1 by the limit rules,
    0/0 when a point repeats; FT labels {0, oo} against {1, l} by the
    lesser of l and 1/l."""
    f = field(7)
    ft = build_ft(f)
    zero, one, inf = int(f.RANK[0]), int(f.RANK[1]), f.q
    for lam in range(2, 7):
        assert orc.cross_ratio(f, zero, inf, one, int(f.RANK[lam])) == f.inv(lam)
        assert _ft_ratio(ft, f, zero, inf, one, int(f.RANK[lam])) == _lesser(f, lam)
    assert orc.cross_ratio(f, zero, inf, one, int(f.RANK[f.neg(1)])) == f.neg(1)
    assert orc.cross_ratio(f, zero, one, zero, zero) is None


def test_cross_ratio_pair_order_invariance(plane):
    """Swapping the order inside either pair keeps {r, 1/r}, which is FT's
    label of the two pairs."""
    f = plane.field
    q = f.q
    ft = build_ft(f)
    rng = random.Random(7)
    for _ in range(200):
        xs = rng.sample(range(q + 1), 4)
        r = orc.cross_ratio(f, *xs)
        for perm in ((1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2)):
            r2 = orc.cross_ratio(f, *(xs[i] for i in perm))
            if r in (0, q):
                assert r2 in (0, q)
            else:
                assert r2 in (r, f.inv(r))
        assert _ft_ratio(ft, f, *xs) == _lesser(f, r)


@pytest.mark.parametrize("q,step", [(5, 1), (7, 13)])
def test_cross_ratio_group_invariance(q, step):
    """Exhaustive over all quadruples and elements at q = 5, sampled at 7;
    the elements are the closure of the generators' point permutations."""
    fld = field(q)
    quads = np.array([
        (x, y, z, w)
        for x in range(q + 1)
        for y in range(q + 1)
        for z in range(q + 1)
        for w in range(q + 1)
        if len({x, y, z, w}) == 4
    ])
    cr = np.full((q + 1,) * 4, -1)
    for quad in map(tuple, quads.tolist()):
        cr[quad] = orc.cross_ratio(fld, *quad)
    group = np.array(sorted(orc.closure(point_perms(fld, generators(fld, "pgl")))))
    assert len(group) == q**3 - q
    quads = quads[::step]
    moved = group[:, quads]
    assert (cr[tuple(quads.T)] == cr[moved[..., 0], moved[..., 1], moved[..., 2], moved[..., 3]]).all()


def test_secants_biject_with_pairs(plane):
    q = plane.field.q
    lines = plane.secant_lines(plane.pg1.pairs)
    assert len(set(map(tuple, lines.tolist()))) == q * (q + 1) // 2
    assert (plane.conic_counts(lines) == 2).all()


def test_domain_enumerations(plane):
    q = plane.field.q
    size = q * (q + 1) // 2
    for kind in ("pairs", "hyp-lines", "hyp-points"):
        dom = domain(plane, kind)
        elements = plane.pg1.pairs if dom.coords is None else dom.coords
        assert dom.n == size and elements.dtype == np.int32
        assert len(set(map(tuple, elements.tolist()))) == size
        assert dom.base_index == plane.pg1.base_pair
    with pytest.raises(ValueError):
        domain(plane, "tangent-lines")


def test_pair_domain_base_index():
    pl = Plane(field(9))
    dom = pairs_domain(pl)
    i, j = pl.pg1.pairs[dom.base_index]
    assert int(pl.field.BY_RANK[i]) == 0 and j == pl.field.q


# -- batched kernels against the scalar oracles -------------------------------------


@pytest.mark.parametrize("q", [5, 7, 9, 25, 27, 49])
def test_batched_kernels_equal_the_scalar_methods(q):
    pl = Plane(field(q))
    f = pl.field
    pairs = pl.pg1.pairs
    conic = [orc.conic_point(f, pos) for pos in range(q + 1)]
    assert pl.conic_points() == conic
    secants = [orc.line_through(f, conic[i], conic[j]) for i, j in pairs.tolist()]
    assert list(map(tuple, pl.secant_lines(pairs).tolist())) == secants
    assert list(map(tuple, pl.secant_lines(pairs[:, ::-1]).tolist())) == secants
    lines = pl.all_lines()
    assert list(map(tuple, pl.poles(lines).tolist())) == [orc.pole(f, l) for l in lines]
    counts = [sum(orc.incident(f, P, l) for P in conic) for l in lines]
    assert pl.conic_counts(lines).tolist() == counts
    # counts and poles do not depend on the scaling of a line
    scaled = [tuple(f.mul(int(f.BY_RANK[1 + k % (q - 1)]), c) for c in l) for k, l in enumerate(lines)]
    assert pl.conic_counts(scaled).tolist() == counts
    assert pl.poles(scaled).tolist() == pl.poles(lines).tolist()
    assert pl.normalize_rows(scaled).tolist() == [list(orc.normalize(f, l)) for l in scaled]
    with pytest.raises(ValueError):
        pl.normalize_rows([(1, 0, 0), (0, 0, 0)])
    with pytest.raises(ValueError):
        pl.secant_lines([(1, 1)])


@pytest.mark.parametrize("q", [5, 7, 9, 25, 27, 49])
def test_hyperbolic_domains_equal_the_scalar_construction(q):
    pl = Plane(field(q))
    f = pl.field
    conic = [orc.conic_point(f, pos) for pos in range(q + 1)]
    secants = [orc.line_through(f, conic[i], conic[j]) for i, j in pl.pg1.pairs.tolist()]
    lines, points = domain(pl, "hyp-lines").coords, domain(pl, "hyp-points").coords
    assert lines.dtype == points.dtype == np.int32
    assert list(map(tuple, lines.tolist())) == secants
    assert list(map(tuple, points.tolist())) == [orc.pole(f, l) for l in secants]


@pytest.mark.parametrize("q", [127, 257])
def test_plane_domains_hold_an_order_q2_lookup(q):
    """The coordinate lookup of a plane domain has 2q^2 + 1 entries, not
    q^3: the domain holds 0.23 MB at q = 127 and 0.93 MB at q = 257
    (a q^3 table held 7.9 and 65 MB)."""
    import tracemalloc

    from scheme_forge.geometry import hyperbolic_lines_domain, hyperbolic_points_domain

    pl = Plane(field(q))
    pl.conic_points()
    for build in (hyperbolic_lines_domain, hyperbolic_points_domain):
        tracemalloc.start()
        try:
            dom = build(pl)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert dom.n == q * (q + 1) // 2 and held < 1 << 20


@pytest.mark.parametrize("q", [5, 9, 27])
def test_index_of_coords_rejects_every_triple_off_the_domain(q):
    pl = Plane(field(q))
    f = pl.field
    two = f.add(1, 1)
    tangent = (1, 0, 0)  # x0 = 0, the tangent at (0 : 0 : 1)
    assert pl.conic_counts([tangent]).tolist() == [1]
    elliptic = next(P for P in pl.all_points() if pl.classify_point(P) == "elliptic")
    for kind, off_domain in (("hyp-lines", tangent), ("hyp-points", elliptic)):
        dom = domain(pl, kind)
        assert dom.index_of_coords(dom.coords).tolist() == list(range(dom.n))
        lead0 = dom.coords[dom.coords[:, 0] == 0][0]
        doubled = [f.mul(two, int(c)) for c in lead0]  # (0, 2, .): not normalized
        for bad in (doubled, off_domain, (2, 0, 0), (q - 1, q - 1, q - 1)):
            with pytest.raises(ValueError, match="outside the domain"):
                dom.index_of_coords(np.array([dom.coords[0], bad]))
        if q <= 9:  # every triple of GF(q)^3 is found exactly when it is an element
            elements = {tuple(c): i for i, c in enumerate(dom.coords.tolist())}
            for t in np.stack(np.unravel_index(np.arange(q**3), (q, q, q)), 1):
                if tuple(t.tolist()) in elements:
                    assert dom.index_of_coords(t[None]).tolist() == [elements[tuple(t.tolist())]]
                else:
                    with pytest.raises(ValueError):
                        dom.index_of_coords(t[None])
