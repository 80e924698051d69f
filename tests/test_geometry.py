"""Conic geometry: counts, polarity, line classification, cross-ratio."""

from itertools import combinations

import numpy as np
import pytest

from scheme_forge.gf import field
from scheme_forge.geometry import (
    INFINITY,
    DegeneratePairError,
    IndeterminateCrossRatioError,
    Plane,
    domain,
    pairs_domain,
)
from scheme_forge.moebius import Moebius, enumerate_group, point_perm

SMALL_Q = [5, 7, 9, 13]


@pytest.fixture(params=SMALL_Q)
def plane(request):
    return Plane(field(request.param))


def test_quadratic_form_basics():
    pl = Plane(field(9))
    f = pl.field
    assert pl.quadratic_form((1, 0, 0)) == 0
    assert pl.quadratic_form((0, 1, 0)) == 1
    for t in range(9):
        assert pl.quadratic_form((f.mul(t, t), t, 1)) == 0


def test_bilinear_form(plane):
    f = plane.field
    assert plane.bilinear_form((1, 0, 0), (1, 0, 0)) == 0
    assert plane.bilinear_form((0, 1, 0), (0, 1, 0)) == f.add(1, 1)
    pts = plane.all_points()[:: max(1, len(plane.all_points()) // 15)]
    for u in pts:
        for v in pts:
            assert plane.bilinear_form(u, v) == plane.bilinear_form(v, u)
        # B(P, P) = 2 Q(P)
        assert plane.bilinear_form(u, u) == f.mul(f.add(1, 1), plane.quadratic_form(u))


def test_conic(plane):
    q = plane.field.q
    conic = plane.conic_points()
    assert len(conic) == q + 1
    assert len(set(conic)) == q + 1
    assert all(plane.quadratic_form(P) == 0 for P in conic)
    for A, B, C in combinations(conic, 3):
        assert not plane.incident(C, plane.line_through(A, B))


def test_point_line_counts(plane):
    q = plane.field.q
    assert len(plane.all_points()) == q * q + q + 1
    assert len(set(plane.all_points())) == q * q + q + 1
    assert len(plane.all_lines()) == q * q + q + 1


def test_line_classification_counts(plane):
    q = plane.field.q
    counts = {"hyperbolic": 0, "tangent": 0, "elliptic": 0}
    for l in plane.all_lines():
        counts[plane.classify_line(l)] += 1
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
    for l in plane.all_lines():
        a0, a1, a2 = l
        hits = sum(
            1
            for t in range(f.q)
            if f.add(f.add(f.mul(a0, f.mul(t, t)), f.mul(a1, t)), a2) == 0
        )
        if a0 == 0:
            hits += 1
        expect = {2: "hyperbolic", 1: "tangent", 0: "elliptic"}[hits]
        assert plane.classify_line(l) == expect


def test_polarity_involution(plane):
    for P in plane.all_points():
        assert plane.polarity_line_to_point(plane.polarity_point_to_line(P)) == P
    for l in plane.all_lines():
        assert plane.polarity_point_to_line(plane.polarity_line_to_point(l)) == l


def test_polarity_preserves_incidence(plane):
    pts = plane.all_points()[:: max(1, len(plane.all_points()) // 12)]
    lines = plane.all_lines()[:: max(1, len(plane.all_lines()) // 12)]
    for P in pts:
        for l in lines:
            assert plane.incident(P, l) == plane.incident(
                plane.polarity_line_to_point(l), plane.polarity_point_to_line(P)
            )


def test_tangents_are_polars_of_conic_points(plane):
    for P in plane.conic_points():
        t = plane.polarity_point_to_line(P)
        assert plane.classify_line(t) == "tangent"
        assert plane.incident(P, t)


def test_base_secant_pole():
    pl = Plane(field(9))
    f = pl.field
    l = pl.hyperbolic_line(f.zero(), INFINITY)
    assert pl.polarity_line_to_point(l) == (0, 1, 0)


def test_perp_formulas(plane):
    f = plane.field
    q = f.q
    half = f.inv(f.add(1, 1))
    for i in range(q + 1):
        for j in range(i + 1, q + 1):
            pole = plane.polarity_line_to_point(plane.hyperbolic_line_pos(i, j))
            if j == q:
                xi = int(f.BY_RANK[i])
                rep = (f.mul(f.add(1, 1), xi), 1, 0)
                assert plane.quadratic_form(rep) == 1
            else:
                xi, ga = int(f.BY_RANK[i]), int(f.BY_RANK[j])
                h = f.mul(half, f.sub(ga, xi))
                rep = (f.mul(ga, xi), f.mul(half, f.add(xi, ga)), 1)
                assert plane.quadratic_form(rep) == f.mul(h, h)
            assert pole == plane.normalize(rep)


def test_line_class_matches_pole_square_type(plane):
    """A line is hyperbolic/tangent/elliptic iff Q of its pole is a
    nonzero square / zero / a non-square."""
    f = plane.field
    count_hyp_points = 0
    for l in plane.all_lines():
        P = plane.polarity_line_to_point(l)
        qv = plane.quadratic_form(P)
        cls = plane.classify_line(l)
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
    with pytest.raises(DegeneratePairError):
        pl.hyperbolic_line_pos(2, 2)


def test_cross_ratio_limit_rules():
    pl = Plane(field(7))
    f = pl.field
    pg1 = pl.pg1
    for lam in range(2, 7):
        r = pg1.cross_ratio(f(0), INFINITY, f(1), f(lam))
        assert r == f(lam).inverse()
    assert pg1.cross_ratio(f(0), INFINITY, f(1), f(-1)) == f(-1)
    with pytest.raises(IndeterminateCrossRatioError):
        pg1.cross_ratio(f(0), f(1), f(0), f(0))


def test_cross_ratio_pair_order_invariance(plane):
    """Swapping the order inside either pair keeps {r, 1/r}."""
    pg1 = plane.pg1
    f = plane.field
    q = f.q
    import random

    rng = random.Random(7)
    for _ in range(200):
        xs = rng.sample(range(q + 1), 4)
        r = pg1.cross_ratio_pos(*xs)
        for perm in ((1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2)):
            r2 = pg1.cross_ratio_pos(*(xs[i] for i in perm))
            if r in (0, pg1.INF):
                assert r2 in (0, pg1.INF)
            else:
                assert r2 in (r, f.inv(r))


@pytest.mark.parametrize("q,step", [(5, 1), (7, 13)])
def test_cross_ratio_group_invariance(q, step):
    """Exhaustive over all quadruples and elements at q = 5, sampled at 7."""
    fld = field(q)
    pg1 = Plane(fld).pg1
    quads = [
        (x, y, z, w)
        for x in range(q + 1)
        for y in range(q + 1)
        for z in range(q + 1)
        for w in range(q + 1)
        if len({x, y, z, w}) == 4
    ]
    for g in enumerate_group(fld, "pgl"):
        pp = point_perm(g)
        for x, y, z, w in quads[::step]:
            assert pg1.cross_ratio_pos(x, y, z, w) == pg1.cross_ratio_pos(
                pp[x], pp[y], pp[z], pp[w]
            )


def test_secants_biject_with_pairs(plane):
    q = plane.field.q
    lines = {plane.hyperbolic_line_pos(i, j) for i, j in plane.pg1.pairs.tolist()}
    assert len(lines) == q * (q + 1) // 2
    assert all(plane.classify_line(l) == "hyperbolic" for l in lines)


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


# -- batched kernels against the scalar methods -------------------------------------


@pytest.mark.parametrize("q", [5, 7, 9, 25, 27, 49])
def test_batched_kernels_equal_the_scalar_methods(q):
    pl = Plane(field(q))
    f = pl.field
    pairs = pl.pg1.pairs
    secants = [pl.hyperbolic_line_pos(i, j) for i, j in pairs.tolist()]
    assert list(map(tuple, pl.secant_lines(pairs).tolist())) == secants
    assert list(map(tuple, pl.secant_lines(pairs[:, ::-1]).tolist())) == secants
    lines = pl.all_lines()
    assert list(map(tuple, pl.poles(lines).tolist())) == [pl.polarity_line_to_point(l) for l in lines]
    conic = pl.conic_points()
    counts = [sum(pl.incident(P, l) for P in conic) for l in lines]
    assert pl.conic_counts(lines).tolist() == counts
    # counts and poles do not depend on the scaling of a line
    scaled = [tuple(f.mul(int(f.BY_RANK[1 + k % (q - 1)]), c) for c in l) for k, l in enumerate(lines)]
    assert pl.conic_counts(scaled).tolist() == counts
    assert pl.poles(scaled).tolist() == pl.poles(lines).tolist()
    assert pl.normalize_rows(scaled).tolist() == [list(pl.normalize(l)) for l in scaled]
    with pytest.raises(ValueError):
        pl.normalize_rows([(1, 0, 0), (0, 0, 0)])
    with pytest.raises(ValueError):
        pl.secant_lines([(1, 1)])


@pytest.mark.parametrize("q", [5, 7, 9, 25, 27, 49])
def test_hyperbolic_domains_equal_the_scalar_construction(q):
    pl = Plane(field(q))
    secants = [pl.hyperbolic_line_pos(i, j) for i, j in pl.pg1.pairs.tolist()]
    lines, points = domain(pl, "hyp-lines").coords, domain(pl, "hyp-points").coords
    assert lines.dtype == points.dtype == np.int32
    assert list(map(tuple, lines.tolist())) == secants
    assert list(map(tuple, points.tolist())) == [pl.polarity_line_to_point(l) for l in secants]


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
    tangent = pl.polarity_point_to_line(pl.conic_point(0))
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
