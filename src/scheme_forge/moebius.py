"""Semilinear fractional maps on PG(1,q) and the group lattice.

A map is a row (a, b, c, d, j): the field codes of a 2x2 invertible
matrix, up to scalars, and an automorphism exponent j in 0..m-1, acting
as

    t  |->  (a * t^(p^j) + b) / (c * t^(p^j) + d)

with the usual limit rules at infinity.  k maps are a (k, 5) integer
array; there is no map object.  A canonical row has the first nonzero of
a, b, c, d scaled to 1 (`_canonical`), as `generators`,
`stabilizer_generators`, `base_pair_stabilizer` and
`transporters_to_base` return them; `map_text` writes one.  The four
groups of interest are addressed by the ids "pgl", "psl", "m" (the
twisted sharply 3-transitive group, defined when m is even) and
"pgammal":

    pgl      j = 0
    psl      j = 0 and det a square
    m        j = 0 with det square, or j = m/2 with det a non-square
    pgammal  everything

``_rho`` embeds these maps into semilinear 3x3 transformations of PG(2,q)
that fix the conic of the geometry module, with (A, j) acting on points
as v |-> rho(A) . v^(p^j) and on lines through the inverse transpose.
"""

import numpy as np

GROUPS = ("pgl", "psl", "m", "pgammal")


class InvalidGroupError(ValueError):
    """Raised for group ids that do not exist over the given field."""


def normalize_group(gid):
    g = str(gid).lower().replace("(", "").replace(")", "")
    g = "pgammal" if g == "pgamma" else g
    if g not in GROUPS:
        raise InvalidGroupError(f"unknown group {gid!r}; choose from {GROUPS}")
    return g


def check_group_defined(fld, gid):
    gid = normalize_group(gid)
    if gid == "m" and fld.m % 2 != 0:
        raise InvalidGroupError(
            f"M(q) needs q to be an even power of an odd prime; q={fld.q} has m={fld.m}"
        )
    return gid


def _cells(fld, gid):
    """The named group as a table of the cells of PGammaL(2,q), q = p^m:
    entry [j, s] says whether it holds the maps of exponent j whose
    determinant is a square (s = 1) or not (s = 0), unchanged by scaling."""
    cells = {
        "pgl": [(0, 0), (0, 1)],
        "psl": [(0, 1)],
        "m": [(0, 1), (fld.m // 2, 0)],
        "pgammal": [(j, s) for j in range(fld.m) for s in (0, 1)],
    }[check_group_defined(fld, gid)]
    table = np.zeros((fld.m, 2), dtype=bool)
    table[tuple(zip(*cells))] = True
    return table


def in_group(fld, maps, gid):
    """Whether each row (a, b, c, d, j) of the (k, 5) array `maps` is a map
    of the named group: field codes with a nonzero determinant, an
    exponent j in 0..m-1, and the group's condition on j and on the
    square class of the determinant: its cell in `_cells`."""
    cells = _cells(fld, gid)
    maps = np.asarray(maps).reshape(-1, 5)
    coded = ((maps[:, :4] >= 0) & (maps[:, :4] < fld.q)).all(axis=1)
    a, b, c, d, j = np.where(coded[:, None], maps, 0).T
    det = fld.ADD[fld.MUL[a, d], fld.NEG[fld.MUL[b, c]]]
    ok = coded & (det != 0) & (j >= 0) & (j < fld.m)
    return ok & cells[np.where(ok, j, 0), fld.SQUARE[det].astype(np.intp)]


def _canonical(fld, a, b, c, d, j):
    """The (k, 5) int64 rows of k invertible maps given by their columns,
    with a, b, c, d scaled so that the first nonzero of them is 1: that is
    a, or b when a = 0, as then bc = -det is not 0."""
    s = fld.INV[np.where(a != 0, a, b)]
    return np.stack([fld.MUL[s, v] for v in (a, b, c, d)] + [j], axis=1).astype(np.int64)


def stabilizer_generators(fld, gid):
    """Canonical rows generating `base_pair_stabilizer(fld, gid)` (checked
    orbit by orbit in the test suite), with g primitive: t -> g*t and
    t -> 1/t for `pgl`, t -> g^2*t and t -> -1/t for `psl`, plus
    t -> g*t^(p^(m/2)) for `m` and the Frobenius t -> t^p for `pgammal`."""
    gid = check_group_defined(fld, gid)
    g = fld.primitive_element()
    pgl = [(g, 0, 0, 1, 0), (0, 1, 1, 0, 0)]
    psl = [(fld.mul(g, g), 0, 0, 1, 0), (0, fld.neg(1), 1, 0, 0)]
    rows = {
        "pgl": pgl,
        "psl": psl,
        "m": psl + [(g, 0, 0, 1, fld.m // 2)],
        "pgammal": pgl + [(1, 0, 0, 1, 1)] * (fld.m > 1),
    }[gid]
    return _canonical(fld, *np.array(rows).T)


def generators(fld, gid):
    """A small generating set, as canonical rows: the shift t -> t + 1,
    then the stabilizer generators of {0, oo}; every row passes `in_group`."""
    return np.vstack([[(1, 1, 0, 1, 0)], stabilizer_generators(fld, gid)])


def base_pair_stabilizer(fld, gid):
    """The full setwise stabilizer of {0, oo} in the named group, as
    canonical rows: the maps t -> e*t^(p^j) and t -> e/t^(p^j) that
    `in_group` accepts, in order of j, then e in canonical order, with
    t -> e*t^(p^j) before t -> e/t^(p^j).
    """
    e = np.tile(fld.BY_RANK[1:], fld.m)
    j = np.repeat(np.arange(fld.m), fld.q - 1)
    zero, one = np.zeros_like(e), np.ones_like(e)
    scale, invert = np.stack([e, zero, zero, one, j], 1), np.stack([zero, e, one, zero, j], 1)
    maps = _canonical(fld, *np.stack([scale, invert], axis=1).reshape(-1, 5).T)
    return maps[in_group(fld, maps, gid)]


def transporters_to_base(fld, pairs):
    """The canonical row of one transporter per 2-subset, in one pass.

    `pairs` is a (k, 2) array of PG(1,q) positions, each row two distinct
    points.  Row r of the result holds (a, b, c, d, j) of the map
    t -> (t - alpha)/(t - beta) that sends the r-th subset {alpha, beta}
    to {0, oo}, with the limit forms t -> 1/(t - beta) at alpha = oo and
    t -> t - alpha at beta = oo; a map with a non-square determinant is
    composed after the canonical non-square scaling t -> z*t.  Every row
    so has a square determinant and exponent 0: a map of `psl`, which
    lies in every group here.  The rows are canonical (`_canonical`).
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    alpha, beta = pairs.T
    if (alpha == beta).any():
        raise ValueError("a transporter needs a genuine 2-subset")
    a_inf, b_inf = alpha == fld.q, beta == fld.q
    neg_alpha = fld.NEG[fld.BY_RANK[np.where(a_inf, 0, alpha)]]
    neg_beta = fld.NEG[fld.BY_RANK[np.where(b_inf, 0, beta)]]
    a = np.where(a_inf, 0, 1)
    b = np.where(a_inf, 1, neg_alpha)
    c = np.where(b_inf, 0, 1)
    d = np.where(b_inf, 1, neg_beta)
    det = fld.ADD[fld.MUL[a, d], fld.NEG[fld.MUL[b, c]]]
    z = np.where(fld.SQUARE[det], 1, fld.fixed_nonsquare())
    return _canonical(fld, fld.MUL[z, a], fld.MUL[z, b], c, d, np.zeros_like(a))


def transporter_to_base(fld, pair):
    """The row of `transporters_to_base` for one pair of positions.  No
    build calls it; it is kept for the layer tracer of the benchmark
    (perfbench/tracer.py), which wraps it by name."""
    return transporters_to_base(fld, [pair])[0]


def map_text(fld, row):
    """The map of a canonical row as text, "(a*t + b) / (c*t + d)" with
    t^(p^j) for t when j > 0 and each coefficient by `GF.element_text`."""
    a, b, c, d, j = (int(v) for v in row)
    lam = "t" if j == 0 else f"t^(p^{j})"
    s = fld.element_text
    return f"({s(a)}*{lam} + {s(b)}) / ({s(c)}*{lam} + {s(d)})"


# -- the batched action kernel ---------------------------------------------------


def point_images(fld, maps, points):
    """Images of PG(1,q) positions under k maps, int32: row r of the result
    is row r of `points`, shape (k, m) or (1, m) for one row for all maps,
    moved by map r.  A position is (t : 1) for its element t, or (1 : 0)
    at infinity, and (x : s) goes to (a x^(p^j) + b s : c x^(p^j) + d s).
    Field operations are flat-table lookups, as in `_coords_transform`.
    """
    q = fld.q
    mul, add = fld.MUL.ravel(), fld.ADD.ravel()
    a, b, c, d, j = np.asarray(maps, dtype=np.intp).T[:, :, None]
    points = np.asarray(points, dtype=np.intp)
    s = (points < q).astype(np.intp)
    x = fld.FROB.ravel().take(j * q + np.append(fld.BY_RANK, 1).take(points))
    num = add.take(mul.take(a * q + x) * q + b * s)
    den = add.take(mul.take(c * q + x) * q + d * s)
    return np.where(den != 0, fld.RANK.take(mul.take(num * q + fld.INV.take(den))), q)


def point_perms(fld, maps):
    """Permutation arrays of k maps on PG(1,q) positions, shape (k, q+1):
    `point_images` of every position."""
    return point_images(fld, maps, np.arange(fld.q + 1)[None])


def _rho(fld, maps):
    """The matrices rho(A) of k maps, unscaled, shape (k, 3, 3): the
    linear maps of PG(2,q) by which A acts on the conic points (t^2, t, 1)."""
    M, A = fld.MUL, fld.ADD
    a, b, c, d = np.asarray(maps)[:, :4].T
    two = A[1, 1]
    entries = (
        M[a, a], M[two, M[a, b]], M[b, b],
        M[a, c], A[M[a, d], M[b, c]], M[b, d],
        M[c, c], M[two, M[c, d]], M[d, d],
    )
    return np.stack(entries, axis=1).reshape(-1, 3, 3)


def _cofactors(fld, mats):
    """Cofactor matrices of a (k, 3, 3) stack; the transposes are adjugates.

    With cyclic row and column indices the signs of a 3x3 cofactor
    expansion need no separate factor.
    """
    M, A, N = fld.MUL, fld.ADD, fld.NEG
    out = np.empty_like(mats)
    for r in range(3):
        r1, r2 = (r + 1) % 3, (r + 2) % 3
        for s in range(3):
            s1, s2 = (s + 1) % 3, (s + 2) % 3
            out[:, r, s] = A[M[mats[:, r1, s1], mats[:, r2, s2]], N[M[mats[:, r1, s2], mats[:, r2, s1]]]]
    return out


def _coords_transform(fld, mats, js, coords):
    """Apply k 3x3 matrices, each after its entrywise Frobenius, to every
    row of the (m, 3) array `coords` and normalize; the result has shape
    (k, m, 3), entry (r, i) row i moved by matrix r.

    Field operations are lookups x * q + y in the flattened tables, as
    one `take` on a flat index is much faster than two-array indexing.
    """
    q = fld.q
    mul, add = fld.MUL.ravel(), fld.ADD.ravel()
    C = fld.FROB.ravel().take(np.asarray(js, dtype=np.intp)[:, None, None] * q + coords[None])
    mq = np.asarray(mats, dtype=np.intp) * q
    out = np.empty(C.shape, dtype=np.intp)
    for r in range(3):
        s = mul.take(mq[:, r, 0, None] + C[:, :, 0]) * q
        s = add.take(s + mul.take(mq[:, r, 1, None] + C[:, :, 1])) * q
        out[:, :, r] = add.take(s + mul.take(mq[:, r, 2, None] + C[:, :, 2]))
    lead = np.argmax(out != 0, axis=2)[:, :, None]
    inv = fld.INV.take(np.take_along_axis(out, lead, axis=2))
    return mul.take(out + inv * q)


def domain_perms(maps, dom):
    """Permutation arrays of k maps on an enumerated domain, shape (k, n).

    On `pairs` the maps act through their point images
    (`PG1.pair_images`).  On the plane domains they act through `rho`:
    points by the matrix, lines by its cofactor matrix (the inverse
    transpose up to a scalar), after the Frobenius of the map's
    exponent, and the image coordinates are normalized and looked up.
    Every temporary has k * n entries, times three on the plane domains.
    The stabilizer path reads them on a plane domain only for the
    generators, in its certificate (`schemes.orbital_scheme_via_stabilizer`).
    """
    fld = dom.field
    maps = np.asarray(maps)
    if dom.kind == "pairs":
        return dom.plane.pg1.pair_images(point_perms(fld, maps))
    mats = _rho(fld, maps)
    if dom.kind != "hyp-points":
        mats = _cofactors(fld, mats)
    moved = _coords_transform(fld, mats, maps[:, 4], dom.coords)
    return dom.index_of_coords(moved.reshape(-1, 3)).reshape(moved.shape[:2])


def domain_perm(row, dom):
    """The row of `domain_perms` for one map.  No build calls it; it is
    kept for the layer tracer of the benchmark (perfbench/tracer.py),
    which wraps it by name."""
    return domain_perms(np.asarray(row)[None], dom)[0]


# -- group orders -----------------------------------------------------------------


def group_order(fld, gid):
    """(q^3 - q)/2, the order of PSL(2,q), times the number of cells of
    the group (`_cells`); closure-checked in the test suite."""
    return (fld.q**3 - fld.q) // 2 * int(_cells(fld, gid).sum())
