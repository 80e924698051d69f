"""Scalar oracles for the batched kernels, one element at a time.

Each kernel that a test checks against a reference has one scalar action
here, built only on the int API of `scheme_forge.gf.GF` and its tables:

  * `power`, `frobenius`: x^n by n multiplications, and x^(p^j) read from
    the Frobenius table (which `power` checks in the field tests);
  * `apply`, `compose`, `inverse`: maps of PG(1,q) as rows (a, b, c, d, j),
    acting on positions (`moebius.point_perms`);
  * `in_group`: the group conditions of `moebius.in_group`;
  * `transporter`: the map of `moebius.transporters_to_base`;
  * `rho`, `move_point`, `move_line`: the plane embedding and its action
    (`moebius._rho`, `moebius.domain_perms` on the plane domains);
  * `normalize`, `conic_point`, `plane_points`, `line_through`, `pole`,
    `incident`, `quadratic_form`, `point_class`: the conic kernels and
    point enumeration of `geometry.Plane`;
  * `cross_ratio`: the codes of `schemes.cross_ratio_scheme`;
  * `all_maps` and `closure`: the groups, listed without the package.

No oracle imports a kernel, so none agrees with one by sharing its code.
"""

import itertools

import numpy as np


def _element(fld, pos):
    """The field code at PG(1,q) position pos < q (canonical order)."""
    return int(fld.BY_RANK[pos])


def power(fld, x, n):
    """x^n for n >= 0, by n multiplications."""
    r = 1
    for _ in range(n):
        r = fld.mul(r, x)
    return r


def frobenius(fld, x, j):
    """x^(p^j), the j-th power of the Frobenius automorphism."""
    return int(fld.FROB[j, x])


def det(fld, g):
    a, b, c, d = g[:4]
    return fld.sub(fld.mul(a, d), fld.mul(b, c))


def canonical(fld, a, b, c, d, j=0):
    """The row (a, b, c, d, j) scaled so its first nonzero entry is 1;
    ValueError for a singular matrix."""
    if det(fld, (a, b, c, d)) == 0:
        raise ValueError("singular")
    s = fld.inv(next(v for v in (a, b, c, d) if v))
    return tuple(fld.mul(s, v) for v in (a, b, c, d)) + (j,)


def apply(fld, g, pos):
    """Image of PG(1,q) position pos (q is infinity) under t -> (a t^s + b)
    / (c t^s + d), s = p^j."""
    a, b, c, d, j = g
    q = fld.q
    if pos == q:
        num, den = a, c
    else:
        x = frobenius(fld, _element(fld, pos), j)
        num, den = fld.add(fld.mul(a, x), b), fld.add(fld.mul(c, x), d)
    return q if den == 0 else fld.rank(fld.div(num, den))


def compose(fld, g, h):
    """g after h, canonical: the matrix of g times h with g's Frobenius
    applied to the entries of h."""
    a, b, c, d, j = g
    ha, hb, hc, hd = (frobenius(fld, v, j) for v in h[:4])
    return canonical(
        fld,
        fld.add(fld.mul(a, ha), fld.mul(b, hc)),
        fld.add(fld.mul(a, hb), fld.mul(b, hd)),
        fld.add(fld.mul(c, ha), fld.mul(d, hc)),
        fld.add(fld.mul(c, hb), fld.mul(d, hd)),
        (j + h[4]) % fld.m,
    )


def inverse(fld, g):
    a, b, c, d, j = g
    k = (-j) % fld.m
    return canonical(fld, *(frobenius(fld, v, k) for v in (d, fld.neg(b), fld.neg(c), a)), k)


def in_group(fld, g, gid):
    """Membership by the paper's definitions: pgl is j = 0, psl adds a
    square determinant, m takes j = 0 with a square determinant or
    j = m/2 with a non-square one, pgammal is everything."""
    square, j = fld.is_square(det(fld, g)), g[4]
    return {
        "pgl": j == 0,
        "psl": j == 0 and square,
        "m": (j == 0 and square) or (j == fld.m // 2 and not square and fld.m % 2 == 0),
        "pgammal": True,
    }[gid]


def all_maps(fld, js):
    """Every canonical row with exponent in js, in lexicographic order."""
    out = []
    for j in js:
        for a, b, c, d in itertools.product(range(fld.q), repeat=4):
            if det(fld, (a, b, c, d)) and next(v for v in (a, b, c, d) if v) == 1:
                out.append((a, b, c, d, j))
    return out


def closure(perms):
    """Every element of the group that the permutation rows `perms`
    generate, as a set of tuples: products with the generators until
    none is new."""
    perms = np.asarray(perms)
    seen = {tuple(range(perms.shape[1]))}
    frontier = list(seen)
    while frontier:
        fresh = {tuple(e) for e in perms[:, np.array(frontier)].reshape(-1, perms.shape[1]).tolist()}
        frontier = list(fresh - seen)
        seen |= fresh
    return seen


def transporter(fld, pair):
    """t -> (t - alpha) / (t - beta), canonical, for the positions pair =
    (alpha, beta), after t -> z t for z the fixed non-square when its
    determinant is a non-square."""
    q = fld.q
    alpha, beta = (None if p == q else _element(fld, p) for p in pair)
    if alpha is None:
        h = canonical(fld, 0, 1, 1, fld.neg(beta))
    elif beta is None:
        h = canonical(fld, 1, fld.neg(alpha), 0, 1)
    else:
        h = canonical(fld, 1, fld.neg(alpha), 1, fld.neg(beta))
    if not fld.is_square(det(fld, h)):
        h = compose(fld, (fld.fixed_nonsquare(), 0, 0, 1, 0), h)
    return h


# -- the plane --------------------------------------------------------------------


def normalize(fld, v):
    """The triple scaled so its first nonzero coordinate is 1."""
    s = fld.inv(next(c for c in v if c))
    return tuple(fld.mul(s, int(c)) for c in v)


def rho(fld, g):
    """The 3x3 matrix by which the map acts on (t^2, t, 1), unscaled."""
    a, b, c, d = g[:4]
    two, m = fld.add(1, 1), fld.mul
    return (
        (m(a, a), m(two, m(a, b)), m(b, b)),
        (m(a, c), fld.add(m(a, d), m(b, c)), m(b, d)),
        (m(c, c), m(two, m(c, d)), m(d, d)),
    )


def times(fld, mat, v):
    """The vector mat . v, unnormalized."""
    out = []
    for row in mat:
        s = 0
        for x, y in zip(row, v):
            s = fld.add(s, fld.mul(x, y))
        out.append(s)
    return out


def move_point(fld, mat, j, v):
    """The point mat . v^(p^j), normalized."""
    return normalize(fld, times(fld, mat, [frobenius(fld, int(c), j) for c in v]))


def move_line(fld, mat, j, line):
    """The line image under the point map of mat: dual coordinates move by
    the adjugate transpose, the 2x2 minors with alternating signs."""
    cof = [[0] * 3 for _ in range(3)]
    for r in range(3):
        for s in range(3):
            (r0, r1), (s0, s1) = [i for i in range(3) if i != r], [i for i in range(3) if i != s]
            minor = fld.sub(fld.mul(mat[r0][s0], mat[r1][s1]), fld.mul(mat[r0][s1], mat[r1][s0]))
            cof[r][s] = minor if (r + s) % 2 == 0 else fld.neg(minor)
    return move_point(fld, cof, j, line)


def conic_point(fld, pos):
    """(t^2 : t : 1) at position pos, (1 : 0 : 0) at infinity."""
    if pos == fld.q:
        return (1, 0, 0)
    t = _element(fld, pos)
    return normalize(fld, (fld.mul(t, t), t, 1))


def plane_points(fld):
    """The q^2+q+1 points (0 : 0 : 1), (0 : 1 : a), (1 : a : b), with a,
    then b, in canonical order."""
    order = [_element(fld, pos) for pos in range(fld.q)]
    return [(0, 0, 1)] + [(0, 1, a) for a in order] + [(1, a, b) for a in order for b in order]


def quadratic_form(fld, v):
    """Q(x0, x1, x2) = x1^2 - x0 x2 of a raw triple."""
    x0, x1, x2 = (int(c) for c in v)
    return fld.sub(fld.mul(x1, x1), fld.mul(x0, x2))


def point_class(fld, P):
    """'hyperbolic' iff Q(P) is a nonzero square (the pole of a secant),
    'singular' iff Q(P) = 0, else 'elliptic'."""
    qv = quadratic_form(fld, P)
    if qv == 0:
        return "singular"
    return "hyperbolic" if fld.is_square(qv) else "elliptic"


def line_through(fld, P, Q):
    """Dual coordinates of the line through two distinct points."""
    return normalize(fld, [fld.sub(fld.mul(P[i - 2], Q[i - 1]), fld.mul(P[i - 1], Q[i - 2])) for i in range(3)])


def pole(fld, line):
    """The pole of a line under the polarity of Q = x1^2 - x0 x2."""
    a0, a1, a2 = (int(c) for c in line)
    return normalize(fld, (fld.neg(a2), fld.div(a1, fld.add(1, 1)), fld.neg(a0)))


def incident(fld, P, line):
    return times(fld, [line], P)[0] == 0


def cross_ratio(fld, x, y, z, w):
    """cr(x, y; z, w) = (x - z)(y - w) / ((x - w)(y - z)) of four positions,
    with the limit rules at infinity: a code, q for infinity, None for 0/0."""

    def h(pos):
        return (1, 0) if pos == fld.q else (_element(fld, pos), 1)

    def bracket(u, v):
        return fld.sub(fld.mul(u[0], v[1]), fld.mul(u[1], v[0]))

    x, y, z, w = map(h, (x, y, z, w))
    num, den = fld.mul(bracket(x, z), bracket(y, w)), fld.mul(bracket(x, w), bracket(y, z))
    if den:
        return fld.div(num, den)
    return fld.q if num else None
