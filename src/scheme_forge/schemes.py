"""Association-scheme machinery over enumerated domains.

A Scheme wraps a dense n x n relation matrix of small class indices:
entry (x, y) is the index of the relation containing the ordered pair,
0 being the diagonal.  Construction checks the structure of the matrix
and, with `check`, proves the axioms exactly, never by sampling: by a
certificate from automorphisms such as a group's generators, or
exhaustively; orbit labels and checked fusions are exact as built.
`Scheme.verified_by` records which proof a scheme has.

Classes are numbered one way, by `_renumber_first_occurrence`: in order
of first occurrence in row 0, which is their least ordered pair in
row-major order.  Every builder goes through it: the generic least-element
orbit labels of a group on ordered pairs, the fast path through
base-pair stabilizer orbits plus explicit transporters, fusions, and
the cross-ratio scheme in `fission`; equal actions give byte-identical
matrices.
"""

import numpy as np

from . import moebius as mo

MAX_DEFAULT_Q = 127


class NotTransitiveError(RuntimeError):
    """The generated group does not act transitively on the domain."""


class NotASchemeError(RuntimeError):
    """A relation matrix violates the association scheme axioms."""


class UnsupportedDomainError(ValueError):
    """The stabilizer fast path only covers the pair-indexed domains."""


class DomainSizeError(RuntimeError):
    """Guard against accidentally huge dense relation matrices."""


def _guard_size(dom, allow_large):
    if dom.field.q > MAX_DEFAULT_Q and not allow_large:
        raise DomainSizeError(
            f"q={dom.field.q} gives a {dom.n}x{dom.n} relation matrix; "
            "pass allow_large=True (CLI: --allow-large) to proceed"
        )


# The block budget: row blocks hold about this many entries, so blocked
# passes over an n x n matrix need temporaries of a few hundred kB (index
# arrays take eight bytes an entry) instead of multiples of n^2, and the
# blocks stay in cache.  Larger blocks only cost memory: in one in-process
# run of the theorem suite for q = 5..49, peak RSS was 35 MB at 2^16
# entries, 40 MB at 2^18 and 51 MB at 2^20, while the q = 169 `pgl` build
# took 2.1 to 2.5 s at each of these sizes (3.5 s at 2^14).
BLOCK_ENTRIES = 1 << 16


def _row_blocks(k, n):
    """(r0, r1) bounds of consecutive blocks of k rows of length n."""
    step = max(1, BLOCK_ENTRIES // max(1, n))
    return [(r0, min(k, r0 + step)) for r0 in range(0, k, step)]


def _renumber_first_occurrence(row, size):
    """The class numbering of every builder: first occurrence in row 0.

    `row` is row 0 of a relation matrix, or the values it would hold.
    Returns (remap, first): remap, of length `size` and in the final
    class dtype (uint8 for up to 255 classes, else uint16), numbers each
    value of the row by its first occurrence,
    and first[k] is the column where class k first occurs.  A value in
    0..size-1 that the row misses maps to the largest value of the
    dtype, which no class number takes, so a matrix holding it fails the
    row-0 check of `Scheme`: in a scheme every row holds every class, so
    numbering row 0 is numbering the matrix in row-major order.
    """
    if not np.issubdtype(row.dtype, np.integer) or row.min() < 0:
        raise NotASchemeError("class indices must be non-negative integers")
    ids, first = np.unique(row, return_index=True)
    order = np.argsort(first, kind="stable")
    dtype = np.uint8 if len(ids) <= 255 else np.uint16
    remap = np.full(size, np.iinfo(dtype).max, dtype=dtype)
    remap[ids[order]] = np.arange(len(ids), dtype=dtype)
    return remap, first[order]


class Scheme:
    """An association scheme on an enumerated domain.

    Row 0 must hold every class 0..d, as every row of a scheme does, and
    `class_reps[k]` is the first pair (0, y) of class k: its least pair
    in row-major order.  Structure checks always run: a row 0 missing a
    class, a negative or non-integer entry, a diagonal that is not
    exactly class 0, or class sizes that are not multiples of n raise
    NotASchemeError.  With `check`, `automorphisms` (permutation arrays
    of the domain, such as a group's generators) certify the matrix
    (`_certify`); without them it gets the blocked transposition check
    and `verify_exhaustive`, at O(d^2 n^3).  `verified_by` is then
    "certificate" or "exhaustive", else "structure"; `orbital_scheme`
    and `fuse` set "orbits" and "fusion".
    """

    def __init__(self, relation_matrix, domain=None, check=True, automorphisms=None):
        M = np.ascontiguousarray(relation_matrix)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError("relation matrix must be square")
        self.relation_matrix = M
        self.n = M.shape[0]
        self.d = int(M.max())
        self.domain = domain
        self.labels = None
        self._p_tensor = None

        remap, first = _renumber_first_occurrence(M[0], self.d + 1)
        if len(first) != self.d + 1 or M.min() < 0:
            raise NotASchemeError("row 0 must hold every class 0..d, and nothing else may occur")
        self.class_reps = [(0, int(first[k])) for k in remap.tolist()]

        if (np.diagonal(M) != 0).any():
            raise NotASchemeError("the diagonal must be relation 0")
        # counted per row block: bincount copies its input to intp
        counts = np.zeros(self.d + 1, dtype=np.int64)
        blocks = _row_blocks(self.n, self.n)
        for r0, r1 in blocks:
            counts += np.bincount(M[r0:r1].ravel(), minlength=self.d + 1)
        if counts[0] != self.n:
            raise NotASchemeError("relation 0 must be exactly the diagonal")

        tmap = np.empty(self.d + 1, dtype=np.int32)
        for k, (x, y) in enumerate(self.class_reps):
            tmap[k] = M[y, x]
        if check and automorphisms is None:
            tm = tmap.astype(M.dtype)
            for r0, r1 in blocks:
                if not np.array_equal(tm[M[r0:r1]], M[:, r0:r1].T):
                    raise NotASchemeError("classes are not closed under transposition")
        self.transpose_map = tmap

        if (counts % self.n != 0).any():
            raise NotASchemeError("class sizes are not multiples of n")
        self.valencies = (counts // self.n).astype(np.int64)
        self.verified_by = "structure"
        if check and automorphisms is None:
            self.verify_exhaustive()
            self.verified_by = "exhaustive"
        elif check:
            self._certify(np.asarray(automorphisms))
            self.verified_by = "certificate"

    def _certify(self, perms):
        """Prove the matrix a scheme from permutations of its domain:
        every p preserves M (M[p(x), p(y)] = M[x, y], per row block),
        they generate a transitive group G, and the group H generated by
        those fixing the base element b has d + 1 orbits (the least
        elements, which `_orbits` leaves fixed).  Preserving M makes p
        injective, as class 0 is the diagonal; row b holds all d + 1
        classes, like row 0, and H preserves them, so its orbits are
        exactly the classes of row b.  So a pair (x, y) of class k goes
        by G to some (b, y'), and by H to the first pair of class k in
        row b: every class is one orbital of G, and intersection numbers,
        valencies and transposes read at one pair are exact (Bannai-Ito,
        Algebraic Combinatorics I, 2.2).
        """
        M, n = self.relation_matrix, self.n
        for p in perms:
            for r0, r1 in _row_blocks(n, n):
                if not np.array_equal(M.take(p[r0:r1], axis=0).take(p, axis=1), M[r0:r1]):
                    raise NotASchemeError("an automorphism does not preserve the relation matrix")
        if _orbits(perms, (n,)).any():
            raise NotASchemeError("the automorphisms are not transitive on the domain")
        b = self.domain.base_index
        lab = _orbits(perms[perms[:, b] == b], (n,))
        if int((lab == np.arange(n)).sum()) != self.d + 1:
            raise NotASchemeError("the classes of the base row are not the orbits of its stabilizer")

    # -- intersection numbers --------------------------------------------------

    def p_tensor(self):
        """The tensor p[k, i, j] of intersection numbers, one histogram per
        class at its representative pair (x, y) = class_reps[k]: the
        number of z with (x, z) in class i and (z, y) in class j.  Exact
        whenever `verified_by` is not "structure"."""
        if self._p_tensor is None:
            M = self.relation_matrix
            d1 = self.d + 1
            P = np.empty((d1, d1, d1), dtype=np.int64)
            for k, (x, y) in enumerate(self.class_reps):
                pairs = M[x].astype(np.int64) * d1 + M[:, y]
                P[k] = np.bincount(pairs, minlength=d1 * d1).reshape(d1, d1)
            self._p_tensor = P
        return self._p_tensor

    def verify_exhaustive(self):
        """Check p^k_ij constancy over every ordered pair (matrix products)."""
        M = self.relation_matrix
        P = self.p_tensor()
        d1 = self.d + 1
        # Two indicators are alive at a time.  The float64 products are
        # exact: every entry and partial sum counts at most n < 2^53 ones.
        for i in range(d1):
            Bi = (M == i).astype(np.float64)
            for j in range(d1):
                if not np.array_equal(Bi @ (M == j).astype(np.float64), P[:, i, j][M]):
                    raise NotASchemeError(
                        f"p^k_({i},{j}) is not constant over all representatives"
                    )
        return True

    # -- predicates --------------------------------------------------------------

    def is_symmetric(self):
        return bool((self.transpose_map == np.arange(self.d + 1)).all())

    def is_commutative(self):
        P = self.p_tensor()
        return bool(np.array_equal(P, P.transpose(0, 2, 1)))

    def relation(self, x, y):
        return int(self.relation_matrix[x, y])

    def label_text(self):
        if self.labels is None:
            return [str(k) for k in range(self.d + 1)]
        return [lab.text(self.domain.field) for lab in self.labels]

    def __repr__(self):
        kind = self.domain.kind if self.domain is not None else "?"
        return f"Scheme(n={self.n}, d={self.d}, domain={kind})"


# -- construction from group actions ------------------------------------------------


def _orbits(perms, shape):
    """Least-element orbit labels of the group that `perms` generate.

    The points are the flat indices of an array of the given shape, and
    each p in `perms` indexes such an array so that lab[p] holds, at every
    point, the label of its image: a permutation array for a 1-d shape,
    or an `np.ix_` pair for the diagonal action on the entries of a
    square.  Starting from lab[x] = x, each round lowers lab to
    min(lab, lab[p]) for every p in turn and then jumps lab = lab[lab],
    until a round leaves the sum of the labels unchanged.  Every step
    keeps lab[x] in the orbit of x and can only lower it, so the loop
    ends, and at the end no step changed anything: lab[x] <= lab[p(x)]
    for every generator p, and following the cycle of p through x gives
    equality, so lab is constant on orbits, and the least element m of
    an orbit has lab[m] = m.  So lab[x] is the least element of the
    orbit of x.  Two label arrays are alive at a time.
    """
    lab = np.arange(np.prod(shape)).reshape(shape)
    total = lab.sum()
    while True:
        for p in perms:
            np.minimum(lab, lab[p], out=lab)
        lab = lab.ravel()[lab]
        lowered = lab.sum()
        if lowered == total:
            return lab
        total = lowered


def orbital_scheme(perms, dom, allow_large=False):
    """Scheme of the diagonal action on ordered pairs, from orbit labels.

    `perms` are permutation arrays of the domain for a generating set of
    the acting group, which must be transitive on the domain.  Classes
    are the orbits on the entries (x, y) of the n x n matrix.  The
    diagonal is one orbit exactly when the group is transitive on the
    domain, and then every orbit meets row 0, so each label is the
    column of its orbit's least pair in row 0 and numbering row 0 by
    first occurrence numbers the classes by least pair.  `_orbits` is
    exact for permutations, checked here, so this proves the result.
    """
    _guard_size(dom, allow_large)
    n = dom.n
    perms = np.asarray(perms)
    if perms.shape[1:] != (n,) or (np.sort(perms, axis=1) != np.arange(n)).any():
        raise ValueError("every generator must be a permutation array of the domain")
    lab = _orbits([np.ix_(p, p) for p in perms], (n, n))
    if np.diagonal(lab).any():
        raise NotTransitiveError("the generated group is not transitive on the domain")
    remap, _ = _renumber_first_occurrence(lab[0], n)
    S = Scheme(remap[lab], domain=dom, check=False)
    S.verified_by = "orbits"
    return S


def orbital_scheme_via_stabilizer(fld, gid, dom, allow_large=False):
    """Fast path: stabilizer orbits at the base pair plus transporters.

    Row x of the relation matrix is lab[T_x], where lab labels the orbits
    of the generators that fix the base pair and T_x is the transporter
    sending pair x to the base pair.  All transporters come from one
    vectorized `transporters_to_base` call and act through
    `moebius.domain_perms`, one row block at a time.  Classes are numbered from row 0 before the
    fill (`_renumber_first_occurrence`), as in ``orbital_scheme``, and
    the rows are written straight into the final dtype, which the
    generators then certify.  Produces the identical
    relation matrix to ``orbital_scheme`` for the same action
    (cross-validated in the test suite for small q).
    """
    _guard_size(dom, allow_large)
    gid = mo.check_group_defined(fld, gid)
    if dom.base_index is None:
        raise UnsupportedDomainError(
            f"domain kind {dom.kind!r} has no distinguished base pair; "
            "use the generic orbital construction"
        )
    n = dom.n
    base = dom.base_index
    perms = mo.domain_perms(mo.coefficients(mo.generators(fld, gid)), dom)
    lab = _orbits(perms[perms[:, base] == base], (n,))
    if int((lab == lab[base]).sum()) != 1:
        raise RuntimeError("stabilizer does not fix the base pair alone")

    transporters = mo.transporters_to_base(fld, gid, dom.plane.pg1.pairs)
    remap, _ = _renumber_first_occurrence(lab[mo.domain_perms(transporters[:1], dom)[0]], n)
    row_of_base = remap[lab]

    M = np.empty((n, n), dtype=remap.dtype)
    for r0, r1 in _row_blocks(n, n):
        sigma = mo.domain_perms(transporters[r0:r1], dom)
        if (sigma[np.arange(r1 - r0), np.arange(r0, r1)] != base).any():
            raise RuntimeError("transporter failed to reach the base element")
        M[r0:r1] = row_of_base.take(sigma)
    return Scheme(M, domain=dom, automorphisms=perms)


def triangular_scheme(dom):
    """T(n): the symmetric-group orbital scheme on the pairs domain."""
    npts = dom.plane.pg1.n_points
    swap = np.arange(npts)
    swap[[0, 1]] = [1, 0]
    cycle = np.roll(np.arange(npts), -1)
    perms = dom.plane.pg1.pair_perms(np.stack([swap, cycle]))
    return orbital_scheme(perms, dom)


def group_orbital_scheme(fld, gid, dom, allow_large=False):
    """Generic-path scheme of one of the named groups on a domain."""
    perms = mo.domain_perms(mo.coefficients(mo.generators(fld, gid)), dom)
    return orbital_scheme(perms, dom, allow_large=allow_large)


# -- comparisons and fusions -----------------------------------------------------------


def partition_bijection(A, B):
    """Class bijection if A and B define the same pair partition, else None.

    With equal class counts, B is a fusion of A exactly when the two
    partitions agree, and the fusion map is then a bijection."""
    if A.d != B.d:
        return None
    return fusion_map(B, A)


def _fuses_onto(coarse, fine, part):
    """Whether part[fine] is the coarse matrix, compared in the coarse
    dtype so the fused copy takes n^2 bytes, not an int64 n x n array."""
    C = coarse.relation_matrix
    if part.min() < 0 or part.max() > coarse.d:
        return False
    return np.array_equal(part.astype(C.dtype)[fine.relation_matrix], C)


def fusion_map(coarse, fine):
    """Map fine classes onto coarse classes, or None if not a refinement."""
    if coarse.n != fine.n:
        return None
    part = np.empty(fine.d + 1, dtype=np.int64)
    for k, (x, y) in enumerate(fine.class_reps):
        part[k] = coarse.relation_matrix[x, y]
    return part if _fuses_onto(coarse, fine, part) else None


def is_fusion(coarse, fine, partition):
    """Whether `partition` (fine class -> coarse class) realizes coarse
    as a fusion scheme of fine: admissible, reproducing the coarse
    relations exactly, and with constant fused intersection numbers.
    A `partition` of None, which `fusion_map` returns when fine does not
    refine coarse, is no fusion.
    """
    if partition is None:
        return False
    part = np.asarray(partition, dtype=np.int64)
    if part.shape != (fine.d + 1,):
        raise ValueError("partition must assign every fine class")
    return (
        _is_admissible(fine, part)
        and _fuses_onto(coarse, fine, part)
        and _sums_are_constant(fine, part)
    )


def _is_admissible(fine, part):
    """Whether class 0 forms a block of `part` alone and the transposes
    of the classes of each block form a block."""
    if part[0] != 0 or int((part == 0).sum()) != 1:
        return False
    blocks = {frozenset(np.flatnonzero(part == c).tolist()) for c in np.unique(part)}
    return all(frozenset(fine.transpose_map[list(b)].tolist()) in blocks for b in blocks)


def _sums_are_constant(fine, part):
    """Whether fusing the classes of the scheme `fine` along `part` gives
    constant intersection numbers: for all coarse classes I, J, K, the
    sum of p^k_ij over i in I, j in J is the same for every k in K
    (Bannai-Ito, Algebraic Combinatorics I, 2.2).  The sums are read off
    the fine p-tensor, so no pair of the coarse matrix is sampled."""
    _, first, blocks = np.unique(part, return_index=True, return_inverse=True)
    E = np.zeros((fine.d + 1, len(first)), dtype=np.int64)
    E[np.arange(fine.d + 1), blocks] = 1
    sums = E.T @ fine.p_tensor() @ E
    return bool(np.array_equal(sums, sums[first[blocks]]))


def fuse(fine, partition):
    """Build the fused scheme.  NotASchemeError unless the partition is
    admissible with constant fused intersection numbers, which proves
    the fusion of a proved scheme a scheme."""
    part = np.asarray(partition, dtype=np.int64)
    if not _is_admissible(fine, part):
        raise NotASchemeError("the partition is not admissible")
    if not _sums_are_constant(fine, part):
        raise NotASchemeError("the fused intersection numbers are not constant")
    remap, _ = _renumber_first_occurrence(part[fine.relation_matrix[0]], int(part.max()) + 1)
    S = Scheme(remap[part][fine.relation_matrix], domain=fine.domain, check=False)
    if fine.verified_by != "structure":
        S.verified_by = "fusion"
    return S


# -- P-polynomial structure ----------------------------------------------------------


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


def _class_distances_form_a_path(P, c):
    """Whether breadth-first search over classes, stepping from class i to
    every unseen class j with P[j, i, c] > 0, adds exactly one class per
    layer and reaches all of them."""
    seen = np.zeros(P.shape[0], dtype=bool)
    nxt = np.array([0])
    while len(nxt) == 1:
        seen[nxt] = True
        nxt = np.flatnonzero((P[:, nxt[0], c] > 0) & ~seen)
    return len(nxt) == 0 and bool(seen.all())


def p_polynomial_orderings(S):
    """All symmetric classes whose graph realizes S as its distance scheme.

    Returns a list of dicts with the generating relation, the induced
    class ordering, and the intersection array ({b_0..b_{d-1}}, {c_1..c_d}).
    Empty list means the scheme is not P-polynomial.

    A candidate class c is first screened on the intersection numbers
    (Bannai-Ito, Algebraic Combinatorics I, III.1): the class breadth-first
    search of `_class_distances_form_a_path` must meet the classes one
    per layer.  Only survivors get the dense all-pairs distance check.
    The screen never drops a class the dense check keeps, even when S is
    not a scheme.  Suppose the dense check accepts c, and let dist(k) be
    the distance in the graph of c across any pair of class k.  At the
    representative (x, y) from which P[k] was counted, P[k, i, c] > 0
    gives a z with (x, z) in class i and z -> y an edge, so by the
    triangle inequality dist(k) <= dist(i) + 1.  If dist(k) > 0, the
    last step of a shortest path from x to y gives an i with
    dist(i) = dist(k) - 1 and P[k, i, c] > 0.  By induction layer e of
    the search is exactly the classes at distance e, and as dist is a
    bijection onto 0..d, each layer holds one class.
    """
    if not S.is_commutative():
        return []
    out = []
    P = S.p_tensor()
    M = S.relation_matrix
    for c in range(1, S.d + 1):
        if S.transpose_map[c] != c or not _class_distances_form_a_path(P, c):
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
