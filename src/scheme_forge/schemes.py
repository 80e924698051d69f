"""Association-scheme machinery over enumerated domains.

A Scheme wraps a dense n x n relation matrix of small class indices:
entry (x, y) is the index of the relation containing the ordered pair,
0 being the diagonal.  Construction re-verifies the scheme axioms: the
diagonal is class 0 and nothing else is, transposes of classes are
classes, and the intersection numbers p^k_ij are representative
independent (sampled by default, exhaustively on request).

Two independent construction routes are provided for group actions:
generic least-element orbit labels of the group on ordered pairs, and
the fast path through base-pair stabilizer orbits plus explicit
transporters.  Both number classes by their least ordered-pair
representative in row-major order, so equal actions give byte-identical
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


def _class_dtype(nclasses):
    return np.uint8 if nclasses <= 255 else np.uint16


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


def _renumber_first_occurrence(raw):
    """Renumber class ids by first appearance in row-major order.

    When row 0 holds every class id, as it does for any transitive
    action, first appearance in row-major order is first appearance in
    row 0, so the order is read off that row alone and applied with one
    gather.  Ids missing from row 0 map to a sentinel (the largest value
    of the output dtype, which no renumbered class can take); if the
    sentinel shows up anywhere, or an id is negative, the full
    row-major sort below gives the answer instead.  Both routes return
    the same values in the same dtype.
    """
    ids, first = np.unique(raw[0], return_index=True)
    dtype = _class_dtype(len(ids))
    missing = np.iinfo(dtype).max
    if len(ids) <= missing and raw.min() >= 0:
        remap = np.full(int(raw.max()) + 1, missing, dtype=dtype)
        remap[ids[np.argsort(first, kind="stable")]] = np.arange(len(ids), dtype=dtype)
        out = remap[raw]
        if out.max() != missing:
            return out
    flat = raw.ravel()
    uniq, first = np.unique(flat, return_index=True)
    order = np.argsort(first, kind="stable")
    remap = np.empty(int(uniq.max()) + 1, dtype=_class_dtype(len(uniq)))
    remap[uniq[order]] = np.arange(len(uniq), dtype=remap.dtype)
    return remap[raw]


class Scheme:
    """An association scheme on an enumerated domain.

    `class_reps[k]` is the least pair of class k in row-major order.  When
    the matrix has integer entries with least entry 0 and row 0 holds all
    d+1 values, as in any transitive scheme, every class occurs in row 0,
    so the representatives are read off that row; otherwise the whole
    matrix is sorted.  The two give the same pairs and the same errors.
    """

    def __init__(self, relation_matrix, domain=None, labels=None, check=True, sample=10):
        M = np.ascontiguousarray(relation_matrix)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError("relation matrix must be square")
        self.relation_matrix = M
        self.n = M.shape[0]
        self.d = int(M.max())
        self.domain = domain
        self.labels = labels
        self._p_tensor = None
        self._p_sample = 0

        flat = M.ravel()
        uniq, first = np.unique(M[0], return_index=True)
        if len(uniq) != self.d + 1 or not np.issubdtype(M.dtype, np.integer) or M.min() != 0:
            uniq, first = np.unique(flat, return_index=True)
        if len(uniq) != self.d + 1 or uniq[0] != 0:
            raise NotASchemeError("class indices must be 0..d with none missing")
        self.class_reps = [divmod(int(i), self.n) for i in first]

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
        if check:
            tm = tmap.astype(M.dtype)
            for r0, r1 in blocks:
                if not np.array_equal(tm[M[r0:r1]], M[:, r0:r1].T):
                    raise NotASchemeError("classes are not closed under transposition")
        self.transpose_map = tmap

        if (counts % self.n != 0).any():
            raise NotASchemeError("class sizes are not multiples of n")
        self.valencies = (counts // self.n).astype(np.int64)
        if check:
            for x in range(0, self.n, max(1, self.n // 8)):
                row = np.bincount(M[x], minlength=self.d + 1)
                if not np.array_equal(row, self.valencies):
                    raise NotASchemeError(f"row {x} has non-constant valencies")
            self.p_tensor(sample=sample)

    # -- intersection numbers --------------------------------------------------

    def p_tensor(self, sample=10):
        """The tensor p[k, i, j] of intersection numbers.

        Each p^k_ij is counted from the least representative pair of
        class k; constancy is re-verified over `sample` further
        representatives (one per row) and a NotASchemeError is raised on
        any disagreement.
        """
        if self._p_tensor is not None and self._p_sample >= sample:
            return self._p_tensor
        M = self.relation_matrix
        d1 = self.d + 1
        P = np.zeros((d1, d1, d1), dtype=np.int64)
        for k in range(d1):
            hist = None
            checked = 0
            for x in range(self.n):
                y = int(np.argmax(M[x] == k))
                if M[x, y] != k:
                    raise NotASchemeError(f"class {k} missing from row {x}")
                h = np.bincount(
                    M[x, :].astype(np.int64) * d1 + M[:, y], minlength=d1 * d1
                ).reshape(d1, d1)
                if hist is None:
                    hist = h
                elif not np.array_equal(hist, h):
                    raise NotASchemeError(
                        f"intersection numbers of class {k} depend on the representative"
                    )
                checked += 1
                if checked > sample:
                    break
            P[k] = hist
        self._p_tensor = P
        self._p_sample = sample
        return P

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


def orbital_scheme(perms, dom, check=True, allow_large=False, labels=None):
    """Scheme of the diagonal action on ordered pairs, from orbit labels.

    `perms` are permutation arrays of the domain for a generating set of
    the acting group, which must be transitive on the domain.  Classes
    are the orbits on the entries (x, y) of the n x n matrix, numbered by
    least pair in row-major order.  The diagonal is one orbit exactly
    when the group is transitive on the domain.
    """
    _guard_size(dom, allow_large)
    n = dom.n
    lab = _orbits([np.ix_(p, p) for p in perms], (n, n))
    if np.diagonal(lab).any():
        raise NotTransitiveError("the generated group is not transitive on the domain")
    least = np.flatnonzero(lab.ravel() == np.arange(n * n))
    dtype = _class_dtype(len(least))
    number = np.zeros(n * n, dtype=dtype)
    number[least] = np.arange(len(least), dtype=dtype)
    return Scheme(number[lab], domain=dom, labels=labels, check=check)


def _stabilizer_orbits(fld, gid, dom):
    """Orbit labels of the base-pair stabilizer on the domain.

    The images of every listed stabilizer element are stacked into S, of
    shape (|stab|, n), and mn = S.min(axis=0) is the least image of each
    element.  Lemma: if mn is S-invariant (mn[s(x)] = mn[x] for every
    listed s), its classes are exactly the orbits of the group <S> the
    list generates.  Invariance under the generators is invariance under
    <S>, so each orbit lies in one class; and mn[x] = s(x) for some s,
    so x and mn[x] share an orbit, and elements with equal mn do too.
    So the result is exact even for a list that is not closed: the
    orbits of <S>, or an error.  For the full stabilizer, mn[x] is the
    least element of the orbit of x and the check passes.  Labels are
    numbered by least element.
    """
    stab = mo.coefficients(mo.base_pair_stabilizer(fld, gid))
    S = np.empty((len(stab), dom.n), dtype=np.int32)
    for r0, r1 in _row_blocks(len(stab), dom.n):
        S[r0:r1] = mo.domain_perms(stab[r0:r1], dom)
    mn = S.min(axis=0)
    if not (mn[S] == mn).all():
        raise RuntimeError("least stabilizer images are not invariant: the stabilizer list is not closed")
    return np.unique(mn, return_inverse=True)[1]


def orbital_scheme_via_stabilizer(fld, gid, dom, check=True, allow_large=False):
    """Fast path: stabilizer orbits at the base pair plus transporters.

    Row x of the relation matrix is lab[T_x], where lab labels the orbits
    of the base-pair stabilizer and T_x is the transporter sending pair x
    to the base pair.  All transporters come from one vectorized
    `transporters_to_base` call and act through `moebius.domain_perms`,
    one row block at a time.  Classes are numbered by first occurrence in
    row 0 before the fill: row 0 holds every class, so this is their
    first occurrence in row-major order, as in ``orbital_scheme``, and
    the rows are written straight into the final dtype.  Produces the
    identical relation matrix to ``orbital_scheme`` for the same action
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
    lab = _stabilizer_orbits(fld, gid, dom)
    if int((lab == lab[base]).sum()) != 1:
        raise RuntimeError("stabilizer does not fix the base pair alone")

    transporters = mo.transporters_to_base(fld, gid, dom.plane.pg1.pairs)
    row0 = lab[mo.domain_perms(transporters[:1], dom)[0]]
    ids, first = np.unique(row0, return_index=True)
    nclasses = int(lab.max()) + 1
    if len(ids) != nclasses:
        raise RuntimeError("row 0 misses a stabilizer orbit")
    dtype = _class_dtype(nclasses)
    remap = np.empty(nclasses, dtype=dtype)
    remap[ids[np.argsort(first, kind="stable")]] = np.arange(nclasses, dtype=dtype)
    row_of_base = remap[lab]

    M = np.empty((n, n), dtype=dtype)
    for r0, r1 in _row_blocks(n, n):
        sigma = mo.domain_perms(transporters[r0:r1], dom)
        if (sigma[np.arange(r1 - r0), np.arange(r0, r1)] != base).any():
            raise RuntimeError("transporter failed to reach the base element")
        M[r0:r1] = row_of_base.take(sigma)
    return Scheme(M, domain=dom, check=check)


def triangular_scheme(dom, check=True):
    """T(n): the symmetric-group orbital scheme on the pairs domain."""
    npts = dom.plane.pg1.n_points
    swap = np.arange(npts)
    swap[[0, 1]] = [1, 0]
    cycle = np.roll(np.arange(npts), -1)
    perms = dom.plane.pg1.pair_perms(np.stack([swap, cycle]))
    return orbital_scheme(perms, dom, check=check)


def group_orbital_scheme(fld, gid, dom, check=True, allow_large=False):
    """Generic-path scheme of one of the named groups on a domain."""
    perms = mo.domain_perms(mo.coefficients(mo.generators(fld, gid)), dom)
    return orbital_scheme(perms, dom, check=check, allow_large=allow_large)


# -- comparisons and fusions -----------------------------------------------------------


def partition_bijection(A, B):
    """Class bijection if A and B define the same pair partition, else None."""
    MA = A.relation_matrix
    MB = B.relation_matrix
    if MA.shape != MB.shape or A.d != B.d:
        return None
    code = MA.ravel().astype(np.int64) * (B.d + 1) + MB.ravel()
    uniq = np.unique(code)
    if len(uniq) != A.d + 1:
        return None
    amap = uniq // (B.d + 1)
    bmap = uniq % (B.d + 1)
    if len(np.unique(amap)) != A.d + 1 or len(np.unique(bmap)) != B.d + 1:
        return None
    out = np.empty(A.d + 1, dtype=np.int64)
    out[amap] = bmap
    return out


def fusion_map(coarse, fine):
    """Map fine classes onto coarse classes, or None if not a refinement."""
    if coarse.n != fine.n:
        return None
    part = np.empty(fine.d + 1, dtype=np.int64)
    for k, (x, y) in enumerate(fine.class_reps):
        part[k] = coarse.relation_matrix[x, y]
    if not np.array_equal(part[fine.relation_matrix], coarse.relation_matrix):
        return None
    return part


def is_fusion(coarse, fine, partition):
    """Whether `partition` (fine class -> coarse class) realizes coarse
    as a fusion scheme of fine: admissible, reproducing the coarse
    relations exactly, and with constant fused intersection numbers.
    """
    part = np.asarray(partition, dtype=np.int64)
    if part.shape != (fine.d + 1,):
        raise ValueError("partition must assign every fine class")
    if part[0] != 0 or int((part == 0).sum()) != 1:
        return False
    blocks = {}
    for alpha, c in enumerate(part):
        blocks.setdefault(int(c), set()).add(alpha)
    tposed = {c: {int(fine.transpose_map[a]) for a in blk} for c, blk in blocks.items()}
    by_members = {frozenset(blk) for blk in blocks.values()}
    if any(frozenset(t) not in by_members for t in tposed.values()):
        return False
    if not np.array_equal(part[fine.relation_matrix], coarse.relation_matrix):
        return False
    return _sums_are_constant(fine, part)


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


def fuse(fine, partition, check=True):
    """Build the fused scheme; raises NotASchemeError if the admissible
    partition does not actually yield an association scheme."""
    part = np.asarray(partition, dtype=np.int64)
    if check and not _sums_are_constant(fine, part):
        raise NotASchemeError("the fused intersection numbers are not constant")
    M = _renumber_first_occurrence(part[fine.relation_matrix])
    return Scheme(M, domain=fine.domain, check=check)


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
