"""Shared builders for the test corpus.

The corpus is eleven small graphs (at most 5 vertices, no sources, no
sinks) chosen to cover the structural cases the theory distinguishes:
single-vertex multi-loop, non-transitive loop chains, plain cycles of
several lengths, cycles with parallel edges, and a transitive non-cycle.

It also holds the slow references that fast paths in wck are tested
against: the dense full-length closure loop, the randomized central
decomposition on full blocks, the concrete stage algebra
of a tower, the multiplicity matrix of an embedding read off corner
ranks, the per-pair loop of the fiber multiplicities, the
linear-algebra search for invariant families, the corner ideal of a
summand subset built and verified as one subspace, the stage ideals
gathered from path conjugates, and the cubic cover search of a
lattice.
"""

from itertools import combinations

import numpy as np

from wck.errors import (
    ClosureOverflowError,
    DecompositionError,
    MultiplicityError,
    WindowUnstableError,
)
from wck.findim import (
    CentralDecomposition,
    StarAlgebra,
    Summand,
    _cluster_eigenvalues,
    _summand_sort_key,
    blocks_add,
    blocks_eye,
    blocks_unvec,
    blocks_vec,
    blocks_zero,
    star_closure,
)
from wck.graphs import Edge, Graph, Path
from wck.ideals import IdealFamily, _parallel_edge_pairs, pi_map
from wck.windows import RANK_TOL, onb, span_contains, span_residual

INT_TOL = 1e-4
MAX_RESAMPLE = 8


def blocks_mul(a, b):
    return [x @ y for x, y in zip(a, b)]


def blocks_adj(a):
    return [np.swapaxes(x.conj(), -1, -2) for x in a]


def blocks_scale(alpha, a):
    return [alpha * x for x in a]


def blocks_norm(a):
    return max((float(np.linalg.norm(x, 2)) for x in a if x.size), default=0.0)


def mkgraph(vertices, edges):
    return Graph(vertices, [Edge(*e) for e in edges])


def cycle_graph(k):
    vs = ["v%d" % (i + 1) for i in range(k)]
    es = [("e%d" % (i + 1), vs[i], vs[(i + 1) % k]) for i in range(k)]
    return mkgraph(vs, es)


def corpus_graphs():
    graphs = {}
    graphs["O2"] = mkgraph(["v"], [("e", "v", "v"), ("f", "v", "v")])
    graphs["G2"] = mkgraph(
        ["v1", "v2"],
        [("l1", "v1", "v1"), ("l2", "v2", "v2"), ("a", "v1", "v2")],
    )
    graphs["C2"] = cycle_graph(2)
    graphs["C3"] = cycle_graph(3)
    graphs["C4"] = cycle_graph(4)
    graphs["C5"] = cycle_graph(5)
    graphs["P2"] = mkgraph(
        ["v1", "v2"],
        [("c", "v1", "v2"), ("d", "v2", "v1"), ("d2", "v2", "v1")],
    )
    graphs["theta"] = mkgraph(
        ["v1", "v2"],
        [("a", "v1", "v2"), ("b", "v1", "v2"), ("c", "v2", "v1"), ("d", "v2", "v1")],
    )
    graphs["C3chord"] = mkgraph(
        ["v1", "v2", "v3"],
        [
            ("e1", "v1", "v2"),
            ("e2", "v2", "v3"),
            ("e3", "v3", "v1"),
            ("f", "v1", "v2"),
        ],
    )
    graphs["G3"] = mkgraph(
        ["v1", "v2", "v3"],
        [
            ("l1", "v1", "v1"),
            ("l2", "v2", "v2"),
            ("l3", "v3", "v3"),
            ("a", "v1", "v2"),
            ("b", "v2", "v3"),
        ],
    )
    graphs["chain13"] = mkgraph(
        ["v1", "v2", "v3"],
        [
            ("l1", "v1", "v1"),
            ("a", "v1", "v2"),
            ("b", "v2", "v3"),
            ("l3", "v3", "v3"),
        ],
    )
    return graphs


def cycle_weight_doc(t, p=2, N=0):
    """Weights document for a cycle: edge e_i carries value t[i-1] at level 1."""
    level1 = {"e%d" % (i + 1): float(t[i]) for i in range(len(t))}
    levels = {str(k): (level1 if k == 1 else {}) for k in range(1, N + p)}
    return {"kind": "diagonal", "p": p, "N": N, "levels": levels}


def cycle_weight_spec(g, t, p=2, N=0):
    from wck import weights

    return weights.from_dict(cycle_weight_doc(t, p=p, N=N), g)


def random_diag_spec(g, p, N, rng):
    from wck.weights import WeightSpec

    seeds = {k: rng.uniform(0.5, 2.0, g.level_dim(k)) for k in range(1, N + p)}
    return WeightSpec(g, "diagonal", p, N, seeds)


def _dense_absorb(onb_mat, vec, tol=RANK_TOL, floor=1e-9):
    """Extend an orthonormal row basis by one vector, or return None."""
    scale = float(np.linalg.norm(vec))
    if scale <= floor:
        return None
    w = vec.astype(np.complex128, copy=True)
    for _ in range(2):
        if onb_mat.shape[0]:
            w = w - onb_mat.T @ (onb_mat.conj() @ w)
    resid = float(np.linalg.norm(w))
    if resid <= tol * scale:
        return None
    return np.vstack([onb_mat, (w / resid)[None, :]])


def dense_star_closure(dims, gens, unit=None, max_dim=4096):
    """star_closure on full-length vectors: the reference for the fast path.

    Same candidate order, rank cut and floor as findim.star_closure, but
    every candidate is projected at the full ambient length.
    """
    dims = tuple(dims)
    if unit is None:
        unit = blocks_eye(dims)
    pool = [unit]
    for gen in gens:
        pool.append(gen)
        pool.append(blocks_adj(gen))
    basis = []
    basis_onb = np.zeros((0, sum(d * d for d in dims)), dtype=np.complex128)
    fresh = []

    def absorb(cand):
        vec = blocks_vec(cand)
        extended = _dense_absorb(basis_onb, vec)
        if extended is None:
            return None
        scaled = blocks_scale(1.0 / float(np.linalg.norm(vec)), cand)
        basis.append(scaled)
        return extended, scaled

    for cand in pool:
        hit = absorb(cand)
        if hit is None:
            continue
        basis_onb, scaled = hit
        fresh.append(scaled)
    while fresh:
        new = []
        for a in fresh:
            for b in list(basis):
                for cand in (blocks_mul(a, b), blocks_mul(b, a)):
                    hit = absorb(cand)
                    if hit is None:
                        continue
                    basis_onb, scaled = hit
                    new.append(scaled)
                    if len(basis) > max_dim:
                        raise ClosureOverflowError(
                            "closure exceeded %d dimensions" % max_dim
                        )
        fresh = new
    return StarAlgebra(dims, basis, basis_onb, unit)


# -- the randomized central decomposition ---------------------------------------


def _random_hermitian(A, rng):
    """Random self-adjoint element spread over the whole basis."""
    x = A.element(rng.normal(size=A.dim) + 1j * rng.normal(size=A.dim))
    return blocks_scale(0.5, blocks_add(x, blocks_adj(x)))


def _dense_center_basis(A):
    """Hermitian basis of the center, from the Gram matrix of commutators."""
    d = A.dim
    if d == 0:
        return []
    length = sum(k * k for k in A.dims)
    gram = np.zeros((d, d), dtype=np.complex128)
    for bj in A.basis:
        rows = np.empty((d, length), dtype=np.complex128)
        for i, bi in enumerate(A.basis):
            comm = blocks_add(blocks_mul(bi, bj), blocks_mul(bj, bi), -1.0)
            rows[i] = blocks_vec(comm)
        gram += rows.conj() @ rows.T
    vals, vecs = np.linalg.eigh(gram)
    cut = 1e-10 * max(1.0, float(vals[-1]))
    candidates = []
    for i in range(d):
        if vals[i] > cut:
            continue
        x = A.element(vecs[:, i])
        candidates.append(blocks_scale(0.5, blocks_add(x, blocks_adj(x))))
        candidates.append(blocks_scale(-0.5j, blocks_add(x, blocks_adj(x), -1.0)))
    if not candidates:
        return []
    # orthonormalize over the reals so the output stays hermitian
    reals = np.array(
        [np.concatenate([blocks_vec(c).real, blocks_vec(c).imag]) for c in candidates]
    )
    sv, vh = np.linalg.svd(reals, full_matrices=False)[1:]
    if sv.size == 0 or sv[0] == 0.0:
        return []
    rank = int(np.sum(sv > 1e-8 * sv[0]))
    return [blocks_unvec(row[:length] + 1j * row[length:], A.dims) for row in vh[:rank]]


def _spectral_projections(y):
    """Projections onto global eigenvalue clusters of a hermitian element."""
    pairs = [np.linalg.eigh(blk) for blk in y]
    flat = np.concatenate([vals for vals, _ in pairs]) if pairs else np.zeros(0)
    where = [(lev, k) for lev, (vals, _) in enumerate(pairs) for k in range(vals.size)]
    projections, means = [], []
    for cluster in _cluster_eigenvalues(flat):
        proj = blocks_zero([blk.shape[0] for blk in y])
        for idx in cluster:
            lev, k = where[idx]
            vec = pairs[lev][1][:, k]
            proj[lev] = proj[lev] + np.outer(vec, vec.conj())
        projections.append(proj)
        means.append(float(np.mean(flat[cluster])))
    return projections, means


def _corner_dim(A, f):
    rows = [blocks_vec(blocks_mul(blocks_mul(f, b), f)) for b in A.basis]
    return onb(np.array(rows)).shape[0]


def _dense_minimal_projection(A, summand, rng):
    """Projection f in the summand with dim(fAf) = 1, from random elements."""
    if summand.d == 1:
        return summand.projection
    proj = summand.projection
    for _ in range(MAX_RESAMPLE):
        y = blocks_mul(blocks_mul(proj, _random_hermitian(A, rng)), proj)
        y = blocks_scale(0.5, blocks_add(y, blocks_adj(y)))
        nrm = blocks_norm(y)
        if nrm == 0:
            continue
        y = blocks_add(blocks_scale(1.0 / nrm, y), proj, 3.0)
        projections, means = _spectral_projections(y)
        candidates = [p for p, m in zip(projections, means) if abs(m) > 1.0]
        if len(candidates) != summand.d:
            continue
        f = candidates[0]
        if A.contains(f, 100 * RANK_TOL) and _corner_dim(A, f) == 1:
            return f
    raise DecompositionError("no generic corner element produced a minimal projection")


def dense_central_decomposition(A, seed=0):
    """central_decomposition by random central elements on full blocks.

    The eigenvalue clusters of a generic self-adjoint central element
    give the central projections. Each attempt is certified (cluster
    count equals the center dimension, projections lie in the algebra,
    summand dimensions are integers and sum to the algebra dimension)
    and a failure resamples, up to MAX_RESAMPLE times.
    """
    rng = np.random.default_rng(seed)
    center = _dense_center_basis(A)
    s = len(center)
    if s == 0:
        raise DecompositionError("algebra has no central elements")
    shift = 3.0
    for _ in range(MAX_RESAMPLE):
        y = blocks_zero(A.dims)
        for c, b in zip(rng.normal(size=s), center):
            y = blocks_add(y, b, c)
        nrm = blocks_norm(y)
        if nrm == 0 and s > 1:
            continue
        if nrm > 0:
            y = blocks_scale(1.0 / nrm, y)
        projections, means = _spectral_projections(blocks_add(y, A.unit, shift))
        clusters = [p for p, m in zip(projections, means) if abs(m) > shift / 2]
        if len(clusters) != s:
            continue
        summands = []
        for proj in clusters:
            if not A.contains(proj, 100 * RANK_TOL):
                break
            corner_dim = _corner_dim(A, proj)
            d = int(round(np.sqrt(corner_dim)))
            ambient_rank = int(round(sum(np.trace(b).real for b in proj)))
            if abs(d * d - corner_dim) > INT_TOL or d == 0 or ambient_rank % d:
                break
            summands.append(Summand(0, proj, d, ambient_rank, None))
        if len(summands) != s or sum(sm.d ** 2 for sm in summands) != A.dim:
            continue
        total = blocks_zero(A.dims)
        for sm in summands:
            total = blocks_add(total, sm.projection)
        if not np.allclose(blocks_vec(total), blocks_vec(A.unit), atol=1e-7):
            continue
        summands.sort(key=_summand_sort_key)
        for i, sm in enumerate(summands):
            sm.index = i
            sm.minimal_projection = _dense_minimal_projection(A, sm, rng)
        return CentralDecomposition(algebra=A, summands=summands)
    raise DecompositionError(
        "no generic central element produced a certified decomposition"
    )


def assert_matches_oracle(dec):
    """dec agrees with dense_central_decomposition of its algebra.

    Sizes, ambient ranks and central projections must agree summand by
    summand, order included. Minimal projections are not unique, so
    each is certified instead: a self-adjoint idempotent in the algebra
    with dim(fAf) = 1, of ambient rank the summand's multiplicity.
    """
    A = dec.algebra
    ref = dense_central_decomposition(A)
    assert [(s.d, s.ambient_rank) for s in dec.summands] == [
        (s.d, s.ambient_rank) for s in ref.summands
    ]
    for sm, rm in zip(dec.summands, ref.summands):
        assert np.allclose(
            blocks_vec(sm.projection), blocks_vec(rm.projection), atol=1e-7
        )
        f = sm.minimal_projection
        assert blocks_rank(f) == sm.multiplicity
        assert A.contains(f)
        assert np.allclose(blocks_vec(blocks_mul(f, f)), blocks_vec(f), atol=1e-8)
        assert np.allclose(blocks_vec(blocks_adj(f)), blocks_vec(f), atol=1e-8)
        assert _corner_dim(A, f) == 1


def concrete_stage_algebra(tower, n):
    """The stage algebra as a plain StarAlgebra on the top window.

    Used to cross-check the structural construction against the generic
    finite-dimensional machinery.
    """
    g = tower.graph
    dims = [g.level_dim(k) for k in range(tower.M, tower.M + tower.W)]
    gens = []
    for v in range(g.n_vertices):
        m = tower.stages[n].counts[v]
        r = tower.corners[v].r
        for a in range(m):
            for b in range(a, m):
                for t in range(r):
                    x = tower.stage_zero(n)
                    x[v][a, b, t] = 1.0
                    gens.append(tower.tau_inverse(n, x))
    return star_closure(dims, gens)


# -- finite-dimensional references ---------------------------------------------


def blocks_rank(a, tol=RANK_TOL):
    total = 0
    for x in a:
        if x.size == 0:
            continue
        s = np.linalg.svd(x, compute_uv=False)
        if s.size and s[0] > 0:
            total += int(np.sum(s > tol * max(1.0, s[0])))
    return total


def dimension_adds_up(dec):
    """Whether the summand sizes of a decomposition account for its algebra."""
    return sum(s.d ** 2 for s in dec.summands) == dec.algebra.dim


def embedding_multiplicities(dec_a, dec_b, phi, samples=12, seed=0, tol=RANK_TOL):
    """Multiplicity matrix of a unital *-homomorphism phi: A -> B.

    phi is applied to block elements of A and must land in B. The entry
    m[i][j] counts how often summand i of A sits inside summand j of B:
    the corner of B over phi(minimal projection of summand i), cut to
    summand j, is a full matrix algebra of size m[i][j].
    """
    A, B = dec_a.algebra, dec_b.algebra
    rng = np.random.default_rng(seed)

    image_unit = phi(A.unit)
    if not np.allclose(blocks_vec(image_unit), blocks_vec(B.unit), atol=1e-8):
        raise MultiplicityError("map is not unital")
    for _ in range(samples):
        ca = rng.normal(size=A.dim) + 1j * rng.normal(size=A.dim)
        cb = rng.normal(size=A.dim) + 1j * rng.normal(size=A.dim)
        x, y = A.element(ca), A.element(cb)
        lhs = phi(blocks_mul(x, y))
        rhs = blocks_mul(phi(x), phi(y))
        if np.linalg.norm(blocks_vec(lhs) - blocks_vec(rhs)) > 1e-8 * max(
            1.0, np.linalg.norm(blocks_vec(lhs))
        ):
            raise MultiplicityError("map is not multiplicative")
        star = phi(blocks_adj(x))
        if np.linalg.norm(
            blocks_vec(star) - blocks_vec(blocks_adj(phi(x)))
        ) > 1e-8 * max(1.0, np.linalg.norm(blocks_vec(star))):
            raise MultiplicityError("map is not star-preserving")
        if not B.contains(phi(x), 100 * tol):
            raise MultiplicityError("image leaves the target algebra")

    m = np.zeros((len(dec_a.summands), len(dec_b.summands)), dtype=int)
    for i, sa in enumerate(dec_a.summands):
        q = phi(sa.minimal_projection)
        for j, sb in enumerate(dec_b.summands):
            zq = blocks_mul(sb.projection, q)
            rows = np.array([
                blocks_vec(blocks_mul(blocks_mul(zq, b), blocks_adj(zq)))
                for b in B.basis
            ])
            # absolute floor on the rank cut: a zero compression leaves
            # pure roundoff rows and a relative cut would count them
            sing = np.linalg.svd(rows, compute_uv=False)
            corner_dim = int(np.sum(sing > tol * max(1.0, sing[0])))
            mij = int(round(np.sqrt(corner_dim)))
            if abs(mij * mij - corner_dim) > INT_TOL:
                raise MultiplicityError(
                    "corner dimension %d of summand pair (%d, %d) is not a "
                    "perfect square" % (corner_dim, i, j)
                )
            m[i, j] = mij
    # column sums against the target summand sizes
    for j, sb in enumerate(dec_b.summands):
        got = int(sum(m[i, j] * dec_a.summands[i].d for i in range(m.shape[0])))
        if got != sb.d:
            raise MultiplicityError(
                "multiplicity column %d sums to %d, expected %d"
                % (j, got, sb.d)
            )
    return m


def pairwise_fiber_multiplicities(tower, mu, fib):
    """Integer multiplicity block of one fiber map, one summand pair at a time.

    The loop that tower._fiber_multiplicities stacks, kept as its
    reference. Entry (i, j): how often summand i of the corner at r(mu)
    appears in summand j of the corner at s(mu)) under the fiber.
    Computed as the square root of the dimension of the compressed
    corner, which is insensitive to the scalar the fiber puts on
    minimal projections.
    """
    g = tower.graph
    v = g.source_of(mu)
    w = g.range_of(mu)
    cv = tower.corners[v]
    cw = tower.corners[w]
    out = np.zeros((len(cw.dec.summands), len(cv.dec.summands)), dtype=int)
    for i, sw in enumerate(cw.dec.summands):
        fi = cw.coords(sw.minimal_projection)
        y = fib @ fi
        yy = cv.mul_coords(y, y)
        if np.linalg.norm(yy - y) > 1e-6 * max(1.0, np.linalg.norm(y)):
            raise MultiplicityError(
                "fiber along %s does not send minimal projections to "
                "projections" % g.path_str(mu)
            )
        for j, sv in enumerate(cv.dec.summands):
            zj = cv.coords(sv.projection)
            zy = cv.mul_coords(zj, y)
            yz = cv.mul_coords(y, zj)
            rows = [
                cv.mul_coords(zy, cv.mul_coords(e, yz))
                for e in np.eye(cv.r, dtype=np.complex128)
            ]
            # absolute floor on the rank cut: when the compression is zero
            # the rows are pure roundoff and a relative cut would count them
            sing = np.linalg.svd(np.array(rows), compute_uv=False)
            rank = int(np.sum(sing > 1e-8 * max(1.0, sing[0])))
            mult = int(round(np.sqrt(rank)))
            if mult * mult != rank:
                raise MultiplicityError(
                    "corner dimension %d along %s is not a perfect square"
                    % (rank, g.path_str(mu))
                )
            out[i, j] = mult
    return out


# -- the linear-algebra lattice search -------------------------------------------


def dense_ideal_subspace(tower, v, subset, tol=RANK_TOL):
    """Corner ideal of a summand subset, built and verified as one span.

    The span of the corner times the sum of the chosen central
    projections, with its dimension, adjoint closure and two-sided
    closure checked on the whole subspace.
    """
    corner = tower.corners[v]
    summands = corner.dec.summands
    if not subset:
        return np.zeros((0, corner.r), dtype=np.complex128)
    z = sum(corner.coords(summands[i].projection) for i in subset)
    basis = onb(np.einsum("i,ijk->jk", z, corner.T), tol)
    if basis.shape[0] != sum(summands[i].d ** 2 for i in subset):
        raise WindowUnstableError("ideal dimension off the summand sizes")
    adjoints = np.conj(basis) @ corner.S
    if not _rows_in_span(adjoints, basis, tol):
        raise WindowUnstableError("ideal is not adjoint-closed")
    left = np.einsum("ul,jlk->ujk", basis, corner.T).reshape(-1, corner.r)
    right = np.einsum("ul,ljk->ujk", basis, corner.T).reshape(-1, corner.r)
    if not (_rows_in_span(left, basis, tol) and _rows_in_span(right, basis, tol)):
        raise WindowUnstableError("ideal is not two-sided")
    return basis


def _rows_in_span(rows, basis, tol):
    """Whether every row lies in the span of an orthonormal basis (in_span)."""
    off = np.linalg.norm(rows - (rows @ basis.conj().T) @ basis, axis=1)
    return bool(np.all(off <= tol * np.maximum(1.0, np.linalg.norm(rows, axis=1))))


def _transport(tower, e, f):
    g = tower.graph
    return pi_map(tower, Path((e,), g.esrc[e]), Path((f,), g.esrc[f]))


def _maps_into(mat, dom, cod, tol=RANK_TOL):
    """Whether mat sends every row of the ideal basis dom into span cod."""
    for row in dom:
        img = mat @ row
        if span_residual(img, cod) > tol * max(1.0, float(np.linalg.norm(img))):
            return False
    return True


def dense_check_H(tower, family, tol=RANK_TOL):
    """Transport invariance, tested on the family's corner ideal subspaces."""
    g = tower.graph
    subs = [
        dense_ideal_subspace(tower, v, family.choices[v], tol)
        for v in range(g.n_vertices)
    ]
    return all(
        _maps_into(_transport(tower, e, f), subs[g.edst[e]], subs[g.esrc[e]], tol)
        for e, f in _parallel_edge_pairs(g)
    )


def _null_rows(mat, tol=RANK_TOL):
    """Orthonormal rows spanning the right null space of mat."""
    if mat.shape[0] == 0:
        return np.eye(mat.shape[1], dtype=np.complex128)
    s, vh = np.linalg.svd(mat)[1:]
    rank = int(np.sum(s > tol * max(1.0, float(s[0]))))
    return vh[rank:].conj()


def dense_check_S(tower, family, tol=RANK_TOL):
    """Transport closure by the fixed-point loop on corner subspaces.

    I_0(v) is the ideal at v and I_{k+1}(v) intersects the fiber
    preimages of I_k at the walk starts of the length-p paths ending at
    v. The family is closed when no I_k leaves it; the loop stops at
    the first repeated subspace tuple.
    """
    g = tower.graph
    nv = g.n_vertices
    subs = [
        dense_ideal_subspace(tower, v, family.choices[v], tol)
        for v in range(nv)
    ]
    steps = {v: [] for v in range(nv)}
    for mi, mu in enumerate(g.paths(tower.p)):
        steps[g.range_of(mu)].append((tower.fibers[mi], g.source_of(mu)))
    cur = subs
    for _ in range(sum(tower.corners[v].r for v in range(nv)) + 1):
        nxt = []
        for v in range(nv):
            rows = [
                fib - cur[src].T @ (cur[src].conj() @ fib)
                for fib, src in steps[v]
            ]
            if rows:
                nxt.append(_null_rows(np.concatenate(rows, axis=0), tol))
            else:
                nxt.append(np.eye(tower.corners[v].r, dtype=np.complex128))
        if not all(span_contains(subs[v], nxt[v], tol) for v in range(nv)):
            return False
        if all(
            nxt[v].shape[0] == cur[v].shape[0]
            and span_contains(cur[v], nxt[v], tol)
            for v in range(nv)
        ):
            return True
        cur = nxt
    raise AssertionError("transported-ideal spaces never stabilized")


def dense_enumerate_families(tower, tol=RANK_TOL):
    """Families passing dense_check_H and dense_check_S, by backtracking.

    Every subset of corner summands is tried vertex by vertex, pruned by
    the transport pairs whose ends are both assigned.
    """
    g = tower.graph
    nv = g.n_vertices
    counts = [len(tower.corners[v].dec.summands) for v in range(nv)]
    subsets = [
        [frozenset(c) for r in range(s + 1) for c in combinations(range(s), r)]
        for s in counts
    ]
    memo = {}

    def sub(v, c):
        if (v, c) not in memo:
            memo[(v, c)] = dense_ideal_subspace(tower, v, c, tol)
        return memo[(v, c)]

    groups = [[] for _ in range(nv)]
    for e, f in _parallel_edge_pairs(g):
        groups[max(g.edst[e], g.esrc[e])].append((e, _transport(tower, e, f)))

    found = []
    choice = [None] * nv

    def assign(k):
        if k == nv:
            found.append(IdealFamily(tuple(choice), counts))
            return
        for c in subsets[k]:
            choice[k] = c
            if all(
                _maps_into(
                    mat,
                    sub(g.edst[e], choice[g.edst[e]]),
                    sub(g.esrc[e], choice[g.esrc[e]]),
                    tol,
                )
                for e, mat in groups[k]
            ):
                assign(k + 1)
        choice[k] = None

    assign(0)
    return [fam for fam in found if dense_check_S(tower, fam, tol)]


# -- stage ideals and lattice covers ---------------------------------------------


def shift_pair(tower, n, x, delta, gamma):
    """Exact stage coordinates of u_delta x u_gamma^* for stage-n x.

    The conjugating paths must share a length divisible by the period;
    the result is a structural element len/p stages up. Slot paths
    that do not concatenate with the conjugating paths contribute
    nothing.
    """
    g = tower.graph
    m = n + len(delta) // tower.p
    length = n * tower.p + tower.q
    out = tower.stage_zero(m)
    for v, blk in x.items():
        src = tower.stages[n].paths[v]
        dst_d = g.prepend_index(length, delta)[src]
        dst_g = g.prepend_index(length, gamma)[src]
        rows_d = np.flatnonzero(dst_d >= 0)
        rows_g = np.flatnonzero(dst_g >= 0)
        hi = tower.stages[m].paths[v]
        pos_d = np.searchsorted(hi, dst_d[rows_d])
        pos_g = np.searchsorted(hi, dst_g[rows_g])
        out[v][np.ix_(pos_d, pos_g)] = blk[np.ix_(rows_d, rows_g)]
    return out


def dense_ideal_chain(tower, family, n, tol=RANK_TOL):
    """Stage bases 0..n of the invariant ideal, gathered from conjugates.

    Stage m is the span of u_delta x u_gamma^* over every pair of
    length-m p paths and every stage-0 seed x, which holds one row of
    the corner ideal in one block entry; its dimension must match the
    summand pattern.
    """
    g = tower.graph
    seeds = []
    for w in range(g.n_vertices):
        m = tower.stages[0].counts[w]
        for row in dense_ideal_subspace(tower, w, family.choices[w], tol):
            for a in range(m):
                for b in range(m):
                    x = tower.stage_zero(0)
                    x[w][a, b] = row
                    seeds.append(x)
    chain = []
    for m in range(n + 1):
        paths = g.paths(m * tower.p)
        if m == 0:
            gathered = [tower.stage_vec(0, x) for x in seeds]
        else:
            gathered = [
                tower.stage_vec(m, shift_pair(tower, 0, x, delta, gamma))
                for delta in paths
                for gamma in paths
                for x in seeds
            ]
        basis = onb(np.array(gathered), tol) if gathered else np.zeros(
            (0, tower.stages[m].dim), dtype=np.complex128
        )
        expected = sum(
            tower.stages[m].counts[v] ** 2
            * sum(tower.corners[v].dec.summands[i].d ** 2 for i in family.choices[v])
            for v in range(g.n_vertices)
        )
        if basis.shape[0] != expected:
            raise WindowUnstableError("stage-%d ideal off the summand pattern" % m)
        chain.append(basis)
    return chain


def dense_hasse_edges(lattice):
    """Cover pairs (i, j) of a lattice by testing every triple."""
    fams = lattice.families
    n = len(fams)
    edges = []
    for i in range(n):
        for j in range(n):
            if i == j or not fams[i].leq(fams[j]):
                continue
            if not any(
                k not in (i, j) and fams[i].leq(fams[k]) and fams[k].leq(fams[j])
                for k in range(n)
            ):
                edges.append((i, j))
    return edges
