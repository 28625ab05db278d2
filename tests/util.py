"""Shared builders for the test corpus.

The corpus is eleven small graphs (at most 5 vertices, no sources, no
sinks) chosen to cover the structural cases the theory distinguishes:
single-vertex multi-loop, non-transitive loop chains, plain cycles of
several lengths, cycles with parallel edges, and a transitive non-cycle.

It also holds the slow references that fast paths in wck are tested
against: the stage-zero generators as dense window blocks, the listed
generators of diagonal weights (the reference for C0's layout read off
the paths, once star_closure lays them out), the dense
full-length closure loop, the closure on every support class block
(copies included), the randomized central decomposition on full blocks,
the concrete stage algebra of a tower, the multiplicity matrix of an
embedding read off corner ranks, the per-pair loop of the fiber
multiplicities, the per-summand-pair loop of the transport edges, the
per-basis-element transport and its per-level gathers, the per-entry tau
and tau_inverse loops, the dense restricted, tau and tau_inverse on all
window columns and the (m, m, L) window index they read (from window
rows read off the path tables, not off a Placement), the
re-verification of an invariant ideal one
chain row and one render at a time, the linear-algebra search for
invariant families, the corner ideal of a summand subset built and
verified as one subspace, the stage ideals gathered from path
conjugates, the cubic cover search of a lattice, the truncated Fock
representation as sparse operators with its relations checked by sparse
products, the per-word window matrix and the inline I_p (x) Z_k
extension of the level matrices.

Small path, weight, stage and norm helpers that only tests use live
here too: path composition, the prefix gather read off a dict over the
path list, and the adjacency matrix, the path isometry
u_a, the weight entries read off by stripping periods, the corner
product and the stage unit, product and adjoint in corner coordinates,
and equality modulo the compacts.

wck stores an algebra only as orthonormal rows over the distinct
entries of its support, with the map of those entries to their copies,
and its elements as coordinates over the rows. full_rows scatters the
rows to full length, and dense_algebra wraps full-length rows in the
same form, one whole block per level; the block-list helpers here
(element, basis_elements, contains, coords) move between the two for
the references, which work on full blocks.
"""

import functools
import importlib.util
import pathlib
from itertools import combinations

import numpy as np
import scipy.sparse as sp

from wck import elements as el
from wck.elements import word_offset
from wck.errors import (
    ClosureOverflowError,
    DecompositionError,
    DomainError,
    GraphError,
    MultiplicityError,
    WeightError,
    WindowUnstableError,
)
from wck.findim import (
    CLUSTER_GAP,
    CentralDecomposition,
    StarAlgebra,
    Summand,
    _enumerated_layout,
    _summand_order,
    _support_layout,
    blocks_unvec,
    blocks_vec,
    star_closure,
)
from wck.graphs import Edge, Graph, Path
from wck.ideals import (
    IdealFamily,
    VerificationReport,
    _parallel_edge_pairs,
    _placed,
    ideal_subspace,
    pi_map,
)
from wck.tower import COORD_TOL, Z_POWERS
from wck.windows import (
    NORM_TOL,
    RANK_TOL,
    calkin_norm,
    in_span,
    level_dim,
    onb,
    span_intersect,
    span_residual,
    word_matrix,
)

INT_TOL = 1e-4
MAX_RESAMPLE = 8


def blocks_eye(dims):
    return [np.eye(d, dtype=np.complex128) for d in dims]


def blocks_zero(dims):
    return [np.zeros((d, d), dtype=np.complex128) for d in dims]


def blocks_add(a, b, alpha=1.0):
    return [x + alpha * y for x, y in zip(a, b)]


def blocks_mul(a, b):
    return [x @ y for x, y in zip(a, b)]


def blocks_adj(a):
    return [np.swapaxes(x.conj(), -1, -2) for x in a]


def blocks_scale(alpha, a):
    return [alpha * x for x in a]


def blocks_norm(a):
    return max((float(np.linalg.norm(x, 2)) for x in a if x.size), default=0.0)


def full_rows(A):
    """The rows of A at full length, each the blocks_vec of a basis element.

    Each distinct entry is written, divided by the root of its copy
    count, to every copy of it in one scatter.
    """
    rows = A.rows_at(np.arange(len(A.copies))) / np.sqrt(A.copies)
    full = np.zeros((A.dim, sum(d * d for d in A.dims)), dtype=np.complex128)
    full[:, A.pos] = rows[:, A.copy]
    return full


def dense_algebra(dims, rows, unit):
    """The algebra of orthonormal full-length rows, one whole block per level.

    Every position is a distinct entry of its own, so the map is the
    identity; unit holds the unit's coordinates.
    """
    dims = tuple(dims)
    starts = np.cumsum([0] + [d * d for d in dims])
    stacks = [(int(off), 1, d) for off, d in zip(starts, dims) if d]
    every = np.arange(starts[-1])
    return StarAlgebra(
        dims, unit, stacks, every, every, np.ones(starts[-1], dtype=int), rows
    )


def element(A, coeffs):
    """Blocks of the element of A with coordinates coeffs.

    Summed one basis element at a time: the loop reference for
    StarAlgebra.render.
    """
    out = blocks_zero(A.dims)
    for c, row in zip(coeffs, full_rows(A)):
        out = blocks_add(out, blocks_unvec(row, A.dims), c)
    return out


def basis_elements(A):
    """The orthonormal basis of A as block elements."""
    return [blocks_unvec(row, A.dims) for row in full_rows(A)]


def coords(A, x):
    """Coordinates of the block element x over the rows of A."""
    return full_rows(A).conj() @ blocks_vec(x)


def contains(A, x, tol=RANK_TOL):
    return in_span(blocks_vec(x), full_rows(A), tol)


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


def load_workloads():
    """The benchmark's input generators, loaded from perfbench/workloads.py."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("wck_bench_workloads", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


# theta with a 2x2 block on the v1 -> v2 class at level 1
THETA_BLOCK = {
    "kind": "block",
    "p": 2,
    "N": 0,
    "levels": {"1": {"v1:v2": [[2.0, 1.0], [1.0, 2.0]]}},
}


# O2 with one level-1 block on v:v, p=2, N=0: C0 of dim 12 takes the general
# route, and its corner splits into 3 summands of size d = 1
O2_BLOCK_N0 = {
    "kind": "block",
    "p": 2,
    "N": 0,
    "levels": {"1": {"v:v": [[2.0, 1.0], [1.0, 2.0]]}},
}


# O2 with block weights, p=2, N=1: the level-1 block of O2_BLOCK_N0 and
# its Kronecker product with [[3, 1], [1, 1]] at level 2. C0 of dim 64
# takes the general route, and its corner splits into 4 summands of size
# d = 2
O2_BLOCK_D2 = {
    "kind": "block",
    "p": 2,
    "N": 1,
    "levels": {
        "1": {"v:v": [[2.0, 1.0], [1.0, 2.0]]},
        "2": {
            "v:v": [
                [6.0, 2.0, 3.0, 1.0],
                [2.0, 2.0, 1.0, 1.0],
                [3.0, 1.0, 6.0, 2.0],
                [1.0, 1.0, 2.0, 2.0],
            ]
        },
    },
}


# O2 with block weights, p=2, N=1; each block is a @ a.T + n * I for a
# normal n x n draw, rounded to 3 decimals. Its corner splits into two
# summands of size d = 4, so its fibers meet d > 1.
O2_BLOCK = {
    "kind": "block",
    "p": 2,
    "N": 1,
    "levels": {
        "1": {"v:v": [[12.697, 2.304], [2.304, 2.497]]},
        "2": {
            "v:v": [
                [8.386, -0.699, 2.493, -2.055],
                [-0.699, 15.966, -2.077, -0.923],
                [2.493, -2.077, 5.791, -0.909],
                [-2.055, -0.923, -0.909, 5.246],
            ]
        },
    },
}


# P2 with symmetric positive block weights, p=2, N=1. C0 of dim 30 takes
# the general route, and each corner splits into summands of sizes d = 1,
# 1 and 2, the first general-route corners with d = 1 and d = 2 in one
# corner; the multiplicity matrix is 2 I, so no edge joins d_i != d_j
P2_BLOCK = {
    "kind": "block",
    "p": 2,
    "N": 1,
    "levels": {
        "1": {
            "v1:v2": [[1.016]],
            "v2:v1": [[2.428, -0.357], [-0.357, 2.298]],
        },
        "2": {
            "v2:v2": [[3.831, -0.575], [-0.575, 3.392]],
            "v1:v1": [[3.99, 1.397], [1.397, 7.407]],
        },
    },
}


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


def entries_of(elements):
    """Block elements as star_closure takes them: (positions, values).

    One pair per element: the positions in blocks_vec of its nonzero
    entries, and those entries.
    """
    out = []
    for x in elements:
        vec = blocks_vec(x)
        pos = np.flatnonzero(vec)
        out.append((pos, vec[pos]))
    return out


def dense_c0_generators(graph, weights, levels):
    """Window blocks of the stage-zero generators, as dense d x d blocks.

    The reference for tower._c0_generators: the same words
    u_a Z^j u_b^*, in the same order, written into zero blocks through
    level_matrix and matrix_power.
    """
    g = graph
    gens = []
    dims = [g.level_dim(k) for k in levels]
    for a in range(weights.p):
        zpow = [
            [
                np.linalg.matrix_power(weights.level_matrix(k - a), power)
                for power in range(Z_POWERS)
            ]
            for k in levels
        ]
        by_source = {}
        for pth in g.paths(a):
            by_source.setdefault(pth.source, []).append(pth)
        for v, group in by_source.items():
            tails = [g.ending_at(k - a, v) for k in levels]
            rows = [
                [prepend_gather(g, k - a, pth)[t] for pth in group]
                for k, t in zip(levels, tails)
            ]
            for ai in range(len(group)):
                for bi in range(len(group)):
                    for power in range(Z_POWERS):
                        blocks = blocks_zero(dims)
                        for li, t in enumerate(tails):
                            blocks[li][
                                np.ix_(rows[li][ai], rows[li][bi])
                            ] = zpow[li][power][np.ix_(t, t)]
                        gens.append(blocks)
    return gens


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
    """The generated algebra by a product-closure loop on full-length vectors.

    The reference for findim.star_closure: products of the orthonormal
    rows, as block elements, projected at the full ambient length one
    candidate at a time, with the rank cut RANK_TOL and a 1e-9 floor,
    until a round adds nothing.
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

    def absorb(cand):
        nonlocal basis_onb
        extended = _dense_absorb(basis_onb, blocks_vec(cand))
        if extended is None:
            return []
        basis_onb = extended
        basis.append(blocks_unvec(extended[-1], dims))
        if len(basis) > max_dim:
            raise ClosureOverflowError("closure exceeded %d dimensions" % max_dim)
        return [basis[-1]]

    fresh = [x for cand in pool for x in absorb(cand)]
    while fresh:
        new = []
        for a in fresh:
            for b in list(basis):
                for cand in (blocks_mul(a, b), blocks_mul(b, a)):
                    new.extend(absorb(cand))
        fresh = new
    return dense_algebra(dims, basis_onb, basis_onb.conj() @ blocks_vec(unit))


def _stack_products(a, basis, stacks):
    """Products a b and b a for every row b of basis, as an (n, 2, L) block.

    a and the rows of basis are compressed vectors in the layout of
    stacks, multiplied stack by stack.
    """
    n, length = basis.shape
    out = np.empty((n, 2, length), dtype=np.complex128)
    for off, c, s in stacks:
        end = off + c * s * s
        x = a[off:end].reshape(c, s, s)
        y = basis[:, off:end].reshape(n, c, s, s)
        out[:, 0, off:end] = (x @ y).reshape(n, -1)
        out[:, 1, off:end] = (y @ x).reshape(n, -1)
    return out


def support_star_closure(dims, gens, unit=None, max_dim=4096):
    """star_closure on every support class block, copies included.

    The reference for star_closure where the dense loop is too slow:
    the closure loop of dense_star_closure over stacked products, run
    on all class blocks of every level, with the rows scattered back as
    they come out of Gram-Schmidt.
    """
    dims = tuple(dims)
    if unit is None:
        unit = blocks_eye(dims)
    support = blocks_vec(unit) != 0
    for gen in gens:
        support |= blocks_vec(gen) != 0
    stacks, tpos, pos = _support_layout(dims, np.flatnonzero(support))
    pool = [blocks_vec(unit)[pos]]
    for gen in gens:
        pool.append(blocks_vec(gen)[pos])
        pool.append(pool[-1][tpos].conj())
    rows = np.zeros((0, len(pos)), dtype=np.complex128)

    def absorb(cands, tol=RANK_TOL, floor=1e-9):
        nonlocal rows
        scale = np.linalg.norm(cands, axis=1)
        idx = np.flatnonzero(scale > floor)
        w = cands[idx]
        for _ in range(2):
            w -= (w @ rows.conj().T) @ rows
        keep = np.linalg.norm(w, axis=1) > tol * scale[idx]
        start = len(rows)
        for k, vec in zip(idx[keep], w[keep]):
            new = rows[start:]
            for _ in range(2):
                vec -= (new.conj() @ vec) @ new
            resid = float(np.linalg.norm(vec))
            if resid > tol * scale[k]:
                rows = np.vstack([rows, vec / resid])
                if len(rows) > max_dim:
                    raise ClosureOverflowError(
                        "closure exceeded %d dimensions" % max_dim
                    )
        return range(start, len(rows))

    fresh = absorb(np.array(pool, dtype=np.complex128))
    while fresh:
        new = []
        for a in fresh:
            block = _stack_products(rows[a], rows, stacks)
            new.extend(absorb(block.reshape(-1, len(pos))))
        fresh = new
    full = np.zeros((len(rows), len(support)), dtype=np.complex128)
    full[:, pos] = rows
    return dense_algebra(dims, full, full.conj() @ blocks_vec(unit))


def diagonal_c0_generators(graph, weights, levels):
    """Entries of the stage-zero generators for diagonal weights.

    The reference for tower._diagonal_layout, through the layout that
    star_closure reads off them (findim._enumerated_layout):
    the words u_a Z^j u_b^* in the order of tower._c0_generators, each
    (positions, values) on the window, gathered through Graph.prepend
    with level_diag ** j on the tails.
    """
    g = graph
    dims = [g.level_dim(k) for k in levels]
    offsets = np.cumsum([0] + [d * d for d in dims])
    gens = []
    for a in range(weights.p):
        by_source = {}
        for pth in g.paths(a):
            by_source.setdefault(pth.source, []).append(pth)
        for v, group in by_source.items():
            per_level = []
            for k, off, d in zip(levels, offsets, dims):
                diag = weights.level_diag(k - a)[g.ending_at(k - a, v)]
                rows = [g.prepend(k - a, pth) for pth in group]
                per_level.append((off, d, rows, diag))
            for ai in range(len(group)):
                for bi in range(len(group)):
                    for power in range(Z_POWERS):
                        pos = []
                        values = []
                        for off, d, rows, diag in per_level:
                            pos.append(off + rows[ai] * d + rows[bi])
                            values.append(diag ** power)
                        gens.append((np.concatenate(pos), np.concatenate(values)))
    return gens


def scattered_units(dims, gens):
    """The rows of star_closure's closed form, scattered at full length.

    The reference for full_rows on the closed form: gens are (positions,
    values) pairs, laid out as star_closure lays them out, and the matrix
    unit of each distinct entry is written, 1/sqrt(copies), to every copy
    in one scatter, as star_closure did before it kept the map.
    """
    _, pos, copy, copies, _ = _enumerated_layout(dims, gens)
    q = np.eye(len(copies), dtype=np.complex128) / np.sqrt(copies)
    full = np.zeros((len(q), sum(d * d for d in dims)), dtype=np.complex128)
    full[:, pos] = q[:, copy]
    return full


# -- the randomized central decomposition ---------------------------------------


def _random_hermitian(A, rng):
    """Random self-adjoint element spread over the whole basis."""
    x = element(A, rng.normal(size=A.dim) + 1j * rng.normal(size=A.dim))
    return blocks_scale(0.5, blocks_add(x, blocks_adj(x)))


def _dense_center_basis(A):
    """Hermitian basis of the center, from the Gram matrix of commutators."""
    d = A.dim
    if d == 0:
        return []
    length = sum(k * k for k in A.dims)
    gram = np.zeros((d, d), dtype=np.complex128)
    basis = basis_elements(A)
    for bj in basis:
        rows = np.empty((d, length), dtype=np.complex128)
        for i, bi in enumerate(basis):
            comm = blocks_add(blocks_mul(bi, bj), blocks_mul(bj, bi), -1.0)
            rows[i] = blocks_vec(comm)
        gram += rows.conj() @ rows.T
    vals, vecs = np.linalg.eigh(gram)
    cut = 1e-10 * max(1.0, float(vals[-1]))
    candidates = []
    for i in range(d):
        if vals[i] > cut:
            continue
        x = element(A, vecs[:, i])
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


def _cluster_eigenvalues(values):
    """Index lists of the eigenvalues, ascending, cut at gaps above CLUSTER_GAP."""
    order = np.argsort(values)
    clusters = []
    for idx in order:
        if clusters and values[idx] - values[clusters[-1][-1]] <= CLUSTER_GAP:
            clusters[-1].append(idx)
        else:
            clusters.append([idx])
    return clusters


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
    rows = [blocks_vec(blocks_mul(blocks_mul(f, b), f)) for b in basis_elements(A)]
    return onb(np.array(rows)).shape[0]


def _dense_minimal_projection(A, proj, d, rng):
    """Projection f <= proj with dim(fAf) = 1, from random elements.

    proj is the central projection of a summand M_d, as blocks.
    """
    if d == 1:
        return proj
    for _ in range(MAX_RESAMPLE):
        y = blocks_mul(blocks_mul(proj, _random_hermitian(A, rng)), proj)
        y = blocks_scale(0.5, blocks_add(y, blocks_adj(y)))
        nrm = blocks_norm(y)
        if nrm == 0:
            continue
        y = blocks_add(blocks_scale(1.0 / nrm, y), proj, 3.0)
        projections, means = _spectral_projections(y)
        candidates = [p for p, m in zip(projections, means) if abs(m) > 1.0]
        if len(candidates) != d:
            continue
        f = candidates[0]
        if contains(A, f, 100 * RANK_TOL) and _corner_dim(A, f) == 1:
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
    unit = element(A, A.unit)
    for _ in range(MAX_RESAMPLE):
        y = blocks_zero(A.dims)
        for c, b in zip(rng.normal(size=s), center):
            y = blocks_add(y, b, c)
        nrm = blocks_norm(y)
        if nrm == 0 and s > 1:
            continue
        if nrm > 0:
            y = blocks_scale(1.0 / nrm, y)
        projections, means = _spectral_projections(blocks_add(y, unit, shift))
        clusters = [p for p, m in zip(projections, means) if abs(m) > shift / 2]
        if len(clusters) != s:
            continue
        found = []
        for proj in clusters:
            if not contains(A, proj, 100 * RANK_TOL):
                break
            corner_dim = _corner_dim(A, proj)
            d = int(round(np.sqrt(corner_dim)))
            ambient_rank = int(round(sum(np.trace(b).real for b in proj)))
            if abs(d * d - corner_dim) > INT_TOL or d == 0 or ambient_rank % d:
                break
            found.append((Summand(coords(A, proj), d, ambient_rank), proj))
        if len(found) != s or sum(sm.d ** 2 for sm, _ in found) != A.dim:
            continue
        total = blocks_zero(A.dims)
        for _, proj in found:
            total = blocks_add(total, proj)
        if not np.allclose(blocks_vec(total), blocks_vec(unit), atol=1e-7):
            continue
        summands = [sm for sm, _ in found]
        order = _summand_order(A, summands)
        return CentralDecomposition(A, [summands[i] for i in order], None, None, None)
    raise DecompositionError(
        "no generic central element produced a certified decomposition"
    )


def assert_matches_oracle(dec):
    """dec agrees with dense_central_decomposition of its algebra.

    Sizes, ambient ranks and central projections must agree summand by
    summand, order included.
    """
    A = dec.algebra
    ref = dense_central_decomposition(A)
    assert [(s.d, s.ambient_rank) for s in dec.summands] == [
        (s.d, s.ambient_rank) for s in ref.summands
    ]
    for sm, rm in zip(dec.summands, ref.summands):
        # coordinates over orthonormal rows: distances are those of the
        # rendered projections
        assert np.allclose(sm.z, rm.z, atol=1e-7)


def concrete_stage_algebra(tower, n):
    """The stage algebra as a StarAlgebra on the top window.

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
    return star_closure(dims, entries_of(gens))


# -- the per-element window loops ------------------------------------------------


def _looped_coords(corner, lo, hi, slot_blocks, scale, message):
    """Certified corner coordinates of one list of slot blocks.

    The restricted basis matrix is rebuilt from the basis elements on
    levels [lo, hi), so nothing is shared with Placement.solver.
    """
    i0, i1 = lo - corner.levels[0], hi - corner.levels[0]
    mat = np.array([blocks_vec(b[i0:i1]) for b in basis_elements(corner.algebra)])
    vec = blocks_vec(slot_blocks)
    coords = np.linalg.pinv(mat.T) @ vec
    if np.linalg.norm(mat.T @ coords - vec) > 100 * COORD_TOL * scale:
        raise WindowUnstableError(message)
    return coords


def looped_gathers(tower, a, b):
    """The slot gathers of a transport, one level at a time.

    One (i, r1, r2) per source level ell: i = ell + len(a) - G0 indexes
    the target slot list, and r1, r2 are the target slot positions of
    a*d and b*d, d over the source slot, found by prepend_gather and a
    searchsorted. tower._transport reads them as shifts by
    Graph.prepend_rank instead.
    """
    g = tower.graph
    cs = tower.corners[g.source_of(a)]
    cw = tower.corners[g.range_of(a)]
    gathers = []
    for ell in range(tower.G0, tower.G1 - len(a)):
        slot = cs.slot_lists[ell - tower.G0]
        image = cw.slot_lists[ell + len(a) - tower.G0]
        gathers.append((
            ell + len(a) - tower.G0,
            np.searchsorted(image, prepend_gather(g, ell - tower.q, a)[slot]),
            np.searchsorted(image, prepend_gather(g, ell - tower.q, b)[slot]),
        ))
    return gathers


def looped_transport(tower, a, b, message="transport left the corner"):
    """Tower.transport, one corner basis element and one level at a time."""
    g = tower.graph
    cs = tower.corners[g.source_of(a)]
    cw = tower.corners[g.range_of(a)]
    lo, hi = tower.G0, tower.G1 - len(a)
    gathers = looped_gathers(tower, a, b)
    cols = []
    for blocks in basis_elements(cw.algebra):
        slot_blocks = [blocks[i][np.ix_(r1, r2)] for i, r1, r2 in gathers]
        cols.append(_looped_coords(cs, lo, hi, slot_blocks, 1.0, message))
    return np.array(cols).T


def looped_tau_inverse(tower, n, x):
    """Tower.tau_inverse, one block entry (a, b) at a time."""
    g = tower.graph
    blocks = [
        np.zeros((g.level_dim(k), g.level_dim(k)), dtype=np.complex128)
        for k in range(tower.M, tower.M + tower.W)
    ]
    first = tower.M - n * tower.p - tower.G0
    for v, blk in x.items():
        rows = window_rows(tower, n, v)
        for a in range(blk.shape[0]):
            for b in range(blk.shape[0]):
                mats = element(tower.corners[v].algebra, blk[a, b])
                for kk, r in enumerate(rows):
                    blocks[kk][np.ix_(r[a], r[b])] += mats[first + kk]
    return blocks


def looped_tau(tower, n, blocks):
    """Tower.tau, one block entry (a, b) at a time, each certified."""
    lo = tower.M - n * tower.p
    x = tower.stage_zero(n)
    for v, blk in x.items():
        rows = window_rows(tower, n, v)
        for a in range(blk.shape[0]):
            for b in range(blk.shape[0]):
                slot_blocks = [
                    blocks[kk][np.ix_(r[a], r[b])] for kk, r in enumerate(rows)
                ]
                scale = max(1.0, max(np.abs(s).max() for s in slot_blocks))
                blk[a, b] = _looped_coords(
                    tower.corners[v], lo, lo + tower.W, slot_blocks, scale,
                    "window data does not lie in the stage algebra",
                )
    return x


def window_rows(tower, n, v):
    """Window rows of the stage-n index paths at v, level by level.

    Entry kk has one row per index path gamma starting at v: the
    level-(M + kk) indices of gamma*d over the paths d of length
    M + kk - n p - q that end at v, read off the path tables.
    """
    g = tower.graph
    length = n * tower.p + tower.q
    gammas = [g.paths(length)[i] for i in tower.stages[n].paths[v]]
    return [
        np.array([prepend_gather(g, k - length, gam)[g.ending_at(k - length, v)]
                  for gam in gammas])
        for k in range(tower.M, tower.M + tower.W)
    ]


def window_index(tower, n, v):
    """Window positions of the stage-n entries at v, an (m, m, L) array.

    Entry [a, b] lists the positions in blocks_vec of the window blocks
    of the corner entries of block entry (a, b), laid out like the
    columns of the corner on levels [M - n p, M + W - n p).
    """
    parts = []
    off = 0
    for k, r in zip(range(tower.M, tower.M + tower.W), window_rows(tower, n, v)):
        d = tower.graph.level_dim(k)
        m, s = r.shape
        parts.append((off + r[:, None, :, None] * d + r[None, :, None, :])
                     .reshape(m, m, s * s))
        off += d * d
    return np.concatenate(parts, axis=2)


def dense_restricted(corner, lo, hi):
    """Placement.solver on all columns of levels [lo, hi), zero or not.

    Returns (mat, pinv, span) from one SVD of the dense columns, with
    the same faithfulness cut.
    """
    mat = corner.columns(lo, hi)
    u, sv, vh = np.linalg.svd(mat.T, full_matrices=False)
    if corner.r and (sv.size < corner.r or sv[-1] <= 1e-8 * max(1.0, sv[0])):
        raise WindowUnstableError(
            "corner at %r is not faithful on levels [%d, %d); "
            "widen the window" % (corner.vertex, lo, hi)
        )
    return mat, (vh.conj().T / sv) @ u.conj().T, u.T


def dense_tau_inverse(tower, n, x):
    """Tower.tau_inverse as one scatter into the full blocks_vec layout.

    The element is rendered on all columns of the corner, through the
    (m, m, L) window index, and the flat window is cut into blocks.
    """
    g = tower.graph
    dims = [g.level_dim(k) for k in range(tower.M, tower.M + tower.W)]
    lo = tower.M - n * tower.p
    lead = next(iter(x.values())).shape[:-3]
    flat = np.zeros(lead + (sum(d * d for d in dims),), dtype=np.complex128)
    for v, blk in x.items():
        columns = tower.corners[v].columns(lo, lo + tower.W)
        flat[..., window_index(tower, n, v)] = blk @ columns
    return blocks_unvec(flat, dims)


def dense_tau(tower, n, blocks):
    """Tower.tau on the full blocks_vec copy of the window.

    Every (m, m, L) gather is solved against dense_restricted, and its
    residual is taken over all L columns against 100 * COORD_TOL times
    the largest absolute entry of the row (at least 1).
    """
    lo = tower.M - n * tower.p
    flat = blocks_vec(blocks)
    x = tower.stage_zero(n)
    for v, blk in x.items():
        mat, pinv, _ = dense_restricted(tower.corners[v], lo, lo + tower.W)
        idx = window_index(tower, n, v)
        vecs = flat[idx].reshape(-1, idx.shape[2])
        scales = np.maximum(1.0, np.abs(vecs).max(axis=1, initial=0.0))
        coords = vecs @ pinv.T
        resid = np.linalg.norm(coords @ mat - vecs, axis=1)
        if np.any(resid > 100 * COORD_TOL * scales):
            raise WindowUnstableError(
                "window data at vertex %r does not lie in the stage-%d "
                "algebra" % (tower.graph.vertices[v], n)
            )
        blk[...] = coords.reshape(blk.shape)
    return x


# -- finite-dimensional references ---------------------------------------------


def projector_gap(q1, q2):
    """||P1 - P2|| for the projectors onto two row spans of equal dimension."""
    return float(np.linalg.norm(q2.T - q1.T @ (q1.conj() @ q2.T), 2))


def projection_rank(p):
    """Rank of a matrix that is an orthogonal projection, by its SVD."""
    return int(np.sum(np.linalg.svd(p, compute_uv=False) > 0.5))


def dimension_adds_up(dec):
    """Whether the summand sizes of a decomposition account for its algebra."""
    return sum(s.d ** 2 for s in dec.summands) == dec.algebra.dim


def embedding_multiplicities(dec_a, dec_b, phi, samples=12, seed=0, tol=RANK_TOL):
    """Multiplicity matrix of a unital *-homomorphism phi: A -> B.

    phi is applied to block elements of A and must land in B. The entry
    m[i][j] counts how often summand i of A sits inside summand j of B:
    the corner of B over phi(minimal projection of summand i), cut to
    summand j, is a full matrix algebra of size m[i][j]. The minimal
    projections are found here from random elements; the decompositions
    carry only central projections.
    """
    A, B = dec_a.algebra, dec_b.algebra
    rng = np.random.default_rng(seed)

    image_unit = phi(element(A, A.unit))
    if not np.allclose(
        blocks_vec(image_unit), blocks_vec(element(B, B.unit)), atol=1e-8
    ):
        raise MultiplicityError("map is not unital")
    for _ in range(samples):
        ca = rng.normal(size=A.dim) + 1j * rng.normal(size=A.dim)
        cb = rng.normal(size=A.dim) + 1j * rng.normal(size=A.dim)
        x, y = element(A, ca), element(A, cb)
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
        if not contains(B, phi(x), 100 * tol):
            raise MultiplicityError("image leaves the target algebra")

    m = np.zeros((len(dec_a.summands), len(dec_b.summands)), dtype=int)
    for i, sa in enumerate(dec_a.summands):
        q = phi(_dense_minimal_projection(A, element(A, sa.z), sa.d, rng))
        for j, sb in enumerate(dec_b.summands):
            zq = blocks_mul(element(B, sb.z), q)
            rows = np.array([
                blocks_vec(blocks_mul(blocks_mul(zq, b), blocks_adj(zq)))
                for b in basis_elements(B)
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


def mul_coords(corner, x, y):
    """Product of two corner elements in coordinates, by the structure tensor."""
    return np.einsum("i,j,ijk->k", x, y, corner.T)


def pairwise_fiber_multiplicities(tower, mu, fib):
    """Integer multiplicity block of one fiber map, one summand pair at a time.

    The reference for tower._fiber_multiplicities, which reads the same
    integers off traces of the images of the central projections. Entry
    (i, j): how often summand i of the corner at r(mu) appears in
    summand j of the corner at s(mu) under the fiber. Here f_i is a
    minimal projection of summand i, found from random elements
    (_dense_minimal_projection); with y_i its image, which must be a
    projection, the compressed corner (z_j y_i) A (y_i z_j) is a full
    matrix algebra M_m, and m is the square root of its dimension, a
    numerical rank.
    """
    g = tower.graph
    v = g.source_of(mu)
    w = g.range_of(mu)
    cv = tower.corners[v]
    cw = tower.corners[w]
    out = np.zeros((len(cw.dec.summands), len(cv.dec.summands)), dtype=int)
    A = cw.algebra
    rng = np.random.default_rng(0)
    for i, sw in enumerate(cw.dec.summands):
        f = _dense_minimal_projection(A, element(A, sw.z), sw.d, rng)
        y = fib @ coords(A, f)
        yy = mul_coords(cv, y, y)
        if np.linalg.norm(yy - y) > 1e-6 * max(1.0, np.linalg.norm(y)):
            raise MultiplicityError(
                "fiber along %s does not send minimal projections to "
                "projections" % g.path_str(mu)
            )
        for j, sv in enumerate(cv.dec.summands):
            zj = sv.z
            zy = mul_coords(cv, zj, y)
            yz = mul_coords(cv, y, zj)
            rows = [
                mul_coords(cv, zy, mul_coords(cv, e, yz))
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
    z = sum(summands[i].z for i in subset)
    basis = onb(np.einsum("i,ijk->jk", z, corner.T), tol)
    if basis.shape[0] != sum(summands[i].d ** 2 for i in subset):
        raise WindowUnstableError("ideal dimension off the summand sizes")
    adjoints = np.conj(basis) @ corner.S
    if not in_span(adjoints, basis, tol):
        raise WindowUnstableError("ideal is not adjoint-closed")
    left = np.einsum("ul,jlk->ujk", basis, corner.T).reshape(-1, corner.r)
    right = np.einsum("ul,ljk->ujk", basis, corner.T).reshape(-1, corner.r)
    if not (in_span(left, basis, tol) and in_span(right, basis, tol)):
        raise WindowUnstableError("ideal is not two-sided")
    return basis


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
        if not all(in_span(nxt[v], subs[v], tol) for v in range(nv)):
            return False
        if all(
            nxt[v].shape[0] == cur[v].shape[0] and in_span(nxt[v], cur[v], tol)
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
        dst_d = prepend_gather(g, length, delta)[src]
        dst_g = prepend_gather(g, length, gamma)[src]
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


def _looped_residual(vec, basis):
    """Norm of the part of one vector off the row span of an onb."""
    if basis.shape[0] == 0:
        return float(np.linalg.norm(vec))
    coeffs = basis.conj() @ vec
    return float(np.linalg.norm(vec - basis.T @ coeffs))


def _looped_contains(big, small, tol=RANK_TOL):
    """Whether every row of `small` lies in the span of onb `big`, row by row."""
    return all(
        _looped_residual(row, big) <= tol * max(1.0, float(np.linalg.norm(row)))
        for row in small
    )


def _looped_subspaces(tower, family):
    return {
        v: ideal_subspace(tower, v, family.choices[v])
        for v in range(tower.graph.n_vertices)
    }


def _looped_stage_unvec(tower, n, vec):
    x = tower.stage_zero(n)
    off = 0
    for v in sorted(x):
        size = x[v].size
        x[v][...] = np.asarray(vec)[off:off + size].reshape(x[v].shape)
        off += size
    return x


def _looped_ideal_chain(tower, family, n):
    if n > tower.config.n_max:
        raise DomainError("stage %d exceeds the built tower" % n)
    subs = _looped_subspaces(tower, family)
    chain = [_placed(tower, subs, m) for m in range(n + 1)]
    for m in range(1, n + 1):
        for row in chain[m - 1]:
            lifted = tower.stage_vec(
                m, tower.psi(m - 1, _looped_stage_unvec(tower, m - 1, row))
            )
            if not _looped_contains(chain[m], [lifted]):
                raise WindowUnstableError(
                    "the stage-%d ideal does not include into stage %d"
                    % (m - 1, m)
                )
    return chain


def _looped_sample_pairs(m):
    pairs = [(0, 0)]
    if m > 1:
        pairs += [(0, m - 1), (m - 1, m - 1)]
    return pairs


def _looped_flatten_levels(blocks, k0, k1):
    return np.concatenate([blocks[kk].ravel() for kk in range(k0, k1)])


def _looped_edge_render(tower, blocks, e, f, push):
    """Render of u_e^* x u_f on levels [M, M+W-1) from the render of x,
    or with push, of u_e x u_f^* on levels [M+1, M+W)."""
    g = tower.graph
    out = []
    for kk in range(tower.W - 1):
        k = tower.M + kk
        rows = g.ending_at(k, g.esrc[e])
        cols = g.ending_at(k, g.esrc[f])
        up_r = prepend_gather(g, k, Path((e,), g.esrc[e]))[rows]
        up_c = prepend_gather(g, k, Path((f,), g.esrc[f]))[cols]
        dim = g.level_dim(k + 1 if push else k)
        mat = np.zeros((dim, dim), dtype=np.complex128)
        if push:
            mat[np.ix_(up_r, up_c)] = blocks[kk][np.ix_(rows, cols)]
        else:
            mat[np.ix_(rows, cols)] = blocks[kk + 1][np.ix_(up_r, up_c)]
        out.append(mat)
    return np.concatenate([m.ravel() for m in out])


def looped_transport_edges(tower):
    """ideals._transport_edges with one product per pair of summands.

    The reference for the stacked products: per parallel edge pair, each
    summand ideal at the range is mapped by pi_map and projected on each
    summand ideal at the source separately.
    """
    g = tower.graph
    pos = {lab: k for k, lab in enumerate(tower.labels)}
    edges = []
    for e, f in _parallel_edge_pairs(g):
        w, s = g.edst[e], g.esrc[e]
        mat = pi_map(tower, Path((e,), s), Path((f,), s))
        for i in range(len(tower.corners[w].dec.summands)):
            img = tower.corners[w].dec.ideals[i] @ mat.T
            scale = np.maximum(1.0, np.linalg.norm(img, axis=1))
            for j in range(len(tower.corners[s].dec.summands)):
                ideal = tower.corners[s].dec.ideals[j]
                comp = np.linalg.norm(img @ ideal.conj().T, axis=1)
                margin = float((comp / scale).max())
                if margin > RANK_TOL:
                    edges.append((e, f, pos[(w, i)], pos[(s, j)], margin))
    return edges


def looped_verify_fully_invariant(tower, family, n_cap=None):
    """verify_fully_invariant as it was before the span checks were stacked.

    Every chain row makes its own dict, psi call, tau_inverse render
    and span check, and the strip and push residuals are taken render
    by render. The checks:

    Three independent checks, reported with witnesses instead of
    raising:

    * recovered fibers: stripping the deep ideal bases along sampled
      index-path pairs must recover exactly the chosen corner ideal at
      every vertex and every lower stage;
    * strip invariance: compressing the stage-0 ideal between any two
      edges stays inside the stage-0 ideal (window render comparison);
    * push invariance: conjugating the stage-0 ideal by any two edges
      lands inside the stage-1 ideal.
    """
    g = tower.graph
    cap = min(3, tower.config.n_max) if n_cap is None else int(n_cap)
    if cap > tower.config.n_max:
        raise DomainError(
            "stage cap %d exceeds the built tower (n_max=%d)"
            % (cap, tower.config.n_max)
        )
    if cap < 1:
        raise DomainError("verification needs at least one stage")
    subs = _looped_subspaces(tower, family)
    chain = _looped_ideal_chain(tower, family, cap)
    failures = []
    fiber_checks = []
    for nprime in sorted({1, cap}):
        dicts = [_looped_stage_unvec(tower, nprime, row) for row in chain[nprime]]
        renders = [blocks_vec(tower.tau_inverse(nprime, x)) for x in dicts]
        for nlow in range(nprime + 1):
            lo = tower.M - nlow * tower.p
            hi = tower.M + tower.W - nlow * tower.p
            for v in range(g.n_vertices):
                corner = tower.corners[v]
                mat, pinv, _ = dense_restricted(corner, lo, hi)
                corner_span = onb(mat)
                index_paths = g.paths(nlow * tower.p + tower.q)
                paths_low = tower.stages[nlow].paths[v]
                index = window_index(tower, nlow, v)
                for i1, i2 in _looped_sample_pairs(len(paths_low)):
                    mu1 = index_paths[paths_low[i1]]
                    mu2 = index_paths[paths_low[i2]]
                    strips = [rnd[index[i1, i2]] for rnd in renders]
                    if strips:
                        strip_span = onb(np.array(strips))
                    else:
                        strip_span = np.zeros(
                            (0, mat.shape[1]), dtype=np.complex128
                        )
                    inter = span_intersect(strip_span, corner_span)
                    rows = inter @ pinv.T
                    resid = np.linalg.norm(rows @ mat - inter, axis=1)
                    scales = np.maximum(1.0, np.linalg.norm(inter, axis=1))
                    if np.any(resid > 100 * COORD_TOL * scales):
                        rows = None
                    entry = {
                        "stage": nprime,
                        "strip_stage": nlow,
                        "vertex": g.vertices[v],
                        "pair": (g.path_str(mu1), g.path_str(mu2)),
                    }
                    if rows is None:
                        entry["relation"] = "uncertified"
                        entry["residual"] = max(resid)
                        failures.append(
                            "a corner component of the stage-%d strip at %r "
                            "could not be certified (residual %.3g)"
                            % (nprime, g.vertices[v], max(resid))
                        )
                    else:
                        rec = onb(rows)
                        contained = _looped_contains(subs[v], rec)
                        covers = _looped_contains(rec, subs[v])
                        if contained and covers:
                            entry["relation"] = "equal"
                        elif covers:
                            entry["relation"] = "grew"
                        elif contained:
                            entry["relation"] = "shrank"
                        else:
                            entry["relation"] = "moved"
                        if entry["relation"] != "equal":
                            failures.append(
                                "recovered fiber at %r from stage %d "
                                "stripped at stage %d %s (pair %s)"
                                % (
                                    g.vertices[v],
                                    nprime,
                                    nlow,
                                    entry["relation"],
                                    entry["pair"],
                                )
                            )
                    fiber_checks.append(entry)

    j0_dicts = [_looped_stage_unvec(tower, 0, row) for row in chain[0]]
    j0_renders = [tower.tau_inverse(0, x) for x in j0_dicts]
    strip_checks = []
    push_checks = []
    if j0_renders:
        j0_low = onb(
            np.array(
                [_looped_flatten_levels(r, 0, tower.W - 1) for r in j0_renders]
            )
        )
        j1_dicts = [_looped_stage_unvec(tower, 1, row) for row in chain[1]]
        j1_high = onb(
            np.array(
                [
                    _looped_flatten_levels(tower.tau_inverse(1, x), 1, tower.W)
                    for x in j1_dicts
                ]
            )
        )
        for e in range(g.n_edges):
            for f in range(g.n_edges):
                worst_strip = 0.0
                worst_push = 0.0
                for rnd in j0_renders:
                    cand = _looped_edge_render(tower, rnd, e, f, push=False)
                    resid = _looped_residual(cand, j0_low)
                    scale = max(1.0, float(np.linalg.norm(cand)))
                    worst_strip = max(worst_strip, resid / scale)
                    cand = _looped_edge_render(tower, rnd, e, f, push=True)
                    resid = _looped_residual(cand, j1_high)
                    scale = max(1.0, float(np.linalg.norm(cand)))
                    worst_push = max(worst_push, resid / scale)
                names = (g.edges[e].name, g.edges[f].name)
                strip_checks.append(
                    {"pair": names, "residual": worst_strip}
                )
                push_checks.append(
                    {"pair": names, "residual": worst_push}
                )
                if worst_strip > RANK_TOL:
                    failures.append(
                        "strip of the stage-0 ideal between %s leaves it "
                        "(residual %.3g)" % (names, worst_strip)
                    )
                if worst_push > RANK_TOL:
                    failures.append(
                        "push of the stage-0 ideal by %s leaves stage 1 "
                        "(residual %.3g)" % (names, worst_push)
                    )
    return VerificationReport(
        ok=not failures,
        n_cap=cap,
        fiber_checks=fiber_checks,
        strip_checks=strip_checks,
        push_checks=push_checks,
        failures=failures,
    )


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


class SparseFock:
    """The truncated Fock representation as sparse operators.

    The reference for wck.fock, which keeps only the creators' index
    maps: S_e prepends e and annihilates the top level, P_v selects
    paths by range, Q_k selects one level, and Z acts block-diagonally
    through the weight matrices. `creators` caches S_e by edge; a test
    may put a corrupted creator there.
    """

    def __init__(self, graph, weights, K):
        self.graph = graph
        self.weights = weights
        self.K = K
        dims = [graph.level_dim(k) for k in range(K + 1)]
        self.offsets = np.concatenate([[0], np.cumsum(dims)]).astype(int)
        self.dim = int(self.offsets[-1])
        self.creators = {}
        self._P_cache = {}
        self._Z = None

    def basis_path(self, i):
        k = int(np.searchsorted(self.offsets, i, side="right") - 1)
        return self.graph.paths(k)[i - self.offsets[k]]

    def identity(self):
        return sp.identity(self.dim, dtype=np.complex128, format="csr")

    def S(self, e):
        """Creation operator of one edge: prepends e, clips the top level."""
        got = self.creators.get(e)
        if got is not None:
            return got
        g = self.graph
        edge = Path((e,), g.esrc[e])
        rows, cols = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)]
        for k in range(self.K):
            idx = g.ending_at(k, g.esrc[e])
            rows.append(self.offsets[k + 1] + prepend_gather(g, k, edge)[idx])
            cols.append(self.offsets[k] + idx)
        out = map_matrix(self.dim, np.concatenate(cols), np.concatenate(rows))
        self.creators[e] = out
        return out

    def S_path(self, path):
        """S_α as a product of edge creators (operator order)."""
        out = self.identity()
        for e in reversed(path.edges):
            out = self.S(e) @ out
        if len(path) == 0:
            out = self.P(path.source) @ out
        return out

    def P(self, v):
        got = self._P_cache.get(v)
        if got is not None:
            return got
        diag = np.zeros(self.dim)
        for k in range(self.K + 1):
            diag[self.offsets[k] + self.graph.ending_at(k, v)] = 1.0
        out = sp.diags(diag).tocsr().astype(np.complex128)
        self._P_cache[v] = out
        return out

    def Q(self, k):
        diag = np.zeros(self.dim)
        diag[self.offsets[k]:self.offsets[k + 1]] = 1.0
        return sp.diags(diag).tocsr().astype(np.complex128)

    def below(self, k):
        """Projection onto levels strictly below k (none for k < 0)."""
        diag = np.zeros(self.dim)
        diag[: self.offsets[max(k, 0)]] = 1.0
        return sp.diags(diag).tocsr().astype(np.complex128)

    def upto(self, k):
        """Projection onto levels at most k."""
        return self.below(k + 1)

    @property
    def Z(self):
        if self._Z is None:
            blocks = [self.weights.level_matrix(k) for k in range(self.K + 1)]
            self._Z = sp.block_diag(blocks, format="csr", dtype=np.complex128)
        return self._Z

    def source_projection(self):
        """Projection onto the level-0 vacua of source vertices."""
        diag = np.zeros(self.dim)
        for v in range(self.graph.n_vertices):
            if not self.graph.in_edges[v]:
                diag[v] = 1.0
        return sp.diags(diag).tocsr().astype(np.complex128)


def map_matrix(dim, src, dst):
    """The 0/1 matrix of the partial map src[t] -> dst[t] on dim basis vectors."""
    data = np.ones(len(dst), dtype=np.complex128)
    return sp.csr_matrix((data, (dst, src)), shape=(dim, dim))


def _max_entry(m):
    m = sp.csr_matrix(m)
    return float(np.max(np.abs(m.data))) if m.nnz else 0.0


def sparse_relations(r):
    """The deviations of wck.fock.verify_relations, by sparse products."""
    g = r.graph
    dev = {}
    ops = {}

    def path_ops(k):
        """(a, S_a) for the length-k paths, each operator built once a call."""
        if k not in ops:
            ops[k] = [(a, r.S_path(a)) for a in g.paths(k)]
        return ops[k]

    # S_a* S_b = delta_ab P_{s(a)} on levels that are not clipped
    worst = 0.0
    for length in (1, 2):
        keep = r.upto(r.K - length)
        for a, Sa in path_ops(length):
            Sa_adj = Sa.conj().T
            for b, Sb in path_ops(length):
                prod = Sa_adj @ Sb
                if a == b:
                    prod = prod - r.P(a.source)
                worst = max(worst, _max_entry(prod @ keep))
    dev["pair_isometry"] = worst

    # sum over |a|=k of S_a S_a* = (I - sum_{i<k} Q_i) (1 - P_source)
    ps_perp = r.identity() - r.source_projection()
    worst = 0.0
    worst_vertex = 0.0
    for k in range(1, min(3, r.K) + 1):
        total = sp.csr_matrix((r.dim, r.dim), dtype=np.complex128)
        per_vertex = {v: sp.csr_matrix((r.dim, r.dim), dtype=np.complex128)
                      for v in range(g.n_vertices)}
        for a, Sa in path_ops(k):
            term = Sa @ Sa.conj().T
            total = total + term
            per_vertex[g.range_of(a)] = per_vertex[g.range_of(a)] + term
        expect = (r.identity() - r.below(k)) @ ps_perp
        worst = max(worst, _max_entry(total - expect))
        for v in range(g.n_vertices):
            worst_vertex = max(
                worst_vertex, _max_entry(per_vertex[v] - r.P(v) @ expect)
            )
    dev["range_sum"] = worst
    dev["range_sum_per_vertex"] = worst_vertex

    # Z commutes with every vertex projection
    worst = 0.0
    for v in range(g.n_vertices):
        worst = max(worst, _max_entry(r.Z @ r.P(v) - r.P(v) @ r.Z))
    dev["z_vertex_commutation"] = worst

    # partial isometries: S_a S_a* S_a = S_a where not clipped
    worst = 0.0
    for length in (1, 2):
        keep = r.upto(r.K - length)
        for _, Sa in path_ops(length):
            worst = max(worst, _max_entry((Sa @ Sa.conj().T @ Sa - Sa) @ keep))
    dev["partial_isometry"] = worst
    return dev


def compact_decay(r, x):
    """Per-level compression norms ||Q_k x Q_k|| for k = 0..K."""
    out = []
    for k in range(r.K + 1):
        lo, hi = r.offsets[k], r.offsets[k + 1]
        block = x[lo:hi, lo:hi]
        block = block.toarray() if sp.issparse(block) else np.asarray(block)
        out.append(float(np.linalg.norm(block, 2)) if block.size else 0.0)
    return out


def graded_commutator_decay(r, path):
    """Norms ||Q_{k+|a|} (S_a Z - Z S_a) Q_k|| for the stable levels.

    These vanish at every k exactly when |a| is a multiple of the
    minimal period of the weights (above the stabilization level).
    """
    Sa = r.S_path(path)
    C = Sa @ r.Z - r.Z @ Sa
    d = len(path)
    out = []
    for k in range(r.K - d + 1):
        rlo, rhi = r.offsets[k + d], r.offsets[k + d + 1]
        clo, chi = r.offsets[k], r.offsets[k + 1]
        block = C[rlo:rhi, clo:chi]
        block = block.toarray() if sp.issparse(block) else np.asarray(block)
        out.append(float(np.linalg.norm(block, 2)) if block.size else 0.0)
    return out


# -- paths, weights, stages and norms -----------------------------------------


def compose(g, a, b):
    """The path a*b, defined when r(b) = s(a)."""
    if g.range_of(b) != g.source_of(a):
        raise GraphError("composition undefined: r(b) != s(a)")
    return Path(a.edges + b.edges, b.source)


@functools.lru_cache(maxsize=None)
def _path_positions(g, k):
    """(edges, source) -> position in g.paths(k); every vertex has edges ()."""
    return {(p.edges, p.source): i for i, p in enumerate(g.paths(k))}


@functools.lru_cache(maxsize=None)
def prepend_gather(g, k, prefix):
    """The level-(k + len(prefix)) index of prefix*b per b in g.paths(k).

    -1 where r(b) != s(prefix). Looked up in a dict over the path list,
    so it shares no index arithmetic with Graph.prepend; read-only.
    """
    where = _path_positions(g, k + len(prefix))
    out = np.array([
        where[(prefix.edges + b.edges, b.source)]
        if g.range_of(b) == prefix.source else -1
        for b in g.paths(k)
    ], dtype=int)
    out.flags.writeable = False
    return out


def adjacency(g):
    """A[i][j] = number of edges with s(e) = v_j and r(e) = v_i."""
    a = np.zeros((g.n_vertices, g.n_vertices), dtype=np.int64)
    for ei in range(g.n_edges):
        a[g.edst[ei], g.esrc[ei]] += 1
    return a


def path_isometry(g, path):
    """u_a = u(e_1)...u(e_k) for a path a in operator order; p(v) at length 0."""
    word = tuple((el.U, e) for e in path.edges)
    if len(path) == 0:
        word = ((el.P, path.source),)
    return el.make(g, word)


def weight_entry(w, a, b):
    """Entry of Z_k between two level-k paths, by stripping whole periods.

    Above the stored range the entry vanishes unless the length-p
    prefixes agree, and then equals the entry of the suffixes.
    """
    if len(a) != len(b):
        raise WeightError("weight entries pair paths of equal length")
    ea, eb = a.edges, b.edges
    while len(ea) >= w.N + w.p:
        if ea[: w.p] != eb[: w.p]:
            return 0.0
        ea, eb = ea[w.p:], eb[w.p:]
    k = len(ea)
    if k == 0:
        return 1.0 if a.source == b.source else 0.0
    ia = w.graph.path_index(Path(ea, a.source))
    ib = w.graph.path_index(Path(eb, b.source))
    if w.kind == "diagonal":
        return float(w.level_diag(k)[ia]) if ia == ib else 0.0
    return complex(w.level_matrix(k)[ia, ib])


def weight_of(w, path):
    """Diagonal entry of Z_{|path|} at the path's basis vector."""
    return weight_entry(w, path, path)


def inline_level_matrix(w, k):
    """Z_k with the periodic branch written out as I_p (x) Z_{k-p}."""
    if w.kind == "diagonal":
        return np.diag(w.level_diag(k)).astype(np.complex128)
    if k == 0:
        return np.eye(w.graph.n_vertices, dtype=np.complex128)
    if k < w.N + w.p:
        return w.seed_levels[k].astype(np.complex128)
    pre, suf = w.split_table(k, w.p)
    inner = inline_level_matrix(w, k - w.p)
    return inner[np.ix_(suf, suf)] * (pre[:, None] == pre[None, :])


def stage_unit(tower, n):
    """The unit of stage n: the corner unit on every diagonal entry."""
    x = tower.stage_zero(n)
    for v, blk in x.items():
        for a in range(blk.shape[0]):
            blk[a, a] = tower.corners[v].algebra.unit
    return x


def stage_mul(tower, n, x, y):
    """Product of two stage-n elements through the corner structure tensors."""
    out = tower.stage_zero(n)
    for v, blk in out.items():
        blk[...] = np.einsum("abi,bcj,ijk->ack", x[v], y[v], tower.corners[v].T)
    return out


def stage_adjoint(tower, n, x):
    """Adjoint of a stage-n element: transpose the matrix, adjoint each entry."""
    out = tower.stage_zero(n)
    for v, blk in out.items():
        blk[...] = np.einsum("baj,jk->abk", np.conj(x[v]), tower.corners[v].S)
    return out


def calkin_equal(x, y, cfg):
    """Whether x - y has stable window norm within NORM_TOL."""
    return calkin_norm(el.sub(x, y), cfg) <= NORM_TOL


def looped_window_matrix(x, w, M, W):
    """Compression of x to levels [M, M + W), summed word by word per block."""
    g = x.graph
    dims = [level_dim(g, k) for k in range(M, M + W)]
    starts = np.concatenate([[0], np.cumsum(dims)]).astype(int)
    total = int(starts[-1])
    out = np.zeros((total, total), dtype=np.complex128)
    by_offset = {}
    for word, c in x.terms.items():
        by_offset.setdefault(word_offset(word), []).append((word, c))
    for d, terms in by_offset.items():
        for i, k in enumerate(range(M, M + W)):
            j = k + d - M
            if not 0 <= j < W:
                continue
            blk = np.zeros((dims[j], dims[i]), dtype=np.complex128)
            for word, c in terms:
                blk += c * word_matrix(w, word, k)
            out[starts[j]:starts[j] + dims[j], starts[i]:starts[i] + dims[i]] += blk
    return out
