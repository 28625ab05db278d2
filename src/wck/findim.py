"""Structure analysis of finite-dimensional *-algebras of block matrices.

Elements live in a fixed block space: a direct sum of full matrix
blocks, one per window level, represented as plain lists of square
complex arrays. A *-algebra is carried around as a span basis plus an
orthonormalized vectorization for membership tests. The analysis
follows the standard route: close the generators under products and
adjoints, split off the center, cluster the spectrum of a generic
central element into the matrix summands, and certify a minimal
projection in each.

The closure runs on the support blocks of its input. Per level, the
indices i and j are joined when some generator, adjoint or the unit has
an exact nonzero at (i, j); the classes of that relation split the
level into diagonal blocks. Sums, products and adjoints of elements
supported on those blocks stay on them, and every entry off them is an
exact 0.0, so the closure is computed on the compressed blocks alone
and scattered back at the end. A dense generator set is one class per
level and takes the same route.

The closure works per element, not per candidate: the products of one
fresh element with the whole basis, on both sides, are one stacked
(n, 2, L) block over the compressed length L, projected off the
orthonormal rows by matmuls. Candidates are taken in the order a*b_0,
b_0*a, a*b_1, ..., and every pair of basis elements is tried in the
round in which the later of the two is fresh, so the closure is
complete when a round adds nothing. Only one block is held at a time,
2 n L entries, the size of the rows already held; a whole round
(every fresh element against the basis) is never stacked at once.

Randomized steps (generic central elements, generic corner elements)
always certify their output and resample on failure; a wrong answer is
never returned silently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ClosureOverflowError, DecompositionError
from .windows import RANK_TOL, in_span, onb

CLUSTER_GAP = 1e-6
INT_TOL = 1e-4
MAX_RESAMPLE = 8


# -- block elements ----------------------------------------------------------


def blocks_eye(dims):
    return [np.eye(d, dtype=np.complex128) for d in dims]


def blocks_zero(dims):
    return [np.zeros((d, d), dtype=np.complex128) for d in dims]


def blocks_mul(a, b):
    return [x @ y for x, y in zip(a, b)]


def blocks_adj(a):
    return [np.swapaxes(x.conj(), -1, -2) for x in a]


def blocks_add(a, b, alpha=1.0):
    return [x + alpha * y for x, y in zip(a, b)]


def blocks_scale(alpha, a):
    return [alpha * x for x in a]


def blocks_vec(a):
    if not a:
        return np.zeros(0, dtype=np.complex128)
    return np.concatenate([x.ravel() for x in a])


def blocks_unvec(vec, dims):
    out = []
    pos = 0
    for d in dims:
        out.append(np.asarray(vec[pos:pos + d * d]).reshape(d, d))
        pos += d * d
    return out


def blocks_norm(a):
    return max((float(np.linalg.norm(x, 2)) for x in a if x.size), default=0.0)


# -- star algebras ------------------------------------------------------------


class StarAlgebra:
    """Span basis of a unital *-subalgebra of a block space."""

    def __init__(self, dims, basis, basis_onb, unit):
        self.dims = tuple(dims)
        self.basis = basis
        self.onb = basis_onb
        self.unit = unit

    @property
    def dim(self):
        return len(self.basis)

    def contains(self, x, tol=RANK_TOL):
        return in_span(blocks_vec(x), self.onb, tol)

    def element(self, coeffs):
        out = blocks_zero(self.dims)
        for c, b in zip(coeffs, self.basis):
            out = blocks_add(out, b, c)
        return out

    def random_hermitian(self, rng):
        """Random self-adjoint element spread over the whole basis."""
        coeffs = rng.normal(size=self.dim) + 1j * rng.normal(size=self.dim)
        x = self.element(coeffs)
        return blocks_scale(0.5, blocks_add(x, blocks_adj(x)))


def _components(mask):
    """Class label of each index under the relation mask[i, j].

    Min-label propagation with pointer jumping; each class ends up
    labelled by its smallest index.
    """
    rows, cols = np.nonzero(mask)
    lab = np.arange(mask.shape[0])
    while True:
        low = np.minimum(lab[rows], lab[cols])
        new = lab.copy()
        np.minimum.at(new, rows, low)
        np.minimum.at(new, cols, low)
        new = new[new]
        if np.array_equal(new, lab):
            return lab
        lab = new


def _support_layout(dims, elements):
    """Stacks, transpose and vector positions of the support blocks.

    The classes of each level are grouped by size into one
    (count, s, s) stack per (level, size), each class in ascending
    index order; a compressed vector is the concatenation of the
    raveled stacks. stacks lists (offset, count, s) per stack, tpos is
    the permutation that transposes every block of a compressed vector,
    and pos[i] is the position in blocks_vec of the full element of
    entry i of the compressed vector.
    """
    numbered = blocks_unvec(np.arange(sum(d * d for d in dims)), dims)
    pieces = []
    for lev, d in enumerate(dims):
        mask = np.zeros((d, d), dtype=bool)
        for x in elements:
            mask |= x[lev] != 0
        lab = _components(mask)
        order = np.argsort(lab, kind="stable")
        _, starts, sizes = np.unique(
            lab[order], return_index=True, return_counts=True
        )
        for s in np.unique(sizes):
            idx = np.array([order[i:i + s] for i in starts[sizes == s]])
            pieces.append(numbered[lev][idx[:, :, None], idx[:, None, :]])
    stacks = []
    tpos = []
    off = 0
    for x in pieces:
        c, s, _ = x.shape
        stacks.append((off, c, s))
        perm = np.arange(x.size).reshape(x.shape).swapaxes(1, 2)
        tpos.append(off + perm.ravel())
        off += x.size
    return stacks, blocks_vec(tpos).astype(int), blocks_vec(pieces).astype(int)


def _stack_products(a, basis, stacks):
    """Products a b and b a for every row b of basis, as an (n, 2, L) block.

    a and the rows of basis are compressed vectors. Each stack is
    multiplied by a loop over the inner index with broadcast products,
    which on stacks of small blocks beats einsum and stacked matmul.
    """
    n, length = basis.shape
    out = np.empty((n, 2, length), dtype=np.complex128)
    for off, c, s in stacks:
        end = off + c * s * s
        x = a[off:end].reshape(c, s, s)
        y = basis[:, off:end].reshape(n, c, s, s)
        ab = np.zeros((n, c, s, s), dtype=np.complex128)
        ba = np.zeros((n, c, s, s), dtype=np.complex128)
        for j in range(s):
            ab += x[None, :, :, j, None] * y[:, :, j, None, :]
            ba += y[:, :, :, j, None] * x[None, :, j, None, :]
        out[:, 0, off:end] = ab.reshape(n, -1)
        out[:, 1, off:end] = ba.reshape(n, -1)
    return out


def star_closure(dims, gens, unit=None, max_dim=4096):
    """Close generators under span, products, and adjoints.

    The ambient unit (or the given one, for corner algebras) is always
    included, so the result is unital. Growth beyond max_dim raises.

    The closure runs on the support blocks of the unit and the
    generators (see the module docstring): it is the same algebra, and
    its vectors are the full-length ones with exact zeros dropped. The
    basis and its orthonormal rows are held as (n, L) arrays of these
    compressed vectors and scattered back to full blocks once, at the
    end.

    The pool (unit, then each generator and its adjoint) is absorbed
    first. Then, for each fresh element a in turn, the candidates a*b
    and b*a for every b of the basis as it stands are built as one
    (n, 2, L) block, in the order a*b_0, b_0*a, a*b_1, ... The block
    is projected off the rows by two rounds of Gram-Schmidt, each one
    matmul. A candidate below the 1e-9 floor or with a relative residual
    at most RANK_TOL is dropped; the survivors, in candidate order, are
    projected again off the rows accepted earlier in the same block and
    pass the same test. Accepted elements are fresh in the next round.
    A product x*y of basis elements is therefore tried in the round in
    which the later of x and y is fresh, so the span is closed when a
    round adds nothing. Only one block is held at a time: 2 n L entries,
    the order of the rows themselves.
    """
    dims = tuple(dims)
    if unit is None:
        unit = blocks_eye(dims)
    stacks, tpos, pos = _support_layout(dims, [unit] + list(gens))
    pool = [blocks_vec(unit)[pos]]
    for gen in gens:
        pool.append(blocks_vec(gen)[pos])
        pool.append(pool[-1][tpos].conj())
    cap = min(len(pos), 64)
    rows = np.empty((cap, len(pos)), dtype=np.complex128)
    basis = np.empty_like(rows)
    n = 0

    def absorb(cands, tol=RANK_TOL, floor=1e-9):
        """Append the candidates that leave the span; return their indices."""
        nonlocal rows, basis, n
        scale = np.linalg.norm(cands, axis=1)
        idx = np.flatnonzero(scale > floor)
        w = cands[idx]
        q = rows[:n]
        for _ in range(2):
            w -= (w @ q.conj().T) @ q
        keep = np.linalg.norm(w, axis=1) > tol * scale[idx]
        start = n
        for k, vec in zip(idx[keep], w[keep]):
            new = rows[start:n]
            for _ in range(2):
                vec -= (new.conj() @ vec) @ new
            resid = float(np.linalg.norm(vec))
            if resid <= tol * scale[k]:
                continue
            if n == len(rows):
                rows = np.concatenate([rows, np.empty_like(rows)])
                basis = np.concatenate([basis, np.empty_like(basis)])
            rows[n] = vec / resid
            # keep stored basis elements at unit scale so later spectral
            # cuts see commutators of comparable size
            basis[n] = cands[k] / scale[k]
            n += 1
            if n > max_dim:
                raise ClosureOverflowError(
                    "closure exceeded %d dimensions" % max_dim
                )
        return range(start, n)

    fresh = absorb(np.array(pool, dtype=np.complex128))
    while fresh:
        new = []
        for a in fresh:
            block = _stack_products(basis[a], basis[:n], stacks)
            new.extend(absorb(block.reshape(-1, len(pos))))
        fresh = new
    length = sum(d * d for d in dims)
    full_onb = np.zeros((n, length), dtype=np.complex128)
    full_onb[:, pos] = rows[:n]
    full = np.zeros((n, length), dtype=np.complex128)
    full[:, pos] = basis[:n]
    return StarAlgebra(
        dims, [blocks_unvec(row, dims) for row in full], full_onb, unit
    )


# -- central decomposition ----------------------------------------------------


@dataclass
class Summand:
    """One matrix summand M_d of a finite-dimensional algebra."""

    index: int
    projection: list          # central projection, block element
    d: int                    # matrix size
    ambient_rank: int         # rank of the projection in the block space
    minimal_projection: list  # block element with dim(fAf) = 1

    @property
    def multiplicity(self):
        return self.ambient_rank // self.d


@dataclass
class CentralDecomposition:
    algebra: StarAlgebra
    summands: list

    @property
    def dims(self):
        return [s.d for s in self.summands]


def _center_basis(A):
    """Hermitian basis of the center of the algebra.

    The commuting coefficient vectors are the nullspace of the Gram
    matrix of all commutator rows, accumulated one basis element at a
    time so nothing larger than (dim, dim) plus one row block is ever
    held.
    """
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
    coeff_basis = [vecs[:, i] for i in range(d) if vals[i] <= cut]
    candidates = []
    for coeffs in coeff_basis:
        x = A.element(coeffs)
        candidates.append(blocks_scale(0.5, blocks_add(x, blocks_adj(x))))
        candidates.append(
            blocks_scale(-0.5j, blocks_add(x, blocks_adj(x), -1.0))
        )
    if not candidates:
        return []
    # orthonormalize over the reals so the output stays hermitian, with
    # the rank cut anchored at the largest singular value; per-candidate
    # tests are unreliable here because candidate norms vary wildly
    reals = np.array(
        [
            np.concatenate([blocks_vec(c).real, blocks_vec(c).imag])
            for c in candidates
        ]
    )
    u, sv, vh = np.linalg.svd(reals, full_matrices=False)
    if sv.size == 0 or sv[0] == 0.0:
        return []
    rank = int(np.sum(sv > 1e-8 * sv[0]))
    out = []
    for row in vh[:rank]:
        vec = row[:length] + 1j * row[length:]
        out.append(blocks_unvec(vec, A.dims))
    return out


def _cluster_eigenvalues(values, gap=CLUSTER_GAP):
    order = np.argsort(values)
    clusters = []
    for idx in order:
        if clusters and values[idx] - values[clusters[-1][-1]] <= gap:
            clusters[-1].append(idx)
        else:
            clusters.append([idx])
    return clusters


def _spectral_projections(dims, y, gap=CLUSTER_GAP):
    """Projections onto global eigenvalue clusters of a hermitian element."""
    eigvals = []
    eigvecs = []
    for blk in y:
        if blk.size == 0:
            eigvals.append(np.zeros(0))
            eigvecs.append(np.zeros((0, 0), dtype=np.complex128))
            continue
        vals, vecs = np.linalg.eigh(blk)
        eigvals.append(vals)
        eigvecs.append(vecs)
    flat = np.concatenate([v for v in eigvals]) if eigvals else np.zeros(0)
    if flat.size == 0:
        return [], []
    clusters = _cluster_eigenvalues(flat)
    level_of = np.concatenate(
        [np.full(v.size, lev) for lev, v in enumerate(eigvals)]
    ).astype(int)
    pos_in_level = np.concatenate(
        [np.arange(v.size) for v in eigvals]
    ).astype(int) if flat.size else np.zeros(0, dtype=int)
    projections = []
    means = []
    for cluster in clusters:
        proj = blocks_zero([blk.shape[0] for blk in y])
        for idx in cluster:
            lev = level_of[idx]
            vec = eigvecs[lev][:, pos_in_level[idx]]
            proj[lev] = proj[lev] + np.outer(vec, vec.conj())
        projections.append(proj)
        means.append(float(np.mean([flat[i] for i in cluster])))
    return projections, means


def _summand_sort_key(sm):
    diag = np.concatenate([np.diag(blk).real for blk in sm.projection])
    return (sm.d, sm.ambient_rank, tuple(np.round(diag, 6)))


def central_decomposition(A, seed=0):
    """Split a finite-dimensional *-algebra into matrix summands.

    A generic self-adjoint central element separates the summands; its
    eigenvalue clusters give the central projections. Every randomized
    attempt is certified (cluster count equals the center dimension,
    projections lie in the algebra, summand dimensions are integers and
    sum to the algebra dimension) and failures resample. Summands come
    back in a canonical order that only depends on the projections, so
    repeated runs agree.
    """
    rng = np.random.default_rng(seed)
    center = _center_basis(A)
    s = len(center)
    if s == 0:
        raise DecompositionError("algebra has no central elements")
    shift = 3.0
    unit_vec = blocks_vec(A.unit)
    for _ in range(MAX_RESAMPLE):
        coeffs = rng.normal(size=s)
        y = blocks_zero(A.dims)
        for c, b in zip(coeffs, center):
            y = blocks_add(y, b, c)
        nrm = blocks_norm(y)
        if nrm == 0 and s > 1:
            continue
        if nrm > 0:
            y = blocks_scale(1.0 / nrm, y)
        y = blocks_add(y, A.unit, shift)
        projections, means = _spectral_projections(A.dims, y)
        algebra_clusters = [
            (p, m) for p, m in zip(projections, means) if abs(m) > shift / 2
        ]
        if len(algebra_clusters) != s:
            continue
        ok = True
        summands = []
        total_dimsq = 0
        for i, (proj, _) in enumerate(algebra_clusters):
            if not A.contains(proj, 100 * RANK_TOL):
                ok = False
                break
            corner_rows = [
                blocks_vec(blocks_mul(blocks_mul(proj, b), proj)) for b in A.basis
            ]
            corner_dim = onb(np.array(corner_rows)).shape[0]
            d = int(round(np.sqrt(corner_dim)))
            if abs(d * d - corner_dim) > INT_TOL:
                ok = False
                break
            ambient_rank = int(round(sum(np.trace(b).real for b in proj)))
            if d == 0 or ambient_rank % d != 0:
                ok = False
                break
            total_dimsq += d * d
            summands.append(
                Summand(
                    index=i,
                    projection=proj,
                    d=d,
                    ambient_rank=ambient_rank,
                    minimal_projection=None,
                )
            )
        if not ok or total_dimsq != A.dim:
            continue
        total_proj = blocks_zero(A.dims)
        for sm in summands:
            total_proj = blocks_add(total_proj, sm.projection)
        if not np.allclose(blocks_vec(total_proj), unit_vec, atol=1e-7):
            continue
        summands.sort(key=_summand_sort_key)
        for i, sm in enumerate(summands):
            sm.index = i
            sm.minimal_projection = _minimal_projection(A, sm, rng)
        return CentralDecomposition(algebra=A, summands=summands)
    raise DecompositionError(
        "no generic central element produced a certified decomposition"
    )


def _minimal_projection(A, summand, rng):
    """Projection f in the summand with dim(fAf) = 1."""
    if summand.d == 1:
        return summand.projection
    proj = summand.projection
    for _ in range(MAX_RESAMPLE):
        x = A.random_hermitian(rng)
        y = blocks_mul(blocks_mul(proj, x), proj)
        y = blocks_scale(0.5, blocks_add(y, blocks_adj(y)))
        nrm = blocks_norm(y)
        if nrm == 0:
            continue
        y = blocks_add(blocks_scale(1.0 / nrm, y), proj, 3.0)
        projections, means = _spectral_projections(A.dims, y)
        candidates = [(p, m) for p, m in zip(projections, means) if abs(m) > 1.0]
        if len(candidates) != summand.d:
            continue
        f = candidates[0][0]
        if not A.contains(f, 100 * RANK_TOL):
            continue
        corner_rows = [
            blocks_vec(blocks_mul(blocks_mul(f, b), f)) for b in A.basis
        ]
        if onb(np.array(corner_rows)).shape[0] != 1:
            continue
        return f
    raise DecompositionError(
        "no generic corner element produced a minimal projection"
    )
