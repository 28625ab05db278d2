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
    return _unvec(vec, [(d, d) for d in dims])


def _unvec(vec, shapes):
    out = []
    pos = 0
    for shape in shapes:
        size = int(np.prod(shape))
        out.append(np.asarray(vec[pos:pos + size]).reshape(shape))
        pos += size
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
    """Stack shapes and vector positions of the support blocks.

    The classes of each level are grouped by size into one
    (count, s, s) stack per (level, size), each class in ascending
    index order. pos[i] is the position in blocks_vec of the full
    element of entry i of the compressed vector.
    """
    numbered = blocks_unvec(np.arange(sum(d * d for d in dims)), dims)
    stacks = []
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
            stacks.append(numbered[lev][idx[:, :, None], idx[:, None, :]])
    return [x.shape for x in stacks], blocks_vec(stacks).astype(int)


def star_closure(dims, gens, unit=None, max_dim=4096):
    """Close generators under span, products, and adjoints.

    The ambient unit (or the given one, for corner algebras) is always
    included, so the result is unital. Growth beyond max_dim raises.

    The closure runs on the support blocks of the unit and the
    generators (see the module docstring): it is the same algebra, and
    its vectors are the full-length ones with exact zeros dropped.
    Candidates a*b and b*a, for a new and b over the basis so far, are
    projected off the orthonormal rows by two rounds of Gram-Schmidt;
    one below the 1e-9 floor or with a relative residual below RANK_TOL
    is dropped. The basis and its orthonormal rows are scattered back to
    full blocks and full length once, at the end.
    """
    dims = tuple(dims)
    if unit is None:
        unit = blocks_eye(dims)
    shapes, pos = _support_layout(dims, [unit] + list(gens))

    def compress(x):
        return _unvec(blocks_vec(x)[pos].astype(np.complex128), shapes)

    pool = [compress(unit)]
    for gen in gens:
        pool.append(compress(gen))
        pool.append(blocks_adj(pool[-1]))
    basis = []
    rows = np.empty((min(len(pos), 64), len(pos)), dtype=np.complex128)

    def absorb(cand, tol=RANK_TOL, floor=1e-9):
        nonlocal rows
        w = blocks_vec(cand)
        scale = float(np.linalg.norm(w))
        if scale <= floor:
            return None
        q = rows[:len(basis)]
        for _ in range(2):
            w -= np.conj(q @ np.conj(w)) @ q
        resid = float(np.linalg.norm(w))
        if resid <= tol * scale:
            return None
        if len(basis) == len(rows):
            rows = np.concatenate([rows, np.empty_like(rows)])
        rows[len(basis)] = w / resid
        # keep stored basis elements at unit scale so later spectral
        # cuts see commutators of comparable size
        basis.append(blocks_scale(1.0 / scale, cand))
        return basis[-1]

    fresh = [x for x in map(absorb, pool) if x is not None]
    while fresh:
        new = []
        for a in fresh:
            for b in list(basis):
                for cand in (blocks_mul(a, b), blocks_mul(b, a)):
                    hit = absorb(cand)
                    if hit is None:
                        continue
                    new.append(hit)
                    if len(basis) > max_dim:
                        raise ClosureOverflowError(
                            "closure exceeded %d dimensions" % max_dim
                        )
        fresh = new
    length = sum(d * d for d in dims)
    full_onb = np.zeros((len(basis), length), dtype=np.complex128)
    full_onb[:, pos] = rows[:len(basis)]
    full = np.zeros((len(basis), length), dtype=np.complex128)
    for row, b in zip(full, basis):
        row[pos] = blocks_vec(b)
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
