"""Structure analysis of finite-dimensional *-algebras of block matrices.

Elements live in a fixed block space: a direct sum of full matrix
blocks, one per window level. A *-algebra has one form (StarAlgebra):
orthonormal rows over the distinct entries of its support, with the
map of those entries to their copies. Its elements, the unit and the
central projections included, are coordinate vectors over the rows,
and StarAlgebra.render turns one into blocks where needed. The analysis
follows the standard route: find the algebra the generators generate
and put it on matrix units, one system per matrix summand. A summand is
its central projection z, the sum of its diagonal units: its size d and
its ambient rank are traces of z, and so are the multiplicities of a
*-homomorphism between two such algebras (tower._fiber_multiplicities).

Generators come in as sparse entries, (positions, values) pairs over
the blocks_vec layout, and the algebra they generate is found on the
support blocks of its input. Per level, the indices i and j are joined
when some generator or the unit has an entry at (i, j); the classes of
that relation (one min-label propagation over the entry pairs) split
the level into diagonal blocks. Sums, products and adjoints of
elements supported on those blocks stay on them, and every entry off
them is an exact 0.0, so the algebra is computed on the compressed
blocks alone. A dense generator set is one class per level and takes
the same route.

Many of those blocks are copies: eventually periodic weights repeat
the same entries at many levels and positions, so class blocks of one
size hold bit-identical entries in the unit and in every generator.
Products, sums and adjoints act block by block, so copies stay copies,
and keeping one block per distinct content, found by exact byte
equality, is an injective *-homomorphism that needs no tolerance. The
algebra is found and kept on the distinct blocks only.

On the distinct blocks the algebra is found by the bicommutant
theorem: a unital *-algebra is the commutant of its commutant. The
commutant is the set of block matrices X with X g = g X for every
generator and adjoint g; it splits into the intertwiners of the pairs
(t, u) of distinct blocks, the nullspace of one small Gram matrix per
pair (_commutant_grams). Often the commutant is one scalar per block,
which one batched eigvalsh per block size decides (_scalar_commutant;
by Schur's lemma blocks of different sizes need no check), and the
rows are the matrix units of the distinct blocks: the closed form,
whose rows stay implicit. Otherwise (block weights, reducible blocks)
the algebra is the nullspace of one Gram matrix of the constraints
Y_t X = X Y_u over the intertwiners X (_bicommutant). Both nullspaces
are cut on singular values, refined from the Gram's eigenvectors on
their images (_null), and the result must hold the unit and every
generator, or the call raises. No product of two elements is formed.
The rows come out orthonormal with each distinct entry weighted by its
number of copies, as they would be at full length.

A compression onto block-space positions, as a corner by a projection
of the algebra, is read off the map (_compress_units): two exact
integer checks hold it to the same S x S entries of every distinct
block on all of its copies, and it keeps the algebra's rows there,
orthonormalized. On matrix units it is M_|S| on each block that keeps
any.

Every algebra is decomposed one way: on matrix units, with exact
structure constants, central projections and summand ideals
(_unit_structure). The closed form is on its units already. General
rows are first rotated onto units read off the algebra's own distinct
blocks (_rotate), as in the block-diagonalization of Murota, Kanno,
Kojima and Kojima (Japan J. Indust. Appl. Math. 27, 2010): the
eigenspaces of one generic self-adjoint element, grouped across blocks,
are the minimal projections, the nonzero compressions between them
join them into summands, and one compression per pair pairs them by a
unitary on every block. The rotation is certified, and a failed
certificate raises; a wrong answer is never returned silently.

The integers, the sizes d and ambient ranks of the summands, are counts
of minimal projections and of the eigenvalues in them, the traces of
certified projections, never numerical ranks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

from .errors import ClosureOverflowError, DecompositionError
from .windows import RANK_TOL, onb

CHUNK = 1 << 20  # entries in one batch of images in _null's refinement
CLUSTER_GAP = 1e-6
INT_TOL = 1e-6


# -- block elements ----------------------------------------------------------


def blocks_vec(a):
    """The blocks raveled and joined; leading axes of the blocks stay."""
    if not a:
        return np.zeros(0, dtype=np.complex128)
    return np.concatenate(
        [x.reshape(x.shape[:-2] + (math.prod(x.shape[-2:]),)) for x in a], axis=-1
    )


def blocks_unvec(vec, dims):
    """The d x d blocks of a blocks_vec layout; leading axes of vec stay."""
    vec = np.asarray(vec)
    out = []
    pos = 0
    for d in dims:
        out.append(vec[..., pos:pos + d * d].reshape(vec.shape[:-1] + (d, d)))
        pos += d * d
    return out


# -- star algebras ------------------------------------------------------------


class StarAlgebra:
    """A unital *-subalgebra of a block space, on its distinct entries.

    Entry j of the map sits at position pos[j] of blocks_vec and is a
    copy of distinct entry copy[j], one of copies[copy[j]]; stacks lists
    (offset, count, s) per stack of distinct s x s blocks, the layout of
    the distinct entries. Row i of rows is the i-th element of an
    orthonormal basis, its values on the distinct entries times
    sqrt(copies), so that the rows are orthonormal for tr(a^* b) on the
    block space. An element is its coordinate vector over the rows, and
    unit holds the unit's. On the matrix units of the distinct blocks
    (the closed form of star_closure and its compressions) rows is None,
    and rows_at reads the unit rows without forming them. Every reader
    works off the map; no full-length row is formed.
    """

    def __init__(self, dims, unit, stacks, pos, copy, copies, rows=None):
        self.dims = tuple(dims)
        self.unit = unit
        self.stacks, self.pos, self.copy, self.copies = stacks, pos, copy, copies
        self.rows = rows

    @property
    def dim(self):
        return len(self.copies) if self.rows is None else len(self.rows)

    def rows_at(self, entries):
        """The columns of the weighted rows at the given distinct entries."""
        if self.rows is not None:
            return self.rows[:, entries]
        out = np.zeros((self.dim, len(entries)), dtype=np.complex128)
        out[entries, np.arange(len(entries))] = 1
        return out

    def _entry_columns(self, entries):
        """Block-space columns of the basis at copies of the given entries."""
        return self.rows_at(entries) / np.sqrt(self.copies[entries])

    @cached_property
    def entries(self):
        """(pos, copy) of the map, in ascending order of position."""
        order = np.argsort(self.pos, kind="stable")
        return self.pos[order], self.copy[order]

    def lookup(self, positions):
        """(entry, hit): the distinct entry at each block-space position.

        hit marks the positions that hold an entry of the map; entry is
        arbitrary where it is False.
        """
        pos, copy = self.entries
        at = np.minimum(np.searchsorted(pos, positions), len(pos) - 1)
        return copy[at], pos[at] == positions

    def support_columns(self, start, end):
        """(pos, mat): the support positions in [start, end), and the
        block-space columns of the basis there."""
        pos, copy = self.entries
        cut = slice(*np.searchsorted(pos, [start, end]))
        return pos[cut], self._entry_columns(copy[cut])

    def columns(self, positions):
        """The block-space columns of the basis at the given positions."""
        entry, hit = self.lookup(positions)
        out = np.zeros((self.dim, len(positions)), dtype=np.complex128)
        out[:, hit] = self._entry_columns(entry[hit])
        return out

    def coordinates(self, values):
        """(coords, off): the coordinates of elements given by their
        weighted values, one element per row of values (leading axes
        stay), and the norm of each element's part off the span of the
        rows."""
        if self.rows is None:
            return values, np.zeros(values.shape[:-1])
        coords = values @ self.rows.conj().T
        return coords, np.linalg.norm(values - coords @ self.rows, axis=-1)

    def render(self, coeffs):
        """Blocks of the element with the given coordinates."""
        coeffs = np.asarray(coeffs)
        values = coeffs if self.rows is None else coeffs @ self.rows
        full = np.zeros(
            coeffs.shape[:-1] + (sum(d * d for d in self.dims),), dtype=np.complex128
        )
        full[..., self.pos] = (values / np.sqrt(self.copies))[..., self.copy]
        return blocks_unvec(full, self.dims)

    @cached_property
    def _diagonal(self):
        """The columns of the basis on the block diagonals, read once."""
        return self.columns(_diagonal_positions(self.dims))

    def diagonal(self, coeffs):
        """Diagonal entries of the blocks of the element, levels joined."""
        return coeffs @ self._diagonal


def _diagonal_positions(dims):
    """Positions in blocks_vec of the diagonal entries of every block."""
    starts = np.cumsum([0] + [d * d for d in dims])
    return np.concatenate(
        [off + np.arange(d) * (d + 1) for off, d in zip(starts, dims)]
    )


def _components(rows, cols, n):
    """Class label of each of n indices under the pairs (rows[i], cols[i]).

    Min-label propagation with pointer jumping; each class ends up
    labelled by its smallest index, and an index in no pair is a class
    of its own.
    """
    lab = np.arange(n)
    while True:
        low = np.minimum(lab[rows], lab[cols])
        new = lab.copy()
        np.minimum.at(new, rows, low)
        np.minimum.at(new, cols, low)
        new = new[new]
        if np.array_equal(new, lab):
            return lab
        lab = new


def _support_layout(dims, positions):
    """Stacks, transpose and vector positions of the support blocks.

    positions lists, in any order and with repeats, the positions in
    blocks_vec of the entries that may be nonzero. Per level, indices i
    and j are joined when some listed entry sits at (i, j); every index
    is in a class, its own at least. The classes of each level are
    grouped by size into one (count, s, s) stack per (level, size), in
    ascending order of size and then of smallest index, each class in
    ascending index order; a compressed vector is the concatenation of
    the raveled stacks. stacks lists (offset, count, s) per stack, tpos
    is the permutation that transposes every block of a compressed
    vector, and pos[i] is the position in blocks_vec of the full element
    of entry i of the compressed vector.
    """
    dims = np.asarray(dims, dtype=int)
    starts = np.concatenate([[0], np.cumsum(dims * dims)])
    first = np.concatenate([[0], np.cumsum(dims)])
    lev = np.searchsorted(starts, positions, side="right") - 1
    i, j = np.divmod(positions - starts[lev], dims[lev])
    lab = _components(first[lev] + i, first[lev] + j, first[-1])
    order = np.argsort(lab, kind="stable")
    _, begin, sizes = np.unique(lab[order], return_index=True, return_counts=True)
    levels = np.searchsorted(first, order[begin], side="right") - 1
    pieces = []
    for lv, d in enumerate(dims):
        here = levels == lv
        for s in np.unique(sizes[here]):
            sel = begin[here & (sizes == s)]
            idx = order[sel[:, None] + np.arange(s)] - first[lv]
            pieces.append(starts[lv] + idx[:, :, None] * d + idx[:, None, :])
    return _stack_layout(pieces)


def _stack_layout(pieces):
    """Stacks, transpose and flat positions of (count, s, s) int stacks.

    pieces[i][b] holds the positions, in some vector, of the entries of
    block b of stack i; the layout concatenates the raveled stacks.
    """
    stacks = []
    off = 0
    for x in pieces:
        c, s, _ = x.shape
        stacks.append((off, c, s))
        off += x.size
    flat = blocks_vec([x.ravel() for x in pieces])
    return stacks, _transpose(stacks), flat.astype(int)


def _transpose(stacks):
    """The permutation of a stack layout that transposes every block."""
    return blocks_vec([
        off + np.arange(c * s * s).reshape(c, s, s).swapaxes(1, 2).ravel()
        for off, c, s in stacks
    ]).astype(int)


def _distinct_blocks(stacks, vecs):
    """Layout of one block per distinct content of the class blocks.

    vecs holds compressed vectors, one per row, in the layout of stacks.
    The class blocks of each size s, over all levels, are compared by
    the bytes of their entries in every row, one dict lookup per block,
    and numbered in order of first appearance; blocks that differ in any
    bit, -0.0 against 0.0 included, stay apart. Returns (stacks, tpos,
    rep, copy, copies): the stacks and transpose of the distinct blocks,
    one stack per size; rep, the compressed position of each distinct
    entry in its first copy; copy, the distinct position of each
    compressed entry, so that x[:, copy] puts every copy back; and
    copies, how many class blocks share each distinct entry.
    """
    pieces = []
    groups = []
    for s in sorted({s for _, _, s in stacks}):
        blocks = np.concatenate([
            np.arange(off, off + c * s * s).reshape(c, s * s)
            for off, c, t in stacks
            if t == s
        ])
        content = vecs[:, blocks].swapaxes(0, 1).reshape(len(blocks), -1)
        ids = {}
        inv = np.array(
            [ids.setdefault(row.tobytes(), len(ids)) for row in content],
            dtype=int,
        )
        _, first, count = np.unique(inv, return_index=True, return_counts=True)
        pieces.append(blocks[first].reshape(-1, s, s))
        groups.append((blocks, inv, count))
    stacks, tpos, rep = _stack_layout(pieces)
    copy = np.empty(vecs.shape[1], dtype=int)
    copies = [np.zeros(0, dtype=int)]
    for (off, _, s), (blocks, inv, count) in zip(stacks, groups):
        copy[blocks] = off + inv[:, None] * s * s + np.arange(s * s)
        copies.append(np.repeat(count, s * s))
    return stacks, tpos, rep, copy, np.concatenate(copies)


def _kron(a, b):
    """Kronecker products of (..., m, m) and (..., n, n) stacks."""
    m, n = a.shape[-1], b.shape[-1]
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (m * n, m * n))


def _commutant_grams(stacks, pool, i, j):
    """Gram matrices whose nullspaces are the intertwiners of pool.

    pool holds compressed vectors in the layout of stacks, closed under
    adjoints. For stacks i and j of sizes s and r, a block t of stack i
    and a block u of stack j, the intertwiners X (s x r) with g_t X =
    X g_u for every g in pool are the nullspace of sum_g K_g^H K_g, with
    K_g = kron(I, g_u^T) - kron(g_t, I) on row-major vec(X). All of
    them, (c_i, c_j, s r, s r), are assembled from per-block sums and
    one cross product of the pool, never from the K_g.
    """
    (oi, ci, s), (oj, cj, r) = stacks[i], stacks[j]
    at = pool[:, oi:oi + ci * s * s]
    au = pool[:, oj:oj + cj * r * r]
    gt = at.reshape(len(pool), ci, s, s)
    gu = au.reshape(len(pool), cj, r, r)
    # per block, the pool sums of kron(I, (g_u g_u^H)^T) and of
    # kron(g_t^H g_t, I), the squares of the two terms of K_g
    left = _kron(np.eye(s), np.einsum("gubx,gudx->udb", gu, gu.conj()))
    right = _kron(np.einsum("gtxa,gtxc->tac", gt.conj(), gt), np.eye(r))
    # per pair, the pool sum of kron(g_t, conj(g_u)), the cross term
    cross = (at.T @ au.conj()).reshape(ci, s, s, cj, r, r)
    cross = cross.transpose(0, 3, 1, 4, 2, 5).reshape(ci, cj, s * r, s * r)
    return left[None] + right[:, None] - cross - cross.conj().swapaxes(-1, -2)


def _scalar_commutant(stacks, pool):
    """Whether the commutant of pool on the distinct blocks is scalar.

    The Grams of the pairs of blocks of one size are decided by one
    batched eigvalsh per size: the commutant is one scalar per block
    when t = u has exactly one eigenvalue at or below the cut RANK_TOL
    times the largest one (the scalars) and t != u has none. That cuts
    squared singular values, so it errs towards failing, and a failure
    goes to the general route, which cuts finer (_null). Intertwiners
    between irreducible blocks of different sizes vanish (Schur's
    lemma), so sizes are not paired.
    """
    for i, (_, c, _) in enumerate(stacks):
        vals = np.linalg.eigvalsh(_commutant_grams(stacks, pool, i, i))
        low = np.sum(vals <= RANK_TOL * vals.max(), axis=-1)
        if not np.array_equal(low, np.eye(c, dtype=int)):
            return False
    return True


def _null(gram, floor, image_gram):
    """Orthonormal null vectors of a map K from gram = K^H K, batched.

    Rounding blurs the eigenvalues of gram, the squared singular values
    of K, below about eps times the largest, so the cut RANK_TOL on
    singular values cannot be read off them. The eigenvectors with
    eigenvalue at most RANK_TOL top, top = max(floor, the largest), are
    candidates; image_gram(v) is the Gram of their images K v, accurate
    at its own scale, and its eigenvectors with eigenvalue at most
    RANK_TOL^2 top are kept. Short items are padded with zero columns.
    """
    vals, vecs = np.linalg.eigh(gram)
    top = max(floor, vals.max())
    v = vecs[..., :np.sum(vals <= RANK_TOL * top, axis=-1).max()]
    if not v.shape[-1]:
        return v
    mu, w = np.linalg.eigh(image_gram(v))
    keep = mu <= RANK_TOL ** 2 * top
    return v @ (w * keep[..., None, :])[..., :keep.sum(axis=-1).max()]


def _intertwiners(stacks, pool, i, j):
    """Orthonormal bases (c_i, c_j, m, s, r) of the intertwiners of pool.

    The Grams are those of _commutant_grams; the images g_t X - X g_u
    are formed a few pool elements at a time, CHUNK entries at most.
    """
    (oi, ci, s), (oj, cj, r) = stacks[i], stacks[j]
    gt = pool[:, oi:oi + ci * s * s].reshape(-1, ci, s, s)
    gu = pool[:, oj:oj + cj * r * r].reshape(-1, cj, r, r)

    def image_gram(v):
        x = np.moveaxis(v.reshape(ci, cj, s, r, -1), -1, 2)
        step = max(1, CHUNK // x.size)
        out = 0
        for g in range(0, len(pool), step):
            d = np.einsum("gtab,tukbc->gtukac", gt[g:g + step], x)
            d -= np.einsum("tukab,gubc->gtukac", x, gu[g:g + step])
            out = out + np.einsum("gtuksr,gtulsr->tukl", d.conj(), d)
        return out

    x = _null(_commutant_grams(stacks, pool, i, j), 0.0, image_gram)
    return np.moveaxis(x.reshape(ci, cj, s, r, -1), -1, 2)


def _add_block_diag(out, y):
    """Add the block-diagonal matrix of a (c, m, m) stack to out in place."""
    c, m, _ = y.shape
    out.reshape(c, m, c, m)[np.arange(c), :, np.arange(c)] += y


def _bicommutant(stacks, pool):
    """Rows of the bicommutant of pool on the distinct blocks.

    A unital *-algebra is its own bicommutant, so + Y_t is in the
    algebra exactly when Y_t X = X Y_u for every intertwiner X from
    block u to block t: the null vectors of the maps C_X: Y -> Y_t X -
    X Y_u, X over the bases of _intertwiners for every ordered pair of
    stacks. Their L x L Gram sum_X C_X^H C_X, L the number of distinct
    entries, is accumulated one pair of stacks at a time from the sums
    of X X^H, of X^H X and of kron(X, conj(X)), and the images C_X Y a
    few X at a time; the constraint rows are never stacked. Each X has
    norm 1, so _null cuts relative to max(1, the largest eigenvalue):
    the Gram is all rounding when the commutant is scalar.
    """
    length = sum(c * s * s for _, c, s in stacks)
    gram = np.zeros((length, length), dtype=np.complex128)
    pairs = {}
    for i, j in product(range(len(stacks)), repeat=2):
        (oi, ci, s), (oj, cj, r) = stacks[i], stacks[j]
        t = slice(oi, oi + ci * s * s)
        u = slice(oj, oj + cj * r * r)
        if j < i:
            # pool is closed under adjoints, so the X^H of (j, i) serve
            x = pairs[j, i][2].transpose(1, 0, 2, 4, 3).conj()
        else:
            x = _intertwiners(stacks, pool, i, j)
        pairs[i, j] = (t, u, x)
        xx = np.einsum("tumac,tumbc->tba", x, x.conj())
        hh = np.einsum("tumac,tumad->ucd", x.conj(), x)
        cross = np.einsum("tumac,tumbd->tabucd", x, x.conj())
        _add_block_diag(gram[t, t], _kron(np.eye(s), xx))
        _add_block_diag(gram[u, u], _kron(hh, np.eye(r)))
        gram[t, u] -= cross.reshape(ci * s * s, cj * r * r)
        gram[u, t] -= cross.reshape(ci * s * s, cj * r * r).conj().T

    def image_gram(v):
        out = 0
        for t, u, x in pairs.values():
            ci, cj, m, s, r = x.shape
            yt = v[t].reshape(ci, s, s, -1)
            yu = v[u].reshape(cj, r, r, -1)
            step = max(1, CHUNK // (ci * cj * s * r * v.shape[1]))
            for n in range(0, m, step):
                xn = x[:, :, n:n + step]
                d = np.einsum("tack,tumcb->tumabk", yt, xn)
                d -= np.einsum("tumac,ucbk->tumabk", xn, yu)
                d = d.reshape(-1, v.shape[1])
                out = out + d.conj().T @ d
        return out

    return _null(gram, 1.0, image_gram).T


def star_closure(dims, gens, max_dim=4096):
    """The unital *-algebra that the generators generate.

    Each generator is a pair (positions, values): the positions in
    blocks_vec of its nonzero entries and their values; every other
    entry is an exact zero. The identity of the block space is always
    included, so the result is unital. Growth beyond max_dim raises
    ClosureOverflowError; the general route holds L x L Grams, L the
    number of distinct entries, before that check.

    The algebra is found on one block per distinct content among the
    support class blocks of the unit and the generators, whose entries
    are placed by one searchsorted per generator, as the module
    docstring sets out: the matrix units of the distinct blocks when
    their commutant is scalar (_scalar_commutant), and otherwise the
    bicommutant (_bicommutant), orthonormalized once with each entry
    weighted by its copy count (onb) and certified to hold the unit,
    the generators and their adjoints, or DecompositionError is raised.
    Either way the result keeps the map of the distinct entries to their
    copies, and the closed form keeps its unit rows implicit. The unit's
    coordinates are read off the distinct entries by their copy counts.
    """
    dims = tuple(dims)
    diag = _diagonal_positions(dims)
    stacks, _, pos = _support_layout(
        dims, np.concatenate([diag] + [p for p, _ in gens])
    )
    order = np.argsort(pos)
    vecs = np.zeros((1 + len(gens), len(pos)), dtype=np.complex128)
    for vec, (p, values) in zip(vecs, [(diag, 1.0), *gens]):
        vec[order[np.searchsorted(pos[order], p)]] = values
    stacks, tpos, rep, copy, copies = _distinct_blocks(stacks, vecs)
    gen = vecs[1:, rep]
    pool = np.stack([gen, gen[:, tpos].conj()], axis=1).reshape(-1, len(rep))
    root = np.sqrt(copies)
    rows = None
    if not _scalar_commutant(stacks, pool):
        # the weighted rows have singular values in [1, sqrt(max copies)],
        # so onb keeps them all
        rows = onb(_bicommutant(stacks, pool) * root)
        held = np.vstack([vecs[:1, rep], pool]) * root
        miss = np.linalg.norm(held - held @ rows.conj().T @ rows, axis=1)
        if np.any(miss > RANK_TOL * np.linalg.norm(held, axis=1)):
            raise DecompositionError("the algebra found misses a generator")
    if (len(rep) if rows is None else len(rows)) > max_dim:
        raise ClosureOverflowError("closure exceeded %d dimensions" % max_dim)
    # a distinct entry stands for `copies` entries of the full vector, so
    # the unit's weighted values are root on its diagonal entries
    unit = root * vecs[0, rep]
    if rows is not None:
        unit = rows.conj() @ unit
    return StarAlgebra(dims, unit, stacks, pos, copy, copies, rows)


# -- central decomposition ----------------------------------------------------


@dataclass
class Summand:
    """One matrix summand M_d of a finite-dimensional algebra.

    The summand is its central projection z, a coordinate vector over
    the rows of the algebra; M_d acts ambient_rank / d times.
    """

    z: np.ndarray       # central projection
    d: int              # matrix size
    ambient_rank: int   # rank of z in the block space

    @property
    def multiplicity(self):
        return self.ambient_rank // self.d


@dataclass
class CentralDecomposition:
    """An algebra on its matrix units, split into its summands.

    T and S are its structure constants, e_i e_j = sum_k T[i, j, k] e_k
    and e_i^* = sum_k S[i, k] e_k, and ideals[i] holds the read-only
    coordinate rows of the ideal of summand i: its own units.
    """

    algebra: StarAlgebra
    summands: list
    T: np.ndarray
    S: np.ndarray
    ideals: list

    @property
    def dims(self):
        return [s.d for s in self.summands]


def integer_traces(traces, error, what):
    """Traces of certified projections, which are their ranks, as ints.

    Raises error unless every trace is within INT_TOL of an integer.
    """
    traces = np.asarray(traces)
    ints = np.rint(traces.real)
    if np.any(np.abs(traces - ints) > INT_TOL):
        raise error("the traces %s of %s are not integers" % (traces, what))
    return ints.astype(int)


def _summand_order(A, summands):
    """The canonical order of the summands, as indices.

    Summands are ordered by d, ambient rank and the rounded diagonal of
    the rendered z, and ties by the whole rounded rendered z. Each key
    is the same in every basis of A.
    """
    keys = [
        (sm.d, sm.ambient_rank, tuple(np.round(A.diagonal(sm.z).real, 6)))
        for sm in summands
    ]
    if len(set(keys)) < len(keys):
        keys = [
            key + tuple(np.round(blocks_vec(A.render(sm.z)), 6).view(float))
            for key, sm in zip(keys, summands)
        ]
    return sorted(range(len(summands)), key=keys.__getitem__)


def _generic(n):
    """Weights cos(i + 1) of a generic combination of n elements: fixed,
    and with no ratio among the small rationals that copy counts make."""
    return np.cos(np.arange(n) + 1.0)


def _pairing(ys, copies):
    """The unitaries U_b of compressions y_b = c U_b, c > 0 common.

    ys holds one square compression per block and copies the copy count
    of each block. c is their norm over the ranks, both counted on all
    copies, and every U_b must be unitary within RANK_TOL, or the call
    raises DecompositionError.
    """
    c = math.sqrt(
        sum(k * np.vdot(y, y).real for y, k in zip(ys, copies))
        / sum(k * len(y) for y, k in zip(ys, copies))
    )
    us = [y / c for y in ys]
    for u in us:
        if np.linalg.norm(u.conj().T @ u - np.eye(len(u))) > RANK_TOL:
            raise DecompositionError(
                "a pairing of minimal projections is not unitary"
            )
    return us


def _rotate(A):
    """A on matrix units read off its own distinct blocks.

    h = sum_i w_i (x_i + x_i^*), x_i the basis elements and w _generic,
    is a generic self-adjoint element: one eigh per stack splits each
    distinct block into its eigenspaces, and the eigenvalues grouped
    across blocks (gaps above CLUSTER_GAP) are the minimal projections
    e_k. Two of them are in one summand when e_k x_i e_l is not zero
    (cut at RANK_TOL) for some i. Within a summand the largest
    compression e_1 x_i e_j is c U_b on every block b (_pairing), and V_j
    is rotated by U_b, so that e_1j = sum_b V_1 V_j^* are matrix units;
    each unit is divided by the root of its ambient multiplicity c_k,
    the sum over blocks of copies times rank, so that the units are
    orthonormal rows. The sizes d_k^2 must add up to dim A and every
    unit row must lie within RANK_TOL of A's rows, or the call raises
    DecompositionError: orthonormal matrix units in A that span it are
    A, closed under products and adjoints, and summand by summand its
    ideals.

    Returns (B, first, sizes, mult): B is A with the unit rows, and the
    units of summand k are rows first[k] + x sizes[k] + y, of ambient
    multiplicity mult[k].
    """
    x = A.rows / np.sqrt(A.copies)
    hv = _generic(A.dim) @ x
    # per distinct block: its offset, size, copies and eigenvectors of h
    blocks, vals = [], []
    for off, c, s in A.stacks:
        h = hv[off:off + c * s * s].reshape(c, s, s)
        w, v = np.linalg.eigh(h + h.conj().swapaxes(1, 2))
        vals.append(w.ravel())
        for b in range(c):
            o = off + b * s * s
            blocks.append((o, s, int(A.copies[o]), v[b]))
    vals = np.concatenate(vals)
    order = np.argsort(vals, kind="stable")
    cluster = np.empty(len(vals), dtype=int)
    cluster[order] = np.cumsum(np.diff(vals[order], prepend=-np.inf) > CLUSTER_GAP) - 1
    n = cluster.max() + 1
    labels = np.split(cluster, np.cumsum([s for _, s, _, _ in blocks])[:-1])
    # the squared norms of e_k x_i e_l on all copies, per basis element
    norms = np.zeros((A.dim, n * n))
    for (o, s, k, v), lab in zip(blocks, labels):
        y = v.conj().T @ x[:, o:o + s * s].reshape(-1, s, s) @ v
        pair = (lab[:, None] * n + lab).ravel()
        np.add.at(norms, (slice(None), pair), k * np.abs(y.reshape(len(y), -1)) ** 2)
    norms = norms.reshape(-1, n, n)
    linked = np.argwhere(norms.max(axis=0) > RANK_TOL ** 2)
    summand = _components(linked[:, 0], linked[:, 1], n)
    rows, sizes, mult = [], [], []
    for lead in np.unique(summand):
        members = np.flatnonzero(summand == lead)
        d = len(members)
        # the blocks the summand sits on, with the eigenvectors of each
        # of its minimal projections there
        parts = [
            (o, s, k, [v[:, lab == m] for m in members])
            for (o, s, k, v), lab in zip(blocks, labels)
            if np.isin(lab, members).any()
        ]
        for j in range(1, d):
            i = norms[:, members[0], members[j]].argmax()
            ys = []
            for o, s, _, vs in parts:
                if vs[0].shape != vs[j].shape:
                    raise DecompositionError(
                        "a pairing of minimal projections is not square"
                    )
                ys.append(vs[0].conj().T @ x[i, o:o + s * s].reshape(s, s) @ vs[j])
            for (*_, vs), u in zip(parts, _pairing(ys, [k for _, _, k, _ in parts])):
                vs[j] = vs[j] @ u.conj().T
        c = sum(k * vs[0].shape[1] for _, _, k, vs in parts)
        units = np.zeros((d * d, len(A.copies)), dtype=np.complex128)
        for o, s, k, vs in parts:
            vs = np.stack(vs)
            e = np.einsum("iam,jbm->ijab", vs, vs.conj())
            units[:, o:o + s * s] = e.reshape(d * d, s * s) * math.sqrt(k / c)
        rows.append(units)
        sizes.append(d)
        mult.append(c)
    rows = np.concatenate(rows)
    if len(rows) != A.dim:
        raise DecompositionError(
            "summand sizes do not add up to the dimension %d" % A.dim
        )
    off = np.linalg.norm(rows - rows @ A.rows.conj().T @ A.rows, axis=1)
    if np.any(off > RANK_TOL):
        raise DecompositionError("a matrix unit is off the algebra")
    sizes, mult = np.array(sizes), np.array(mult)
    first = np.cumsum(sizes * sizes) - sizes * sizes
    unit = np.zeros(A.dim, dtype=np.complex128)
    for f, d, c in zip(first, sizes, mult):
        unit[f + np.arange(d) * (d + 1)] = math.sqrt(c)
    B = StarAlgebra(A.dims, unit, A.stacks, A.pos, A.copy, A.copies, rows)
    return B, first, sizes, mult


def central_decomposition(A):
    """Split a finite-dimensional *-algebra into matrix summands.

    Every summand is read off matrix units, exactly (_unit_structure).
    The closed form is on its units already, one summand per distinct
    block; general rows are rotated onto units read off A's own
    distinct blocks first (_rotate), which is certified or raises
    DecompositionError. The result's algebra is A on its units. A
    summand is its central projection z, the sum of the root of its
    ambient multiplicity times its diagonal units, with d and the
    ambient rank; the multiplicities of a map out of A are traces of the
    images of the z. Nothing is random, and the summands come back in a
    canonical order that only depends on the projections
    (_summand_order).
    """
    if A.rows is None:
        first = np.array(
            [off + b * s * s for off, c, s in A.stacks for b in range(c)], dtype=int
        )
        sizes = np.array([s for _, c, s in A.stacks for _ in range(c)], dtype=int)
        mult = A.copies[first]
    else:
        A, first, sizes, mult = _rotate(A)
    T, S, summands, ideals = _unit_structure(A, first, sizes, mult)
    return CentralDecomposition(A, summands, T, S, ideals)


# -- compressions --------------------------------------------------------------


def _compress_units(A, dims, positions):
    """The compression of an algebra onto block-space positions.

    positions lists distinct positions in A's blocks_vec; position i is
    entry i of the compression, a vector of the block space of dims. A
    compression by a projection of A, as a corner by u_xi u_xi^*, keeps
    an S x S part of each distinct block on all of its copies. Two exact
    integer checks hold it to that, or DecompositionError is raised:
    every distinct entry has all of its copies among the positions or
    none, and the entries kept in each distinct block form a square.
    The compression keeps those entries, one stack (offset, 1, |S|) per
    block, and A's rows there, orthonormalized (onb); on matrix units
    they stay implicit. No dense row is formed.
    """
    entry, hit = A.lookup(positions)
    entry = entry[hit]
    count = np.bincount(entry, minlength=len(A.copies))
    kept = count > 0
    if not np.array_equal(count[kept], A.copies[kept]):
        raise DecompositionError("the positions split the copies of a block")
    new = np.cumsum(kept) - 1
    stacks = []
    on_diagonal = np.zeros(len(kept), dtype=bool)
    for off, c, s in A.stacks:
        mask = kept[off:off + c * s * s].reshape(c, s, s)
        diag = mask[:, np.arange(s), np.arange(s)]
        if not np.array_equal(mask, diag[:, :, None] & diag[:, None, :]):
            raise DecompositionError(
                "the positions keep a part of a block that is not square"
            )
        blocks = np.flatnonzero(diag.any(axis=1))
        first = mask[blocks].reshape(len(blocks), s * s).argmax(axis=1)
        first = new[off + blocks * s * s + first].tolist()
        sizes = diag[blocks].sum(axis=1).tolist()
        stacks.extend((o, 1, d) for o, d in zip(first, sizes))
        entries = np.arange(c)[:, None] * s * s + np.arange(s) * (s + 1)
        on_diagonal[off + entries] = True
    copies = A.copies[kept]
    # the unit's weighted values, sqrt(copies) on the kept diagonal entries
    unit = (np.sqrt(A.copies) * on_diagonal)[kept].astype(np.complex128)
    rows = None
    if A.rows is not None:
        rows = onb(A.rows[:, kept])
        unit = rows.conj() @ unit
    pos = np.flatnonzero(hit)
    return StarAlgebra(dims, unit, stacks, pos, new[entry], copies, rows)


def _unit_structure(A, first, sizes, mult):
    """Structure constants, summands and summand ideals of matrix units.

    The rows of A are matrix units, laid out by summand: unit e_xy of
    summand k is row first[k] + x sizes[k] + y, the unit of the block
    space over sqrt(c), c = mult[k] its ambient multiplicity. So
    e_xy e_yw = e_xw / sqrt(c) and e_xy^* = e_yx give T and S; z is the
    sum of the sqrt(c) e_xx, of ambient rank sizes[k] c, and the ideal
    rows are the coordinate rows of the units. All of it is exact, with
    no numerical step.

    Returns (T, S, summands, ideals), the summands in canonical order
    (_summand_order) and ideals[i] the read-only rows of summand i.
    """
    r = A.dim
    T = np.zeros((r, r, r), dtype=np.complex128)
    S = np.zeros((r, r), dtype=np.complex128)
    found = []
    for s in sorted(set(sizes.tolist())):
        sel = sizes == s
        units = first[sel, None, None] + np.arange(s * s).reshape(s, s)
        scale = np.sqrt(mult[sel])
        T[units[:, :, :, None], units[:, None], units[:, :, None]] = (
            1 / scale[:, None, None, None]
        )
        S[units, units.swapaxes(1, 2)] = 1
        z = np.zeros((len(units), r), dtype=np.complex128)
        z[np.arange(len(units))[:, None], np.diagonal(units, axis1=1, axis2=2)] = (
            scale[:, None]
        )
        ideals = np.eye(r, dtype=np.complex128)[units.reshape(len(units), -1)]
        ideals.flags.writeable = False
        found.extend(
            (Summand(zb, s, s * int(c)), ideal)
            for zb, c, ideal in zip(z, mult[sel], ideals)
        )
    order = _summand_order(A, [sm for sm, _ in found])
    return (
        T, S, [found[i][0] for i in order], [found[i][1] for i in order]
    )
