"""Finite-dimensional core tower of a weighted shift algebra.

The gauge-invariant core of the algebra attached to a graph with an
eventually periodic weight sequence is an increasing union of
finite-dimensional algebras. Stage n is isomorphic to a direct sum over
vertices v of matrix algebras over the corner algebra at v,

    A_n  =  (+)_v  M_{m_v(n)} (C_v),

where m_v(n) counts the paths of length n*p + q starting at v and C_v
is the compression of the stage-zero algebra by a fixed path prefix of
length q = p - 1 out of v. All of this is computed concretely on a
window of levels of the path space:

  - C_0 is generated by the degree-zero words u_a Z^j u_b^* with
    s(a) = s(b), |a| = |b| < p and j < 3, and it is found on one copy
    of each distinct support block of these generators (the periodic
    weights repeat most blocks bit for bit across the window). For
    diagonal weights that layout is read off the paths: the support
    classes of level k are its paths h*b of one suffix b of length
    k - q, and a class block is fixed by r(b) and the weights of the
    paths c*b, c of length at most q (_diagonal_layout). For block
    weights each generator is built as its nonzero entries, the
    nonzeros of the small seed powers repeated over the heads and
    gathered by Graph.prepend, and findim.star_closure lays them out;
    no window block is ever formed. On the distinct blocks C_0 is the
    bicommutant of the generators: when their commutant is one scalar
    per block, C_0 is the full matrix algebra on each distinct block,
    and otherwise it is found as one nullspace; either way its rows are
    kept on the distinct entries, with the map of those to their copies;
  - corners are plain submatrix compressions onto slots, the int arrays
    Graph.ending_at gives for the paths that end at v. The slot
    projection u_xi u_xi^* is itself a generator of C_0, so a corner
    keeps an S x S part of each distinct block of C_0 on all of its
    copies; it is read off C_0's map by index arithmetic, with C_0's
    rows on the kept entries, and kept as a map of the same form
    (findim.StarAlgebra), which findim.central_decomposition puts on
    matrix units: the closed form's own, or units that general rows are
    rotated onto. Its elements are coordinate vectors over the units;
  - the connecting maps between stages are assembled from one fiber map
    per length-p path mu, which acts on corner elements purely by index
    gathers (Graph.prepend shifts the slot basis by mu), so the
    Bratteli diagram of the tower is stationary.

Stage index paths, slots and all gathers are int arrays of positions in
Graph.paths(k); Path objects appear only as prefixes and in messages.
Moving between corner coordinates and window data goes through int
arrays of entry positions: the corner compression looks the positions
of its slot blocks up in C_0's map. A transport is computed once per
path pair and shared read-only by the fibers and ideals.pi_map. Its
gather is a shift: Graph orders each level by first edge, then by tail
rank, so the slot rows a*d of a path a are the target slot positions
c_a + arange(S), with c_a = Graph.prepend_rank one int per level. So
the transports of one class, a common source, range and length, are
computed together as one stack (_transport), and the fibers' integers
are read off the same stack. A transport maps distinct entries of one
corner to distinct entries of the other, so the entry map is counted
with exact integer checks and the matrix is the corners' rows carried
over that map, with one residual certificate per pair, and a failure
is kept per pair. Stage n at vertex v is placed on the window
once, by one Placement (Tower.placement): the stage rows, and the
corner's support columns on the stage window [M - n p, M - n p + W),
the entries of its map there, level by level and at their window
positions. The certificates solve on those columns alone: tau gathers
each window level once per vertex and splits it into support entries
and the norm of the rest, and tau_inverse scatters only the support
entries. No map builds an index of all window positions of a stage:
Placement.block_positions gives those of one block entry, for the
strips of the ideal re-verification.

Every numerical identification (coordinates of an element in a corner,
fiber images landing in the right corner, multiplicity integrality,
dimension bookkeeping between consecutive stages) is certified and
raises instead of returning silently wrong structure. The integers of
the Bratteli diagram, the summand sizes and the fiber multiplicities,
are traces of certified projections (findim.integer_traces), not
numerical ranks: the fiber multiplicities are read off the images of
the central projections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import graphs
from .errors import (
    ElementError,
    GraphError,
    MultiplicityError,
    WeightError,
    WindowUnstableError,
    check_index,
)
from .findim import (
    _close_distinct,
    _compress_units,
    blocks_unvec,
    central_decomposition,
    integer_traces,
    star_closure,
)

COORD_TOL = 1e-8
# relative cut on the smallest singular value of a corner's columns
FAITHFUL_TOL = 1e-8
# bound on y^2 - y for the fiber image y of a central projection
PROJECTION_TOL = 1e-6
Z_POWERS = 3


@dataclass(frozen=True)
class TowerConfig:
    """Build parameters for the core tower.

    M is the first level of the top evaluation window and W its width;
    both default to values sized for graphs of polynomial path growth.
    Graphs whose level dimensions explode need an explicit, smaller
    window (the guard raises otherwise). xi_choice selects the fixed
    path prefixes used for the corners.
    """

    n_max: int = 2
    xi_choice: str = "min"
    M: int | None = None
    W: int | None = None


class Corner:
    """Corner algebra at a vertex, realized on slot matrices.

    A slot at global level l is the family of paths of length l - q
    that end at the vertex; the corner of C_0 acts on it as a plain
    submatrix. It is built one way: findim._compress_units checks by two
    exact integer checks that the slot positions keep an S x S part of
    each distinct block of C_0 on all of its copies, and keeps C_0's
    rows on those entries, orthonormalized when they are not units, as
    an algebra of the same form (findim.StarAlgebra). Its support,
    columns and renders are read off that map, and no dense row is
    formed. findim.central_decomposition puts it on matrix units
    (rotating general rows onto them, certified), so the structure
    constants T and S, the central decomposition dec and the summand
    ideals dec.ideals are exact, and elements are coordinate vectors
    over the units; later stage arithmetic never touches matrices
    again.

    slot_lists[l - levels[0]] holds the ascending indices of the slot
    paths inside paths(l - q), so a slot position is a searchsorted, and
    slot_dims their sizes; offsets[l - levels[0]] is where level l
    starts in a corner vector.
    An element is zero off the positions the compression keeps, so a
    stage reads and writes only those columns (Placement).
    """

    def __init__(self, graph, q, C0, v, levels, config):
        g = graph
        self.vertex = g.vertices[v]
        self.xi = g.xi(v, q, config.xi_choice)
        self.levels = levels
        self.slot_lists = [g.ending_at(k - q, v) for k in levels]
        dims = [len(slots) for slots in self.slot_lists]
        self.slot_dims = np.array(dims)
        self.offsets = np.cumsum([0] + [d * d for d in dims])
        # the positions in C_0's blocks_vec of the slot blocks, row-major
        cols = []
        off = 0
        for k, d in zip(levels, C0.dims):
            idx = g.prepend(k - q, self.xi)
            cols.append(off + (idx[:, None] * d + idx).ravel())
            off += d * d
        self.dec = central_decomposition(
            _compress_units(C0, dims, np.concatenate(cols))
        )
        self.algebra = self.dec.algebra
        self.T, self.S = self.dec.T, self.dec.S
        self.r = self.algebra.dim

    def columns(self, lo, hi):
        """The block-space columns of the basis on the levels [lo, hi)."""
        i0 = lo - self.levels[0]
        i1 = hi - self.levels[0]
        return self.algebra.columns(np.arange(self.offsets[i0], self.offsets[i1]))


class Placement:
    """Stage n at vertex v, placed on the window.

    Block entry (a, b) of the stage-n block at v sits on window level k
    as the corner's slot block on level k - n p, at the rows of index
    paths a and b, so the stage reads the corner on its stage window
    [lo, hi) = [M - n p, M - n p + W). Tower.placement builds one per
    (n, v) on first use; rows, sup and mat are read-only:

      - rows[kk] has one int row per index path gamma starting at v:
        the level-(M + kk) indices of gamma*d over the corner slot at
        level lo + kk, in slot order: Graph.prepend(lo + kk - q, gamma);
      - sup and mat are the corner's support columns on [lo, hi): their
        positions in columns(lo, hi), ascending, and the columns;
      - levels[kk] lists the positions of the support columns on level
        lo + kk in that level's raveled S x S slot block, in the order
        of sup;
      - index, built on first use, is the (m, m, S) array of window
        positions of the support entries: entry [a, b] lists the
        positions in blocks_vec of the window blocks of the support
        columns in block entry (a, b), S the support size, a small part
        of the corner's columns where it is sparse;
      - solver, built only where coordinates are solved, holds the
        rank-certified pseudo-inverse and row span of mat.
    """

    def __init__(self, tower, n, v):
        g = tower.graph
        self.corner = corner = tower.corners[v]
        self.lo = tower.M - n * tower.p
        self.hi = self.lo + tower.W
        window = range(tower.M, tower.G1)
        self.dims = [g.level_dim(k) for k in window]
        first = self.lo - corner.levels[0]
        length = n * tower.p + tower.q
        gammas = [g.paths(length)[i] for i in tower.stages[n].paths[v]]
        self.rows = []
        for k in window:
            rows = np.array([g.prepend(k - length, gam) for gam in gammas], dtype=int)
            rows.flags.writeable = False
            self.rows.append(rows)
        starts = corner.offsets[first:first + tower.W + 1]
        pos, self.mat = corner.algebra.support_columns(starts[0], starts[-1])
        self.sup = pos - starts[0]
        for arr in (self.sup, self.mat):
            arr.flags.writeable = False
        cuts = np.searchsorted(pos, starts)
        self.levels = [pos[a:b] - s for a, b, s in zip(cuts[:-1], cuts[1:], starts)]

    @cached_property
    def index(self):
        """The (m, m, S) window positions of the support entries."""
        parts = []
        off = 0
        for r, ent, d in zip(self.rows, self.levels, self.dims):
            x, y = divmod(ent, r.shape[1])
            parts.append(off + r[:, None, x] * d + r[None, :, y])
            off += d * d
        return np.concatenate(parts, axis=2)

    def block_positions(self, a, b):
        """Window positions of all corner columns of block entry (a, b).

        The positions of the corner columns on levels [lo, hi), laid out
        like columns(lo, hi).
        """
        parts = []
        off = 0
        for r, d in zip(self.rows, self.dims):
            parts.append((off + r[a][:, None] * d + r[b]).ravel())
            off += d * d
        return np.concatenate(parts)

    @cached_property
    def solver(self):
        """(pinv, span): the pseudo-inverse of mat and an orthonormal basis
        of its row span, from one SVD of mat.T = u s vh.

        A zero column changes no singular value, so the rank r certified
        here, the smallest singular value above FAITHFUL_TOL times the
        largest (at least 1), is that of all of columns(lo, hi), and the
        rows of u^T span the rows of mat = vh^T s u^T. Below it the
        corner is not faithful on [lo, hi), and the call raises
        WindowUnstableError.
        """
        u, sv, vh = np.linalg.svd(self.mat.T, full_matrices=False)
        r = self.corner.r
        if r and (sv.size < r or sv[-1] <= FAITHFUL_TOL * max(1.0, sv[0])):
            raise _not_faithful(self.corner, self.lo, self.hi)
        return (vh.conj().T / sv) @ u.conj().T, u.T

    def certified_coords(self, vecs, off, scales, message):
        """Corner coordinates of support data, one slot vector per row.

        vecs holds the support columns of each row, in the order of sup,
        and off the norms of the rest of each row. The residual of a row
        is the hypotenuse of its least-squares residual on the support
        and its norm off it. It must stay within 100 * COORD_TOL times
        the row's scale, or the call raises WindowUnstableError(message).
        """
        coords = vecs @ self.solver[0].T
        resid = np.hypot(np.linalg.norm(coords @ self.mat - vecs, axis=1), off)
        if np.any(resid > 100 * COORD_TOL * scales):
            raise WindowUnstableError(message)
        return coords


@dataclass
class StageData:
    """Index paths of one stage: the paths of length n p + q.

    paths[v] holds the ascending indices inside paths(n p + q) of the
    index paths starting at v.
    """

    n: int
    paths: dict
    counts: dict         # vertex index -> path count m_v(n)
    summand_sizes: list  # aligned with tower.labels
    dim: int


class Tower:
    """The core tower of a graph with weights, built on one window.

    The window holds levels [G0, G1): the top evaluation window [M,
    M + W) plus the n_max * p + q levels below it that the stage index
    paths need. plans keeps the index plans that ideals derives from the
    tower once (the strips and edge maps of its re-verification), keyed
    by name.
    """

    def __init__(self, graph, weights, config):
        g = graph
        if weights.graph is not graph:
            raise WeightError("the weights were built on a different graph")
        check_index(config.n_max, 0, math.inf, "n_max")
        if config.M is not None:
            check_index(config.M, 0, math.inf, "M")
        if config.W is not None:
            check_index(config.W, 1, math.inf, "W")
        shape = g.validate()
        if not (shape.no_sources and shape.no_sinks):
            raise GraphError(
                "the core tower needs a graph without sources or sinks"
            )
        if config.xi_choice not in ("min", "max"):
            raise GraphError("xi choice must be 'min' or 'max'")
        self.graph = graph
        self.weights = weights
        self.config = config
        p, q, N = weights.p, weights.q, weights.N
        self.p, self.q, self.N = p, q, N
        M = config.M if config.M is not None else N + q + (config.n_max + 3) * p
        W = config.W if config.W is not None else 3 * p
        G0 = M - config.n_max * p - q
        if G0 < q:
            raise GraphError(
                "window start %d leaves no room for the stage paths" % M
            )
        self.M, self.W, self.G0, self.G1 = M, W, G0, M + W
        self._placements = {}
        self._transports = {}
        self.plans = {}
        levels = list(range(G0, M + W))
        worst = max(g.level_dim(k) for k in levels)
        if worst > graphs.MAX_LEVEL_DIM:
            raise WindowUnstableError(
                "level dimension %d exceeds the guard %d; pass a smaller "
                "window" % (worst, graphs.MAX_LEVEL_DIM)
            )

        self.C0 = build_C0(g, weights, levels)
        self.corners = {
            v: Corner(g, q, self.C0, v, levels, config)
            for v in range(g.n_vertices)
        }

        nsummands = [len(c.dec.summands) for c in self.corners.values()]
        self.labels = [(v, i) for v, s in enumerate(nsummands) for i in range(s)]
        off = np.cumsum([0] + nsummands)
        mult = np.zeros((len(self.labels), len(self.labels)), dtype=int)

        # one fiber per length-p path; the Bratteli diagram is stationary.
        # The fiber b -> V* b V of mu prepends mu on slots; each class is
        # one stack, and its multiplicities are read off that stack. At
        # p = 1 the lattice's parallel edge pairs share the fibers'
        # classes, so they ride in the same stacks, after the fibers; a
        # failed one stays uncached, for the lattice to raise
        _check_window(self, p)
        mus = g.paths(p)
        pairs = [(mu, mu) for mu in mus]
        if p == 1:
            pairs += [
                (a, b) for a in mus for b in mus
                if a != b and (a.source, g.range_of(a)) == (b.source, g.range_of(b))
            ]
        messages = [
            "fiber image along %s left the corner at %r"
            % (g.path_str(a), g.vertices[a.source])
            for a, _ in pairs
        ]
        blocks = {}
        for idx, stack, failures in self._stacked(pairs, messages):
            fibers = idx[:sum(i < len(mus) for i in idx)]
            got = failures if stack is None else _fiber_multiplicities(
                self, [mus[i] for i in fibers], stack[:len(fibers)]
            )
            for i, failure, block in zip(fibers, failures, got):
                blocks[i] = failure or block
        self.fibers = []
        for i, mu in enumerate(mus):
            if isinstance(blocks[i], Exception):
                raise blocks[i]
            self.fibers.append(self._transports[pairs[i]])
            v, w = mu.source, g.range_of(mu)
            mult[off[w]:off[w + 1], off[v]:off[v + 1]] += blocks[i]
        self.multiplicity = mult
        for row in range(mult.shape[0]):
            if not np.any(mult[row]):
                raise MultiplicityError(
                    "summand %s receives no connecting edges; the tower "
                    "inclusion would not be injective on window levels "
                    "[%d, %d) (M=%d, W=%d)"
                    % (self.labels[row], G0, M + W, M, W)
                )

        self.stages = []
        for n in range(config.n_max + 1):
            paths = {
                v: g.starting_at(n * p + q, v) for v in range(g.n_vertices)
            }
            counts = {v: len(idx) for v, idx in paths.items()}
            sizes = [
                counts[v] * self.corners[v].dec.summands[i].d
                for (v, i) in self.labels
            ]
            dim = sum(
                counts[v] ** 2 * self.corners[v].r for v in range(g.n_vertices)
            )
            self.stages.append(StageData(n, paths, counts, sizes, dim))

        # dimension bookkeeping between consecutive stages
        stage_sizes = np.array([st.summand_sizes for st in self.stages])
        got = stage_sizes[:-1] @ mult
        bad = np.argwhere(got != stage_sizes[1:])
        if len(bad):
            n, bi = bad[0]
            raise MultiplicityError(
                "stage %d summand %s has size %d, connecting maps give %d"
                % (n + 1, self.labels[bi], stage_sizes[n + 1, bi], got[n, bi])
            )

    # -- structural stage elements ----------------------------------------

    def stage_zero(self, n):
        check_index(n, 0, self.config.n_max, "the stage")
        return self.stage_unvec(n, np.zeros(self.stages[n].dim, dtype=np.complex128))

    def stage_random(self, n, rng):
        x = self.stage_zero(n)
        for blk in x.values():
            blk[...] = rng.normal(size=blk.shape) + 1j * rng.normal(
                size=blk.shape
            )
        return x

    def stage_vec(self, n, x):
        """The blocks x[v] raveled in vertex order; leading axes stay."""
        check_index(n, 0, self.config.n_max, "the stage")
        blocks = [x[v] for v in sorted(x)]
        return np.concatenate(
            [b.reshape(b.shape[:-3] + (math.prod(b.shape[-3:]),)) for b in blocks],
            axis=-1,
        )

    def stage_unvec(self, n, vecs):
        """The stage-n element of each row of vecs, inverse to stage_vec.

        Leading axes of vecs stay in front of every block, and the
        blocks are views of vecs.
        """
        check_index(n, 0, self.config.n_max, "the stage")
        vecs = np.asarray(vecs)
        _stage_lead("a stage-%d vector" % n, [vecs], [(self.stages[n].dim,)])
        out = {}
        off = 0
        for v, m in sorted(self.stages[n].counts.items()):
            size = m * m * self.corners[v].r
            shape = vecs.shape[:-1] + (m, m, self.corners[v].r)
            out[v] = vecs[..., off:off + size].reshape(shape)
            off += size
        return out

    # -- between stages ----------------------------------------------------

    def psi(self, n, x):
        """Connecting *-homomorphism from stage n into stage n + 1.

        A stage-(n + 1) index path factors uniquely into a length-p tail
        followed by a stage-n index path, so each summand of the image
        is assembled from one fiber map per length-p path. Leading axes
        of the blocks x[v] (m, m, r) stack elements that map together.
        """
        check_index(n, 0, self.config.n_max - 1, "the stage psi maps from")
        lead = _stage_lead("a stage-%d element" % n, x, self.block_shapes(n))
        out = self.stage_unvec(
            n + 1, np.zeros(lead + (self.stages[n + 1].dim,), dtype=np.complex128)
        )
        g = self.graph
        alphas = g.paths(n * self.p + self.q)
        for mi, mu in enumerate(g.paths(self.p)):
            v = g.source_of(mu)
            w = g.range_of(mu)
            # stage-(n + 1) positions of alpha*mu, alpha over the stage-n paths at w
            lo = self.stages[n].paths[w]
            rank = np.searchsorted(g.ending_at(self.p, w), mi)
            hi = [g.prepend(self.p, alphas[i])[rank] for i in lo]
            rows = np.searchsorted(self.stages[n + 1].paths[v], hi)
            lifted = np.einsum("...abj,ij->...abi", x[w], self.fibers[mi])
            out[v][..., rows[:, None], rows, :] += lifted
        return out

    def block_shapes(self, n):
        """The shape (m, m, r) of the block x[v] of a stage-n element, per v."""
        check_index(n, 0, self.config.n_max, "the stage")
        return {
            v: (m, m, self.corners[v].r)
            for v, m in sorted(self.stages[n].counts.items())
        }

    def placement(self, n, v):
        """The Placement of stage n at vertex v, built once per (n, v)."""
        got = self._placements.get((n, v))
        if got is None:
            got = self._placements[(n, v)] = Placement(self, n, v)
        return got

    def transport(self, a, b, message):
        """Corner-coordinate matrix of x -> u_a^* x u_b for parallel a, b.

        Columns run over the corner basis at r(a), rows over the corner
        at s(a). On each window level the gather is a shift: the slot
        rows a*d are the target slot positions Graph.prepend_rank + arange,
        as Graph lists each level by first edge, then by tail rank, so the
        pairs of one class (common source, range and length) are computed
        as one stack (_transport). This is transports() of the one pair:
        computed once per path pair, as a stack of one, and kept
        read-only, so the fibers and pi_map share their matrices. Paths
        that are not parallel, of unequal or zero length, or too long for
        the window raise GraphError; a failed transport raises
        WindowUnstableError(message) and keeps nothing.
        """
        (got,) = self.transports([(a, b)], [message])
        if isinstance(got, Exception):
            raise got
        return got

    def transports(self, pairs, messages):
        """Tower.transport of each pair (a, b), with messages[i] for pair i.

        Every pair is checked first (_check_pair). The pairs not computed
        yet go to one stacked _transport call per class of common source,
        range and length. Returns, in the order of pairs, each pair's
        read-only matrix or the WindowUnstableError it fails with; the
        caller raises the failures in its own order.
        """
        for a, b in pairs:
            _check_pair(self, a, b)
        out = [self._transports.get(pair) for pair in pairs]
        for idx, _, failures in self._stacked(pairs, messages):
            for i, failure in zip(idx, failures):
                out[i] = self._transports[pairs[i]] if failure is None else failure
        return out

    def _stacked(self, pairs, messages):
        """Per class of the pairs not computed yet: (indices, stack,
        failures) of its one _transport call; the matrices of the pairs
        that pass are kept."""
        g = self.graph
        classes = {}
        for i, (a, b) in enumerate(pairs):
            if (a, b) not in self._transports:
                classes.setdefault((a.source, g.range_of(a), len(a)), []).append(i)
        for idx in classes.values():
            stack, failures = _transport(
                self, [pairs[i] for i in idx], [messages[i] for i in idx]
            )
            for j, i in enumerate(idx):
                if failures[j] is None:
                    self._transports[pairs[i]] = stack[j]
            yield idx, stack, failures

    def tau_inverse(self, n, x):
        """Concrete window blocks of a structural stage element.

        Leading axes of the blocks x[v] (m, m, r) stack elements, and
        every window block carries them in front. Each vertex's blocks
        are multiplied out on the corner's support columns only and
        scattered through the placement's index; every other window
        entry stays zero.
        """
        check_index(n, 0, self.config.n_max, "the stage")
        lead = _stage_lead("a stage-%d element" % n, x, self.block_shapes(n))
        dims = [self.graph.level_dim(k) for k in range(self.M, self.M + self.W)]
        flat = np.zeros(lead + (sum(d * d for d in dims),), dtype=np.complex128)
        for v, blk in x.items():
            place = self.placement(n, v)
            flat[..., place.index] = blk @ place.mat
        return blocks_unvec(flat, dims)

    def tau(self, n, blocks):
        """Structural coordinates of concrete window blocks.

        Per window level and vertex, one gather of the stage rows is
        split into the corner's support entries and the norm of the
        rest. The extraction certifies that every compressed entry lies
        in the corner span, against its largest absolute entry (at least
        1), off-support entries included. The stage rows of the vertices
        partition each level, and the entries between the rows of two
        vertices must have a norm within 100 * COORD_TOL times the
        largest absolute entry of the vertices' own blocks (at least 1).
        Blocks that are not all finite numbers raise ElementError, and
        garbage input WindowUnstableError.
        """
        check_index(n, 0, self.config.n_max, "the stage")
        window = range(self.M, self.M + self.W)
        dims = [(self.graph.level_dim(k),) * 2 for k in window]
        _stage_lead("stage-%d window blocks" % n, blocks, dims, stacked=False)
        refused = ElementError("stage-%d window blocks must hold finite numbers" % n)
        if not all(data.dtype.kind in "iufc" for data in blocks):
            raise refused
        x = self.stage_zero(n)
        parts = []
        for v, blk in x.items():
            place = self.placement(n, v)
            m = len(blk)
            vals = []
            off = np.zeros(m * m)
            scales = np.ones(m * m)
            for data, r, entries in zip(blocks, place.rows, place.levels):
                got = data[r[:, None, :, None], r[None, :, None, :]]
                got = got.reshape(m * m, -1)
                vals.append(got[:, entries])
                got = np.abs(got)
                scales = np.maximum(scales, got.max(axis=1, initial=0.0))
                got[:, entries] = 0
                off += np.einsum("ij,ij->i", got, got)
            vals = np.concatenate(vals, axis=1)
            parts.append((place, vals, np.sqrt(off), scales, scales.max()))
        cross = 0.0
        for kk, data in enumerate(blocks):
            vertex = np.empty(len(data), dtype=int)
            for v in x:
                vertex[self.placement(n, v).rows[kk]] = v
            out = data[vertex[:, None] != vertex]
            cross += np.vdot(out, out).real
        # every entry is in the scale of a row or in the cross norm, so
        # their sum is finite unless an entry is not; only then are all read
        peaks = [part[-1] for part in parts]
        if not math.isfinite(cross + sum(peaks)):
            if not all(np.isfinite(data).all() for data in blocks):
                raise refused
        for (v, blk), (place, vals, off, scales, _) in zip(x.items(), parts):
            message = (
                "window data at vertex %r does not lie in the stage-%d "
                "algebra" % (self.graph.vertices[v], n)
            )
            coords = place.certified_coords(vals, off, scales, message)
            blk[...] = coords.reshape(blk.shape)
        if math.sqrt(cross) > 100 * COORD_TOL * max([1.0] + peaks):
            raise WindowUnstableError(
                "window data between the rows of two vertices does not "
                "vanish, so it does not lie in the stage-%d algebra" % n
            )
        return x

    # -- reporting ----------------------------------------------------------

    def stage_dims(self):
        return [st.dim for st in self.stages]

    def bratteli_json(self):
        g = self.graph
        labels = [
            {
                "vertex": g.vertices[v],
                "class": i,
                "corner_dim": int(self.corners[v].dec.summands[i].d),
            }
            for (v, i) in self.labels
        ]
        stages = []
        for st in self.stages:
            stages.append(
                {
                    "n": st.n,
                    "dim": st.dim,
                    "summand_sizes": [int(s) for s in st.summand_sizes],
                }
            )
        return {
            "labels": labels,
            "multiplicity": self.multiplicity.tolist(),
            "stages": stages,
        }

    def bratteli_dot(self):
        g = self.graph
        lines = ["digraph bratteli {", "  rankdir=TB;"]
        for n, st in enumerate(self.stages):
            lines.append("  { rank=same;")
            for li, (v, i) in enumerate(self.labels):
                size = st.summand_sizes[li]
                lines.append(
                    '    "s%d_%d" [label="%s:%d\\nM_%d"];'
                    % (n, li, g.vertices[v], i, size)
                )
            lines.append("  }")
        for n in range(len(self.stages) - 1):
            for a in range(len(self.labels)):
                for b in range(len(self.labels)):
                    mult = int(self.multiplicity[a, b])
                    if mult == 0:
                        continue
                    attr = ' [label="%d"]' % mult if mult > 1 else ""
                    lines.append(
                        '  "s%d_%d" -> "s%d_%d"%s;' % (n, a, n + 1, b, attr)
                    )
        lines.append("}")
        return "\n".join(lines) + "\n"


# -- construction ---------------------------------------------------------


def _check_pair(tower, a, b):
    """Raise GraphError unless a, b are parallel paths the window can carry.

    They need one positive length, a common source and a common range,
    and at least one source level below the top of the window.
    """
    g = tower.graph
    if len(a) != len(b) or len(a) == 0:
        raise GraphError("transport needs two paths of equal positive length")
    if a.source != b.source or g.range_of(a) != g.range_of(b):
        raise GraphError(
            "transport needs paths with a common start and a common end"
        )
    _check_window(tower, len(a))


def _check_window(tower, length):
    """Raise GraphError unless the window holds a source level for paths
    of this length: a level ell >= G0 with ell + length < G1."""
    if tower.G1 - length <= tower.G0:
        raise GraphError(
            "the window is too short to transport a length-%d path" % length
        )


def _transport(tower, pairs, messages):
    """The transports of Tower.transport for one class of pairs, stacked.

    The pairs share their source s, range w and length L. On the window
    the image is an index gather L levels down: the slot block of the
    corner at s on level ell reads the rows a*d and columns b*d of the
    slot block at w on level ell + L, d over its slot. Graph orders each
    level by first edge, then by tail rank, so those rows are the target
    slot positions c_a + arange(S), S the source slot size and c_a =
    Graph.prepend_rank(ell - q, a): a gather is two ints per pair and
    level, and _entry_map counts all pairs at once. It maps distinct
    entries to distinct entries, phi from source to target. The image
    of target row i then has the weighted values W = R_w[:, phi]
    sqrt(c_s / c_w[phi]) on the source entries, c the copy counts (zero
    where phi reads nothing), and the matrix is R_s^* W^T. Its residual
    off the source rows must stay within 100 * COORD_TOL (the rows are
    orthonormal, so no entry exceeds 1); on matrix units it is exactly
    zero and entry (j, i) is sqrt(c_j / c_i) where unit j reads unit i.

    Returns (stack, failures): stack[i], read-only, is the matrix of pair
    i when failures[i] is None, and otherwise failures[i] is its
    WindowUnstableError(messages[i]) (or the faithfulness error of the
    class, with stack None).
    """
    g = tower.graph
    a0 = pairs[0][0]
    cs = tower.corners[a0.source]
    cw = tower.corners[g.range_of(a0)]
    lo, hi = tower.G0, tower.G1 - len(a0)
    shifts = np.array(
        [
            [g.prepend_rank(ell - tower.q, path) for ell in range(lo, hi)]
            for pair in pairs
            for path in pair
        ],
        dtype=int,
    ).reshape(len(pairs), 2, hi - lo)
    phi, bad = _entry_map(cs, cw, lo, len(a0), shifts)
    if phi is None:
        return None, [_not_faithful(cs, lo, hi)] * len(pairs)
    src, dst = cs.algebra, cw.algebra
    # a source entry that reads no target entry is weighted 0
    at = np.maximum(phi, 0)
    weight = np.sqrt(src.copies / dst.copies[at]) * (phi >= 0)
    image = dst.rows_at(at.ravel()).reshape(dst.dim, *at.shape).swapaxes(0, 1)
    coords, off = src.coordinates(image * weight[:, None])
    bad |= np.any(off > 100 * COORD_TOL, axis=1)
    stack = coords.swapaxes(1, 2)
    stack.flags.writeable = False
    return stack, [
        WindowUnstableError(message) if fail else None
        for message, fail in zip(messages, bad)
    ]


def _entry_map(cs, cw, lo, shift, shifts):
    """The distinct target entry that each distinct source entry reads,
    for every pair of one class.

    shifts[i] holds the rank shifts (c_a, c_b) of pair i per source level
    lo + k, so source slot row x reads target slot row c_a + x on level
    lo + k + shift, and source column y target column c_b + y (Graph
    lists each level by first edge, then by tail rank). Inverted,
    a target support entry (X, Y) lands at source entry (X - c_a, Y -
    c_b) when both lie in [0, S). Three exact integer checks make the
    gather a map of distinct entries: every source entry has a copy on
    those levels (or the corner is not faithful there, for the whole
    class), no target support entry lands off the source support, and
    the copies of each source entry there gather from one target entry
    or from none. Returns (phi, bad): phi[i], the target entry of each
    source entry or -1 for none, and bad[i], whether pair i fails a
    check; phi is None when the corner is not faithful.
    """
    src, dst = cs.algebra, cw.algebra
    npairs, _, nlev = shifts.shape
    base = lo - cs.levels[0]
    end = base + nlev
    spos, sunit = src.entries
    have = np.bincount(
        sunit[slice(*np.searchsorted(spos, cs.offsets[[base, end]]))],
        minlength=len(src.copies),
    )
    if not have.all():
        return None, None
    # the target support entries on those levels, at their source positions
    tpos, tunit = dst.entries
    starts = cw.offsets[base + shift:end + shift + 1]
    a, b = np.searchsorted(tpos, starts[[0, -1]])
    lev = np.searchsorted(starts, tpos[a:b], side="right") - 1
    x, y = np.divmod(tpos[a:b] - starts[lev], cw.slot_dims[base + shift + lev])
    x = x - shifts[:, 0, lev]
    y = y - shifts[:, 1, lev]
    s = cs.slot_dims[base + lev]
    pair, ent = np.nonzero((x >= 0) & (x < s) & (y >= 0) & (y < s))
    at = cs.offsets[base + lev[ent]] + x[pair, ent] * s[ent] + y[pair, ent]
    target = tunit[a:b][ent]
    source, hit = src.lookup(at)
    bad = np.zeros(npairs, dtype=bool)
    bad[pair[~hit]] = True
    # the gather is injective, so a source entry is read at most have times
    phi = np.full((npairs, len(have)), -1)
    phi[pair, source] = target
    bad[pair[phi[pair, source] != target]] = True
    count = np.bincount(pair * len(have) + source, minlength=phi.size).reshape(phi.shape)
    bad |= np.any((count != 0) & (count != have), axis=1)
    return phi, bad


def _not_faithful(corner, lo, hi):
    """The error for a corner whose units do not all show on levels [lo, hi)."""
    return WindowUnstableError(
        "corner at %r is not faithful on levels [%d, %d); "
        "widen the window" % (corner.vertex, lo, hi)
    )


def _stage_lead(what, got, want, stacked=True):
    """The leading axes of the arrays of got, shaped as want gives.

    want is a dict of shapes (vertex -> block) or a list of them (level
    -> block); got must be a dict of arrays on the same keys, or a list
    of arrays of the same length. Every array must end in the shape
    want gives for it, after leading axes common to all, and with
    stacked False there are none. Otherwise the call raises
    ElementError naming the shapes.
    """
    pairs = []
    if isinstance(want, dict) and isinstance(got, dict):
        have = {k: getattr(a, "shape", None) for k, a in got.items()}
        if have.keys() == want.keys():
            pairs = [(have[k], want[k]) for k in want]
    elif not isinstance(want, dict) and isinstance(got, (list, tuple)):
        have = [getattr(a, "shape", None) for a in got]
        if len(have) == len(want):
            pairs = list(zip(have, want))
    else:
        have = type(got).__name__
    leads = {
        h[:len(h) - len(w)] if h is not None and h[len(h) - len(w):] == w else None
        for h, w in pairs
    }
    if len(leads) != 1 or None in leads or not (stacked or leads == {()}):
        raise ElementError(
            "%s must %s %s, got %s%s" % (
                what, "end in the shapes" if stacked else "have the shapes",
                want, have, " (after leading axes common to all)" if stacked else "",
            )
        )
    return leads.pop()


def _z_entries(weights, level, tails):
    """Nonzero entries of Z^j on the level paths tails, for j < Z_POWERS.

    One (x, y, values) per power: positions x and y into tails and the
    exact entry values, for block weights. Z_level = I (x) Z_seed over
    the heads of split_table, where the seed level is the one below
    N + p that the extension rule repeats, so the nonzeros of each
    small seed power are repeated over the heads that some tail carries.
    """
    seed = level
    while seed >= weights.N + weights.p:
        seed -= weights.p
    if seed < level:
        pre, suf = (t[tails] for t in weights.split_table(level, level - seed))
    else:
        pre, suf = np.zeros_like(tails), tails
    zs = weights.seed_levels[seed] if seed else np.eye(weights.graph.n_vertices)
    lookup = np.full((pre.max(initial=0) + 1, len(zs)), -1)
    lookup[pre, suf] = np.arange(len(tails))
    out = []
    for j in range(Z_POWERS):
        zj = np.linalg.matrix_power(zs, j)
        r, c = np.nonzero(zj)
        x, y = lookup[:, r], lookup[:, c]
        keep = (x >= 0) & (y >= 0)
        out.append((x[keep], y[keep], np.broadcast_to(zj[r, c], x.shape)[keep]))
    return out


def _c0_generators(graph, weights, levels):
    """Entries of the stage-zero generators on the window levels, for
    block weights.

    The generators are the degree-zero words u_a Z^j u_b^* with a
    weight power in the middle and matching-source index paths a, b of
    length below p on the outside. Higher weight powers come out of the
    closure, so only the first Z_POWERS are seeded explicitly. Each
    generator is (positions, values): the positions in blocks_vec of
    its nonzero entries over the window and their values, gathered
    through Graph.prepend from the entries of Z^j on the tails; no
    window block is formed.
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
                tails = g.ending_at(k - a, v)
                rows = [g.prepend(k - a, pth) for pth in group]
                per_level.append((off, d, rows, _z_entries(weights, k - a, tails)))
            for ai in range(len(group)):
                for bi in range(len(group)):
                    for power in range(Z_POWERS):
                        pos = []
                        values = []
                        for off, d, rows, zpow in per_level:
                            x, y, val = zpow[power]
                            pos.append(off + rows[ai][x] * d + rows[bi][y])
                            values.append(val)
                        gens.append((np.concatenate(pos), np.concatenate(values)))
    return gens


def _diagonal_layout(graph, weights, levels):
    """C_0's layout of distinct blocks for diagonal weights, off the paths.

    With q = p - 1, the support classes of level k are the level-k paths
    h*b of one suffix b of length k - q: the heads h are the length-q
    paths out of u = r(b), in the ascending order of paths(q), so the
    classes at u are the rows of the columns Graph.prepend(k - q, h),
    one per head. The generator u_a Z^j u_a'^* (|a| = ell < p, s(a) = v)
    is nonzero in the class of b only at (a*c, a'*c), for c over the
    length-(q - ell) paths from u to v, where it is z_{k - ell}(c*b)^j.
    So a class block is a function of its key: u and the z_{k - ell}(c*b)
    over (ell, c). Each of those is an entry of a j = 1 generator (no
    vertex is a sink, so some a of length ell leaves r(c)), and keys are
    compared by their bytes, so two class blocks are equal bytes exactly
    when their keys are. The distinct blocks of one size are numbered in
    order of first appearance in the support layout (level, size,
    smallest index), and the generators follow the order of
    _c0_generators, so the layout is the one star_closure reads off
    their entries.

    Returns (stacks, pos, copy, copies, vals) for findim._close_distinct.
    """
    g, p, q = graph, weights.p, weights.q
    heads = [g.starting_at(q, u) for u in range(g.n_vertices)]
    # the source u of each head and its rank among the heads out of u
    source = np.empty(g.level_dim(q), dtype=int)
    rank = np.empty(g.level_dim(q), dtype=int)
    for u, hs in enumerate(heads):
        source[hs] = u
        rank[hs] = np.arange(len(hs))
    # the key columns at u, (ell, c) for the length-(q - ell) paths c out
    # of u (for ell = 0, the heads), and col[ell], the column of each path
    cols = [[] for _ in heads]
    col = []
    for ell in range(p):
        at = np.empty(g.level_dim(q - ell), dtype=int)
        for u, here in enumerate(cols):
            cs = g.starting_at(q - ell, u)
            at[cs] = len(here) + np.arange(len(cs))
            here.extend((ell, g.paths(q - ell)[c]) for c in cs)
        col.append(at)
    # every generator entry of a class block at u: (generator, x, y,
    # power, key column), over the generators' words, powers and paths c
    entries = []
    ngen = 0
    for ell in range(p):
        groups = {}
        for pth in g.paths(ell):
            groups.setdefault(pth.source, []).append(pth)
        for v, group in groups.items():
            tails = g.ending_at(q - ell, v)
            rows = np.array([g.prepend(q - ell, a) for a in group])
            n = len(group)
            a, b, j, t = np.indices((n, n, Z_POWERS, len(tails))).reshape(4, -1)
            x = rank[rows]
            entries.append(np.array([
                source[rows[0, t]], ngen + (a * n + b) * Z_POWERS + j,
                x[a, t], x[b, t], j, col[ell][tails[t]],
            ]))
            ngen += n * n * Z_POWERS
    entries = np.concatenate(entries, axis=1)
    fills = [entries[1:, entries[0] == u, None] for u in range(len(heads))]
    dims = [g.level_dim(k) for k in levels]
    starts = np.cumsum([0] + [d * d for d in dims])
    width = 1 + max(len(here) for here in cols)
    by_size = {}
    for lv, (k, d) in enumerate(zip(levels, dims)):
        for u, hs in enumerate(heads):
            members = np.array([g.prepend(k - q, g.paths(q)[h]) for h in hs]).T
            key = np.zeros((len(members), width))
            key[:, 0] = u
            key[:, 1:1 + len(hs)] = weights.level_diag(k)[members]
            for i, (ell, c) in enumerate(cols[u][len(hs):], 1 + len(hs)):
                key[:, i] = weights.level_diag(k - ell)[g.prepend(k - q, c)]
            places = starts[lv] + members[:, :, None] * d + members[:, None, :]
            by_size.setdefault(len(hs), []).append((places, key))
    stacks, pos, copy, copies, vals = [], [], [], [np.zeros(0, dtype=int)], []
    for s in sorted(by_size):
        places, key = (np.concatenate(x) for x in zip(*by_size[s]))
        # a class's first entry orders it by level and smallest index
        order = np.argsort(places[:, 0, 0])
        places, key = places[order], key[order]
        _, first, inv = np.unique(
            key.view(np.dtype((np.void, width * key.itemsize))).ravel(),
            return_index=True, return_inverse=True,
        )
        ids = np.argsort(first).argsort()[inv]
        reps = key[np.sort(first)]
        power = np.array([reps[:, 1:] ** j for j in range(Z_POWERS)])
        block = np.zeros((1 + ngen, len(first), s, s), dtype=np.complex128)
        block[0, :, np.arange(s), np.arange(s)] = 1
        for u in set(reps[:, 0].tolist()):
            here = np.flatnonzero(reps[:, 0] == u)
            gi, x, y, j, c = fills[int(u)]
            block[1 + gi, here, x, y] = power[j, here, c]
        off = sum(c * t * t for _, c, t in stacks)
        stacks.append((off, len(first), s))
        pos.append(places.ravel())
        copy.append((off + ids[:, None] * s * s + np.arange(s * s)).ravel())
        copies.append(np.repeat(np.bincount(ids), s * s))
        vals.append(block.reshape(1 + ngen, -1))
    # the support layout lists the classes by level, then by size: the
    # sizes are concatenated in order, each sorted by level already
    pos = np.concatenate(pos)
    order = np.argsort(np.searchsorted(starts, pos, "right"), kind="stable")
    return (
        stacks, pos[order], np.concatenate(copy)[order], np.concatenate(copies),
        np.concatenate(vals, axis=1),
    )


def build_C0(graph, weights, levels):
    """Stage-zero algebra generated on the given window levels.

    Two front ends feed one closure core (findim._close_distinct):
    diagonal weights lay out the distinct blocks straight from the path
    classes and the weights (_diagonal_layout), and block weights list
    the generators (_c0_generators) for star_closure to lay out.
    """
    if min(levels) < weights.p - 1:
        raise GraphError(
            "stage-zero window levels must be at least p - 1 = %d"
            % (weights.p - 1)
        )
    dims = [graph.level_dim(k) for k in levels]
    if weights.kind == "diagonal":
        return _close_distinct(dims, *_diagonal_layout(graph, weights, levels))
    return star_closure(dims, _c0_generators(graph, weights, levels))


def _fiber_multiplicities(tower, mus, fibs):
    """Integer multiplicity blocks of the fibers of one class, stacked.

    The paths mus share their source and range, and fibs is the stack of
    their fibers. Entry (i, j) of a block: how often summand i of the
    corner at r(mu) appears in summand j of the corner at s(mu) under
    the fiber. The fiber sends the central projection z_i, the sum of
    d_i minimal projections, to y_i, which must be a projection within
    PROJECTION_TOL, or the fiber fails with MultiplicityError. Then z_j
    y_i is a projection of rank m_ij d_i in the summand M_{d_j}, which
    acts on the block space multiplicity_j times, so m_ij is tr(z_j y_i)
    / multiplicity_j / d_i (Bratteli). The corner coordinates are
    orthonormal for tr(a^* b), so these traces are the inner products of
    the coordinate vectors, one matmul for the stack. Returns per path
    its block or the MultiplicityError it fails with.
    """
    g = tower.graph
    cv = tower.corners[g.source_of(mus[0])]
    cw = tower.corners[g.range_of(mus[0])]
    Z_v = np.array([sv.z for sv in cv.dec.summands])
    Y = np.array([sw.z for sw in cw.dec.summands]) @ np.swapaxes(fibs, 1, 2)
    YY = np.einsum("pia,pib,abk->pik", Y, Y, cv.T)
    bound = PROJECTION_TOL * np.maximum(1.0, np.linalg.norm(Y, axis=2))
    bad = np.any(np.linalg.norm(YY - Y, axis=2) > bound, axis=1)
    d = [[sw.d] for sw in cw.dec.summands]
    traces = Y @ Z_v.conj().T / [sv.multiplicity for sv in cv.dec.summands] / d
    out = []
    for mu, fail, tr in zip(mus, bad, traces):
        path = g.path_str(mu)
        if fail:
            out.append(MultiplicityError(
                "fiber along %s does not send central projections to "
                "projections" % path
            ))
            continue
        try:
            out.append(integer_traces(
                tr, MultiplicityError, "a fiber multiplicity along %s" % path
            ))
        except MultiplicityError as exc:
            out.append(exc)
    return out


def build_tower(graph, weights, config=None):
    """Assemble the full tower structure for a graph and weight spec."""
    return Tower(graph, weights, config or TowerConfig())
