"""Invariant ideal structure of the weighted graph algebra.

The finite-dimensional corners C_v of the stage-0 algebra carry the
ideal data: a family assigns to every vertex a two-sided ideal of its
corner, encoded as a subset of the corner's minimal central summands,
that is, as a set of tower labels (v, i). Two conditions cut out the
families that correspond to gauge-invariant ideals of the ambient
algebra, and both are exact statements about labels:

* transport invariance (H): for every ordered pair of parallel edges
  e, f (common source and common range, e = f allowed) the sandwich
  map pi(e, f) carries the ideal at the walk end of e into the ideal
  at its walk start. Central summands are orthogonal in corner
  coordinates, so this holds iff no summand i of the family at the
  walk end w sends a component into a summand j outside the family at
  the walk start s: the H-edges (w, i) => (s, j) are the nonzero
  components, read once per tower from pi_map and ideal_subspace;
* transport closure (S): the corner elements whose deep embeddings
  fall into the ideal generated by the family never leave the ideal
  chosen at their own vertex. The fibers are *-homomorphisms, so the
  preimage of a summand ideal is the set of labels whose every
  successor in tower.multiplicity lies in it; the S-rule forces such a
  label into the family. The rule is monotone, so the family is closed
  exactly when this one step adds nothing.

So the invariant families are the label sets closed under both rules,
listed by Ganter's NextClosure, and the H-edges alone decide
simplicity.

The ideals themselves are assembled, not searched for, from two facts:

* summand ideals are orthogonal: for central summands i != j,
  <z_i a, z_j b> = tr(a^* z_i z_j b) = 0, and corner coordinates are
  isometric. Each summand ideal is the coordinate rows of the
  summand's own matrix units (corner.dec.ideals), exact on every
  corner, and the ideal of a label set at a vertex is the stack of
  their rows;
* stage ideals are placements: every stage-m index path at v factors
  uniquely as delta*alpha with |delta| = m p and alpha a stage-0 index
  path at v, and path conjugation is an exact index copy, so stage m
  of the invariant ideal is the block pattern with J_v in every block
  entry at v. Its dimension sum_v m_v(m)^2 dim J_v holds by
  construction.

The certificate kept on the stages is the one with numerical content:
the connecting map psi sends each stage of the ideal into the next.

Everything here computes in structural stage coordinates: a stage-n
element is a dict keyed by source vertex with one coordinate tensor
per pair of index paths, and the maps between stages reuse the
certified tower fibers. The rows of a stage basis travel as one
stack: Tower.stage_unvec gives their blocks a leading row axis, psi
maps the whole stack, and each span certificate is one stacked in_span
or span_residual. Window renders enter only where a statement
genuinely lives on the observable window (the transport gathers and
the re-verification of verify_fully_invariant), always behind a
certificate: a residual, with exact counts for the entry map of a
transport.

The re-verification never holds a stack at window length. Every block
entry at v of a placed stage holds J_v and renders on its own corner
support positions, so a stage is rendered once per vertex, shared by
every block entry. Every stack carries its own column support, the
union of its operands' nonzero columns, and a column that is zero in
every row of both operands changes no singular value and no residual.
The per-row and per-strip loops are kept as the test oracle
(tests/util.py::looped_verify_fully_invariant).

The classical unweighted theory doubles as an oracle: hereditary and
saturated vertex sets, enumerated by brute force, must biject with the
lattice of invariant families once every weight equals 1.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GraphError, WeightError, WindowUnstableError
from .errors import check_index
from .graphs import Path
from .tower import COORD_TOL, TowerConfig, build_tower
from .weights import minimal_period, reperiodize
from .windows import RANK_TOL, in_span, onb, span_intersect, span_residual

# the most entries a verification stack may hold (512 MiB of complex)
MAX_STACK_ENTRIES = 2 ** 25


# -- families and the lattice -------------------------------------------------


class IdealFamily:
    """A choice of corner ideal at every vertex.

    choices[v] lists the minimal central summand indices of the corner
    at vertex v whose direct sum is the chosen ideal J_v; the empty set
    is the zero ideal and the full index range is the corner itself.
    A subset of central summands is automatically a two-sided *-closed
    ideal of the corner, spanned by the summands' matrix units
    (corner.dec.ideals). j0_dim is the dimension of the family's stage-0
    ideal; enumerate_families sets it. Choices that are not sets of
    summand indices, or counts that are not ints, raise DomainError.
    """

    def __init__(self, choices, summand_counts):
        try:
            self.choices = tuple(frozenset(c) for c in choices)
            self.summand_counts = tuple(summand_counts)
        except TypeError:
            raise DomainError(
                "a family needs a set of summands and a summand count per vertex"
            ) from None
        for s in self.summand_counts:
            check_index(s, 0, math.inf, "a summand count of the family")
        if len(self.choices) != len(self.summand_counts):
            raise DomainError("family needs one summand subset per vertex")
        for c, s in zip(self.choices, self.summand_counts):
            for i in c:
                check_index(i, 0, s - 1, "a summand index of the family")
        self.j0_dim = None

    @property
    def trivial_zero(self):
        return all(not c for c in self.choices)

    @property
    def trivial_full(self):
        return all(
            len(c) == s for c, s in zip(self.choices, self.summand_counts)
        )

    def leq(self, other):
        return all(a <= b for a, b in zip(self.choices, other.choices))

    @property
    def mask(self):
        """The family as a bitmask over the tower labels (v, i), in order."""
        out = offset = 0
        for c, s in zip(self.choices, self.summand_counts):
            for i in c:
                out |= 1 << (offset + i)
            offset += s
        return out

    def __eq__(self, other):
        return (
            isinstance(other, IdealFamily) and self.choices == other.choices
        )

    def __hash__(self):
        return hash(self.choices)

    def __repr__(self):
        parts = ["{%s}" % ",".join(str(i) for i in sorted(c)) for c in self.choices]
        return "IdealFamily(%s)" % " ".join(parts)

    def as_dict(self, graph):
        return {
            "choices": {
                graph.vertices[v]: sorted(c)
                for v, c in enumerate(self.choices)
            },
            "trivial_zero": self.trivial_zero,
            "trivial_full": self.trivial_full,
            "j0_dim": self.j0_dim,
        }


def _bits(mask):
    """Positions of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _family_key(fam):
    return (
        sum(len(c) for c in fam.choices),
        tuple(tuple(sorted(c)) for c in fam.choices),
    )


class GaugeIdealLattice:
    """Invariant families over a tower, ordered componentwise."""

    def __init__(self, graph, families):
        self.graph = graph
        self.families = sorted(families, key=_family_key)

    def __len__(self):
        return len(self.families)

    def __iter__(self):
        return iter(self.families)

    @property
    def minimum(self):
        mins = [
            f for f in self.families
            if all(f.leq(o) for o in self.families)
        ]
        if len(mins) != 1:
            raise DomainError(
                "the family order has %d global minima" % len(mins)
            )
        return mins[0]

    @property
    def maximum(self):
        maxs = [
            f for f in self.families
            if all(o.leq(f) for o in self.families)
        ]
        if len(maxs) != 1:
            raise DomainError(
                "the family order has %d global maxima" % len(maxs)
            )
        return maxs[0]

    def hasse_edges(self):
        """Cover pairs (i, j): family i sits directly below family j.

        above[i] is the bitmask of the j with families[i] < families[j];
        the covers of i are above[i] less everything above one of its
        members.
        """
        masks = [f.mask for f in self.families]
        above = [
            sum(1 << j for j, mj in enumerate(masks) if j != i and not mi & ~mj)
            for i, mi in enumerate(masks)
        ]
        edges = []
        for i, up in enumerate(above):
            higher = 0
            for j in _bits(up):
                higher |= above[j]
            edges.extend((i, j) for j in _bits(up & ~higher))
        return edges

    def to_json(self):
        return {
            "families": [f.as_dict(self.graph) for f in self.families],
            "hasse": [[i, j] for i, j in self.hasse_edges()],
            "minimum": self.families.index(self.minimum),
            "maximum": self.families.index(self.maximum),
        }


@dataclass(frozen=True)
class HereditarySaturatedSet:
    """A vertex subset that is hereditary and saturated."""

    subset: frozenset


# -- corner ideal subspaces ---------------------------------------------------


def ideal_subspace(tower, v, subset):
    """Orthonormal coordinate basis of the corner ideal picked by subset.

    The ideal is the direct sum of the ideals of the chosen central
    summands; the rows are coordinates with respect to the corner's
    orthonormal basis. Each summand ideal is the rows of its matrix
    units (corner.dec.ideals). Distinct central summands are orthogonal,
    <z_i a, z_j b> = tr(a^* z_i z_j b) = 0, and corner coordinates are
    isometric, so the stacked rows, in ascending summand order, are
    already an orthonormal basis of the sum; their Gram matrix is
    certified against the identity.
    """
    check_index(v, 0, tower.graph.n_vertices - 1, "a vertex index")
    corner = tower.corners[v]
    where = "at vertex %r" % tower.graph.vertices[v]
    try:
        subset = sorted(frozenset(subset))
    except TypeError:
        raise DomainError("the summands %s are not a set of ints" % where) from None
    for i in subset:
        check_index(i, 0, len(corner.dec.summands) - 1, "a summand index " + where)
    if not subset:
        return np.zeros((0, corner.r), dtype=np.complex128)
    basis = np.concatenate([corner.dec.ideals[i] for i in subset])
    gram = basis.conj() @ basis.T
    if np.linalg.norm(gram - np.eye(len(basis))) > RANK_TOL:
        raise WindowUnstableError(
            "summand ideals at vertex %r are not orthonormal"
            % tower.graph.vertices[v]
        )
    return basis


def _check_fits(tower, family):
    """Raise DomainError unless the family has the tower's summand counts."""
    want = tuple(len(c.dec.summands) for _, c in sorted(tower.corners.items()))
    got = getattr(family, "summand_counts", None)
    if got != want:
        raise DomainError(
            "the family has summand counts %s per vertex, the tower %s"
            % (got, want)
        )


def _family_subspaces(tower, family):
    """The corner ideal subspace the family picks at every vertex."""
    _check_fits(tower, family)
    return {
        v: ideal_subspace(tower, v, family.choices[v])
        for v in range(tower.graph.n_vertices)
    }


# -- transport maps between corners -------------------------------------------


def _as_path(graph, spec):
    if isinstance(spec, Path):
        return spec
    if isinstance(spec, str):
        if spec in graph.eindex:
            return graph.edge_path(spec)
        return graph.parse_path(spec)
    raise GraphError("expected a path or an edge name, got %r" % (spec,))


def pi_map(tower, a, b):
    """Matrix of the corner transport along the path pair (a, b).

    For equal-length paths with a common walk start s and a common walk
    end w the sandwich x -> u_{xi_s} u_a^* u_{xi_w}^* x u_{xi_w} u_b
    u_{xi_s}^* carries the corner at w into the corner at s. The
    returned matrix acts on corner coordinates, columns indexed by the
    corner at w. On the window the image is a pure index gather of the
    input render one level band down, a shift of the slot rows by one
    int per level (Graph.prepend_rank, as each level lists its paths by
    first edge, then by tail rank), and the extraction certifies that
    the gathered data lies in the target corner span (exact counts for
    the map of distinct entries, and the residual of the carried rows
    off the target rows).

    Concatenation reverses order: the map of the composed pair
    (a1*a2, b1*b2) equals pi_map(a2, b2) @ pi_map(a1, b1). The matrix
    is Tower.transport's, which checks the pair (GraphError unless the
    paths are parallel, of one positive length, and the window carries
    them): computed once per path pair, in one stack per class of common
    source, range and length, and read-only; on p = 1 the pair (e, e)
    gives the fiber along e.
    """
    g = tower.graph
    a = _as_path(g, a)
    return tower.transport(a, _as_path(g, b), _leaves(g, a))


def _leaves(g, a):
    """The message of a transport along a that leaves the corner span."""
    return "transported corner element leaves the corner span at %r" % (
        g.vertices[g.source_of(a)]
    )


def _parallel_edge_pairs(g):
    out = []
    for e in range(g.n_edges):
        for f in range(g.n_edges):
            if g.esrc[e] == g.esrc[f] and g.edst[e] == g.edst[f]:
                out.append((e, f))
    return out


# -- the label-implication graph ----------------------------------------------


def _transport_edges(tower):
    """H-edges (e, f, a, b, margin): pi(e, f) sends label a into label b.

    The margin is the largest component in the summand ideal of b of
    the image of a summand-ideal row of a, relative to max(1, |image|)
    as in in_span; the edge exists when it exceeds RANK_TOL. Per
    parallel edge pair, the stacked summand ideals at the range are
    mapped and projected on the stacked ones at the source by one
    product, which is reduced per pair of summands at their offsets.
    The transports of the pairs come from Tower.transports, one stack
    per class of common source and range, and a failure raises in the
    order of the pairs.
    """
    g = tower.graph
    pos = {lab: k for k, lab in enumerate(tower.labels)}
    stacked = {}
    for v, corner in tower.corners.items():
        rows = corner.dec.ideals
        stacked[v] = np.concatenate(rows), np.cumsum([0] + [len(x) for x in rows[:-1]])
    edge_pairs = _parallel_edge_pairs(g)
    pairs = [(Path((e,), g.esrc[e]), Path((f,), g.esrc[f])) for e, f in edge_pairs]
    mats = tower.transports(pairs, [_leaves(g, a) for a, _ in pairs])
    edges = []
    for (e, f), mat in zip(edge_pairs, mats):
        if isinstance(mat, Exception):
            raise mat
        w, s = g.edst[e], g.esrc[e]
        (w_rows, w_off), (s_rows, s_off) = stacked[w], stacked[s]
        img = w_rows @ mat.T
        scale = np.maximum(1.0, np.linalg.norm(img, axis=1))
        comp = np.add.reduceat(np.abs(img @ s_rows.conj().T) ** 2, s_off, axis=1)
        margins = np.maximum.reduceat(np.sqrt(comp) / scale[:, None], w_off, axis=0)
        for i, j in np.argwhere(margins > RANK_TOL).tolist():
            edges.append((e, f, pos[(w, i)], pos[(s, j)], float(margins[i, j])))
    return edges


def _successors(tower):
    """Mask of the H-successors of every label."""
    succ = [0] * len(tower.labels)
    for _, _, a, b, _ in _transport_edges(tower):
        succ[a] |= 1 << b
    return succ


def _premises(tower):
    """Per label, the mask of its successors in tower.multiplicity."""
    return [
        sum(1 << int(b) for b in np.flatnonzero(row))
        for row in tower.multiplicity
    ]


def _close(mask, succ, premises=None):
    """The least superset of mask closed under the H-edges.

    Given premises, it is closed under the S-rule as well.
    """
    while True:
        grown = mask
        for a, nxt in enumerate(succ):
            if mask >> a & 1:
                grown |= nxt
            elif premises is not None and not premises[a] & ~mask:
                grown |= 1 << a
        if grown == mask:
            return mask
        mask = grown


def _family(tower, mask):
    nv = tower.graph.n_vertices
    choices = [set() for _ in range(nv)]
    for k, (v, i) in enumerate(tower.labels):
        if mask >> k & 1:
            choices[v].add(i)
    counts = [len(tower.corners[v].dec.summands) for v in range(nv)]
    return IdealFamily(choices, counts)


def check_H(tower, family):
    """Whether every parallel-pair transport maps ideals into ideals.

    The family fails when an H-edge leaves it. Returns (ok,
    violations); a violation records the edge pair, the vertex the
    ideal came from, the vertex it had to land in, and the largest
    relative component that escapes. A family that does not fit the
    tower raises DomainError.
    """
    _check_fits(tower, family)
    g = tower.graph
    mask = family.mask
    worst = {}
    for e, f, a, b, margin in _transport_edges(tower):
        if mask >> a & 1 and not mask >> b & 1:
            worst[(e, f)] = max(margin, worst.get((e, f), 0.0))
    violations = [
        {
            "e": g.edges[e].name,
            "f": g.edges[f].name,
            "from": g.vertices[g.edst[e]],
            "to": g.vertices[g.esrc[e]],
            "residual": resid,
        }
        for (e, f), resid in worst.items()
    ]
    return (not violations, violations)


def check_S(tower, family):
    """Whether the transported-ideal closure stays inside the family J.

    The corner subspace I_k(v) collects the elements whose transports
    along every path of length k periods ending at v land in J at the
    walk start; I_0 = J and I_{k+1} is the fiber preimage of I_k. The
    fibers are *-homomorphisms, so the preimage of a summand ideal is
    the set sat(J) of labels whose every multiplicity successor lies
    in J. sat is monotone, so once sat(J) lies in J every I_k does: J
    is closed iff sat(J) is inside J. Unweighted, this is saturation
    of vertex sets.

    Returns (ok, violations); a violation names a label of sat(J)
    outside J. A family that does not fit the tower raises DomainError.
    """
    _check_fits(tower, family)
    g = tower.graph
    mask = family.mask
    violations = [
        {"vertex": g.vertices[v], "summand": i}
        for k, ((v, i), prem) in enumerate(zip(tower.labels, _premises(tower)))
        if not mask >> k & 1 and not prem & ~mask
    ]
    return (not violations, violations)


# -- invariant ideals stage by stage ------------------------------------------


def _placed(tower, subs, m):
    """Stage-m rows of the pattern with J_v in every block entry at v.

    At vertex v, row (a, b, j) holds row j of J_v in block entry (a, b);
    these are the rows of kron(eye(m_v^2), J_v), and the vertex blocks
    sit on the diagonal. The rows are laid out by Tower.stage_unvec.
    """
    counts = tower.stages[m].counts
    sizes = [counts[v] ** 2 * len(subs[v]) for v in sorted(counts)]
    out = np.zeros((sum(sizes), tower.stages[m].dim), dtype=np.complex128)
    x = tower.stage_unvec(m, out)
    for v, row in zip(sorted(counts), np.cumsum([0] + sizes)):
        a, b, j = np.indices((counts[v], counts[v], len(subs[v]))).reshape(3, -1)
        x[v][row + np.arange(len(j)), a, b] = subs[v][j]
    return out


def _ideal_chain(tower, subs, n):
    """Stages 0..n of the placed ideal, each certified to map into the next."""
    check_index(n, 0, tower.config.n_max, "the ideal stage")
    chain = [_placed(tower, subs, m) for m in range(n + 1)]
    for m in range(1, n + 1):
        lifted = tower.stage_vec(
            m, tower.psi(m - 1, tower.stage_unvec(m - 1, chain[m - 1]))
        )
        if not in_span(lifted, chain[m]):
            raise WindowUnstableError(
                "the stage-%d ideal does not include into stage %d"
                % (m - 1, m)
            )
    return chain


def build_fully_invariant(tower, family, n):
    """Orthonormal stage-n coordinate basis of the invariant ideal.

    Stage m of the ideal is the span of all conjugates u_delta x
    u_gamma^* of stage-0 ideal elements x along path pairs of length
    m times the period. Every stage-m index path at v factors uniquely
    as delta*alpha with |delta| = m p and alpha a stage-0 index path at
    v, and conjugation is an exact index copy, so that span is the
    block pattern with the corner ideal J_v in every block entry at v:
    the rows are placed, not gathered, and they are orthonormal because
    those of J_v are. The certificate kept is the stage inclusion: psi
    maps each stage of the ideal into the next. Rows live in the
    stage-n layout of Tower.stage_vec. A family that does not fit the
    tower raises DomainError.
    """
    return _ideal_chain(tower, _family_subspaces(tower, family), n)[n]


# -- independent re-verification ----------------------------------------------


@dataclass
class VerificationReport:
    ok: bool
    n_cap: int
    fiber_checks: list
    strip_checks: list
    push_checks: list
    failures: list


def _zeros(shape, what):
    """A complex zero stack, its entries counted before it is allocated.

    More than MAX_STACK_ENTRIES entries raise WindowUnstableError naming
    the count.
    """
    count = math.prod(shape)
    if count > MAX_STACK_ENTRIES:
        raise WindowUnstableError(
            "the %s stack would hold %d entries, more than %d; pass a "
            "smaller window" % (what, count, MAX_STACK_ENTRIES)
        )
    return np.zeros(shape, dtype=np.complex128)


def _render(tower, n, subs):
    """Window render of stage n of the placed ideal, once per vertex.

    Every block entry (a, b) at v holds J_v = subs[v] (_placed) and
    renders on its own support positions (Placement.index), so per
    vertex with a nonzero J_v the render is (v, pos, rows): pos the (m^2,
    S) positions of the raveled entries a m + b, rows = J_v @
    Placement.mat, shared by every block entry. It allocates no window
    and no stack; the checks' stacks keep their _zeros guard.
    """
    out = []
    for v, m in sorted(tower.stages[n].counts.items()):
        if len(subs[v]):
            place = tower.placement(n, v)
            out.append((v, place.index.reshape(m * m, -1), subs[v] @ place.mat))
    return out


def _lookup(keys, pos):
    """Index into the sorted int array keys of each entry of pos, and a hit mask."""
    i = np.minimum(np.searchsorted(keys, pos), len(keys) - 1)
    return i, keys[i] == pos


def _fiber_plan(tower, cap):
    """The family-independent part of the fiber checks up to stage cap.

    A member is the strip of one (stage n', strip stage n, vertex v,
    index-path pair) in report order. Returns (members, maps, corner).
    members lists (n', n, v, pair), pair the names of the two index
    paths. maps[n'][w] is (owner, column), two (n' + 1, m * m, S) arrays
    over the strip stages and the raveled index of the placement (n',
    w): the member whose strip each support entry meets (-1 for none;
    the strips of one strip stage are disjoint) and its column there. A
    member's columns are the strip columns that some support entry meets
    and the corner's support columns, in ascending order: a render is
    zero on every other one. corner stacks (span, pinv, mat) of the
    placement's solver and support columns on them, zero padded. Built
    once per (tower, cap).
    """
    plans = tower.plans
    if ("fiber", cap) in plans:
        return plans[("fiber", cap)]
    g = tower.graph
    members, corner, hits = [], [], {}
    width = 0
    for nprime in sorted({1, cap}):
        for nlow in range(nprime + 1):
            paths = g.paths(nlow * tower.p + tower.q)
            strips = []
            first = len(members)
            for v in range(g.n_vertices):
                last = tower.stages[nlow].counts[v] - 1
                pairs = sorted({(0, 0), (0, last), (last, last)})
                place = tower.placement(nlow, v)
                strips.extend(place.block_positions(*ij) for ij in pairs)
                name = {i: g.path_str(paths[tower.stages[nlow].paths[v][i]])
                        for i in (0, last)}
                members.extend((nprime, nlow, v, (name[a], name[b])) for a, b in pairs)
                pinv, span = place.solver
                corner.extend([(place.sup, span, pinv, place.mat)] * len(pairs))
            width = max(width, max(len(x) for x in strips))
            flat = np.concatenate(strips)
            order = np.argsort(flat)
            owner = np.repeat(np.arange(first, len(members)), [len(x) for x in strips])
            column = np.concatenate([np.arange(len(x)) for x in strips])
            for w in range(g.n_vertices):
                pos = tower.placement(nprime, w).index
                i, hit = _lookup(flat[order], pos.reshape(-1, pos.shape[2]))
                hits.setdefault((nprime, w), []).append(
                    (np.where(hit, owner[order][i], -1), column[order][i])
                )
    keys = [m * width + data[0] for m, data in enumerate(corner)] + [
        (own * width + col)[own >= 0] for parts in hits.values() for own, col in parts
    ]
    cols = np.unique(np.concatenate(keys))
    start = np.searchsorted(cols, np.arange(len(members)) * width)
    maps = {}
    for (nprime, w), parts in hits.items():
        owner = np.array([own for own, _ in parts])
        column = np.searchsorted(cols, owner * width + [col for _, col in parts])
        maps.setdefault(nprime, {})[w] = owner, column - start[owner]
    stacks = _zeros(
        (3, len(members), max(len(c[3]) for c in corner),
         np.bincount(cols // width).max()),
        "corner",
    )
    for m, ((_, *data), key) in enumerate(zip(corner, keys)):
        local = np.searchsorted(cols, key) - start[m]
        stacks[:, m, :len(data[0]), local] = np.array(data).transpose(2, 0, 1)
    plans[("fiber", cap)] = members, maps, stacks
    return plans[("fiber", cap)]


def _fiber_checks(tower, subs, renders, cap):
    """The recovered fibers of the stage renders, stripped at every stage.

    The strip rows of a member (_fiber_plan) are the shared render rows
    of each block entry that meets it, masked to the columns it meets,
    and distinct entries meet disjoint columns, so its strip span is the
    sum of one onb per (entry, member) unit, from one stacked SVD per
    render and vertex, cut against the member's largest singular value.
    The intersection with the corner span, the certified corner
    coordinates and the comparison with the chosen ideal run on one
    zero-padded stack of all members (windows.span_intersect, onb).
    Returns (entries, failures) in member order.
    """
    g = tower.graph
    members, maps, (span, pinv, mat) = _fiber_plan(tower, cap)
    nm = len(members)
    slot = np.array([m[1] for m in members])
    units = []
    top = np.zeros(nm)
    for nprime, by_vertex in maps.items():
        for v, pos, rows in renders[nprime]:
            owner, column = by_vertex[v]
            hit = owner >= 0
            key = np.unique(owner[hit] * len(pos) + np.nonzero(hit)[1])
            um, ug = divmod(key, len(pos))
            mask = owner[slot[um], ug] == um[:, None]
            s, vh = np.linalg.svd(rows * mask[:, None, :], full_matrices=False)[1:]
            np.maximum.at(top, um, s[:, 0])
            units.append((um, column[slot[um], ug][mask], mask, s, vh))

    # one row block per unit, in unit order per member
    height = sum(
        np.bincount(um, minlength=nm) * vh.shape[1] for um, _, _, _, vh in units
    )
    strip = _zeros((nm, np.max(height, initial=0), span.shape[2]), "fiber strip")
    nrows = np.zeros(nm, dtype=int)
    for um, col, mask, s, vh in units:
        k = vh.shape[1]
        base = nrows[um] + (np.arange(len(um)) - np.searchsorted(um, um)) * k
        nrows += np.bincount(um, minlength=nm) * k
        u, c = np.nonzero(mask)
        kept = vh[u, :, c] * (s[u] > RANK_TOL * top[um[u], None])
        strip[um[u, None], base[u, None] + np.arange(k), col[:, None]] = kept
    ideal = _zeros((nm, max(len(x) for x in subs.values()), span.shape[1]), "ideal")
    for m, (_, _, v, _) in enumerate(members):
        ideal[m, :len(subs[v]), :subs[v].shape[1]] = subs[v]

    inter = span_intersect(strip, span)
    coords = inter @ np.swapaxes(pinv, -1, -2)
    resid = np.linalg.norm(coords @ mat - inter, axis=-1)
    scales = np.maximum(1.0, np.linalg.norm(inter, axis=-1))
    certified = np.all(resid <= 100 * COORD_TOL * scales, axis=1)
    rec = onb(coords)
    contained = _all_in_span(rec, ideal)
    covers = _all_in_span(ideal, rec)

    entries, failures = [], []
    for m, (nprime, nlow, v, pair) in enumerate(members):
        entry = {
            "stage": nprime,
            "strip_stage": nlow,
            "vertex": g.vertices[v],
            "pair": pair,
        }
        if not certified[m]:
            entry["relation"] = "uncertified"
            entry["residual"] = resid[m].max()
            failures.append(
                "a corner component of the stage-%d strip at %r "
                "could not be certified (residual %.3g)"
                % (nprime, g.vertices[v], entry["residual"])
            )
        else:
            entry["relation"] = _RELATIONS[contained[m], covers[m]]
            if entry["relation"] != "equal":
                failures.append(
                    "recovered fiber at %r from stage %d stripped at stage "
                    "%d %s (pair %s)"
                    % (g.vertices[v], nprime, nlow, entry["relation"], entry["pair"])
                )
        entries.append(entry)
    return entries, failures


# the relation of a recovered fiber to the chosen ideal, by (contained, covers)
_RELATIONS = {
    (True, True): "equal",
    (False, True): "grew",
    (True, False): "shrank",
    (False, False): "moved",
}


def _all_in_span(vecs, basis):
    """Per member of two zero-padded stacks, whether in_span(vecs, basis)."""
    bound = RANK_TOL * np.maximum(1.0, np.linalg.norm(vecs, axis=-1))
    return np.all(span_residual(vecs, basis) <= bound, axis=1)


def _edge_plan(tower, push):
    """Where the edge pair maps take each stage-0 support entry.

    Returns (src, out): src holds the window positions of the stage-0
    support entries of all vertices, ascending, and row e * n_edges + f
    of out the window position that u_e^* x u_f takes each of them to,
    from levels [M+1, M+W) down to [M, M+W-1); with push, u_e x u_f^*
    from levels [M, M+W-1) up to [M+1, M+W). An entry that drops out
    gets -1. Built once per (tower, push).
    """
    plans = tower.plans
    if ("edge", push) in plans:
        return plans[("edge", push)]
    g = tower.graph
    ne = g.n_edges
    src = np.sort(np.concatenate([
        tower.placement(0, v).index.ravel() for v in range(g.n_vertices)
    ]))
    dims = [g.level_dim(k) for k in range(tower.M, tower.G1)]
    off = np.cumsum([0] + [d * d for d in dims])
    pairs, a, b = [], [], []
    for kk in range(tower.W - 1):
        k = tower.M + kk
        # per edge e, the level-k paths x ending at s(e) and the level-(k + 1) e*x
        low = [g.ending_at(k, g.esrc[e]) for e in range(ne)]
        high = [g.prepend(k, Path((e,), g.esrc[e])) for e in range(ne)]
        for e in range(ne):
            for f in range(ne):
                rows = off[kk] + (low[e][:, None] * dims[kk] + low[f]).ravel()
                up = off[kk + 1] + (high[e][:, None] * dims[kk + 1] + high[f]).ravel()
                pairs.append(np.full(len(rows), e * ne + f))
                a.append(rows if push else up)
                b.append(up if push else rows)
    i, hit = _lookup(src, np.concatenate(a))
    out = np.full((ne * ne, len(src)), -1)
    out[np.concatenate(pairs)[hit], i[hit]] = np.concatenate(b)[hit]
    plans[("edge", push)] = src, out
    return src, out


def _edge_renders(tower, render, push):
    """Renders of u_e^* x u_f on levels [M, M+W-1) for all (e, f) and rows x.

    render is the stage-0 render (_render); the rows x are J_v in each
    block entry at v, their values the rows shared by every entry. With
    push the candidates are u_e x u_f^* on levels [M+1, M+W). Candidate
    c = (e * n_edges + f) * rows + row holds the row's render values at
    the positions _edge_plan gives. Returns (rows, cand, pos, vals), one
    entry of a candidate per position.
    """
    src, plan = _edge_plan(tower, push)
    nrows = sum(len(gpos) * len(rows) for _, gpos, rows in render)
    cand, pos, vals = [], [], []
    row = 0
    for _, gpos, rows in render:
        n = len(rows)
        tgt = plan[:, np.searchsorted(src, gpos)]
        pair, grp, col = np.nonzero(tgt >= 0)
        cand.append(pair[:, None] * nrows + row + grp[:, None] * n + np.arange(n))
        pos.append(np.repeat(tgt[pair, grp, col], n))
        vals.append(rows[:, col].T)
        row += len(gpos) * n
    return nrows, *(np.concatenate([x.ravel() for x in y]) for y in (cand, pos, vals))


def _stage_basis(render, lo, hi):
    """Onb of a stage render on window positions [lo, hi), block by block.

    The render's entries sit on disjoint positions and share their rows,
    so the onb of the whole is one onb per vertex, from one SVD, shared
    by every block entry and cut against the largest singular value of
    all: per vertex, (pos, q) with the cut rows of q zero. Every entry's
    positions follow one level layout per vertex, so one mask cuts all.
    """
    parts = []
    for _, pos, rows in render:
        keep = (pos[0] >= lo) & (pos[0] < hi)
        if keep.any():
            s, vh = np.linalg.svd(rows[:, keep], full_matrices=False)[1:]
            parts.append((pos[:, keep], s, vh))
    top = max((s.max() for _, s, _ in parts), default=0.0)
    return [(pos, vh * (s > RANK_TOL * top)[:, None]) for pos, s, vh in parts]


def _edge_residuals(cands, basis, npairs):
    """Per edge pair, the largest residual of its candidates off the basis.

    Relative as in in_span. A candidate's entries off the basis
    positions are all residual; on them, it is projected block by block
    onto the onb its vertex shares across its blocks' positions.
    """
    nrows, cand, pos, vals = cands
    total = npairs * nrows
    norm2 = np.bincount(cand, np.abs(vals) ** 2, total)
    flat = np.concatenate([p.ravel() for p, _ in basis])
    order = np.argsort(flat)
    i, hit = _lookup(flat[order], pos)
    at = order[i]
    resid2 = np.bincount(cand[~hit], np.abs(vals[~hit]) ** 2, total) + 0.0
    start = 0
    for bpos, q in basis:
        sel = hit & (at >= start) & (at < start + bpos.size)
        grp, col = divmod(at[sel] - start, bpos.shape[1])
        start += bpos.size
        c = _zeros((bpos.shape[0], total, bpos.shape[1]), "edge render")
        c[grp, cand[sel], col] = vals[sel]
        c -= (c @ np.swapaxes(q.conj(), -1, -2)) @ q
        resid2 += np.einsum("gcs,gcs->c", c.real, c.real)
        resid2 += np.einsum("gcs,gcs->c", c.imag, c.imag)
    ratio = np.sqrt(resid2) / np.maximum(1.0, np.sqrt(norm2))
    return ratio.reshape(npairs, nrows).max(axis=1, initial=0.0)


def verify_fully_invariant(tower, family, n_cap=None):
    """Re-verify a constructed invariant ideal against its definition.

    Three independent checks, reported with witnesses instead of
    raising:

    * recovered fibers: stripping the deep ideal bases along sampled
      index-path pairs must recover exactly the chosen corner ideal at
      every vertex and every lower stage;
    * strip invariance: compressing the stage-0 ideal between any two
      edges stays inside the stage-0 ideal (window render comparison);
    * push invariance: conjugating the stage-0 ideal by any two edges
      lands inside the stage-1 ideal.

    The chain's inclusions are certified (_ideal_chain), and each stage
    is rendered once per vertex, shared by every block entry (_render),
    and no stack spans the window. The fiber checks run as one
    zero-padded stack of all (stage, strip stage, vertex, pair) strips
    (_fiber_checks), and the strip and push checks of one target as one
    stack of all edge pairs' renders (_edge_renders), projected entry
    block by entry block on the onb its vertex shares across its
    entries; the index plans of both are kept in tower.plans. A
    stack of more than MAX_STACK_ENTRIES entries raises
    WindowUnstableError before it is allocated. n_cap is an int in [1,
    n_max], min(3, n_max) when None; a family that does not fit the
    tower raises DomainError.
    """
    g = tower.graph
    cap = min(3, tower.config.n_max) if n_cap is None else n_cap
    check_index(cap, 1, tower.config.n_max, "the verification stage cap")
    subs = _family_subspaces(tower, family)
    _ideal_chain(tower, subs, cap)
    renders = {n: _render(tower, n, subs) for n in sorted({0, 1, cap})}
    fiber_checks, failures = _fiber_checks(tower, subs, renders, cap)

    # the strip checks stay in the stage-0 ideal on levels [M, M+W-1),
    # the push checks land in the stage-1 ideal on levels [M+1, M+W)
    checks = {False: [], True: []}
    if renders[0]:
        dims = [g.level_dim(k) for k in range(tower.M, tower.G1)]
        off = np.cumsum([0] + [d * d for d in dims])
        worst = {
            push: _edge_residuals(
                _edge_renders(tower, renders[0], push),
                _stage_basis(
                    renders[int(push)], off[int(push)], off[tower.W - 1 + push]
                ),
                g.n_edges ** 2,
            )
            for push in (False, True)
        }
        messages = (
            (False, "strip of the stage-0 ideal between %s leaves it"),
            (True, "push of the stage-0 ideal by %s leaves stage 1"),
        )
        for e in range(g.n_edges):
            for f in range(g.n_edges):
                names = (g.edges[e].name, g.edges[f].name)
                for push, message in messages:
                    resid = float(worst[push][e * g.n_edges + f])
                    checks[push].append({"pair": names, "residual": resid})
                    if resid > RANK_TOL:
                        failures.append(message % (names,) + " (residual %.3g)" % resid)
    return VerificationReport(
        ok=not failures,
        n_cap=cap,
        fiber_checks=fiber_checks,
        strip_checks=checks[False],
        push_checks=checks[True],
        failures=failures,
    )


# -- enumeration ---------------------------------------------------------------


def _closed_masks(succ, premises):
    """Every label mask closed under both rules, by Ganter's NextClosure.

    The closed sets come out in lectic order, each after one closure
    per bit position at most, so the cost follows the output.
    """
    n = len(succ)
    full = (1 << n) - 1
    mask = _close(0, succ, premises)
    out = [mask]
    while mask != full:
        for i in reversed(range(n)):
            bit = 1 << i
            if mask & bit:
                mask ^= bit
                continue
            nxt = _close(mask | bit, succ, premises)
            if not (nxt ^ mask) & (bit - 1):
                mask = nxt
                out.append(mask)
                break
    return out


def enumerate_families(tower):
    """The lattice of invariant families over the tower.

    A family is a set of tower labels (v, i). Transport invariance
    holds iff no H-edge leaves the set, and the transport closure stays
    inside it iff the S-rule forces no new label (see check_H and
    check_S), so the families are the label sets closed under both,
    listed by NextClosure on the label-implication graph. Each family
    carries the dimension j0_dim of its stage-0 ideal: the sum of the
    squared stage-0 summand sizes over its labels, which is the row
    count of build_fully_invariant(tower, family, 0) because that
    ideal is placed as whole summand blocks.
    """
    succ = _successors(tower)
    premises = _premises(tower)
    sizes = tower.stages[0].summand_sizes
    families = []
    for mask in _closed_masks(succ, premises):
        fam = _family(tower, mask)
        fam.j0_dim = sum(int(sizes[k]) ** 2 for k in _bits(mask))
        families.append(fam)
    return GaugeIdealLattice(tower.graph, families)


# -- simplicity ----------------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    kind: str
    reason: str = ""

    @property
    def simple(self):
        return self.kind == "Simple"

    def as_dict(self):
        return {"kind": self.kind, "reason": self.reason}


def unweighted_simplicity(g):
    """Classical graph-algebra simplicity: transitive and not a cycle."""
    shape = g.validate()
    if not (shape.no_sources and shape.no_sinks):
        return Verdict("NotApplicable", "the graph has a source or a sink")
    if not shape.transitive:
        return Verdict("NotApplicable", "the graph is not transitive")
    if shape.is_cycle:
        return Verdict("NotSimple", "the graph is a single cycle")
    return Verdict("Simple", "transitive and not a single cycle")


def simplicity_verdict(g, w, config=None):
    """Simplicity of the weighted algebra over a transitive graph.

    The weight period is re-minimized first; the criterion presumes
    the smallest exact period. For a transitive non-cycle the algebra
    is simple exactly when the only transport-invariant families are
    the two trivial ones; the transport condition alone decides, so
    the closure condition never enters here. A nontrivial one exists
    iff the H-closure of some single label is not every label.
    """
    shape = g.validate()
    if not (shape.no_sources and shape.no_sinks):
        return Verdict("NotApplicable", "the graph has a source or a sink")
    if not shape.transitive:
        return Verdict("NotApplicable", "the graph is not transitive")
    try:
        w = reperiodize(w, minimal_period(w))
    except WeightError as exc:
        return Verdict(
            "NotApplicable",
            "the weight sequence failed its exactness check: %s" % exc,
        )
    if shape.is_cycle:
        return Verdict("NotSimple", "the graph is a single cycle")
    if config is None:
        config = TowerConfig(n_max=0, M=w.N + w.q + 2 * w.p, W=2 * w.p)
    tower = build_tower(g, w, config)
    succ = _successors(tower)
    full = (1 << len(succ)) - 1
    for k, (v, i) in enumerate(tower.labels):
        if _close(1 << k, succ) != full:
            return Verdict(
                "NotSimple",
                "the transport closure of summand %d at %r is a nontrivial "
                "invariant family of corner ideals" % (i, g.vertices[v]),
            )
    return Verdict("Simple", "only the trivial invariant families exist")


# -- unweighted oracle ---------------------------------------------------------


def hereditary_saturated(g):
    """All vertex subsets that are both hereditary and saturated.

    Hereditary: an edge whose walk end lies in the set has its walk
    start in the set too. Saturated: a vertex all of whose in-edge
    walk starts lie in the set belongs to the set (vacuously forcing
    membership for vertices without incoming edges). Brute force over
    all subsets, canonical order by size then vertex names.
    """
    out = []
    nv = g.n_vertices
    for mask in range(2 ** nv):
        W = frozenset(v for v in range(nv) if mask >> v & 1)
        hered = all(
            g.esrc[e] in W for e in range(g.n_edges) if g.edst[e] in W
        )
        satur = all(
            v in W
            for v in range(nv)
            if all(g.esrc[e] in W for e in g.in_edges[v])
        )
        if hered and satur:
            out.append(
                HereditarySaturatedSet(frozenset(g.vertices[v] for v in W))
            )
    out.sort(key=lambda h: (len(h.subset), tuple(sorted(h.subset))))
    return out


def family_of_subset(tower, subset):
    """The family with the full corner ideal on subset, zero elsewhere."""
    g = tower.graph
    if not isinstance(subset, Iterable):
        raise GraphError("the subset must be a collection of vertices")
    idx = set()
    for item in subset:
        if isinstance(item, str) and item in g.vindex:
            idx.add(g.vindex[item])
        elif (
            isinstance(item, int)
            and not isinstance(item, bool)
            and 0 <= item < g.n_vertices
        ):
            idx.add(item)
        else:
            raise GraphError(
                "%r is neither a vertex id nor a vertex index in range" % (item,)
            )
    counts = [len(tower.corners[v].dec.summands) for v in range(g.n_vertices)]
    choices = [
        frozenset(range(counts[v])) if v in idx else frozenset()
        for v in range(g.n_vertices)
    ]
    return IdealFamily(choices, counts)
