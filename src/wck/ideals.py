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
  isometric. Each summand ideal is verified once per tower
  (Corner.summand_ideal), and the ideal of a label set at a vertex is
  the stack of their rows;
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
and tau_inverse map the whole stack, and each span certificate is one
stacked in_span or span_residual. Window renders enter only where a
statement genuinely lives on the observable window (the transport
gathers and the strip / push re-verification), always behind a
residual certificate.

The classical unweighted theory doubles as an oracle: hereditary and
saturated vertex sets, enumerated by brute force, must biject with the
lattice of invariant families once every weight equals 1.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GraphError, WeightError, WindowUnstableError
from .errors import check_index
from .findim import blocks_vec
from .graphs import Path
from .tower import TowerConfig, build_tower
from .weights import minimal_period, reperiodize
from .windows import RANK_TOL, in_span, onb, span_intersect, span_residual


# -- families and the lattice -------------------------------------------------


class IdealFamily:
    """A choice of corner ideal at every vertex.

    choices[v] lists the minimal central summand indices of the corner
    at vertex v whose direct sum is the chosen ideal J_v; the empty set
    is the zero ideal and the full index range is the corner itself.
    A subset of central summands is automatically a two-sided *-closed
    ideal of the corner; Corner.summand_ideal verifies that on the
    coordinate level once per summand. j0_dim is the dimension of the
    family's stage-0 ideal; enumerate_families sets it.
    """

    def __init__(self, choices, summand_counts):
        self.choices = tuple(frozenset(c) for c in choices)
        self.summand_counts = tuple(int(s) for s in summand_counts)
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
    orthonormal basis. Each summand ideal is verified once per tower
    (Corner.summand_ideal). Distinct central summands are orthogonal,
    <z_i a, z_j b> = tr(a^* z_i z_j b) = 0, and corner coordinates are
    isometric, so the stacked rows, in ascending summand order, are
    already an orthonormal basis of the sum; their Gram matrix is
    certified against the identity.
    """
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
    basis = np.concatenate([corner.summand_ideal(i) for i in subset])
    gram = basis.conj() @ basis.T
    if np.linalg.norm(gram - np.eye(len(basis))) > RANK_TOL:
        raise WindowUnstableError(
            "summand ideals at vertex %r are not orthonormal"
            % tower.graph.vertices[v]
        )
    return basis


def _family_subspaces(tower, family):
    """The corner ideal subspace the family picks at every vertex."""
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
    input render one level band down, and the extraction certifies
    that the gathered data lies in the target corner span.

    Concatenation reverses order: the map of the composed pair
    (a1*a2, b1*b2) equals pi_map(a2, b2) @ pi_map(a1, b1).
    """
    g = tower.graph
    a = _as_path(g, a)
    b = _as_path(g, b)
    if len(a) != len(b) or len(a) == 0:
        raise GraphError(
            "transport needs two paths of equal positive length"
        )
    if g.source_of(a) != g.source_of(b) or g.range_of(a) != g.range_of(b):
        raise GraphError(
            "transport needs paths with a common start and a common end"
        )
    lo, hi = tower.G0, tower.G1 - len(a)
    if hi <= lo:
        raise GraphError(
            "the window is too short to transport a length-%d path" % len(a)
        )
    return tower.transport(
        a,
        b,
        "transported corner element leaves the corner span at %r"
        % g.vertices[g.source_of(a)],
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
    """
    g = tower.graph
    pos = {lab: k for k, lab in enumerate(tower.labels)}
    stacked = {}
    for v, corner in tower.corners.items():
        rows = [corner.summand_ideal(i) for i in range(len(corner.dec.summands))]
        stacked[v] = np.concatenate(rows), np.cumsum([0] + [len(x) for x in rows[:-1]])
    edges = []
    for e, f in _parallel_edge_pairs(g):
        w, s = g.edst[e], g.esrc[e]
        (w_rows, w_off), (s_rows, s_off) = stacked[w], stacked[s]
        img = w_rows @ pi_map(tower, Path((e,), s), Path((f,), s)).T
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
    relative component that escapes.
    """
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
    outside J.
    """
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


def _ideal_chain(tower, family, n):
    """Stages 0..n of the placed ideal, each certified to map into the next."""
    check_index(n, 0, tower.config.n_max, "the ideal stage")
    subs = _family_subspaces(tower, family)
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
    stage-n layout of Tower.stage_vec.
    """
    return _ideal_chain(tower, family, n)[n]


# -- independent re-verification ----------------------------------------------


@dataclass
class VerificationReport:
    ok: bool
    n_cap: int
    fiber_checks: list
    strip_checks: list
    push_checks: list
    failures: list


def _edge_render(tower, blocks, e, f, push):
    """Renders of u_e^* x u_f on levels [M, M+W-1), one row per x.

    blocks are the stacked window blocks of the elements x, as
    tau_inverse gives them; with push the rows render u_e x u_f^* on
    levels [M+1, M+W). Each level is one gather of the whole stack.
    """
    g = tower.graph
    out = []
    for kk in range(tower.W - 1):
        k = tower.M + kk
        rows = g.ending_at(k, g.esrc[e])[:, None]
        cols = g.ending_at(k, g.esrc[f])
        up_r = g.prepend_index(k, Path((e,), g.esrc[e]))[rows]
        up_c = g.prepend_index(k, Path((f,), g.esrc[f]))[cols]
        dim = g.level_dim(k + 1 if push else k)
        mat = np.zeros((len(blocks[kk]), dim, dim), dtype=np.complex128)
        if push:
            mat[:, up_r, up_c] = blocks[kk][:, rows, cols]
        else:
            mat[:, rows, cols] = blocks[kk + 1][:, up_r, up_c]
        out.append(mat)
    return blocks_vec(out)


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

    Each chain stage is rendered on the window by one stacked
    tau_inverse, one row per basis row, and every span certificate runs
    on the whole stack. n_cap is an int in [1, n_max], min(3, n_max)
    when None.
    """
    g = tower.graph
    cap = min(3, tower.config.n_max) if n_cap is None else n_cap
    check_index(cap, 1, tower.config.n_max, "the verification stage cap")
    subs = _family_subspaces(tower, family)
    chain = _ideal_chain(tower, family, cap)
    failures = []
    fiber_checks = []
    for nprime in sorted({1, cap}):
        renders = blocks_vec(
            tower.tau_inverse(nprime, tower.stage_unvec(nprime, chain[nprime]))
        )
        for nlow in range(nprime + 1):
            lo = tower.M - nlow * tower.p
            hi = tower.M + tower.W - nlow * tower.p
            for v in range(g.n_vertices):
                corner = tower.corners[v]
                index_paths = g.paths(nlow * tower.p + tower.q)
                paths_low = tower.stages[nlow].paths[v]
                index = tower.window_index(nlow, v)
                _, _, span, sup = corner.restricted(lo, hi)
                corner_span = np.zeros((len(span), index.shape[2]), dtype=np.complex128)
                corner_span[:, sup] = span
                last = len(paths_low) - 1
                for i1, i2 in sorted({(0, 0), (0, last), (last, last)}):
                    mu1 = index_paths[paths_low[i1]]
                    mu2 = index_paths[paths_low[i2]]
                    strip_span = onb(renders[:, index[i1, i2]])
                    inter = span_intersect(strip_span, corner_span)
                    rows, resid = corner.certified_coords(
                        lo, hi, inter,
                        np.maximum(1.0, np.linalg.norm(inter, axis=1)),
                    )
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
                        contained = in_span(rec, subs[v])
                        covers = in_span(subs[v], rec)
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

    # the strip checks stay in the stage-0 ideal on levels [M, M+W-1),
    # the push checks land in the stage-1 ideal on levels [M+1, M+W)
    checks = {False: [], True: []}
    if len(chain[0]):
        j0 = tower.tau_inverse(0, tower.stage_unvec(0, chain[0]))
        j1 = tower.tau_inverse(1, tower.stage_unvec(1, chain[1]))
        j0_low = onb(blocks_vec(j0[:-1]))
        j1_high = onb(blocks_vec(j1[1:]))
        targets = (
            (False, j0_low, "strip of the stage-0 ideal between %s leaves it"),
            (True, j1_high, "push of the stage-0 ideal by %s leaves stage 1"),
        )
        for e in range(g.n_edges):
            for f in range(g.n_edges):
                names = (g.edges[e].name, g.edges[f].name)
                for push, basis, message in targets:
                    # the largest residual of a render, relative as in in_span
                    cand = _edge_render(tower, j0, e, f, push)
                    scale = np.maximum(1.0, np.linalg.norm(cand, axis=1))
                    worst = float(np.max(span_residual(cand, basis) / scale))
                    checks[push].append({"pair": names, "residual": worst})
                    if worst > RANK_TOL:
                        failures.append(
                            message % (names,) + " (residual %.3g)" % worst
                        )
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
