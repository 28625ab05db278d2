"""Alternating weights on a directed cycle, end to end.

A directed cycle with a period-2 diagonal weighting carries a family of
characters phi[n, i], indexed by a level residue n and a starting
vertex i: the value of phi[n, i] on an element is the stable diagonal
entry of its level matrices at the unique path of length n' starting at
vertex i, for deep levels n' congruent to n. The common kernel of the
characters with i = 0 is an ideal, and on a weighted cycle it cuts out
a nontrivial invariant family of corner ideals, while the unweighted
cycle has none. This module builds the model, evaluates the characters
with an explicit two-level stability certificate, tests kernel
membership, and cross-checks the character picture against the
enumerated ideal lattice.

The character level period L = lcm(p, k) is verified on the generator
set at build time rather than assumed: the weight data repeats every p
levels and the path labeling repeats every k levels, and every
character evaluation re-certifies its own stability against a level L
deeper.
"""

import math
from dataclasses import dataclass, field
from numbers import Real

import numpy as np

from . import elements as el
from .elements import P, U, US, Z
from .errors import DomainError, ElementError, ProtocolError, WeightError
from .errors import check_index
from .graphs import Edge, Graph
from .ideals import (
    IdealFamily,
    enumerate_families,
    verify_fully_invariant,
)
from .tower import TowerConfig, build_tower
from .weights import WeightSpec, from_dict
from .windows import annihilation_depth, word_matrix

PHI_STABLE_TOL = 1e-12
VANISH_TOL = 1e-9
# stages of the demo towers, weighted and unweighted
DEMO_STAGES = 2


@dataclass(frozen=True)
class CycleModel:
    """A weighted cycle with its character bookkeeping.

    k is the cycle length, t the level-1 weight values (t[i] sits on
    the edge leaving vertex i), p the weight period, and L the verified
    level period of the characters. diagonals maps each (word, level)
    evaluated so far to its level-matrix entries at the level paths out
    of the k vertices (_diag_entries), so each is computed once.
    """

    graph: Graph
    weights: WeightSpec
    k: int
    t: tuple
    p: int
    L: int
    diagonals: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def build_cycle(k, t):
    """Cycle graph, alternating diagonal weights, and character model.

    The graph has vertices v1..vk and edges e_i from v_i to v_{i+1}
    (indices mod k); the weight spec is diagonal with period 2 and no
    pre-periodic part, value t[i] on edge e_{i+1} at odd levels and 1
    at even levels. k must be an int and t a list, tuple or array of k
    finite positive reals, bools excluded; anything else raises a
    DomainError. Degenerate weight vectors are rejected because the
    construction exists to exhibit a weighting with more ideals than
    the unweighted cycle.
    """
    check_index(k, 2, math.inf, "the cycle length")
    if not isinstance(t, (list, tuple, np.ndarray)) or not all(
        isinstance(x, Real) and not isinstance(x, bool) for x in t
    ):
        raise WeightError("weight values must be a list of reals, got %r" % (t,))
    values = [float(x) for x in t]
    if len(values) != k:
        raise DomainError(
            "expected %d weight values, got %d" % (k, len(values))
        )
    if not all(math.isfinite(x) and x > 0 for x in values):
        raise WeightError("weight values must be positive and finite")
    if len(set(values)) == 1:
        raise WeightError(
            "constant weight values give the unweighted cycle; "
            "the demo needs them not all equal"
        )
    names = ["v%d" % (i + 1) for i in range(k)]
    edges = [
        Edge("e%d" % (i + 1), names[i], names[(i + 1) % k])
        for i in range(k)
    ]
    g = Graph(names, edges)
    doc = {
        "kind": "diagonal",
        "p": 2,
        "N": 0,
        "levels": {"1": {"e%d" % (i + 1): values[i] for i in range(k)}},
    }
    w = from_dict(doc, g)
    model = CycleModel(
        graph=g, weights=w, k=k, t=tuple(values), p=2, L=math.lcm(2, k)
    )
    _verify_generator_period(model)
    return g, w, model


def _verify_generator_period(model):
    """Certify the claimed character period on the generator set.

    Every character evaluation compares two levels L apart, so sweeping
    the generators through all (n, i) pairs turns the period claim into
    a checked property instead of an assumption.
    """
    g = model.graph
    gens = [el.unit(g), el.make(g, ((Z, 1),))]
    gens.extend(el.make(g, ((P, v),)) for v in range(g.n_vertices))
    gens.extend(
        el.make(g, ((U, e), (US, e))) for e in range(g.n_edges)
    )
    for n in range(model.L):
        _char_values(model, n, gens)


def _diag_entries(model, level, x, pos):
    """Diagonal entries of x at the level-path positions pos.

    pos holds the level path out of each start vertex i; each word of
    offset zero is one level matrix, read at all of them at once, and
    kept in model.diagonals.
    """
    total = np.zeros(len(pos), dtype=np.complex128)
    for word, c in x.terms.items():
        if el.word_offset(word) != 0:
            continue
        got = model.diagonals.get((word, level))
        if got is None:
            got = word_matrix(model.weights, word, level)[pos, pos]
            model.diagonals[(word, level)] = got
        total += c * got
    return total


def _char_values(model, n, xs):
    """The values phi[n, i](x) for every x of xs and start vertex i.

    Row j holds the diagonal entries of the level matrices of xs[j] at
    the paths starting at each vertex, read off at a deep level
    congruent to n mod L, deep enough that no annihilator in x reaches
    below level zero. They are computed at two such levels L apart and
    must agree to 1e-12 each; disagreement means the model itself is
    broken and raises instead of returning numbers. The start paths of
    a level are looked up once for all of xs.
    """
    g = model.graph
    nres = n % model.L
    starts = {}
    rows = []
    for x in xs:
        floor_level = max(
            annihilation_depth(x) + 1, model.weights.N + model.p
        )
        shifts = max(1, -(-(floor_level - nres) // model.L))
        base = nres + shifts * model.L
        for level in (base, base + model.L):
            if level not in starts:
                starts[level] = [g.starting_at(level, i)[0] for i in range(model.k)]
        val, val2 = (
            _diag_entries(model, level, x, starts[level])
            for level in (base, base + model.L)
        )
        scale = np.maximum(1.0, np.maximum(np.abs(val), np.abs(val2)))
        bad = np.flatnonzero(np.abs(val - val2) > PHI_STABLE_TOL * scale)
        if len(bad):
            i = bad[0]
            raise ProtocolError(
                "character (%d, %d) is unstable between levels %d and %d "
                "(delta %.3g)" % (nres, i, base, base + model.L, abs(val[i] - val2[i]))
            )
        rows.append(val)
    return np.array(rows)


def char_phi(model, n, i, x):
    """Character value phi[n, i](x), with a stability certificate.

    The value is the diagonal entry of the level matrices of x at the
    path starting at vertex i, read off at a deep level congruent to n
    mod L, deep enough that no annihilator in x reaches below level
    zero. The entry is computed at two such levels L apart and must
    agree to 1e-12; disagreement means the model itself is broken and
    raises instead of returning a number (_char_values).
    """
    if x.graph is not model.graph:
        raise ElementError("the element lives over a different graph")
    check_index(i, 0, model.k - 1, "the start vertex index")
    check_index(n, -math.inf, math.inf, "the level residue")
    return complex(_char_values(model, n, [x])[0, i])


def K1_membership(model, x):
    """Whether x lies in the common kernel of the i = 0 characters.

    The kernel ideal is an intersection over all level residues, and
    the verified period L reduces the infinite intersection to L
    evaluations.
    """
    return all(
        abs(char_phi(model, n, 0, x)) <= VANISH_TOL for n in range(model.L)
    )


# -- character data on corners --------------------------------------------------


def demo_tower_config(model):
    """Tower of DEMO_STAGES stages, its window wide enough for every residue.

    The window width is at least L, so each residue class mod L owns a
    window level, and at least 2p, the general corner-stability floor.
    """
    w = model.weights
    width = max(model.L, 2 * model.p)
    return TowerConfig(
        n_max=DEMO_STAGES,
        M=w.N + w.q + DEMO_STAGES * model.p + width,
        W=width,
    )


def _residue_level(tower, model, n):
    """A window level congruent to n mod L."""
    for ell in range(tower.M, tower.M + tower.W):
        if ell % model.L == n % model.L:
            return ell
    raise DomainError(
        "window [%d, %d) misses residue %d mod %d"
        % (tower.M, tower.M + tower.W, n % model.L, model.L)
    )


def corner_character_vectors(model, tower, v):
    """Restrictions of the characters to the corner at vertex v.

    A character phi[n, i] restricts to the corner at v exactly when its
    index path ends there, which forces i = (v - n) mod k; that leaves
    L characters per vertex. On a cycle every corner slot has exactly
    one path per level, so the restriction is the window-block entry at
    the level with the right residue, and the returned dict maps n to
    the vector of values on the corner basis: the column of the corner's
    basis at that level.
    """
    corner = tower.corners[v]
    out = {}
    for n in range(model.L):
        ell = _residue_level(tower, model, n)
        slot = corner.slot_lists[ell - tower.G0]
        if len(slot) != 1:
            raise DomainError(
                "corner slot at level %d has %d paths; the character "
                "reading needs a cycle" % (ell, len(slot))
            )
        out[n] = corner.columns(ell, ell + 1)[:, 0]
    return out


def distinct_character_count(model, tower, v):
    """Number of distinct character restrictions on the corner at v."""
    vecs = list(corner_character_vectors(model, tower, v).values())
    kept = []
    for vec in vecs:
        if all(np.abs(vec - other).max() > VANISH_TOL for other in kept):
            kept.append(vec)
    return len(kept)


def kernel_family(model, tower):
    """The family of corner ideals cut out by the i = 0 characters.

    At vertex v the relevant characters are phi[n, 0] for the residues
    n congruent to v mod k; a central summand joins the ideal exactly
    when all of them vanish on its projection. Corner summands on a
    cycle are one-dimensional, so vanishing on the projection is
    vanishing on the summand.
    """
    g = tower.graph
    choices = []
    counts = []
    for v in range(g.n_vertices):
        corner = tower.corners[v]
        counts.append(len(corner.dec.summands))
        chosen = set()
        levels = [
            _residue_level(tower, model, n)
            for n in range(model.L)
            if n % model.k == v % model.k
        ]
        for s, summand in enumerate(corner.dec.summands):
            if summand.d != 1:
                raise DomainError(
                    "cycle corners should be abelian; summand %d at "
                    "vertex %r has dimension %d" % (s, g.vertices[v], summand.d)
                )
            blocks = corner.algebra.render(summand.z)
            values = [blocks[ell - tower.G0][0, 0] for ell in levels]
            if all(abs(val) <= VANISH_TOL for val in values):
                chosen.add(s)
        choices.append(frozenset(chosen))
    return IdealFamily(choices, counts)


# -- end-to-end report -----------------------------------------------------------


def demo_report(k, t):
    """End-to-end check that weighting a cycle creates ideals.

    Builds the model (k and t are checked as in build_cycle), enumerates
    invariant families for the weighted and the unweighted cycle,
    confirms the weighted lattice has more than the two trivial families
    while the unweighted one has exactly two, re-verifies the
    character-kernel family against the enumerated lattice, and returns
    everything as one JSON-ready report. Failures raise with witnesses
    instead of degrading the report.
    """
    g, w, model = build_cycle(k, t)
    tower = build_tower(g, w, demo_tower_config(model))
    lattice = enumerate_families(tower)
    if len(lattice) <= 2:
        raise ProtocolError(
            "the weighted cycle produced only %d invariant families; "
            "the weighting should add at least one" % len(lattice)
        )
    unweighted = build_tower(
        g, WeightSpec.unweighted(g), TowerConfig(n_max=DEMO_STAGES)
    )
    lattice_u = enumerate_families(unweighted)
    if len(lattice_u) != 2:
        raise ProtocolError(
            "the unweighted cycle should have exactly the two trivial "
            "families, found %d" % len(lattice_u)
        )

    fam = kernel_family(model, tower)
    if fam not in set(lattice.families):
        raise ProtocolError(
            "the character-kernel family %r is missing from the "
            "enumerated lattice" % (fam,)
        )
    report_fam = next(f for f in lattice.families if f == fam)

    for v in range(g.n_vertices):
        distinct = distinct_character_count(model, tower, v)
        if distinct != tower.corners[v].r:
            raise ProtocolError(
                "corner at %r has dimension %d but %d distinct "
                "character restrictions"
                % (g.vertices[v], tower.corners[v].r, distinct)
            )

    verification = verify_fully_invariant(tower, report_fam, n_cap=2)
    if not verification.ok:
        raise ProtocolError(
            "the character-kernel family failed re-verification: %s"
            % "; ".join(verification.failures)
        )

    zel = el.make(g, ((Z, 1),))
    unit = el.unit(g)
    quadratic = el.mul(
        el.sub(zel, unit), el.sub(zel, el.scale(model.t[0], unit))
    )
    linear = el.sub(zel, el.scale(model.t[-1], unit))
    table = [
        [_real_value(complex(val)) for val in _char_values(model, n, [zel])[0]]
        for n in range(model.L)
    ]
    return {
        "k": model.k,
        "t": list(model.t),
        "p": model.p,
        "L": model.L,
        "weighted_family_count": len(lattice),
        "unweighted_family_count": len(lattice_u),
        "character_table_z": table,
        "kernel_family": report_fam.as_dict(g),
        "kernel_family_nontrivial": not (
            report_fam.trivial_zero or report_fam.trivial_full
        ),
        "kernel_contains_quadratic": K1_membership(model, quadratic),
        "kernel_contains_linear_shift": K1_membership(model, linear),
        "corner_dims": {
            g.vertices[v]: tower.corners[v].r
            for v in range(g.n_vertices)
        },
        "lattice": lattice.to_json(),
        "verify_ok": verification.ok,
    }


def _real_value(val):
    if abs(val.imag) > PHI_STABLE_TOL * max(1.0, abs(val)):
        raise ProtocolError(
            "expected a real character value, got %r" % (val,)
        )
    return float(val.real)
