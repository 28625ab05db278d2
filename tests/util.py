"""Shared builders for the test corpus.

The corpus is eleven small graphs (at most 5 vertices, no sources, no
sinks) chosen to cover the structural cases the theory distinguishes:
single-vertex multi-loop, non-transitive loop chains, plain cycles of
several lengths, cycles with parallel edges, and a transitive non-cycle.

It also holds the slow references that fast paths in wck are tested
against: the dense full-length closure loop and the concrete stage
algebra of a tower.
"""

import numpy as np

from wck.errors import ClosureOverflowError
from wck.findim import (
    StarAlgebra,
    blocks_adj,
    blocks_eye,
    blocks_mul,
    blocks_scale,
    blocks_vec,
    star_closure,
)
from wck.graphs import Edge, Graph
from wck.windows import RANK_TOL


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
