"""Truncated Fock representation over the graded path spaces.

The representation acts on the direct sum of the path spaces of levels
0..K, with the level-k paths as its basis. On that basis the creation
operator S_e is a 0/1 partial map: it sends b to e*b when r(b) = s(e)
and b lies below level K. FockRep keeps S_e as that int index map, and
S_a of a path a is the composition of its edge maps, rightmost edge
first. Every entry of the operators in the defining relations is then
a hit count of these maps or a copied entry of some Z_k, so
verify_relations reads each relation off np.bincount of the images and
reports the worst deviation per relation family. The sparse operator
form (S_a, P_v, Q_k, Z as matrices) lives on as the test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import graphs
from .errors import WeightError, WindowUnstableError, check_index
from .graphs import Path


class FockRep:
    """Levels 0..K of the path Fock space, with each creator as an index map.

    maps[e, j] is the index of e*b_j when r(b_j) = s(e) and b_j lies
    below level K, and -1 otherwise. A level of more than
    graphs.MAX_LEVEL_DIM paths raises WindowUnstableError before any map
    is allocated.
    """

    def __init__(self, graph, weights, K):
        if weights.graph is not graph:
            raise WeightError("the weights were built on a different graph")
        check_index(K, 0, math.inf, "the Fock depth K")
        self.graph = graph
        self.weights = weights
        self.K = K
        dims = [graph.level_dim(k) for k in range(K + 1)]
        if max(dims) > graphs.MAX_LEVEL_DIM:
            raise WindowUnstableError(
                "level dimension %d exceeds the guard %d; pass a smaller "
                "depth K" % (max(dims), graphs.MAX_LEVEL_DIM)
            )
        self.offsets = np.concatenate([[0], np.cumsum(dims)]).astype(int)
        self.dim = int(self.offsets[-1])
        self.maps = np.full((graph.n_edges, self.dim), -1, dtype=int)
        for e in range(graph.n_edges):
            edge = Path((e,), graph.esrc[e])
            for k in range(K):
                idx = graph.ending_at(k, graph.esrc[e])
                self.maps[e, self.offsets[k] + idx] = (
                    self.offsets[k + 1] + graph.prepend(k, edge)
                )

    def index(self, path):
        return int(self.offsets[len(path)] + self.graph.path_index(path))


def build_truncated(graph, weights, K):
    return FockRep(graph, weights, K)


@dataclass
class RelationReport:
    K: int
    deviations: dict

    @property
    def max_deviation(self):
        return max(self.deviations.values(), default=0.0)

    def as_dict(self):
        return {
            "K": self.K,
            "deviations": dict(self.deviations),
            "max_deviation": self.max_deviation,
        }


def _hits(f, label, n_labels):
    """out[l, m] counts the (a, j) with label[a] = l and f[a, j] = m."""
    dim = f.shape[1]
    flat = (label[:, None] * dim + f)[f >= 0]
    return np.bincount(flat, minlength=n_labels * dim).reshape(n_labels, dim)


def verify_relations(r):
    """Exactness report for the defining relations on the truncation.

    Identities whose left side clips at the top of the truncation
    (S_a* S_b and the partial-isometry identity) are checked on the
    levels the truncation represents faithfully, those at most K - |a|;
    the range-sum and commutation identities hold on every level as
    written.
    """
    g = r.graph
    nv = g.n_vertices
    level = np.repeat(np.arange(r.K + 1), np.diff(r.offsets))
    end = np.empty(r.dim, dtype=int)
    for k in range(r.K + 1):
        for v in range(nv):
            end[r.offsets[k] + g.ending_at(k, v)] = v
    maps = {}

    def path_maps(k):
        """The index maps of the length-k paths, one row each."""
        if k not in maps:
            rows = []
            for a in g.paths(k):
                f = r.maps[a.edges[-1]]
                for e in reversed(a.edges[:-1]):
                    f = np.where(f >= 0, r.maps[e][f], -1)
                rows.append(f)
            maps[k] = np.array(rows, dtype=int).reshape(-1, r.dim)
        return maps[k]

    # S_a* S_b = delta_ab P_{s(a)} on the kept columns j. Its (i, j)
    # entry is [f_a(i) = f_b(j)], so it fails exactly where a kept image
    # is hit twice, or where f_a(j) is defined unless r(j) = s(a).
    dev = {}
    worst = 0.0
    for length in (1, 2):
        f = path_maps(length)
        hit = f >= 0
        src = np.array([a.source for a in g.paths(length)], dtype=int)
        total = np.bincount(f[hit], minlength=r.dim)
        shared = hit & (total[np.where(hit, f, 0)] > 1)
        bad = shared | (hit != (end == src[:, None]))
        if bad[:, level <= r.K - length].any():
            worst = 1.0
    dev["pair_isometry"] = worst

    # sum over |a|=k of S_a S_a* = I - sum_{i<k} Q_i, in total and times
    # P_v for the paths with range v; both sides are diagonal
    worst = worst_vertex = 0.0
    for k in range(1, min(3, r.K) + 1):
        expect = level >= k
        ends = np.array([g.range_of(a) for a in g.paths(k)], dtype=int)
        per_vertex = _hits(path_maps(k), ends, nv)
        worst = max(worst, float(np.abs(per_vertex.sum(axis=0) - expect).max()))
        expect_v = expect & (end == np.arange(nv)[:, None])
        worst_vertex = max(
            worst_vertex, float(np.abs(per_vertex - expect_v).max())
        )
    dev["range_sum"] = worst
    dev["range_sum_per_vertex"] = worst_vertex

    # Z commutes with every P_v iff Z_k[i, j] = 0 whenever r(i) != r(j)
    worst = 0.0
    for k in range(r.K + 1):
        ek = end[r.offsets[k]:r.offsets[k + 1]]
        across = r.weights.level_matrix(k)[ek[:, None] != ek[None, :]]
        worst = max(worst, float(np.abs(across).max(initial=0.0)))
    dev["z_vertex_commutation"] = worst

    # S_a S_a* is the diagonal of the hit counts of f_a, so column j of
    # S_a S_a* S_a - S_a holds the hit count at f_a(j), minus 1
    worst = 0.0
    for length in (1, 2):
        f = path_maps(length)
        own = _hits(f, np.arange(len(f)), len(f))
        a, j = np.nonzero((f >= 0) & (level <= r.K - length))
        worst = max(worst, float((own[a, f[a, j]] - 1).max(initial=0)))
    dev["partial_isometry"] = worst

    return RelationReport(K=r.K, deviations=dev)
