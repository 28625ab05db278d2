"""Truncated Fock representation over the graded path spaces.

The representation acts on the direct sum of the path spaces of levels
0..K. Creation operators S_e prepend an edge and annihilate the top
level, vertex projections P_v select paths by range, Q_k selects one
level, and Z acts block-diagonally through the weight matrices. All
operators are sparse; the defining relations hold exactly (in floating
point) wherever the truncation does not clip, and the verifier reports
the worst deviation per relation family.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .graphs import Path


class FockRep:
    """Sparse operators on levels 0..K of the path Fock space."""

    def __init__(self, graph, weights, K):
        self.graph = graph
        self.weights = weights
        self.K = int(K)
        dims = [graph.level_dim(k) for k in range(self.K + 1)]
        self.offsets = np.concatenate([[0], np.cumsum(dims)]).astype(int)
        self.dim = int(self.offsets[-1])
        self._S_cache = {}
        self._P_cache = {}
        self._Z = None

    def index(self, path):
        return int(self.offsets[len(path)] + self.graph.path_index(path))

    def basis_path(self, i):
        k = int(np.searchsorted(self.offsets, i, side="right") - 1)
        return self.graph.paths(k)[i - self.offsets[k]]

    def identity(self):
        return sp.identity(self.dim, dtype=np.complex128, format="csr")

    def S(self, e):
        """Creation operator of one edge: prepends e, clips the top level."""
        got = self._S_cache.get(e)
        if got is not None:
            return got
        g = self.graph
        edge = Path((e,), g.esrc[e])
        rows, cols = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)]
        for k in range(self.K):
            idx = g.ending_at(k, g.esrc[e])
            rows.append(self.offsets[k + 1] + g.prepend_index(k, edge)[idx])
            cols.append(self.offsets[k] + idx)
        rows, cols = np.concatenate(rows), np.concatenate(cols)
        data = np.ones(len(rows), dtype=np.complex128)
        out = sp.csr_matrix((data, (rows, cols)), shape=(self.dim, self.dim))
        self._S_cache[e] = out
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
        """Projection onto levels strictly below k."""
        diag = np.zeros(self.dim)
        diag[: self.offsets[k]] = 1.0
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


def _max_entry(m):
    m = sp.csr_matrix(m)
    return float(np.max(np.abs(m.data))) if m.nnz else 0.0


def verify_relations(r):
    """Exactness report for the defining relations on the truncation.

    Identities whose left side clips at the top of the truncation
    (S_a* S_b and the partial-isometry identity) are checked on the
    levels the truncation represents faithfully; the range-sum and
    commutation identities hold on every level as written.
    """
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

    return RelationReport(K=r.K, deviations=dev)


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
