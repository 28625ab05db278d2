"""Weight sequences with exact eventual periodicity.

A weight spec stores positive invertible block matrices Z_1 .. Z_{N+p-1}
(Z_0 is always the identity and never stored) together with a period p
and a stabilization level N. Above the stored range the sequence is
defined by the extension rule

    Z_{k+p} = I_p (x) Z_k          for k >= N,

where the tensor factor acts on the first p edges of a path in operator
order: the entry of Z_{k+p} between two paths vanishes unless their
length-p operator prefixes agree, and then equals the Z_k entry of the
suffixes. Every matrix respects the bimodule block structure: entries
vanish unless the two paths share both source and range.

Exactness of the periodicity is what makes all downstream quotient
computations finite, so only exact specs are representable; the
asymptotic form of the periodicity condition can still be inspected
through the residual sequence of `check_condition_Ap`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import islice
from numbers import Real

import numpy as np

from .errors import GraphError, WeightError, check_index

EXACTNESS_TOL = 1e-12


@dataclass
class ApReport:
    """Residuals of the period-p_test self-similarity condition."""

    p_test: int
    N: int
    exact: bool
    residuals: list

    def as_dict(self):
        return {
            "p_test": self.p_test,
            "N": self.N,
            "exact": self.exact,
            "residuals": self.residuals,
        }


class WeightSpec:
    """Validated weight sequence over a fixed graph."""

    def __init__(self, graph, kind, p, N, seed_levels, epsilon=None):
        if kind not in ("diagonal", "block"):
            raise WeightError("kind must be 'diagonal' or 'block', got %r" % kind)
        check_index(p, 1, math.inf, "the period p", WeightError)
        check_index(N, 0, math.inf, "the stabilization level N", WeightError)
        self.graph = graph
        self.kind = kind
        self.p = p
        self.N = N
        # seed_levels: level -> diag vector (diagonal kind) or dense matrix
        self.seed_levels = dict(seed_levels)
        expected = set(range(1, N + p))
        if set(self.seed_levels) != expected:
            raise WeightError(
                "seed levels must be exactly 1..N+p-1 = %s, got %s"
                % (sorted(expected), sorted(self.seed_levels))
            )
        eigs = [1.0]
        for k, data in sorted(self.seed_levels.items()):
            dim = graph.level_dim(k)
            numeric = "iuf" if self.kind == "diagonal" else "iufc"
            if data.dtype.kind not in numeric or not np.all(np.isfinite(data)):
                raise WeightError("level %d holds a non-finite or ill-typed value" % k)
            if self.kind == "diagonal":
                if data.shape != (dim,):
                    raise WeightError("level %d diagonal has wrong length" % k)
                if np.any(data <= 0):
                    raise WeightError("level %d has a nonpositive weight value" % k)
                eigs.extend(float(x) for x in data)
            else:
                if data.shape != (dim, dim):
                    raise WeightError("level %d matrix has wrong shape" % k)
                if np.max(np.abs(data - data.conj().T)) > EXACTNESS_TOL:
                    raise WeightError("level %d matrix is not self-adjoint" % k)
                self._check_block_structure(k, data)
                lev_eigs = np.linalg.eigvalsh(data)
                if np.min(lev_eigs) <= 0:
                    raise WeightError("level %d matrix is not positive definite" % k)
                eigs.extend(float(x) for x in lev_eigs)
        min_eig = min(eigs)
        if epsilon is None:
            self.epsilon = min_eig
        else:
            if (
                isinstance(epsilon, bool)
                or not isinstance(epsilon, Real)
                or not math.isfinite(epsilon)
                or epsilon <= 0
            ):
                raise WeightError("epsilon must be a positive finite number")
            if min_eig < epsilon - EXACTNESS_TOL:
                raise WeightError(
                    "seed eigenvalue %g lies below declared epsilon %g"
                    % (min_eig, epsilon)
                )
            self.epsilon = float(epsilon)
        self._diag_cache = {}
        self._matrix_cache = {}
        self._split_cache = {}

    @property
    def q(self):
        return self.p - 1

    @property
    def is_trivial(self):
        """True when every level matrix is the identity."""
        if not self.seed_levels:
            return True
        for data in self.seed_levels.values():
            if self.kind == "diagonal":
                if np.max(np.abs(data - 1.0)) > 0:
                    return False
            else:
                dim = data.shape[0]
                if np.max(np.abs(data - np.eye(dim))) > 0:
                    return False
        return True

    @classmethod
    def unweighted(cls, graph):
        return cls(graph, "diagonal", 1, 0, {})

    def _check_block_structure(self, k, mat):
        ps = self.graph.paths(k)
        keys = [(p.source, self.graph.range_of(p)) for p in ps]
        for i in range(len(ps)):
            for j in range(len(ps)):
                if keys[i] != keys[j] and abs(mat[i, j]) > 0:
                    raise WeightError(
                        "level %d matrix violates the bimodule block structure "
                        "(nonzero entry between different source/range classes)"
                        % k
                    )

    # -- prefix/suffix tables ---------------------------------------------

    def split_table(self, k, m):
        """Index arrays (prefix at level m, suffix at level k-m) per level-k path."""
        key = (k, m)
        got = self._split_cache.get(key)
        if got is not None:
            return got
        g = self.graph
        pre = np.empty(g.level_dim(k), dtype=np.int64)
        suf = np.empty(g.level_dim(k), dtype=np.int64)
        # every level-k path is head*tail for exactly one level-m head
        for h, head in enumerate(g.paths(m)):
            dst = g.prepend(k - m, head)
            pre[dst] = h
            suf[dst] = g.ending_at(k - m, head.source)
        self._split_cache[key] = (pre, suf)
        return pre, suf

    # -- level data ---------------------------------------------------------

    def level_diag(self, k):
        """Eigenvalue vector at level k (diagonal kind only)."""
        if self.kind != "diagonal":
            raise WeightError("level_diag requires a diagonal spec")
        got = self._diag_cache.get(k)
        if got is not None:
            return got
        if k == 0:
            d = np.ones(self.graph.n_vertices)
        elif k < self.N + self.p:
            d = self.seed_levels[k]
        else:
            _, suf = self.split_table(k, self.p)
            d = self.level_diag(k - self.p)[suf]
        self._diag_cache[k] = d
        return d

    def level_matrix(self, k):
        """Dense matrix of Z_k on the level-k path basis."""
        got = self._matrix_cache.get(k)
        if got is not None:
            return got
        if self.kind == "diagonal":
            m = np.diag(self.level_diag(k)).astype(np.complex128)
        elif k == 0:
            m = np.eye(self.graph.n_vertices, dtype=np.complex128)
        elif k < self.N + self.p:
            m = self.seed_levels[k].astype(np.complex128)
        else:
            m = self.tensor_extension(k - self.p, self.p)
        self._matrix_cache[k] = m
        return m

    def tensor_extension(self, k, m):
        """The matrix I_m (x) Z_k on the level-(k+m) basis."""
        pre, suf = self.split_table(k + m, m)
        inner = self.level_matrix(k)
        return inner[np.ix_(suf, suf)] * (pre[:, None] == pre[None, :])


def check_condition_Ap(w, p_test, k_max=None):
    """Residuals ||I_{p_test} (x) Z_k - Z_{k+p_test}|| for k = 0..k_max.

    The spec is exact for period p_test when all residuals at k >= N
    vanish. The extension rule makes the residual sequence p-periodic in
    k above N, so the default horizon N + p + p_test decides exactness
    for all levels.
    """
    check_index(p_test, 1, math.inf, "p_test")
    if k_max is None:
        k_max = w.N + w.p + p_test
    check_index(k_max, w.N + p_test, math.inf, "k_max")
    residuals = []
    for k in range(k_max + 1):
        diff = w.tensor_extension(k, p_test) - w.level_matrix(k + p_test)
        if diff.size == 0:
            residuals.append(0.0)
        else:
            residuals.append(float(np.linalg.norm(diff, 2)))
    exact = all(r <= EXACTNESS_TOL for r in residuals[w.N:])
    return ApReport(p_test=p_test, N=w.N, exact=exact, residuals=residuals)


def minimal_period(w):
    """Smallest period 1..p for which the spec is exactly self-similar."""
    for p_test in range(1, w.p + 1):
        if check_condition_Ap(w, p_test).exact:
            return p_test
    raise WeightError("declared period failed its own exactness check")


def reperiodize(w, p_new):
    """The same weight sequence repackaged with a different exact period.

    The new spec keeps the stabilization level N and reseeds levels
    1..N+p_new-1 from the existing sequence, so it generates identical
    level matrices everywhere. Raises when the sequence is not exactly
    self-similar with period p_new.
    """
    check_index(p_new, 1, math.inf, "the new period")
    if p_new == w.p:
        return w
    if not check_condition_Ap(w, p_new).exact:
        raise WeightError(
            "the weight sequence is not exactly periodic with period %d"
            % p_new
        )
    seeds = {}
    for k in range(1, w.N + p_new):
        if w.kind == "diagonal":
            seeds[k] = np.array(w.level_diag(k))
        else:
            seeds[k] = np.array(w.level_matrix(k))
    return WeightSpec(w.graph, w.kind, p_new, w.N, seeds)


# -- loading -----------------------------------------------------------------


def from_dict(doc, graph):
    if not isinstance(doc, dict):
        raise WeightError("weights document must be a JSON object")
    kind = doc.get("kind", "diagonal")
    try:
        p = doc["p"]
        N = doc["N"]
    except KeyError as exc:
        raise WeightError("weights document missing key %s" % exc) from exc
    epsilon = doc.get("epsilon")
    levels_doc = doc.get("levels", {})
    if not isinstance(levels_doc, dict):
        raise WeightError("'levels' must be an object keyed by level")
    check_index(p, 1, math.inf, "the period p", WeightError)
    check_index(N, 0, math.inf, "the stabilization level N", WeightError)
    seed_levels = {}
    for key, level_doc in levels_doc.items():
        try:
            k = int(key)
        except ValueError as exc:
            raise WeightError("level key %r is not an integer" % key) from exc
        if k < 1 or k > N + p - 1:
            raise WeightError(
                "level %d outside the required seed range 1..%d" % (k, N + p - 1)
            )
        if kind == "diagonal":
            seed_levels[k] = _parse_diag_level(graph, k, level_doc)
        else:
            seed_levels[k] = _parse_block_level(graph, k, level_doc)
    # every key lies in 1..N+p-1, so counting decides; listing the first
    # few gaps keeps a huge p from materializing the whole range
    if len(seed_levels) < N + p - 1:
        missing = (k for k in range(1, N + p) if k not in seed_levels)
        raise WeightError(
            "missing seed levels %s (levels 1..N+p-1 are required)"
            % list(islice(missing, 8))
        )
    return WeightSpec(graph, kind, p, N, seed_levels, epsilon)


def _parse_diag_level(graph, k, level_doc):
    if not isinstance(level_doc, dict):
        raise WeightError("level %d entries must be a path->value object" % k)
    diag = np.ones(graph.level_dim(k))
    for path_text, value in level_doc.items():
        try:
            path = graph.parse_path(path_text)
        except GraphError as exc:
            raise WeightError(
                "level %d names an unknown path %r: %s" % (k, path_text, exc)
            ) from exc
        if len(path) != k:
            raise WeightError(
                "path %r has length %d, expected %d" % (path_text, len(path), k)
            )
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise WeightError("weight of %r must be a number" % path_text)
        if value <= 0:
            raise WeightError("weight of %r must be positive" % path_text)
        diag[graph.path_index(path)] = float(value)
    return diag


def _holds_bool(rows):
    """Whether a JSON value holds a bool at any depth of its lists."""
    if isinstance(rows, list):
        return any(_holds_bool(row) for row in rows)
    return isinstance(rows, bool)


def _parse_block_level(graph, k, level_doc):
    if not isinstance(level_doc, dict):
        raise WeightError("level %d entries must be a class->matrix object" % k)
    dim = graph.level_dim(k)
    mat = np.eye(dim, dtype=np.complex128)
    classes = {}
    for i, path in enumerate(graph.paths(k)):
        key = (graph.vertices[path.source], graph.vertices[graph.range_of(path)])
        classes.setdefault(key, []).append(i)
    for key_text, rows in level_doc.items():
        parts = key_text.split(":")
        if len(parts) != 2:
            raise WeightError("block key %r is not of the form src:dst" % key_text)
        key = (parts[0], parts[1])
        if key not in classes:
            raise WeightError(
                "no level-%d paths from %s to %s" % (k, key[0], key[1])
            )
        idxs = classes[key]
        if _holds_bool(rows):
            raise WeightError("block %r must be a matrix of numbers" % key_text)
        try:
            block = np.asarray(rows, dtype=np.complex128)
        except (TypeError, ValueError) as exc:
            raise WeightError(
                "block %r must be a matrix of numbers" % key_text
            ) from exc
        if block.shape != (len(idxs), len(idxs)):
            raise WeightError(
                "block %r must be %dx%d over the canonical path order "
                "(bimodule block structure)" % (key_text, len(idxs), len(idxs))
            )
        mat[np.ix_(idxs, idxs)] = block
    return mat


def load_weights(text, graph):
    """Parse a JSON weights document against a graph."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise WeightError("weights document is not valid JSON: %s" % exc) from exc
    return from_dict(doc, graph)
