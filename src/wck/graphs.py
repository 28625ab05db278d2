"""Finite directed multigraphs and their path combinatorics.

Conventions. An edge e has a source vertex s(e) (where the walk leaves
from, "src" in the JSON schema) and a range vertex r(e) (where it
arrives, "dst"). A path of length k is stored in operator order: a tuple
(e_1, ..., e_k) with s(e_j) = r(e_{j+1}). The walk therefore starts at
s(e_k) and ends at r(e_1); the human-readable serialization writes edge
names in walk order, so the loader reverses. Length-0 paths are
vertices.

Composition a*b is defined when r(b) = s(a) and concatenates the edge
tuples, so paths multiply the way the shift operators they index do.

Path index. paths(k) is lexicographic in the operator-order edge tuple,
so the level-(k+1) paths starting with edge e form one contiguous run,
ordered like their tails. Among the paths that end at r(e), the path
(e,) + b therefore comes after the tails of the earlier edges into
r(e), in the order of b among the level-k paths that end at s(e). The
range and the source of every path are cached per level as small int
arrays, and every index gather is read off them:

  - ending_at(k, v) is the ascending int array of the indices of the
    level-k paths whose range is v; starting_at(k, v) is the same for
    the paths whose source is v;
  - prepend_rank(k, prefix) is the one int that prepending shifts
    ranks by: for b of rank i in ending_at(k, s(prefix)), prefix*b is
    entry prepend_rank(k, prefix) + i of ending_at(k + len(prefix),
    r(prefix)), read off the path counts that level_dim caches;
  - prepend(k, prefix) is that run itself: the level-(k + len(prefix))
    indices of prefix*b for all b in ending_at(k, s(prefix)), in order.

Path objects remain for parsing, printing and paths(); prepend_rank
checks a prefix against the graph before it computes its shift, so
prepend and path_index() refuse a tuple that is not a path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import GraphError

# the largest Graph.level_dim a tower window, a norm window or a Fock
# space may hold; each guard counts first and reads it at call time
MAX_LEVEL_DIM = 600


@dataclass(frozen=True)
class Edge:
    name: str
    src: str
    dst: str


@dataclass(frozen=True)
class Path:
    """A path in operator order; `source` is the vertex index of s(alpha).

    `edges` holds edge indices into the owning graph's edge list. The
    source vertex is stored explicitly so that length-0 paths (vertices)
    are representable.
    """

    edges: tuple
    source: int

    def __len__(self):
        return len(self.edges)


class _Level(NamedTuple):
    """Int arrays over paths(k); ending[v] is the read-only ending_at(k, v)."""

    range: np.ndarray
    source: np.ndarray
    ending: list


@dataclass(frozen=True)
class ShapeReport:
    no_sources: bool
    no_sinks: bool
    transitive: bool
    is_cycle: bool

    def as_dict(self):
        return {
            "no_sources": self.no_sources,
            "no_sinks": self.no_sinks,
            "transitive": self.transitive,
            "is_cycle": self.is_cycle,
        }


class Graph:
    """Immutable finite directed multigraph with cached path tables."""

    def __init__(self, vertices, edges):
        if not vertices:
            raise GraphError("graph needs at least one vertex")
        self.vertices = list(vertices)
        self.edges = [Edge(e.name, e.src, e.dst) for e in edges]
        self.vindex = {}
        for i, v in enumerate(self.vertices):
            if v in self.vindex:
                raise GraphError("duplicate vertex id %r" % v)
            self.vindex[v] = i
        self.eindex = {}
        for i, e in enumerate(self.edges):
            if e.name in self.eindex:
                raise GraphError("duplicate edge id %r" % e.name)
            self.eindex[e.name] = i
        for e in self.edges:
            if e.src not in self.vindex or e.dst not in self.vindex:
                raise GraphError(
                    "edge %r has a dangling endpoint (%s -> %s)"
                    % (e.name, e.src, e.dst)
                )
        self.esrc = [self.vindex[e.src] for e in self.edges]
        self.edst = [self.vindex[e.dst] for e in self.edges]
        self.out_edges = [[] for _ in self.vertices]
        self.in_edges = [[] for _ in self.vertices]
        for i in range(len(self.edges)):
            self.out_edges[self.esrc[i]].append(i)
            self.in_edges[self.edst[i]].append(i)
        self._paths = {}
        self._counts = [[1] * len(self.vertices)]
        self._levels = {}
        self._ranks = {}
        self._shape = None

    # -- basic queries ---------------------------------------------------

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_edges(self):
        return len(self.edges)

    def source_of(self, path):
        return path.source

    def range_of(self, path):
        if path.edges:
            return self.edst[path.edges[0]]
        return path.source

    def edge_path(self, name):
        """The length-1 path consisting of the named edge."""
        ei = self.eindex.get(name)
        if ei is None:
            raise GraphError("unknown edge %r" % name)
        return Path((ei,), self.esrc[ei])

    # -- path tables -----------------------------------------------------

    def paths(self, k):
        """All length-k paths in canonical order.

        Canonical order is lexicographic in the operator-order edge index
        sequence; k = 0 returns the vertices in input order.
        """
        if k < 0:
            raise GraphError("path length must be nonnegative")
        got = self._paths.get(k)
        if got is not None:
            return got
        if k == 0:
            ps = [Path((), v) for v in range(self.n_vertices)]
        else:
            prev = self.paths(k - 1)
            ps = [
                Path((ei,) + prev[j].edges, prev[j].source)
                for ei in range(self.n_edges)
                for j in self.ending_at(k - 1, self.esrc[ei])
            ]
        self._paths[k] = ps
        return ps

    def path_index(self, path):
        """Position of `path` in paths(len(path)); prepend_rank checks it."""
        return int(self.prepend(0, path)[0])

    def level_dim(self, k):
        """Number of length-k paths, counted without building any.

        counts[k][v] is the number of level-k paths with range v, and
        counts[k] = A counts[k-1] through the adjacency; the counts are
        exact Python ints, cached per level.
        """
        if k < 0:
            raise GraphError("path length must be nonnegative")
        counts = self._counts
        while len(counts) <= k:
            row = [0] * self.n_vertices
            for s, r in zip(self.esrc, self.edst):
                row[r] += counts[-1][s]
            counts.append(row)
        return sum(counts[k])

    def _level(self, k):
        got = self._levels.get(k)
        if got is not None:
            return got
        if k < 0:
            raise GraphError("path length must be nonnegative")
        if k == 0:
            ranges = sources = np.arange(self.n_vertices)
        else:
            prev = self._level(k - 1)
            tails = [prev.ending[s] for s in self.esrc]
            counts = [len(t) for t in tails]
            ranges = np.repeat(np.array(self.edst, dtype=int), counts)
            sources = np.concatenate(
                [np.zeros(0, dtype=int)] + [prev.source[t] for t in tails]
            )
        ending = [np.flatnonzero(ranges == v) for v in range(self.n_vertices)]
        for arr in ending:
            arr.setflags(write=False)
        got = self._levels[k] = _Level(ranges, sources, ending)
        return got

    def prepend_rank(self, k, prefix):
        """The rank shift c of prefix on level k, an int.

        For b of rank i in ending_at(k, s(prefix)), prefix*b is entry c +
        i of ending_at(k + len(prefix), r(prefix)). Level j + 1 lists the
        paths by first edge, then by tail rank, so among the paths that
        end at r(e) the path (e,) + b comes after the tails of the
        earlier edges into r(e): its rank is the rank of b plus the level-j
        path counts at their sources. c sums that over the edges of the
        prefix, last edge first. Before the int is cached per (k, edges,
        source), a wrong source or a broken concatenation raises GraphError.
        """
        key = (k, prefix.edges, prefix.source)
        got = self._ranks.get(key)
        if got is None:
            if k < 0:
                raise GraphError("path length must be nonnegative")
            at = prefix.source
            if not 0 <= at < self.n_vertices:
                raise GraphError("path not in graph")
            for e in reversed(prefix.edges):
                if not 0 <= e < self.n_edges or self.esrc[e] != at:
                    raise GraphError("path not in graph")
                at = self.edst[e]
            self.level_dim(k + len(prefix))
            got = 0
            for j, e in enumerate(reversed(prefix.edges)):
                counts = self._counts[k + j]
                got += sum(
                    counts[self.esrc[f]] for f in self.in_edges[self.edst[e]] if f < e
                )
            self._ranks[key] = got
        return got

    def prepend(self, k, prefix):
        """The level-(k + len(prefix)) indices of prefix*b, in the order of b.

        b runs over ending_at(k, s(prefix)), and the indices are the run
        of ending_at(k + len(prefix), r(prefix)) that starts at
        prepend_rank(k, prefix): a read-only slice, ascending, and all of
        ending_at(k, s(prefix)) for a length-0 prefix.
        """
        c = self.prepend_rank(k, prefix)
        n = self._counts[k][prefix.source]
        return self.ending_at(k + len(prefix), self.range_of(prefix))[c:c + n]

    def ending_at(self, k, v):
        """Ascending indices of the level-k paths with range v (read-only)."""
        return self._level(k).ending[v]

    def starting_at(self, k, v):
        """Ascending indices of the level-k paths with source v."""
        return np.flatnonzero(self._level(k).source == v)

    def xi(self, v, q, choice="min"):
        """Deterministic length-q path starting at vertex index v.

        choice="min" picks the lexicographically smallest such path,
        choice="max" the largest (used by robustness tests).
        """
        if choice not in ("min", "max"):
            raise GraphError("xi choice must be 'min' or 'max'")
        starts = self.starting_at(q, v)
        if not starts.size:
            raise GraphError(
                "no length-%d path starts at %r (sink encountered)"
                % (q, self.vertices[v])
            )
        return self.paths(q)[starts[0] if choice == "min" else starts[-1]]

    # -- serialization ---------------------------------------------------

    def path_str(self, path):
        """Human serialization: edge names joined by '.' in walk order."""
        if not path.edges:
            return self.vertices[path.source]
        return ".".join(self.edges[ei].name for ei in reversed(path.edges))

    def parse_path(self, text):
        """Inverse of path_str for length >= 1 paths; bare vertex ids too."""
        if text in self.vindex:
            return Path((), self.vindex[text])
        names = text.split(".")
        idxs = []
        for name in names:
            ei = self.eindex.get(name)
            if ei is None:
                raise GraphError("unknown path %r (no edge %r)" % (text, name))
            idxs.append(ei)
        edges = tuple(reversed(idxs))
        for j in range(len(edges) - 1):
            if self.esrc[edges[j]] != self.edst[edges[j + 1]]:
                raise GraphError("edges in %r do not concatenate" % text)
        return Path(edges, self.esrc[edges[-1]])

    @classmethod
    def from_dict(cls, doc):
        if not isinstance(doc, dict):
            raise GraphError("graph document must be a JSON object")
        try:
            vertices = doc["vertices"]
            edge_docs = doc["edges"]
        except KeyError as exc:
            raise GraphError("graph document missing key %s" % exc) from exc
        if not isinstance(vertices, list) or not all(
            isinstance(v, str) for v in vertices
        ):
            raise GraphError("'vertices' must be a list of strings")
        if not isinstance(edge_docs, list):
            raise GraphError("'edges' must be a list of edge objects")
        edges = []
        for ed in edge_docs:
            try:
                fields = (ed["name"], ed["src"], ed["dst"])
            except (TypeError, KeyError) as exc:
                raise GraphError("malformed edge entry %r" % (ed,)) from exc
            if not all(isinstance(x, str) for x in fields):
                raise GraphError("edge entry %r needs string fields" % (ed,))
            edges.append(Edge(*fields))
        return cls(vertices, edges)

    # -- shape predicates --------------------------------------------------

    def validate(self):
        """Structural predicates the main theorems condition on."""
        if self._shape is not None:
            return self._shape
        n = self.n_vertices
        indeg = [len(self.in_edges[v]) for v in range(n)]
        outdeg = [len(self.out_edges[v]) for v in range(n)]
        no_sources = all(d > 0 for d in indeg)
        no_sinks = all(d > 0 for d in outdeg)
        reach = self._reachable()
        transitive = all(
            reach[u][w] for u in range(n) for w in range(n) if u != w
        )
        is_cycle = (
            all(d == 1 for d in outdeg + indeg) and self._weakly_connected()
        )
        self._shape = ShapeReport(
            no_sources=no_sources,
            no_sinks=no_sinks,
            transitive=transitive,
            is_cycle=is_cycle,
        )
        return self._shape

    def _reachable(self):
        """reach[u][w]: a path of length >= 1 from u to w exists."""
        n = self.n_vertices
        step = [[False] * n for _ in range(n)]
        for ei in range(self.n_edges):
            step[self.esrc[ei]][self.edst[ei]] = True
        reach = [row[:] for row in step]
        for _ in range(n):
            new = [
                [
                    reach[u][w] or any(reach[u][m] and step[m][w] for m in range(n))
                    for w in range(n)
                ]
                for u in range(n)
            ]
            if new == reach:
                break
            reach = new
        return reach

    def _weakly_connected(self):
        n = self.n_vertices
        seen = {0}
        frontier = [0]
        nbrs = [set() for _ in range(n)]
        for ei in range(self.n_edges):
            nbrs[self.esrc[ei]].add(self.edst[ei])
            nbrs[self.edst[ei]].add(self.esrc[ei])
        while frontier:
            v = frontier.pop()
            for w in nbrs[v]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return len(seen) == n


def load_graph(text):
    """Parse a JSON graph document into a Graph."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphError("graph document is not valid JSON: %s" % exc) from exc
    return Graph.from_dict(doc)
