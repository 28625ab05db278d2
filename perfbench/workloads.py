"""Inputs, cases and output checks of the benchmark workloads.

A workload turns a seed into the JSON texts of its input documents
(`inputs(seed)`, {"graphs": {key: text}, "weights": {key: text}}),
parses them with wck's own loaders (`load(texts)`) and lists its cases
(`cases(loaded, seed)`, a list of (name, function returning a summary)).
A case is one certified answer: it calls wck's public functions and
returns a summary that does not depend on the order of summands, labels
or families, which the runner compares with `expected.json`. Summaries
hold no byte digests, because summand order may legitimately change
between versions of wck.

wck is always called through its module attributes (`tower.build_tower`,
never a name imported from it), so the tracer in `spans.py` sees every
call the benchmark makes.
"""

import json
import os

import numpy as np

from wck import cycle_demo, elements, fock, graphs, ideals, tower, weights, windows

HERE = os.path.dirname(os.path.abspath(__file__))

# weight values are drawn uniformly from this range. Generic draws give
# the structure in expected.json; README.md lists seeds on which wck
# itself fails to build the tower from such a draw.
WEIGHT_RANGE = (0.5, 2.0)

# O2 weights with p=2, N=1 that the listed workloads draw near: each
# value is multiplied by exp(u), u uniform in [-O2_JITTER, O2_JITTER).
# This point is far from the near-coincident weights on which wck's rank
# cuts go wrong (README.md, "Known failure"), and so is every draw near it.
O2_BASE = {
    "1": {"e": 1.539, "f": 1.724},
    "2": {"e.e": 1.017, "e.f": 0.567, "f.e": 1.357, "f.f": 0.719},
}
O2_JITTER = 0.05

# cycle weights of the weighted 3-cycle in the wck test suite; its
# z has Calkin norm max(C3_T) = 3
C3_T = (2.0, 1.0, 3.0)

# invariant families of the weighted 3-cycle tower; each is re-verified
# as its own case
C3W_FAMILIES = 8

ROUNDTRIP_TOL = 1e-8
RELATION_TOL = 1e-12
# norms are rounded to this many decimals before they are compared
NORM_DECIMALS = 9


def corpus_docs():
    """The eleven corpus graphs, as load_graph documents keyed by name."""
    with open(os.path.join(HERE, "graphs.json")) as fh:
        return json.load(fh)


def walks(graph_doc, k):
    """Texts of all length-k walks of a graph document, in sorted order.

    Enumerated here rather than by wck, so that a seed gives the same
    inputs whatever wck's own path order is.
    """
    edges = graph_doc["edges"]
    out = [[e] for e in edges]
    for _ in range(k - 1):
        out = [w + [e] for w in out for e in edges if e["src"] == w[-1]["dst"]]
    return sorted(".".join(e["name"] for e in w) for w in out)


def diagonal_weights_doc(graph_doc, p, N, rng):
    """A generic diagonal weights document with period p and offset N."""
    levels = {
        str(k): {w: float(rng.uniform(*WEIGHT_RANGE)) for w in walks(graph_doc, k)}
        for k in range(1, N + p)
    }
    return {"kind": "diagonal", "p": p, "N": N, "levels": levels}


def o2_weights_doc(rng):
    """O2 weights with p=2, N=1, drawn near O2_BASE."""
    levels = {
        k: {w: x * float(np.exp(rng.uniform(-O2_JITTER, O2_JITTER))) for w, x in sorted(level.items())}
        for k, level in sorted(O2_BASE.items())
    }
    return {"kind": "diagonal", "p": 2, "N": 1, "levels": levels}


def cycle_weights_doc(t):
    """Level-1 weights t[i] on edge e_{i+1} of a cycle, period 2."""
    level1 = {"e%d" % (i + 1): float(x) for i, x in enumerate(t)}
    return {"kind": "diagonal", "p": 2, "N": 0, "levels": {"1": level1}}


def load_pair(texts, name):
    """Parse one (graph, weights) pair of input documents with wck's loaders."""
    g = graphs.load_graph(texts["graphs"][name])
    return g, weights.load_weights(texts["weights"][name], g)


# -- case bodies ----------------------------------------------------------------


def tower_case(g, w, cfg, box=None):
    """build -> render -> lattice -> render, summarised without order.

    box, when given, keeps the tower and the lattice for later cases.
    """
    tw = tower.build_tower(g, w, cfg)
    bj = tw.bratteli_json()
    lattice = ideals.enumerate_families(tw)
    lj = lattice.to_json()
    if box is not None:
        box["tower"] = tw
        box["lattice"] = lattice
    return {
        "stage_dims": tw.stage_dims(),
        "corner_dims": sorted(c.r for c in tw.corners.values()),
        "summand_sizes": sorted(lab["corner_dim"] for lab in bj["labels"]),
        "labels": len(bj["labels"]),
        "families": len(lj["families"]),
        "hasse_edges": len(lj["hasse"]),
        "j0_dims": sorted(f["j0_dim"] for f in lj["families"]),
    }


def unweighted_lattice_case(g, w, box):
    """Unweighted tower and lattice, checked against hereditary saturated sets."""
    out = tower_case(g, w, tower.TowerConfig(n_max=3), box)
    tw, lattice = box["tower"], box["lattice"]
    oracle = {
        ideals.family_of_subset(tw, hs.subset)
        for hs in ideals.hereditary_saturated(g)
    }
    out["hereditary_saturated_match"] = oracle == set(lattice.families)
    return out


def verdict_case(g, w, cfg=None):
    out = {"verdict": ideals.simplicity_verdict(g, w, config=cfg).kind}
    if w.is_trivial:
        out["classical_match"] = out["verdict"] == ideals.unweighted_simplicity(g).kind
    return out


def demo_case(k, t):
    rep = cycle_demo.demo_report(k, list(t))
    return {
        "weighted_families": rep["weighted_family_count"],
        "unweighted_families": rep["unweighted_family_count"],
        "verify_ok": rep["verify_ok"],
        "kernel_family_nontrivial": rep["kernel_family_nontrivial"],
    }


def verify_case(box, i):
    fam = box["lattice"].families[i]
    return {"ok": ideals.verify_fully_invariant(box["tower"], fam).ok}


def roundtrip_case(tw, rng):
    """tau(tau_inverse(x)) = x on every stage, and psi agrees with inclusion."""
    worst = 0.0
    n_max = tw.config.n_max
    for n in range(n_max + 1):
        x = tw.stage_random(n, rng)
        lo = tw.tau_inverse(n, x)
        back = tw.tau(n, lo)
        worst = max(worst, max(float(np.abs(back[v] - x[v]).max()) for v in x))
        if n < n_max:
            hi = tw.tau_inverse(n + 1, tw.psi(n, x))
            worst = max(worst, max(float(np.abs(a - b).max()) for a, b in zip(lo, hi)))
    return {"ok": worst <= ROUNDTRIP_TOL}


def norm_case(g, w, build):
    x = build(g)
    norm = windows.calkin_norm(x, windows.WindowConfig(weights=w))
    return {"norm": round(float(norm), NORM_DECIMALS)}


def relations_case(g, w):
    rep = fock.verify_relations(fock.build_truncated(g, w, 6))
    return {"ok": rep.max_deviation <= RELATION_TOL}


def _parse(text):
    return lambda g: elements.parse_element(g, text)


def _z_quadratic(g):
    # (z - 1)(z - 2) on the weighted 3-cycle: norm 2
    return elements.mul(
        elements.parse_element(g, "z - 1"), elements.parse_element(g, "z - 2")
    )


# (graph key, element) pairs of the norm cases; the expected norms are
# the values pinned in the wck test suite
NORM_ELEMENTS = [
    ("C3w", "z", _parse("z")),
    ("C3w", "unit", _parse("1")),
    ("C3w", "u(e1)", _parse("u(e1)")),
    ("C3w", "(z-1)(z-2)", _z_quadratic),
    ("C3w", "[z,u(e1)u*(e1)]", _parse("z.u(e1).u*(e1) - u(e1).u*(e1).z")),
    ("O2", "z", _parse("z")),
    ("O2", "u(e)u*(e)+u(f)u*(f)-1", _parse("u(e).u*(e) + u(f).u*(f) - 1")),
]


# -- workloads --------------------------------------------------------------------


class SingleTower:
    """One weighted tower and its lattice: a single large case.

    draw(graph_doc, rng) returns the weights document.
    """

    def __init__(self, name, graph, draw, cfg):
        self.name = name
        self.graph, self.draw, self.cfg = graph, draw, cfg

    def inputs(self, seed):
        doc = corpus_docs()[self.graph]
        wdoc = self.draw(doc, np.random.default_rng(seed))
        return {
            "graphs": {self.graph: json.dumps(doc)},
            "weights": {self.graph: json.dumps(wdoc)},
        }

    def load(self, texts):
        return load_pair(texts, self.graph)

    def cases(self, loaded, seed):
        g, w = loaded
        return [(self.name, lambda: tower_case(g, w, self.cfg))]


class CorpusSweep:
    """Many small certified cases over the eleven corpus graphs."""

    name = "corpus-sweep"

    def inputs(self, seed):
        docs = corpus_docs()
        rng = np.random.default_rng(seed)
        wdocs = {name: {"kind": "diagonal", "p": 1, "N": 0, "levels": {}} for name in docs}
        wdocs["O2w"] = o2_weights_doc(rng)
        wdocs["C3w"] = cycle_weights_doc(C3_T)
        gdocs = dict(docs, O2w=docs["O2"], C3w=docs["C3"])
        return {
            "graphs": {k: json.dumps(v) for k, v in gdocs.items()},
            "weights": {k: json.dumps(v) for k, v in wdocs.items()},
        }

    def load(self, texts):
        return {name: load_pair(texts, name) for name in texts["graphs"]}

    def cases(self, loaded, seed):
        names = list(corpus_docs())
        rng = np.random.default_rng([seed, 1])
        boxes = {name: {} for name in names + ["C3w"]}
        out = []
        for name in names:
            g, w = loaded[name]
            out.append((
                "lattice:" + name,
                lambda g=g, w=w, b=boxes[name]: unweighted_lattice_case(g, w, b),
            ))
        for name in names:
            g, w = loaded[name]
            out.append(("verdict:" + name, lambda g=g, w=w: verdict_case(g, w)))
        g, w = loaded["O2w"]
        out.append((
            "verdict:O2w",
            lambda g=g, w=w: verdict_case(g, w, tower.TowerConfig(n_max=0, M=4, W=3)),
        ))
        out.append(("demo:3", lambda: demo_case(3, (2, 1, 1))))
        out.append(("demo:4", lambda: demo_case(4, (2, 1, 3, 1))))
        g, w = loaded["C3w"]
        out.append((
            "lattice:C3w",
            lambda g=g, w=w: tower_case(g, w, tower.TowerConfig(), boxes["C3w"]),
        ))
        for i in range(C3W_FAMILIES):
            out.append(("verify:C3w:%d" % i, lambda i=i: verify_case(boxes["C3w"], i)))
        for name in names + ["C3w"]:
            out.append((
                "roundtrip:" + name,
                lambda b=boxes[name]: roundtrip_case(b["tower"], rng),
            ))
        for key, label, build in NORM_ELEMENTS:
            g, w = loaded[key]
            out.append(("norm:%s:%s" % (key, label), lambda g=g, w=w, b=build: norm_case(g, w, b)))
        for name in names + ["O2w"]:
            g, w = loaded[name]
            out.append(("relations:" + name, lambda g=g, w=w: relations_case(g, w)))
        return out


WORKLOADS = {
    w.name: w
    for w in [
        SingleTower(
            "closure-o2", "O2", lambda doc, rng: o2_weights_doc(rng),
            tower.TowerConfig(n_max=1, M=6, W=2),
        ),
        # the same tower on the uniform draw; not listed in BENCHMARK.json,
        # as wck fails on some of its seeds (README.md, "Known failure")
        SingleTower(
            "closure-o2-uniform", "O2", lambda doc, rng: diagonal_weights_doc(doc, 2, 1, rng),
            tower.TowerConfig(n_max=1, M=6, W=2),
        ),
        SingleTower(
            "lattice-g2p3", "G2", lambda doc, rng: diagonal_weights_doc(doc, 3, 0, rng),
            tower.TowerConfig(n_max=1, M=9, W=3),
        ),
        CorpusSweep(),
    ]
}
