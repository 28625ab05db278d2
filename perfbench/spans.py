"""Per-layer spans of wck, recorded from outside the package.

`Tracer.install` replaces each function in `TRACED` by a timing wrapper
at every place a caller looks it up: the attribute of its module or
class, and every module-level name a loaded wck module bound to it with
`from ... import`. `Tracer.uninstall` puts the originals back, so an
untraced pass runs the unmodified package.

A span is (name, parent, request, start, end). Spans live in flat
arrays while the run lasts and are written out once, at its end. The
self time of a span is its duration minus the durations of its direct
child spans, which are the wrapped callees.
"""

import functools
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# metric prefix, defining module, class (None for a module function), attribute
TRACED = [
    ("graphs.paths", "wck.graphs", "Graph", "paths"),
    ("graphs.path_index", "wck.graphs", "Graph", "path_index"),
    ("weights.level_diag", "wck.weights", "WeightSpec", "level_diag"),
    ("weights.split_table", "wck.weights", "WeightSpec", "split_table"),
    ("elements.parse_element", "wck.elements", None, "parse_element"),
    ("elements.mul", "wck.elements", None, "mul"),
    ("fock.build_truncated", "wck.fock", None, "build_truncated"),
    ("fock.verify_relations", "wck.fock", None, "verify_relations"),
    ("windows.calkin_norm", "wck.windows", None, "calkin_norm"),
    ("windows.in_span", "wck.windows", None, "in_span"),
    ("windows.onb", "wck.windows", None, "onb"),
    ("findim.star_closure", "wck.findim", None, "star_closure"),
    ("findim.central_decomposition", "wck.findim", None, "central_decomposition"),
    ("tower.build_tower", "wck.tower", None, "build_tower"),
    ("tower.build_C0", "wck.tower", None, "build_C0"),
    ("tower.tau", "wck.tower", "Tower", "tau"),
    ("tower.tau_inverse", "wck.tower", "Tower", "tau_inverse"),
    ("tower.psi", "wck.tower", "Tower", "psi"),
    ("ideals.enumerate_families", "wck.ideals", None, "enumerate_families"),
    ("ideals.ideal_subspace", "wck.ideals", None, "ideal_subspace"),
    ("ideals.pi_map", "wck.ideals", None, "pi_map"),
    ("ideals.check_S", "wck.ideals", None, "check_S"),
    ("ideals.verify_fully_invariant", "wck.ideals", None, "verify_fully_invariant"),
    ("ideals.simplicity_verdict", "wck.ideals", None, "simplicity_verdict"),
    ("cycle_demo.demo_report", "wck.cycle_demo", None, "demo_report"),
]


# Sizes read from a traced call's arguments and result. Each hook returns
# (metric, value, how): "sum" adds over the calls of a pass, "max" keeps
# the largest.
def _star_closure_sizes(args, kwargs, result):
    dims = args[0] if args else kwargs["dims"]
    return [
        ("findim.star_closure.dim_out", result.dim, "sum"),
        ("findim.star_closure.ambient_len", sum(d * d for d in dims), "max"),
    ]


def _decomposition_sizes(args, kwargs, result):
    return [("findim.central_decomposition.summands_out", len(result.summands), "sum")]


def _lattice_sizes(args, kwargs, result):
    tw = args[0] if args else kwargs["tower"]
    space = 1
    for corner in tw.corners.values():
        space *= 2 ** len(corner.dec.summands)
    return [
        ("ideals.families", len(result), "sum"),
        ("ideals.search_space", space, "sum"),
    ]


def _tower_sizes(args, kwargs, result):
    return [
        ("tower.labels", len(result.labels), "sum"),
        ("tower.level_dim_max", max(result.C0.dims), "max"),
    ]


SIZE_HOOKS = {
    "findim.star_closure": _star_closure_sizes,
    "findim.central_decomposition": _decomposition_sizes,
    "ideals.enumerate_families": _lattice_sizes,
    "tower.build_tower": _tower_sizes,
}

SIZE_METRICS = [
    "findim.star_closure.dim_out",
    "findim.star_closure.ambient_len",
    "findim.central_decomposition.summands_out",
    "ideals.families",
    "ideals.search_space",
    "tower.labels",
    "tower.level_dim_max",
]


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("q")
        self.request = array("q")
        self.start = array("d")
        self.end = array("d")
        # 1 when no span of the same name encloses this one, so that the
        # inclusive time of a recursive function is counted once
        self.outer = array("b")
        self.requests = []
        self.current_request = -1
        # open spans; the -1 at the bottom is the parent of a root span
        self._stack = [-1]
        self._depth = []
        self._patched = []
        self.sizes = {}

    def _id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return nid

    def _open(self, nid):
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.request.append(self.current_request)
        self.outer.append(self._depth[nid] == 0)
        self._depth[nid] += 1
        self._stack.append(i)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i, nid):
        self.end[i] = time.perf_counter()
        self._stack.pop()
        self._depth[nid] -= 1

    @contextmanager
    def span(self, name):
        """One span of the benchmark's own around the with-block."""
        nid = self._id(name)
        i = self._open(nid)
        try:
            yield
        finally:
            self._close(i, nid)

    def case(self, name):
        """Span of one case; the spans it encloses carry its request id."""
        self.current_request = len(self.requests)
        self.requests.append(name)
        return self.span("case")

    def _wrap(self, metric, fn):
        """The timing wrapper of fn: _open and _close, inlined for speed."""
        nid = self._id(metric)
        hook = SIZE_HOOKS.get(metric)
        tracer = self
        clock = time.perf_counter
        stack, depth = self._stack, self._depth
        starts, ends = self.start, self.end
        names, parents, outers = self.name.append, self.parent.append, self.outer.append
        requests = self.request.append

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names(nid)
            parents(stack[-1])
            requests(tracer.current_request)
            outers(depth[nid] == 0)
            depth[nid] += 1
            stack.append(i)
            ends.append(0.0)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
                depth[nid] -= 1
            if hook is not None:
                for key, value, how in hook(args, kwargs, result):
                    old = tracer.sizes.get(key, 0)
                    tracer.sizes[key] = old + value if how == "sum" else max(old, value)
            return result

        return traced

    def install(self):
        """Wrap every function in TRACED; sizes start again from zero."""
        self.sizes = {}
        wck_modules = [
            m for name, m in list(sys.modules.items())
            if name == "wck" or name.startswith("wck.")
        ]
        for metric, modname, owner, attr in TRACED:
            holder = sys.modules[modname]
            if owner is not None:
                holder = getattr(holder, owner)
            orig = vars(holder)[attr]
            wrapped = self._wrap(metric, orig)
            self._patch(holder, attr, wrapped)
            if owner is None:
                for mod in wck_modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._patch(mod, key, wrapped)

    def _patch(self, holder, attr, value):
        self._patched.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def uninstall(self):
        while self._patched:
            holder, attr, orig = self._patched.pop()
            setattr(holder, attr, orig)

    def metrics(self, first, last):
        """Calls, inclusive and self seconds per function in spans[first:last],
        and the sizes gathered since install()."""
        name = np.asarray(self.name)[first:last]
        parent = np.asarray(self.parent)[first:last]
        outer = np.asarray(self.outer)[first:last].astype(bool)
        dur = np.asarray(self.end)[first:last] - np.asarray(self.start)[first:last]
        child = np.zeros(len(dur))
        inside = parent >= first
        np.add.at(child, parent[inside] - first, dur[inside])
        own = dur - child
        out = {}
        for metric, *_ in TRACED:
            sel = name == self._id(metric)
            out[metric + ".calls"] = int(sel.sum())
            out[metric + ".s"] = float(dur[sel & outer].sum())
            out[metric + ".self_s"] = float(own[sel].sum())
        out.update({key: self.sizes.get(key, 0) for key in SIZE_METRICS})
        return out

    def save(self, path):
        """Write every span, with the span names and request names, as .npz."""
        np.savez(
            path,
            names=np.array(self.names),
            requests=np.array(self.requests),
            name=np.asarray(self.name),
            parent=np.asarray(self.parent),
            request=np.asarray(self.request),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
        )

