"""The benchmark tracer still finds every function it times.

perfbench/spans.py looks each TRACED entry up by name, so renaming or
deleting one of those functions breaks a traced benchmark run. The
tracer module is loaded from its file and used as it is.
"""

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import wck
from util import cycle_graph

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    for info in pkgutil.iter_modules(wck.__path__):
        importlib.import_module("wck." + info.name)
    spec = importlib.util.spec_from_file_location("wck_bench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _holder(modname, owner):
    holder = sys.modules[modname]
    return holder if owner is None else getattr(holder, owner)


def _bindings(originals):
    """Every module-level name of a wck module bound to a traced function."""
    ids = {id(fn) for fn in originals.values()}
    return {
        (name, key): value
        for name, mod in sys.modules.items()
        if name == "wck" or name.startswith("wck.")
        for key, value in vars(mod).items()
        if id(value) in ids
    }


def test_traced_functions_resolve_and_are_restored():
    spans = _load_spans()
    originals = {}
    for metric, modname, owner, attr in spans.TRACED:
        assert attr in vars(_holder(modname, owner)), metric
        originals[metric] = vars(_holder(modname, owner))[attr]
    bindings = _bindings(originals)

    from wck import ideals, tower, weights

    g = cycle_graph(3)
    tracer = spans.Tracer()
    tracer.install()
    try:
        tw = tower.build_tower(g, weights.WeightSpec.unweighted(g))
        lattice = ideals.enumerate_families(tw)
    finally:
        tracer.uninstall()
    assert len(lattice) == 2

    calls = tracer.metrics(0, len(tracer.start))
    assert calls["tower.build_tower.calls"] == 1
    assert calls["ideals.enumerate_families.calls"] == 1
    assert calls["graphs.paths.calls"] > 0
    # every corner is decomposed by central_decomposition, one summand per label
    assert calls["findim.central_decomposition.summands_out"] == len(tw.labels)
    for metric, modname, owner, attr in spans.TRACED:
        assert vars(_holder(modname, owner))[attr] is originals[metric], metric
    assert _bindings(originals) == bindings
