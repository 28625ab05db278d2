"""Outputs compared byte for byte with a committed golden file.

data/golden_outputs.json holds, per tower, bratteli_json() and the
to_json() of its invariant-family lattice, each as
json.dumps(..., sort_keys=True): the eleven corpus graphs unweighted at
n_max=3, the weighted 3-cycle at the default window, and the closure-o2
benchmark tower of seed 1. A change of representation inside wck must
leave every byte of them as it is. When an output change is intended,
rewrite the file with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from util import corpus_graphs, cycle_weight_spec, load_workloads
from wck import ideals
from wck.tower import TowerConfig, build_tower
from wck.weights import WeightSpec, from_dict

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_outputs.json"


def golden_case(key):
    """(graph, weights, config) of one golden tower."""
    corpus = corpus_graphs()
    if key in corpus:
        g = corpus[key]
        return g, WeightSpec.unweighted(g), TowerConfig(n_max=3)
    if key == "C3w":
        g = corpus["C3"]
        return g, cycle_weight_spec(g, (2.0, 1.0, 3.0)), TowerConfig()
    g = corpus["O2"]
    doc = load_workloads().o2_weights_doc(np.random.default_rng(1))
    return g, from_dict(doc, g), TowerConfig(n_max=1, M=6, W=2)


KEYS = sorted(corpus_graphs()) + ["C3w", "closure-o2:1"]


def outputs(key):
    tw = build_tower(*golden_case(key))
    return {
        "bratteli": json.dumps(tw.bratteli_json(), sort_keys=True),
        "lattice": json.dumps(
            ideals.enumerate_families(tw).to_json(), sort_keys=True
        ),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("key", KEYS)
def test_outputs_match_golden(golden, key):
    assert outputs(key) == golden[key]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps({key: outputs(key) for key in KEYS}, indent=1, sort_keys=True)
        + "\n"
    )
